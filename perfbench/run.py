"""Benchmark for the quiddity package: one workload per run.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One process, one thread, `jobs=1`, the default search kernel.  A
run sets up (set-up time is the median of five fresh processes that import
the package and build the inputs), then repeats whole rounds of the
workload's operations while the next round still fits in `--seconds`.  The
first round's outputs are checked; every later round must reproduce them.
Program caches are cleared before each round, as a fresh process would
have them.

Times are CPU seconds (set-up: of the fresh process, from its start),
scaled to a reference speed: each round is timed next to `reference()`, a
fixed computation in the benchmark's own code, and its CPU times are
multiplied by REFERENCE_S / (the reference's median CPU time meanwhile);
each set-up process times the reference itself once it is ready.  Other
work on the same cores slows the process by up to a quarter for minutes at
a time; the scaling takes that out.  Unscaled and elapsed times go to the
report file.  Per-layer metrics are not scaled.

With `--trace 1` untraced and traced rounds alternate; the traced ones give
the per-layer metrics and their ratio gives the tracing overhead.

The last line of standard output is the result as JSON.  The same result,
with provenance and per-operation timings, is written to
`BENCH_<workload>[_trace].json` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import exact
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
REFERENCE_S = 0.0035  # reference() CPU seconds on the machine of record
REFERENCE_EVERY_S = 0.25
REFERENCE_CYCLE = tuple(exact.Gauss(7 * k % 23 - 11, k % 5 - 2) for k in range(16))
WORKLOADS = ("enumerate", "polygon", "cluster", "fields")


def load_package():
    """Import quiddity from this checkout's src/ and the benchmark modules."""
    if not (SRC / "quiddity" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'quiddity'}; "
                 "run from the root of a quiddity checkout")
    os.environ.pop("QUIDDITY_PURE", None)
    sys.path.insert(0, str(SRC))
    import quiddity

    if Path(quiddity.__file__).resolve().parent != (SRC / "quiddity").resolve():
        sys.exit(f"error: imported quiddity from {quiddity.__file__}, not from {SRC}")
    import workloads

    return workloads


def measure_setup(workload: str, seed: int):
    """Median CPU time a fresh interpreter spends from its start until it
    has imported the package and built the workload's inputs: scaled by the
    reference timed in that same process just after, and unscaled."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as child:
            words = child.stdout.readline().split()
            child.stdout.read()
            code = child.wait(timeout=60)
        if len(words) != 3 or words[0] != "ready" or code != 0:
            sys.exit(f"error: set-up process failed (exit {code})")
        raw.append(float(words[1]))
        scaled.append(raw[-1] * REFERENCE_S / float(words[2]))
    return statistics.median(scaled), statistics.median(raw)


def cache_clearers() -> list:
    """cache_clear of every functools cache in the package."""
    out = []
    for name, module in list(sys.modules.items()):
        if name.startswith("quiddity") and module is not None:
            out += [obj.cache_clear for obj in vars(module).values()
                    if callable(getattr(obj, "cache_clear", None))]
    return out


def digest(output) -> bytes:
    return hashlib.sha256(repr(output).encode()).digest()


def reference():
    """A fixed computation in the benchmark's own code, no package code: the
    Z:3 brute-force search and the continuant table of a Gaussian 16-cycle."""
    checks.brute_force("Z", 3)
    exact.frieze_rows(REFERENCE_CYCLE)


def time_reference() -> float:
    start = time.process_time()
    reference()
    return time.process_time() - start


class Runner:
    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.clear = cache_clearers()
        self.expected = None  # per-op digests of the first round
        self.deferred = []  # (op, output) checked after peak memory
        self.failures = []  # operations that raised
        self.problems = []  # outputs that failed a check
        self.attempted = 0
        self.failed = 0

    def round(self, traced=False):
        """One pass over the operations: per-op CPU seconds (None where one
        failed) and the median CPU time of reference(), timed at the start
        and then at most every REFERENCE_EVERY_S between operations.  With
        `traced`, spans are recorded inside the operations."""
        for clear in self.clear:
            clear()
        first = self.expected is None
        digests, times, refs = [], [], []
        last_ref = None
        for op in self.ops:
            if last_ref is None or time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs.append(time_reference())
                last_ref = time.perf_counter()
            self.attempted += 1
            if traced:
                self.tracer.active = True
            start = time.process_time()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                times.append(None)
                self.failed += 1
                self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                digests.append(None)
                continue
            finally:
                if traced:
                    self.tracer.active = False
            times.append(time.process_time() - start)
            digests.append(digest(out))
            if first:
                if op.deferred:
                    self.deferred.append((op, out))
                else:
                    self.check(op, out)
            elif digests[-1] != self.expected[len(digests) - 1]:
                self.problems.append(f"{op.name}: output differs from the first round")
        if first:
            self.expected = digests
        return times, statistics.median(refs)

    def check(self, op, out):
        try:
            op.check(out)
        except checks.CheckError as exc:
            self.problems.append(f"{op.name}: {exc}")

    def finish_checks(self):
        for op, out in self.deferred:
            self.check(op, out)
        self.deferred = []


def provenance(seed: int, kernel: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "kernel": kernel,
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, print 'ready', the CPU seconds "
                        "used so far and the median CPU time of reference(), exit")
    args = parser.parse_args(argv)

    workloads = load_package()
    ops = workloads.build(args.workload, args.seed)
    if args.setup_only:
        ready = time.process_time()
        reference_s = statistics.median(time_reference() for _ in range(5))
        print(f"ready {ready!r} {reference_s!r}", flush=True)
        return 0

    from quiddity.enumeration import active_kernel

    setup_s, setup_raw_s = measure_setup(args.workload, args.seed)
    tracer = Tracer(sample_names=workloads.SAMPLED) if args.trace else None
    runner = Runner(ops, tracer)
    if tracer:
        workloads.install_spans(tracer)

    plain, traced = [], []  # per round: (per-op CPU seconds, reference median)
    elapsed_rounds = []
    began = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            traced.append(runner.round(traced=True))
        else:
            plain.append(runner.round())
        elapsed_rounds.append(time.perf_counter() - start)
        longest = max(longest, elapsed_rounds[-1])
        elapsed = time.perf_counter() - began
        need_traced = tracer is not None and not traced
        if not need_traced and elapsed + longest > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.remove()
    runner.finish_checks()

    def scaled(rounds):
        return [[t if t is None else t * REFERENCE_S / ref for t in times]
                for times, ref in rounds]

    def walls(rounds):
        return [sum(t for t in r if t is not None) for r in rounds]

    def op_p50_ms(rounds):
        per_op = [statistics.median(r[i] for r in rounds if r[i] is not None)
                  for i in range(len(ops)) if any(r[i] is not None for r in rounds)]
        return statistics.median(per_op) * 1e3 if per_op else 0.0

    raw_rounds = [times for times, _ in plain]
    raw = {"setup_s": setup_raw_s, "wall_s": statistics.median(walls(raw_rounds)),
           "op_p50_ms": op_p50_ms(raw_rounds)}
    if tracer:
        overhead = (statistics.median(walls(scaled(traced)))
                    / statistics.median(walls(scaled(plain))))
        metrics = {name: {"value": value, "unit": unit} for name, (unit, value)
                   in workloads.layer_metrics(tracer, len(traced)).items()}
        metrics["trace.overhead_x"] = {"value": overhead, "unit": "x"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls(scaled(plain))), "unit": "s"},
            "op_p50_ms": {"value": op_p50_ms(scaled(plain)), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not runner.problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}

    prov = provenance(args.seed, active_kernel())
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": prov,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "ops": [op.name for op in ops],
        "unscaled": raw,
        "reference_cpu_s": [ref for _, ref in plain],
        "op_cpu_seconds": raw_rounds,
        "round_elapsed_seconds": elapsed_rounds,
        "failures": runner.failures,
        "problems": runner.problems,
        "result": result,
    }
    name = f"BENCH_{args.workload}{'_trace' if args.trace else ''}.json"
    (ROOT / name).write_text(json.dumps(report, indent=1) + "\n")
    for line in runner.failures:
        print(f"failed: {line}", file=sys.stderr)
    for line in runner.problems:
        print(f"wrong: {line}", file=sys.stderr)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
