"""The four workloads: inputs from a seed, the operations, their checks and
the per-layer metrics read from a traced run.

An operation is one sequence of public calls a user would make.  Every run
repeats whole rounds of the same operation list, so the share of failed
operations does not depend on the run length.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

from quiddity import (
    _kernel,
    bounds,
    clusters,
    cycles,
    enumeration,
    frieze,
    jsonio,
    labelling,
    reduction,
    rings,
    transforms,
)

import checks
import inputs
from exact import Gauss


class Op:
    """call() -> output; check(output) raises CheckError.  A `deferred`
    check runs after the peak memory has been read."""

    __slots__ = ("name", "call", "check", "deferred")

    def __init__(self, name, call, check, deferred=False):
        self.name = name
        self.call = call
        self.check = check
        self.deferred = deferred


# ---------------------------------------------------------------------------
# enumerate: Z:1-5, Zi:1-3, Zzeta6:1-3 in a seeded order
#
# Z:6 is left out: one call takes about 13 s, so a run would hold a single
# round and the median operation would rest on one sample of each cell.

ENUMERATE_CELLS = [("Z", n) for n in range(1, 6)] + [("Zi", n) for n in (1, 2, 3)] \
    + [("Zzeta6", n) for n in (1, 2, 3)]


def _enumerate_op(tag, n):
    def call():
        # what `quiddity enumerate --ring TAG --height N --format json` does
        result = enumeration.count_nonzero(rings.ring_from_tag(tag), n)
        return jsonio.dumps(jsonio.result_to_json(result))

    return Op(f"{tag}:{n}", call, lambda text: checks.check_enumerate(tag, n, text))


def build_enumerate(rng):
    cells = list(ENUMERATE_CELLS)
    rng.shuffle(cells)
    return [_enumerate_op(tag, n) for tag, n in cells]


# ---------------------------------------------------------------------------
# polygon: reduction, labelling and labelling reduction, m = 20 .. 65
#
# Several cycles of each kind and size: the cost of one cycle varies by
# about 10% with its shape, and a few large cycles would carry that spread
# into the whole round.  Per kind 1, 2, 5 and 3 cycles at m = 20, 35, 50
# and 65 put the median operation in the middle of the ten at m = 50.

POLYGON_SIZES = (20,) + (35,) * 2 + (50,) * 5 + (65,) * 3


def _polygon_op(kind, entries):
    def call():
        cycle = cycles.Cycle(rings.Z, entries)
        trace = reduction.reduce_to_base(cycle)
        lab = labelling.labelling_from_cycle(cycle)
        steps = [labelling.reduce_labelling_step(lab)]
        while not steps[-1].terminal:
            steps.append(labelling.reduce_labelling_step(steps[-1].after))
        return trace, lab, steps

    def check(out):
        trace, lab, steps = out
        checks.check_trace(entries, trace)
        checks.check_labelling(entries, lab)
        checks.check_labelling_steps(lab, steps)

    return Op(f"{kind}:{len(entries)}", call, check)


def build_polygon(rng):
    ops = [_polygon_op("cc", inputs.cc_cycle(rng, m)) for m in POLYGON_SIZES]
    ops += [_polygon_op("mixed", inputs.mixed_cycle(rng, m)) for m in POLYGON_SIZES]
    return ops


# ---------------------------------------------------------------------------
# cluster: zero-free cluster search at m = 9 .. 12, a full Ptolemy check at 10

def _cluster_op(kind, entries):
    def call():
        return clusters.find_zero_free_cluster(cycles.Cycle(rings.Z, entries))

    return Op(f"{kind}:{len(entries)}", call, lambda found: checks.check_cluster(entries, found))


def _ptolemy_op(kind, entries):
    def call():
        return clusters.check_ptolemy(frieze.frieze_from_cycle(cycles.Cycle(rings.Z, entries)))

    def check(ok):
        checks.require(ok is True, f"Ptolemy relation reported broken on {entries}")

    return Op(f"ptolemy-{kind}:{len(entries)}", call, check)


def build_cluster(rng):
    """Finds at m = 9 (3), 10 (5), 11 (3), 12 (1) and one Ptolemy check, so
    that the median operation is the middle one of the five at m = 10."""
    def cc(m):
        return inputs.cc_cycle(rng, m)

    def zeros(m):
        # squares labelled 0 put zeros into the cycle and many into its frieze
        return inputs.mixed_cycle(rng, m, square_share=0.6, minus_share=0.2, square_values=(0,))

    finds = [("cc", cc(9)), ("zeros", zeros(9)), ("all-ones", (1,) * 9)]
    finds += [("cc", cc(10)), ("zeros", zeros(10)), ("cc", cc(10)), ("zeros", zeros(10)),
              ("all-zero", (0,) * 10)]
    finds += [("cc", cc(11)), ("zeros", zeros(11)), ("cc", cc(11)), ("cc", cc(12))]
    ops = [_cluster_op(kind, c) for kind, c in finds]
    ops.append(_ptolemy_op("cc", finds[3][1]))
    return ops


# ---------------------------------------------------------------------------
# fields: transform chains over Q and Q(i), friezes over Q(i), unit families

def _to_program(field, x):
    if field == "Q":
        return Fraction(x)
    if isinstance(x, Gauss):
        return rings.GaussianRational(x.re, x.im)
    return rings.GaussianRational(x, 0)


def _chain_op(chain, then_frieze=False):
    """Apply every rule of the chain in order; then, optionally, build the
    final cycle's frieze and verify it."""
    field = chain["field"]
    ring = rings.Q if field == "Q" else rings.Qi
    start = cycles.Cycle(ring, [_to_program(field, x) for x in chain["start"]])
    plan = []  # the steps as the program takes them
    for rule, k, param in chain["plan"]:
        p = None if param is None else _to_program(field, param)
        if rule == "conjugate_diag":
            plan.append((rule, (ring, tuple(_to_program(field, x) for x in k), p)))
        elif rule == "scale_alternating":
            plan.append((rule, (p,)))
        else:
            plan.append((rule, (k,) if p is None else (k, p)))

    def call():
        cyc = start
        steps = []  # (input cycle, result) per rule
        for rule, args in plan:
            if rule == "conjugate_diag":
                out = transforms.conjugate_diag(*args)
            else:
                out = getattr(transforms, rule)(cyc, *args)
            steps.append((cyc, out))
            if rule != "conjugate_diag":
                cyc = out.cycle if isinstance(out, transforms.SignedCycle) else out
        if not then_frieze:
            return steps, None, None
        f = frieze.frieze_from_cycle(cyc)
        return steps, f, frieze.verify(f.window())

    def check(out):
        steps, f, report = out
        for (rule, k, param), (cyc, result) in zip(chain["plan"], steps, strict=True):
            before = tuple(k) if rule == "conjugate_diag" else checks.own_entries(cyc)
            checks.check_rule(rule, before, param, result)
        if then_frieze:
            checks.check_frieze(checks.own_entries(f.cycle), f, report)

    name = f"{field}:chain" + ("+frieze" if then_frieze else "")
    return Op(f"{name}:{len(chain['start'])}", call, check)


def _unit_family_op(d, n, how_many):
    def call():
        return enumeration.unit_family(rings.Cyclotomic(d), n, how_many)

    return Op(f"unit_family:Zzeta{d}:{n}", call,
              lambda members: checks.check_unit_family(d, n, how_many, members),
              deferred=True)


def build_fields(rng):
    """Ten random rule chains, twelve quiddity chains with their friezes and
    ten unit families: the median operation falls among the medium-sized
    unit families and friezes, not among the short chains."""
    ops = [_chain_op(inputs.transform_chain(rng, field, steps=16))
           for field in ("Q",) * 6 + ("Qi",) * 4]
    ops += [_chain_op(inputs.quiddity_chain(rng, m), then_frieze=True)
            for m in (10, 12, 14, 16, 18, 20) * 2]
    ops += [_unit_family_op(d, n, 10) for d in (5, 7) for n in (2, 3, 4, 5, 6)]
    return ops


BUILDERS = {
    "enumerate": build_enumerate,
    "polygon": build_polygon,
    "cluster": build_cluster,
    "fields": build_fields,
}


def build(workload: str, seed: int) -> list:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# traced run: spans and the per-layer metrics read from them

KERNEL = "kernel.search_from_prefix"
SAMPLED = (KERNEL, "reduction.reduce_step_Z")
TRANSFORM_RULES = ("expand_one", "contract_one", "expand_minus_one", "contract_minus_one",
                   "contract_uv", "rescale_lambda", "contract_zero", "shift_zero",
                   "conjugate_diag", "scale_alternating")


def install_spans(tracer):
    """Wrap the public calls of every layer the workloads reach."""
    last_list = []

    def keep_list(result):
        last_list[:] = [result]
        return len(result)

    def needed(found):
        # triangulations tested before the answer: all of them when None
        tris = last_list[0] if last_list else []
        if found is None:
            return len(tris)
        target = found.triangulation.diagonals
        return next(i + 1 for i, t in enumerate(tris) if t.diagonals == target)

    fn = tracer.install_function
    fn(_kernel.search_from_prefix, KERNEL, result_size=len)
    fn(bounds.candidate_entries, "bounds.candidate_entries", result_size=len)
    for name in ("count_nonzero", "enumerate_nonzero", "unit_family"):
        fn(getattr(enumeration, name), f"enumeration.{name}")
    for name in ("result_to_json", "dumps"):
        fn(getattr(jsonio, name), f"jsonio.{name}")
    for name in ("reduce_to_base", "reduce_step_Z"):
        fn(getattr(reduction, name), f"reduction.{name}")
    for name in ("labelling_from_cycle", "reduce_labelling_step"):
        fn(getattr(labelling, name), f"labelling.{name}")
    fn(labelling.enumerate_triangulations, "labelling.enumerate_triangulations",
       result_size=keep_list)
    fn(clusters.find_zero_free_cluster, "clusters.find_zero_free_cluster",
       result_size=needed)
    fn(clusters.check_ptolemy, "clusters.check_ptolemy")
    for name in TRANSFORM_RULES:
        fn(getattr(transforms, name), f"transforms.{name}")
    fn(cycles.is_quiddity, "cycles.is_quiddity")
    for name in ("frieze_from_cycle", "verify"):
        fn(getattr(frieze, name), f"frieze.{name}")
    tracer.install_method(Fraction, "__mul__", "rings.mul.Q")
    tracer.install_method(rings.GaussianRational, "__mul__", "rings.mul.Qi")
    tracer.install_method(rings.GaussianRationalField, "exact_div", "rings.div.Qi")
    tracer.install_method(rings.CycloElement, "__mul__",
                          lambda x, _y: f"rings.mul.Zzeta{x.ring.d}")


def _percentile(samples, q):
    if len(samples) < 2:
        return samples[0] if samples else 0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, rounds: int) -> dict:
    """Per-round values (totals divided by the traced rounds), per-call
    means for ring arithmetic, percentiles over every kernel task.  A layer
    the workload never calls reads 0."""
    st = tracer.stats

    def total_s(name, self_time=False):
        s = st.get(name)
        if s is None:
            return 0.0
        return (s.self_ns if self_time else s.total_ns) / 1e9 / rounds

    def count(name):
        s = st.get(name)
        return s.count / rounds if s else 0

    def results(name):
        s = st.get(name)
        return s.results / rounds if s else 0

    def mean_ns(name):
        s = st.get(name)
        return s.total_ns / s.count if s and s.count else 0

    def samples_us(name, q):
        s = st.get(name)
        return _percentile(s.samples, q) / 1e3 if s and s.samples else 0

    tasks = count(KERNEL)
    built = results("labelling.enumerate_triangulations")
    want = results("clusters.find_zero_free_cluster")
    return {
        "bounds.candidates": ("count", results("bounds.candidate_entries")),
        "enumeration.tasks": ("count", tasks),
        "kernel.search_s": ("s", total_s(KERNEL)),
        "kernel.task_p50_us": ("us", samples_us(KERNEL, 50)),
        "kernel.task_p99_us": ("us", samples_us(KERNEL, 99)),
        "kernel.cycles_per_task": ("count", results(KERNEL) / tasks if tasks else 0),
        "enumeration.collect_s": ("s", total_s("enumeration.enumerate_nonzero", True)),
        "enumeration.orbits_s": ("s", total_s("enumeration.count_nonzero", True)),
        "jsonio.result_s": ("s", total_s("jsonio.result_to_json") + total_s("jsonio.dumps")),
        "reduction.reduce_s": ("s", total_s("reduction.reduce_to_base")),
        "reduction.steps": ("count", count("reduction.reduce_step_Z")),
        "reduction.step_p50_us": ("us", samples_us("reduction.reduce_step_Z", 50)),
        "labelling.replay_s": ("s", total_s("labelling.labelling_from_cycle", True)),
        "labelling.reduce_s": ("s", total_s("labelling.reduce_labelling_step")),
        "labelling.steps": ("count", count("labelling.reduce_labelling_step")),
        "clusters.search_s": ("s", total_s("clusters.find_zero_free_cluster")),
        "labelling.triangulations_s": ("s", total_s("labelling.enumerate_triangulations")),
        "clusters.triangulations_built": ("count", built),
        "clusters.triangulations_needed": ("count", want),
        "clusters.useful_share": ("share", want / built if built else 0),
        "clusters.ptolemy_s": ("s", total_s("clusters.check_ptolemy")),
        "rings.mul_ns.Q": ("ns", mean_ns("rings.mul.Q")),
        "rings.mul_ns.Qi": ("ns", mean_ns("rings.mul.Qi")),
        "rings.div_ns.Qi": ("ns", mean_ns("rings.div.Qi")),
        "rings.mul_ns.Zzeta5": ("ns", mean_ns("rings.mul.Zzeta5")),
        "transforms.apply_s": ("s", sum(total_s(f"transforms.{r}") for r in TRANSFORM_RULES)),
        "cycles.quiddity_s": ("s", total_s("cycles.is_quiddity")),
        "frieze.verify_s": ("s", total_s("frieze.verify")),
        "frieze.build_s": ("s", total_s("frieze.frieze_from_cycle")),
        "enumeration.unit_family_s": ("s", total_s("enumeration.unit_family")),
    }
