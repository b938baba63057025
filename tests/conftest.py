"""Shared fixtures: a corpus of integer quiddity cycles, seeded random cycles, the
compiled kernel, and the table of enumeration cells.

The corpus combines every enumerated cycle of length at most 7 with two
hand-picked infinite families specialized to small parameters, the four
staircase examples exercised by the reduction tests, and the stored
example friezes.  It is computed once per session.

The compiled kernel is the installed quiddity._speedups when it imports;
otherwise the project's own setup.py builds it once per session into a
temporary directory, so the twin-kernel tests need no prior build step.

`CELLS` holds the rows of `tests/cells.json`, one per (ring, height) cell
the suite enumerates (README, "Tests"), and `ROW[tag, n]` is one of them.

Every test runs under a time limit: a test still running after
TEST_TIME_LIMIT seconds fails with TimeoutError, and the suite goes on.
"""

import importlib
import importlib.util
import json
import os
import random
import shlex
import shutil
import signal
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from quiddity import enumeration
from quiddity.cycles import Cycle
from quiddity.rings import Z, Zi, Zzeta6

# seconds; the slowest test takes about 4 s
TEST_TIME_LIMIT = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Raise TimeoutError in a test that runs past TEST_TIME_LIMIT seconds.

    SIGALRM interrupts the test in the main thread; the previous handler is
    restored afterwards.  Forked worker processes do not inherit the alarm.
    """
    def expire(signum, frame):
        raise TimeoutError(f"the test ran past its {TEST_TIME_LIMIT} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


RINGS = {ring.tag: ring for ring in (Z, Zi, Zzeta6)}
CELLS = json.loads((Path(__file__).with_name("cells.json")).read_text())
ROW = {(row["ring"], row["height"]): row for row in CELLS}


def cells_checked_by(algorithm: str) -> list:
    """(ring, n) of every row that `algorithm` confirms, in table order."""
    return [(RINGS[row["ring"]], row["height"]) for row in CELLS
            if algorithm in row["checked_by"]]


# quiddities of the displayed example arrays, keyed by fixture name
EXAMPLE_QUIDDITIES = {
    "cc_hexagon": (1, 4, 1, 2, 2, 2),
    "gaussian_period6": None,  # lives over Zi, spelled out in test_frieze
    "octagon_positive": (1, 3, 2, 2, 2, 1, 5, 2),
    "octagon_mixed": (-1, 3, 0, -2, 2, 1, 3, 0),
    "all_zero_hexagon": (0, 0, 0, 0, 0, 0),
}

# the four staircase arrays shown as reduction case studies
WORKED_REDUCTIONS = (
    (0, 2, -2, 0, 2, -2),
    (-1, -1, 0, 0, -1),
    (0, -4, -5, 0, 4, 2, 0, -3, 3),
    (-1, 2, -3, -1, -1, 2, -3, -1),
)


def _families():
    for a in range(-5, 6):
        for b in range(-5, 6):
            yield (a, 0, b, 0, -a - b, 0)
    for a in range(-5, 6):
        yield (1, 1, -a, -1, -1, a)


@pytest.fixture(scope="session")
def worked_reductions():
    return WORKED_REDUCTIONS


@pytest.fixture(scope="session")
def z_corpus():
    cycles = []
    for n in (1, 2, 3, 4):
        cycles.extend(enumeration.enumerate_nonzero(Z, n))
    for entries in _families():
        cycles.append(Cycle(Z, entries))
    for entries in WORKED_REDUCTIONS:
        cycles.append(Cycle(Z, entries))
    for name, entries in EXAMPLE_QUIDDITIES.items():
        if entries is not None:
            cycles.append(Cycle(Z, entries))
    return cycles


def _glued_cycle(rng: random.Random, m: int, kind: str = "mixed") -> tuple:
    """Vertex sums of a random labelled triangulation of the m-gon, m >= 3.

    Blocks are glued onto edges of the 2-gon with sums (0, 0): a triangle
    labelled +1 or -1 turns sums (a, b) into (a+s, s, b+s), a square
    labelled x, -x turns them into (a, x, 0, b-x).  Each -1 triangle and
    each square flips the sign of the eta product, and the last triangle's
    label makes the number of flips even.  A "mixed" cycle has any number
    of squares with x in -2..2; a "zeros" cycle has squares with x = 0 on
    at least half of the m - 3 vertices glued before the last; a "cc" cycle
    has +1 triangles only, so it is the Conway-Coxeter cycle of a random
    triangulation.
    """
    if kind == "cc":
        squares, signs = 0, (1,)
    elif kind == "zeros":
        squares, signs = rng.randint((m - 3) // 4, (m - 3) // 2), (1, -1)
    else:
        squares, signs = rng.randint(0, (m - 3) // 2), (1, -1)
    moves = ["square"] * squares + [rng.choice(signs) for _ in range(m - 3 - 2 * squares)]
    rng.shuffle(moves)
    flips = squares + moves.count(-1)
    moves.append(-1 if flips % 2 else 1)
    sums = [0, 0]
    for move in moves:
        p = rng.randrange(len(sums))
        q = (p + 1) % len(sums)
        if move == "square":
            x = 0 if kind == "zeros" else rng.randint(-2, 2)
            sums[q] -= x
            sums[p + 1:p + 1] = [x, 0]
        else:
            sums[p] += move
            sums[q] += move
            sums.insert(p + 1, move)
    assert len(sums) == m
    return tuple(sums)


@pytest.fixture(scope="session")
def glued_cycle():
    """`_glued_cycle(rng, m, kind="mixed")`: a seeded integer quiddity cycle
    of length m, of kind "cc", "mixed" or "zeros"."""
    return _glued_cycle


@pytest.fixture(scope="session")
def child_python():
    """`child_python(*args, timeout=60)`: the finished run of a child Python
    with these arguments, importing the same quiddity as this process
    wherever pytest found it.  `-O` strips assert statements."""
    src = str(Path(enumeration.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def run(*args, timeout=60):
        return subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, timeout=timeout, env=env)

    return run


REPO_ROOT = Path(__file__).resolve().parents[1]


def _c_compiler():
    """The C compiler command: CC, else the one Python was built with."""
    return os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"


def _c_toolchain_missing():
    """Why the extension cannot be compiled here, or None if it can.

    Only the two things the build needs from the machine are checked: a C
    compiler and Python.h.
    """
    cc = _c_compiler()
    if shutil.which(shlex.split(cc)[0]) is None:
        return f"no C compiler found (looked for {cc!r})"
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        return f"no Python.h in {include}"
    return None


@pytest.fixture(scope="session")
def c_compiler():
    """The C compiler command as an argument list; skips if the extension
    cannot be compiled here."""
    missing = _c_toolchain_missing()
    if missing is not None:
        pytest.skip(f"cannot compile C extensions here: {missing}")
    return shlex.split(_c_compiler())


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """quiddity._speedups: the installed extension, or one built for this session."""
    try:
        return importlib.import_module("quiddity._speedups")
    except ImportError:
        pass
    missing = _c_toolchain_missing()
    if missing is not None:
        pytest.skip(f"compiled kernel not built and cannot be built: {missing}")
    build = tmp_path_factory.mktemp("speedups")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(build / "lib"), "--build-temp", str(build / "temp")],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    built = build / "lib" / "quiddity" / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    if proc.returncode != 0 or not built.exists():
        pytest.fail(
            f"building quiddity._speedups failed (exit {proc.returncode}):\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-4000:]}",
            pytrace=False,
        )
    spec = importlib.util.spec_from_file_location("quiddity._speedups", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
