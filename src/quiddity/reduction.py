"""Reduction of integer cycles to the base cases (0,0) and (1,1,1).

Two engines live here.  `reduce_step_epsilon` works on epsilon-cycles
(eta-product equals eps times the identity) and applies the first matching of
four cases: terminal (0,0); drop a 1; collapse around a 0 (flips eps); drop a
-1 (flips eps).  `reduce_step_Z` works on quiddity cycles and applies one of
six cases chosen by fixed priority, restoring quiddity after every step by
pairing contractions or negating:

    T0  terminal (0,0) or (1,1,1)
    T1  drop a 1
    T2  collapse around a 0, then negate (m odd)
    T3  drop a -1, then negate (m even)
    T4  collapse around two separated 0s
    T5  drop two separated -1s

At least one case always applies; that is a theorem, and the engine raises
RuntimeError rather than guessing if the scan comes up empty.  Every step
asserts that its output is a quiddity cycle.  `reduce_step_Z` also checks
its input; `reduce_to_base` checks only the first, so each cycle of a trace
is checked exactly once.

Every step also records a glue script: instructions that rebuild `before`
from `after` by gluing labelled blocks (triangles labelled +-1, squares
labelled (x, -x)) onto a polygon, plus negation markers.  The labelling
module replays these scripts on actual triangulations; here they are
constructed and validated on vertex sums alone.  Both the glue edges and the
step's `rotation` are computed from the contraction indices: when a
contraction window wrapped past vertex 1, its blocks are glued onto the wrap
edge and land at the end, and `rotation` is the 0-based position of
`before`'s first vertex among the rebuilt sums.  Rotating the rebuilt sums
left by it gives `before` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from quiddity.bounds import _first_separated_pair
from quiddity.cycles import Cycle, is_epsilon_cycle, is_quiddity, negate
from quiddity.errors import InvalidCycleError, UnsupportedRingError, UsageError
from quiddity.rings import Z
from quiddity.transforms import contract_minus_one, contract_one, contract_zero

__all__ = [
    "ReductionStep",
    "ReductionTrace",
    "reduce_step_epsilon",
    "reduce_step_Z",
    "reduce_to_base",
    "invert_trace",
    "apply_glue_to_sums",
]


_ARITY = {"negate": 1, "triangle": 3, "square": 3}


def apply_glue_to_sums(entries: tuple, instr: tuple) -> tuple:
    """Apply one glue instruction to a tuple of vertex sums.

    ("negate",)            negate every sum
    ("triangle", p, s)     glue a triangle labelled s onto edge (p, p+1):
                           (..., a, b, ...) -> (..., a+s, s, b+s, ...)
    ("square", p, x)       glue a square labelled (x, -x) onto edge (p, p+1):
                           (..., a, b, ...) -> (..., a, x, 0, b-x, ...)

    p = len(entries) addresses the wrap edge; the new vertices then land at
    the end of the tuple, so the result starts at the old vertex 1 and a
    step's `rotation` records where its own first vertex landed.  An unknown
    kind, a wrong arity, or an edge p outside 1..len(entries) raises
    UsageError.
    """
    mu = len(entries)
    kind = instr[0] if isinstance(instr, tuple) and instr else None
    if not isinstance(kind, str) or len(instr) != _ARITY.get(kind):
        raise UsageError(f"malformed glue instruction {instr!r}")
    if kind == "negate":
        return tuple(-c for c in entries)
    p = instr[1]
    if type(p) is not int or not 1 <= p <= mu:
        raise UsageError(f"glue edge {p!r} is not an edge 1..{mu}")
    out = list(entries)
    if kind == "triangle":
        s = instr[2]
        out[p - 1] = out[p - 1] + s
        out[p % mu] = out[p % mu] + s
        out.insert(p, s) if p < mu else out.append(s)
        return tuple(out)
    x = instr[2]
    zero = x - x
    out[p % mu] = out[p % mu] - x
    if p < mu:
        out[p:p] = [x, zero]
    else:
        out.extend([x, zero])
    return tuple(out)


def _replay_sums(entries: tuple, script: tuple) -> tuple:
    for instr in script:
        entries = apply_glue_to_sums(entries, instr)
    return entries


_WIDTH = {"triangle": 1, "square": 2}


def _undo_contraction(n: int, k: int, kind: str, value, offset: int = 0):
    """The glue instruction that undoes a contraction at index k, and the
    rotation it leaves.

    The contraction removed the w vertices k-w+1 .. k of a cycle and left n
    (w = 1 for a triangle, 2 for a square).  The block goes back onto edge
    k - w, or onto the wrap edge n when the window held vertex 1; its new
    vertices then land at the end, and the cycle's vertex 1 is new vertex
    number w - k among them.  The n-gon glued onto may read the contracted
    cycle rotated: `offset` is the 0-based position of that cycle's vertex 1
    in it.  Returns the instruction and the 0-based position of the
    uncontracted cycle's vertex 1 after gluing.
    """
    w = _WIDTH[kind]
    if k > w:
        edge = (k - w - 1 + offset) % n + 1
        first = offset if offset < edge else offset + w
    else:
        edge = (n - 1 + offset) % n + 1
        first = edge + w - k
    return (kind, edge, value), first


@dataclass(frozen=True)
class ReductionStep:
    case_tag: str
    indices: tuple
    before: Cycle
    after: Cycle
    eps_before: int
    eps_after: int
    glue_script: tuple = field(default_factory=tuple)
    rotation: int = 0

    @property
    def terminal(self) -> bool:
        return self.case_tag in ("T0", "I0")

    def __post_init__(self):
        if self.glue_script:
            rebuilt = _replay_sums(self.after.entries, self.glue_script)
            r = self.rotation
            assert rebuilt[r:] + rebuilt[:r] == self.before.entries, \
                "glue script does not rebuild the step input"


@dataclass(frozen=True)
class ReductionTrace:
    start: Cycle
    steps: tuple

    @property
    def end(self) -> Cycle:
        return self.steps[-1].after if self.steps else self.start


def _require_integer(cycle: Cycle):
    if cycle.ring is not Z:
        raise UnsupportedRingError("reduction is an integer-cycle result")


def _positions_of(cycle: Cycle, value) -> list:
    return [k for k in range(1, cycle.m + 1) if cycle.entry(k) == value]


def reduce_step_epsilon(cycle: Cycle, eps: int) -> ReductionStep:
    """One reduction case for an integer epsilon-cycle.

    Cases in priority order: terminal (0,0); entry 1 (eps kept); entry 0
    (eps flipped); entry -1 (eps flipped).  One of them always applies.
    """
    _require_integer(cycle)
    if not is_epsilon_cycle(cycle, eps):
        raise InvalidCycleError(f"not a {eps:+d}-cycle: {cycle}")
    if cycle.entries == (0, 0):
        return ReductionStep("I0", (), cycle, cycle, eps, eps)
    ones = _positions_of(cycle, 1)
    if ones:
        k = ones[0]
        after = contract_one(cycle, k).cycle
        instr, r = _undo_contraction(after.m, k, "triangle", 1)
        return ReductionStep("I1", (k,), cycle, after, eps, eps, (instr,), r)
    zeros = _positions_of(cycle, 0)
    if zeros:
        k = zeros[0]
        after = contract_zero(cycle, k).cycle
        instr, r = _undo_contraction(after.m, k, "square", cycle.entry(k - 1))
        return ReductionStep("I2", (k,), cycle, after, eps, -eps, (instr,), r)
    minus = _positions_of(cycle, -1)
    if minus:
        k = minus[0]
        after = contract_minus_one(cycle, k).cycle
        instr, r = _undo_contraction(after.m, k, "triangle", -1)
        return ReductionStep("I3", (k,), cycle, after, eps, -eps, (instr,), r)
    raise RuntimeError("no entry in {-1,0,1}; contradicts the small-entry corollary")


def reduce_step_Z(cycle: Cycle) -> ReductionStep:
    """One reduction case for an integer quiddity cycle, by fixed priority
    T0 > T1 > T2 > T3 > T4 > T5 with minimal indices.

    The result of every non-terminal case is again a quiddity cycle
    (asserted).  One case always applies; that is the classification theorem
    this engine implements.
    """
    _require_integer(cycle)
    if not is_quiddity(cycle):
        raise InvalidCycleError(f"not a quiddity cycle: {cycle}")
    if cycle.entries in ((0, 0), (1, 1, 1)):
        return ReductionStep("T0", (), cycle, cycle, -1, -1)
    return _reduce_step(cycle)


def _reduce_step(cycle: Cycle) -> ReductionStep:
    """Cases T1-T5 of `reduce_step_Z` on a cycle known to be quiddity; the
    result is asserted quiddity, so a chain of steps checks each cycle once.
    On (1, 1, 1) this is the T1 at 1 that ends at (0, 0)."""
    m = cycle.m
    ones = _positions_of(cycle, 1)
    if ones:
        k = ones[0]
        after = contract_one(cycle, k).cycle
        assert is_quiddity(after)
        instr, r = _undo_contraction(after.m, k, "triangle", 1)
        return ReductionStep("T1", (k,), cycle, after, -1, -1, (instr,), r)

    zeros = _positions_of(cycle, 0)
    if zeros and m % 2 == 1:
        k = zeros[0]
        mid = contract_zero(cycle, k).cycle
        after = negate(mid)
        assert is_quiddity(after)
        instr, r = _undo_contraction(mid.m, k, "square", cycle.entry(k - 1))
        return ReductionStep("T2", (k,), cycle, after, -1, -1,
                             (("negate",), instr), r)

    minus = _positions_of(cycle, -1)
    if minus and m % 2 == 0:
        k = minus[0]
        mid = contract_minus_one(cycle, k).cycle
        after = negate(mid)
        assert is_quiddity(after)
        instr, r = _undo_contraction(mid.m, k, "triangle", -1)
        return ReductionStep("T3", (k,), cycle, after, -1, -1,
                             (("negate",), instr), r)

    pair = _first_separated_pair(zeros, m)
    if pair:
        j, k = pair
        # contracting at k removes k - 1 and k, both above j (k - j > 1),
        # so j keeps its index in the middle cycle
        mid = contract_zero(cycle, k).cycle
        after = contract_zero(mid, j).cycle
        assert is_quiddity(after)
        first, r = _undo_contraction(after.m, j, "square", mid.entry(j - 1))
        second, r = _undo_contraction(mid.m, k, "square", cycle.entry(k - 1), r)
        return ReductionStep("T4", (j, k), cycle, after, -1, -1,
                             (first, second), r)

    pair = _first_separated_pair(minus, m)
    if pair:
        j, k = pair
        mid = contract_minus_one(cycle, k).cycle
        after = contract_minus_one(mid, j).cycle
        assert is_quiddity(after)
        first, r = _undo_contraction(after.m, j, "triangle", -1)
        second, r = _undo_contraction(mid.m, k, "triangle", -1, r)
        return ReductionStep("T5", (j, k), cycle, after, -1, -1,
                             (first, second), r)

    raise RuntimeError("no case applies; contradicts the reduction theorem")


def reduce_to_base(cycle: Cycle) -> ReductionTrace:
    """Full reduction of an integer quiddity cycle to (0,0).

    The input is checked once and every step asserts its output, so each
    cycle of the trace is checked exactly once.  The terminal (1,1,1) is not
    left standing: one more T1 step takes it to (0,0), so every trace ends
    at the 2-gon and can be inverted into a triangulation labelling.
    """
    _require_integer(cycle)
    if not is_quiddity(cycle):
        raise InvalidCycleError(f"not a quiddity cycle: {cycle}")
    steps = []
    current = cycle
    while current.entries != (0, 0):
        step = _reduce_step(current)
        steps.append(step)
        assert step.after.m < current.m, "reduction must shrink the cycle"
        current = step.after
    return ReductionTrace(cycle, tuple(steps))


def invert_trace(trace: ReductionTrace) -> list:
    """Gluing stages that rebuild the traced cycle from the 2-gon.

    Returns (target_entries, glue_script) pairs in replay order: apply the
    script to the current polygon, then rotate its vertex numbering by the
    step's `rotation` so the sums read exactly `target_entries`.  The last
    target is the traced input.
    """
    assert trace.end.entries == (0, 0), "trace must end at the 2-gon"
    return [(step.before.entries, step.glue_script)
            for step in reversed(trace.steps)]
