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

`_choose_case` holds that priority, for the labelling reduction too.  At
least one case always applies; that is a theorem, and the engine raises
RuntimeError rather than guessing if none does, or if a step's output is
not a quiddity cycle.  `reduce_step_Z` also checks its input;
`reduce_to_base` checks only the first, so each cycle of a trace is
checked exactly once.  A step records its case, its indices and the cycles
before and after it; `quiddity.labelling` undoes it from these alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from quiddity.bounds import _first_separated_pair
from quiddity.cycles import Cycle, is_epsilon_cycle, is_quiddity, negate
from quiddity.errors import InvalidCycleError, UnsupportedRingError
from quiddity.rings import Z
from quiddity.transforms import contract_minus_one, contract_one, contract_zero

__all__ = [
    "ReductionStep",
    "ReductionTrace",
    "reduce_step_epsilon",
    "reduce_step_Z",
    "reduce_to_base",
]


@dataclass(frozen=True)
class ReductionStep:
    case_tag: str
    indices: tuple
    before: Cycle
    after: Cycle
    eps_before: int
    eps_after: int

    @property
    def terminal(self) -> bool:
        return self.case_tag in ("T0", "I0")


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
    return [k for k, c in enumerate(cycle.entries, 1) if c == value]


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
        return ReductionStep("I1", (k,), cycle, after, eps, eps)
    zeros = _positions_of(cycle, 0)
    if zeros:
        k = zeros[0]
        after = contract_zero(cycle, k).cycle
        return ReductionStep("I2", (k,), cycle, after, eps, -eps)
    minus = _positions_of(cycle, -1)
    if minus:
        k = minus[0]
        after = contract_minus_one(cycle, k).cycle
        return ReductionStep("I3", (k,), cycle, after, eps, -eps)
    raise RuntimeError("no entry in {-1,0,1}; contradicts the small-entry corollary")


def reduce_step_Z(cycle: Cycle) -> ReductionStep:
    """One reduction case for an integer quiddity cycle, by fixed priority
    T0 > T1 > T2 > T3 > T4 > T5 with minimal indices.

    The result of every non-terminal case is checked to be a quiddity
    cycle.  One case always applies; that is the classification theorem
    this engine implements.
    """
    _require_integer(cycle)
    if not is_quiddity(cycle):
        raise InvalidCycleError(f"not a quiddity cycle: {cycle}")
    if cycle.entries in ((0, 0), (1, 1, 1)):
        return ReductionStep("T0", (), cycle, cycle, -1, -1)
    return _reduce_step(cycle)


# The contraction of each case, at the 1, 0 or -1 it chose.  Cases 2 and 3
# flip the sign of the eta-product, and negating their result restores it.
_CONTRACT = {1: contract_one, 2: contract_zero, 3: contract_minus_one,
             4: contract_zero, 5: contract_minus_one}
_NEGATES = (2, 3)


def _choose_case(m: int, ones: list, zeros: list, minus: list):
    """The case 1-5 that reduces an m-gon and its indices, by fixed priority
    with minimal indices, or None.  `ones`, `zeros` and `minus` are the
    sorted positions of the entries 1, 0 and -1 of a cycle, or of the ears
    labelled 1, the removable squares and the ears labelled -1 of a
    labelling."""
    if ones:
        return 1, (ones[0],)
    if zeros and m % 2 == 1:
        return 2, (zeros[0],)
    if minus and m % 2 == 0:
        return 3, (minus[0],)
    pair = _first_separated_pair(zeros, m)
    if pair:
        return 4, pair
    pair = _first_separated_pair(minus, m)
    if pair:
        return 5, pair
    return None


def _reduce_step(cycle: Cycle) -> ReductionStep:
    """Cases T1-T5 of `reduce_step_Z` on a cycle known to be quiddity; the
    result is checked, so a chain of steps checks each cycle once.  On
    (1, 1, 1) this is the T1 at 1 that ends at (0, 0)."""
    at = {1: [], 0: [], -1: []}
    for k, c in enumerate(cycle.entries, 1):
        if c in at:
            at[c].append(k)
    chosen = _choose_case(cycle.m, at[1], at[0], at[-1])
    if chosen is None:
        raise RuntimeError("no case applies; contradicts the reduction theorem")
    case, indices = chosen
    after = cycle
    # a pair (j, k) is contracted at k first: that removes entries above j
    # only (k - j > 1), so j keeps its index in the middle cycle
    for k in reversed(indices):
        after = _CONTRACT[case](after, k).cycle
    if case in _NEGATES:
        after = negate(after)
    if not is_quiddity(after):
        raise RuntimeError(f"case T{case} at {indices} gave {after}, not a quiddity cycle")
    return ReductionStep(f"T{case}", indices, cycle, after, -1, -1)


def reduce_to_base(cycle: Cycle) -> ReductionTrace:
    """Full reduction of an integer quiddity cycle to (0,0).

    The input is checked once and every step checks its output with a
    raise, so each cycle of the trace is checked exactly once, also under
    `python -O`.  The terminal (1,1,1) is not left standing: one more T1
    step takes it to (0,0), so every trace ends at the 2-gon and can be
    inverted into a triangulation labelling.
    """
    _require_integer(cycle)
    if not is_quiddity(cycle):
        raise InvalidCycleError(f"not a quiddity cycle: {cycle}")
    steps = []
    current = cycle
    while current.entries != (0, 0):
        step = _reduce_step(current)
        steps.append(step)
        if step.after.m >= current.m:
            raise RuntimeError(f"case {step.case_tag} did not shrink {current}")
        current = step.after
    return ReductionTrace(cycle, tuple(steps))

