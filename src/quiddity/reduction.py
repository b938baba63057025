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

`_choose_case` holds that priority, for the labelling reduction too.  The
cases T1-T5 run in one loop over entry tuples, `_reduce_entries`, which
takes a quiddity tuple to (0, 0) and yields each step's case, indices and
tuples before and after it.  Its contractions are the tuple helpers that
`quiddity.transforms` builds its contractions with.  At least one case
always applies; that is a theorem, and the loop raises RuntimeError rather
than guessing if none does, or if a step's output is not a quiddity cycle.
That check, `_step_holds`, is local, a few products and a few comparisons
of tuples per move: each contraction must keep the entries outside its
window k-1..k+1 and satisfy its window identity,

    eta(a) eta(1) eta(b)  =  eta(a-1) eta(b-1)
    eta(a) eta(-1) eta(b) = -eta(a+1) eta(b+1)
    eta(a) eta(0) eta(b)  = -eta(a+b)

and a negation of m' entries turns a product +-I into (-1)^m' (+-I).  From
a quiddity input these facts imply exactly that the output is quiddity.
The loop's callers check their input in full, so each cycle of a trace is
checked, also under `python -O`.  `reduce_to_base` and `reduce_step_Z` wrap
the steps in `ReductionStep`s of `Cycle`s; `quiddity.labelling` undoes the
raw steps from their case, indices and input tuple alone, and builds no
step object.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg

from quiddity.bounds import _first_separated_pair
from quiddity.cycles import Cycle, _eta_product, _prechecked, is_epsilon_cycle, is_quiddity
from quiddity.errors import InvalidCycleError, UnsupportedRingError
from quiddity.rings import Z
from quiddity.transforms import _drop_unit, _merge_zero

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


def reduce_step_epsilon(cycle: Cycle, eps: int) -> ReductionStep:
    """One reduction case for an integer epsilon-cycle.

    Cases in priority order: terminal (0,0); entry 1 (eps kept); entry 0
    (eps flipped); entry -1 (eps flipped).  One of them always applies.
    """
    _require_integer(cycle)
    if not is_epsilon_cycle(cycle, eps):
        raise InvalidCycleError(f"not a {eps:+d}-cycle: {cycle}")
    entries = cycle.entries
    if entries == (0, 0):
        return ReductionStep("I0", (), cycle, cycle, eps, eps)
    # cases I1-I3 contract the first 1, 0 or -1 as cases T1-T3 do
    for case in (1, 2, 3):
        entry = _ENTRY[case]
        if entry in entries:
            k = entries.index(entry) + 1
            after = _drop_unit(entries, k, entry) if entry else _merge_zero(entries, k)
            return ReductionStep(f"I{case}", (k,), cycle, Cycle._computed(Z, after),
                                 eps, eps if entry == 1 else -eps)
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
    case, indices, _before, after = next(_reduce_entries(cycle.entries))
    return ReductionStep(f"T{case}", indices, cycle, Cycle._computed(Z, after), -1, -1)


# Cases 2 and 3 flip the sign of the eta-product with one contraction, and
# negating their result restores it.
_NEGATES = (2, 3)
# the entry each case contracts
_ENTRY = {1: 1, 2: 0, 3: -1, 4: 0, 5: -1}


def _choose_case(m: int, ones: list, zeros: list, minus: list):
    """The case 1-5 that reduces an m-gon and its indices, by fixed priority
    with minimal indices, or None.  `ones`, `zeros` and `minus` are the
    sorted positions of the entries 1, 0 and -1 of a cycle, or of the ears
    labelled 1, the removable squares and the ears labelled -1 of a
    labelling.

    The first three positions of each list decide the case, and the first
    one of a nonempty `ones` decides it alone, so a caller may pass just
    those.  Of sorted positions p1 < p2 < p3, the pair (p1, p3) is
    separated unless p3 = m and p1 = 1; then p3 is the last position, and
    the list has no fourth."""
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


def _reduce_entries(entries: tuple):
    """The steps that take the quiddity tuple `entries` to (0, 0), each as
    (case, indices, before, after) with `before` and `after` tuples.

    Each step is chosen by `_choose_case` and made of one contraction per
    index, a pair (j, k) contracted at k first (that removes entries above j
    only, k - j > 1, so j keeps its index in the middle tuple), then the
    negation of cases 2 and 3.  It is checked with a raise before it is
    yielded: `_step_holds` reads from local facts that its output is
    quiddity, and the output must be shorter.  On (1, 1, 1) the step is the
    T1 at 1 that ends at (0, 0).  The caller checks that `entries` is
    quiddity.
    """
    while entries != (0, 0):
        m = len(entries)
        # the first three positions of 1, 0 and -1 decide the case, and the
        # first 1 decides it alone
        if 1 in entries:
            chosen = _choose_case(m, (entries.index(1) + 1,), (), ())
        else:
            zeros, minus = [], []
            for at, value in ((zeros, 0), (minus, -1)):
                k = 0
                try:
                    while len(at) < 3:
                        k = entries.index(value, k) + 1
                        at.append(k)
                except ValueError:
                    pass
            chosen = _choose_case(m, (), zeros, minus)
        if chosen is None:
            raise RuntimeError("no case applies; contradicts the reduction theorem")
        case, indices = chosen
        entry = _ENTRY[case]
        moves = [entries]
        for k in reversed(indices):
            moves.append(_drop_unit(moves[-1], k, entry) if entry else _merge_zero(moves[-1], k))
        if case in _NEGATES:
            moves.append(tuple(map(neg, moves[-1])))
        after = moves[-1]
        if not _step_holds(case, indices, moves):
            raise RuntimeError(f"case T{case} at {indices} gave {after}, not a quiddity cycle")
        if len(after) >= m:
            raise RuntimeError(f"case T{case} did not shrink {entries}")
        yield case, indices, entries, after
        entries = after


def _step_holds(case: int, indices: tuple, moves: list) -> bool:
    """Whether the last of `moves`, the tuples that case `case` at `indices`
    takes the quiddity tuple `moves[0]` through, one per contraction and
    then the negation of cases 2 and 3, is quiddity, read from local facts
    in O(m) comparisons and O(1) products.

    Each contraction must keep the entries outside its window and satisfy
    the window identity of its rule, which keeps the eta-product (a 1) or
    negates it (a 0 or a -1).  Cases 2 and 3 then negate every entry, which
    multiplies a product +-I by (-1)^m'.  Given these facts the last tuple
    is quiddity exactly when the signs take -I back to -I.
    """
    entry = _ENTRY[case]
    sign = -1
    for k, before, after in zip(reversed(indices), moves, moves[1:]):
        if not _window_holds(before, after, k, entry):
            return False
        if entry != 1:
            sign = -sign
    if case in _NEGATES:
        before, after = moves[-2], moves[-1]
        if after != tuple(map(neg, before)):
            return False
        if len(after) % 2:
            sign = -sign
    return sign == -1


def _window_holds(before: tuple, after: tuple, k: int, entry: int) -> bool:
    """Whether `after` is `before` with its `entry` at k contracted, up to the
    sign of the rule's window identity: the entry at k is `entry`, the m - 3
    entries outside the window k-1..k+1 follow the replacement unchanged and
    in order, and the window's eta-product is the replacement's, negated
    for a 0 or a -1.  The replacement is two entries for a 1 or a -1 and
    one for a 0, and starts at position k-1 of `after`; a 0 at k = 1 leaves
    it at position 1, since the merged entry keeps index 2 and `after`
    starts there (see `quiddity.transforms`).  A window that wraps is
    first rotated, in both tuples, to start at position 1; one inside 1..m
    is compared in place."""
    m, n = len(before), len(after)
    width = 2 if entry else 1
    if n != m - 3 + width or before[k - 1] != entry:
        return False
    if not 1 < k < m:
        i = (k - 2) % m
        j = 0 if entry == 0 and k == 1 else (k - 2) % n
        before, after, k = before[i:] + before[:i], after[j:] + after[:j], 2
    i = k - 2
    if before[:i] != after[:i] or before[k + 1:] != after[i + width:]:
        return False
    p = _eta_product(before[i:k + 1], 1, 0)
    q = _eta_product(after[i:i + width], 1, 0)
    return p == (q if entry == 1 else tuple([-x for x in q]))


def reduce_to_base(cycle: Cycle) -> ReductionTrace:
    """Full reduction of an integer quiddity cycle to (0,0).

    The input is checked in full once, and every step checks its output
    with a raise from the step's local facts, which imply that the output
    is quiddity; this holds also under `python -O`.

    The terminal (1,1,1) is not left standing: one more T1 step takes it to
    (0,0), so every trace ends at the 2-gon and can be inverted into a
    triangulation labelling.
    """
    _require_integer(cycle)
    if not is_quiddity(cycle):
        raise InvalidCycleError(f"not a quiddity cycle: {cycle}")
    steps = []
    before = cycle
    for case, indices, _before, after_entries in _reduce_entries(cycle.entries):
        after = Cycle._computed(Z, after_entries)
        steps.append(_prechecked(ReductionStep, case_tag=f"T{case}", indices=indices,
                                 before=before, after=after, eps_before=-1, eps_after=-1))
        before = after
    return ReductionTrace(cycle, tuple(steps))
