"""The integer model, checked exhaustively in a box.

Forward: every integer quiddity cycle of length m <= 8 with entries in
-3..3 comes from an admissible labelling.  Converse: every labelling with
labels in -2..2 of a triangulation with m <= 7 that satisfies condition (i)
has vertex sums whose eta-product is -I when the sign condition (ii) holds
and +I when it fails.

The cycles, the triangulations, condition (i), the sign and the products
are all computed here, with no library code; only the verdicts are compared
with the library's.  The counts are observed values, not values from the
paper.
"""

import itertools

from quiddity.cycles import Cycle
from quiddity.labelling import (
    Labelling,
    Triangulation,
    cycle_from_labelling,
    is_admissible,
    labelling_from_cycle,
    reduce_labelling_step,
)
from quiddity.rings import Z

# observed counts: cycles of length m = 2..8 with entries in -3..3, and
# labellings satisfying (i) with labels in -2..2 for m = 3..7
BOX_CYCLES = {2: 1, 3: 1, 4: 4, 5: 30, 6: 227, 7: 784, 8: 3592}
BOX_LABELLINGS = {3: 2, 4: 14, 5: 100, 6: 836, 7: 7392}


def eta_product(entries) -> tuple:
    """eta(c_1) ... eta(c_k) as (P11, P12, P21, P22): each factor is the
    2x2 product [[a, b], [c, d]] [[x, -1], [1, 0]] written out."""
    a, b, c, d = 1, 0, 0, 1
    for x in entries:
        a, b, c, d = a * x + b, -a, c * x + d, -c
    return a, b, c, d


def box_cycles(m: int, bound: int = 3) -> list:
    """Every integer quiddity cycle of length m with entries in -bound..bound.

    A continuant search: the running product P = eta(c_1) ... eta(c_k)
    holds the continuants of the prefix.  With k = m - 2 the last two
    entries x, y are forced, since eta(x) eta(y) = [[xy - 1, -x], [y, -1]]
    must equal -P^-1 = [[-P22, P12], [P21, -P11]]: the first frieze row
    closes only if P11 = 1, and then x = -P12 and y = P21.
    """
    found = []

    def extend(prefix, p11, p12, p21, p22):
        if len(prefix) == m - 2:
            x, y = -p12, p21
            if p11 == 1 and x * y - 1 == -p22 and abs(x) <= bound and abs(y) <= bound:
                found.append(prefix + (x, y))
            return
        for c in range(-bound, bound + 1):
            extend(prefix + (c,), p11 * c + p12, -p11, p21 * c + p22, -p21)

    extend((), 1, 0, 0, 1)
    return found


def triangulations(a: int, b: int) -> list:
    """Every triangulation of the polygon a..b, as tuples of sorted triangles."""
    if b - a < 2:
        return [()]
    return [((a, c, b),) + left + right
            for c in range(a + 1, b)
            for left in triangulations(a, c)
            for right in triangulations(c, b)]


def pairs_up(triangles: list, labels: dict) -> bool:
    """Condition (i): the triangles not labelled +-1 split into pairs of
    triangles that share a side and carry opposite labels."""
    def match(rest):
        if not rest:
            return True
        t, others = rest[0], rest[1:]
        return any(len(set(t) & set(u)) == 2 and labels[u] == -labels[t]
                   and match([v for v in others if v != u])
                   for u in others)

    return match([t for t in triangles if labels[t] not in (1, -1)])


def test_every_cycle_in_the_box_has_an_admissible_labelling():
    counts = {}
    for m in range(2, 9):
        cycles = box_cycles(m)
        counts[m] = len(cycles)
        for entries in cycles:
            assert eta_product(entries) == (-1, 0, 0, -1)
            lab = labelling_from_cycle(Cycle(Z, entries))
            assert is_admissible(lab)
            assert cycle_from_labelling(lab).entries == entries
            step = reduce_labelling_step(lab)
            for _ in range(m):
                if step.terminal:
                    break
                step = reduce_labelling_step(step.after)
            assert step.terminal
    assert counts == BOX_CYCLES


def test_every_labelling_in_the_box_has_the_signed_product():
    counts = {}
    for m in range(3, 8):
        counts[m] = 0
        for triangles in triangulations(1, m):
            diagonals = {(a, b) for t in triangles
                         for a, b in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))
                         if b - a >= 2 and (a, b) != (1, m)}
            triangulation = Triangulation(m, diagonals)
            for values in itertools.product(range(-2, 3), repeat=len(triangles)):
                labels = dict(zip(triangles, values))
                if not pairs_up(triangles, labels):
                    continue
                counts[m] += 1
                sums = [0] * m
                for t, x in labels.items():
                    for v in t:
                        sums[v - 1] += x
                sign_holds = (sum(x < 0 for x in values) + values.count(0) // 2) % 2 == 0
                want = (-1, 0, 0, -1) if sign_holds else (1, 0, 0, 1)
                assert eta_product(sums) == want
                lab = Labelling(triangulation, labels)
                assert is_admissible(lab) == sign_holds
                if sign_holds:
                    assert cycle_from_labelling(lab).entries == tuple(sums)
    assert counts == BOX_LABELLINGS
