"""Polygon diagonals as frieze entries: Ptolemy checks and zero-free clusters.

A tame frieze of height n labels the edges and diagonals of an (n+3)-gon:
edges get 1, and the diagonal between vertices i < j gets a grid entry, read
here as `diagonal_label`.  Crossing diagonals then satisfy the Ptolemy
relation, and a triangulation whose diagonals all carry nonzero labels (a
zero-free cluster) exhibits the frieze as a specialization of a type-A
cluster algebra.  Such a cluster exists whenever the quiddity cycle has at
least one nonzero entry; the alternating all-zero friezes are the only
exceptions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from quiddity.cycles import Cycle, is_quiddity
from quiddity.errors import (
    InvalidCycleError,
    NotApplicableError,
    UsageError,
)
from quiddity.frieze import FriezePattern, frieze_from_cycle
from quiddity.labelling import Triangulation, _triangulation
from quiddity.rings import Z, _check_int

__all__ = [
    "Cluster",
    "diagonal_label",
    "check_ptolemy",
    "is_degenerate_alternating",
    "all_ones_cluster",
    "find_zero_free_cluster",
]


@dataclass(frozen=True)
class Cluster:
    """A triangulation together with the frieze entry on each diagonal."""

    triangulation: Triangulation
    labels: dict  # (i, j) -> ring element

    def __post_init__(self):
        if not isinstance(self.triangulation, Triangulation):
            raise UsageError(f"a cluster needs a Triangulation, got {self.triangulation!r}")
        if not isinstance(self.labels, dict):
            raise UsageError(f"labels map diagonals to ring elements, got {self.labels!r}")
        if set(self.labels) != set(self.triangulation.diagonals):
            raise UsageError("labels must cover exactly the diagonals")

    @property
    def m(self) -> int:
        return self.triangulation.m

    def has_zero(self, ring) -> bool:
        return any(v == ring.zero for v in self.labels.values())


def diagonal_label(f: FriezePattern, i: int, j: int):
    """The frieze entry sitting on the diagonal (i, j) of the m-gon.

    Vertices are 1..m; the diagonal between the neighbours of vertex k
    carries the quiddity entry c_k, which places (i, j) at grid position
    (i+1, j+1), stored as rows[i][j - i].
    """
    m = f.m
    if not (1 <= _check_int(i, "a vertex") < _check_int(j, "a vertex") <= m):
        raise UsageError(f"need 1 <= i < j <= m, got ({i}, {j})")
    if j - i == 1 or (i, j) == (1, m):
        raise UsageError(f"({i}, {j}) is an edge of the {m}-gon, not a diagonal")
    return f.rows[i][j - i]


def check_ptolemy(f: FriezePattern) -> bool:
    """Whether c_{a,c} c_{b,d} = c_{a,b} c_{c,d} + c_{a,d} c_{b,c} holds for
    every crossing diagonal pair.

    The crossing pairs of the m-gon are exactly (a, c) and (b, d) for the
    4-subsets a < b < c < d of its vertices.  The entry on the side (a, b),
    a < b, is read straight off the rows as rows[a][b - a], edges included:
    the frieze border already holds each edge's 1, at b - a = 1 and, for the
    edge (1, m), at rows[1][m - 1].
    """
    rows = f.rows
    for a, b, c, d in itertools.combinations(range(1, f.m + 1), 4):
        ra, rb, rc = rows[a], rows[b], rows[c]
        if ra[c - a] * rb[d - b] != ra[b - a] * rc[d - c] + ra[d - a] * rb[c - b]:
            return False
    return True


def is_degenerate_alternating(cycle: Cycle) -> bool:
    """For odd-length quiddity cycles: do consecutive entries always satisfy
    c_i c_{i+1} = 1 or c_i = c_{i+1} = 0?

    For odd length the zero branch can never close up, so a True answer
    forces the all-ones cycle with m = 3 (mod 6); that consequence is
    checked with a raise, not assumed.
    """
    if cycle.m % 2 == 0:
        raise NotApplicableError("defined for odd-length cycles")
    if not is_quiddity(cycle):
        raise InvalidCycleError(f"not a quiddity cycle: {cycle}")
    ring = cycle.ring
    for i in range(1, cycle.m + 1):
        a, b = cycle.entry(i), cycle.entry(i + 1)
        if a * b == ring.one or (a == ring.zero and b == ring.zero):
            continue
        return False
    if cycle.m % 6 != 3 or any(c != ring.one for c in cycle.entries):
        raise RuntimeError(f"{cycle} alternates degenerately but is not the all-ones "
                           "cycle of length 3 mod 6")
    return True


def _mod6_label(d: int) -> int:
    # entry on a diagonal of the all-ones frieze, by gap d = j - i mod 6
    r = d % 6
    if r in (1, 2):
        return 1
    if r in (0, 3):
        return 0
    return -1


def all_ones_cluster(m: int) -> Cluster:
    """An explicit zero-free cluster for the integer all-ones cycle of length
    m = 6l + 3: a concrete fan-and-zigzag triangulation avoiding gaps
    divisible by 3, where the all-ones frieze vanishes."""
    if _check_int(m, "the cycle length") % 6 != 3:
        raise UsageError("the all-ones cycle needs length 3 mod 6")
    if m == 3:
        return Cluster(Triangulation(3, frozenset()), {})
    ell = (m - 3) // 6
    diags = {(1, 3)}
    for k in range(2, 2 * ell + 1):
        diags.add((1, 3 * k - 1))
        diags.add((1, 3 * k))
    for k in range(1, 2 * ell + 1):
        diags.add((3 * k, 3 * k + 2))
    diags.add((1, 6 * ell + 2))
    tri = Triangulation(m, frozenset(diags))
    f = frieze_from_cycle(Cycle(Z, (1,) * m))
    labels = {}
    for i, j in tri.diagonals:
        value = diagonal_label(f, i, j)
        if value == 0 or value != _mod6_label(j - i):
            raise RuntimeError(f"the all-ones {m}-gon has label {value} on the diagonal "
                               f"({i}, {j}), not {_mod6_label(j - i)}")
        labels[(i, j)] = value
    return Cluster(tri, labels)


def find_zero_free_cluster(cycle: Cycle):
    """First triangulation (in `enumerate_triangulations` order) whose
    diagonals all carry nonzero frieze entries, or None when the cycle is
    all-zero.

    An interval dynamic programme over the frieze, O(m^3) bit operations:
    O(m^2) intervals, each one AND of two m-bit masks.  For widths 2 .. m-1,
    the apex of the sub-polygon a..b is the least c strictly between a and
    b for which both sides (a, c) and (c, b) are edges, or diagonals with a
    nonzero label whose own sub-polygon has an apex.  The enumeration
    orders the triangulations of a..b by apex, then left part, then right
    part, and the two parts are independent, so the least apex at every
    interval picks exactly the first zero-free triangulation.

    Existence for any quiddity cycle with a nonzero entry and m >= 4 is a
    theorem; an exhausted search on such input raises rather than returning
    None.
    """
    m = cycle.m
    if m < 4:
        raise NotApplicableError("clusters need at least one diagonal")
    ring = cycle.ring
    f = frieze_from_cycle(cycle)
    # diagonal_label(f, a, b) is rows[a][b - a] for 1 <= a < b <= m
    rows = f.rows
    # Bit c of right[a] is set when (a, c), a < c, is an edge or a usable
    # diagonal (nonzero label, sub-polygon a..c has an apex); bit c of
    # left[b] likewise for (c, b), c < b.  So right[a] & left[b] holds
    # exactly the feasible apexes of a..b, all strictly between a and b.
    right = [0] * (m + 1)
    left = [0] * (m + 1)
    for a in range(1, m):
        right[a] |= 1 << (a + 1)
        left[a + 1] |= 1 << a
    apex = {}
    for width in range(2, m):
        for a in range(1, m - width + 1):
            b = a + width
            feasible = right[a] & left[b]
            if not feasible:
                continue
            apex[(a, b)] = (feasible & -feasible).bit_length() - 1
            if width < m - 1 and rows[a][b - a] != ring.zero:
                right[a] |= 1 << b
                left[b] |= 1 << a
    if (1, m) not in apex:
        if all(c == ring.zero for c in cycle.entries):
            return None
        raise RuntimeError("no zero-free cluster found; contradicts the theorem")
    tri = _triangulation(m, apex)
    labels = {(i, j): diagonal_label(f, i, j) for i, j in sorted(tri.diagonals)}
    return Cluster(tri, labels)
