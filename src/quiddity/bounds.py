"""Existence of small entries and the global entry bound for quiddity cycles.

Two facts drive everything here.  First, any cycle whose eta-product has a
suitable first column must contain an entry of absolute value below 2 away
from its ends; applied to scalar products this yields two small entries, and
over the integers two small entries in separated positions.  Second, in a
discrete ring whose nonzero elements have norm at least M, every entry of a
quiddity cycle of length n + 3 has absolute value at most ((n-1) + 2M) / M^2.
That bound makes the enumeration in `quiddity.enumeration` finite.

All comparisons are made on squared norms so everything stays exact.
"""

from __future__ import annotations

from fractions import Fraction

from quiddity.cycles import Cycle, full_product, is_quiddity, scalar_of_identity
from quiddity.errors import NotApplicableError, UnsupportedRingError, UsageError
from quiddity.rings import Ring, Z, _check_int, _check_rational, elements_norm_at_most, norm_sq

__all__ = [
    "quiddity_bound",
    "find_small_window",
    "find_two_small",
    "find_two_small_separated",
    "candidate_entries",
]


def quiddity_bound(M, n: int) -> Fraction:
    """The entry bound ((n-1) + 2M) / M^2 for height-n quiddity cycles over a
    ring whose nonzero norms are bounded below by M.

    With M = 1 this is n + 1.
    """
    M = Fraction(_check_rational(M))
    _check_int(n, "height")
    if M <= 0:
        raise UsageError("norm infimum M must be positive")
    if n < 1:
        raise UsageError("height must be at least 1")
    return ((n - 1) + 2 * M) / (M * M)


def find_small_window(cycle: Cycle) -> int:
    """Smallest j in {2, ..., m-1} with norm_sq(c_j) < 4.

    Requires norm_sq(c_m) >= 1 and norm_sq(c_1*e - d) > norm_sq(e), where
    (d, e) is the first column of the full eta-product.  Existence of j is a
    theorem given the preconditions; failure to find one is a genuine
    contradiction.
    """
    ring = cycle.ring
    m = cycle.m
    prod = full_product(cycle)
    d, e = prod.a11, prod.a21
    if m <= 2:
        raise NotApplicableError("preconditions are unsatisfiable for m <= 2")
    if norm_sq(ring, cycle.entry(m)) < 1:
        raise NotApplicableError("last entry has norm below 1")
    if norm_sq(ring, cycle.entry(1) * e - d) <= norm_sq(ring, e):
        raise NotApplicableError("first-column condition fails")
    for j in range(2, m):
        if norm_sq(ring, cycle.entry(j)) < 4:
            return j
    raise RuntimeError("no small entry found; this contradicts the bound lemma")


def find_two_small(cycle: Cycle) -> tuple:
    """Two distinct positions with norm_sq below 4, smallest first.

    Requires the full eta-product to be a scalar multiple of the identity
    (true for quiddity cycles and epsilon-cycles).  Existence is a theorem;
    the scan checks it with a raise rather than assuming it.
    """
    ring = cycle.ring
    if scalar_of_identity(full_product(cycle), ring) is None:
        raise NotApplicableError("product is not a scalar multiple of identity")
    small = [k for k in range(1, cycle.m + 1) if norm_sq(ring, cycle.entry(k)) < 4]
    if len(small) < 2:
        raise RuntimeError("fewer than two small entries; contradicts the corollary")
    return (small[0], small[1])


def _first_separated_pair(positions: list, m: int):
    """The first pair (j, k) of the sorted positions that are neither
    neighbours nor the wrap pair (1, m), or None."""
    for i, j in enumerate(positions):
        for k in positions[i + 1:]:
            if k - j > 1 and not (j == 1 and k == m):
                return (j, k)
    return None


def find_two_small_separated(cycle: Cycle) -> tuple:
    """Positions j < k over the integers with |c_j|, |c_k| <= 1, k - j > 1 and
    (j, k) != (1, m).  Defined for integer quiddity cycles of length > 3."""
    if cycle.ring is not Z:
        raise UnsupportedRingError("separated small entries are an integer result")
    if cycle.m <= 3:
        raise NotApplicableError("need length > 3")
    if not is_quiddity(cycle):
        raise NotApplicableError("not a quiddity cycle")
    small = [k for k, c in enumerate(cycle.entries, 1) if abs(c) <= 1]
    pair = _first_separated_pair(small, cycle.m)
    if pair is None:
        raise RuntimeError("no separated pair; contradicts the integer corollary")
    return pair


def candidate_entries(ring: Ring, n: int) -> list:
    """All nonzero elements that can appear in a height-n quiddity cycle over
    a discrete ring with norm infimum 1: norm_sq <= (n+1)^2, sorted."""
    if not ring.is_discrete:
        raise UnsupportedRingError(f"{ring.tag} is not discrete")
    B = quiddity_bound(1, n)
    bound_sq = B * B
    if bound_sq.denominator != 1:
        raise RuntimeError(f"the squared entry bound {bound_sq} is not an integer")
    return elements_norm_at_most(ring, int(bound_sq))
