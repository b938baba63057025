"""Entry bounds and the small-entry existence results."""

import random
from fractions import Fraction

import pytest

from quiddity.bounds import (
    candidate_entries,
    find_small_window,
    find_two_small,
    find_two_small_separated,
    quiddity_bound,
)
from quiddity.cycles import Cycle
from quiddity.enumeration import enumerate_nonzero
from quiddity.errors import NotApplicableError, UnsupportedRingError, UsageError
from quiddity.rings import Q, Z, Zi, Zzeta6, norm_sq


def test_quiddity_bound_at_norm_one():
    for n in range(1, 12):
        assert quiddity_bound(1, n) == n + 1


def test_quiddity_bound_fractional_infimum():
    assert quiddity_bound(2, 3) == Fraction(6, 4)
    assert quiddity_bound(Fraction(1, 2), 1) == Fraction(4)
    # larger norm infima squeeze the bound below 1, emptying the search
    assert quiddity_bound(5, 2) < 1


def test_quiddity_bound_validation():
    with pytest.raises(UsageError):
        quiddity_bound(0, 3)
    with pytest.raises(UsageError):
        quiddity_bound(-1, 3)
    with pytest.raises(UsageError):
        quiddity_bound(1, 0)


def test_candidate_entries_counts():
    assert candidate_entries(Z, 1) == [-1, 1, -2, 2]
    assert len(candidate_entries(Z, 3)) == 8
    assert len(candidate_entries(Zi, 1)) == 12
    # norm values 1, 3, 4 each contribute six elements
    assert len(candidate_entries(Zzeta6, 1)) == 18
    with pytest.raises(UnsupportedRingError):
        candidate_entries(Q, 2)


def test_candidate_entries_cover_enumerated_cycles():
    for ring, n in ((Z, 3), (Zi, 2), (Zzeta6, 2)):
        pool = set(candidate_entries(ring, n))
        for cycle in enumerate_nonzero(ring, n):
            assert set(cycle.entries) <= pool


def test_find_small_window_on_quiddities():
    c = Cycle(Z, (4, 1, 2, 2, 2, 1))  # rotation of a known quiddity
    j = find_small_window(c)
    assert norm_sq(Z, c.entry(j)) < 4
    assert 2 <= j <= 5


def test_find_small_window_preconditions():
    with pytest.raises(NotApplicableError):
        find_small_window(Cycle(Z, (0, 0)))
    # last entry zero
    with pytest.raises(NotApplicableError):
        find_small_window(Cycle(Z, (1, 4, 1, 2, 2, 2, 0, 0)))


def test_find_two_small_on_enumerated_cycles():
    for ring, n in ((Z, 3), (Zi, 2), (Zzeta6, 2)):
        for cycle in enumerate_nonzero(ring, n):
            j, k = find_two_small(cycle)
            assert j < k
            assert norm_sq(ring, cycle.entry(j)) < 4
            assert norm_sq(ring, cycle.entry(k)) < 4


def test_find_two_small_requires_scalar_product():
    with pytest.raises(NotApplicableError):
        find_two_small(Cycle(Z, (3, 4, 5)))


def test_find_two_small_separated_on_integer_cycles():
    rng = random.Random(7)
    cases = list(enumerate_nonzero(Z, 2)) + list(enumerate_nonzero(Z, 3))
    for cycle in rng.sample(cases, 20) + [Cycle(Z, (1, 4, 1, 2, 2, 2))]:
        j, k = find_two_small_separated(cycle)
        assert k - j > 1 and (j, k) != (1, cycle.m)
        assert abs(cycle.entry(j)) <= 1 and abs(cycle.entry(k)) <= 1


def test_find_two_small_separated_guards():
    with pytest.raises(UnsupportedRingError):
        find_two_small_separated(Cycle(Q, (Fraction(1), Fraction(1), Fraction(1), Fraction(1))))
    with pytest.raises(NotApplicableError):
        find_two_small_separated(Cycle(Z, (1, 1, 1)))
    with pytest.raises(NotApplicableError):
        find_two_small_separated(Cycle(Z, (2, 2, 2, 2)))
