"""Diagonal labels, Ptolemy relations, and zero-free clusters."""

import random
from fractions import Fraction

import pytest

from quiddity.clusters import (
    Cluster,
    all_ones_cluster,
    check_ptolemy,
    diagonal_label,
    find_zero_free_cluster,
    is_degenerate_alternating,
)
from quiddity.cycles import Cycle, is_quiddity
from quiddity.errors import InvalidCycleError, NotApplicableError, UsageError
from quiddity.frieze import FriezePattern, frieze_from_cycle
from quiddity.labelling import Triangulation, enumerate_triangulations
from quiddity.rings import GaussianInt, Q, Z, Zi


HEXAGON = Cycle(Z, (1, 4, 1, 2, 2, 2))


def test_diagonal_label_reads_the_grid():
    f = frieze_from_cycle(HEXAGON)
    assert diagonal_label(f, 1, 3) == 4
    assert diagonal_label(f, 2, 4) == 1
    assert diagonal_label(f, 3, 6) == 3
    # the diagonal skipping vertex k carries quiddity entry c_k
    for k in range(2, 6):
        assert diagonal_label(f, k - 1, k + 1) == HEXAGON.entry(k)
    for i in range(1, 7):
        for j in range(i + 2, 7 - (i == 1)):
            assert diagonal_label(f, i, j) == f.entry(i + 1, j + 1)


def test_diagonal_label_rejects_edges():
    f = frieze_from_cycle(HEXAGON)
    with pytest.raises(UsageError):
        diagonal_label(f, 1, 2)
    with pytest.raises(UsageError):
        diagonal_label(f, 1, 6)
    with pytest.raises(UsageError):
        diagonal_label(f, 3, 3)
    with pytest.raises(UsageError):
        diagonal_label(f, 0, 2)


def test_ptolemy_on_example_friezes():
    for entries in ((1, 4, 1, 2, 2, 2),
                    (1, 3, 2, 2, 2, 1, 5, 2),
                    (-1, 3, 0, -2, 2, 1, 3, 0),
                    (0, 0, 0, 0, 0, 0)):
        assert check_ptolemy(frieze_from_cycle(Cycle(Z, entries)))


def test_ptolemy_over_gaussian_integers():
    G = GaussianInt
    c = Cycle(Zi, (G(1, -1), G(1, 1), G(2), G(1, -1), G(1, 1), G(2)))
    assert check_ptolemy(frieze_from_cycle(c))


def test_ptolemy_on_long_cycle():
    c = Cycle(Z, (0, -4, -5, 0, 4, 2, 0, -3, 3))
    assert check_ptolemy(frieze_from_cycle(c))


def test_ptolemy_detects_corruption():
    f = frieze_from_cycle(HEXAGON)
    rows = [list(r) for r in f.rows]
    rows[1][3] += 1  # the entry on diagonal (1, 4)
    broken = FriezePattern(HEXAGON, tuple(tuple(r) for r in rows))
    assert not check_ptolemy(broken)


def test_degenerate_alternating():
    assert is_degenerate_alternating(Cycle(Z, (1, 1, 1)))
    assert is_degenerate_alternating(Cycle(Z, (1,) * 9))
    assert not is_degenerate_alternating(Cycle(Z, (1, 3, 1, 2, 2)))
    with pytest.raises(NotApplicableError):
        is_degenerate_alternating(Cycle(Z, (0, 0, 0, 0, 0, 0)))
    with pytest.raises(InvalidCycleError):
        is_degenerate_alternating(Cycle(Z, (0, 0, 0, 0, 0)))


def test_all_ones_cluster_nine_gon():
    cluster = all_ones_cluster(9)
    assert set(cluster.triangulation.diagonals) == {
        (1, 3), (1, 5), (1, 6), (3, 5), (6, 8), (1, 8)}
    assert not cluster.has_zero(Z)
    assert cluster.labels[(1, 3)] == 1
    assert cluster.labels[(1, 5)] == -1
    assert cluster.labels[(1, 6)] == -1


def test_all_ones_cluster_label_check_survives_python_O(child_python):
    # each diagonal's label is checked against its mod-6 value with a raise
    proc = child_python("-O", "-c", "from quiddity import clusters\n"
                        "clusters.diagonal_label = lambda f, i, j: 0\n"
                        "clusters.all_ones_cluster(9)\n")
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith(
        "RuntimeError: the all-ones 9-gon has label 0 on the diagonal (")


def test_all_ones_cluster_fifteen_gon():
    cluster = all_ones_cluster(15)
    assert len(cluster.triangulation.diagonals) == 12
    assert not cluster.has_zero(Z)
    # no chosen diagonal spans a multiple of three, where the frieze vanishes
    assert all((j - i) % 3 != 0 for i, j in cluster.triangulation.diagonals)


def test_all_ones_cluster_triangle_and_guards():
    assert all_ones_cluster(3).labels == {}
    with pytest.raises(UsageError):
        all_ones_cluster(6)
    with pytest.raises(UsageError):
        all_ones_cluster(8)
    for m in (9.0, True, "9"):
        with pytest.raises(UsageError, match="must be an integer"):
            all_ones_cluster(m)


def test_cluster_label_coverage():
    tri = Triangulation(4, frozenset({(1, 3)}))
    with pytest.raises(UsageError):
        Cluster(tri, {})
    with pytest.raises(UsageError):
        Cluster(tri, {(1, 3): 1, (2, 4): 1})
    assert Cluster(tri, {(1, 3): 0}).has_zero(Z)


def test_cluster_argument_types():
    tri = Triangulation(4, frozenset({(1, 3)}))
    for triangulation in ("x", None, 4, (4, {(1, 3)})):
        with pytest.raises(UsageError, match="needs a Triangulation"):
            Cluster(triangulation, {})
    for labels in (None, [(1, 3)], 5):
        with pytest.raises(UsageError, match="labels map diagonals"):
            Cluster(tri, labels)


@pytest.mark.parametrize("i, j", [("1", 3), (1, 3.0), (True, 3), (None, 3)])
def test_diagonal_label_needs_int_vertices(i, j):
    with pytest.raises(UsageError, match="must be an integer"):
        diagonal_label(frieze_from_cycle(HEXAGON), i, j)


def test_zero_free_cluster_on_examples():
    for entries in ((1, 4, 1, 2, 2, 2),
                    (1, 3, 2, 2, 2, 1, 5, 2),
                    (-1, 3, 0, -2, 2, 1, 3, 0),
                    (0, 2, -2, 0, 2, -2)):
        cluster = find_zero_free_cluster(Cycle(Z, entries))
        assert cluster is not None
        assert not cluster.has_zero(Z)
        f = frieze_from_cycle(Cycle(Z, entries))
        for (i, j), v in cluster.labels.items():
            assert diagonal_label(f, i, j) == v


def test_zero_free_cluster_none_only_when_all_zero():
    assert find_zero_free_cluster(Cycle(Z, (0,) * 6)) is None
    assert find_zero_free_cluster(Cycle(Z, (0,) * 10)) is None
    with pytest.raises(NotApplicableError):
        find_zero_free_cluster(Cycle(Z, (0, 0)))
    with pytest.raises(InvalidCycleError):
        find_zero_free_cluster(Cycle(Z, (2, 2, 2, 2)))


def test_zero_free_cluster_on_corpus_sample(z_corpus):
    for cycle in z_corpus[:40]:
        if cycle.m < 4:
            continue
        cluster = find_zero_free_cluster(cycle)
        if all(c == 0 for c in cycle.entries):
            assert cluster is None
        else:
            assert cluster is not None and not cluster.has_zero(Z)


def first_zero_free_reference(cycle: Cycle, triangulations: list):
    """Diagonals of the first triangulation in the list whose diagonals
    all carry nonzero labels, or None: the exhaustive search."""
    f = frieze_from_cycle(cycle)
    for tri in triangulations:
        if all(diagonal_label(f, i, j) != 0 for i, j in tri.diagonals):
            return tri.diagonals
    return None


def test_zero_free_cluster_matches_exhaustive_search(z_corpus, glued_cycle):
    rng = random.Random(20171110)
    by_m = {m: [] for m in range(4, 12)}
    for cycle in z_corpus:
        if cycle.m in by_m:
            by_m[cycle.m].append(cycle)
    for m in by_m:
        by_m[m] += [Cycle(Z, glued_cycle(rng, m)) for _ in range(40)]
    with_zero = with_negative = 0
    for m, cycles in by_m.items():
        triangulations = enumerate_triangulations(m)
        for cycle in cycles:
            assert is_quiddity(cycle)
            with_zero += 0 in cycle.entries
            with_negative += any(c < 0 for c in cycle.entries)
            found = find_zero_free_cluster(cycle)
            got = None if found is None else found.triangulation.diagonals
            assert got == first_zero_free_reference(cycle, triangulations), cycle
    assert with_zero >= 100 and with_negative >= 100


def test_zero_free_cluster_at_large_m(glued_cycle):
    # the all-zero 202-gon is quiddity (202 = 2 mod 4) and has no cluster
    assert find_zero_free_cluster(Cycle(Z, (0,) * 202)) is None
    cycle = Cycle(Z, glued_cycle(random.Random(7), 150))
    cluster = find_zero_free_cluster(cycle)
    assert len(cluster.triangulation.diagonals) == 147
    assert not cluster.has_zero(Z)


def rank_two_cycle(x1: Fraction, x2: Fraction) -> Cycle:
    entries = (
        x1,
        (1 + x2) / x1,
        (1 + x1) / x2,
        x2,
        (1 + x1 + x2) / (x1 * x2),
    )
    return Cycle(Q, entries)


@pytest.mark.parametrize("x1,x2", [
    (Fraction(1), Fraction(2)),
    (Fraction(1), Fraction(1)),
    (Fraction(2, 3), Fraction(5)),
    (Fraction(-1, 2), Fraction(1, 3)),
    (Fraction(7), Fraction(7)),
])
def test_rank_two_exchange_frieze(x1, x2):
    # a pentagon frieze whose interior entries run through both initial
    # variables and all three exchanged ones
    c = rank_two_cycle(x1, x2)
    assert is_quiddity(c)
    f = frieze_from_cycle(c)
    y1 = (1 + x2) / x1
    y2 = (1 + x1) / x2
    y3 = (1 + x1 + x2) / (x1 * x2)
    want = [
        (x1, x2),
        (y1, y3),
        (y2, x1),
        (x2, y1),
        (y3, y2),
    ]
    got = [tuple(f.rows[i][2:4]) for i in range(5)]
    assert got == want
    assert check_ptolemy(f)


def test_rank_two_frieze_at_unit_point():
    # both variables 1: the pentagon collapses to the smallest positive
    # integer frieze, entries 1, 2, 3 only
    f = frieze_from_cycle(rank_two_cycle(Fraction(1), Fraction(1)))
    values = {f.rows[i][j] for i in range(5) for j in (2, 3)}
    assert values == {Fraction(1), Fraction(2), Fraction(3)}
