"""Labelled triangulations: admissibility, vertex sums, and the
combinatorial reduction engine."""

import itertools

import pytest

from quiddity.cycles import Cycle, is_quiddity
from quiddity.errors import (
    InvalidCycleError,
    InvalidLabellingError,
    NotApplicableError,
    UsageError,
)
from quiddity.labelling import (
    Labelling,
    Triangulation,
    cc_quiddity,
    cycle_from_labelling,
    enumerate_triangulations,
    find_12_or_131,
    is_admissible,
    labelling_from_cycle,
    labelling_sign,
    reduce_labelling_step,
    square_partition,
)
from quiddity.reduction import reduce_step_Z
from quiddity.rings import Z


def fan_hexagon() -> Triangulation:
    return Triangulation(6, frozenset({(2, 4), (2, 5), (2, 6)}))


def split_square(label_a: int, label_b: int) -> Labelling:
    tri = Triangulation(4, frozenset({(1, 3)}))
    return Labelling(tri, {(1, 2, 3): label_a, (1, 3, 4): label_b})


def test_triangulation_validation():
    with pytest.raises(UsageError):
        Triangulation(6, frozenset({(2, 4), (2, 5)}))  # too few diagonals
    with pytest.raises(UsageError):
        Triangulation(6, frozenset({(2, 4), (3, 5), (2, 6)}))  # crossing
    with pytest.raises(UsageError):
        Triangulation(6, frozenset({(2, 3), (2, 5), (2, 6)}))  # (2,3) is an edge
    with pytest.raises(UsageError):
        Triangulation(4, frozenset({(1, 4)}))  # wrap edge, not a chord
    with pytest.raises(UsageError):
        Triangulation(1, frozenset())
    for bad in ((1, 3, 4), (5,), ("a", "b"), (True, 3), (1.0, 3.0), 5, "13"):
        with pytest.raises(UsageError, match="pair of integer vertices"):
            Triangulation(5, [bad, (1, 4)])
    for m in ("5", 5.0, True, None):
        with pytest.raises(UsageError, match="vertex count is an integer"):
            Triangulation(m, [])
    for diagonals in (5, "13", None, {(1, 3): 1}):
        with pytest.raises(UsageError, match="collection of pairs"):
            Triangulation(5, diagonals)


def _chords_cross(d1, d2):
    (a, b), (c, d) = sorted((d1, d2))
    return a < c < b < d


@pytest.mark.parametrize("m", range(2, 9))
def test_triangle_walk_rejects_exactly_the_crossing_chord_sets(m):
    # the pairwise crossing test is the independent reference for the walk
    chords = [(i, j) for i in range(1, m + 1) for j in range(i + 2, m + 1) if (i, j) != (1, m)]
    accepted = set()
    for chosen in itertools.combinations(chords, max(m - 3, 0)):
        crossing = any(_chords_cross(d1, d2) for d1, d2 in itertools.combinations(chosen, 2))
        try:
            tri = Triangulation(m, frozenset(chosen))
        except UsageError:
            assert crossing, chosen
            continue
        assert not crossing, chosen
        assert len(tri.triangles) == m - 2
        accepted.add(tri.diagonals)
    assert accepted == {t.diagonals for t in enumerate_triangulations(m)}


def test_triangle_derivation():
    tri = fan_hexagon()
    assert tri.triangles == ((1, 2, 6), (2, 3, 4), (2, 4, 5), (2, 5, 6))
    assert tri.is_ear(3) and tri.is_ear(1)
    assert not tri.is_ear(2) and not tri.is_ear(4)
    assert len(tri.incident_triangles(2)) == 4


def test_triangle_derivation_of_a_large_fan():
    # a fan this size is deeper than Python's recursion limit
    m = 1200
    tri = Triangulation(m, frozenset((1, j) for j in range(3, m)))
    assert tri.triangles == tuple((1, j, j + 1) for j in range(2, m))


def test_two_gon_is_allowed():
    tri = Triangulation(2, frozenset())
    assert tri.triangles == ()
    assert cc_quiddity(tri).entries == (0, 0)


def test_catalan_counts():
    assert [len(enumerate_triangulations(m)) for m in range(2, 7)] == [1, 1, 2, 5, 14]


def test_cc_quiddity_fan():
    assert cc_quiddity(fan_hexagon()).entries == (1, 4, 1, 2, 2, 2)


def test_cc_quiddity_always_quiddity():
    for m in range(2, 8):
        for tri in enumerate_triangulations(m):
            q = cc_quiddity(tri)
            assert is_quiddity(q)
            if m > 2:
                assert all(c >= 1 for c in q.entries)


def test_labelling_validation():
    tri = Triangulation(4, frozenset({(1, 3)}))
    with pytest.raises(InvalidLabellingError):
        Labelling(tri, {(1, 2, 3): 1})  # missing a triangle
    with pytest.raises(InvalidLabellingError):
        Labelling(tri, {(1, 2, 3): 1, (1, 3, 4): 1, (2, 3, 4): 1})
    with pytest.raises(InvalidLabellingError):
        Labelling(tri, {(1, 2, 3): 1, (1, 3, 4): True})


def test_labelling_argument_types():
    tri = Triangulation(4, frozenset({(1, 3)}))
    for triangulation in ("x", None, 4, (4, {(1, 3)})):
        with pytest.raises(UsageError, match="needs a Triangulation"):
            Labelling(triangulation, {})
    for labels in ([1, 2], None, ((1, 2, 3), 1), "123"):
        with pytest.raises(UsageError, match="labels map triangles"):
            Labelling(tri, labels)
    for key in (5, (1, 2, 4), (1, "a", 3), "abc", None):
        with pytest.raises(InvalidLabellingError, match="not a triangle"):
            Labelling(tri, {key: 1, (1, 3, 4): 1})
    # corner order does not matter
    lab = Labelling(tri, {(3, 2, 1): 2, (4, 1, 3): -2})
    assert lab.labels == {(1, 2, 3): 2, (1, 3, 4): -2}


def test_square_partition_pairs_opposite_labels():
    lab = split_square(5, -5)
    assert square_partition(lab) == [((1, 2, 3), (1, 3, 4))]
    assert square_partition(split_square(1, -1)) == []
    assert square_partition(split_square(5, -4)) is None
    assert square_partition(split_square(5, 5)) is None


def brute_force_partitions(lab: Labelling) -> list:
    """Every matching of the non-(+-1) triangles into pairs that share a
    side and carry opposite labels, each as a sorted list of sorted pairs."""
    need = sorted(t for t, x in lab.labels.items() if x not in (1, -1))

    def match(rest):
        if not rest:
            return [[]]
        t, others = rest[0], rest[1:]
        out = []
        for s in others:
            if len(set(t) & set(s)) == 2 and lab.labels[s] == -lab.labels[t]:
                rem = [r for r in others if r != s]
                out += [[(t, s)] + tail for tail in match(rem)]
        return out

    return [sorted(pairs) for pairs in match(need)]


def test_square_partition_matches_brute_force():
    # every labelling with labels -2..2 of every triangulation with m <= 6
    cases = 0
    for m in range(2, 7):
        for tri in enumerate_triangulations(m):
            for values in itertools.product(range(-2, 3), repeat=len(tri.triangles)):
                lab = Labelling(tri, dict(zip(tri.triangles, values)))
                found = brute_force_partitions(lab)
                assert len(found) <= 1, "the dual tree forces the pairing"
                assert square_partition(lab) == (found[0] if found else None)
                cases += 1
    assert cases == 9431


def test_lone_square_fails_the_sign_condition():
    # the pairing exists but one negative label makes the sign -1
    lab = split_square(5, -5)
    assert labelling_sign(lab) == -1
    assert not is_admissible(lab)
    with pytest.raises(InvalidLabellingError):
        cycle_from_labelling(lab)


def test_labelling_sign_rules():
    assert labelling_sign(split_square(1, 1)) == 1
    assert labelling_sign(split_square(-1, -1)) == 1
    assert labelling_sign(split_square(0, 0)) == -1
    with pytest.raises(InvalidLabellingError):
        labelling_sign(split_square(0, 2))


def test_all_ones_labelling_gives_triangle_counts():
    for m in range(2, 7):
        for tri in enumerate_triangulations(m):
            lab = Labelling(tri, {t: 1 for t in tri.triangles})
            assert is_admissible(lab)
            assert cycle_from_labelling(lab) == cc_quiddity(tri)


def zigzag_hexagon_labelling(a: int) -> Labelling:
    tri = Triangulation(6, frozenset({(2, 4), (2, 6), (4, 6)}))
    return Labelling(tri, {(2, 3, 4): 1, (4, 5, 6): -1, (1, 2, 6): a, (2, 4, 6): -a})


def snake_hexagon_labelling(a: int) -> Labelling:
    tri = Triangulation(6, frozenset({(1, 3), (3, 6), (4, 6)}))
    return Labelling(tri, {(1, 2, 3): 1, (1, 3, 6): a - 1, (3, 4, 6): 1 - a,
                           (4, 5, 6): -1})


@pytest.mark.parametrize("a", [5, 3, 2, 0, -4])
def test_two_labellings_one_cycle(a):
    # distinct triangulations, identical vertex sums: the labelling of a
    # cycle is not unique
    lab1 = zigzag_hexagon_labelling(a)
    lab2 = snake_hexagon_labelling(a)
    assert lab1.triangulation != lab2.triangulation
    assert is_admissible(lab1) and is_admissible(lab2)
    want = (a, 1, 1, -a, -1, -1)
    assert cycle_from_labelling(lab1).entries == want
    assert cycle_from_labelling(lab2).entries == want


def test_labelling_round_trip_on_corpus(z_corpus):
    for cycle in z_corpus:
        lab = labelling_from_cycle(cycle)
        assert is_admissible(lab)
        assert cycle_from_labelling(lab).entries == cycle.entries


def test_labelling_from_cycle_guards():
    with pytest.raises(InvalidCycleError):
        labelling_from_cycle(Cycle(Z, (1, 2, 3)))


def test_find_12_or_131_fan():
    kind, where = find_12_or_131(cc_quiddity(fan_hexagon()))
    assert kind == "pairs"
    q = cc_quiddity(fan_hexagon())
    p1, p2 = where
    assert (q.entry(p1), q.entry(p1 + 1)) in ((1, 2), (2, 1))
    assert (q.entry(p2), q.entry(p2 + 1)) in ((1, 2), (2, 1))


def test_find_12_or_131_zigzag_triple():
    tri = Triangulation(6, frozenset({(2, 4), (2, 6), (4, 6)}))
    q = cc_quiddity(tri)
    assert q.entries == (1, 3, 1, 3, 1, 3)
    kind, where = find_12_or_131(q)
    assert kind == "triple"
    p = where[0]
    assert (q.entry(p), q.entry(p + 1), q.entry(p + 2)) == (1, 3, 1)


def test_find_12_or_131_exhaustive():
    for m in range(4, 8):
        for tri in enumerate_triangulations(m):
            q = cc_quiddity(tri)
            kind, where = find_12_or_131(q)
            if kind == "pairs":
                p1, p2 = where
                used1 = {(p1 - 1) % m, p1 % m}
                used2 = {(p2 - 1) % m, p2 % m}
                assert not (used1 & used2)
            else:
                p = where[0]
                assert (q.entry(p), q.entry(p + 1), q.entry(p + 2)) == (1, 3, 1)


def test_find_12_or_131_guards():
    with pytest.raises(NotApplicableError):
        find_12_or_131(Cycle(Z, (1, 1, 1)))
    with pytest.raises(InvalidCycleError):
        find_12_or_131(Cycle(Z, (0, 2, -2, 0, 2, -2)))


def reduce_labelling_fully(lab: Labelling):
    steps = []
    while True:
        step = reduce_labelling_step(lab)
        steps.append(step)
        if step.terminal:
            return steps
        assert step.after.m < lab.m
        lab = step.after


def test_labelling_reduction_terminates_on_corpus(z_corpus):
    for cycle in z_corpus[:50]:
        steps = reduce_labelling_fully(labelling_from_cycle(cycle))
        last = steps[-1]
        assert last.case_tag == "TC0"
        assert last.after.m in (2, 3)


def test_labelling_reduction_case_tags():
    lab = Labelling(fan_hexagon(), {t: 1 for t in fan_hexagon().triangles})
    step = reduce_labelling_step(lab)
    assert step.case_tag == "TC1"
    assert step.indices == (1,)

    lab = zigzag_hexagon_labelling(5)
    step = reduce_labelling_step(lab)
    # no ear labelled 1 at the zigzag's +1 triangle? vertex 3 is such an ear
    assert step.case_tag == "TC1"
    assert step.indices == (3,)


def test_labelling_reduction_wrapped_square_pair():
    # squares at windows 3 (vertices 2..5) and 6 (vertices 5, 6, 1, 2);
    # the window at 6 wraps past vertex 1, and the step records it as 6
    lab = Labelling(fan_hexagon(), {(1, 2, 6): -5, (2, 3, 4): 3,
                                    (2, 4, 5): -3, (2, 5, 6): 5})
    assert lab.vertex_sums() == (-5, 0, 3, 0, 2, 0)
    step = reduce_labelling_step(lab)
    assert (step.case_tag, step.indices) == ("TC4", (3, 6))
    assert step.after.m == 2 and step.after.labels == {}


def test_labelling_reduction_rejects_inadmissible():
    with pytest.raises(InvalidLabellingError):
        reduce_labelling_step(split_square(5, -5))


def test_combinatorial_and_integer_engines_can_diverge():
    # on this cycle the integer engine collapses around a zero while the
    # replayed labelling has no removable square at any position, so the
    # combinatorial engine removes two separated -1 ears instead
    c = Cycle(Z, (-1, -1, -1, 0, 0))
    tag_z = reduce_step_Z(c).case_tag
    lab = labelling_from_cycle(c)
    tag_c = reduce_labelling_step(lab).case_tag
    assert tag_z == "T2"
    assert tag_c in ("TC2", "TC5")
    steps = reduce_labelling_fully(lab)
    assert steps[-1].case_tag == "TC0"
