"""Labelled triangulations: admissibility, vertex sums, and the
combinatorial reduction engine."""

import copy
import enum
import hashlib
import itertools
import pickle
import random

import pytest

from quiddity import labelling
from quiddity.bounds import _first_separated_pair
from quiddity.clusters import find_zero_free_cluster
from quiddity.cycles import Cycle, is_quiddity
from quiddity.errors import (
    InvalidCycleError,
    InvalidLabellingError,
    NotApplicableError,
    UsageError,
)
from quiddity.labelling import (
    Labelling,
    _Polygon,
    _from_triangles,
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
from quiddity.reduction import _NEGATES, _choose_case, reduce_step_Z, reduce_to_base
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
    assert sum(2 in t for t in tri.triangles) == 4


def test_triangle_derivation_of_a_large_fan():
    # a fan this size is deeper than Python's recursion limit
    m = 1200
    tri = Triangulation(m, frozenset((1, j) for j in range(3, m)))
    assert tri.triangles == tuple((1, j, j + 1) for j in range(2, m))


def test_from_triangles_rebuilds_every_small_labelling():
    # every build stores only m and the diagonals; its triangles and dual
    # tree are those that Triangulation(m, diagonals) walks
    def walks_its_diagonals(built):
        reference = Triangulation(built.m, built.diagonals)
        assert built.triangles == reference.triangles
        assert built._dual == reference._dual

    rng = random.Random(9)
    for m in range(2, 10):
        for tri in enumerate_triangulations(m):
            lab = Labelling(tri, {t: rng.randint(-3, 3) for t in tri.triangles})
            again = _from_triangles(m, lab.labels)
            assert again.triangulation.diagonals == tri.diagonals
            assert again.labels == lab.labels
            walks_its_diagonals(tri)
            walks_its_diagonals(again.triangulation)
            # +-1 labels with an even number of -1 are admissible
            signs = {t: rng.choice((1, -1)) for t in tri.triangles}
            if list(signs.values()).count(-1) % 2:
                signs[tri.triangles[0]] *= -1
            signed = Labelling(tri, signs)
            if m >= 4:
                cycle = cycle_from_labelling(signed)
                walks_its_diagonals(find_zero_free_cluster(cycle).triangulation)
            while signed.m >= 4:
                signed = reduce_labelling_step(signed).after
                walks_its_diagonals(signed.triangulation)


MALFORMED_TRIANGLES = {
    "two under one side": (4, {(1, 2, 4): 1, (1, 3, 4): 1}, "two triangles under"),
    "a missing triangle": (5, {(1, 2, 3): 1, (1, 3, 5): 1}, "no triangle under the side"),
    "crossing triangles": (4, {(1, 2, 3): 1, (2, 3, 4): 1}, "no triangle under the side"),
    "vertex above m": (4, {(1, 2, 3): 1, (1, 3, 5): 1}, "not a sorted triangle"),
    "vertex 0": (4, {(0, 1, 3): 1, (1, 3, 4): 1}, "not a sorted triangle"),
    "one too many": (4, {(1, 2, 3): 1, (1, 3, 4): 1, (2, 3, 4): 1}, "do not tile"),
    "unsorted triple": (4, {(1, 3, 2): 1, (1, 3, 4): 1}, "not a sorted triangle"),
    "float vertex": (4, {(1, 2, 3.0): 1, (1, 3, 4): 1}, "not a sorted triangle"),
    "not a triple": (4, {(1, 2): 1, (1, 3, 4): 1}, "triple of vertices"),
    "a triangle of a 2-gon": (2, {(1, 2, 3): 1}, "not a sorted triangle"),
    "bool label": (4, {(1, 2, 3): True, (1, 3, 4): 1}, "labels must be integers"),
    "float label": (4, {(1, 2, 3): 1.0, (1, 3, 4): 1}, "labels must be integers"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRIANGLES))
def test_from_triangles_rejects_malformed_triangles(case):
    m, labels, reason = MALFORMED_TRIANGLES[case]
    error = InvalidLabellingError if "label" in case else UsageError
    with pytest.raises(error, match=reason):
        _from_triangles(m, labels)


def test_from_triangles_checks_survive_python_O(child_python):
    # -O strips assert statements; the tiling count must raise all the same
    proc = child_python("-O", "-c", "from quiddity.errors import UsageError\n"
                        "from quiddity.labelling import _from_triangles\n"
                        "try:\n"
                        "    _from_triangles(4, {(1, 2, 3): 1, (1, 3, 4): 1, (2, 3, 4): 1})\n"
                        "except UsageError as exc:\n"
                        "    print('refused:', exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: 3 triangles do not tile the 4-gon")


def test_labelled_polygons_skip_the_diagonal_apex_search(glued_cycle, monkeypatch):
    # every stage and every reduction step builds its triangulation from its
    # labelled triangles; none may fall back to reading apexes off diagonals
    calls = []
    search = labelling._apexes_from_diagonals
    monkeypatch.setattr(labelling, "_apexes_from_diagonals",
                        lambda m, diagonals: calls.append(m) or search(m, diagonals))
    Triangulation(5, {(1, 3), (1, 4)})
    assert calls == [5], "the counter must see the diagonal path"
    calls.clear()
    cycle = Cycle(Z, glued_cycle(random.Random(65), 65))
    lab = labelling_from_cycle(cycle)
    assert lab.vertex_sums() == cycle.entries
    steps = reduce_labelling_fully(lab)
    assert len(steps) > 10 and {s.case_tag for s in steps} > {"TC0", "TC1"}
    assert calls == []


@pytest.mark.parametrize("m", [4.0, True, "4", None])
def test_enumerate_triangulations_needs_an_int(m):
    with pytest.raises(UsageError, match="must be an integer"):
        enumerate_triangulations(m)


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
    # one triangle named twice, and corners that equal ints but are not ints
    for labels, reason in (({(1, 2, 3): 1, (3, 2, 1): -1}, "a second time"),
                           ({(1, 2, 3.0): 1}, "not all integers"),
                           ({(True, 2, 3): 1}, "not all integers")):
        with pytest.raises(InvalidLabellingError, match=reason):
            Labelling(Triangulation(3, []), labels)


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


def test_labelling_from_cycle_running_state_matches_a_rebuild(glued_cycle):
    # labelling_from_cycle checks each stage from the running sums and sign
    # counts of one `_Polygon`; every stage, rebuilt in full, must agree
    rng = random.Random(324)
    for kind in ("cc", "mixed", "zeros"):
        for m in range(3, 61):
            cycle = Cycle(Z, glued_cycle(rng, m, kind))
            polygon = _Polygon()
            for step in reversed(reduce_to_base(cycle).steps):
                polygon.glue_back(step.case_tag, step.indices, step.before.entries)
                lab = polygon.labelling()
                assert tuple(polygon.sums) == lab.vertex_sums() == step.before.entries
                labels = list(lab.labels.values())
                assert polygon.negative == sum(x < 0 for x in labels)
                assert polygon.zero == labels.count(0)
                assert polygon.sign_holds() and labelling_sign(lab) == 1
                assert square_partition(lab) is not None
            assert labelling_from_cycle(cycle) == polygon.labelling()


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
    for m in range(4, 11):
        for tri in enumerate_triangulations(m):
            q = cc_quiddity(tri)
            kind, where = find_12_or_131(q)
            windows = [p for p in range(1, m + 1)
                       if (q.entry(p), q.entry(p + 1)) in ((1, 2), (2, 1))]
            # brute force: the first pair of windows whose entries are disjoint
            disjoint = [(p1, p2) for p1, p2 in itertools.combinations(windows, 2)
                        if not {(p1 - 1) % m, p1 % m} & {(p2 - 1) % m, p2 % m}]
            if kind == "pairs":
                assert where == disjoint[0]
            else:
                assert disjoint == []
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


def test_seeded_polygon_outputs_are_pinned(glued_cycle):
    # one hash over every labelling step and one over every reduction step
    # of 1,320 seeded cycles pin the output of both engines
    chains, reductions = hashlib.sha256(), hashlib.sha256()
    for seed, m, kind in itertools.product(range(40), (4, 5, 6, 7, 8, 9, 12, 20, 35, 50, 65),
                                           ("cc", "mixed", "zeros")):
        cycle = Cycle(Z, glued_cycle(random.Random(1000 * seed + m), m, kind))
        for step in reduce_labelling_fully(labelling_from_cycle(cycle)):
            after = step.after
            chains.update(repr((step.case_tag, step.indices, sorted(after.labels.items()),
                                sorted(after.triangulation.diagonals))).encode())
        for s in reduce_to_base(cycle).steps:
            reductions.update(repr((s.case_tag, s.indices, s.after.entries, s.eps_before,
                                    s.eps_after)).encode())
    assert (chains.hexdigest(), reductions.hexdigest()) == (
        "748dbf27cc3ef93e593b5b0187f20adcda462e667eb06eeb1fe329ecf4d78a45",
        "144d3bf38a883ae3d6dbe10c54fd8573239ac1cdbcc94b24626b983c7cb91c88")


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


def test_labelling_reduction_wrapped_ear_pair():
    # -1 ears at 3 and 7; the ear at 7 wraps past vertex 1, every other
    # label is +-1 and m is odd, so no case before TC5 applies
    tri = Triangulation(7, frozenset({(1, 6), (2, 4), (2, 5), (2, 6)}))
    lab = Labelling(tri, {(1, 2, 6): 1, (1, 6, 7): -1, (2, 3, 4): -1,
                          (2, 4, 5): -1, (2, 5, 6): -1})
    assert lab.vertex_sums() == (0, -2, -1, -2, -2, -1, -1)
    step = reduce_labelling_step(lab)
    assert (step.case_tag, step.indices) == ("TC5", (3, 7))
    # vertices 1, 2, 4, 5, 6 survive as 1 .. 5
    assert step.after.m == 5
    assert step.after.labels == {(1, 2, 5): 1, (2, 3, 4): -1, (2, 4, 5): -1}


def chosen_by_hand(lab: Labelling) -> tuple:
    """The case tag and indices of the first step on an admissible `lab`
    with m >= 4, its ears counted from the labels: the vertices in exactly
    one triangle."""
    m = lab.m
    held = {v: [t for t in lab.labels if v in t] for v in range(1, m + 1)}
    ear = {v: lab.labels[ts[0]] for v, ts in held.items() if len(ts) == 1}
    ones = sorted(v for v, x in ear.items() if x == 1)
    minus = sorted(v for v, x in ear.items() if x == -1)
    squares = sorted(labelling._square_windows(square_partition(lab), m))
    if ones:
        return "TC1", (ones[0],)
    if squares and m % 2 == 1:
        return "TC2", (squares[0],)
    if minus and m % 2 == 0:
        return "TC3", (minus[0],)
    for tag, found in (("TC4", squares), ("TC5", minus)):
        pair = _first_separated_pair(found, m)
        if pair:
            return tag, pair
    return None


# labellings whose first ear is vertex 1, the corner of (1, 2, m), or
# vertex m, the corner of (1, m - 1, m)
EARS_AT_THE_WRAP = (
    (5, {(1, 2, 5): 1, (2, 3, 5): 1, (3, 4, 5): 1}, ("TC1", (1,))),
    (5, {(1, 2, 3): -1, (1, 3, 4): -1, (1, 4, 5): 1}, ("TC1", (5,))),
    (4, {(1, 2, 4): -1, (2, 3, 4): -1}, ("TC3", (1,))),
    (6, {(1, 2, 5): 1, (1, 5, 6): -1, (2, 3, 4): 2, (2, 4, 5): -2}, ("TC3", (6,))),
    (5, {(1, 2, 5): -1, (2, 3, 5): 1, (3, 4, 5): -1}, ("TC5", (1, 4))),
    (7, {(1, 2, 6): 1, (1, 6, 7): -1, (2, 3, 4): -1, (2, 4, 5): -1, (2, 5, 6): -1},
     ("TC5", (3, 7))),
)


def test_ears_read_off_the_triangles(glued_cycle):
    tags = set()
    for m, labels, want in EARS_AT_THE_WRAP:
        lab = _from_triangles(m, labels)
        step = reduce_labelling_step(lab)
        assert (step.case_tag, step.indices) == want == chosen_by_hand(lab)
    rng = random.Random(40)
    for m in range(4, 41):
        lab = labelling_from_cycle(Cycle(Z, glued_cycle(rng, m)))
        for step in reduce_labelling_fully(lab)[:-1]:
            assert (step.case_tag, step.indices) == chosen_by_hand(step.before)
            tags.add(step.case_tag)
    assert tags == {"TC1", "TC2", "TC3", "TC4", "TC5"}


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


def reference_step(lab: Labelling) -> tuple:
    """The case tag, indices and `after` of one labelling reduction step,
    computed as the library did before its steps carried their checked
    facts: the input checked in full, the removable squares found by
    comparing corner sets, `after` rebuilt by one `_from_triangles` walk
    and checked in full."""
    partition = square_partition(lab)
    if partition is None or labelling_sign(lab) != 1:
        raise InvalidLabellingError("labelling is not admissible")
    m = lab.m
    if m < 4:
        return "TC0", (), lab
    ears = {}
    for t in lab.labels:
        a, c, b = t
        if b - a == 2:
            ears[c] = t
        elif t == (1, 2, m):
            ears[1] = t
        elif t == (1, m - 1, m):
            ears[m] = t
    windows = {}
    for pair in partition:
        corners = set(pair[0] + pair[1])
        for a in corners:
            if corners == {(a + i - 1) % m + 1 for i in range(4)}:
                windows[a % m + 1] = pair
    case, indices = _choose_case(
        m, sorted(k for k, t in ears.items() if lab.labels[t] == 1), sorted(windows),
        sorted(k for k, t in ears.items() if lab.labels[t] == -1))
    vertices, triangles = set(), set()
    for k in indices:
        if case in (2, 4):
            vertices |= {k, k % m + 1}
            triangles.update(windows[k])
        else:
            vertices.add(k)
            triangles.add(ears[k])
    kept = [v for v in range(1, m + 1) if v not in vertices]
    new = {v: i for i, v in enumerate(kept, 1)}
    sign = -1 if case in _NEGATES else 1
    after = _from_triangles(len(kept), {(new[a], new[b], new[c]): sign * x
                                        for (a, b, c), x in lab.labels.items()
                                        if (a, b, c) not in triangles})
    assert is_admissible(after)
    return f"TC{case}", indices, after


def assert_carries_its_facts(lab: Labelling):
    # facts set in advance are those that a full rebuild computes
    assert "_facts" in vars(lab)
    rebuilt = _from_triangles(lab.m, lab.labels)
    labels = list(rebuilt.labels.values())
    assert "_facts" not in vars(rebuilt) and labelling_sign(rebuilt) == 1
    assert lab._facts == (square_partition(rebuilt), sum(x < 0 for x in labels),
                          labels.count(0))


def test_labelling_steps_match_a_reference_step(glued_cycle):
    rng = random.Random(5)
    tags = set()
    for kind in ("cc", "mixed", "zeros"):
        for m in range(4, 66, 2):
            lab = labelling_from_cycle(Cycle(Z, glued_cycle(rng, m, kind)))
            assert_carries_its_facts(lab)
            while lab.m >= 4:
                step = reduce_labelling_step(lab)
                after = step.after
                built = after.triangulation
                assert "_dual" not in vars(built) and "triangles" not in vars(built)
                assert (step.case_tag, step.indices, after) == reference_step(lab)
                rebuilt = _from_triangles(after.m, after.labels).triangulation
                assert built.triangles == rebuilt.triangles
                assert built.diagonals == rebuilt.diagonals
                assert built._dual == rebuilt._dual
                assert_carries_its_facts(after)
                tags.add(step.case_tag)
                lab = after
    assert tags == {"TC1", "TC2", "TC3", "TC4", "TC5"}


def test_labels_are_read_only(glued_cycle):
    tri = Triangulation(4, {(1, 3)})
    by_hand = Labelling(tri, {(1, 2, 3): 1, (1, 3, 4): 1})
    glued = labelling_from_cycle(Cycle(Z, glued_cycle(random.Random(7), 12)))
    stepped = reduce_labelling_step(glued).after
    for lab in (by_hand, glued, stepped):
        t = next(iter(lab.labels))
        with pytest.raises(TypeError):
            lab.labels[t] = -lab.labels[t]
        with pytest.raises(TypeError):
            del lab.labels[t]
        assert is_admissible(lab)


def test_a_labelling_takes_the_labels_of_another(glued_cycle):
    lab = labelling_from_cycle(Cycle(Z, glued_cycle(random.Random(8), 20)))
    again = Labelling(lab.triangulation, lab.labels)
    assert again == lab and "_facts" not in vars(again)
    assert reduce_labelling_step(again) == reduce_labelling_step(lab)


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copied_labelling_steps_as_the_original(glued_cycle, clone):
    for kind in ("cc", "mixed", "zeros"):
        lab = labelling_from_cycle(Cycle(Z, glued_cycle(random.Random(9), 20, kind)))
        lab = reduce_labelling_step(lab).after
        again = clone(lab)
        assert again == lab and type(again.labels) is type(lab.labels)
        step, expected = reduce_labelling_step(again), reduce_labelling_step(lab)
        assert (step.case_tag, step.indices, step.after) == \
            (expected.case_tag, expected.indices, expected.after)


def test_labelling_step_takes_the_labels_labelling_takes():
    # an int subclass is a label
    class Label(enum.IntEnum):
        ONE = 1

    lab = Labelling(Triangulation(4, {(1, 3)}), {(1, 2, 3): 1, (1, 3, 4): Label.ONE})
    step = reduce_labelling_step(lab)
    assert (step.case_tag, step.after.labels) == ("TC1", {(1, 2, 3): 1})
