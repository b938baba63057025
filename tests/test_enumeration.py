"""Search engine: count tables, symmetry structure, kernels, unit families.

Every cell of `tests/cells.json` is counted here on each kernel its row
lists, and its total, orbit count and output hash are compared with the
row.  Each independent algorithm a row names (a naive product scan, the
search over every cycle, or the Conway-Coxeter triangle counts) is rerun
on the cell, and its cycles must give the same row.  The structural
invariants of the search are tested on small cells.
"""

import gc
import hashlib
import inspect
import itertools
import json
import random
import subprocess
import sysconfig
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import CELLS, RINGS, ROW, cells_checked_by

from quiddity import _kernel, enumeration
from quiddity.bounds import candidate_entries, quiddity_bound
from quiddity.cycles import Cycle, is_quiddity, reverse, rotate
from quiddity.enumeration import (
    EnumerationResult,
    _excluded_parameters,
    active_kernel,
    canonical_form,
    count_nonzero,
    enumerate_nonzero,
    unit_family,
    unit_family_cycle,
)
from quiddity.errors import NotRepresentableError, UnsupportedRingError, UsageError
from quiddity.frieze import frieze_from_cycle, is_nonzero
from quiddity.jsonio import dumps, result_to_json
from quiddity.labelling import cc_quiddity, enumerate_triangulations
from quiddity.rings import Cyclotomic, Q, Qi, Z, Zi, Zzeta6
from quiddity.transforms import scale_alternating


def naive_nonzero(ring, n):
    """Filter every tuple over the candidate pool by the two definitions."""
    cycles = (Cycle(ring, t) for t in itertools.product(candidate_entries(ring, n), repeat=n + 3))
    return [c.entries for c in cycles if is_quiddity(c) and is_nonzero(frieze_from_cycle(c))]


def search_on(kind, request, monkeypatch):
    """Run the enumeration on the kernel named `kind` for this test."""
    kernel = _kernel if kind == "pure" else request.getfixturevalue("compiled_kernel")
    monkeypatch.setattr(enumeration, "_default", kernel)
    assert active_kernel() == kind


def assert_matches_row(result):
    """The total, orbit count and output hash are those of the cell's row."""
    row = ROW[result.ring.tag, result.n]
    digest = hashlib.sha256(dumps(result_to_json(result)).encode()).hexdigest()
    assert (result.total, result.orbit_count, digest) == (row["total"], row["orbits"], row["sha256"])


def confirm_row(ring, n, cycles):
    """Check the entry tuples `cycles` that a second algorithm found, every
    rotation and reflection included, against the search and against the
    cell's row; return them as an enumeration result."""
    def order(found):
        return sorted(found, key=lambda e: tuple(ring.sort_key(x) for x in e))

    assert [c.entries for c in enumerate_nonzero(ring, n)] == order(cycles)
    canon = order({canonical_form(Cycle(ring, e)).entries for e in cycles})
    result = EnumerationResult(ring, n, len(cycles), len(canon), tuple(Cycle(ring, e) for e in canon))
    assert_matches_row(result)
    return result


def test_cell_table_has_one_sorted_row_per_cell():
    keys = [(row["ring"], row["height"]) for row in CELLS]
    assert keys == sorted(set(keys))
    for row in CELLS:
        assert row["ring"] in RINGS and row["height"] >= 1
        assert row["kernels"] and set(row["kernels"]) <= {"pure", "compiled"}
        assert set(row["checked_by"]) <= {"brute force", "full grid", "Conway-Coxeter"}


@pytest.mark.parametrize("row,kind", [
    pytest.param(row, kind, id=f"{row['ring']}:{row['height']}-{kind}")
    for row in CELLS for kind in row["kernels"]])
def test_cell_matches_table(row, kind, request, monkeypatch):
    # the hash covers every representative, so two kernels that match it
    # return the same canonical cycles and expand them to the same list
    search_on(kind, request, monkeypatch)
    assert_matches_row(count_nonzero(RINGS[row["ring"]], row["height"]))


@pytest.mark.parametrize("ring,n", cells_checked_by("brute force"))
def test_engine_matches_naive_scan(ring, n):
    confirm_row(ring, n, naive_nonzero(ring, n))


def dihedral_images(key):
    """The 2m rotations and reflections of a tuple, repeats included."""
    return [v[s:] + v[:s] for v in (key, key[::-1]) for s in range(len(key))]


def full_search(ring, n):
    """Every cycle, rotations and reflections included, from the full grid
    of prefixes: every (c1, c2) with c1*c2 != 1 (single entries at height
    1), each run through the pure kernel with all candidates in a seeded
    shuffled order.  The kernel keeps the least cycle of each orbit in that
    order, not in the ring's, and finds it from the one prefix it starts
    with; each orbit is expanded here and must have the size reported."""
    elems = candidate_entries(ring, n)
    shuffled = random.Random(f"full grid {ring.tag}:{n}").sample(elems, len(elems))
    pairs = [ring.to_pair(x) for x in shuffled]
    if n == 1:
        prefixes = [(c,) for c in pairs]
    else:
        prefixes = [(ring.to_pair(x), ring.to_pair(y)) for x in shuffled for y in shuffled
                    if x * y != ring.one]
    cycles = []
    for prefix in prefixes:
        for key, size in _kernel.search_from_prefix(ring.t, n, list(prefix), pairs):
            orbit = set(dihedral_images(key))
            assert size == len(orbit), key
            cycles += [tuple(shuffled[k] for k in v) for v in orbit]
    return cycles


@pytest.mark.parametrize("ring,n", cells_checked_by("full grid"))
def test_canonical_search_matches_full_search(ring, n):
    result = confirm_row(ring, n, full_search(ring, n))
    # the task cut rests on this: a canonical cycle starts with an entry of
    # norm below 4 (two such entries exist in every quiddity cycle)
    assert all(ring.norm_sq(r.entries[0]) < 4 for r in result.representatives)


@pytest.fixture(params=["pure", "compiled"])
def kernel(request):
    if request.param == "pure":
        return _kernel
    return request.getfixturevalue("compiled_kernel")


OUTSIDE = "a candidate has norm above (n + 1)^2"
NOT_CANDIDATE = "a prefix entry is not a candidate"

# inputs outside the kernel contract, each with the ValueError message both
# kernels raise on it before the search starts; at height 3 the ball holds
# the norms up to 16
REJECTED = [
    pytest.param(0, 3, [], [(1, 0)], "bad prefix length or height", id="3-prefix0"),
    pytest.param(0, 3, [(1, 0)] * 4, [(1, 0)], "bad prefix length or height", id="3-prefix1"),
    pytest.param(0, 17, [(1, 0)], [(1, 0)], "bad prefix length or height", id="17-prefix2"),
    # t outside {0, 1} names no ring; both kernels once fell through to a
    # formula of their own here (the pure one to Z[w]'s, the compiled to Z[i]'s)
    pytest.param(7, 3, [(1, 0)], [(1, 0)], "t must be 0 or 1, got 7", id="t7"),
    pytest.param(-1, 3, [(1, 0)], [(1, 0)], "t must be 0 or 1, got -1", id="t-1"),
    pytest.param(2, 3, [(1, 0)], [(1, 0)], "t must be 0 or 1, got 2", id="t2"),
    pytest.param(0, 3, [(1, 0)], [(1, 0), (2, 0), (1, 0)], "a candidate is repeated",
                 id="duplicate"),
    pytest.param(0, 3, [(1, 0)], [(1, 0), (0, 0)], "a candidate is zero", id="zero"),
    pytest.param(0, 3, [(1, 0)], [(1, 0), (5, 0)], OUTSIDE, id="outside"),
    # inside the compiled kernel's box |a|, |b| <= isqrt(32) but not in the ball
    pytest.param(1, 3, [(1, 0)], [(1, 0), (3, 2)], OUTSIDE, id="outside-in-box"),
    # the norm leaves int64, and then the coordinate itself
    pytest.param(0, 3, [(1, 0)], [(1, 0), (2**62, 0)], OUTSIDE, id="int64"),
    pytest.param(0, 3, [(1, 0)], [(1, 0), (0, -2**64)], OUTSIDE, id="beyond-int64"),
    # the candidates are checked in order, before the prefix
    pytest.param(0, 3, [(9, 0)], [(1, 0), (1, 0), (0, 0)], "a candidate is repeated",
                 id="first-fault"),
    pytest.param(0, 3, [(0, 0)], [(1, 0), (2, 0)], NOT_CANDIDATE, id="zero-prefix-entry"),
    pytest.param(0, 3, [(5, 0)], [(1, 0), (2, 0)], NOT_CANDIDATE, id="outside-prefix-entry"),
    pytest.param(0, 3, [(1, 0), (3, 0)], [(1, 0), (2, 0)], NOT_CANDIDATE,
                 id="prefix-entry-not-candidate"),
    pytest.param(0, 3, [(2**64, 0)], [(1, 0)], NOT_CANDIDATE, id="beyond-int64-prefix-entry"),
]


@pytest.mark.parametrize("t,n,prefix,candidates,message", REJECTED)
def test_kernel_rejects_bad_prefix_or_height(kernel, t, n, prefix, candidates, message):
    with pytest.raises(ValueError) as err:
        kernel.search_from_prefix(t, n, prefix, candidates)
    assert str(err.value) == message


@pytest.mark.parametrize("prefix", [pytest.param([(1, 0), (1, 0)], id="prefix2"),
                                    pytest.param([(1, 0), (-1, 0)], id="prefix3")])
def test_kernel_prunes_bad_prefix_entries(kernel, prefix):
    # an adjacent product 1, and a prefix whose one quiddity cycle over these
    # candidates, (1, -1, -1, -1, 1, 1), has a zero in its frieze
    assert kernel.search_from_prefix(Z.t, 3, prefix, [(1, 0), (2, 0), (-1, 0)]) == []


def test_compiled_kernel_is_exact_or_raises(compiled_kernel):
    # Heights up to 16, with prefixes of up to n entries that are often the
    # largest of the ball, so the running product can leave int64: the
    # compiled kernel returns the pure kernel's list or raises
    # OverflowError, never a wrong list.  The inputs keep the kernel
    # contract, so an overflow comes from the search itself.
    rnd = random.Random(5)
    outcomes = set()
    for _ in range(400):
        ring, n = rnd.choice([Z, Zi, Zzeta6]), rnd.randint(1, 16)
        pairs = [ring.to_pair(x) for x in candidate_entries(ring, n)]
        pool = pairs[-8:] if rnd.random() < 0.5 else pairs
        prefix = [rnd.choice(pool) for _ in range(rnd.randint(max(1, n - 2), n))]
        cands = list(dict.fromkeys(prefix + rnd.sample(pairs, rnd.randint(0, min(30, len(pairs))))))
        rnd.shuffle(cands)
        pure = _kernel.search_from_prefix(ring.t, n, prefix, cands)
        try:
            assert compiled_kernel.search_from_prefix(ring.t, n, prefix, cands) == pure
            outcomes.add("equal" if pure else "equal, empty")
        except OverflowError:
            outcomes.add("search overflow")
    assert outcomes == {"equal", "equal, empty", "search overflow"}


def _mul(t, x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0] + t * x[1] * y[1])


def _norm(t, x):
    return x[0] * x[0] + t * x[0] * x[1] + x[1] * x[1]


def _div(t, x, y):
    # q with q * y == x, or None; q = x * conj(y) / norm(y)
    n = _norm(t, y)
    if n == 0:
        return None
    a, b = _mul(t, x, (y[0] + t * y[1], -y[1]))
    return None if a % n or b % n else (a // n, b // n)


def scan_search(t, n, prefix, candidates):
    """The kernel contract computed by scanning: every candidate is tried at
    every free position, in order, and the last three entries are forced.
    A cycle of candidates is ranked by positions and kept, with the
    number of its distinct images, when no rotation or reflection of the
    ranks is smaller.  Its arithmetic and its ranking are its own, so it
    shares no code with either kernel."""
    m = n + 3
    rank = {c: i for i, c in enumerate(candidates)}
    out = []

    def windows_nonzero(cycle):
        for start in range(m):
            prev, k = (1, 0), cycle[start]
            for length in range(1, m - 2):
                if k == (0, 0):
                    return False
                ka, kb = _mul(t, k, cycle[(start + length) % m])
                prev, k = k, (ka - prev[0], kb - prev[1])
        return True

    def walk(entries, p11, p12, p21, p22):
        if len(entries) == n:
            u = p11
            a = _div(t, (1 - p12[0], -p12[1]), u)
            b = _div(t, (1 + p21[0], p21[1]), u)
            if a is None or b is None:
                return
            cycle = entries + (a, u, b)
            if not (all(x in rank for x in cycle)
                    and all(_mul(t, cycle[i - 1], cycle[i]) != (1, 0) for i in range(m))
                    and windows_nonzero(cycle)):
                return
            key = tuple(rank[x] for x in cycle)
            images = dihedral_images(key)
            if key == min(images):
                out.append((key, len(set(images))))
            return
        choices = candidates if len(entries) >= len(prefix) else [prefix[len(entries)]]
        for c in choices:
            if entries and _mul(t, entries[-1], c) == (1, 0):
                continue
            ta, tb = _mul(t, p11, c)
            q11 = (ta + p12[0], tb + p12[1])
            if q11 == (0, 0):
                continue
            ta, tb = _mul(t, p21, c)
            walk(entries + (c,), q11, (-p11[0], -p11[1]), (ta + p22[0], tb + p22[1]),
                 (-p21[0], -p21[1]))

    walk((), (1, 0), (0, 0), (0, 0), (1, 0))
    return out


def test_last_position_solve_matches_the_scan(kernel):
    # Both kernels solve the last free position unless the prefix fills it.
    # Seeded draws cover both, with candidate lists that are unsorted,
    # real-only or mixed: distinct elements of the ball of norms up to the
    # limit (n + 1)^2, within a box of a drawn width, prefix entries
    # included.
    rnd = random.Random(19)
    found = {"solve": 0, "prefix": 0}
    for _ in range(400):
        t, real = rnd.choice((0, 1)), rnd.random() < 0.4
        n = rnd.randint(1, 5)
        width = rnd.choice((1, 2, 3, 5, 9))
        pool = [(a, b) for a in range(-width, width + 1)
                for b in ((0,) if real else range(-width, width + 1))
                if (a, b) != (0, 0) and _norm(t, (a, b)) <= (n + 1) ** 2]
        small = [c for c in pool if max(map(abs, c)) <= 2]
        prefix = [rnd.choice(small) for _ in range(rnd.randint(max(1, n - 2), n))]
        cands = list(dict.fromkeys(prefix + rnd.sample(pool, rnd.randint(0, min(60, len(pool))))))
        rnd.shuffle(cands)
        expected = scan_search(t, n, prefix, cands)
        assert kernel.search_from_prefix(t, n, prefix, cands) == expected, \
            (t, n, prefix, cands)
        found["solve" if len(prefix) < n else "prefix"] += len(expected)
    assert min(found.values()) > 0, found


def _continuant(t, entries):
    # the top-left entry of the product of the entries' eta-matrices
    p11, p12 = (1, 0), (0, 0)
    for c in entries:
        a, b = _mul(t, p11, c)
        p11, p12 = (a + p12[0], b + p12[1]), (-p11[0], -p11[1])
    return p11


def test_last_two_positions_solve_matches_the_scan(kernel):
    # Two free positions are left.  Where the prefix's continuant p11 has
    # norm above the limit, both kernels take the first of them from a disc
    # lookup, and a second call of each draw repeats every query of the
    # first, which the pure kernel answers from its residue index.  The
    # prefixes are cut from rotations and reflections of the cells' cycles.
    # Half the candidate lists start with the cycle's entries in the order
    # it reads them, so the cycle is often canonical even where it carries
    # an entry on the rim of the ball; the other half shuffle them in.
    # Both add a part of the ball, real-only over Z.
    rnd = random.Random(23)
    cells = []
    for ring, n in ((Z, 5), (Z, 6), (Zi, 4), (Zzeta6, 4)):
        pairs = [ring.to_pair(x) for x in candidate_entries(ring, n)]
        images = [v for cyc in count_nonzero(ring, n).representatives
                  for v in dihedral_images(tuple(ring.to_pair(x) for x in cyc.entries))]
        cells.append((ring.t, n, pairs, images))
    found = dict.fromkeys(["disc", "real"] + (["indexed"] if kernel is _kernel else []), 0)
    for _ in range(150):
        t, n, pairs, images = rnd.choice(cells)
        cycle, limit = rnd.choice(images), (n + 1) ** 2
        part = rnd.sample(pairs, rnd.randint(0, len(pairs)))
        if rnd.random() < 0.5:
            cands = list(dict.fromkeys(cycle + tuple(part)))
        else:
            cands = list(dict.fromkeys(part + list(cycle)))
            rnd.shuffle(cands)
        prefix = list(cycle[:n - 2])
        expected = scan_search(t, n, prefix, cands)
        _kernel._factor_pairs.cache_clear()
        for _ in range(2):
            assert kernel.search_from_prefix(t, n, prefix, cands) == expected, \
                (t, n, prefix, cands)
        k, real = len(expected), not any(b for _, b in prefix + cands)
        found["disc"] += k * (_norm(t, _continuant(t, prefix)) > limit)
        found["real"] += k * real
        if kernel is _kernel:
            found["indexed"] += k * any(_kernel._factor_pairs(t, limit, real).index)
    assert min(found.values()) > 0, found


@pytest.mark.parametrize("ring,n", [(Z, 5), (Zi, 3), (Zzeta6, 3), (Zzeta6, 4)])
def test_cycles_through_the_rim_of_the_ball(kernel, ring, n):
    # Every cycle of the cell whose forced middle entry u lies on the rim of
    # the ball (an element with a neighbour outside it), searched from its
    # first n - 2 entries with ranks in the order the cycle reads them: it
    # comes back exactly when it is canonical under those ranks.  Both
    # kernels list the ball row by row, so a row cut short at either end,
    # or a first or last row left out, loses such a cycle.
    pairs = [ring.to_pair(x) for x in candidate_entries(ring, n)]
    ball = set(pairs)
    rim = {(a, b) for a, b in ball
           if {(a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)} - ball - {(0, 0)}}
    cycles = [tuple(ring.to_pair(x) for x in cyc.entries) for cyc in enumerate_nonzero(ring, n)]
    found = 0
    for cycle in cycles:
        if cycle[-2] not in rim:
            continue
        cands = list(dict.fromkeys(cycle)) + [p for p in pairs if p not in cycle]
        key = tuple(cands.index(x) for x in cycle)
        keys = [k for k, _ in kernel.search_from_prefix(ring.t, n, list(cycle[:n - 2]), cands)]
        assert (key in keys) == (key == min(dihedral_images(key))), cycle
        found += key in keys
    assert found > 0


def test_disc_query_keeps_the_candidates_that_can_complete():
    # the pure kernel's query at the last free position but one returns, in
    # candidate order, the candidates c with norm(1 + p11*c + p12) within
    # limit^2, the only ones whose last free position has a factor pair;
    # the candidates are drawn from the ball, in a shuffled order
    rnd = random.Random(31)
    kept = dropped = 0
    for _ in range(300):
        ring, n = rnd.choice([Z, Zi, Zzeta6]), rnd.randint(3, 6)
        t, limit, real = ring.t, (n + 1) ** 2, ring is Z

        def elem(big):
            return rnd.randint(-big, big), 0 if real else rnd.randint(-big, big)

        pairs = [ring.to_pair(x) for x in candidate_entries(ring, n)]
        cands = rnd.sample(pairs, rnd.randint(1, min(80, len(pairs))))
        search = _kernel._Search(t, n, [cands[0]], cands)
        p11 = elem(rnd.choice((9, 40, 300)))
        while _norm(t, p11) <= limit:
            p11 = elem(300)
        p12 = elem(rnd.choice((9, 40, 300)))

        def x_norm(c):
            a, b = _mul(t, p11, c)
            return _norm(t, (1 + a + p12[0], b + p12[1]))

        want = [c for c in cands if x_norm(c) <= limit ** 2]
        assert search.solve_near(p11, p12) == want, (t, n, p11, p12)
        kept += len(want)
        dropped += len(cands) - len(want)
    assert kept > 0 and dropped > 0


def test_kernels_agree_on_deep_prefixes(compiled_kernel):
    # Zi:6 has more candidates (148) than the old compiled kernel's fixed
    # arrays held (128).  The prefixes are the first four to six entries of
    # the canonical rotation of each unit-family cycle, so each one
    # completes to at least that cycle.
    n = 6
    pairs = [Zi.to_pair(x) for x in candidate_entries(Zi, n)]
    assert len(pairs) > 128
    canon = sorted({tuple(Zi.to_pair(x) for x in canonical_form(cyc).entries)
                    for _t, cyc in unit_family(Zi, n, 10)})
    for cycle in canon:
        key = tuple(pairs.index(x) for x in cycle)
        for k in (4, 5, 6):
            pure = _kernel.search_from_prefix(Zi.t, n, list(cycle[:k]), pairs)
            fast = compiled_kernel.search_from_prefix(Zi.t, n, list(cycle[:k]), pairs)
            assert fast == pure, cycle[:k]
            assert key in [found for found, _size in pure], cycle[:k]
    assert len(canon) == 10


@pytest.mark.parametrize("ring,n", [(Z, 5), (Zi, 3), (Zzeta6, 3)])
def test_kernels_agree_on_every_task(compiled_kernel, ring, n):
    # the same (ranks, orbit size) list from both kernels on every prefix
    # task of the cell, and one result per orbit over all of them; the
    # kernels agree too on a seeded shuffle of each task's candidates, which
    # the compiled kernel ranks through its table, not by their order
    elems = candidate_entries(ring, n)
    pairs = [ring.to_pair(x) for x in elems]
    rnd = random.Random(f"agree {ring.tag}:{n}")
    found = found_shuffled = 0
    for prefix, i in enumeration._canonical_tasks(ring, elems, pairs):
        pure = _kernel.search_from_prefix(ring.t, n, list(prefix), pairs[i:])
        assert compiled_kernel.search_from_prefix(ring.t, n, list(prefix), pairs[i:]) == pure
        found += len(pure)
        shuffled = rnd.sample(pairs[i:], len(pairs) - i)
        pure = _kernel.search_from_prefix(ring.t, n, list(prefix), shuffled)
        assert compiled_kernel.search_from_prefix(ring.t, n, list(prefix), shuffled) == pure
        found_shuffled += len(pure)
    assert found == ROW[ring.tag, n]["orbits"] and found_shuffled > 0


@pytest.mark.parametrize("ring,n", [(Z, 1), (Z, 5), (Zi, 3), (Zzeta6, 3)])
def test_first_entry_task_is_its_pair_split(kernel, ring, n):
    # a first-entry task returns its two-entry prefixes' lists joined in
    # suffix order, leaving out c2 with c1 * c2 = 1, which the kernel's
    # inverse test at depth 1 skips; height 1 has no second free position
    elems = candidate_entries(ring, n)
    pairs = [ring.to_pair(x) for x in elems]
    found = 0
    for (c1,), i in enumeration._canonical_tasks(ring, elems, pairs):
        whole = kernel.search_from_prefix(ring.t, n, [c1], pairs[i:])
        found += len(whole)
        if n > 1:
            split = [key for j in range(i, len(elems)) if elems[i] * elems[j] != ring.one
                     for key in kernel.search_from_prefix(ring.t, n, [c1, pairs[j]], pairs[i:])]
            assert whole == split, c1
    assert found == ROW[ring.tag, n]["orbits"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("ring,count", [(Z, 2), (Zi, 8), (Zzeta6, 12)])
def test_one_task_per_small_first_entry(ring, count, n):
    elems = candidate_entries(ring, n)
    pairs = [ring.to_pair(x) for x in elems]
    small = [i for i, x in enumerate(elems) if ring.norm_sq(x) < 4]
    assert enumeration._canonical_tasks(ring, elems, pairs) == [((pairs[i],), i) for i in small]
    assert small == list(range(count))


def test_kernels_share_one_signature(compiled_kernel):
    pure = inspect.signature(_kernel.search_from_prefix)
    assert inspect.signature(compiled_kernel.search_from_prefix) == pure
    assert list(pure.parameters) == ["t", "n", "prefix", "candidates"]


def test_pure_kernel_leaves_no_reference_cycle():
    # each task's search state is freed by reference counting alone: a task
    # with cycles, one with none, one whose prefix fills every free position
    # and one whose prefix is pruned at once; so is the recursion that lists
    # triangulations
    pairs = [Zi.to_pair(x) for x in candidate_entries(Zi, 3)]
    tasks = [[(1, 0)], [(3, 0), (3, 0)], [(1, 0), (2, 0), (3, 0)], [(1, 0), (1, 0)]]
    gc.collect()
    gc.disable()
    try:
        for prefix in tasks:
            _kernel.search_from_prefix(Zi.t, 3, prefix, pairs)
            assert gc.collect() == 0, prefix
        enumerate_triangulations(6)
        assert gc.collect() == 0, "enumerate_triangulations"
    finally:
        gc.enable()


# after fifteen 17s the continuant p11 (about 2.6e18) fits in int64, but
# the norm of x = 1 + p11, whose factor pairs solve the last free position,
# does not
OVERFLOW_TASK = (Z.t, 16, [(17, 0)] * 15, [(1, 0), (17, 0)])


# two free positions: every prefix entry has norm 16, within the limit
# 17^2, and fourteen 4s have the continuant p11 = 109,552,575, whose norm
# fits in int64 but whose disc bound 4 * 17^4 * norm(p11) does not; the
# compiled kernel keeps that bound and each disc row's squared term in
# 128-bit integers
DISC_OVERFLOW_TASK = (Z.t, 16, [(4, 0)] * 14, [(1, 0), (2, 0), (-3, 0), (4, 0)])


def _z10_task():
    # a Z:10 task whose disc arithmetic (L = 11^2) leaves int64
    return (Z.t, 10, [(-1, 0)] + [(11, 0)] * 5, [Z.to_pair(x) for x in candidate_entries(Z, 10)])


def test_compiled_kernel_raises_on_int64_overflow(compiled_kernel):
    # the solve of OVERFLOW_TASK needs a norm past int64, which the
    # compiled kernel refuses; the disc of DISC_OVERFLOW_TASK it solves
    assert _kernel.search_from_prefix(*OVERFLOW_TASK) == []
    with pytest.raises(OverflowError):
        compiled_kernel.search_from_prefix(*OVERFLOW_TASK)
    pure = _kernel.search_from_prefix(*DISC_OVERFLOW_TASK)
    assert compiled_kernel.search_from_prefix(*DISC_OVERFLOW_TASK) == pure == []


def test_compiled_kernel_solves_a_disc_past_int64(compiled_kernel):
    task = _z10_task()
    assert compiled_kernel.search_from_prefix(*task) == _kernel.search_from_prefix(*task) == []


# loads the extension built at argv[1] and prints, as JSON, its list for
# each task read as JSON from standard input, "OverflowError", or the
# ValueError's message
SANITIZED_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("quiddity._speedups", sys.argv[1])
kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel)
out = []
for t, n, prefix, cands in json.load(sys.stdin):
    try:
        out.append(kernel.search_from_prefix(t, n, [tuple(x) for x in prefix],
                                             [tuple(x) for x in cands]))
    except OverflowError:
        out.append("OverflowError")
    except ValueError as err:
        out.append(str(err))
print(json.dumps(out))
"""


def run_sanitized(c_compiler, child_python, tmp_path, runtime, flags, env):
    """Build the extension with the sanitizer `flags` and run, in a child
    Python that preloads the sanitizer's `runtime` library, the overflow
    tasks, the Z:10 task, the rejected inputs and every task of one cell
    per ring; each must give the pure kernel's answer."""
    runtime = subprocess.run([*c_compiler, f"-print-file-name={runtime}"],
                             capture_output=True, text=True).stdout.strip()
    if not Path(runtime).is_absolute() or not Path(runtime).exists():
        pytest.skip(f"no {Path(runtime).name} for {c_compiler[0]}")
    source = Path(_kernel.__file__).with_name("_speedups.c")
    built = tmp_path / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [*c_compiler, "-shared", "-fPIC", "-O1", "-g", *flags,
         "-I", sysconfig.get_paths()["include"], str(source), "-o", str(built)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    tasks = [OVERFLOW_TASK, DISC_OVERFLOW_TASK, _z10_task()]
    tasks += [tuple(param.values[:4]) for param in REJECTED]
    for ring, n in ((Z, 5), (Zi, 3), (Zzeta6, 3)):
        elems = candidate_entries(ring, n)
        pairs = [ring.to_pair(x) for x in elems]
        tasks += [(ring.t, n, list(prefix), pairs[i:])
                  for prefix, i in enumeration._canonical_tasks(ring, elems, pairs)]
    proc = child_python("-c", SANITIZED_CHILD, str(built), input=json.dumps(tasks),
                        env={"LD_PRELOAD": runtime, **env})
    assert proc.returncode == 0, proc.stderr[-4000:]
    want = ["OverflowError"]
    for task in tasks[1:]:
        try:
            want.append(_kernel.search_from_prefix(*task))
        except ValueError as err:
            want.append(str(err))
    assert json.loads(proc.stdout) == json.loads(json.dumps(want))


def test_compiled_kernel_is_clean_under_ubsan(c_compiler, child_python, tmp_path):
    # UndefinedBehaviorSanitizer, every finding fatal
    run_sanitized(c_compiler, child_python, tmp_path, "libubsan.so",
                  ["-fsanitize=undefined", "-fno-sanitize-recover=undefined"], {})


def test_compiled_kernel_is_clean_under_asan(c_compiler, child_python, tmp_path):
    # AddressSanitizer bounds-checks the heap arrays, the rank table among
    # them; the interpreter's own allocations are left out of its leak check
    run_sanitized(c_compiler, child_python, tmp_path, "libasan.so",
                  ["-fsanitize=address"], {"ASAN_OPTIONS": "detect_leaks=0"})


@pytest.mark.parametrize("opt", ["-O1", "-O2"])
def test_compiled_kernel_source_has_no_warnings(c_compiler, opt, tmp_path):
    # -O1 reports possibly uninitialised variables that -O2 can miss
    source = Path(_kernel.__file__).with_name("_speedups.c")
    proc = subprocess.run(
        [*c_compiler, opt, "-Wall", "-Wextra", "-Werror", "-I", sysconfig.get_paths()["include"],
         "-c", str(source), "-o", str(tmp_path / "speedups.o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_overflowing_task_reruns_on_pure_kernel(compiled_kernel, monkeypatch):
    monkeypatch.setattr(enumeration, "_default", compiled_kernel)
    assert enumeration._run_task(OVERFLOW_TASK) == _kernel.search_from_prefix(*OVERFLOW_TASK)


def test_enumeration_frees_the_kernel_memo(monkeypatch):
    # the pure kernel's ball and factor-pair memo live for one enumeration
    monkeypatch.setattr(enumeration, "_default", _kernel)
    count_nonzero(Zi, 3)
    assert _kernel._factor_pairs.cache_info().currsize == 0


def record_tasks(monkeypatch):
    """The list, filled as the enumeration goes, of the search tasks it runs
    in this process."""
    run = []
    task = enumeration._run_task

    def recorded(args):
        run.append(args)
        return task(args)

    monkeypatch.setattr(enumeration, "_run_task", recorded)
    return run


# tasks run per cell, (even m, odd m): one per first entry of norm below 4
# that no conjugation or unit twist sends to a smaller candidate
KEPT_TASKS = {"Z": (1, 2), "Zi": (2, 5), "Zzeta6": (2, 7)}


def kept_tasks(ring, n):
    return KEPT_TASKS[ring.tag][(n + 3) % 2]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("ring", [Z, Zi, Zzeta6])
def test_one_task_per_first_entry_class(ring, n, monkeypatch):
    run = record_tasks(monkeypatch)
    count_nonzero(ring, n)
    assert len(run) == kept_tasks(ring, n)


@pytest.mark.parametrize("row", [
    pytest.param(row, id=f"{row['ring']}:{row['height']}") for row in CELLS
    if row["ring"] != "Z" or (row["height"] + 3) % 2 == 0])
def test_cells_are_closed_under_conjugation_and_unit_twists(row, request, monkeypatch):
    # The group the enumeration expands its tasks' cycles by, built from
    # public calls only: entrywise conjugation over Z[i] and Z[w], and for
    # even m the twist by every unit (over Z at odd m the group is trivial).
    # The image of each representative is a rotation or reflection of a
    # representative, that is, its canonical form is one.  A twist by u
    # after a rotation or reflection is that symmetry after the twist by u
    # or 1/u, so the whole cell is closed.
    search_on(row["kernels"][0], request, monkeypatch)
    ring, n = RINGS[row["ring"]], row["height"]
    reps = count_nonzero(ring, n).representatives
    closed = {v for rep in reps for v in dihedral_images(rep.entries)}
    maps = [] if ring is Z else [lambda c: Cycle(ring, [x.conjugate() for x in c.entries])]
    if (n + 3) % 2 == 0:
        units = [x for x in candidate_entries(ring, 1) if ring.norm_sq(x) == 1]
        assert len(units) == {"Z": 2, "Zi": 4, "Zzeta6": 6}[ring.tag]
        maps += [lambda c, u=u: scale_alternating(c, u) for u in units]
    for rep in reps:
        for g in maps:
            assert g(rep).entries in closed, rep


@pytest.mark.parametrize("ring,n", [(Z, 1), (Zi, 1), (Z, 5), (Zi, 2)])
def test_jobs_never_exceed_tasks(ring, n, monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for a process pool: records its size, maps in-process."""

        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return list(map(fn, items))

    monkeypatch.setattr(enumeration, "get_context",
                        lambda method: SimpleNamespace(Pool=SerialPool))
    run = record_tasks(monkeypatch)
    serial = enumerate_nonzero(ring, n, jobs=1)
    tasks = len(run)
    assert sizes == []
    assert enumerate_nonzero(ring, n, jobs=2) == serial
    assert enumerate_nonzero(ring, n, jobs=tasks + 6) == serial
    assert count_nonzero(ring, n, jobs=tasks + 6) == count_nonzero(ring, n, jobs=1)
    assert len(run) == 5 * tasks
    # a single task runs in this process, with no pool
    assert sizes == [size for size in (min(2, tasks), tasks, tasks) if size > 1]


def test_height_above_kernel_depth_is_a_usage_error(monkeypatch):
    def no_candidates(ring, n):
        raise AssertionError(f"candidates built for height {n}")

    monkeypatch.setattr(enumeration, "candidate_entries", no_candidates)
    with pytest.raises(UsageError, match="at most 16"):
        enumerate_nonzero(Z, 17)


def test_worker_count_does_not_change_output():
    lone = enumerate_nonzero(Zi, 2, jobs=1)
    team = enumerate_nonzero(Zi, 2, jobs=4)
    assert [c.entries for c in lone] == [c.entries for c in team]


def test_output_is_sorted_and_duplicate_free():
    for ring, n in ((Z, 3), (Zi, 2)):
        cycles = enumerate_nonzero(ring, n)
        keys = [tuple(ring.sort_key(x) for x in c.entries) for c in cycles]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("row", [
    pytest.param(row, id=f"{row['height']}-{row['total']}")
    for row in CELLS if "Conway-Coxeter" in row["checked_by"]])
def test_z_cells_are_the_conway_coxeter_cycles(row, request, monkeypatch):
    # The paper's model generalises Conway-Coxeter theory; that the nonzero
    # integer friezes of height n are exactly the triangle-count cycles of
    # the triangulated (n+3)-gon, together with their negatives when n+3 is
    # even, is an observed identity, checked here on every row that names
    # it.  A row run on the compiled kernel alone is checked there.
    search_on(row["kernels"][0], request, monkeypatch)
    n = row["height"]
    m = n + 3
    cc = {cc_quiddity(tri).entries for tri in enumerate_triangulations(m)}
    if m % 2 == 0:
        cc |= {tuple(-c for c in entries) for entries in cc}
    confirm_row(Z, n, cc)


def test_dihedral_closure():
    for ring, n in ((Z, 3), (Zi, 2), (Zzeta6, 1)):
        found = {c.entries for c in enumerate_nonzero(ring, n)}
        for entries in found:
            c = Cycle(ring, entries)
            for s in range(c.m):
                assert rotate(c, s).entries in found
            assert reverse(c).entries in found


def test_orbits_partition_the_set():
    for ring, n in ((Z, 3), (Zi, 2)):
        result = count_nonzero(ring, n)
        found = {c.entries for c in enumerate_nonzero(ring, n)}
        m = n + 3
        orbits = [{v[s:] + v[:s] for v in (r.entries, r.entries[::-1]) for s in range(m)}
                  for r in result.representatives]
        # the orbits cover the set, and their sizes add up to its size only
        # when no two of them meet
        assert set().union(*orbits) == found
        assert sum(map(len, orbits)) == result.total == len(found)
        assert all((2 * m) % len(orbit) == 0 for orbit in orbits)


def test_canonical_form_is_orbit_invariant():
    c = Cycle(Z, (2, 1, 2, 1))
    assert canonical_form(c).entries == (1, 2, 1, 2)
    for ring, n in ((Z, 3), (Zi, 1)):
        for cycle in enumerate_nonzero(ring, n):
            canon = canonical_form(cycle)
            assert canonical_form(canon) == canon
            for s in range(cycle.m):
                assert canonical_form(rotate(cycle, s)) == canon
            assert canonical_form(reverse(cycle)) == canon


def test_representatives_are_canonical():
    result = count_nonzero(Z, 3)
    for rep in result.representatives:
        assert canonical_form(rep) == rep


def test_result_validates_counts():
    with pytest.raises(UsageError):
        EnumerationResult(Z, 1, 1, 2, (Cycle(Z, (1, 2, 1, 2)),))


def test_unit_family_cycle_shapes():
    assert unit_family_cycle(Z, 1, 1).entries == (1, 2, 1, 2)
    assert unit_family_cycle(Z, 1, 2).entries == (2, 1, 2, 1)
    assert unit_family_cycle(Z, 2, 1).entries == (2, 1, 3, 1, 2)
    assert unit_family_cycle(Z, 3, 1).entries == (3, 1, 2, 3, 1, 2)
    assert unit_family_cycle(Z, 3, 2).entries == (4, 1, 2, 2, 2, 1)
    assert unit_family_cycle(Z, 5, -2).entries == (2, 1, 2, 2, 2, 0, -2, -1)


def test_unit_family_cycle_exactness():
    with pytest.raises(NotRepresentableError):
        unit_family_cycle(Z, 2, 3)
    with pytest.raises(UsageError):
        unit_family_cycle(Z, 0, 1)


def test_excluded_parameters_height_three():
    assert set(_excluded_parameters(Z, 3)) == {-1, -2, -4}
    assert _excluded_parameters(Z, 1) == []


def test_excluded_parameters_really_give_zeros():
    # the excluded t still give quiddity cycles, just not zero-free friezes
    for t in (-1, -2):
        cyc = unit_family_cycle(Z, 3, t)
        assert is_quiddity(cyc)
        assert not is_nonzero(frieze_from_cycle(cyc))
    for t in (1, 2):
        assert is_nonzero(frieze_from_cycle(unit_family_cycle(Z, 3, t)))


def test_unit_family_over_z_is_finite():
    ts = [t for t, _ in unit_family(Z, 1, 99)]
    assert sorted(ts) == [-2, -1, 1, 2]
    ts = [t for t, _ in unit_family(Z, 3, 99)]
    assert sorted(ts) == [1, 2]


def test_unit_family_check_survives_python_O(child_python):
    # with no parameter excluded, t = -1 gives a frieze with a zero, and
    # the certification must refuse it under -O too
    proc = child_python("-O", "-c", "from quiddity import enumeration\n"
                        "from quiddity.rings import Z\n"
                        "enumeration._excluded_parameters = lambda ring, n: []\n"
                        "print(enumeration.unit_family(Z, 3, 4))\n")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        "RuntimeError: the frieze of (1, 1, 2, -1, -1, -2) at parameter -1 has a zero")


def test_unit_family_over_fifth_cyclotomic():
    members = unit_family(Cyclotomic(5), 3, 10)
    assert len(members) == 10
    entries_seen = {cyc.entries for _, cyc in members}
    assert len(entries_seen) == 10
    ring = Cyclotomic(5)
    for t, cyc in members:
        assert cyc.m == 6
        assert cyc.entry(5) == t
        assert cyc.entry(5) * cyc.entry(6) == ring.from_int(2)


def test_cyclotomic_unit_families_are_pinned():
    # SHA-256 of every member of unit_family(Cyclotomic(d), n, 10), written
    # as "t:e1,e2,..." through str, over d in {5, 7, 8, 9, 12, 15} and
    # n = 1-6: the arithmetic of Z[zeta_d] may change, these outputs not
    digest = hashlib.sha256()
    for d in (5, 7, 8, 9, 12, 15):
        for n in range(1, 7):
            for t, cyc in unit_family(Cyclotomic(d), n, 10):
                line = str(t) + ":" + ",".join(str(e) for e in cyc.entries) + "\n"
                digest.update(line.encode())
    assert digest.hexdigest() == (
        "1c1a0f7d72d918124ddff8e6d23e4f5ee12e00263110722a0944ca37932127f7")


def test_unit_family_over_gaussian_rationals_is_pinned():
    members = [(str(t), [str(c) for c in cyc.entries]) for t, cyc in unit_family(Qi, 2, 3)]
    assert members == [("-i", ["1-i", "1", "1+2i", "-i", "2i"]),
                       ("i", ["1+i", "1", "1-2i", "i", "-2i"]),
                       ("1", ["2", "1", "3", "1", "2"])]


def test_search_guards():
    with pytest.raises(UnsupportedRingError):
        enumerate_nonzero(Q, 1)
    with pytest.raises(UsageError):
        enumerate_nonzero(Z, 0)
    with pytest.raises(UsageError, match="jobs must be at least 1"):
        count_nonzero(Z, 2, jobs=0)
    with pytest.raises(UsageError):
        unit_family(Z, 1, -1)


@pytest.mark.parametrize("fn, args, kwargs", [
    (quiddity_bound, (1, 2.5), {}),
    (quiddity_bound, (0.1, 2), {}),
    (quiddity_bound, (1, True), {}),
    (count_nonzero, (Z, 2.5), {}),
    (count_nonzero, (Z, True), {}),
    (count_nonzero, (Z, 2), {"jobs": 1.5}),
    (count_nonzero, (Z, 2), {"jobs": True}),
    (unit_family, (Z, 2.5, 3), {}),
    (unit_family, (Z, 3, 2.5), {}),
    (unit_family, (Z, 3, True), {}),
    (unit_family_cycle, (Z, 2.5, 1), {}),
])
def test_heights_and_counts_must_be_ints(fn, args, kwargs):
    with pytest.raises(UsageError):
        fn(*args, **kwargs)


def test_active_kernel_reports_a_kind():
    assert active_kernel() in ("pure", "compiled")
