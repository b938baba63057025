"""Frieze generation against the displayed example arrays, plus window checks."""

import random
from fractions import Fraction

import pytest

from quiddity.cycles import Cycle, is_quiddity
from quiddity.errors import InvalidCycleError, UsageError
from quiddity.frieze import (
    FriezeWindow,
    VerifyReport,
    frieze_from_cycle,
    is_nonzero,
    verify,
    zero_positions,
)
from quiddity.rings import (
    Cyclotomic,
    EisensteinInt,
    GaussianInt,
    GaussianRational,
    Q,
    Qi,
    Z,
    Zi,
    Zzeta6,
)


def interior_rows(f):
    m = f.m
    return [list(f.rows[i][2:m - 1]) for i in range(m)]


HEXAGON_ROWS = [
    [1, 3, 2],
    [4, 3, 2],
    [1, 1, 1],
    [2, 3, 4],
    [2, 3, 1],
    [2, 1, 2],
]


def test_hexagon_array():
    f = frieze_from_cycle(Cycle(Z, (1, 4, 1, 2, 2, 2)))
    assert interior_rows(f) == HEXAGON_ROWS
    assert is_nonzero(f)


def test_gaussian_period6_array():
    G = GaussianInt
    f = frieze_from_cycle(
        Cycle(Zi, (G(1, -1), G(1, 1), G(2), G(1, -1), G(1, 1), G(2)))
    )
    want = [
        [G(1, -1), G(1), G(1, 1)],
        [G(1, 1), G(1, 2), G(2)],
        [G(2), G(1, -2), G(1, -1)],
    ]
    assert interior_rows(f) == want + want
    assert is_nonzero(f)


def test_octagon_pair_arrays():
    f1 = frieze_from_cycle(Cycle(Z, (1, 3, 2, 2, 2, 1, 5, 2)))
    assert interior_rows(f1) == [
        [1, 2, 3, 4, 5],
        [3, 5, 7, 9, 2],
        [2, 3, 4, 1, 1],
        [2, 3, 1, 2, 3],
        [2, 1, 3, 5, 2],
        [1, 4, 7, 3, 2],
        [5, 9, 4, 3, 2],
        [2, 1, 1, 1, 1],
    ]
    f2 = frieze_from_cycle(Cycle(Z, (-1, 3, 0, -2, 2, 1, 3, 0)))
    assert interior_rows(f2) == [
        [-1, -4, 1, 2, 3],
        [3, -1, -1, -1, 0],
        [0, -1, -2, -1, -1],
        [-2, -5, -3, -4, 3],
        [2, 1, 1, -1, 0],
        [1, 2, -1, -1, -2],
        [3, -1, -2, -5, 2],
        [0, -1, -3, 1, 1],
    ]
    assert is_nonzero(f1)
    assert not is_nonzero(f2)


def test_all_zero_hexagon_array():
    f = frieze_from_cycle(Cycle(Z, (0,) * 6))
    assert interior_rows(f) == [[0, -1, 0]] * 6
    # zeros sit at distance 2 and 4 from the diagonal in every row
    assert zero_positions(f) == {(i, i + 2) for i in range(1, 7)} | \
        {(i, i + 4) for i in range(1, 7)}


def test_first_diagonal_is_the_quiddity():
    c = Cycle(Z, (1, 3, 2, 2, 2, 1, 5, 2))
    f = frieze_from_cycle(c)
    for i in range(1, 9):
        assert f.entry(i, i + 2) == c.entry(i)


def test_entry_periodicity():
    f = frieze_from_cycle(Cycle(Z, (1, 4, 1, 2, 2, 2)))
    for i in range(1, 7):
        for j in range(i, i + 7):
            assert f.entry(i, j) == f.entry(i + 6, j + 6)
            assert f.entry(i, j) == f.entry(i - 6, j - 6)
    with pytest.raises(UsageError):
        f.entry(1, 9)


@pytest.mark.parametrize("i, j", [(1.0, 3), (1, "3"), (True, 3), (None, 3)])
def test_entry_needs_int_indices(i, j):
    f = frieze_from_cycle(Cycle(Z, (1, 4, 1, 2, 2, 2)))
    with pytest.raises(UsageError, match="must be an integer"):
        f.entry(i, j)


def test_degenerate_heights():
    f2 = frieze_from_cycle(Cycle(Z, (0, 0)))
    assert f2.height == -1
    f3 = frieze_from_cycle(Cycle(Z, (1, 1, 1)))
    assert f3.height == 0
    assert interior_rows(f3) == [[], [], []]


def test_frieze_rejects_non_quiddity():
    with pytest.raises(InvalidCycleError):
        frieze_from_cycle(Cycle(Z, (1, 2, 3)))
    with pytest.raises(InvalidCycleError):
        frieze_from_cycle(Cycle(Z, (5,)))
    # eta products +I: every row closes with -1, 0
    for entries in ((0, 0, 0, 0), (1,) * 6):
        with pytest.raises(InvalidCycleError):
            frieze_from_cycle(Cycle(Z, entries))


def test_verify_accepts_true_windows():
    f = frieze_from_cycle(Cycle(Z, (1, 4, 1, 2, 2, 2)))
    report = verify(f.window())
    assert report.sl2_ok and report.tame_ok and not report.failures
    report = verify(f.window(row_start=3, row_count=8))
    assert report.sl2_ok and report.tame_ok


def test_verify_flags_corruption():
    f = frieze_from_cycle(Cycle(Z, (1, 4, 1, 2, 2, 2)))
    rows = [list(r) for r in f.window().rows]
    rows[2][3] = 99
    bad = FriezeWindow(Z, tuple(tuple(r) for r in rows), f.window().offsets)
    report = verify(bad)
    assert not report.sl2_ok
    assert any(kind == "sl2" for kind, _, _ in report.failures)


def test_verify_checks_tameness():
    # all four adjacent 2x2 blocks have determinant 1 but the 3x3 does not
    # vanish; only possible with a zero center entry
    rows = ((1, 1, 1), (-1, 0, 1), (1, -1, 1))
    window = FriezeWindow(Z, rows, (1, 1, 1))
    report = verify(window)
    assert report.sl2_ok
    assert not report.tame_ok
    assert ("tame", 0, 1) in report.failures


def test_window_checks_offsets():
    rows = ((1, 2), (1,))
    for offsets in (("a", 2), (1, True), (1, 2.0), (None, 2)):
        with pytest.raises(UsageError, match="offset is an integer"):
            verify(FriezeWindow(Z, rows, offsets))
    with pytest.raises(UsageError, match="one offset per row"):
        FriezeWindow(Z, rows, (1,))


@pytest.mark.parametrize("args", [(2.5,), (1, 2.5), (True,), ("1",)])
def test_window_rows_must_be_ints(args):
    f = frieze_from_cycle(Cycle(Z, (1, 2, 2, 1, 3)))
    with pytest.raises(UsageError, match="must be an integer"):
        f.window(*args)


def test_window_render_is_a_staircase():
    f = frieze_from_cycle(Cycle(Z, (0, 0)))
    text = f.window().render()
    assert text.splitlines()[0].startswith("0 1")
    assert len(text.splitlines()) == 2


def window_cell(window: FriezeWindow, r: int, col: int):
    """The entry of row r at column col, or None where the row has none."""
    off = window.offsets[r]
    if off <= col < off + len(window.rows[r]):
        return window.rows[r][col - off]
    return None


def reference_verify(window: FriezeWindow) -> VerifyReport:
    """`verify` written cell by cell: every column of the rows' joint span,
    every block gathered entry by entry and skipped when an entry is
    missing, every determinant expanded in full."""

    def cell(r, col):
        return window_cell(window, r, col)

    ring = window.ring
    failures = []
    nrows = len(window.rows)
    for r in range(nrows - 1):
        lo = min(window.offsets[r], window.offsets[r + 1])
        hi = max(window.offsets[r] + len(window.rows[r]),
                 window.offsets[r + 1] + len(window.rows[r + 1]))
        for c in range(lo, hi):
            a, b, x, y = cell(r, c), cell(r, c + 1), cell(r + 1, c), cell(r + 1, c + 1)
            if None in (a, b, x, y):
                continue
            if a * y - b * x != ring.one:
                failures.append(("sl2", r, c))
    for r in range(nrows - 2):
        lo = min(window.offsets[r: r + 3])
        hi = max(window.offsets[rr] + len(window.rows[rr]) for rr in range(r, r + 3))
        for c in range(lo, hi):
            sub = [[cell(r + dr, c + dc) for dc in range(3)] for dr in range(3)]
            if any(x is None for row in sub for x in row):
                continue
            det = (sub[0][0] * (sub[1][1] * sub[2][2] - sub[1][2] * sub[2][1])
                   - sub[0][1] * (sub[1][0] * sub[2][2] - sub[1][2] * sub[2][0])
                   + sub[0][2] * (sub[1][0] * sub[2][1] - sub[1][1] * sub[2][0]))
            if det != ring.zero:
                failures.append(("tame", r, c))
    sl2_ok = not any(kind == "sl2" for kind, _, _ in failures)
    tame_ok = not any(kind == "tame" for kind, _, _ in failures)
    return VerifyReport(sl2_ok, tame_ok, tuple(failures))


def test_verify_matches_reference_on_ragged_windows():
    rng = random.Random(1511)
    for _ in range(3000):
        nrows = rng.randint(0, 6)
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 6)))
                     for _ in range(nrows))
        offsets = tuple(rng.randint(-2, 3) for _ in range(nrows))
        window = FriezeWindow(Z, rows, offsets)
        assert verify(window) == reference_verify(window)


ZZETA5 = Cyclotomic(5)
# a second generator per ring, so that random elements leave Z
GENERATORS = {Z: 2, Q: Fraction(1, 2), Qi: GaussianRational(0, 1), Zi: GaussianInt(0, 1),
              Zzeta6: EisensteinInt(0, 1), ZZETA5: ZZETA5.zeta}


def random_element(rng, ring):
    return ring.from_int(rng.randint(-2, 2)) + ring.from_int(rng.randint(-1, 1)) * GENERATORS[ring]


def glued_quiddity(rng, ring, m, zero_squares=False):
    """A quiddity cycle of length m over `ring`: blocks glued onto the 2-gon.

    A triangle s = +-1 on edge (p, p+1) turns sums (a, b) into
    (a+s, s, b+s); a square labelled x turns them into (a, x, 0, b-x) for
    any ring element x, x = 0 with `zero_squares`.  Each -1 triangle and
    each square flips the sign of the eta product, and the last triangle
    makes the flips even.
    """
    sums = [ring.zero, ring.zero]
    flips = 0
    while len(sums) < m:
        p = rng.randrange(len(sums))
        q = (p + 1) % len(sums)
        if len(sums) + 2 < m and rng.random() < 0.4:
            x = ring.zero if zero_squares else random_element(rng, ring)
            sums[q] = sums[q] - x
            sums[p + 1:p + 1] = [x, ring.zero]
            flips += 1
            continue
        if len(sums) + 1 == m:
            s = -1 if flips % 2 else 1
        else:
            s = rng.choice((1, -1))
            flips += s == -1
        s = ring.from_int(s)
        sums[p] = sums[p] + s
        sums[q] = sums[q] + s
        sums.insert(p + 1, s)
    cycle = Cycle(ring, sums)
    assert is_quiddity(cycle)
    return cycle


def unit_minor_zero_centres(window: FriezeWindow) -> int:
    """The 3x3 blocks whose four adjacent 2x2 minors are 1 and whose centre
    is 0: Desnanot-Jacobi leaves their determinant open, so `verify` must
    expand them."""
    one, zero = window.ring.one, window.ring.zero
    lo = min(window.offsets, default=0)
    hi = max((off + len(row) for off, row in zip(window.offsets, window.rows)), default=0)
    count = 0
    for r in range(len(window.rows) - 2):
        for c in range(lo, hi):
            sub = [[window_cell(window, r + dr, c + dc) for dc in range(3)] for dr in range(3)]
            if any(x is None for row in sub for x in row) or sub[1][1] != zero:
                continue
            count += all(sub[i][j] * sub[i + 1][j + 1] - sub[i][j + 1] * sub[i + 1][j] == one
                         for i in (0, 1) for j in (0, 1))
    return count


def test_verify_matches_reference_on_corrupted_friezes():
    rng = random.Random(1512)
    zero_centres = 0
    for k in range(360):
        ring = list(GENERATORS)[k % len(GENERATORS)]
        cycle = glued_quiddity(rng, ring, rng.randint(2, 9), zero_squares=k % 3 == 0)
        window = frieze_from_cycle(cycle).window(rng.randint(-2, 3), rng.randint(1, cycle.m + 3))
        rows = [list(row) for row in window.rows]
        for _ in range(rng.randint(0, 2)):
            r = rng.randrange(len(rows))
            rows[r][rng.randrange(len(rows[r]))] = random_element(rng, ring)
        corrupted = FriezeWindow(ring, tuple(map(tuple, rows)), window.offsets)
        assert verify(corrupted) == reference_verify(corrupted)
        zero_centres += unit_minor_zero_centres(corrupted)
    # the blocks the Desnanot-Jacobi shortcut must not skip are reached
    assert zero_centres >= 1


@pytest.mark.parametrize("ring", list(GENERATORS), ids=lambda r: r.tag)
def test_row_closure_is_the_quiddity_test(ring):
    rng = random.Random(1513)
    outcomes = set()
    for m in range(2, 8):
        for _ in range(8):
            entries = list(glued_quiddity(rng, ring, m).entries)
            if rng.random() < 0.6:
                k = rng.randrange(m)
                entries[k] = entries[k] + random_element(rng, ring)
            cycle = Cycle(ring, entries)
            quiddity = is_quiddity(cycle)
            outcomes.add(quiddity)
            if quiddity:
                f = frieze_from_cycle(cycle)
                assert all(row[m - 1] == ring.one and row[m] == ring.zero for row in f.rows)
            else:
                with pytest.raises(InvalidCycleError, match="not a quiddity cycle"):
                    frieze_from_cycle(cycle)
    assert outcomes == {True, False}


def reference_rows(cycle):
    """Every row of the period by its own continuant recurrence, with no
    symmetry: row i holds K(c_i .. c_{i+k-2}) for k = 0 .. m."""
    ring, m = cycle.ring, cycle.m
    rows = []
    for i in range(m):
        row = [ring.zero, ring.one]
        for k in range(m - 1):
            row.append(row[-1] * cycle.entries[(i + k) % m] - row[-2])
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("ring", list(GENERATORS), ids=lambda r: r.tag)
def test_frieze_matches_a_continuant_per_row(ring):
    rng = random.Random(1514)
    for m in range(2, 31):
        for zero_squares in (False, True):
            cycle = glued_quiddity(rng, ring, m, zero_squares)
            assert frieze_from_cycle(cycle).rows == reference_rows(cycle)
            entries = list(cycle.entries)
            k = rng.randrange(m)
            entries[k] = entries[k] + random_element(rng, ring)
            spoilt = Cycle(ring, entries)
            if is_quiddity(spoilt):
                assert frieze_from_cycle(spoilt).rows == reference_rows(spoilt)
            else:
                with pytest.raises(InvalidCycleError, match="not a quiddity cycle"):
                    frieze_from_cycle(spoilt)
