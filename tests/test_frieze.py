"""Frieze generation against the displayed example arrays, plus window checks."""

import pytest

from quiddity.cycles import Cycle
from quiddity.errors import InvalidCycleError, UsageError
from quiddity.frieze import (
    FriezeWindow,
    frieze_from_cycle,
    is_nonzero,
    verify,
    zero_positions,
)
from quiddity.rings import GaussianInt, Z, Zi


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


def test_window_render_is_a_staircase():
    f = frieze_from_cycle(Cycle(Z, (0, 0)))
    text = f.window().render()
    assert text.splitlines()[0].startswith("0 1")
    assert len(text.splitlines()) == 2
