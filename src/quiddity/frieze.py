"""Frieze patterns: generation from quiddity cycles and window verification.

A FriezePattern stores one fundamental period of the pattern generated by a
quiddity cycle (c_1, ..., c_m): row i holds the entries c_{i,j} for
j = i, ..., i+m, where

    c_{i,i} = 0 and c_{i,i+1} = 1 are the declared border,
    c_{i,j} for i+2 <= j <= i+m-2 is the interior band (n = m-3 entries), and
    c_{i,i+m-1} = 1, c_{i,i+m} = 0 close the row.

Interior entries are continuants: c_{i,j} is the top-left entry of the matrix
product over the window c_i .. c_{j-2}.  The closing 1 and 0 of rows 1 and 2
are computed from that same formula, and a row that does not close with them
rejects the cycle: that test is the quiddity test itself.  Every other entry
is computed once, up to the middle of its row, and the rest of the period is
read off the glide symmetry c_{i,j} = c_{j,i+m} (see `frieze_from_cycle`).
The whole array repeats with c_{i,j} = c_{i+m,j+m}.

"Non-zero" always refers to the interior band only; the structural border 0s
and 1s never count.  Degenerate cycles are allowed: m = 2 gives height -1
(border rows only) and m = 3 height 0.

A FriezeWindow is any staircase-shaped finite array (rows plus per-row start
columns).  verify() checks the two defining determinant conditions on every
complete adjacent 2x2 (determinant 1) and 3x3 (determinant 0) submatrix; a 3x3
block whose four 2x2 minors are 1 and whose centre is nonzero has determinant 0
by the Desnanot-Jacobi identity, so only the other blocks are expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from quiddity.cycles import Cycle
from quiddity.errors import InvalidCycleError, UsageError
from quiddity.rings import Ring, _check_int

__all__ = [
    "FriezePattern",
    "FriezeWindow",
    "VerifyReport",
    "frieze_from_cycle",
    "verify",
    "zero_positions",
    "is_nonzero",
]


@dataclass(frozen=True)
class FriezePattern:
    """One period of the tame frieze pattern of a quiddity cycle."""

    cycle: Cycle
    rows: tuple  # rows[i-1][j-i] = c_{i,j} for j = i .. i+m

    @property
    def ring(self) -> Ring:
        return self.cycle.ring

    @property
    def m(self) -> int:
        return self.cycle.m

    @property
    def height(self) -> int:
        return self.cycle.m - 3

    def entry(self, i: int, j: int):
        """c_{i,j}, using periodicity c_{i,j} = c_{i+m,j+m} to normalize i."""
        _check_int(i, "a row index")
        _check_int(j, "a column index")
        m = self.m
        shift = (i - 1) // m
        i -= shift * m
        j -= shift * m
        if not i <= j <= i + m:
            raise UsageError(f"({i}, {j}) lies outside the stored period")
        return self.rows[i - 1][j - i]

    def window(self, row_start: int = 1, row_count: int | None = None) -> "FriezeWindow":
        """Materialize rows row_start .. row_start+row_count-1 as a window."""
        _check_int(row_start, "the first row")
        if row_count is None:
            row_count = self.m
        if _check_int(row_count, "the row count") < 0:
            raise UsageError(f"the row count must be at least 0, got {row_count}")
        offsets = tuple(range(row_start, row_start + row_count))
        return FriezeWindow(self.ring, tuple([self.rows[(i - 1) % self.m] for i in offsets]),
                            offsets)


@dataclass(frozen=True)
class FriezeWindow:
    """A finite staircase array: rows[r] starts at column offsets[r]."""

    ring: Ring
    rows: tuple
    offsets: tuple

    def __post_init__(self):
        if not isinstance(self.rows, (tuple, list)) or not isinstance(self.offsets, (tuple, list)):
            raise UsageError("a window's rows and offsets are tuples or lists")
        if len(self.rows) != len(self.offsets):
            raise UsageError("one offset per row required")
        for off in self.offsets:
            if type(off) is not int:
                raise UsageError(f"a row offset is an integer column, got {off!r}")
        for row in self.rows:
            if not isinstance(row, (tuple, list)):
                raise UsageError(f"a window row is a tuple or list of entries, got {row!r}")
            for x in row:
                self.ring.check_element(x)

    def render(self) -> str:
        """ASCII staircase with aligned columns."""
        cols = {}
        for r, row in enumerate(self.rows):
            for k, x in enumerate(row):
                cols.setdefault(self.offsets[r] + k, []).append(str(x))
        if not cols:
            return ""
        lo, hi = min(cols), max(cols)
        width = {c: max((len(s) for s in cols.get(c, [""])), default=0) for c in range(lo, hi + 1)}
        lines = []
        for row, off in zip(self.rows, self.offsets):
            parts = []
            for c in range(lo, hi + 1):
                x = str(row[c - off]) if off <= c < off + len(row) else ""
                parts.append(x.rjust(width[c]))
            lines.append(" ".join(parts).rstrip())
        return "\n".join(lines)


@dataclass(frozen=True)
class VerifyReport:
    sl2_ok: bool
    tame_ok: bool
    failures: tuple = field(default_factory=tuple)
    # failures: ("sl2" | "tame", row_index, column) top-left positions


def frieze_from_cycle(cycle: Cycle) -> FriezePattern:
    """Generate the pattern; requires a quiddity cycle of length >= 2.

    Rows 1 and 2 come from the continuant recurrence in full, and a row
    that does not end in the closing 1, 0 rejects the cycle.  That is the
    quiddity test.  The product M_i = eta(c_i) ... eta(c_{i+m-1}) has
    top-right entry -K(c_{i+1} .. c_{i+m-1}) and bottom row
    (K(c_i .. c_{i+m-2}), -K(c_{i+1} .. c_{i+m-2})), all read off rows i
    and i+1.  If both rows close, M_1 = -I: its top-left
    K(c_1 .. c_m) is c_m * 0 - 1.

    Every other row is computed only up to column k = m // 2; the rest is
    the glide symmetry c_{i,j} = c_{j,i+m}.  Once M_1 = -I, every rotation
    M_a is -I too.  Split M_{a+1} = A B with A = eta(c_{a+1}) ...
    eta(c_b); then B = -A^{-1}, and the bottom-left entries of the two
    sides give K(c_{a+1} .. c_{b-1}) = K(c_{b+1} .. c_{a+m-1}) over any
    commutative ring.  So column k of the period is column m - k rotated
    by k, and the columns above m // 2 are slices of those below.
    """
    ring = cycle.ring
    m = cycle.m
    if m < 2:
        raise InvalidCycleError("need length >= 2")
    zero, one = ring.zero, ring.one
    # c_k at entries[k - 1] for k <= 2m; a list, because CPython 3.11 keeps
    # every freed tuple of length 20 in a free list that it never draws from
    entries = list(cycle.entries) * 2
    half = m // 2
    heads = []  # heads[i][k] = rows[i][k] for k <= half
    for i in range(m):
        row = [zero, one]
        prev2, prev = zero, one
        for c in entries[i: i + (m - 1 if i < 2 else half - 1)]:
            prev2, prev = prev, prev * c - prev2
            row.append(prev)
        if i < 2:
            if row[m - 1] != one or row[m] != zero:
                raise InvalidCycleError(f"not a quiddity cycle: {cycle}")
            del row[half + 1:]
        heads.append(row)
    cols = list(zip(*heads))
    for k in range(half + 1, m + 1):
        col = cols[m - k]  # rows[i][k] = rows[(i + k) % m][m - k]
        cols.append(col[k:] + col[:k])
    # tuple() of a list, not of the zip: see `Cycle.__init__` on free lists
    return FriezePattern(cycle, tuple(list(zip(*cols))))


def verify(window: FriezeWindow) -> VerifyReport:
    """Check determinant 1 on all complete adjacent 2x2 submatrices and
    determinant 0 on all complete adjacent 3x3 submatrices.

    Blocks are read by index over the columns where all their rows are
    present.  A 3x3 block D with centre e and adjacent 2x2 minors TL, TR,
    BL, BR satisfies det(D) e = TL BR - TR BL (Desnanot-Jacobi).  Every
    ring here is a subring of C and has no zero divisors, so when all
    four minors are 1 and e is not 0, det(D) = 0 and the block needs no
    expansion.  Every other block is expanded along its top row.
    Failures list every "sl2" position, then every "tame" one, each by
    row, then column.
    """
    one, zero = window.ring.one, window.ring.zero
    rows, offsets = window.rows, window.offsets
    ends = [off + len(row) for off, row in zip(offsets, rows)]
    sl2, tame = [], []
    off_one = []  # off_one[r]: columns c where rows r, r+1 at c, c+1 have det != 1
    for r in range(len(rows) - 1):
        top, bottom = rows[r], rows[r + 1]
        o, p = offsets[r], offsets[r + 1]
        bad = set()
        for c in range(max(o, p), min(ends[r], ends[r + 1]) - 1):
            if top[c - o] * bottom[c + 1 - p] - top[c + 1 - o] * bottom[c - p] != one:
                sl2.append(("sl2", r, c))
                bad.add(c)
        off_one.append(bad)
    for r in range(len(rows) - 2):
        top, middle, bottom = rows[r], rows[r + 1], rows[r + 2]
        o, p, q = offsets[r: r + 3]
        near = off_one[r] | off_one[r + 1]
        for c in range(max(o, p, q), min(ends[r: r + 3]) - 2):
            if middle[c + 1 - p] != zero and c not in near and c + 1 not in near:
                continue
            m0, m1, m2 = middle[c - p], middle[c + 1 - p], middle[c + 2 - p]
            b0, b1, b2 = bottom[c - q], bottom[c + 1 - q], bottom[c + 2 - q]
            det = (top[c - o] * (m1 * b2 - m2 * b1)
                   - top[c + 1 - o] * (m0 * b2 - m2 * b0)
                   + top[c + 2 - o] * (m0 * b1 - m1 * b0))
            if det != zero:
                tame.append(("tame", r, c))
    return VerifyReport(not sl2, not tame, tuple(sl2 + tame))


def zero_positions(f: FriezePattern) -> set:
    """Interior positions (i, j), i+2 <= j <= i+m-2, holding a zero."""
    zero = f.ring.zero
    out = set()
    for i in range(1, f.m + 1):
        for j in range(i + 2, i + f.m - 1):
            if f.rows[i - 1][j - i] == zero:
                out.add((i, j))
    return out


def is_nonzero(f: FriezePattern) -> bool:
    """True iff every interior entry is nonzero (borders never count)."""
    return not zero_positions(f)
