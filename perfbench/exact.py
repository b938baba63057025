"""The benchmark's own exact arithmetic, written apart from the package.

The checkers recompute what the program claims with these classes, so a
fault in `quiddity.rings` or `quiddity.cycles` cannot hide itself.  Elements
are plain ints or Fractions (Z, Q), or the two pair classes below (Z[i] and
Q(i) share `Gauss`; Z[w] with w^2 = w - 1 is `Eis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb


@dataclass(frozen=True)
class Gauss:
    """re + im*i with int or Fraction coordinates."""

    re: object
    im: object

    def __add__(self, o):
        o = _lift(o, Gauss)
        return Gauss(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = _lift(o, Gauss)
        return Gauss(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return _lift(o, Gauss) - self

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __mul__(self, o):
        o = _lift(o, Gauss)
        return Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __eq__(self, o):
        if isinstance(o, (int, Fraction)):
            o = Gauss(o, 0)
        return isinstance(o, Gauss) and self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def norm(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = Fraction(self.norm())
        return Gauss(self.re / n, -self.im / n)

    def order_key(self):
        return (self.norm(), self.re, self.im)


@dataclass(frozen=True)
class Eis:
    """a + b*w with w a primitive sixth root of unity (w^2 = w - 1)."""

    a: int
    b: int

    def __add__(self, o):
        o = _lift(o, Eis)
        return Eis(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, o):
        o = _lift(o, Eis)
        return Eis(self.a - o.a, self.b - o.b)

    def __rsub__(self, o):
        return _lift(o, Eis) - self

    def __neg__(self):
        return Eis(-self.a, -self.b)

    def __mul__(self, o):
        o = _lift(o, Eis)
        # (a1 + b1 w)(a2 + b2 w) = a1a2 + (a1b2 + b1a2) w + b1b2 (w - 1)
        return Eis(self.a * o.a - self.b * o.b,
                   self.a * o.b + self.b * o.a + self.b * o.b)

    __rmul__ = __mul__

    def __eq__(self, o):
        if isinstance(o, int):
            o = Eis(o, 0)
        return isinstance(o, Eis) and self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def norm(self):
        return self.a * self.a + self.a * self.b + self.b * self.b

    def order_key(self):
        # real part a + b/2, imaginary part b*sqrt(3)/2: (2a + b, b) orders alike
        return (self.norm(), 2 * self.a + self.b, self.b)


def _lift(x, cls):
    if isinstance(x, cls):
        return x
    return cls(x, 0)


def norm(x):
    """Squared absolute value of an int, Fraction, Gauss or Eis."""
    return x * x if isinstance(x, (int, Fraction)) else x.norm()


def inverse(x):
    """1/x for a nonzero Fraction or Gauss."""
    return 1 / Fraction(x) if isinstance(x, (int, Fraction)) else x.inverse()


def order_key(x):
    """Ascending norm, then real part, then imaginary part."""
    if isinstance(x, (int, Fraction)):
        return (x * x, x, 0)
    return x.order_key()


def eta_product(entries):
    """eta(c_1) ... eta(c_m) as a 4-tuple (p11, p12, p21, p22)."""
    p11, p12, p21, p22 = 1, 0, 0, 1
    for c in entries:
        # [p11 p12; p21 p22] [c -1; 1 0]
        p11, p12 = p11 * c + p12, -p11
        p21, p22 = p21 * c + p22, -p21
    return (p11, p12, p21, p22)


def is_minus_identity(prod) -> bool:
    p11, p12, p21, p22 = prod
    return p11 == -1 and p12 == 0 and p21 == 0 and p22 == -1


def is_quiddity(entries) -> bool:
    return is_minus_identity(eta_product(entries))


def continuant(entries):
    """K(c_1..c_k): K() = 1, K(c) = c, K(..c_k) = K(..c_{k-1}) c_k - K(..c_{k-2})."""
    prev2, prev = 0, 1
    for c in entries:
        prev2, prev = prev, prev * c - prev2
    return prev


def frieze_rows(entries):
    """rows[i][k] = c_{i+1, i+1+k} for k = 0..m: the continuant of the
    window c_{i+1} .. c_{i+k-1}, computed incrementally per row."""
    m = len(entries)
    rows = []
    for i in range(m):
        row = [0, 1]
        prev2, prev = 0, 1
        for k in range(m - 1):
            prev2, prev = prev, prev * entries[(i + k) % m] - prev2
            row.append(prev)
        rows.append(row)
    return rows


def frieze_is_zero_free(entries) -> bool:
    """Every cyclic window of 1..m-3 consecutive entries has a nonzero
    continuant (the interior band of the frieze)."""
    m = len(entries)
    return all(x != 0 for row in frieze_rows(entries) for x in row[2:m - 1])


def dihedral_orbit(entries) -> set:
    m = len(entries)
    rev = tuple(reversed(entries))
    out = set()
    for s in range(m):
        out.add(entries[s:] + entries[:s])
        out.add(rev[s:] + rev[:s])
    return out


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def triangulations(m: int) -> list:
    """Every triangulation of the convex m-gon (vertices 1..m), each as a
    sorted tuple of triangles, by choosing the apex over edge (1, m)."""
    def fill(a, b):
        if b - a < 2:
            return [()]
        out = []
        for c in range(a + 1, b):
            for left in fill(a, c):
                for right in fill(c, b):
                    out.append(((a, c, b),) + left + right)
        return out

    return [tuple(sorted(t)) for t in fill(1, m)]


def triangle_counts(m: int, triangles) -> tuple:
    """Per-vertex triangle counts: the Conway-Coxeter quiddity cycle."""
    counts = [0] * m
    for t in triangles:
        for v in t:
            counts[v - 1] += 1
    return tuple(counts)


def chords_cross(chords) -> bool:
    """Whether any two of the chords (i, j), i < j, cross, in O(k log k).

    Sorted by left end (longest first), non-crossing chords nest like
    brackets: a chord that starts inside the innermost open chord must also
    end inside it.
    """
    open_ends = []
    for i, j in sorted(chords, key=lambda d: (d[0], -d[1])):
        while open_ends and open_ends[-1] <= i:
            open_ends.pop()
        if open_ends and j > open_ends[-1]:
            return True
        open_ends.append(j)
    return False


def triangulation_problem(m: int, diagonals, triangles=None):
    """None when `diagonals` (and, if given, `triangles`) describe a
    triangulation of the convex m-gon, else a short reason."""
    diagonals = [tuple(d) for d in diagonals]
    if len(diagonals) != max(m - 3, 0) or len(set(diagonals)) != len(diagonals):
        return f"{len(diagonals)} distinct diagonals, want {max(m - 3, 0)}"
    for i, j in diagonals:
        if not (1 <= i < j <= m) or j - i < 2 or (i, j) == (1, m):
            return f"({i}, {j}) is no diagonal of the {m}-gon"
    if chords_cross(diagonals):
        return "two diagonals cross"
    if triangles is None:
        return None
    triangles = [tuple(sorted(t)) for t in triangles]
    if len(triangles) != max(m - 2, 0) or len(set(triangles)) != len(triangles):
        return f"{len(triangles)} distinct triangles, want {max(m - 2, 0)}"
    diag_set = set(diagonals)
    uses = {}
    for a, b, c in triangles:
        for side in ((a, b), (b, c), (a, c)):
            uses[side] = uses.get(side, 0) + 1
    for side, n in uses.items():
        edge = side[1] - side[0] == 1 or side == (1, m)
        if edge and n != 1 or not edge and (side not in diag_set or n != 2):
            return f"side {side} borders {n} triangles"
    if any(uses.get(d) != 2 for d in diagonals):
        return "a diagonal borders no triangle"
    return None
