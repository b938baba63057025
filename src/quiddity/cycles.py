"""The 2x2 matrix calculus behind frieze patterns.

Everything here revolves around the matrix

    eta(c) = [ c  -1 ]
             [ 1   0 ]

which has determinant 1 for any ring element c.  Interval products
M_{i,j} = eta(c_i) ... eta(c_j) over a cyclic sequence generate frieze rows; a
quiddity cycle is a sequence whose full product is minus the identity, and an
epsilon-cycle one whose full product is eps times the identity.

Products are accumulated by the running-product rule the search kernels use:
multiplying P = (P11, P12 / P21, P22) on the right by eta(c) gives
(P11*c + P12, -P11 / P21*c + P22, -P21), so no matrix is built per factor.

Cycles are 1-based and cyclic: entry(k) reduces k modulo the length, matching
the convention that c_{k+m} = c_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from quiddity.errors import UsageError
from quiddity.rings import Ring, _check_int

__all__ = [
    "Mat2",
    "Cycle",
    "eta",
    "identity",
    "product_interval",
    "full_product",
    "is_quiddity",
    "is_epsilon_cycle",
    "scalar_of_identity",
    "rotate",
    "reverse",
    "negate",
    "continuant",
]


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over a ring, stored entrywise."""

    a11: object
    a12: object
    a21: object
    a22: object

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)


@dataclass(frozen=True)
class Cycle:
    """A cyclic sequence (c_1, ..., c_m) of elements of one ring, m >= 1."""

    ring: Ring
    entries: tuple

    def __init__(self, ring: Ring, entries: Iterable):
        # from a list, not a generator: tuple(generator) resizes the tuple it
        # grows, which strands tuples of other sizes in the interpreter's
        # free lists until a full garbage collection
        checked = tuple(_checked(ring, entries))
        if not checked:
            raise UsageError("a cycle needs at least one entry")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", checked)

    @classmethod
    def _computed(cls, ring: Ring, entries: tuple) -> "Cycle":
        """A cycle of `entries`, a nonempty tuple computed by ring operations
        from checked elements of `ring` and checked parameters, so elements
        of `ring` already: `__init__`'s per-entry check is skipped."""
        cycle = object.__new__(cls)
        object.__setattr__(cycle, "ring", ring)
        object.__setattr__(cycle, "entries", entries)
        return cycle

    @property
    def m(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, k: int):
        """1-based cyclic access: entry(k) = c_k with c_{k+m} = c_k."""
        return self.entries[(_check_int(k, "a cycle position") - 1) % len(self.entries)]

    def __repr__(self) -> str:
        return f"Cycle({self.ring.tag}, {list(self.entries)!r})"

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


def eta(ring: Ring, c) -> Mat2:
    """The determinant-1 matrix [[c, -1], [1, 0]]."""
    c = ring.check_element(c)
    one = ring.one
    return Mat2(c, -one, one, ring.zero)


def identity(ring: Ring) -> Mat2:
    return Mat2(ring.one, ring.zero, ring.zero, ring.one)


def product_interval(cycle: Cycle, i: int, j: int) -> Mat2:
    """Left-to-right product eta(c_i) eta(c_{i+1}) ... eta(c_j).

    Indices are cyclic; j is lifted by the least multiple of m that makes
    j >= i - 1, and j = i - 1 gives the empty product (the identity).  Of
    the j - i + 1 = q*m + r factors, q whole periods from c_i make the
    period's product to the power q, taken by repeated squaring, so a large
    j costs O(log j) products; the last r entries follow it.
    """
    i, j = _check_int(i, "a cycle position"), _check_int(j, "a cycle position")
    m = cycle.m
    q, r = divmod(j - i + 1, m)
    if q <= 1:  # one period at most; a negative q lifts j to i - 1 + r
        ring, entries = cycle.ring, cycle.entries
        count = m + r if q == 1 else r
        return Mat2(*_eta_product([entries[k % m] for k in range(i - 1, i - 1 + count)],
                                  ring.one, ring.zero))
    power, out = product_interval(cycle, i, i - 1 + m), product_interval(cycle, i, i - 1 + r)
    while True:
        if q & 1:
            out = power * out
        q >>= 1
        if not q:
            return out
        power = power * power


def _prechecked(cls, **fields):
    """An instance of the frozen dataclass `cls` with these fields and
    cached properties, without its `__init__` or `__post_init__`: the
    caller has made every check those make."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _eta_product(entries, one, zero) -> tuple:
    """eta(c_1) ... eta(c_k) of `entries` as (P11, P12, P21, P22), by the
    running-product rule; `one` and `zero` are the ring's."""
    p11, p12, p21, p22 = one, zero, zero, one
    for c in entries:
        p11, p12, p21, p22 = p11 * c + p12, -p11, p21 * c + p22, -p21
    return p11, p12, p21, p22


def full_product(cycle: Cycle) -> Mat2:
    return product_interval(cycle, 1, cycle.m)


def scalar_of_identity(mat: Mat2, ring: Ring):
    """The scalar s with mat = s * identity, or None if mat is not scalar."""
    if mat.a12 == ring.zero and mat.a21 == ring.zero and mat.a11 == mat.a22:
        return mat.a11
    return None


def is_quiddity(cycle: Cycle) -> bool:
    """True iff the full product is minus the identity."""
    return is_epsilon_cycle(cycle, -1)


def is_epsilon_cycle(cycle: Cycle, eps: int) -> bool:
    """True iff the full product is eps times the identity, eps in {+1, -1}."""
    if eps not in (1, -1):
        raise UsageError(f"eps must be +1 or -1, got {eps!r}")
    one, zero = cycle.ring.one, cycle.ring.zero
    e = one if eps == 1 else -one
    return _eta_product(cycle.entries, one, zero) == (e, zero, zero, e)


def rotate(cycle: Cycle, s: int = 1) -> Cycle:
    """Rotate by s: rotate(c, 1) = (c_m, c_1, ..., c_{m-1})."""
    m = cycle.m
    s = _check_int(s, "a rotation") % m
    return Cycle._computed(cycle.ring, cycle.entries[m - s:] + cycle.entries[:m - s])


def reverse(cycle: Cycle) -> Cycle:
    return Cycle._computed(cycle.ring, cycle.entries[::-1])


def negate(cycle: Cycle) -> Cycle:
    return Cycle._computed(cycle.ring, tuple([-e for e in cycle.entries]))


def continuant(ring: Ring, entries) -> object:
    """The continuant K(entries): K() = 1, K(c) = c, and
    K(c_1..c_k) = K(c_1..c_{k-1}) * c_k - K(c_1..c_{k-2}).

    This is exactly the top-left entry of eta(c_1) ... eta(c_k).
    """
    return _eta_product(_checked(ring, entries), ring.one, ring.zero)[0]


def _checked(ring: Ring, entries) -> list:
    """[ring.check_element(e) for e in entries]; `UsageError` when
    `entries` cannot be iterated."""
    try:
        return [ring.check_element(e) for e in entries]
    except TypeError:
        try:
            iter(entries)
        except TypeError:
            raise UsageError(f"entries are a sequence of ring elements, got {entries!r}") from None
        raise
