"""Local rewrites of eta-matrix products.

Each operation rewrites a short cyclic window of a cycle and is backed by an
exact 2x2 matrix identity.  The rules that insert or remove a 1 or a -1,
and contract_zero, return a SignedCycle carrying the sign, +1 or -1, by
which they multiply the product, +1 included (expand_one, contract_one).
The other rules return a plain Cycle: contract_uv, rescale_lambda and
shift_zero keep the product, and scale_alternating conjugates it.

Index bookkeeping after a contraction: surviving entries keep their original
cyclic order, and the result is based at the smallest surviving original
index.  A merged entry inherits the index of the rightmost window position it
replaces.

Every result is built from checked entries and checked parameters by ring
operations, so it skips `Cycle`'s per-entry check (`Cycle._computed`); a
parameter such as lam or u is checked before it is used.

Division never falls back to the fraction field: an inexact quotient in a
non-field ring raises NotRepresentableError, and a zero denominator raises
SingularError.  Callers switch rings explicitly if they want fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

from quiddity.cycles import Cycle
from quiddity.errors import (
    NotApplicableError,
    NotRepresentableError,
    SingularError,
    UsageError,
)
from quiddity.rings import Ring, _check_int

__all__ = [
    "SignedCycle",
    "expand_one",
    "contract_one",
    "expand_minus_one",
    "contract_minus_one",
    "contract_uv",
    "rescale_lambda",
    "contract_zero",
    "shift_zero",
    "conjugate_diag",
    "scale_alternating",
]


@dataclass(frozen=True)
class SignedCycle:
    """A cycle together with the scalar relating its product to the input's.

    Meaning: product(cycle.entries) == sign * product(original entries).
    """

    cycle: Cycle
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise UsageError(f"sign must be +1 or -1, got {self.sign}")


def _norm_k(cycle: Cycle, k: int) -> int:
    """Cyclic position as 1..m, checked to be an int."""
    return (_check_int(k, "a cycle position") - 1) % cycle.m + 1


def _div(ring: Ring, x, y):
    if y == ring.zero:
        raise SingularError("division by zero in transform")
    q = ring.exact_div(x, y)
    if q is None:
        raise NotRepresentableError(f"{x} / {y} is not exact in {ring.tag}")
    return q


def _insert(cycle: Cycle, k: int, value, delta) -> Cycle:
    # insert `value` in the gap between positions k and k+1, adding `delta`
    # to both gap neighbors; k = m wraps, appending `value` after c_m
    m = cycle.m
    if m < 2:
        raise NotApplicableError("need two distinct gap neighbors")
    k = _norm_k(cycle, k)
    mod = list(cycle.entries)
    mod[k - 1] = mod[k - 1] + delta
    mod[k % m] = mod[k % m] + delta
    mod.insert(k, value)
    return Cycle._computed(cycle.ring, tuple(mod))


def _contract_unit(cycle: Cycle, k: int, s: int) -> SignedCycle:
    # drop the entry s = +-1 at position k, subtracting s from both cyclic
    # neighbors; the product is multiplied by s
    k = _norm_k(cycle, k)
    unit = cycle.ring.one if s == 1 else -cycle.ring.one
    if cycle.entries[k - 1] != unit:
        raise NotApplicableError(f"entry {k} is {cycle.entries[k - 1]}, not {s}")
    if cycle.m < 3:
        raise NotApplicableError("need two distinct neighbors to adjust")
    mod = list(cycle.entries)
    mod[k - 2] = mod[k - 2] - unit          # position k-1 (wraps to m)
    mod[k % cycle.m] = mod[k % cycle.m] - unit  # position k+1 (wraps to 1)
    del mod[k - 1]
    return SignedCycle(Cycle._computed(cycle.ring, tuple(mod)), s)


def expand_one(cycle: Cycle, k: int) -> SignedCycle:
    """Insert a 1 in the gap (k, k+1), adding 1 to both neighbors.

    Product is unchanged: eta(a+1) eta(1) eta(b+1) = eta(a) eta(b).
    """
    one = cycle.ring.one
    return SignedCycle(_insert(cycle, k, one, one), 1)


def contract_one(cycle: Cycle, k: int) -> SignedCycle:
    """Remove an entry equal to 1, subtracting 1 from both neighbors."""
    return _contract_unit(cycle, k, 1)


def expand_minus_one(cycle: Cycle, k: int) -> SignedCycle:
    """Insert a -1 in the gap (k, k+1), subtracting 1 from both neighbors.

    Negates the product: eta(a-1) eta(-1) eta(b-1) = -eta(a) eta(b).
    """
    one = cycle.ring.one
    return SignedCycle(_insert(cycle, k, -one, -one), -1)


def contract_minus_one(cycle: Cycle, k: int) -> SignedCycle:
    """Remove an entry equal to -1, adding 1 to both neighbors; negates the
    product."""
    return _contract_unit(cycle, k, -1)


def contract_uv(cycle: Cycle, k: int) -> Cycle:
    """Collapse the window (a, u, v, b) at positions k-1..k+2 to three
    entries (a + (1-v)/w, w, b + (1-u)/w) with w = uv - 1.

    The product is unchanged.  w = 0 is singular; inexact quotients in a
    non-field ring are not representable.
    """
    ring = cycle.ring
    if cycle.m < 4:
        raise NotApplicableError("window needs four distinct positions")
    k = _norm_k(cycle, k)
    m = cycle.m
    u = cycle.entries[k - 1]
    v = cycle.entries[k % m]
    w = u * v - ring.one
    da = _div(ring, ring.one - v, w)
    db = _div(ring, ring.one - u, w)
    mod = list(cycle.entries)
    mod[k - 2] = mod[k - 2] + da          # a at position k-1
    mod[(k + 1) % m] = mod[(k + 1) % m] + db  # b at position k+2
    mod[k % m] = w                        # merged entry at position k+1
    del mod[k - 1]
    return Cycle._computed(ring, tuple(mod))


def rescale_lambda(cycle: Cycle, k: int, lam) -> Cycle:
    """Rewrite the window (a, u, v, b) at positions k-1..k+2 as
    (a + (1/lam - 1)v/w, lam*u, v/lam, b + (lam - 1)u/w), w = uv - 1.

    The product is unchanged.  lam = 0 or w = 0 is singular.
    """
    ring = cycle.ring
    lam = ring.check_element(lam)
    if lam == ring.zero:
        raise SingularError("scale factor must be nonzero")
    if cycle.m < 4:
        raise NotApplicableError("window needs four distinct positions")
    k = _norm_k(cycle, k)
    m = cycle.m
    u = cycle.entries[k - 1]
    v = cycle.entries[k % m]
    w = u * v - ring.one
    if w == ring.zero:
        raise SingularError("uv = 1 makes the window singular")
    # (1/lam - 1) v / w == (1 - lam) v / (lam w), kept as one exact division
    da = _div(ring, (ring.one - lam) * v, lam * w)
    db = _div(ring, (lam - ring.one) * u, w)
    mod = list(cycle.entries)
    mod[k - 2] = mod[k - 2] + da
    mod[(k + 1) % m] = mod[(k + 1) % m] + db
    mod[k - 1] = lam * u
    mod[k % m] = _div(ring, v, lam)
    return Cycle._computed(ring, tuple(mod))


def contract_zero(cycle: Cycle, k: int) -> SignedCycle:
    """Collapse (a, 0, b) at positions k-1..k+1 to the single entry a + b.

    Negates the product: eta(a) eta(0) eta(b) = -eta(a + b).  The merged
    entry inherits index k+1; positions k-1 and k are removed.
    """
    ring = cycle.ring
    k = _norm_k(cycle, k)
    if cycle.entries[k - 1] != ring.zero:
        raise NotApplicableError(f"entry {k} is {cycle.entries[k - 1]}, not 0")
    if cycle.m < 3:
        raise NotApplicableError("result would be empty")
    m = cycle.m
    mod = list(cycle.entries)
    mod[k % m] = mod[k - 2] + mod[k % m]
    removed = {(k - 2) % m, k - 1}
    out = [mod[i] for i in range(m) if i not in removed]
    return SignedCycle(Cycle._computed(ring, tuple(out)), -1)


def shift_zero(cycle: Cycle, k: int, u) -> Cycle:
    """Slide weight across a zero: (a, 0, b) becomes (a+u, 0, b-u).

    The product is unchanged for any u.
    """
    ring = cycle.ring
    u = ring.check_element(u)
    k = _norm_k(cycle, k)
    if cycle.entries[k - 1] != ring.zero:
        raise NotApplicableError(f"entry {k} is {cycle.entries[k - 1]}, not 0")
    m = cycle.m
    mod = list(cycle.entries)
    mod[k - 2] = mod[k - 2] + u
    mod[k % m] = mod[k % m] - u
    return Cycle._computed(ring, tuple(mod))


def conjugate_diag(ring: Ring, window, z):
    """Conjugate the triple product eta(a) eta(u) eta(b) by diag(z, 1/z).

    Returns (a', u, b') with a' = a/z^2 - (1/z^2 - 1)/u and
    b' = z^2 b - (z^2 - 1)/u, so that
    diag(1/z, z) eta(a) eta(u) eta(b) diag(z, 1/z) = eta(a') eta(u) eta(b').

    This is a standalone window identity, not a cycle operation.
    """
    try:
        a, u, b = window
    except (TypeError, ValueError):
        raise UsageError(f"the window holds three entries (a, u, b), got {window!r}") from None
    a, u, b = ring.check_element(a), ring.check_element(u), ring.check_element(b)
    ring.check_element(z)
    if u == ring.zero or z == ring.zero:
        raise SingularError("u and z must be nonzero")
    z2 = z * z
    a2 = _div(ring, a, z2) - _div(ring, ring.one - z2, z2 * u)
    b2 = z2 * b - _div(ring, z2 - ring.one, u)
    return (a2, u, b2)


def scale_alternating(cycle: Cycle, t) -> Cycle:
    """Multiply odd positions by t and even positions by 1/t (m even).

    Conjugates the product by diag(t, 1), so a quiddity cycle stays one and
    its frieze keeps zeros in exactly the same positions.
    """
    ring = cycle.ring
    t = ring.check_element(t)
    if t == ring.zero:
        raise SingularError("scale factor must be nonzero")
    if cycle.m % 2 != 0:
        raise NotApplicableError("alternating scaling needs even length")
    # positions 1, 3, ... are the indices 0, 2, ... of `entries`
    out = [t * c if i % 2 == 0 else _div(ring, c, t) for i, c in enumerate(cycle.entries)]
    return Cycle._computed(ring, tuple(out))
