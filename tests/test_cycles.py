"""Cycles, eta matrices and continuants.

The algebra here is small but load-bearing: the closed forms for products
of two and three eta matrices drive both the enumeration kernel and the
length-2/3 classification, so they get explicit checks.
"""

import random
from fractions import Fraction

import pytest

from quiddity.cycles import (
    Cycle,
    Mat2,
    continuant,
    eta,
    full_product,
    identity,
    is_epsilon_cycle,
    is_quiddity,
    negate,
    product_interval,
    reverse,
    rotate,
    scalar_of_identity,
)
from quiddity.errors import UsageError
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


def test_eta_shape():
    m = eta(Z, 5)
    assert (m.a11, m.a12, m.a21, m.a22) == (5, -1, 1, 0)
    assert m.det() == 1


def test_eta_pair_closed_form():
    rng = random.Random(7)
    for _ in range(200):
        c1, c2 = rng.randint(-9, 9), rng.randint(-9, 9)
        prod = eta(Z, c1) * eta(Z, c2)
        assert (prod.a11, prod.a12, prod.a21, prod.a22) == (c1 * c2 - 1, -c1, c2, -1)


def test_eta_triple_closed_form():
    rng = random.Random(8)
    for _ in range(200):
        a, u, b = (rng.randint(-9, 9) for _ in range(3))
        prod = eta(Z, a) * eta(Z, u) * eta(Z, b)
        assert prod.a11 == (a * u - 1) * b - a
        assert prod.a12 == -(a * u - 1)
        assert prod.a21 == u * b - 1
        assert prod.a22 == -u


def test_known_quiddity_cycles():
    assert is_quiddity(Cycle(Z, (0, 0)))
    assert is_quiddity(Cycle(Z, (1, 1, 1)))
    assert not is_quiddity(Cycle(Z, (1, 1)))
    assert not is_quiddity(Cycle(Z, (1, 1, 1, 1)))
    for c in (1, 2, -1, -2):
        assert is_quiddity(Cycle(Z, (c, 2 // c, c, 2 // c)))


def test_epsilon_cycles():
    assert is_epsilon_cycle(Cycle(Z, (0, 0)), -1)
    # eta(0)^4 is the identity
    assert is_epsilon_cycle(Cycle(Z, (0, 0, 0, 0)), 1)
    assert not is_epsilon_cycle(Cycle(Z, (0, 0, 0, 0)), -1)
    with pytest.raises(UsageError):
        is_epsilon_cycle(Cycle(Z, (0, 0)), 2)


def test_quiddity_invariant_under_rotation_and_reversal():
    base = Cycle(Z, (1, 4, 1, 2, 2, 2))
    assert is_quiddity(base)
    for s in range(6):
        assert is_quiddity(rotate(base, s))
    assert is_quiddity(reverse(base))


def test_rotate_convention():
    c = Cycle(Z, (1, 2, 3))
    assert rotate(c, 1).entries == (3, 1, 2)
    assert rotate(c, -1).entries == (2, 3, 1)
    assert rotate(c, 3).entries == c.entries


def test_negation_parity():
    """Negating all entries multiplies the product by (-1)^m up to conjugacy,
    so even length preserves quiddity and odd length flips the sign."""
    even = Cycle(Z, (1, 4, 1, 2, 2, 2))
    assert is_quiddity(negate(even))
    odd = Cycle(Z, (1, 1, 1))
    assert is_epsilon_cycle(negate(odd), 1)
    assert not is_quiddity(negate(odd))


def test_continuant_matches_matrix_entry():
    rng = random.Random(9)
    for _ in range(100):
        entries = [rng.randint(-5, 5) for _ in range(rng.randint(0, 7))]
        mat = identity(Z)
        for c in entries:
            mat = mat * eta(Z, c)
        assert continuant(Z, entries) == mat.a11


def test_product_interval_cyclic_indexing():
    c = Cycle(Z, (1, 4, 1, 2, 2, 2))
    assert product_interval(c, 1, 0) == identity(Z)
    assert product_interval(c, 5, 7) == \
        eta(Z, 2) * eta(Z, 2) * eta(Z, 1)
    assert full_product(c) == -identity(Z)
    # a j far below i is lifted in one step, not m at a time
    three = Cycle(Z, (1, 1, 1))
    assert product_interval(three, 1, -10 ** 15) == product_interval(three, 1, 2)
    # and a j far above i takes whole periods by squaring: (1, 1, 1) has
    # period product -1, so 10**15 = 3q + r entries give (-1)^q times r
    assert full_product(three) == -identity(Z)
    q, r = divmod(10 ** 15, 3)
    rest = product_interval(three, 1, r)
    assert product_interval(three, 1, 10 ** 15) == (-rest if q % 2 else rest)

    def loop_reference(c, i, j):
        lifted = j
        while lifted < i - 1:
            lifted += c.m
        ref = identity(Z)
        for k in range(i, lifted + 1):
            ref = ref * eta(Z, c.entry(k))
        return ref

    rng = random.Random("product_interval lift")
    for _ in range(500):
        m = rng.randint(1, 6)
        c = Cycle(Z, [rng.randint(-3, 3) for _ in range(m)])
        i, j = rng.randint(-15, 15), rng.randint(-40, 15)
        assert product_interval(c, i, j) == loop_reference(c, i, j)
    rng = random.Random("product_interval periods")
    for _ in range(500):
        m = rng.randint(1, 6)
        c = Cycle(Z, [rng.randint(-3, 3) for _ in range(m)])
        i = rng.randint(-15, 15)
        j = rng.randint(i - 1, i - 1 + 5 * m)
        assert product_interval(c, i, j) == loop_reference(c, i, j)


_ZETA5 = Cyclotomic(5)

# a random element of each ring, small enough that products stay readable
RANDOM_ELEMENT = {
    Z: lambda rng: rng.randint(-4, 4),
    Zi: lambda rng: GaussianInt(rng.randint(-3, 3), rng.randint(-3, 3)),
    Zzeta6: lambda rng: EisensteinInt(rng.randint(-3, 3), rng.randint(-3, 3)),
    Q: lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    Qi: lambda rng: GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                     Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
    _ZETA5: lambda rng: _ZETA5.element_from_json([rng.randint(-2, 2) for _ in range(4)]),
}


@pytest.mark.parametrize("ring", list(RANDOM_ELEMENT), ids=lambda r: r.tag)
def test_product_interval_matches_matrix_products(ring):
    # the reference multiplies eta matrices left to right with Mat2.__mul__
    rng = random.Random(f"product_interval {ring.tag}")
    for m in range(1, 8):
        for _ in range(3):
            cycle = Cycle(ring, [RANDOM_ELEMENT[ring](rng) for _ in range(m)])
            for i in range(1, m + 1):
                want = identity(ring)
                for length in range(m + 2):
                    j = i + length - 1
                    if length:
                        want = want * eta(ring, cycle.entry(j))
                    assert product_interval(cycle, i, j) == want
                    if length < m:
                        # j - m names the same end, wrapped below i
                        assert product_interval(cycle, i, j - m) == want


def test_full_product_has_det_one():
    rng = random.Random(10)
    for _ in range(50):
        entries = [rng.randint(-4, 4) for _ in range(rng.randint(1, 8))]
        assert full_product(Cycle(Z, entries)).det() == 1


def test_scalar_of_identity():
    assert scalar_of_identity(identity(Z), Z) == 1
    assert scalar_of_identity(-identity(Z), Z) == -1
    assert scalar_of_identity(Mat2(2, 0, 0, 2), Z) == 2
    assert scalar_of_identity(eta(Z, 1), Z) is None


def test_gaussian_quiddity():
    i = GaussianInt(0, 1)
    one = GaussianInt(1)
    two = GaussianInt(2)
    c = Cycle(Zi, (one - i, one + i, two, one - i, one + i, two))
    assert is_quiddity(c)


def test_cycle_validation():
    with pytest.raises(UsageError):
        Cycle(Z, ())
    with pytest.raises(UsageError):
        Cycle(Z, (1, GaussianInt(1)))
    c = Cycle(Z, (5, 6, 7))
    assert c.entry(1) == 5 and c.entry(4) == 5 and c.entry(0) == 7
    assert len(c) == c.m == 3


def test_rational_entries():
    from fractions import Fraction

    c = Cycle(Q, (Fraction(3), Fraction(2, 3), Fraction(3), Fraction(2, 3)))
    assert is_quiddity(c)
