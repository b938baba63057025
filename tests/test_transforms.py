"""Matrix-identity checks for the local cycle rewrites.

Every rewrite of an interior window must leave the full eta-matrix product
unchanged up to the advertised scalar.  Windows that wrap around the base
point only preserve the product up to conjugation, so wrap positions are
checked through conjugation invariants instead.
"""

import random
from fractions import Fraction

import pytest

from quiddity.cycles import (
    Cycle,
    Mat2,
    eta,
    full_product,
    is_quiddity,
    product_interval,
    rotate,
)
from quiddity.errors import (
    NotApplicableError,
    NotRepresentableError,
    SingularError,
    UsageError,
)
from quiddity.rings import GaussianRational, Q, Qi, Z
from quiddity.transforms import (
    SignedCycle,
    _drop_unit,
    _merge_zero,
    conjugate_diag,
    contract_minus_one,
    contract_one,
    contract_uv,
    contract_zero,
    expand_minus_one,
    expand_one,
    rescale_lambda,
    scale_alternating,
    shift_zero,
)


def rand_q(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_qi(rng):
    return GaussianRational(rand_q(rng), rand_q(rng))


SAMPLERS = [(Q, rand_q), (Qi, rand_qi)]


def rand_cycle(ring, sampler, rng, m):
    return Cycle(ring, tuple(sampler(rng) for _ in range(m)))


def scaled(mat, s):
    return Mat2(mat.a11 * s, mat.a12 * s, mat.a21 * s, mat.a22 * s)


@pytest.mark.parametrize("ring,sampler", SAMPLERS)
def test_expand_one_product(ring, sampler):
    rng = random.Random(101)
    for _ in range(500):
        c = rand_cycle(ring, sampler, rng, rng.randint(2, 6))
        k = rng.randint(-c.m, 2 * c.m)
        out = expand_one(c, k)
        assert out.sign == 1
        assert out.cycle.m == c.m + 1
        # k = 0 (mod m) appends the 1 after c_m; turning c_m to the front of
        # both cycles brings the window together
        turn = 1 if k % c.m == 0 else 0
        assert full_product(rotate(out.cycle, 2 * turn)) == full_product(rotate(c, turn))


@pytest.mark.parametrize("ring,sampler", SAMPLERS)
def test_expand_minus_one_product(ring, sampler):
    rng = random.Random(102)
    minus = -ring.one
    for _ in range(500):
        c = rand_cycle(ring, sampler, rng, rng.randint(2, 6))
        k = rng.randint(-c.m, 2 * c.m)
        out = expand_minus_one(c, k)
        assert out.sign == -1
        turn = 1 if k % c.m == 0 else 0  # as in test_expand_one_product
        assert full_product(rotate(out.cycle, 2 * turn)) == \
            scaled(full_product(rotate(c, turn)), minus)


@pytest.mark.parametrize("ring,sampler", SAMPLERS)
def test_contract_one_product(ring, sampler):
    rng = random.Random(103)
    for _ in range(500):
        m = rng.randint(3, 6)
        k = rng.randint(2, m - 1)
        entries = [sampler(rng) for _ in range(m)]
        entries[k - 1] = ring.one
        c = Cycle(ring, tuple(entries))
        out = contract_one(c, k)
        assert out.sign == 1
        assert out.cycle.m == m - 1
        assert full_product(out.cycle) == full_product(c)


@pytest.mark.parametrize("ring,sampler", SAMPLERS)
def test_contract_minus_one_product(ring, sampler):
    rng = random.Random(104)
    minus = -ring.one
    for _ in range(500):
        m = rng.randint(3, 6)
        k = rng.randint(2, m - 1)
        entries = [sampler(rng) for _ in range(m)]
        entries[k - 1] = -ring.one
        c = Cycle(ring, tuple(entries))
        out = contract_minus_one(c, k)
        assert out.sign == -1
        assert full_product(out.cycle) == scaled(full_product(c), minus)


@pytest.mark.parametrize("ring,sampler", SAMPLERS)
def test_contract_uv_product(ring, sampler):
    rng = random.Random(105)
    done = 0
    while done < 500:
        m = rng.randint(4, 7)
        k = rng.randint(2, m - 2)
        c = rand_cycle(ring, sampler, rng, m)
        if c.entry(k) * c.entry(k + 1) == ring.one:
            continue
        out = contract_uv(c, k)
        assert out.m == m - 1
        assert full_product(out) == full_product(c)
        done += 1


@pytest.mark.parametrize("ring,sampler", SAMPLERS)
def test_rescale_lambda_product(ring, sampler):
    rng = random.Random(106)
    done = 0
    while done < 500:
        m = rng.randint(4, 7)
        k = rng.randint(2, m - 2)
        c = rand_cycle(ring, sampler, rng, m)
        lam = sampler(rng)
        if lam == ring.zero or c.entry(k) * c.entry(k + 1) == ring.one:
            continue
        out = rescale_lambda(c, k, lam)
        assert out.m == m
        assert full_product(out) == full_product(c)
        done += 1


@pytest.mark.parametrize("ring,sampler", SAMPLERS)
def test_contract_zero_product(ring, sampler):
    rng = random.Random(107)
    minus = -ring.one
    for _ in range(500):
        m = rng.randint(3, 6)
        k = rng.randint(2, m - 1)
        entries = [sampler(rng) for _ in range(m)]
        entries[k - 1] = ring.zero
        c = Cycle(ring, tuple(entries))
        out = contract_zero(c, k)
        assert out.sign == -1
        assert out.cycle.m == m - 2
        assert full_product(out.cycle) == scaled(full_product(c), minus)


@pytest.mark.parametrize("ring,sampler", SAMPLERS)
def test_shift_zero_product(ring, sampler):
    rng = random.Random(108)
    for _ in range(500):
        m = rng.randint(3, 6)
        k = rng.randint(2, m - 1)
        entries = [sampler(rng) for _ in range(m)]
        entries[k - 1] = ring.zero
        c = Cycle(ring, tuple(entries))
        out = shift_zero(c, k, sampler(rng))
        assert out.m == m
        assert full_product(out) == full_product(c)


@pytest.mark.parametrize("ring,sampler", SAMPLERS)
def test_scale_alternating_conjugates(ring, sampler):
    rng = random.Random(109)
    done = 0
    while done < 500:
        t = sampler(rng)
        if t == ring.zero:
            continue
        c = rand_cycle(ring, sampler, rng, 2 * rng.randint(1, 3))
        out = scale_alternating(c, t)
        left = Mat2(t, ring.zero, ring.zero, ring.one)
        right = Mat2(ring.exact_div(ring.one, t), ring.zero, ring.zero, ring.one)
        assert full_product(out) == left * full_product(c) * right
        done += 1


@pytest.mark.parametrize("ring,sampler", SAMPLERS)
def test_conjugate_diag_identity(ring, sampler):
    rng = random.Random(110)
    done = 0
    while done < 500:
        a, u, b, z = (sampler(rng) for _ in range(4))
        if u == ring.zero or z == ring.zero:
            continue
        a2, u2, b2 = conjugate_diag(ring, (a, u, b), z)
        assert u2 == u
        zinv = ring.exact_div(ring.one, z)
        dz = Mat2(z, ring.zero, ring.zero, zinv)
        dzinv = Mat2(zinv, ring.zero, ring.zero, z)
        lhs = dzinv * (eta(ring, a) * eta(ring, u) * eta(ring, b)) * dz
        rhs = eta(ring, a2) * eta(ring, u2) * eta(ring, b2)
        assert lhs == rhs
        done += 1


@pytest.mark.parametrize("ring,sampler", SAMPLERS)
def test_expand_then_contract_is_identity(ring, sampler):
    rng = random.Random(111)
    for _ in range(200):
        c = rand_cycle(ring, sampler, rng, rng.randint(2, 6))
        k = rng.randint(1, c.m - 1)
        assert contract_one(expand_one(c, k).cycle, k + 1).cycle == c
        assert contract_minus_one(expand_minus_one(c, k).cycle, k + 1).cycle == c


@pytest.mark.parametrize("ring,sampler", SAMPLERS)
def test_contract_then_expand_is_identity(ring, sampler):
    rng = random.Random(112)
    for _ in range(200):
        m = rng.randint(3, 6)
        k = rng.randint(2, m - 1)
        entries = [sampler(rng) for _ in range(m)]
        entries[k - 1] = ring.one
        c = Cycle(ring, tuple(entries))
        assert expand_one(contract_one(c, k).cycle, k - 1).cycle == c


def test_wrap_positions_preserve_quiddity():
    # windows through the base point only determine the product up to
    # conjugation, which still preserves being -I
    rng = random.Random(113)
    base = Cycle(Z, (1, 4, 1, 2, 2, 2))
    for _ in range(50):
        k = rng.randint(1, base.m)
        grown = expand_one(base, k).cycle
        assert is_quiddity(grown)
        shrunk = contract_zero(Cycle(Z, (0,) * 6), k)
        assert is_quiddity(shrunk.cycle) is False  # (0, 0, 0, 0) has eps +1
        assert shrunk.sign == -1


def test_contractions_keep_the_survivors_in_order():
    # undoing a reduction step puts new vertices back at the positions the
    # contraction removed, so each contraction must delete exactly those
    # (k, or k - 1 and k, cyclically), adjust the neighbours and keep every
    # other entry in its original order, wrap positions included
    rng = random.Random(23)
    for m in range(3, 10):
        for k in range(1, m + 1):
            prev, nxt = (k - 2) % m, k % m
            for contract, value in ((contract_one, 1), (contract_minus_one, -1),
                                    (contract_zero, 0)):
                entries = [rng.randint(-5, 5) for _ in range(m)]
                entries[k - 1] = value
                if value:
                    removed, adjust = {k - 1}, {prev: -value, nxt: -value}
                else:
                    removed, adjust = {prev, k - 1}, {nxt: entries[prev]}
                want = tuple(c + adjust.get(i, 0) for i, c in enumerate(entries)
                             if i not in removed)
                assert contract(Cycle(Z, tuple(entries)), k).cycle.entries == want


def test_zero_pair_grows_to_triangle():
    out = expand_one(Cycle(Z, (0, 0)), 1)
    assert out.cycle.entries == (1, 1, 1)
    out = expand_one(Cycle(Z, (0, 0)), 2)
    assert out.cycle.entries == (1, 1, 1)


def test_triangle_collapses_through_zero():
    # eta(a) eta(0) eta(b) = -eta(a+b) down to a single entry
    out = contract_zero(Cycle(Z, (3, 0, -5)), 2)
    assert out.cycle.entries == (-2,)
    assert out.sign == -1
    prod = full_product(Cycle(Z, (3, 0, -5)))
    assert prod == scaled(full_product(out.cycle), -1)


def test_contract_uv_merges_window():
    # (a, u, v, b) with u = 3, v = 1: w = 2, both corrections exact over Q
    c = Cycle(Q, tuple(Fraction(x) for x in (5, 3, 1, 7)))
    out = contract_uv(c, 2)
    assert out.entries == (Fraction(5), Fraction(2), Fraction(6))
    assert full_product(out) == full_product(c)


def test_contract_uv_rejects_singular_window():
    c = Cycle(Q, tuple(Fraction(x) for x in (5, 2, 3, 7)))
    with pytest.raises(SingularError):
        contract_uv(Cycle(Q, tuple(Fraction(x) for x in (5, 1, 1, 7))), 2)
    assert contract_uv(c, 2).m == 3


def test_contract_uv_needs_exact_division():
    with pytest.raises(NotRepresentableError):
        contract_uv(Cycle(Z, (5, 2, 2, 7)), 2)


def test_applicability_errors():
    with pytest.raises(NotApplicableError):
        contract_one(Cycle(Z, (1, 2, 3)), 2)
    with pytest.raises(NotApplicableError):
        contract_minus_one(Cycle(Z, (1, 2, 3)), 1)
    with pytest.raises(NotApplicableError):
        contract_zero(Cycle(Z, (0, 0)), 1)
    with pytest.raises(NotApplicableError):
        shift_zero(Cycle(Z, (1, 2, 3)), 1, 1)
    with pytest.raises(NotApplicableError):
        scale_alternating(Cycle(Z, (1, 1, 1)), 1)
    with pytest.raises(NotApplicableError):
        expand_one(Cycle(Z, (4,)), 1)
    with pytest.raises(NotApplicableError):
        contract_uv(Cycle(Z, (1, 2, 3)), 2)


HEXAGON = Cycle(Z, (1, 4, 1, 2, 2, 2))


@pytest.mark.parametrize("call", [
    lambda c: c.entry("1"),
    lambda c: rotate(c, "1"),
    lambda c: rotate(c, 1.5),
    lambda c: product_interval(c, "1", 2),
    lambda c: contract_one(c, "1"),
    lambda c: contract_one(c, 1.0),
    lambda c: expand_one(c, 2.0),
    lambda c: shift_zero(c, 2.0, 1),
], ids=["entry", "rotate-str", "rotate-float", "product_interval", "contract_one-str",
        "contract_one-float", "expand_one", "shift_zero"])
def test_a_position_must_be_an_int(call):
    with pytest.raises(UsageError, match="must be an integer"):
        call(HEXAGON)


def test_singular_errors():
    c = Cycle(Q, tuple(Fraction(x) for x in (5, 3, 1, 7)))
    with pytest.raises(SingularError):
        rescale_lambda(c, 2, Fraction(0))
    with pytest.raises(SingularError):
        scale_alternating(Cycle(Q, (Fraction(1), Fraction(1))), Fraction(0))
    with pytest.raises(SingularError):
        conjugate_diag(Q, (Fraction(1), Fraction(0), Fraction(2)), Fraction(3))


def test_signed_cycle_validates_sign():
    with pytest.raises(UsageError):
        SignedCycle(Cycle(Z, (0, 0)), 2)


def test_scale_alternating_on_length_four_quiddity():
    c = Cycle(Q, tuple(Fraction(x) for x in (1, 2, 1, 2)))
    out = scale_alternating(c, Fraction(3))
    assert out.entries == (Fraction(3), Fraction(2, 3), Fraction(3), Fraction(2, 3))
    assert is_quiddity(out)


@pytest.mark.parametrize("ring", [Z, Q, Qi], ids=lambda r: r.tag)
def test_contractions_build_with_the_reduction_tuple_helpers(ring):
    # contract_one, contract_minus_one and contract_zero build their cycles
    # with the tuple helpers that the integer reduction loop contracts with,
    # at windows wrapping past position 1 and past position m and inside
    rng = random.Random(41)
    m = 6
    for k in (1, m, 3):
        for s, contract in ((1, contract_one), (-1, contract_minus_one), (0, contract_zero)):
            ints = [rng.randint(-5, 5) for _ in range(m)]
            ints[k - 1] = s
            entries = tuple(ring.from_int(x) for x in ints)
            out = contract(Cycle(ring, entries), k).cycle.entries
            if s:
                helper, on_ints = _drop_unit(entries, k, ring.from_int(s)), _drop_unit(tuple(ints), k, s)
            else:
                helper, on_ints = _merge_zero(entries, k), _merge_zero(tuple(ints), k)
            assert out == helper == tuple(ring.from_int(x) for x in on_ints), (k, s)
