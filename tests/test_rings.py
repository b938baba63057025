"""Exact arithmetic in the supported subrings of C."""

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from quiddity import rings
from quiddity.errors import UsageError, UnsupportedRingError
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
    ball_rows,
    count_norm_at_most,
    divisors_of_two,
    elements_norm_at_most,
    norm_sq,
    pair_div,
    pair_mul,
    pair_norm,
    ring_from_tag,
)
from quiddity.rings import _cyclotomic_poly


def test_gaussian_basics():
    i = GaussianInt(0, 1)
    assert i * i == GaussianInt(-1, 0)
    assert GaussianInt(1, 2) * GaussianInt(3, -1) == GaussianInt(5, 5)
    assert GaussianInt(3, -4).norm() == 25
    assert GaussianInt(2, 5).conjugate() == GaussianInt(2, -5)
    assert [str(GaussianInt(*p)) for p in ((0, 0), (0, 1), (1, -1))] == ["0", "i", "1-i"]


def test_eisenstein_unit_relation():
    # the generator w is a primitive sixth root of unity: w^2 = w - 1
    w = EisensteinInt(0, 1)
    assert w * w == EisensteinInt(-1, 1)
    assert w * w * w == EisensteinInt(-1, 0)
    assert (w * w * w) * (w * w * w) == EisensteinInt(1, 0)
    assert w.norm() == 1
    assert [str(EisensteinInt(*p)) for p in ((0, -1), (2, 3))] == ["-w", "2+3w"]


@pytest.mark.parametrize("ring,make", [
    (Zi, lambda rng: GaussianInt(rng.randint(-9, 9), rng.randint(-9, 9))),
    (Zzeta6, lambda rng: EisensteinInt(rng.randint(-9, 9), rng.randint(-9, 9))),
])
def test_norm_multiplicative(ring, make):
    rng = random.Random(2024)
    for _ in range(1000):
        x, y = make(rng), make(rng)
        assert (x * y).norm() == x.norm() * y.norm()


def test_conjugate_times_self_is_norm():
    x = EisensteinInt(3, -2)
    assert x * x.conjugate() == EisensteinInt(x.norm(), 0)
    y = GaussianInt(-4, 7)
    assert y * y.conjugate() == GaussianInt(y.norm(), 0)


def test_exact_div():
    assert Z.exact_div(6, 3) == 2
    assert Z.exact_div(7, 3) is None
    assert Z.exact_div(5, 0) is None
    # 2 = -i (1+i)^2, so 1+i divides 2
    assert Zi.exact_div(GaussianInt(2), GaussianInt(1, 1)) == GaussianInt(1, -1)
    assert Zi.exact_div(GaussianInt(1), GaussianInt(1, 1)) is None
    # 1+w has norm 3, which does not divide |2|^2 = 4
    assert Zzeta6.exact_div(EisensteinInt(2), EisensteinInt(1, 1)) is None
    # w is a unit, 2/w = 2 - 2w
    assert Zzeta6.exact_div(EisensteinInt(2), EisensteinInt(0, 1)) == EisensteinInt(2, -2)


def test_field_division_always_exact():
    assert Q.exact_div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    z = Qi.exact_div(GaussianRational(1), GaussianRational(1, 1))
    assert z == GaussianRational(Fraction(1, 2), Fraction(-1, 2))


@pytest.mark.parametrize("ring,bound,count", [
    (Z, 4, 4),          # -2, -1, 1, 2
    (Zi, 1, 4),         # the four units
    (Zi, 4, 12),
    (Zzeta6, 1, 6),     # the six units
    (Zzeta6, 3, 12),
])
def test_elements_norm_at_most_counts(ring, bound, count):
    elems = elements_norm_at_most(ring, bound)
    assert len(elems) == count
    for x in elems:
        assert 0 < norm_sq(ring, x) <= bound
    keys = [ring.sort_key(x) for x in elems]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_elements_norm_at_most_needs_discreteness():
    with pytest.raises(UnsupportedRingError):
        elements_norm_at_most(Q, 4)


def test_divisors_of_two():
    assert divisors_of_two(Z, 99) == [-1, 1, -2, 2]
    assert len(divisors_of_two(Zi, 99)) == 12
    assert len(divisors_of_two(Zzeta6, 99)) == 12
    assert GaussianInt(1, 1) in divisors_of_two(Zi, 99)
    assert EisensteinInt(1, 1) not in divisors_of_two(Zzeta6, 99)
    assert divisors_of_two(Z, 2) == [-1, 1]
    assert divisors_of_two(Z, 0) == []
    with pytest.raises(UsageError, match="must be an integer"):
        divisors_of_two(Q, 2.5)


def test_divisors_of_two_field_stream_is_deterministic():
    first = divisors_of_two(Q, 10)
    assert first == divisors_of_two(Q, 10)
    assert first[:5] == divisors_of_two(Q, 5)
    assert all(x != 0 for x in first)
    assert len(set(first)) == 10


def test_cyclotomic_five_units_divide_two():
    ring = Cyclotomic(5)
    ts = divisors_of_two(ring, 4)
    assert len(ts) == 4
    two = ring.from_int(2)
    for t in ts:
        q = ring.exact_div(two, t)
        assert q is not None
        assert t * q == two


# The first 24 divisors of 2 from each infinite stream, as printed.  Q(i)
# and the even d = 12 reach branches (the imaginary numerators, the skip of
# a repeated +-zeta^a) that no other test reaches.
PINNED_DIVISORS = {
    "Q": ["-1", "1", "-1/2", "1/2", "-2", "2", "-1/3", "1/3", "-2/3", "2/3", "-3/2",
          "3/2", "-3", "3", "-1/4", "1/4", "-3/4", "3/4", "-4/3", "4/3", "-4", "4",
          "-1/5", "1/5"],
    "Qi": ["-1", "-i", "i", "1", "-1-i", "-1+i", "1-i", "1+i", "-1/2", "-1/2i",
           "1/2i", "1/2", "-1/2-1/2i", "-1/2+1/2i", "1/2-1/2i", "1/2+1/2i",
           "-1-1/2i", "-1+1/2i", "-1/2-i", "-1/2+i", "1/2-i", "1/2+i", "1-1/2i",
           "1+1/2i"],
    "Zzeta5": ["1", "-1", "z", "-z", "z^2", "-z^2", "z^3", "-z^3", "-1-z-z^2-z^3",
               "1+z+z^2+z^3", "1+z", "-1-z", "z+z^2", "-z-z^2", "z^2+z^3", "-z^2-z^3",
               "-1-z-z^2", "1+z+z^2", "-z-z^2-z^3", "z+z^2+z^3", "1+2z+z^2",
               "-1-2z-z^2", "z+2z^2+z^3", "-z-2z^2-z^3"],
    "Zzeta7": ["1", "-1", "z", "-z", "z^2", "-z^2", "z^3", "-z^3", "z^4", "-z^4",
               "z^5", "-z^5", "-1-z-z^2-z^3-z^4-z^5", "1+z+z^2+z^3+z^4+z^5", "1+z",
               "-1-z", "z+z^2", "-z-z^2", "z^2+z^3", "-z^2-z^3", "z^3+z^4", "-z^3-z^4",
               "z^4+z^5", "-z^4-z^5"],
    "Zzeta12": ["1", "-1", "z", "-z", "z^2", "-z^2", "z^3", "-z^3", "-1+z^2", "1-z^2",
                "-z+z^3", "z-z^3", "1+z", "-1-z", "z+z^2", "-z-z^2", "z^2+z^3",
                "-z^2-z^3", "-1+z^2+z^3", "1-z^2-z^3", "-1-z+z^2+z^3", "1+z-z^2-z^3",
                "-1-z+z^3", "1+z-z^3"],
}


@pytest.mark.parametrize("tag", sorted(PINNED_DIVISORS))
def test_divisor_streams_are_pinned(tag):
    got = divisors_of_two(ring_from_tag(tag), 24)
    assert [str(t) for t in got] == PINNED_DIVISORS[tag]


@pytest.mark.parametrize("d", [8, 10, 14, 16, 18])
def test_cyclotomic_divisor_streams_do_not_run_dry(d):
    # +-zeta^a (1+zeta)^k holds only finitely many divisors of 2 for these d
    ring = Cyclotomic(d)
    ts = divisors_of_two(ring, 60)
    assert len(set(ts)) == 60
    two = ring.from_int(2)
    assert all(t * ring.exact_div(two, t) == two for t in ts)


def test_sort_key_is_a_total_order():
    keys = [Zi.sort_key(x) for x in elements_norm_at_most(Zi, 9)]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


def test_ring_from_tag():
    assert ring_from_tag("Z") is Z
    assert ring_from_tag("Zi") is Zi
    assert ring_from_tag("Zzeta6") is Zzeta6
    # small cyclotomic indices collapse onto the classical rings
    assert ring_from_tag("Zzeta1") is Z
    assert ring_from_tag("Zzeta2") is Z
    assert ring_from_tag("Zzeta3") is Zzeta6
    assert ring_from_tag("Zzeta4") is Zi
    assert ring_from_tag("Zzeta5").tag == "Zzeta5"
    assert ring_from_tag("Zzeta200").phi == 80  # the largest index served
    with pytest.raises(UsageError):
        ring_from_tag("Zfoo")


@pytest.mark.parametrize("tag", [5, None, ["Z"], b"Z", "Zzeta 5", "Zzeta1_0", "Zzeta+5",
                                 "Zzeta-5", "Zzeta05", "Zzeta0", "Zzeta", "Zzeta\u0665",
                                 "Zzeta201"])
def test_ring_from_tag_refuses_tags_no_writer_emits(tag):
    with pytest.raises(UsageError):
        ring_from_tag(tag)


@pytest.mark.parametrize("d", [5.0, "5", True, None])
def test_cyclotomic_needs_an_int(d):
    with pytest.raises(UsageError, match="must be an integer"):
        Cyclotomic(d)


@pytest.mark.parametrize("tag", ["Zzeta" + "1" * 5000, "Zzeta10000000000", "Zzeta55440"],
                         ids=["5000-digits", "1e10", "55440"])
def test_tag_above_the_cyclotomic_cap_exits_2(child_python, tag):
    # uncapped: past int()'s digit limit, an 80 GB list, minutes of Phi_d
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from quiddity.cli import main\n"
            "main(sys.argv[1:])\n")
    cycle = json.dumps({"ring": tag, "entries": [[1]]})
    proc = child_python("-c", code, "verify-cycle", cycle, timeout=30)
    assert proc.returncode == 2 and proc.stderr.startswith("error: "), proc.stderr[-500:]
    assert "above the cap of 200" in proc.stderr


@pytest.mark.parametrize("ring", [Z, Q, Zi, Zzeta6, Qi, Cyclotomic(5)], ids=lambda r: r.tag)
def test_rings_survive_pickle_and_deepcopy(ring):
    assert pickle.loads(pickle.dumps(ring)) is ring
    assert copy.deepcopy(ring) is ring
    assert copy.copy(ring) is ring


def test_cyclotomic_elements_of_different_index_do_not_combine():
    a = Cyclotomic(5).element_from_json([1, 2, 3, 4])
    b = Cyclotomic(7).element_from_json([1, 2, 3, 4, 5, 6])
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        for x, y in ((a, b), (b, a), (a, 2), (2, a), (a, Zi.one), (a, Fraction(1))):
            with pytest.raises(TypeError):
                op(x, y)
    assert a != b and a != 1 and Cyclotomic(5).one != Cyclotomic(7).one
    # equal indices combine whether or not the ring objects are one
    fresh = rings.CyclotomicRing(5)
    assert fresh.one + a == Cyclotomic(5).one + a
    assert fresh.zeta * a == Cyclotomic(5).zeta * a and fresh.zeta == Cyclotomic(5).zeta


@pytest.mark.parametrize("coeffs", [[1.5], [True], "12", [1, None], 5, [Fraction(1)]])
def test_cyclotomic_element_takes_only_int_coefficients(coeffs):
    with pytest.raises(UsageError):
        rings.CycloElement(Cyclotomic(5), coeffs)


def test_cyclotomic_element_folds_high_powers():
    ring = Cyclotomic(5)
    assert rings.CycloElement(ring, [0, 0, 0, 0, 1]).coeffs == (-1, -1, -1, -1)
    assert rings.CycloElement(ring, [7] + [0] * 10 + [1]).coeffs == (7, 1, 0, 0)
    with pytest.raises(UsageError):
        rings.CycloElement(Zi, [1])


def test_check_element_rejects_impostors():
    with pytest.raises(UsageError):
        Z.check_element(True)
    with pytest.raises(UsageError):
        Z.check_element(Fraction(1, 2))
    with pytest.raises(UsageError):
        Zi.check_element(1)


def test_pair_encoding_round_trip():
    # to_pair is the element's coordinate pair, and the pair functions at the
    # ring's t agree with the element arithmetic
    for ring, x, y, pair in [(Z, -7, 3, (-7, 0)),
                             (Zi, GaussianInt(2, -3), GaussianInt(1, 1), (2, -3)),
                             (Zzeta6, EisensteinInt(-1, 4), EisensteinInt(2, 1), (-1, 4))]:
        assert ring.to_pair(x) == pair
        py = ring.to_pair(y)
        assert pair_mul(ring.t, pair, py) == ring.to_pair(x * y)
        assert pair_norm(ring.t, pair) == ring.norm_sq(x)
        assert pair_div(ring.t, ring.to_pair(x * y), py) == pair
    assert [r.t for r in (Z, Zi, Zzeta6, Q, Qi, Cyclotomic(5))] == [0, 0, 1, None, None, None]


def companion(t, x):
    """The matrix of multiplication by a + b*omega on the basis (1, omega):
    aI + bC with C = [[0, -1], [1, t]], the companion matrix of
    omega^2 - t*omega + 1."""
    a, b = x
    return ((a, -b), (b, a + t * b))


def matmul(p, q):
    return tuple(tuple(sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


@pytest.mark.parametrize("t", [0, 1])
def test_pair_rule_matches_companion_matrices(t):
    rng = random.Random(7100 + t)
    for _ in range(2000):
        big = rng.choice([3, 100, 10**12])
        x = (rng.randint(-big, big), rng.randint(-big, big))
        y = (rng.randint(-big, big), rng.randint(-big, big))
        assert companion(t, pair_mul(t, x, y)) == matmul(companion(t, x), companion(t, y))
        (p, q), (r, s) = companion(t, x)
        assert pair_norm(t, x) == p * s - q * r


@pytest.mark.parametrize("t", [0, 1])
def test_pair_division_matches_brute_force(t):
    box = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    # a quotient of pairs in `box` has norm at most 27, so both coordinates
    # lie within sqrt(4 * 27 / 3) = 6
    wide = [(a, b) for a in range(-7, 8) for b in range(-7, 8)]
    for y in box:
        if y == (0, 0):
            assert all(pair_div(t, x, y) is None for x in box)
            continue
        quotient = {pair_mul(t, q, y): q for q in wide}
        for x in box:
            assert pair_div(t, x, y) == quotient.get(x)


@pytest.mark.parametrize("t", [0, 1])
def test_pair_rule_on_integers_is_int_arithmetic(t):
    for a in range(-12, 13):
        assert pair_norm(t, (a, 0)) == a * a
        for c in range(-12, 13):
            assert pair_mul(t, (a, 0), (c, 0)) == (a * c, 0)
            want = (a // c, 0) if c and a % c == 0 else None
            assert pair_div(t, (a, 0), (c, 0)) == want


def test_cyclotomic_inverse_of_unit():
    ring = Cyclotomic(5)
    z = ring.element_from_json([0, 1, 0, 0])
    prod = ring.exact_div(ring.one, z)
    assert prod is not None
    assert z * prod == ring.one


def _poly_product(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_cyclotomic_polynomials_multiply_to_x_power_minus_one():
    for d in range(1, 31):
        prod = [1]
        for e in range(1, d + 1):
            if d % e == 0:
                prod = _poly_product(prod, _cyclotomic_poly(e))
        assert prod == [-1] + [0] * (d - 1) + [1]


def _poly_mod_monic(p, m):
    """The remainder of p by the monic polynomial m, by long division."""
    p, k = list(p), len(m) - 1
    while len(p) > k:
        c = p.pop()
        for i in range(k):
            p[len(p) - k + i] -= c * m[i]
    return p + [0] * (k - len(p))


@pytest.mark.parametrize("d", [d for d in range(5, 41) if d != 6] + [105, 199, 200])
def test_cyclotomic_product_matches_polynomial_reference(d):
    # Phi_105 has a coefficient -2; 199 and 200 are the largest indices served
    ring = Cyclotomic(d)
    phi = ring.phi
    rng = random.Random(4400 + d)

    def element():
        # dense ones up to d = 40; a few terms above, where each exact_div
        # takes the product of phi - 1 conjugates
        terms = phi if d <= 40 else 3
        coeffs = [0] * phi
        for i in rng.sample(range(phi), terms):
            coeffs[i] = rng.randint(-3, 3)
        return ring.element_from_json(coeffs)

    pairs = [(element(), element()) for _ in range(4 if d <= 40 else 1)]
    pairs.append((ring.zeta, ring.element_from_json([0] * (phi - 1) + [1])))
    for x, y in pairs:
        prod = x * y
        assert list(prod.coeffs) == _poly_mod_monic(
            _poly_product(x.coeffs, y.coeffs), _cyclotomic_poly(d))
        if any(y.coeffs):
            assert ring.exact_div(prod, y) == x


def _solve_by_multiplication_matrix(ring, x, y):
    """x / y from the phi x phi system y * q = x over Q: column j of the
    matrix holds the coordinates of y * zeta^j.  None when y is 0 or the
    solution is not integral."""
    phi = ring.phi
    basis = [ring.element_from_json([0] * j + [1]) for j in range(phi)]
    cols = [(y * b).coeffs for b in basis]
    rows = [[Fraction(cols[j][i]) for j in range(phi)] + [Fraction(x.coeffs[i])]
            for i in range(phi)]
    for col in range(phi):
        pivot = next((r for r in range(col, phi) if rows[r][col] != 0), None)
        if pivot is None:
            return None  # y is singular, so y = 0
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(phi):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    q = [rows[i][phi] / rows[i][i] for i in range(phi)]
    if any(c.denominator != 1 for c in q):
        return None
    return ring.element_from_json([int(c) for c in q])


@pytest.mark.parametrize("d", [5, 7, 8, 9, 12, 15])
def test_cyclotomic_division_matches_linear_solve(d):
    ring = Cyclotomic(d)
    rng = random.Random(7200 + d)

    def element(size):
        return ring.element_from_json([rng.randint(-size, size) for _ in range(ring.phi)])

    ys = [ring.zero, ring.one, ring.zeta, ring.one + ring.zeta, ring.from_int(2)]
    ys += [element(2) for _ in range(8)]
    divisible = 0
    for y in ys:
        xs = [ring.zero, ring.one, element(3), element(3), y * element(3)]
        for x in xs:
            want = _solve_by_multiplication_matrix(ring, x, y)
            got = ring.exact_div(x, y)
            assert got == want
            if want is not None:
                divisible += 1
                assert y * got == x
    # the cases include both exact quotients and non-multiples
    assert 0 < divisible < len(ys) * 5


def test_disc_rows_match_a_scan():
    # seeded ellipses norm(d*c - w) <= bound against a scan of the square
    # around their centre w/d, real-only ones and empty ones included; the
    # ball of norms up to a limit is w = 0, d = 1
    rnd = random.Random(29)
    points = 0
    for _ in range(300):
        t, d, real = rnd.choice((0, 1)), rnd.randint(1, 40), rnd.random() < 0.3
        w = (rnd.randint(-300, 300), 0 if real and rnd.random() < 0.7 else rnd.randint(-300, 300))
        bound = rnd.randint(-3, 2500)
        rows = list(rings._disc_rows(t, w, d, bound, real))
        assert [y for y, _, _ in rows] == sorted({y for y, _, _ in rows})
        got = {(x, y) for y, lo, hi in rows for x in range(lo, hi + 1)}
        cx, cy, r = w[0] // d, w[1] // d, 60
        want = {(x, y) for x in range(cx - r, cx + r + 1)
                for y in ((0,) if real else range(cy - r, cy + r + 1))
                if pair_norm(t, (d * x - w[0], d * y - w[1])) <= bound}
        assert got == want, (t, w, d, bound, real)
        points += len(got)
    assert points > 0
    for t in (0, 1):
        for limit in range(-2, 40):
            got = {(a, b) for b, lo, hi in ball_rows(t, limit, False) for a in range(lo, hi + 1)}
            assert got == {(a, b) for a in range(-8, 9) for b in range(-8, 9)
                           if pair_norm(t, (a, b)) <= limit}


@pytest.mark.parametrize("ring", [Zi, Zzeta6])
def test_count_norm_at_most_refuses_a_ball_past_the_row_cap(ring):
    # limits on both sides of the cap: the count is refused exactly when the
    # walk would take more rows than the cap
    cap = rings._MAX_BALL_ROWS
    edge = (cap // 2) ** 2 * (4 - ring.t ** 2) // 4
    outcomes = set()
    for limit in range(edge - 3, edge + 4):
        too_many = sum(1 for _ in ball_rows(ring.t, limit, False)) > cap
        try:
            count_norm_at_most(ring, limit)
        except UsageError as exc:
            assert too_many and f"B_sq={limit} " in str(exc)
        else:
            assert not too_many
        outcomes.add(too_many)
    assert outcomes == {True, False}


def test_elements_norm_at_most_refuses_a_ball_past_the_element_cap():
    # Z's ball of norm at most k^2 holds the 2k elements +-1..+-k, one row
    half = rings._MAX_BALL_ELEMENTS // 2
    assert len(elements_norm_at_most(Z, half ** 2)) == 2 * half
    with pytest.raises(UsageError, match=f"B_sq={(half + 1) ** 2} "):
        elements_norm_at_most(Z, (half + 1) ** 2)
    assert count_norm_at_most(Z, (half + 1) ** 2) == 2 * half + 2
