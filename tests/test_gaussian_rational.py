"""Q(i) on integer triples, checked against a Fraction-pair reference.

`GaussianRational` stores (a + b*i)/d as a normal integer triple.  The
reference below is the plain two-Fraction representation; both run the
criterion 09 transform identities on the same random draws, and every value
they produce must agree.
"""

import math
import random
from fractions import Fraction

import pytest

from quiddity import rings, transforms
from quiddity.cycles import Cycle, Mat2, full_product
from quiddity.errors import UsageError
from quiddity.rings import GaussianRational, Qi, Ring, _fmt_poly


class RefGaussian:
    """re + im*i with two Fraction coordinates."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return RefGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefGaussian(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return RefGaussian(-self.re, -self.im)

    def __mul__(self, other):
        return RefGaussian(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm()
        return RefGaussian(self.re / n, -self.im / n)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))


class RefField(Ring):
    """Q(i) over RefGaussian, with the descriptor protocol of `rings.Qi`."""

    tag = "Qi"
    zero = RefGaussian(0)
    one = RefGaussian(1)

    def from_int(self, n):
        return RefGaussian(n)

    def check_element(self, x):
        assert isinstance(x, RefGaussian)
        return x

    def norm_sq(self, x):
        return x.norm()

    def sort_key(self, x):
        return (x.norm(), x.re, x.im)

    def exact_div(self, x, y):
        return None if y.norm() == 0 else x * y.inverse()

    def element_to_json(self, x):
        return [f"{x.re.numerator}/{x.re.denominator}", f"{x.im.numerator}/{x.im.denominator}"]


REF = RefField()

RULES = ["expand_one", "contract_one", "expand_minus_one", "contract_minus_one",
         "contract_uv", "rescale_lambda", "contract_zero", "shift_zero",
         "scale_alternating", "conjugate_diag"]


def _values(item) -> list:
    """The ring elements in a rule's output, each cycle with its product."""
    if isinstance(item, transforms.SignedCycle):
        return _values(item.cycle)
    if isinstance(item, Cycle):
        return list(item.entries) + _values(full_product(item))
    if isinstance(item, Mat2):
        return [item.a11, item.a12, item.a21, item.a22]
    return list(item)


def _instance(ring, make, rule, rng) -> list:
    """One instantiation of a criterion 09 rule: every value it produces.

    The draws mirror criterion 09's, so two rings given equal seeds make the
    same draws as long as their values agree.
    """
    def sample():
        return make(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    m = rng.randint(4, 7)
    k = rng.randint(2, m - 2)
    entries = [sample() for _ in range(m)]
    if rule == "contract_one":
        entries[k - 1] = ring.one
    elif rule == "contract_minus_one":
        entries[k - 1] = -ring.one
    elif rule in ("contract_zero", "shift_zero"):
        entries[k - 1] = ring.zero
    c = Cycle(ring, entries)
    out = [c]
    if rule == "shift_zero":
        out.append(transforms.shift_zero(c, k, sample()))
    elif rule in ("contract_uv", "rescale_lambda"):
        lam = sample() if rule == "rescale_lambda" else ring.one
        if lam != ring.zero and c.entry(k) * c.entry(k + 1) != ring.one:
            if rule == "contract_uv":
                out.append(transforms.contract_uv(c, k))
            else:
                out.append(transforms.rescale_lambda(c, k, lam))
    elif rule == "scale_alternating":
        t = sample()
        if t != ring.zero:
            out.append(transforms.scale_alternating(Cycle(ring, entries[: 2 * (m // 2)]), t))
            out.append([ring.exact_div(ring.one, t)])
    elif rule == "conjugate_diag":
        z = sample()
        if entries[1] != ring.zero and z != ring.zero:
            out.append(transforms.conjugate_diag(ring, tuple(entries[:3]), z))
            out.append([ring.exact_div(ring.one, z)])
    else:
        out.append(getattr(transforms, rule)(c, k))
    return [x for item in out for x in _values(item)]


def _is_normal(x) -> bool:
    return x._d > 0 and math.gcd(x._a, x._b, x._d) == 1


@pytest.fixture()
def checked_triples(monkeypatch):
    """Count every element that an operation builds, failing on one that is
    not in normal form."""
    built = []
    make = rings._qi

    def qi(a, b, d):
        x = make(a, b, d)
        assert _is_normal(x), (a, b, d)
        built.append(x)
        return x

    monkeypatch.setattr(rings, "_qi", qi)
    return built


@pytest.mark.parametrize("rule", RULES)
def test_transform_identities_match_the_fraction_pair_reference(rule, checked_triples):
    rng_new, rng_ref = random.Random(f"Qi:{rule}"), random.Random(f"Qi:{rule}")
    seen_new, seen_ref = [], []
    for _ in range(500):
        new = _instance(Qi, GaussianRational, rule, rng_new)
        ref = _instance(REF, RefGaussian, rule, rng_ref)
        assert [(x.re, x.im) for x in new] == [(y.re, y.im) for y in ref]
        seen_new += new
        seen_ref += ref
    assert checked_triples, "no operation ran"
    distinct = dict(zip(seen_new, seen_ref))
    for x, y in distinct.items():
        assert _is_normal(x) and _is_normal(-x)
        twin = GaussianRational(x.re, x.im)
        assert twin == x and hash(twin) == hash(x)
        text = Qi.element_to_json(x)
        assert text == REF.element_to_json(y)
        assert Qi.element_from_json(text) == x
        assert str(x) == _fmt_poly((y.re, y.im), "i")
        assert repr(x) == f"GaussianRational({y.re!r}, {y.im!r})"
    # distinct values have distinct keys, so the two orders agree exactly
    # when the reference keys rise strictly along the new order
    ref_keys = [REF.sort_key(distinct[x]) for x in sorted(distinct, key=Qi.sort_key)]
    assert all(k1 < k2 for k1, k2 in zip(ref_keys, ref_keys[1:]))


def test_each_operation_matches_the_reference():
    rng = random.Random(13)

    def draw():
        re = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        im = Fraction(rng.randint(-30, 30), rng.randint(1, 12)) if rng.random() < 0.8 else 0
        return GaussianRational(re, im), RefGaussian(re, im)

    def same(x, y):
        return _is_normal(x) and (x.re, x.im) == (y.re, y.im)

    for _ in range(2000):
        (x, rx), (y, ry) = draw(), draw()
        assert same(x + y, rx + ry) and same(x - y, rx - ry) and same(x * y, rx * ry)
        assert same(-x, -rx) and same(x - x, rx - rx)
        assert x.norm() == rx.norm() and Qi.norm_sq(x) == REF.norm_sq(rx)
        assert (x == y) == (rx == ry)
        if x == y:
            assert hash(x) == hash(y)
        if ry.norm():
            assert same(y.inverse(), ry.inverse())
            assert same(Qi.exact_div(x, y), REF.exact_div(rx, ry))
        else:
            assert Qi.exact_div(x, y) is None
            with pytest.raises(ZeroDivisionError):
                y.inverse()


def test_zero_and_integers_have_one_triple():
    assert (Qi.zero._a, Qi.zero._b, Qi.zero._d) == (0, 0, 1)
    x = GaussianRational(Fraction(1, 3), Fraction(2, 3))
    assert x - x == Qi.zero and hash(x - x) == hash(Qi.zero)
    assert GaussianRational(Fraction(6, 4), Fraction(-5, 6))._d == 6
    assert Qi.from_int(-7) == GaussianRational(Fraction(-7), 0)


@pytest.mark.parametrize("bad", [0.1, "1/2", True, None, 1j])
def test_constructor_takes_only_exact_rationals(bad):
    with pytest.raises(UsageError):
        GaussianRational(bad)
    with pytest.raises(UsageError):
        GaussianRational(1, bad)
