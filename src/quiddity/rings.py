"""Exact arithmetic for the supported coefficient rings and fields.

Supported rings: the integers Z, the Gaussian integers Z[i], the Eisenstein
integers Z[w] with w = (1 + i*sqrt(3))/2 (a primitive sixth root of unity),
the rationals Q, the Gaussian rationals Q(i), and Z[zeta_d] for a general
primitive d-th root of unity.  Everything is exact: plain ints, Fractions and
small integer coordinate classes; no floating point anywhere.

Ring objects are stateless singletons describing one ring each.  Elements are
lightweight values that overload +, -, * so that generic matrix code works
uniformly: int for Z, Fraction for Q, integer pairs for Z[i] and Z[w], the
integer triple (a, b, d) for (a + b*i)/d in Q(i), and coefficient tuples for
Z[zeta_d].  Because plain ints carry no ring of their own, the module-level
operations take the ring as their first argument: norm_sq(ring, x) and
elements_norm_at_most(ring, bound_sq).

The three discrete rings (Z, Z[i], Z[w]) have minimal nonzero norm 1 and
support bounded element enumeration; the fields and the general cyclotomic
rings do not.  Cyclotomic rings support only ring arithmetic and exact
division (no norms, no ordering).

The pair encoding: the discrete rings are one family, Z[omega] with
omega^2 = t*omega - 1.  t = 0 gives Z[i] (omega = i), t = 1 gives Z[w]
(omega = w), and Z is the b = 0 part of either (searched as t = 0).  An
element a + b*omega is the integer pair (a, b); as omega + conj(omega) = t
and omega * conj(omega) = 1, conj(a + b*omega) = (a + t*b) - b*omega and
the norm is a^2 + t*a*b + b^2.  `pair_mul`, `pair_norm`, `pair_conj` and
`pair_div` are the only definition of this arithmetic: the element classes,
the ring descriptors and both search kernels follow them, and `Ring.t` is
the ring's t (None where there is no pair encoding).

Exact division has one rule in every ring of integers here: x / y =
x * r / N(y), where r is the product of y's other conjugates and
N(y) = y * r is its norm, a rational integer; y divides x exactly when N(y)
divides every coordinate of x * r.  In Z r is 1, in Z[omega] it is conj(y)
(`pair_div`), and in Z[zeta_d] it is the product of the sigma_k(y),
zeta -> zeta^k for 1 < k < d prime to d (`CyclotomicRing.exact_div`).
Q(i) divides by the same rule, x / y = x * conj(y) / N(y), computed on the
triples with N((c + e*i)/f) = (c^2 + e^2)/f^2; being a field, every nonzero
y divides.  Each Q(i) operation ends with one gcd that puts its triple in
normal form (d > 0, gcd(a, b, d) = 1).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import isqrt
from operator import add, neg, sub

from quiddity.errors import UnsupportedRingError, UsageError

__all__ = [
    "Ring",
    "pair_mul",
    "pair_norm",
    "pair_conj",
    "pair_div",
    "GaussianInt",
    "EisensteinInt",
    "GaussianRational",
    "CycloElement",
    "Z",
    "Q",
    "Zi",
    "Zzeta6",
    "Qi",
    "Cyclotomic",
    "ring_from_tag",
    "norm_sq",
    "ball_rows",
    "elements_norm_at_most",
    "count_norm_at_most",
    "divisors_of_two",
]


def _fmt_poly(coeffs, unit: str) -> str:
    """Render the sum of c_k * unit^k compactly: '0', '2', 'i', '1-2i',
    '-z+3z^2', ...; a + b*unit is the coefficients (a, b)."""
    out = ""
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            power = unit if k == 1 else f"{unit}^{k}"
            term = power if c == 1 else "-" + power if c == -1 else f"{c}{power}"
        out += term if not out or term.startswith("-") else "+" + term
    return out or "0"


# ---------------------------------------------------------------------------
# Z[omega] pairs, omega^2 = t*omega - 1 (see the module docstring).


def pair_mul(t: int, x: tuple, y: tuple) -> tuple:
    """The product of two pairs."""
    a1, b1 = x
    a2, b2 = y
    bb = b1 * b2
    return a1 * a2 - bb, a1 * b2 + b1 * a2 + t * bb


def pair_norm(t: int, x: tuple) -> int:
    """|a + b*omega|^2 = a^2 + t*a*b + b^2."""
    a, b = x
    return a * a + t * a * b + b * b


def pair_conj(t: int, x: tuple) -> tuple:
    a, b = x
    return a + t * b, -b


def pair_div(t: int, x: tuple, y: tuple):
    """The exact quotient x * conj(y) / norm(y), or None if y does not divide x."""
    n = pair_norm(t, y)
    if n == 0:
        return None
    a, b = pair_mul(t, x, pair_conj(t, y))
    if a % n or b % n:
        return None
    return a // n, b // n


class _PairInt:
    """An element a + b*omega of Z[omega], stored as the pair (a, b).

    Subclasses fix t, the letter printed for omega, and the public names of
    the two coordinates; all arithmetic goes through the pair functions.
    Elements of different subclasses never combine or compare equal.
    """

    __slots__ = ("_a", "_b")
    t: int
    unit: str
    coords: tuple

    def __init__(self, a: int, b: int = 0):
        self._a = a
        self._b = b

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self._a + other._a, self._b + other._b)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self._a - other._a, self._b - other._b)

    def __neg__(self):
        return type(self)(-self._a, -self._b)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(*pair_mul(self.t, (self._a, self._b), (other._a, other._b)))

    def conjugate(self):
        return type(self)(*pair_conj(self.t, (self._a, self._b)))

    def norm(self) -> int:
        return pair_norm(self.t, (self._a, self._b))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._a == other._a and self._b == other._b

    def __hash__(self) -> int:
        return hash((self.t, self._a, self._b))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._a}, {self._b})"

    def __str__(self) -> str:
        return _fmt_poly((self._a, self._b), self.unit)


class GaussianInt(_PairInt):
    """Gaussian integer re + im*i: t = 0, omega = i."""

    __slots__ = ()
    t, unit, coords = 0, "i", ("re", "im")
    re, im = _PairInt._a, _PairInt._b


class EisensteinInt(_PairInt):
    """Element a + b*w of Z[w], w = (1 + i*sqrt(3))/2 a primitive sixth root
    of unity: t = 1, omega = w, so w*w = w - 1 and conj(w) = 1 - w."""

    __slots__ = ()
    t, unit, coords = 1, "w", ("a", "b")
    a, b = _PairInt._a, _PairInt._b


def _check_rational(x):
    """x itself when it is an int (not a bool) or a Fraction."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise UsageError(f"not a rational coordinate: {x!r}")
    return x


def _check_int(x, what: str) -> int:
    """x itself when it is an int and not a bool; `what` names it in the error."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise UsageError(f"{what} must be an integer, got {x!r}")
    return x


class GaussianRational:
    """Element (a + b*i)/d of Q(i), stored as the integer triple (a, b, d).

    The triple is normal: d > 0 and gcd(a, b, d) = 1, so equal elements have
    equal triples and zero is (0, 0, 1).  Every operation does its integer
    arithmetic and then one gcd (`_qi`).  The constructor takes the two
    coordinates, ints or Fractions; `re` and `im` read them back as Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re, im=0):
        re = _check_rational(re)
        im = _check_rational(im)
        # over the lcm of the two reduced denominators the triple is normal
        q, s = re.denominator, im.denominator
        d = q * s // math.gcd(q, s)
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _qi(self._a + other._a, self._b + other._b, d)
        return _qi(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _qi(self._a - other._a, self._b - other._b, d)
        return _qi(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __neg__(self) -> "GaussianRational":
        x = _new(GaussianRational)
        x._a, x._b, x._d = -self._a, -self._b, self._d
        return x

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _qi(a * c - b * e, a * e + b * c, self._d * other._d)

    def _over(self, other) -> "GaussianRational":
        # x / y = x * conj(y) / N(y); with y = (c + e*i)/f that is
        # (a + b*i)(c - e*i) * f / (d * (c^2 + e^2)), for y != 0
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        return _qi((a * c + b * e) * f, (b * c - a * e) * f, self._d * (c * c + e * e))

    def norm(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def inverse(self) -> "GaussianRational":
        if not (self._a or self._b):
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return Qi.one._over(self)

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return _fmt_poly((self.re, self.im), "i")


_new = object.__new__


def _qi(a: int, b: int, d: int) -> GaussianRational:
    """The element (a + b*i)/d for d > 0, in normal form."""
    g = math.gcd(a, b, d)
    x = _new(GaussianRational)
    if g == 1:
        x._a, x._b, x._d = a, b, d
    else:
        x._a, x._b, x._d = a // g, b // g, d // g
    return x


# ---------------------------------------------------------------------------
# Integer polynomials for the cyclotomic rings: dense coefficient lists,
# lowest degree first.


def _divmod_monic(num: list, den: tuple) -> tuple[list, list]:
    """Quotient and remainder of num by the monic integer polynomial den."""
    k = len(den) - 1
    rem = list(num)
    quot = [0] * max(0, len(rem) - k)
    for s in range(len(quot) - 1, -1, -1):
        c = rem.pop()  # the coefficient of x^(s+k); den is monic
        if c:
            quot[s] = c
            for i in range(k):
                rem[s + i] -= c * den[i]
    return quot, rem


@lru_cache(maxsize=None)
def _cyclotomic_poly(d: int) -> tuple:
    """Coefficients of the d-th cyclotomic polynomial.

    x^d - 1 is the product of the monic Phi_e over e | d, so dividing it by
    Phi_e for the proper divisors e leaves Phi_d with no remainder.
    """
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num, rem = _divmod_monic(num, _cyclotomic_poly(e))
            if any(rem):
                raise RuntimeError(f"Phi_{e} does not divide x^{d} - 1")
    return tuple(num)


class CycloElement:
    """Element of Z[zeta_d]: integer coefficients of 1, zeta, ..., zeta^(phi-1).

    The constructor checks its int coefficients and folds those of zeta^phi
    and up modulo Phi_d; the operations build their results with `_cyclo`,
    and only elements of one d combine or compare equal.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "CyclotomicRing", coeffs):
        if not isinstance(ring, CyclotomicRing):
            raise UsageError(f"not a cyclotomic ring: {ring!r}")
        try:
            cs = [_check_int(c, "a coefficient") for c in coeffs]
        except TypeError:
            raise UsageError(f"expected integer coefficients, got {coeffs!r}") from None
        phi = ring.phi
        if len(cs) > phi:
            cs = _divmod_monic(cs, ring._poly)[1]
        cs += [0] * (phi - len(cs))
        self.ring = ring
        self.coeffs = tuple(cs)

    def __add__(self, other):
        if type(other) is not CycloElement or other.ring.d != self.ring.d:
            return NotImplemented
        return _cyclo(self.ring, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if type(other) is not CycloElement or other.ring.d != self.ring.d:
            return NotImplemented
        return _cyclo(self.ring, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloElement":
        return _cyclo(self.ring, tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        if type(other) is not CycloElement or other.ring.d != self.ring.d:
            return NotImplemented
        ring = self.ring
        phi = ring.phi
        # the schoolbook product up to zeta^(2 phi - 2), then each power
        # zeta^k from phi on folded in through the table
        prod = [0] * (2 * phi - 1)
        ys = other.coeffs
        for i, a in enumerate(self.coeffs):
            if a:
                for k, b in enumerate(ys, i):
                    prod[k] += a * b
        d, table = ring.d, ring._pow
        for k in range(phi, 2 * phi - 1):
            c = prod[k]
            if c:
                for i, p in table[k % d]:
                    prod[i] += c * p
        return _cyclo(ring, tuple(prod[:phi]))

    def __eq__(self, other) -> bool:
        if type(other) is not CycloElement or other.ring.d != self.ring.d:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring.d, self.coeffs))

    def __repr__(self) -> str:
        return f"CycloElement(d={self.ring.d}, {list(self.coeffs)})"

    def __str__(self) -> str:
        return _fmt_poly(self.coeffs, "z")


def _cyclo(ring: "CyclotomicRing", coeffs: tuple) -> CycloElement:
    """The element with these phi coefficients, taken as they are."""
    x = _new(CycloElement)
    x.ring, x.coeffs = ring, coeffs
    return x


# ---------------------------------------------------------------------------
# Ring descriptors.


class Ring:
    """Base descriptor.  Concrete rings fill in tag and the element protocol."""

    tag: str = "?"
    is_discrete: bool = False
    t: int | None = None  # omega^2 = t*omega - 1 for rings with a pair encoding

    def __repr__(self) -> str:
        return f"<ring {self.tag}>"

    def __reduce__(self):
        # each ring is a singleton that code compares by identity
        return ring_from_tag, (self.tag,)

    # Subclasses provide: zero, one, from_int, check_element, norm_sq,
    # sort_key, exact_div, element_to_json, element_from_json.

    def norm_sq(self, x):
        raise UnsupportedRingError(f"{self.tag} has no rational norm")

    def sort_key(self, x):
        raise UnsupportedRingError(f"{self.tag} has no total order")

    def to_pair(self, x) -> tuple[int, int]:
        raise UnsupportedRingError(f"{self.tag} has no pair encoding")


def _not_elements(ring: Ring, x, y) -> UsageError:
    """The error of an `exact_div` given anything but two of the ring's
    elements, which it takes as they are, with no conversion.

    Each `exact_div` tests its operands with isinstance against the type its
    `check_element` returns, so whatever `check_element` passes through, a
    subclass of int or Fraction included, `exact_div` accepts too.
    """
    return UsageError(f"exact_div needs two elements of {ring.tag}, got {x!r} and {y!r}")


class IntegerRing(Ring):
    tag = "Z"
    is_discrete = True
    t = 0  # Z is the b = 0 part of Z[i] (or of Z[w])

    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return n

    def check_element(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise UsageError(f"not an element of Z: {x!r}")
        return x

    def norm_sq(self, x: int) -> int:
        return x * x

    def sort_key(self, x: int):
        return (x * x, x, 0)

    def exact_div(self, x: int, y: int):
        if not isinstance(x, int) or not isinstance(y, int):
            raise _not_elements(self, x, y)
        if y == 0 or x % y != 0:
            return None
        return x // y

    def element_to_json(self, x: int):
        return x

    def element_from_json(self, data):
        if isinstance(data, bool) or not isinstance(data, int):
            raise UsageError(f"expected an integer, got {data!r}")
        return _printable(data)

    def to_pair(self, x: int) -> tuple[int, int]:
        return (x, 0)


class RationalField(Ring):
    tag = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def check_element(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        raise UsageError(f"not an element of Q: {x!r}")

    def norm_sq(self, x: Fraction) -> Fraction:
        return x * x

    def sort_key(self, x: Fraction):
        return (x * x, x, 0)

    def exact_div(self, x: Fraction, y: Fraction):
        if not isinstance(x, Fraction) or not isinstance(y, Fraction):
            raise _not_elements(self, x, y)
        if y == 0:
            return None
        return x / y

    def element_to_json(self, x: Fraction):
        return f"{x.numerator}/{x.denominator}"

    def element_from_json(self, data):
        return _rational_from_json(data)


def _rational_from_json(data) -> Fraction:
    """A rational in JSON: an int or a literal such as "-3/4" or "1e3".

    Its numerator and denominator must print back in decimal, so neither may
    have more digits than the interpreter's int-to-str limit allows.
    """
    if isinstance(data, bool) or not isinstance(data, (int, str)):
        raise UsageError(f"expected a rational, got {data!r}")
    try:
        x = Fraction(data)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational literal {data!r}") from exc
    _printable(x.numerator)
    _printable(x.denominator)
    return x


def _printable(n: int) -> int:
    """n, which must print back in decimal: a JSON integer with more digits
    than the interpreter's int-to-str limit allows raises UsageError here,
    not ValueError later when an error message formats it."""
    limit = sys.get_int_max_str_digits()
    # 2^(3k) < 10^k, so only a number of more than 3k bits can have k digits
    if limit and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit:
        raise UsageError(f"number with more than {limit} digits")
    return n


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms as "p/q", the text of `Q.element_to_json`."""
    g = math.gcd(n, d)
    return f"{n // g}/{d // g}"


class PairIntegerRing(Ring):
    """Z[omega] with omega^2 = t*omega - 1, its elements one _PairInt subclass."""

    is_discrete = True

    def __init__(self, tag: str, element: type):
        self.tag = tag
        self.t = element.t
        self.element = element
        self.zero = element(0, 0)
        self.one = element(1, 0)

    def from_int(self, n: int):
        return self.element(n, 0)

    def check_element(self, x):
        if not isinstance(x, self.element):
            raise UsageError(f"not an element of Z[{self.element.unit}]: {x!r}")
        return x

    def norm_sq(self, x) -> int:
        return x.norm()

    def sort_key(self, x):
        # The real part is a + t*b/2 and the imaginary part a positive
        # multiple of b, so (2a + tb, b) orders like (re, im) in the integers.
        return (x.norm(), 2 * x._a + self.t * x._b, x._b)

    def exact_div(self, x, y):
        if not isinstance(x, self.element) or not isinstance(y, self.element):
            raise _not_elements(self, x, y)
        q = pair_div(self.t, (x._a, x._b), (y._a, y._b))
        return None if q is None else self.element(*q)

    def element_to_json(self, x):
        return [x._a, x._b]

    def element_from_json(self, data):
        if (not isinstance(data, (list, tuple)) or len(data) != 2
                or any(isinstance(c, bool) or not isinstance(c, int) for c in data)):
            raise UsageError(f"expected [{', '.join(self.element.coords)}] integers, "
                             f"got {data!r}")
        return self.element(_printable(data[0]), _printable(data[1]))

    def to_pair(self, x) -> tuple[int, int]:
        return (x._a, x._b)


class GaussianRationalField(Ring):
    tag = "Qi"

    zero = GaussianRational(0, 0)
    one = GaussianRational(1, 0)

    def from_int(self, n: int) -> GaussianRational:
        return GaussianRational(n, 0)

    def check_element(self, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return GaussianRational(x, 0)
        raise UsageError(f"not an element of Q(i): {x!r}")

    def norm_sq(self, x: GaussianRational) -> Fraction:
        return x.norm()

    def sort_key(self, x: GaussianRational):
        return (x.norm(), x.re, x.im)

    def exact_div(self, x: GaussianRational, y: GaussianRational):
        if not isinstance(x, GaussianRational) or not isinstance(y, GaussianRational):
            raise _not_elements(self, x, y)
        if not (y._a or y._b):
            return None
        return x._over(y)

    def element_to_json(self, x: GaussianRational):
        return [_ratio_text(x._a, x._d), _ratio_text(x._b, x._d)]

    def element_from_json(self, data):
        if not isinstance(data, (list, tuple)) or len(data) != 2:
            raise UsageError(f"expected [re, im] rationals, got {data!r}")
        return GaussianRational(_rational_from_json(data[0]), _rational_from_json(data[1]))


class CyclotomicRing(Ring):
    """Z[zeta_d] for general d: ring arithmetic and exact division only.

    Elements are reduced modulo the cyclotomic polynomial Phi_d.  Division
    is `pair_div`'s rule with all phi(d) - 1 other Galois conjugates in place
    of the one complex conjugate: x / y = x * r / (y * r), r the product of
    the sigma_k(y), and no rational arithmetic is involved.
    """

    def __init__(self, d: int):
        self.d = d
        self.tag = f"Zzeta{d}"
        self._poly = _cyclotomic_poly(d)
        phi = self.phi = len(self._poly) - 1
        # _pow[e] is zeta^e for 0 <= e < d in the power basis, as its (i, c)
        # pairs with c != 0; zeta^phi is minus the lower terms of Phi_d
        top = [-c for c in self._poly[:phi]]
        power = [1] + [0] * (phi - 1)
        self._pow = []
        for _ in range(d):
            self._pow.append(tuple((i, c) for i, c in enumerate(power) if c))
            c = power.pop()
            power.insert(0, 0)
            if c:
                power = [a + c * b for a, b in zip(power, top)]
        self.zero = CycloElement(self, [0])
        self.one = CycloElement(self, [1])
        self.zeta = CycloElement(self, [0, 1])

    def from_int(self, n: int) -> CycloElement:
        return CycloElement(self, [n])

    def check_element(self, x):
        if not isinstance(x, CycloElement) or x.ring.d != self.d:
            raise UsageError(f"not an element of {self.tag}: {x!r}")
        return x

    def exact_div(self, x: CycloElement, y: CycloElement):
        if (not isinstance(x, CycloElement) or not isinstance(y, CycloElement)
                or x.ring.d != self.d or y.ring.d != self.d):
            raise _not_elements(self, x, y)
        # r is the product of the sigma_k(y), so y * r is the norm N(y), not 0 for y != 0
        d, phi, table = self.d, self.phi, self._pow
        terms = [(j, c) for j, c in enumerate(y.coeffs) if c]
        if not terms:
            return None
        r = self.one
        for k in range(2, d):
            if math.gcd(k, d) == 1:
                # sigma_k(y) is the sum of the y_j zeta^(j k)
                conj = [0] * phi
                for j, c in terms:
                    for i, p in table[j * k % d]:
                        conj[i] += c * p
                r = r * _cyclo(self, tuple(conj))
        n, *rest = (y * r).coeffs
        if any(rest):
            raise RuntimeError(f"the norm of {y!r} is not rational")
        q = (x * r).coeffs
        if any(c % n for c in q):
            return None
        return _cyclo(self, tuple(c // n for c in q))

    def element_to_json(self, x: CycloElement):
        return list(x.coeffs)

    def element_from_json(self, data):
        if (not isinstance(data, list) or len(data) > self.phi
                or any(isinstance(c, bool) or not isinstance(c, int) for c in data)):
            raise UsageError(f"expected <= {self.phi} integer coefficients, got {data!r}")
        return CycloElement(self, [_printable(c) for c in data])


Z = IntegerRing()
Q = RationalField()
Zi = PairIntegerRing("Zi", GaussianInt)
Zzeta6 = PairIntegerRing("Zzeta6", EisensteinInt)
Qi = GaussianRationalField()


@lru_cache(maxsize=None)
def _general_cyclotomic(d: int) -> CyclotomicRing:
    return CyclotomicRing(d)


# The largest cyclotomic index served.  Exact division costs about phi(d)^3
# integer products: at d = 199 one takes 0.4-0.6 s for y = 1 + zeta and
# 0.9-1.4 s for y with all 198 coefficients in {-1, 0, 1} (2-core Xeon,
# Python 3.11.7).  Building Phi_d divides x^d - 1 by Phi_e for every e
# dividing d.
_MAX_CYCLOTOMIC_INDEX = 200


def Cyclotomic(d: int) -> Ring:
    """The ring Z[zeta_d], normalizing the five special d to their classics.

    d in {1, 2} gives Z, d in {3, 6} gives the Eisenstein integers and d = 4
    gives the Gaussian integers; everything else up to the cap of
    `_MAX_CYCLOTOMIC_INDEX` is a coefficient-vector ring with arithmetic and
    exact division only.
    """
    if _check_int(d, "the cyclotomic index") < 1:
        raise UsageError(f"bad cyclotomic index {d}")
    if d > _MAX_CYCLOTOMIC_INDEX:
        raise UsageError(f"cyclotomic index {d} is above the cap of {_MAX_CYCLOTOMIC_INDEX}")
    if d in (1, 2):
        return Z
    if d in (3, 6):
        return Zzeta6
    if d == 4:
        return Zi
    return _general_cyclotomic(d)


def ring_from_tag(tag: str) -> Ring:
    """The ring with this tag; `Zzeta<d>` takes d in plain decimal digits."""
    if not isinstance(tag, str):
        raise UsageError(f"a ring tag is a string, got {tag!r}")
    if tag == "Z":
        return Z
    if tag == "Q":
        return Q
    if tag == "Zi":
        return Zi
    if tag == "Zzeta6":
        return Zzeta6
    if tag == "Qi":
        return Qi
    d = tag[len("Zzeta"):]
    if tag.startswith("Zzeta") and d.isascii() and d.isdigit() and d[0] != "0":
        # refused before int(), which has a digit limit of its own
        if len(d) > len(str(_MAX_CYCLOTOMIC_INDEX)):
            raise UsageError(f"cyclotomic index of {len(d)} digits is above the cap "
                             f"of {_MAX_CYCLOTOMIC_INDEX}")
        return Cyclotomic(int(d))
    raise UsageError(f"unknown ring tag {tag!r}")


# ---------------------------------------------------------------------------
# Module-level operations.


def norm_sq(ring: Ring, x):
    """|x|^2 as an exact nonnegative rational (int where possible)."""
    return ring.norm_sq(ring.check_element(x))


def _disc_rows(t: int, w: tuple, d: int, bound: int, real: bool):
    """The pairs c = x + y*omega with norm(d*c - w) <= `bound`, for d >= 1,
    row by row in rising y; with `real`, only row y = 0.  Each row is
    (y, lo, hi), its x running from lo to hi (no x when lo > hi).

    Write d*c - w = A + B*omega, so A = d*x - w_a and B = d*y - w_b.  As
    4 * norm(A + B*omega) = (2A + tB)^2 + (4 - t^2) B^2, a row needs
    (4 - t^2) B^2 <= 4 * bound, and then 2d*x lies within 2w_a - tB +- r
    with r = isqrt(4 * bound - (4 - t^2) B^2).  This is the ellipse of
    centre w/d; the ball of norms up to a limit is w = 0, d = 1.
    """
    four, s = 4 * bound, 4 - t * t
    if four < 0:
        return
    top = isqrt(four // s)  # the largest |B|
    wa, wb = w
    first, last = -((top - wb) // d), (top + wb) // d
    if real:
        first, last = max(first, 0), min(last, 0)
    for y in range(first, last + 1):
        b = d * y - wb
        r, mid = isqrt(four - s * b * b), 2 * wa - t * b
        yield y, -((r - mid) // (2 * d)), (mid + r) // (2 * d)


def ball_rows(t: int, limit: int, real: bool):
    """The pairs with norm at most `limit`, zero included, row by row in
    rising b; with `real`, only row b = 0.  Each row is (b, lo, hi), its a
    running from lo to hi: the a with |2a + tb| <= isqrt(4 * limit - (4 -
    t^2) b^2), the ellipse of `_disc_rows` centred at 0."""
    return _disc_rows(t, (0, 0), 1, limit, real)


# The count of lattice points in a disc has no closed form, so a ball is
# walked one row at a time, and one with more rows than this is refused.
_MAX_BALL_ROWS = 10 ** 5
# A listed ball is built and sorted element by element: 10^5 Gaussian
# integers take about 0.1 s and 20 MB on one Xeon core, and the search's
# largest ball has 1,044 elements (Z[w] at height 16).
_MAX_BALL_ELEMENTS = 10 ** 5


def _ball(ring: Ring, bound_sq):
    """The rows of the ball of norm at most bound_sq (`ball_rows`), none for
    a negative bound.  `UsageError` past `_MAX_BALL_ROWS` rows: 2 *
    isqrt(4 * bound_sq // (4 - t^2)) + 1 of them, or 1 over Z."""
    # norms are integers, and Z is the b = 0 row
    if not ring.is_discrete:
        raise UnsupportedRingError(f"{ring.tag} is not discrete")
    if not isinstance(bound_sq, bool):
        try:
            limit = math.floor(bound_sq)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            rows = 1 if ring is Z else 2 * isqrt(max(0, 4 * limit // (4 - ring.t ** 2))) + 1
            if rows > _MAX_BALL_ROWS:
                raise UsageError(f"the ball of norm at most B_sq={bound_sq} has {rows} rows, "
                                 f"more than the {_MAX_BALL_ROWS} that are counted one by one")
            return ball_rows(ring.t, limit, ring is Z)
    raise UsageError(f"a norm bound is a finite real number, got {bound_sq!r}")


def elements_norm_at_most(ring: Ring, bound_sq) -> list:
    """All nonzero x with norm_sq(x) <= bound_sq, sorted by the total order;
    `UsageError`, before any is built, when there are more than
    `_MAX_BALL_ELEMENTS` of them or the ball has too many rows."""
    size = count_norm_at_most(ring, bound_sq)
    if size > _MAX_BALL_ELEMENTS:
        raise UsageError(f"the ball of norm at most B_sq={bound_sq} has {size} elements, "
                         f"more than the {_MAX_BALL_ELEMENTS} that are listed one by one")
    out = [a if ring is Z else ring.element(a, b)
           for b, lo, hi in _ball(ring, bound_sq) for a in range(lo, hi + 1) if a or b]
    out.sort(key=ring.sort_key)
    return out


def count_norm_at_most(ring: Ring, bound_sq) -> int:
    """len(elements_norm_at_most(ring, bound_sq)), summed from the row widths
    and so with no element cap; `UsageError` past `_MAX_BALL_ROWS` rows."""
    return sum(hi - lo + (b != 0) for b, lo, hi in _ball(ring, bound_sq))  # row 0 holds zero


def _field_stream(ring: Ring):
    """Deterministic stream of nonzero field elements, small ones first:
    those with numerators and denominator of height at most h, for
    h = 1, 2, ..., each height's new ones in the order of `sort_key`.
    Over Q the imaginary numerator is 0."""
    seen = set()
    height = 1
    while True:
        span = range(-height, height + 1)
        batch = {Fraction(p, q) if ring is Q else _qi(p, i, q)
                 for p in span for i in (span if ring is Qi else (0,))
                 for q in range(1, height + 1) if p or i} - seen
        seen |= batch
        yield from sorted(batch, key=ring.sort_key)
        height += 1


def _cyclotomic_divisor_stream(ring: CyclotomicRing):
    """Stream the units +/- zeta^a u^k, k = 0, 1, ..., each once: units
    divide 2.  u = 1 + zeta + ... + zeta^(j-1) for the least j >= 2 that
    makes u a unit of infinite order, so the stream never ends.

    A unit u is of finite order exactly when it is a root of unity, and
    the roots of unity of Z[zeta_d] have orders dividing 2d.  For d not in
    {1, 2, 3, 4, 6} the least j prime to d qualifies: u = (1 - zeta^j) /
    (1 - zeta) is then a unit, and |u| = sin(j pi/d) / sin(pi/d) is not 1
    unless j = d - 1.  Where 1 + zeta qualifies, j = 2: every odd d, and
    d = 12."""
    zetas = []
    for pairs in ring._pow:
        coeffs = [0] * ring.phi
        for i, c in pairs:
            coeffs[i] = c
        zetas.append(_cyclo(ring, tuple(coeffs)))
    for j in range(2, ring.d):
        u = sum(zetas[1:j], ring.one)
        root = ring.one
        for _ in range(2 * ring.d):
            root = root * u
        if root != ring.one and ring.exact_div(ring.one, u) is not None:
            break
    else:
        raise RuntimeError(f"no unit of infinite order found in {ring.tag}")
    seen = set()
    power = ring.one
    while True:
        for zeta_a in zetas:
            for t in (zeta_a * power, -(zeta_a * power)):
                if t not in seen:
                    seen.add(t)
                    yield t
        power = power * u


def divisors_of_two(ring: Ring, limit: int) -> list:
    """Up to `limit` distinct t with 2/t in the ring.

    For the discrete rings the complete finite set is returned whenever it is
    smaller than the limit.  For fields and general cyclotomic rings the
    result is a deterministic prefix of an infinite family, so it always
    has `limit` members: nonzero elements of small height in a field, and
    units +/- zeta^a u^k of Z[zeta_d], u a fixed unit of infinite order
    (`_cyclotomic_divisor_stream`).
    """
    if _check_int(limit, "the limit") <= 0:
        return []
    two = ring.from_int(2)
    if ring.is_discrete:
        # |t|^2 divides |2|^2 = 4, so candidates have norm at most 4
        full = [t for t in elements_norm_at_most(ring, 4)
                if ring.exact_div(two, t) is not None]
        return full[:limit]
    if ring in (Q, Qi):
        stream = _field_stream(ring)
    elif isinstance(ring, CyclotomicRing):
        stream = _cyclotomic_divisor_stream(ring)
    else:
        raise UnsupportedRingError(f"no divisor enumeration for {ring.tag}")
    return list(islice(stream, limit))
