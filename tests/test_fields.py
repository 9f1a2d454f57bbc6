import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fischerlab.errors import NumericalError
from fischerlab.fields import (GaussianRational, fraction_sqrt, gaussian_sqrt, is_exact_scalar,
                               to_exact)


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_ring_operations():
    a, b = G("3/4", "1/2"), G(-2, "5/3")
    assert a + b == G("-5/4", "13/6")
    assert a - b == G("11/4", "-7/6")
    assert a * b == (b * a)
    assert a * b == G(Fraction(3, 4) * -2 - Fraction(1, 2) * Fraction(5, 3),
                      Fraction(3, 4) * Fraction(5, 3) + Fraction(1, 2) * -2)


def test_division_is_exact_inverse(rng):
    for _ in range(50):
        a = G(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
              Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        b = G(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
              Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        if not b:
            continue
        assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        G(1) / G(0)


def test_conjugation_is_ring_anti_automorphism(rng):
    for _ in range(20):
        a = G(rng.randint(-5, 5), rng.randint(-5, 5))
        b = G(rng.randint(-5, 5), rng.randint(-5, 5))
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert G(3, 0).conjugate() == G(3, 0)  # fixes rationals


def test_int_and_fraction_mixing():
    a = G("1/2", 1)
    assert a + 1 == G("3/2", 1)
    assert 2 * a == G(1, 2)
    assert a - Fraction(1, 2) == G(0, 1)
    assert 1 / G(0, 1) == G(0, -1)


def test_float_mixing_promotes_to_complex():
    a = G(1, 1)
    assert isinstance(a + 0.5, complex)
    assert a * 1j == complex(a) * 1j


def test_pow():
    i = G(0, 1)
    assert i ** 2 == G(-1)
    assert i ** 0 == G(1)
    assert G(2) ** -1 == G("1/2")


def test_eq_and_hash_with_rationals():
    assert G(2) == 2 and hash(G(2)) == hash(2)
    assert G("1/3") == Fraction(1, 3)
    assert hash(G("1/3")) == hash(Fraction(1, 3))
    assert G(1, 1) != 1


def test_abs_and_complex():
    assert abs(G(3, 4)) == 5.0
    assert complex(G("1/2", "-1/4")) == 0.5 - 0.25j
    # |c| of exact parts whose squares are past the double range, and of
    # parts themselves past it
    assert abs(G(3 * 10 ** 200, 4 * 10 ** 200)) == math.hypot(3e200, 4e200)
    with pytest.raises(NumericalError):
        abs(G(10 ** 400))


def test_exactness_predicates():
    assert is_exact_scalar(G(1)) and is_exact_scalar(3) and is_exact_scalar(Fraction(1, 2))
    assert not is_exact_scalar(0.5)
    with pytest.raises(TypeError):
        to_exact(0.5)


def test_fraction_sqrt():
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert fraction_sqrt(Fraction(2)) is None
    assert fraction_sqrt(Fraction(0)) == 0
    assert fraction_sqrt(Fraction(-1)) is None


def test_gaussian_sqrt_cases():
    assert gaussian_sqrt(G(9)) == G(3)
    assert gaussian_sqrt(G(-4)) == G(0, 2)
    root = gaussian_sqrt(G(0, 2))          # sqrt(2i) = 1 + i
    assert root == G(1, 1)
    assert gaussian_sqrt(G(2)) is None     # irrational
    assert gaussian_sqrt(G(0, 1)) is None  # sqrt(i) needs sqrt(1/2)
    a = G("9/4", "-3/2")
    root = gaussian_sqrt(a * a)
    assert root is not None and root * root == a * a


# ---------------------------------------------------------------------------
# the Z[i]-numerator class against the two-Fraction class it replaced

class PairGaussian:
    """The former GaussianRational: a pair of Fractions, kept as the oracle."""

    __slots__ = ("_re", "_im")

    def __init__(self, re=0, im=0):
        self._re = re if isinstance(re, Fraction) else Fraction(re)
        self._im = im if isinstance(im, Fraction) else Fraction(im)

    @property
    def real(self):
        return self._re

    @property
    def imag(self):
        return self._im

    def conjugate(self):
        return PairGaussian(self._re, -self._im)

    def __bool__(self):
        return bool(self._re) or bool(self._im)

    def __add__(self, other):
        if isinstance(other, PairGaussian):
            return PairGaussian(self._re + other._re, self._im + other._im)
        if isinstance(other, (int, Fraction)):
            return PairGaussian(self._re + other, self._im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PairGaussian(-self._re, -self._im)

    def __sub__(self, other):
        if isinstance(other, (PairGaussian, int, Fraction)):
            return self + (-other if isinstance(other, PairGaussian) else PairGaussian(-other))
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return PairGaussian(other - self._re, -self._im)
        if isinstance(other, (float, complex)):
            return other - complex(self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, PairGaussian):
            return PairGaussian(self._re * other._re - self._im * other._im,
                                self._re * other._im + self._im * other._re)
        if isinstance(other, (int, Fraction)):
            return PairGaussian(self._re * other, self._im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return PairGaussian(self._re / other, self._im / other)
        if isinstance(other, PairGaussian):
            d = other._re * other._re + other._im * other._im
            if not d:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return (self * other.conjugate()) / d
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return PairGaussian(other) / self
        if isinstance(other, (float, complex)):
            return other / complex(self)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return PairGaussian(1) / self ** (-n)
        out = PairGaussian(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, PairGaussian):
            return self._re == other._re and self._im == other._im
        if isinstance(other, (int, Fraction)):
            return self._im == 0 and self._re == other
        return NotImplemented

    def __hash__(self):
        if self._im == 0:
            return hash(self._re)
        return hash((self._re, self._im))

    def __abs__(self):
        return math.hypot(float(self._re), float(self._im))

    def __complex__(self):
        return complex(float(self._re), float(self._im))

    def __repr__(self):
        return f"GaussianRational({self._re!s}, {self._im!s})"

    def __str__(self):
        if self._im == 0:
            return str(self._re)
        sign = "+" if self._im >= 0 else "-"
        return f"({self._re}{sign}{abs(self._im)}i)"


def canonical(z) -> bool:
    re, im, den = z.parts()
    return den > 0 and math.gcd(re, im, den) == 1


def outcome(fn, *args):
    """A comparable record of fn(*args): the value's kind and exact text
    (repr keeps every float bit and the sign of zero), or the exception type."""
    try:
        v = fn(*args)
    except (ZeroDivisionError, TypeError, OverflowError) as exc:
        return ("raises", type(exc))
    if isinstance(v, GaussianRational):
        assert canonical(v), v.parts()
        return ("exact", v.real, v.imag)
    if isinstance(v, PairGaussian):
        return ("exact", v.real, v.imag)
    return (type(v).__name__, repr(v))


def pair_of(x):
    """The oracle's operand for a value given to the new class."""
    return PairGaussian(x.real, x.imag) if isinstance(x, GaussianRational) else x


small_ints = st.integers(-12, 12)
fractions_ = st.one_of(st.builds(Fraction, small_ints, st.integers(1, 12)),
                       st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
                                 st.integers(1, 2 ** 40)))
exact_values = st.builds(GaussianRational, fractions_, fractions_)
operands = st.one_of(exact_values, small_ints, fractions_,
                     st.floats(-1e6, 1e6, allow_nan=False),
                     st.complex_numbers(max_magnitude=1e6, allow_nan=False),
                     st.just(0), st.just(Fraction(0)), st.just(GaussianRational(0)))
BINARY = [operator.add, operator.sub, operator.mul, operator.truediv,
          operator.eq, operator.ne]


@given(exact_values, operands)
def test_binary_operators_match_the_fraction_pair(a, b):
    old_a, old_b = pair_of(a), pair_of(b)
    for op in BINARY:
        assert outcome(op, a, b) == outcome(op, old_a, old_b), op
        assert outcome(op, b, a) == outcome(op, old_b, old_a), op  # reflected


@given(exact_values, st.integers(-4, 6))
def test_unary_operations_match_the_fraction_pair(a, n):
    old = pair_of(a)
    for fn in (operator.neg, GaussianRational.conjugate, bool, abs, complex, str, repr,
               hash, lambda z: z.real, lambda z: z.imag, lambda z: z ** n):
        expect = fn if fn is not GaussianRational.conjugate else PairGaussian.conjugate
        assert outcome(fn, a) == outcome(expect, old)
    assert canonical(a)


@given(fractions_)
def test_real_values_hash_and_compare_as_rationals(x):
    z = GaussianRational(x)
    assert z == x and x == z and hash(z) == hash(x)
    n = x.numerator
    assert (z == n) is (n == z) is (x.denominator == 1)
    if x.denominator == 1:
        assert hash(z) == hash(n)
    assert z != x + 1 and z != GaussianRational(x, 1)


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30),
       st.integers(-10 ** 30, 10 ** 30).filter(bool))
def test_from_parts_reduces(re, im, den):
    z = GaussianRational.from_parts(re, im, den)
    assert canonical(z)
    assert (z.real, z.imag) == (Fraction(re, den), Fraction(im, den))
    assert z == GaussianRational(Fraction(re, den), Fraction(im, den))
    assert GaussianRational.from_parts(*z.parts()).parts() == z.parts()


@pytest.mark.parametrize("re, im", [(3, -4), ("1/2", "-3/4"), (Fraction(6, 4), 0),
                                    (0.25, 2), ("7", Fraction(-1, 3)), (True, 0)])
def test_constructor_accepts_what_fraction_accepts(re, im):
    z = GaussianRational(re, im)
    assert canonical(z)
    assert (z.real, z.imag) == (Fraction(re), Fraction(im))


def test_every_division_by_zero_raises():
    a = G("3/4", "1/2")
    zeros = [0, Fraction(0), G(0)]
    for zero in zeros:
        with pytest.raises(ZeroDivisionError):
            a / zero
    for num in [1, Fraction(1, 2), a]:
        with pytest.raises(ZeroDivisionError):
            num / G(0)
    with pytest.raises(ZeroDivisionError):
        G(0) ** -1
    with pytest.raises(ZeroDivisionError):
        GaussianRational.from_parts(1, 2, 0)


def test_conversions_round_like_fraction_to_float():
    # huge and tiny parts: int / int rounds correctly, as float(Fraction) does
    for re, im in [(Fraction(10 ** 400 + 1, 3 * 10 ** 390), Fraction(-1, 7)),
                   (Fraction(1, 3 ** 700), Fraction(2 ** 80 + 1, 3))]:
        assert repr(complex(G(re, im))) == repr(complex(float(re), float(im)))
        assert abs(G(re, im)) == math.hypot(float(re), float(im))
    # past the double range both conversions are a numerical failure
    for convert in (complex, abs):
        with pytest.raises(NumericalError):
            convert(G(10 ** 400))
    # and so is a float divided by an exact value that rounds to 0
    with pytest.raises(NumericalError):
        1.0 / G(Fraction(1, 10 ** 400))
