"""Coefficient backends.

Two fields are supported throughout the package: exact Gaussian rationals
(a Gaussian-integer numerator over one positive denominator, all three
arbitrary-precision ints) and double-precision complex numbers.  The exact
field keeps every ring operation and division error-free, so algebraic
identities can be asserted with ``==``; the float field is what the
numerical layers (SVD sweeps, Monte Carlo) consume.

Both coefficient kinds expose ``.real``, ``.imag`` and ``.conjugate()``,
so generic code can treat them uniformly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NumericalError

EXACT = "exact"
FLOAT = "float"


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Stored as (re + i im) / den over three ints in canonical form, den > 0
    and gcd(re, im, den) == 1, so equal values have equal parts and ``==``
    compares ints.  Arithmetic with ``int`` and ``Fraction`` stays exact;
    mixing with ``float`` or ``complex`` promotes the result to ``complex``.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._re, self._im, self._den = re, im, 1
            return
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        # the lcm of two reduced denominators leaves no common factor
        den = math.lcm(re.denominator, im.denominator)
        self._re = re.numerator * (den // re.denominator)
        self._im = im.numerator * (den // im.denominator)
        self._den = den

    @staticmethod
    def from_parts(re: int, im: int, den: int) -> "GaussianRational":
        """(re + i im) / den, reduced; ZeroDivisionError when den is 0."""
        if not den:
            raise ZeroDivisionError("division by zero Gaussian rational")
        g = math.gcd(re, im, den)
        if den < 0:
            g = -g
        return _canonical(re // g, im // g, den // g)

    def parts(self) -> tuple:
        """(re, im, den) with self == (re + i im) / den, in canonical form."""
        return self._re, self._im, self._den

    @property
    def real(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def imag(self) -> Fraction:
        return Fraction(self._im, self._den)

    def conjugate(self) -> "GaussianRational":
        return _canonical(self._re, -self._im, self._den)

    def __bool__(self):
        return bool(self._re or self._im)

    def __add__(self, other):
        o = _exact_parts(other)
        if o is None:
            return complex(self) + other if isinstance(other, (float, complex)) else NotImplemented
        br, bi, e = o
        d = self._den
        if d == e:
            return _from_parts(self._re + br, self._im + bi, d)
        return _from_parts(self._re * e + br * d, self._im * e + bi * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(-self._re, -self._im, self._den)

    def __sub__(self, other):
        o = _exact_parts(other)
        if o is None:
            return complex(self) - other if isinstance(other, (float, complex)) else NotImplemented
        return self + _canonical(-o[0], -o[1], o[2])

    def __rsub__(self, other):
        o = _exact_parts(other)
        if o is None:
            return other - complex(self) if isinstance(other, (float, complex)) else NotImplemented
        return -self + _canonical(*o)

    def __mul__(self, other):
        o = _exact_parts(other)
        if o is None:
            return complex(self) * other if isinstance(other, (float, complex)) else NotImplemented
        br, bi, e = o
        ar, ai = self._re, self._im
        return _from_parts(ar * br - ai * bi, ar * bi + ai * br, self._den * e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _exact_parts(other)
        if o is None:
            return complex(self) / other if isinstance(other, (float, complex)) else NotImplemented
        return _quotient(self._re, self._im, self._den, *o)

    def __rtruediv__(self, other):
        o = _exact_parts(other)
        if o is None:
            if not isinstance(other, (float, complex)):
                return NotImplemented
            z = complex(self)
            if self and not z:
                raise NumericalError("an exact divisor underflows to 0 in floats")
            return other / z
        return _quotient(*o, self._re, self._im, self._den)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return _ONE / self ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if other.__class__ is int:  # the common test c == 0
            return self._re == other and not self._im and self._den == 1
        o = _exact_parts(other)
        if o is None:
            return NotImplemented
        return self._re == o[0] and self._im == o[1] and self._den == o[2]

    def __hash__(self):
        if not self._im:
            return hash(self.real)
        return hash((self.real, self.imag))

    def __abs__(self) -> float:
        return math.hypot(*self._float_parts())

    def __complex__(self) -> complex:
        return complex(*self._float_parts())

    def _float_parts(self) -> tuple:
        """(real, imag) as correctly rounded floats (int / int): the one
        conversion of an exact value to floats; NumericalError past their range."""
        try:
            return self._re / self._den, self._im / self._den
        except OverflowError:
            raise NumericalError("an exact value exceeds the float range") from None

    def __repr__(self):
        return f"GaussianRational({self.real!s}, {self.imag!s})"

    def __str__(self):
        if not self._im:
            return str(self.real)
        sign = "+" if self._im >= 0 else "-"
        return f"({self.real}{sign}{abs(self.imag)}i)"


def _canonical(re, im, den):
    """A GaussianRational from parts already in canonical form."""
    z = object.__new__(GaussianRational)
    z._re, z._im, z._den = re, im, den
    return z


_from_parts = GaussianRational.from_parts
_ONE = GaussianRational(1)


def _exact_parts(x):
    """(re, im, den) of an int, Fraction or GaussianRational; None otherwise."""
    if isinstance(x, GaussianRational):
        return x._re, x._im, x._den
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


def _quotient(ar, ai, d, br, bi, e):
    """((ar + i ai) / d) / ((br + i bi) / e): times the conjugate, over the norm."""
    return _from_parts((ar * br + ai * bi) * e, (ai * br - ar * bi) * e,
                       d * (br * br + bi * bi))


def gaussian_integers(values) -> tuple:
    """(numerators, den): the Gaussian rationals ``values`` as (re, im) int
    pairs over one denominator, the lcm of theirs (1 for no values), so
    that values[i] == (re_i + i im_i) / den."""
    parts = [c.parts() for c in values]
    den = math.lcm(*(d for _, _, d in parts))
    return [(re, im) if d == den else (re * (den // d), im * (den // d))
            for re, im, d in parts], den


def dyadic(z) -> GaussianRational:
    """Float or complex z exactly, the inverse of ``_float_parts``;
    NumericalError for inf or nan."""
    try:
        return GaussianRational(Fraction(z.real), Fraction(z.imag))
    except (OverflowError, ValueError):
        raise NumericalError("a float value is not finite") from None


def is_exact_scalar(c) -> bool:
    return isinstance(c, (GaussianRational, int, Fraction))


def to_exact(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(c)
    raise TypeError(f"cannot represent {type(c).__name__} exactly")


def abs_sq(c):
    """|c|^2, exact (Fraction) for exact scalars, float otherwise."""
    if isinstance(c, GaussianRational):
        return Fraction(c._re * c._re + c._im * c._im, c._den * c._den)
    if isinstance(c, (int, Fraction)):
        return c * c
    return c.real * c.real + c.imag * c.imag


def fraction_sqrt(f: Fraction):
    """Exact square root of a non-negative rational, or None."""
    if f < 0:
        return None
    if f == 0:
        return Fraction(0)
    n, d = f.numerator, f.denominator
    sn, sd = math.isqrt(n), math.isqrt(d)
    if sn * sn == n and sd * sd == d:
        return Fraction(sn, sd)
    return None


def gaussian_sqrt(c: GaussianRational):
    """Exact square root within the Gaussian rationals, or None.

    Solves (u + iv)^2 = c; a solution exists in the field iff |c| and
    (Re c + |c|)/2 are rational squares.
    """
    a, b = c.real, c.imag
    if b == 0:
        if a >= 0:
            u = fraction_sqrt(a)
            return None if u is None else GaussianRational(u, 0)
        v = fraction_sqrt(-a)
        return None if v is None else GaussianRational(0, v)
    t = fraction_sqrt(a * a + b * b)
    if t is None:
        return None
    u = fraction_sqrt((a + t) / 2)
    if u is None or u == 0:
        return None
    root = GaussianRational(u, b / (2 * u))
    if root * root == c:
        return root
    return None
