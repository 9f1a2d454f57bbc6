"""Sparse multivariate polynomials and multi-index combinatorics.

A polynomial is a map from exponent tuples to nonzero coefficients, over
either the exact Gaussian-rational field or complex doubles (see
:mod:`fischerlab.fields`).  The monomial order used for every basis and
matrix in the package is graded lexicographic: degree first, then
lexicographic with the first variable most significant, so for d = 2 and
degree 3 the order is (3,0), (2,1), (1,2), (0,3).  No sort key stands
for it: ``enumerate_monomials`` lists one degree in it, ``grlex_rank``
ranks exponents within their degree (its inverse), and
``Poly.sorted_terms`` orders terms by two stable sorts, exponent tuples
descending, then degree ascending.

The zero polynomial has degree ``NEG_INF`` and counts as homogeneous of
every degree.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
from fractions import Fraction
from itertools import combinations
from operator import add
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatchError, FormatError, InvalidInputError, NumericalError
from .fields import EXACT, FLOAT, GaussianRational, dyadic, is_exact_scalar, to_exact

NEG_INF = float("-inf")
DIM_CAP = 20000  # the most monomials a slice map builds at its target degree


# ---------------------------------------------------------------------------
# multi-index helpers (exponent tuples)

def midx_factorial(alpha) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def midx_add(alpha, beta):
    return tuple(a + b for a, b in zip(alpha, beta))


def midx_sub(beta, alpha):
    """beta - alpha componentwise, or None if any entry would go negative."""
    out = []
    for b, a in zip(beta, alpha):
        if b < a:
            return None
        out.append(b - a)
    return tuple(out)


def falling_product(beta, alpha) -> int:
    """beta! / (beta - alpha)! assuming beta >= alpha componentwise."""
    out = 1
    for b, a in zip(beta, alpha):
        for i in range(b - a + 1, b + 1):
            out *= i
    return out


def count_monomials(d: int, m: int) -> int:
    """Number of monomials of degree m in d variables: C(m+d-1, d-1)."""
    return math.comb(m + d - 1, d - 1)


def enumerate_monomials(d: int, m: int) -> list:
    """All exponent tuples with |alpha| = m in graded-lex order.

    Stars and bars: a monomial of degree m places d - 1 bars among
    m + d - 1 slots, its exponents are the runs of stars between them, and
    bar positions in reverse lexicographic order give graded-lex order.
    """
    if d < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {d}")
    if m < 0:
        raise InvalidInputError(f"degree must be >= 0, got {m}")
    if d == 1:
        return [(m,)]
    n = m + d - 1
    out = []
    for bars in combinations(range(n), d - 1):
        prev, alpha = -1, []
        for b in bars:
            alpha.append(b - prev - 1)
            prev = b
        alpha.append(n - prev - 1)
        out.append(tuple(alpha))
    out.reverse()
    return out


def grlex_rank(alpha: np.ndarray) -> np.ndarray:
    """Index of each exponent row of ``alpha`` (shape (..., d)) in the
    graded-lex list of its degree: sum over i < d - 1 of
    C(tail_{i+1} + d - i - 2, d - i - 1), tail_j = alpha_j + ... + alpha_{d-1},
    which counts the monomials that lead at position i."""
    d = alpha.shape[-1]
    tails = np.cumsum(alpha[..., ::-1], axis=-1)[..., ::-1]
    rank = np.zeros(alpha.shape[:-1], dtype=np.int64)
    for i in range(d - 1):
        r = d - i - 1
        n = tails[..., i + 1] + r - 1
        comb = np.ones_like(n)
        for j in range(r):  # C(n, j + 1) = C(n, j) (n - j) / (j + 1), exactly
            comb = comb * (n - j) // (j + 1)
        rank += comb
    return rank


# ---------------------------------------------------------------------------
# polynomial values

def _merge_into(acc: dict, part, plus=add, zero=0) -> None:
    """acc += part termwise, dropping sums that cancel: Poly addition's
    rule, which also fixes the key order that later sums run in."""
    for key, v in part.items():
        if key in acc:
            s = plus(acc[key], v)
            if s == zero:
                del acc[key]
            else:
                acc[key] = s
        else:
            acc[key] = v


class Poly:
    """Immutable sparse polynomial over one of the two coefficient fields.

    ``terms`` maps exponent tuples to nonzero coefficients.  The field is
    inferred from the coefficients unless forced; two operands meet by
    ``_one_field``, so mixing exact and float promotes both to float.
    ``Poly(...)`` validates its input; results the package builds from its
    own polynomials are wrapped by ``_canonical`` instead.  A float Poly is
    finite: ``Poly(...)`` and ``_from_sums`` (float sums, products and
    ``apply_diff_op``) refuse an inf or nan coefficient with NumericalError.
    Exact kernels compute on ``numerators()``, read once and kept.
    """

    __slots__ = ("dim", "_terms", "field", "_nums")

    def __init__(self, dim: int, terms=None, field=None):
        if dim < 1:
            raise InvalidInputError(f"dimension must be >= 1, got {dim}")
        items = []
        if terms:
            for alpha, c in (terms.items() if hasattr(terms, "items") else terms):
                alpha = tuple(alpha)
                # exact type check: bool is an int subclass
                if len(alpha) != dim or any(type(a) is not int or a < 0 for a in alpha):
                    raise InvalidInputError(f"bad exponent {alpha} for dimension {dim}")
                if c == 0:
                    continue
                items.append((alpha, c))
        if field is None:
            field = EXACT if all(is_exact_scalar(c) for _, c in items) else FLOAT
        store = {}
        for alpha, c in items:
            try:
                c = to_exact(c) if field == EXACT else complex(c)
            except TypeError as exc:
                raise InvalidInputError(f"coefficient {c!r} is not in the {field} field") from exc
            if alpha in store:
                c = store[alpha] + c
            if c == 0:
                store.pop(alpha, None)
            else:
                store[alpha] = c
        if field == FLOAT and not all(map(cmath.isfinite, store.values())):
            raise NumericalError("a float coefficient is not finite")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", store)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_nums", None)

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _canonical(cls, dim: int, store: dict, field) -> "Poly":
        """Wrap ``store`` unchecked, taking it over.  The caller guarantees
        what ``__init__`` would have built: exponent tuples of length dim,
        nonzero coefficients of the field's type (GaussianRational or
        complex), in the order ``__init__`` would have inserted them."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "_terms", store)
        object.__setattr__(p, "field", field)
        object.__setattr__(p, "_nums", None)
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, field=EXACT) -> "Poly":
        if dim < 1:
            raise InvalidInputError(f"dimension must be >= 1, got {dim}")
        return cls._canonical(dim, {}, field)

    @classmethod
    def constant(cls, dim: int, c, field=None) -> "Poly":
        return cls(dim, {(0,) * dim: c}, field=field)

    @classmethod
    def variable(cls, dim: int, j: int, field=EXACT) -> "Poly":
        if not 0 <= j < dim:
            raise InvalidInputError(f"variable index {j} out of range for dimension {dim}")
        alpha = tuple(1 if i == j else 0 for i in range(dim))
        return cls(dim, {alpha: 1}, field=field)

    @classmethod
    def monomial(cls, dim: int, alpha, c=1, field=None) -> "Poly":
        return cls(dim, {tuple(alpha): c}, field=field)

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def numerators(self) -> tuple:
        """(pairs, den) of an exact Poly: each exponent, in term order, to ints
        (re, im) with coefficient (re + i im) / den; den is the lcm of their
        denominators (1 for zero) unless ``_from_numerators`` kept its own."""
        if self._nums is None:
            parts = [c.parts() for c in self._terms.values()]
            den = math.lcm(*(d for _, _, d in parts))
            pairs = {a: (re, im) if d == den else (re * (den // d), im * (den // d))
                     for a, (re, im, d) in zip(self._terms, parts)}
            object.__setattr__(self, "_nums", (pairs, den))
        return self._nums

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(sum(a) for a in self._terms)

    def coefficient(self, alpha):
        alpha = tuple(alpha)
        if alpha in self._terms:
            return self._terms[alpha]
        return GaussianRational(0) if self.field == EXACT else 0j

    def is_homogeneous(self, j=None) -> bool:
        """Whether all terms share one degree (equal to j, if given).

        The zero polynomial is homogeneous of every degree.
        """
        if not self._terms:
            return True
        degs = {sum(a) for a in self._terms}
        if len(degs) > 1:
            return False
        return j is None or degs == {j}

    def homogeneous_component(self, j: int) -> "Poly":
        return Poly._canonical(self.dim, {a: c for a, c in self._terms.items() if sum(a) == j},
                               self.field)

    def homogeneous_components(self) -> dict:
        """Nonzero components keyed by degree, ascending."""
        buckets = {}
        for a, c in self._terms.items():
            buckets.setdefault(sum(a), {})[a] = c
        return {m: Poly._canonical(self.dim, t, self.field)
                for m, t in sorted(buckets.items())}

    def sorted_terms(self):
        """Terms in graded-lex order (degree ascending): two stable sorts,
        exponents descending, then degree ascending."""
        keys = sorted(self._terms, reverse=True)
        keys.sort(key=sum)
        return list(zip(keys, map(self._terms.__getitem__, keys)))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction, float, complex, GaussianRational)):
                other = Poly.constant(self.dim, other)
            else:
                return NotImplemented
        a, b = _one_field(self, other)
        store = dict(a._terms)
        _merge_into(store, b._terms)
        if a.field == FLOAT:
            return _from_sums(a.dim, store)
        return Poly._canonical(a.dim, store, EXACT)

    __radd__ = __add__

    def __neg__(self):
        return Poly._canonical(self.dim, {a: -c for a, c in self._terms.items()}, self.field)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -Poly.constant(self.dim, other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction, float, complex, GaussianRational)):
                return self.scale(other)
            return NotImplemented
        a, b = _one_field(self, other)
        if a.is_zero or b.is_zero:
            return Poly.zero(a.dim, a.field)
        if a.field == EXACT:
            (pa, da), (pb, db) = a.numerators(), b.numerators()
            return _from_numerators(a.dim, _gaussian_products(pa.items(), pb.items()), da * db)
        return _from_sums(a.dim, _float_products(a._terms.items(), b._terms.items()))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        field = EXACT if self.field == EXACT and is_exact_scalar(c) else FLOAT
        return Poly(self.dim, {a: v * c for a, v in self._terms.items()}, field=field)

    def __truediv__(self, c):
        if isinstance(c, Poly):
            return NotImplemented
        if is_exact_scalar(c):  # 1.0 / c refuses an exact c that rounds to 0
            c = to_exact(c)
            return self.scale((GaussianRational(1) if self.field == EXACT else 1.0) / c)
        return self.scale(1.0 / complex(c))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InvalidInputError("polynomial powers must be non-negative ints")
        out = Poly.constant(self.dim, 1, field=self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.dim == other.dim and self.field == other.field
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.dim, self.field, frozenset(self._terms.items())))

    # -- calculus and conjugation -------------------------------------------

    def star(self) -> "Poly":
        """Polynomial with conjugated coefficients (an involution)."""
        return Poly._canonical(self.dim, {a: c.conjugate() for a, c in self._terms.items()},
                               self.field)

    def evaluate(self, z) -> complex:
        """Evaluate at a point, term by term.

        Returns an exact scalar when both the polynomial and the point are
        exact; complex otherwise.
        """
        z = tuple(z)
        if len(z) != self.dim:
            raise DimensionMismatchError(
                f"point has length {len(z)}, expected {self.dim}")
        total = None
        for alpha, c in self.sorted_terms():
            v = c
            for zj, aj in zip(z, alpha):
                if aj:
                    v = v * zj ** aj
            total = v if total is None else total + v
        if total is None:
            return GaussianRational(0) if self.field == EXACT else 0j
        return total

    __call__ = evaluate

    def to_float(self) -> "Poly":
        if self.field == FLOAT:
            return self
        # a GaussianRational can round to 0j
        return Poly._canonical(self.dim, {a: z for a, c in self._terms.items()
                                          if (z := complex(c))}, FLOAT)

    def __repr__(self):
        if self.is_zero:
            return f"Poly({self.dim}, 0)"
        bits = []
        for a, c in self.sorted_terms():
            mono = "*".join(f"z{j + 1}^{e}" for j, e in enumerate(a) if e)
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _one_field(a: Poly, b: Poly) -> tuple:
    """(a, b) ready to meet: DimensionMismatchError unless they share a
    dimension, as they are when they share a field, else both through
    ``Poly.to_float``.  The package's one rule for two operands."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.field == b.field:
        return a, b
    return a.to_float(), b.to_float()


def variables(d: int, field=EXACT):
    """Convenience tuple (z1, ..., zd) of coordinate polynomials."""
    return tuple(Poly.variable(d, j, field=field) for j in range(d))


def apply_diff_op(q: Poly, f: Poly) -> Poly:
    """Apply the constant-coefficient operator q(D) to f.

    Each variable of q acts as the corresponding partial derivative, so on
    monomials z^alpha(D) z^beta = beta!/(beta-alpha)! z^(beta-alpha) when
    beta >= alpha and 0 otherwise.  q and f meet by ``_one_field``.  Exact
    q and f sum Gaussian-integer numerators over the product of their
    common denominators and build one coefficient per term of the result.
    A float term whose weight leaves the double range is recomputed
    exactly and rounded once (NumericalError if the term is past it).
    """
    q, f = _one_field(q, f)
    if q.field == EXACT:
        (pq, dq), (pf, df) = q.numerators(), f.numerators()
        sums = {}
        for alpha, (cr, ci) in pq.items():
            for beta, (vr, vi) in pf.items():
                rest = midx_sub(beta, alpha)
                if rest is None:
                    continue
                w = falling_product(beta, alpha)
                s = sums.get(rest)
                if s is None:
                    sums[rest] = [(cr * vr - ci * vi) * w, (cr * vi + ci * vr) * w]
                else:
                    s[0] += (cr * vr - ci * vi) * w
                    s[1] += (cr * vi + ci * vr) * w
        return _from_numerators(f.dim, sums, dq * df)
    acc = {}
    for alpha, c in q._terms.items():
        for beta, v in f._terms.items():
            rest = midx_sub(beta, alpha)
            if rest is None:
                continue
            try:
                w = c * v * falling_product(beta, alpha)
            except OverflowError:  # the weight alone is past the double range
                try:
                    w = complex(dyadic(c * v) * falling_product(beta, alpha))
                except NumericalError:
                    raise NumericalError("a float term exceeds the float range") from None
            if rest in acc:
                acc[rest] = acc[rest] + w
            else:
                acc[rest] = w
    return _from_sums(f.dim, acc)


def _gaussian_products(a_terms, b_terms) -> dict:
    """Exponent sum -> [re, im]: the summed Z[i] products of two operands'
    (exponent, (re, im)) pairs, a outer, b (re-iterable) inner, zeros kept."""
    sums = {}
    for a, (ar, ai) in a_terms:
        for b, (br, bi) in b_terms:
            key = tuple(map(add, a, b))
            s = sums.get(key)
            if s is None:
                sums[key] = [ar * br - ai * bi, ar * bi + ai * br]
            else:
                s[0] += ar * br - ai * bi
                s[1] += ar * bi + ai * br
    return sums


def _float_products(a_terms, b_terms) -> dict:
    """Exponent sum -> coefficient: the summed products of two float
    operands' (exponent, coefficient) pairs, as _gaussian_products."""
    acc = {}
    for a, ca in a_terms:
        for b, cb in b_terms:
            key = tuple(map(add, a, b))
            prod = ca * cb
            if key in acc:
                acc[key] = acc[key] + prod
            else:
                acc[key] = prod
    return acc


def _from_sums(dim: int, acc: dict) -> Poly:
    """The float Poly of the term sums ``acc`` (one entry per exponent):
    its nonzero entries, in order; NumericalError if one is inf or nan."""
    if not all(map(cmath.isfinite, acc.values())):
        raise NumericalError("a float coefficient exceeds the float range")
    return Poly._canonical(dim, {a: c for a, c in acc.items() if c}, FLOAT)


def _from_numerators(dim: int, sums: dict, den: int) -> Poly:
    """The exact Poly of the Gaussian-integer term sums ``sums`` (exponent
    -> [re, im]) over den: its nonzero entries, in order, kept with den
    as its ``numerators()``."""
    make = GaussianRational.from_parts
    pairs = {a: s for a, s in sums.items() if s[0] or s[1]}
    p = Poly._canonical(dim, {a: make(re, im, den) for a, (re, im) in pairs.items()}, EXACT)
    object.__setattr__(p, "_nums", (pairs, den))
    return p


def sqrt_int(n: int, den: int = 1) -> float:
    """sqrt(n / den) for ints n >= 0, den > 0, rounding the ratio once and its
    root once as ``math.sqrt(n / den)`` does, also past the normal doubles,
    where the ratio is read as 4^s (n / (den 4^s)), scaling both roundings
    exactly (a subnormal root rounds once more); NumericalError past the range."""
    s = (n.bit_length() - den.bit_length()) // 2
    s = s if abs(s) > 500 else 0  # else n / den is a normal double
    try:
        return math.ldexp(math.sqrt(n / (den << 2 * s) if s >= 0 else (n << -2 * s) / den), s)
    except OverflowError:
        raise NumericalError("a square root exceeds the float range") from None


# log 2 = _LN2_HI + _LN2_LO, split so that s * _LN2_HI is exact for |s| < 2^21
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")


def log_ratio(n: int, den: int) -> float:
    """log(n / den) for ints n > 0, den > 0: a function of the value n / den
    alone, monotone in it and finite however far it lies past the double
    range.  A ratio in [1/2, 2] gives the log1p of the exact (n - den) / den
    rounded once; any other is read as 2^s q, q in [1, 2) rounded once, and
    gives s log 2 + log q, s log 2 in two parts of which the larger is exact.
    """
    if n <= 0 or den <= 0:
        raise ValueError("log_ratio needs n > 0 and den > 0")
    if den <= 2 * n and n <= 2 * den:
        return math.log1p((n - den) / den)
    s = n.bit_length() - den.bit_length()  # floor(log2 n / den) is s or s - 1
    s -= (n << max(-s, 0)) < (den << max(s, 0))
    q = n / (den << s) if s >= 0 else (n << -s) / den
    if q == 2.0:  # rounded up to the next power of two, which is then s + 1
        s, q = s + 1, 1.0
    return s * _LN2_HI + (math.log(q) + s * _LN2_LO)


def check_slice(pk: Poly, m: int) -> int:
    """k = deg pk, every slice map's first call: InvalidInputError unless pk
    is nonzero and homogeneous, m >= 0 and multiplication by pk from degree
    m reaches a degree m + k of at most ``DIM_CAP`` monomials."""
    degrees = {sum(alpha) for alpha in pk._terms}
    if len(degrees) != 1:
        raise InvalidInputError("pk must be nonzero" if not degrees else "pk must be homogeneous")
    k, = degrees
    if m < 0:
        raise InvalidInputError(f"no slice from degree {m} to {m + k}: degrees start at 0")
    if count_monomials(pk.dim, m + k) > DIM_CAP:
        raise InvalidInputError(f"the slice from degree {m} to {m + k} has more than {DIM_CAP} "
                                f"monomials at degree {m + k}")
    return k


def mult_pattern(pk: Poly, col_basis):
    """(rows, weights): where multiplication by homogeneous pk sends each
    column monomial, and with what exact weight.

    ``col_basis`` holds the source exponents beta of degree m, as an
    (N, d) int array or anything ``np.asarray`` reads as one.  Both
    results have shape (N, t), one column per term c z^gamma of pk in
    ``pk.sorted_terms()`` order.  ``rows[j, a]`` is the graded-lex rank
    (``grlex_rank``) of delta = beta_j + gamma_a in the slice of degree
    m + k, k = deg pk, so rows ascend along each row of the array.
    ``weights[j, a]`` is delta!/beta_j!, the exact integer falling product
    prod_i (beta_i + 1) ... (beta_i + gamma_i): int64 while
    (m + k)^k < 2^63, Python ints (object dtype) past that.  Every slice
    map of pk reads it, after ``check_slice``: ``mult_entries``,
    ``fischer.fischer_matrix`` and ``spectral.kernel_basis``.
    """
    k = int(pk.degree)
    beta = np.asarray(col_basis, dtype=np.int64).reshape(-1, pk.dim)
    gammas = np.array([gamma for gamma, _ in pk.sorted_terms()],
                      dtype=np.int64).reshape(-1, pk.dim)
    m = int(beta.sum(axis=1).max()) if len(beta) else 0
    base = beta if (m + k) ** k < 2 ** 63 else beta.astype(object)
    weights = np.ones((len(beta), len(gammas)), dtype=base.dtype)
    for col, gamma in enumerate(gammas.tolist()):
        for i, g in enumerate(gamma):
            for j in range(1, g + 1):
                weights[:, col] *= base[:, i] + j
    return grlex_rank(beta[:, None, :] + gammas[None, :, :]), weights


def mult_entries(pk: Poly, col_basis):
    """(rows, cols, vals): the nonzeros of multiplication by homogeneous pk
    in the orthonormal basis z^alpha/sqrt(alpha!), as numpy arrays.

    The pattern comes from ``mult_pattern``: each term c z^gamma puts
    c sqrt(delta!/beta!), delta = gamma + beta, in column beta and row
    delta.  The entries come column by column with pk's terms in
    graded-lex order, so rows ascend within each column (CSC order).  The
    exact weight delta!/beta! is rounded to float once, then one square
    root is taken per entry, by ``sqrt_int`` past the double range.  An
    entry past the range raises NumericalError.
    """
    rows, weights = mult_pattern(pk, col_basis)
    coeffs = np.array([complex(c) for _, c in pk.sorted_terms()], dtype=complex)
    roots = (np.sqrt(weights.astype(float)) if weights.dtype != object
             else np.array([sqrt_int(w) for w in weights.flat]).reshape(weights.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = coeffs * roots
    if not np.isfinite(vals).all():
        raise NumericalError("a multiplication matrix entry exceeds the float range")
    return rows.ravel(), np.repeat(np.arange(len(rows)), rows.shape[1]), vals.ravel()


def _floor_log2(c: GaussianRational) -> int:
    """floor(log2 max(|Re c|, |Im c|)) for nonzero exact c, from bit lengths."""
    re, im, den = c.parts()
    top = max(abs(re), abs(im))
    k = top.bit_length() - den.bit_length()  # floor(log2 top/den) is k or k - 1
    return k - ((top << max(-k, 0)) < (den << max(k, 0)))


def unit_scaled(p: Poly) -> tuple:
    """(2^-e p, e) for nonzero p, e = floor(log2 t) for t the largest real
    or imaginary part of p's coefficients in modulus, so that 2^-e p has
    its largest part in [1, 2): exact coefficients scale exactly, float
    ones (finite, as in every float Poly) by ``math.ldexp``, dropping any
    that underflow to 0; at e = 0 the result is p itself."""
    terms = p._terms
    if p.field == EXACT:
        e = max(map(_floor_log2, terms.values()))
        if not e:
            return p, 0
        factor = Fraction(2) ** -e
        return Poly._canonical(p.dim, {a: c * factor for a, c in terms.items()}, EXACT), e
    e = math.frexp(max(max(abs(c.real), abs(c.imag)) for c in terms.values()))[1] - 1
    if not e:
        return p, 0
    scaled = {a: complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)) for a, c in terms.items()}
    return Poly._canonical(p.dim, {a: c for a, c in scaled.items() if c}, FLOAT), e


# ---------------------------------------------------------------------------
# interchange format

def _rational_strings(c: GaussianRational):
    """The "num/den" strings of c's real and imaginary parts, each reduced.

    A number past Python's int-to-str limit (``sys.get_int_max_str_digits()``,
    4,300 digits by default) raises NumericalError: the readers refuse
    such digits, so nothing the package writes may hold them.
    """
    re, im, den = c.parts()
    g, h = math.gcd(re, den), math.gcd(im, den)
    try:
        return f"{re // g}/{den // g}", f"{im // h}/{den // h}"
    except ValueError:
        raise NumericalError(f"an exact value has more than {sys.get_int_max_str_digits()} "
                             "digits, past the limit that files are read with") from None


def poly_to_dict(p: Poly) -> dict:
    """JSON-ready form: {"dim": d, "terms": [{"exp", "re", "im"}, ...]}.

    Exact coefficients are written as "num/den" strings (bit-exact round
    trip); float coefficients as plain numbers.
    """
    terms = []
    for alpha, c in p.sorted_terms():
        re, im = _rational_strings(c) if p.field == EXACT else (c.real, c.imag)
        terms.append({"exp": list(alpha), "re": re, "im": im})
    return {"dim": p.dim, "terms": terms}


def poly_from_dict(obj) -> Poly:
    if not isinstance(obj, dict) or "dim" not in obj or "terms" not in obj:
        raise FormatError("polynomial object needs 'dim' and 'terms'")
    dim = obj["dim"]
    if type(dim) is not int or dim < 1:
        raise FormatError(f"bad dimension {dim!r}")
    if type(obj["terms"]) is not list:
        raise FormatError("'terms' must be a list")
    kinds = set()
    terms = {}
    for t in obj["terms"]:
        try:
            exp = tuple(t["exp"])
            re = t.get("re", 0)
            im = t.get("im", "0/1" if isinstance(re, str) else 0)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad term {t!r}") from exc
        if any(type(e) is not int for e in exp):  # rejects 1.7 and true alike
            raise FormatError(f"exponents must be integers in term {t!r}")
        for part in (re, im):
            # exact type check: bool is an int subclass; null and lists are not numbers
            if not isinstance(part, str) and type(part) not in (int, float):
                raise FormatError(f"coefficient is not a number or rational string: {t!r}")
            kinds.add("exact" if isinstance(part, str) else "float")
        if kinds == {"exact", "float"}:
            raise FormatError("terms mix rational strings and plain numbers")
        try:
            if isinstance(re, str):
                coeff = GaussianRational(Fraction(re), Fraction(im))
            else:
                coeff = complex(float(re), float(im))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise FormatError(f"bad coefficient in term {t!r}") from exc
        if exp in terms:
            raise FormatError(f"duplicate exponent {exp}")
        terms[exp] = coeff
    field = EXACT if kinds in ({"exact"}, set()) else FLOAT
    try:
        return Poly(dim, terms, field=field)
    except (InvalidInputError, NumericalError) as exc:  # a float inf or nan
        raise FormatError(str(exc)) from exc


def poly_json(p: Poly) -> str:
    """``json.dumps(poly_to_dict(p), indent=1) + "\n"``, byte for byte, built
    for this one schema without json's pure-Python indenting encoder: terms
    in ``sorted_terms()`` order, float parts (all finite) by ``repr``."""
    terms = p.sorted_terms()
    if p.field == EXACT:
        parts = [[f'"{s}"' for s in _rational_strings(c)] for _, c in terms]
    else:
        parts = [(repr(c.real), repr(c.imag)) for _, c in terms]
    sep = ",\n    "  # between exponents
    items = [f'  {{\n   "exp": [\n    {sep.join(map(str, alpha))}\n   ],\n   "re": {re},\n'
             f'   "im": {im}\n  }}' for (alpha, _), (re, im) in zip(terms, parts)]
    body = "[\n" + ",\n".join(items) + "\n ]" if items else "[]"
    return f'{{\n "dim": {p.dim},\n "terms": {body}\n}}\n'


def save_poly(p: Poly, path) -> None:
    """Write ``poly_json(p)`` to path by ``write_atomic``."""
    write_atomic(path, poly_json(p))


def write_atomic(path, text: str) -> None:
    """Write text to path through a temporary file in the same directory
    and one rename: readers see the old file or the whole new one, and a
    failed write leaves no partial file.  The temporary file is opened
    like any new file, so the umask sets its mode.  The package's only
    file writer."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".fischer-lab-{os.urandom(8).hex()}")
    fh = open(tmp, "x")  # exclusive: never another writer's file
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_json(path):
    """The JSON value in the file at path; a parse error is a FormatError
    that names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def load_poly(path) -> Poly:
    return poly_from_dict(load_json(path))
