"""Sparse multivariate polynomials and multi-index combinatorics.

A polynomial is a map from exponent tuples to nonzero coefficients, over
either the exact Gaussian-rational field or complex doubles (see
:mod:`fischerlab.fields`).  The monomial order used for every basis and
matrix in the package is graded lexicographic: degree first, then
lexicographic with the first variable most significant, so for d = 2 and
degree 3 the order is (3,0), (2,1), (1,2), (0,3).

The zero polynomial has degree ``NEG_INF`` and counts as homogeneous of
every degree.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from itertools import chain, combinations
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatchError, FormatError, InvalidInputError
from .fields import EXACT, FLOAT, GaussianRational, is_exact_scalar, to_exact

NEG_INF = float("-inf")


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


def grlex_key(alpha):
    """Sort key realizing the package-wide graded-lex order."""
    return (sum(alpha), tuple(-a for a in alpha))


def count_monomials(d: int, m: int) -> int:
    """Number of monomials of degree m in d variables: C(m+d-1, d-1)."""
    return math.comb(m + d - 1, d - 1)


def enumerate_monomials(d: int, m: int) -> list:
    """All exponent tuples with |alpha| = m in graded-lex order."""
    if d < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {d}")
    if m < 0:
        raise InvalidInputError(f"degree must be >= 0, got {m}")
    if d == 1:
        return [(m,)]
    out = []
    for first in range(m, -1, -1):
        for rest in enumerate_monomials(d - 1, m - first):
            out.append((first,) + rest)
    return out


def monomial_array(d: int, m: int) -> np.ndarray:
    """enumerate_monomials(d, m) as an (N, d) int64 array, built without
    recursion: a monomial of degree m places d - 1 bars among m + d - 1
    slots (stars and bars), and bar positions in reverse lexicographic
    order give the exponents in graded-lex order."""
    if d < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {d}")
    if m < 0:
        raise InvalidInputError(f"degree must be >= 0, got {m}")
    n, r = m + d - 1, d - 1
    count = math.comb(n, r)
    edges = np.empty((count, d + 1), dtype=np.int64)
    edges[:, 0] = -1
    edges[:, d] = n
    edges[:, 1:d] = np.fromiter(chain.from_iterable(combinations(range(n), r)),
                                dtype=np.int64, count=count * r).reshape(count, r)[::-1]
    return np.diff(edges, axis=1) - 1


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


def enumerate_up_to_degree(d: int, n: int) -> list:
    """All exponent tuples with |alpha| <= n, degrees ascending."""
    out = []
    for m in range(n + 1):
        out.extend(enumerate_monomials(d, m))
    return out


# ---------------------------------------------------------------------------
# polynomial values

def _coerce_exact(c):
    return c if isinstance(c, GaussianRational) else to_exact(c)


class Poly:
    """Immutable sparse polynomial over one of the two coefficient fields.

    ``terms`` maps exponent tuples to nonzero coefficients.  The field is
    inferred from the coefficients unless forced; mixing exact and float
    operands promotes to float.
    """

    __slots__ = ("dim", "_terms", "field")

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
                if c == 0 or (isinstance(c, GaussianRational) and not c):
                    continue
                items.append((alpha, c))
        if field is None:
            field = EXACT if all(is_exact_scalar(c) for _, c in items) else FLOAT
        store = {}
        for alpha, c in items:
            try:
                c = _coerce_exact(c) if field == EXACT else complex(c)
            except TypeError as exc:
                raise InvalidInputError(f"coefficient {c!r} is not in the {field} field") from exc
            if alpha in store:
                c = store[alpha] + c
            if c == 0 or (isinstance(c, GaussianRational) and not c):
                store.pop(alpha, None)
            else:
                store[alpha] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", store)
        object.__setattr__(self, "field", field)

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, field=EXACT) -> "Poly":
        return cls(dim, {}, field=field)

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
        return Poly(self.dim, {a: c for a, c in self._terms.items() if sum(a) == j},
                    field=self.field)

    def homogeneous_components(self) -> dict:
        """Nonzero components keyed by degree, ascending."""
        buckets = {}
        for a, c in self._terms.items():
            buckets.setdefault(sum(a), {})[a] = c
        return {m: Poly(self.dim, t, field=self.field)
                for m, t in sorted(buckets.items())}

    def sorted_terms(self):
        """Terms in graded-lex order (degree ascending)."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]))

    # -- ring operations ----------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction, float, complex, GaussianRational)):
                other = Poly.constant(self.dim, other)
            else:
                return NotImplemented
        self._check_dim(other)
        field = EXACT if self.field == EXACT and other.field == EXACT else FLOAT
        merged = list(self._terms.items()) + list(other._terms.items())
        return Poly(self.dim, merged, field=field)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.dim, {a: -c for a, c in self._terms.items()}, field=self.field)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -Poly.constant(self.dim, other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction, float, complex, GaussianRational)):
                return self.scale(other)
            return NotImplemented
        self._check_dim(other)
        field = EXACT if self.field == EXACT and other.field == EXACT else FLOAT
        if self.is_zero or other.is_zero:
            return Poly.zero(self.dim, field)
        acc = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                key = midx_add(a, b)
                prod = ca * cb
                if key in acc:
                    acc[key] = acc[key] + prod
                else:
                    acc[key] = prod
        return Poly(self.dim, acc, field=field)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        field = EXACT if self.field == EXACT and is_exact_scalar(c) else FLOAT
        return Poly(self.dim, {a: v * c for a, v in self._terms.items()}, field=field)

    def __truediv__(self, c):
        if isinstance(c, Poly):
            return NotImplemented
        if is_exact_scalar(c) and self.field == EXACT:
            inv = GaussianRational(1) / to_exact(c)
            return self.scale(inv)
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
        return Poly(self.dim, {a: c.conjugate() for a, c in self._terms.items()},
                    field=self.field)

    def derivative(self, alpha) -> "Poly":
        """Mixed partial derivative d^alpha applied to this polynomial."""
        alpha = tuple(alpha)
        out = {}
        for beta, c in self._terms.items():
            rest = midx_sub(beta, alpha)
            if rest is None:
                continue
            out[rest] = c * falling_product(beta, alpha)
        return Poly(self.dim, out, field=self.field)

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
        return Poly(self.dim, {a: complex(c) for a, c in self._terms.items()},
                    field=FLOAT)

    def __repr__(self):
        if self.is_zero:
            return f"Poly({self.dim}, 0)"
        bits = []
        for a, c in self.sorted_terms():
            mono = "*".join(f"z{j + 1}^{e}" for j, e in enumerate(a) if e)
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def variables(d: int, field=EXACT):
    """Convenience tuple (z1, ..., zd) of coordinate polynomials."""
    return tuple(Poly.variable(d, j, field=field) for j in range(d))


def apply_diff_op(q: Poly, f: Poly) -> Poly:
    """Apply the constant-coefficient operator q(D) to f.

    Each variable of q acts as the corresponding partial derivative, so on
    monomials z^alpha(D) z^beta = beta!/(beta-alpha)! z^(beta-alpha) when
    beta >= alpha and 0 otherwise.
    """
    if q.dim != f.dim:
        raise DimensionMismatchError(f"dimension mismatch: {q.dim} vs {f.dim}")
    field = EXACT if q.field == EXACT and f.field == EXACT else FLOAT
    acc = {}
    for alpha, c in q._terms.items():
        for beta, v in f._terms.items():
            rest = midx_sub(beta, alpha)
            if rest is None:
                continue
            w = c * v * falling_product(beta, alpha)
            if rest in acc:
                acc[rest] = acc[rest] + w
            else:
                acc[rest] = w
    return Poly(f.dim, acc, field=field)


def op_matrix(q: Poly, p: Poly, col_basis, row_basis) -> list:
    """Dense rows of f |-> q(D)(p f) in the raw monomial basis.

    Column j is the image of z^beta, beta = col_basis[j], and row i the
    coefficient of z^row_basis[i]; ``row_basis`` must hold every monomial
    of the image.  Entry (i, j) sums e c delta!/(delta - eta)! over the
    terms e z^eta of q and c z^gamma of p with delta = gamma + beta and
    delta - eta = row_basis[i], read straight from the term dicts in the
    order apply_diff_op(q, p z^beta) takes them.  Entries are
    GaussianRational when q and p are exact, complex otherwise.
    """
    if q.dim != p.dim:
        raise DimensionMismatchError(f"dimension mismatch: {q.dim} vs {p.dim}")
    zero = GaussianRational(0) if q.field == EXACT and p.field == EXACT else 0j
    row_index = {alpha: i for i, alpha in enumerate(row_basis)}
    pairs = [(eta, gamma, e * c) for eta, e in q._terms.items()
             for gamma, c in p._terms.items()]
    rows = [[zero] * len(col_basis) for _ in row_basis]
    for j, beta in enumerate(col_basis):
        for eta, gamma, ec in pairs:
            delta = midx_add(gamma, beta)
            alpha = midx_sub(delta, eta)
            if alpha is None:
                continue
            row = rows[row_index[alpha]]
            w = ec * falling_product(delta, eta)
            row[j] = w if row[j] is zero else row[j] + w
    return rows


def mult_entries(pk: Poly, col_basis):
    """(rows, cols, vals): the nonzeros of multiplication by homogeneous pk
    in the orthonormal basis z^alpha/sqrt(alpha!), as numpy arrays.

    ``col_basis`` holds the source exponents beta of degree m, as an
    (N, d) int array or anything ``np.asarray`` reads as one.  Rows index
    the whole graded-lex slice of degree m + k, k = deg pk, and are read
    off ``grlex_rank``.  Each term c z^gamma puts c sqrt(delta!/beta!),
    delta = gamma + beta, in column beta and row delta.  The entries come
    column by column with pk's terms in graded-lex order, so rows ascend
    within each column (CSC order).  delta!/beta! is the exact integer
    falling product prod_i (beta_i + 1) ... (beta_i + gamma_i), in int64
    while (m + k)^k < 2^63 and in Python ints past that; it is rounded to
    float once, then one square root is taken per entry.
    """
    terms = pk.sorted_terms()
    k = int(pk.degree)
    beta = np.asarray(col_basis, dtype=np.int64).reshape(-1, pk.dim)
    gammas = np.array([gamma for gamma, _ in terms], dtype=np.int64).reshape(-1, pk.dim)
    n, t = len(beta), len(terms)
    m = int(beta.sum(axis=1).max()) if n else 0
    base = beta if (m + k) ** k < 2 ** 63 else beta.astype(object)
    ratio = np.ones((n, t), dtype=base.dtype)
    for col, gamma in enumerate(gammas.tolist()):
        for i, g in enumerate(gamma):
            for j in range(1, g + 1):
                ratio[:, col] *= base[:, i] + j
    coeffs = np.array([complex(c) for _, c in terms], dtype=complex)
    vals = coeffs * np.sqrt(ratio.astype(float))
    rows = grlex_rank(beta[:, None, :] + gammas[None, :, :])
    return rows.ravel(), np.repeat(np.arange(n), t), vals.ravel()


# ---------------------------------------------------------------------------
# interchange format

def _format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def poly_to_dict(p: Poly) -> dict:
    """JSON-ready form: {"dim": d, "terms": [{"exp", "re", "im"}, ...]}.

    Exact coefficients are written as "num/den" strings (bit-exact round
    trip); float coefficients as plain numbers.
    """
    terms = []
    for alpha, c in p.sorted_terms():
        if p.field == EXACT:
            re, im = _format_fraction(c.real), _format_fraction(c.imag)
        else:
            re, im = c.real, c.imag
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
        if isinstance(coeff, complex) and not cmath.isfinite(coeff):
            raise FormatError(f"non-finite coefficient in term {t!r}")
        if exp in terms:
            raise FormatError(f"duplicate exponent {exp}")
        terms[exp] = coeff
    field = EXACT if kinds in ({"exact"}, set()) else FLOAT
    try:
        return Poly(dim, terms, field=field)
    except InvalidInputError as exc:
        raise FormatError(str(exc)) from exc


def save_poly(p: Poly, path) -> None:
    with open(path, "w") as fh:
        json.dump(poly_to_dict(p), fh, indent=1)
        fh.write("\n")


def load_poly(path) -> Poly:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    return poly_from_dict(obj)
