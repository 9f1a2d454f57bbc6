"""Fischer decompositions f = P q + r with P_k*(D) r = 0.

Three routes are provided; each takes the divisor first and returns a
:class:`DecompositionResult`.  The split is unique, so the input alone
picks how to compute it: ``decompose_direct`` answers every divisor.

* ``decompose_univariate`` (d = 1) is division with remainder, whose
  remainder is the interpolant at the root multiset.
* ``decompose_direct`` is ``decompose_univariate`` for a d = 1 divisor.
  Otherwise it runs the Fischer recursion from the top degree down: q_n
  is the projection (``SliceSolver.project``) of the degree n + k part
  of f - (p - P_k)(q_{n+1} + q_{n+2} + ...), in either field and for
  every deg p >= 1.  ``project_homogeneous`` is its one-slice case:
  exact input by the normal equations, float input by the pseudoinverse
  of the multiplication matrix.
* ``decompose_series`` runs the iterated projection series on a
  polynomial; it terminates exactly and agrees with the direct solve by
  uniqueness.  It refuses float input with a d = 1 divisor, whose float
  slice projections leave round-off terms that long division does not.

``decompose_direct`` also accepts a Taylor stream, which it truncates by
one rule (``_truncate_stream``) and decomposes as that polynomial.  For
d >= 2 it returns q and r up to degree cap - deg p, the degrees of
f = P q + r that the truncation at cap fixes.

Every slice map of P_k reads one pattern, ``polyalg.mult_pattern``: the
row of each term of P_k z^beta and its exact weight delta!/beta!.
Multiplication by P_k and P_k*(D) are apolar adjoints, so in the
orthonormal basis z^alpha/sqrt(alpha!) the slice matrix of
q |-> P_k*(D)(P_k q) is M^H M, M the multiplication matrix, and the
projection of a homogeneous f_m is q = M^+ f_m.  Exact slices solve the
raw-basis slice matrix (``fischer_matrix``), weights kept exact.  Float
slices take one SVD of M (``polyalg.mult_entries``, weights rounded once
before one square root) into a cached pseudoinverse (``slice_projector``);
Bombieri's sigma_min(M) >= ||P_k|| keeps M^+ well conditioned.

Exact inputs give exact results; float solves carry condition estimates.
When p or f is float, q and r are float on every route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import apolar
from .errors import InvalidInputError, NumericalError
from .exactlinalg import bareiss_solve, checked_condition
from .fields import EXACT, FLOAT
from .polyalg import (Poly, apply_diff_op, enumerate_monomials, midx_factorial, mult_entries,
                      mult_pattern, require_nonzero_homogeneous)


@dataclass(frozen=True)
class FischerMatrix:
    """Matrix of q |-> pk*(D)(pk q) on one homogeneous slice.

    Rows and columns are indexed by ``basis`` (the graded-lex monomials
    of degree m - deg pk) in the raw monomial basis, with entries in pk's
    field.  The map is self-adjoint and positive definite for the
    alpha!-weighted inner product, being of the form M^H M with M
    injective.
    """

    basis: tuple
    rows: tuple


@dataclass
class DecompositionResult:
    q: Poly
    r: Poly
    annihilator_residual: float
    method: str
    diagnostics: dict = dc_field(default_factory=dict)


def _slice_basis(pk: Poly, m: int) -> tuple:
    """The graded-lex monomials of degree m - deg pk, the unknowns of slice
    m, once pk is nonzero homogeneous and m >= deg pk."""
    require_nonzero_homogeneous(pk)
    k = pk.degree
    if m < k:
        raise InvalidInputError(f"target degree {m} is below deg pk = {k}")
    return tuple(enumerate_monomials(pk.dim, m - k))


def fischer_matrix(pk: Poly, m: int) -> FischerMatrix:
    """Assemble the degree-m normal-equations matrix for homogeneous pk.

    Entry (i, j) is the coefficient of z^beta_i in pk*(D)(pk z^beta_j):
    the sum of conj(c) c' delta!/beta_i! over the terms c z^gamma,
    c' z^gamma' of pk with beta_i + gamma = delta = beta_j + gamma', read
    from ``mult_pattern`` by grouping its entries by their row delta.
    """
    basis = _slice_basis(pk, m)
    coeffs = [c for _, c in pk.sorted_terms()]
    products = [[c.conjugate() * c2 for c2 in coeffs] for c in coeffs]
    rows, weights = mult_pattern(pk, basis)
    by_row = {}
    for j, (row_j, weight_j) in enumerate(zip(rows.tolist(), weights.tolist())):
        for a, (delta, w) in enumerate(zip(row_j, weight_j)):
            by_row.setdefault(delta, []).append((j, a, w))
    zero = coeffs[0] - coeffs[0]  # 0 in pk's field
    mat = [[zero] * len(basis) for _ in basis]
    for entries in by_row.values():
        for i, a, w in entries:
            row, prod = mat[i], products[a]
            for j, a2, _ in entries:
                row[j] += prod[a2] * w
    return FischerMatrix(basis, tuple(map(tuple, mat)))


def _annihilator_residual(pk: Poly, r: Poly) -> float:
    val = apolar.norm_sq(apply_diff_op(pk.star(), r))
    if val == 0:
        return 0.0
    return math.sqrt(float(val))


@dataclass(frozen=True)
class SliceProjector:
    """Float Fischer projection f_m |-> q on one homogeneous slice.

    ``pinv`` is the pseudoinverse of the matrix M of multiplication by pk
    from slice m - k to slice m, taken in the orthonormal basis
    z^alpha/sqrt(alpha!) and mapped back to the raw monomial basis:
    column ``source[alpha]`` reads the coefficient of z^alpha (degree m),
    row j gives the coefficient of z^basis[j] (degree m - k) in q.
    ``condition`` is kappa(M)^2, the condition of the slice matrix M^H M.
    """

    basis: tuple
    source: dict
    pinv: np.ndarray
    condition: float


def slice_projector(pk: Poly, m: int) -> SliceProjector:
    """The degree-m float projector for homogeneous pk, from one SVD of M."""
    basis = _slice_basis(pk, m)
    source = enumerate_monomials(pk.dim, m)
    rows, cols, vals = mult_entries(pk, basis)
    mult = np.zeros((len(source), len(basis)), dtype=complex)
    mult[rows, cols] = vals
    u, s, vh = np.linalg.svd(mult, full_matrices=False)
    gram_sv = s * s  # the singular values of M^H M
    rank = int(np.count_nonzero(gram_sv > len(s) * np.finfo(float).eps * gram_sv[0]))
    cond = checked_condition(gram_sv, rank, len(basis))
    # back to the raw basis: q = W_{m-k}^-1 M^+ W_m f, W = diag(sqrt(alpha!)),
    # split as sqrt(m!/(m-k)!) times the bounded sqrt(alpha!/|alpha|!)
    # ratios, so no weight is a lone sqrt(alpha!)
    top, low = math.factorial(m), math.factorial(m - pk.degree)
    w_src = np.array([math.sqrt(midx_factorial(alpha) / top) for alpha in source])
    w_low = np.array([math.sqrt(midx_factorial(beta) / low) for beta in basis])
    pinv = ((vh.conj().T / (s * w_low[:, None])) @ (u.conj().T * w_src)) * math.sqrt(top // low)
    return SliceProjector(basis, {alpha: i for i, alpha in enumerate(source)}, pinv, cond)


class SliceSolver:
    """Fischer projections for one homogeneous pk, in either field: every
    route but long division, the top-down ``decompose_direct`` included,
    reaches the slice operator only through :meth:`project`.

    Each slice is prepared once and kept: exact slices as the matrix of
    q |-> pk*(D)(pk q) (``fischer_matrix``), solved by Bareiss; float
    slices as the pseudoinverse M^+ of the multiplication matrix in the
    orthonormal basis (``slice_projector``, one SVD per slice), so that a
    float projection is one matrix-vector product.
    """

    def __init__(self, pk: Poly):
        require_nonzero_homogeneous(pk)
        self.pk = pk
        self.pk_star = pk.star()
        self._matrices = {}
        self._projectors = {}

    def project(self, fm: Poly):
        """(q, condition or None) with pk*(D)(fm - pk q) = 0, fm homogeneous.

        The condition is that of the float slice, kappa(M)^2; exact pk and
        fm give an exact q and None.
        """
        if not fm.is_homogeneous():
            raise InvalidInputError("fm must be homogeneous")
        pk = self.pk
        if fm.is_zero or fm.degree < pk.degree:
            return Poly.zero(pk.dim, fm.field), None
        m = fm.degree
        if pk.field == EXACT and fm.field == EXACT:
            rhs = apply_diff_op(self.pk_star, fm)
            if rhs.is_zero:
                return Poly.zero(pk.dim, EXACT), None
            mat = self._matrices.get(m)
            if mat is None:
                mat = self._matrices[m] = fischer_matrix(pk, m)
            # one common denominator for b keeps it out of every row of [A | b]
            b = [rhs.coefficient(alpha) for alpha in mat.basis]
            den = math.lcm(*(c.parts()[2] for c in b))
            x = bareiss_solve(mat.rows, [c * den for c in b])
            if x is None:
                raise NumericalError("projection system unexpectedly singular")
            return Poly._canonical(pk.dim, {alpha: v / den for alpha, v in zip(mat.basis, x)
                                            if v}, EXACT), None
        proj = self._projectors.get(m)
        if proj is None:
            proj = self._projectors[m] = slice_projector(pk, m)
        vec = np.zeros(len(proj.source), dtype=complex)
        for alpha, c in fm.terms.items():
            vec[proj.source[alpha]] = complex(c)
        q = Poly._canonical(pk.dim, {a: c for a, c in zip(proj.basis, (proj.pinv @ vec).tolist())
                                     if c}, FLOAT)
        return q, proj.condition


def project_homogeneous(pk: Poly, fm: Poly) -> DecompositionResult:
    """Orthogonal split fm = pk q + r with pk*(D) r = 0, all homogeneous.

    Pythagoras holds: ||fm||^2 = ||pk q||^2 + ||r||^2.
    """
    q, cond = SliceSolver(pk).project(fm)
    r = fm - pk * q if fm.degree >= pk.degree else fm
    diag = {} if cond is None else {"condition": cond}
    return DecompositionResult(q, r, _annihilator_residual(pk, r), "direct", diag)


def _project_components(solver: SliceSolver, g: Poly) -> Poly:
    """Sum of the projection coefficients of each homogeneous component."""
    return sum((solver.project(gm)[0] for gm in g.homogeneous_components().values()),
               Poly.zero(solver.pk.dim, g.field))


def _promote(p: Poly, f: Poly) -> Poly:
    """f in float when p is: mixing the fields promotes q and r to float."""
    return f.to_float() if p.field == FLOAT else f


def _truncate_stream(f, max_degree):
    """(f.truncate(cap), cap): cap is max_degree, else the stream's declared
    degree; it must be finite and non-negative, and is clipped to the latter."""
    cap = max_degree if max_degree is not None else f.max_degree
    if cap is None or math.isinf(cap):
        raise InvalidInputError("a finite truncation degree is required")
    if cap < 0:
        raise InvalidInputError(f"truncation degree must be >= 0, got {cap}")
    cap = int(min(cap, f.max_degree))
    return f.truncate(cap), cap


def decompose_direct(p: Poly, f, max_degree=None) -> DecompositionResult:
    """Fischer decomposition of f by p, whatever p and f are.

    A d = 1 divisor is ``decompose_univariate(p, f, max_degree)``: long
    division, result and diagnostics included.  Otherwise, write
    p = P_k + L with deg L < k.  P_k*(D) r = 0 holds component by
    component, and L q_j only reaches degrees below j + k, so the degree
    n + k component of f - L (q_{n+1} + q_{n+2} + ...) is P_k q_n plus a
    component of r: q_n is its slice projection (``SliceSolver.project``),
    taken from n = deg f - k down to 0.  Exact input gives the unique
    exact q; float input reports the largest slice condition kappa(M)^2
    as ``condition``.  A Taylor stream f is truncated at max_degree (else
    its declared degree), reported as ``truncation_degree``; that cap must
    be at least deg p, and q and r are returned up to degree cap - deg p.
    """
    return _decompose_direct(p, f, _slice_solver(p), max_degree)


def _slice_solver(p: Poly) -> SliceSolver:
    if p.is_zero:
        raise InvalidInputError("p must be nonzero")
    return SliceSolver(p.homogeneous_component(p.degree))


def _decompose_direct(p: Poly, f, solver: SliceSolver, max_degree=None) -> DecompositionResult:
    """decompose_direct on the given SliceSolver of p's top component."""
    if p.dim == 1:
        return decompose_univariate(p, f, max_degree)
    k = p.degree
    cap = None
    if not isinstance(f, Poly):
        f, cap = _truncate_stream(f, max_degree)
        if cap < k:
            raise InvalidInputError(f"truncation degree {cap} is below deg p = {k}")
    f = _promote(p, f)
    pk = solver.pk
    # g = f - (p - pk)(q_{n+1} + q_{n+2} + ...) kept by degree: the slice
    # projection accounts for pk q_n, and each lower component L_s of p
    # moves only degree n + s
    g = f.homogeneous_components()
    lower = [(s, ls) for s, ls in p.homogeneous_components().items() if s < k]
    zero = Poly.zero(p.dim, f.field)
    n_deg = -1 if f.is_zero else f.degree - k
    terms, conds = {}, []
    for n in range(n_deg, -1, -1):
        q_n, cond = solver.project(g.get(n + k, zero))
        terms.update(q_n.terms)
        if cond is not None:
            conds.append(cond)
        for s, ls in lower:
            g[n + s] = g.get(n + s, zero) - ls * q_n
    q = Poly._canonical(p.dim, terms, f.field)
    # the unknowns: the monomials of degree <= n_deg
    diag = {} if n_deg < 0 else {"system_size": math.comb(n_deg + p.dim, p.dim)}
    if conds:
        diag["condition"] = max(conds)
    r = f - p * q
    if cap is not None:
        r = Poly._canonical(p.dim, {a: c for a, c in r.terms.items() if sum(a) <= cap - k},
                            r.field)
        diag["truncation_degree"] = cap
    return DecompositionResult(q, r, _annihilator_residual(pk, r), "direct", diag)


def decompose_series(p: Poly, f: Poly) -> DecompositionResult:
    """Fischer decomposition by the iterated projection series.

    Writing p = P_k - L with L the (negated) lower part, the coefficient
    series is q = T f + T(L T f) + T(L T(L T f)) + ..., where T projects
    each homogeneous component onto the image of multiplication by P_k.
    Every level drops total degree by at least deg p - deg L, so the sum
    is finite for polynomial input and equals the direct solve exactly.
    A Taylor stream, and float input with a d = 1 divisor, are refused
    (``_check_series_input``).
    """
    _check_series_input(p, f)
    return _decompose_series(p, f, _slice_solver(p))


def _check_series_input(p: Poly, f) -> None:
    """Refuse what the series route cannot split: a Taylor stream, whose
    route is decompose_direct, and float input with a d = 1 divisor, whose
    float slice projections leave round-off terms in r at degrees >= deg p
    where division with remainder leaves none."""
    if not isinstance(f, Poly):
        raise InvalidInputError("the series route needs polynomial input; "
                                "streams take the direct route")
    if p.dim == 1 and FLOAT in (p.field, f.field):
        raise InvalidInputError("the series route needs dimension >= 2 for float input; "
                                "d = 1 goes by long division")


def _decompose_series(p: Poly, f: Poly, solver: SliceSolver) -> DecompositionResult:
    f = _promote(p, f)
    pk = solver.pk
    lower_neg = pk - p  # the series' lower terms: p = pk - lower_neg
    total = Poly.zero(p.dim, f.field)
    level = _project_components(solver, f)
    levels = 0
    while not level.is_zero:
        total = total + level
        level = _project_components(solver, lower_neg * level)
        levels += 1
    q = total
    r = f - p * q
    return DecompositionResult(q, r, _annihilator_residual(pk, r), "series",
                               {"levels": levels})


def _direct_and_series(p: Poly, f: Poly):
    """(decompose_direct(p, f), decompose_series(p, f)) on one
    SliceSolver, so each slice matrix is assembled once for both."""
    _check_series_input(p, f)
    solver = _slice_solver(p)
    return _decompose_direct(p, f, solver), _decompose_series(p, f, solver)


# ---------------------------------------------------------------------------
# d = 1: division with remainder

def _poly_divmod_1d(f: Poly, p: Poly):
    """Univariate long division: f = p q + rem with deg rem < deg p, in f's
    field (float when p is; see _promote)."""
    k = int(p.degree)
    lead = p.coefficient((k,))
    q_terms = {}
    rem = {int(a[0]): c for a, c in f.terms.items()}
    for deg in range(int(f.degree), k - 1, -1):
        c = rem.get(deg)
        if c is None or c == 0:
            continue
        factor = c / lead
        q_terms[(deg - k,)] = factor
        for (j,), pc in p.terms.items():
            key = deg - k + int(j)
            val = rem.get(key, 0) - factor * pc
            if val == 0:
                rem.pop(key, None)
            else:
                rem[key] = val
    r = Poly(1, {(d,): c for d, c in rem.items() if d < k}, field=f.field)
    return Poly(1, q_terms, field=r.field), r


def decompose_univariate(p: Poly, f, max_degree=None) -> DecompositionResult:
    """d = 1 decomposition by division with remainder.

    P_k*(D) r = 0 means r^(k) = 0, i.e. deg r < deg p, so f = p q + r is
    long division and r is the interpolant of f at the root multiset of p.
    A Taylor stream is truncated as in ``decompose_direct`` and divided in
    the field of its coefficients and p's.  Float input reports
    ``condition`` = (||q'|| + ||r'||) / (||q|| + ||r||) in the apolar norm,
    q' and r' the same division run on the coefficient moduli with every
    subtraction an addition: the sizes the division passes through, so
    the rounding error of q and r is small against ||q'|| + ||r'||.
    """
    if p.dim != 1:
        raise InvalidInputError("decompose_univariate needs dimension 1")
    if p.is_zero:
        raise InvalidInputError("p must be nonzero")
    diag = {}
    if not isinstance(f, Poly):
        if f.dim != 1:
            raise InvalidInputError("stream must be univariate")
        f, diag["truncation_degree"] = _truncate_stream(f, max_degree)
    f = _promote(p, f)
    k = int(p.degree)
    if f.is_zero or f.degree < k:
        q, r = Poly.zero(1, f.field), f
    elif k == 0:
        q, r = f / p.coefficient((0,)), Poly.zero(1, f.field)
    else:
        q, r = _poly_divmod_1d(f, p)
    if f.field == FLOAT:
        diag["condition"] = _division_condition(p, f, q, r)
    pk = p.homogeneous_component(k)
    return DecompositionResult(q, r, _annihilator_residual(pk, r), "univariate", diag)


def _division_condition(p: Poly, f: Poly, q: Poly, r: Poly) -> float:
    """(||q'|| + ||r'||) / (||q|| + ||r||) for the long division f = p q + r,
    q' and r' the division of |f| by p's moduli with every subtraction an
    addition; 1.0 when the division subtracts nothing."""
    k = int(p.degree)
    if k == 0 or f.is_zero or f.degree < k:
        return 1.0
    sizes = _poly_divmod_1d(
        Poly(1, {a: abs(c) for a, c in f.terms.items()}),
        Poly(1, {a: abs(c) if a == (k,) else -abs(c) for a, c in p.terms.items()}))
    return sum(map(apolar.norm, sizes)) / (apolar.norm(q) + apolar.norm(r))
