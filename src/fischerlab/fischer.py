"""Fischer decompositions f = P q + r with P_k*(D) r = 0.

Four routes are provided; each takes the divisor first and returns a
:class:`DecompositionResult`, as ``entire.decompose_entire`` does.  All
but ``decompose_univariate`` (long division) reach the slice operator
q |-> P_k*(D)(P_k q) only through a :class:`SliceSolver`.

* ``project_homogeneous`` projects a homogeneous f orthogonally onto P_k
  times the lower slice: exact input by the normal equations, float input
  by the pseudoinverse of the multiplication matrix.
* ``decompose_direct`` runs the Fischer recursion from the top degree
  down: q_n is the projection of the degree n + k part of
  f - (p - P_k)(q_{n+1} + q_{n+2} + ...), in either field and for every
  deg p >= 1.
* ``decompose_series`` runs the iterated projection series; for
  polynomial input it terminates exactly and agrees with the direct
  solve by uniqueness.
* ``decompose_univariate`` (d = 1) is division with remainder, whose
  remainder is the interpolant at the root multiset.

``decompose_direct`` and ``decompose_univariate`` also accept a Taylor
stream, which they truncate by one rule (``_truncate_stream``) and
decompose as that polynomial.

The exact slice matrix of q |-> P_k*(D)(P_k q) is assembled by
``polyalg.op_matrix`` in the raw monomial basis.  Multiplication by P_k
and P_k*(D) are adjoint for the apolar product, so in the orthonormal
basis z^alpha/sqrt(alpha!) the slice matrix is M^H M, M the matrix of
multiplication by P_k, and the Fischer projection of a homogeneous f_m
is q = M^+ f_m.  M comes from ``polyalg.mult_entries``, as in
``spectral.mult_matrix``: numpy arrays whose weights delta!/beta! are
exact integer falling products, rounded to float once before one square
root.  Float projections take one SVD of M per slice
(``slice_projector``) and then cost one matrix-vector product each;
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
                      op_matrix)


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


def _require_nonzero_homogeneous(pk: Poly, name="pk"):
    if pk.is_zero:
        raise InvalidInputError(f"{name} must be nonzero")
    if not pk.is_homogeneous():
        raise InvalidInputError(f"{name} must be homogeneous")


def fischer_matrix(pk: Poly, m: int) -> FischerMatrix:
    """Assemble the degree-m normal-equations matrix for homogeneous pk."""
    _require_nonzero_homogeneous(pk)
    k = pk.degree
    if m < k:
        raise InvalidInputError(f"target degree {m} is below deg pk = {k}")
    basis = tuple(enumerate_monomials(pk.dim, m - k))
    return FischerMatrix(basis, tuple(map(tuple, op_matrix(pk.star(), pk, basis, basis))))


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
    _require_nonzero_homogeneous(pk)
    k = pk.degree
    if m < k:
        raise InvalidInputError(f"target degree {m} is below deg pk = {k}")
    basis = tuple(enumerate_monomials(pk.dim, m - k))
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
    top, low = math.factorial(m), math.factorial(m - k)
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
        _require_nonzero_homogeneous(pk)
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
            den = math.lcm(*(part.denominator for c in b for part in (c.real, c.imag)))
            x = bareiss_solve(mat.rows, [c * den for c in b])
            if x is None:
                raise NumericalError("projection system unexpectedly singular")
            return Poly(pk.dim, {alpha: v / den for alpha, v in zip(mat.basis, x)},
                        field=EXACT), None
        proj = self._projectors.get(m)
        if proj is None:
            proj = self._projectors[m] = slice_projector(pk, m)
        vec = np.zeros(len(proj.source), dtype=complex)
        for alpha, c in fm.terms.items():
            vec[proj.source[alpha]] = complex(c)
        q = Poly(pk.dim, dict(zip(proj.basis, (proj.pinv @ vec).tolist())), field=FLOAT)
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
    """Fischer decomposition by the top-down recursion over slices.

    Write p = P_k + L with deg L < k.  P_k*(D) r = 0 holds component by
    component, and L q_j only reaches degrees below j + k, so the degree
    n + k component of f - L (q_{n+1} + q_{n+2} + ...) is P_k q_n plus a
    component of r: q_n is its slice projection (``SliceSolver.project``),
    taken from n = deg f - k down to 0.  Exact input gives the unique
    exact q; float input reports the largest slice condition kappa(M)^2
    as ``condition``.  A Taylor stream f is truncated at max_degree (else
    its declared degree), reported as ``truncation_degree``.  Float input
    with a d = 1 divisor is refused: ``decompose_univariate`` is its route.
    """
    solver = _slice_solver(p)
    if isinstance(f, Poly):
        return _decompose_direct(p, f, solver)
    f, cap = _truncate_stream(f, max_degree)
    res = _decompose_direct(p, f, solver)
    res.diagnostics["truncation_degree"] = cap
    return res


def _slice_solver(p: Poly) -> SliceSolver:
    if p.is_zero:
        raise InvalidInputError("p must be nonzero")
    return SliceSolver(p.homogeneous_component(p.degree))


def _decompose_direct(p: Poly, f: Poly, solver: SliceSolver) -> DecompositionResult:
    f = _promote(p, f)
    if p.dim == 1 and f.field == FLOAT:
        # float slice projections leave round-off terms in r at degrees
        # >= deg p, where division with remainder leaves none
        raise InvalidInputError("the direct route needs dimension >= 2 for float input; "
                                "use the univariate route (long division) for d = 1")
    k = p.degree
    pk = solver.pk
    if f.is_zero or f.degree < k:
        q = Poly.zero(p.dim, f.field)
        return DecompositionResult(q, f, _annihilator_residual(pk, f), "direct", {})
    n_deg = f.degree - k
    # g = f - (p - pk)(q_{n+1} + q_{n+2} + ...) kept by degree: the slice
    # projection accounts for pk q_n, and each lower component L_s of p
    # moves only degree n + s
    g = f.homogeneous_components()
    lower = [(s, ls) for s, ls in p.homogeneous_components().items() if s < k]
    zero = Poly.zero(p.dim, f.field)
    terms, conds = {}, []
    for n in range(n_deg, -1, -1):
        q_n, cond = solver.project(g.get(n + k, zero))
        terms.update(q_n.terms)
        if cond is not None:
            conds.append(cond)
        for s, ls in lower:
            g[n + s] = g.get(n + s, zero) - ls * q_n
    q = Poly(p.dim, terms, field=f.field)
    # the unknowns: the monomials of degree <= n_deg
    diag = {"system_size": math.comb(n_deg + p.dim, p.dim)}
    if conds:
        diag["condition"] = max(conds)
    r = f - p * q
    return DecompositionResult(q, r, _annihilator_residual(pk, r), "direct", diag)


def validate_gap(p: Poly, beta: int) -> None:
    """Check p has no homogeneous component strictly between beta and deg p."""
    k = p.degree
    if not 0 <= beta < k:
        raise InvalidInputError(f"beta must lie in [0, {k}), got {beta}")
    for j in range(beta + 1, int(k)):
        if not p.homogeneous_component(j).is_zero:
            raise InvalidInputError(
                f"gap hypothesis violated: component of degree {j} is nonzero")


def decompose_series(p: Poly, f: Poly, beta=None) -> DecompositionResult:
    """Fischer decomposition by the iterated projection series.

    Writing p = P_k - L with L the (negated) lower part, the coefficient
    series is q = T f + T(L T f) + T(L T(L T f)) + ..., where T projects
    each homogeneous component onto the image of multiplication by P_k.
    Every level drops total degree by at least deg p - beta, so the sum
    is finite for polynomial input and equals the direct solve exactly.
    """
    return _decompose_series(p, f, beta, _slice_solver(p))


def _decompose_series(p: Poly, f: Poly, beta, solver: SliceSolver) -> DecompositionResult:
    if beta is not None:
        validate_gap(p, beta)
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
    solver = _slice_solver(p)
    return _decompose_direct(p, f, solver), _decompose_series(p, f, None, solver)


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
    the field of its coefficients and p's.
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
    if k == 0:
        q = f / p.coefficient((0,))
        return DecompositionResult(q, Poly.zero(1, q.field), 0.0, "univariate", diag)
    q, r = (Poly.zero(1, f.field), f) if f.is_zero or f.degree < k else _poly_divmod_1d(f, p)
    pk = p.homogeneous_component(k)
    return DecompositionResult(q, r, _annihilator_residual(pk, r), "univariate", diag)
