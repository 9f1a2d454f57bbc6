"""Fischer decompositions f = P q + r with P_k*(D) r = 0.

Two routes are provided; each takes the divisor first and returns a
:class:`DecompositionResult`.  The split is unique, so the input alone
picks how to compute it: ``decompose_direct`` answers every divisor.

* ``decompose_direct`` divides by a d = 1 divisor with remainder (method
  ``"univariate"``), the remainder being the interpolant at the root
  multiset.  Otherwise it runs the Fischer recursion from the top degree
  down: q_n is the projection (``SliceSolver.project``) of the degree
  n + k part of f - (p - P_k)(q_{n+1} + q_{n+2} + ...), in either field
  and for every deg p >= 1.  ``project_homogeneous`` is its one-slice
  case, literally: the same body on homogeneous pk and fm, so it too
  divides in d = 1.
* ``decompose_series`` runs the iterated projection series on a
  polynomial; it terminates exactly and agrees with the direct solve by
  uniqueness.  It refuses float input with a d = 1 divisor, whose float
  slice projections leave round-off terms that long division does not.

Every public entry, ``project_homogeneous`` included, first passes
(p, f) through one front door, ``_admit``: p nonzero, f of p's
dimension, a Taylor stream truncated by one rule, then p and f in one
field (``polyalg._one_field``: both float when either is, so no route
sees an exact p beside a float f).  ``decompose_direct`` decomposes a
stream as its truncation; for d >= 2 it returns q and r up to degree
cap - deg p, the degrees of f = P q + r that the truncation at cap fixes.

Every slice map of P_k passes one guard first, ``polyalg.check_slice``
(P_k nonzero and homogeneous, a source degree >= 0, at most
``polyalg.DIM_CAP`` monomials at the target degree), before any monomial
is listed, and reads one pattern, ``polyalg.mult_pattern``: the row of
each term of P_k z^beta and its exact weight delta!/beta!.
Multiplication by P_k and P_k*(D) are apolar adjoints, so in the
orthonormal basis z^alpha/sqrt(alpha!) the slice matrix of
q |-> P_k*(D)(P_k q) is M^H M, M the multiplication matrix, and the
projection of a homogeneous f_m is q = M^+ f_m.  Exact slices solve the
raw-basis slice matrix (``fischer_matrix``, which takes exact pk only) in
Gaussian integers: pk's coefficients over their common denominator D,
the exact weights and so the matrix times D^2 and pk*(D) times D^2 are
integer, and each right-hand side goes over f_m's common denominator.
Float slices take one SVD of M (``orthonormal_operator``, shared with float
``spectral.kernel_basis``) into a cached pseudoinverse (``slice_projector``);
Bombieri's sigma_min(M) >= ||P_k|| keeps M^+ well conditioned.  Each
degree's monomials, their index and the weights sqrt(alpha!/m!) form one
``DegreeTable``, built once per ``SliceSolver`` (one decomposition) and
read both as slice m's source and as slice m + k's basis.

Exact inputs give exact results; float solves carry condition estimates.
When p or f is float, q and r are float on every route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import apolar
from .errors import DimensionMismatchError, InvalidInputError, NumericalError
from .exactlinalg import bareiss_solve, gram_condition, ldexp_normal
from .fields import EXACT, FLOAT
from .polyalg import (Poly, _one_field, apply_diff_op, check_slice, enumerate_monomials,
                      midx_factorial, mult_entries, mult_pattern, sqrt_int, unit_scaled)


@dataclass(frozen=True)
class FischerMatrix:
    """Matrix of q |-> pk*(D)(pk q) on one homogeneous slice, for exact pk.

    Rows and columns are indexed by ``basis`` (the graded-lex monomials
    of degree m - deg pk) in the raw monomial basis.  ``rows`` holds the
    entries times ``den`` as Gaussian integers, (re, im) int pairs; den is
    D^2, D the common denominator of pk's coefficients.  ``adjoint`` holds
    pk*(D) from slice m to the basis times den as sparse integer columns:
    each exponent delta of degree m maps to the (i, re, im) with
    (re + i im) / den the coefficient of z^basis[i] in pk*(D) z^delta,
    and to nothing when that image is 0.  The map is self-adjoint and
    positive definite for the alpha!-weighted inner product, being of the
    form M^H M with M injective.
    """

    basis: tuple
    rows: tuple
    adjoint: dict
    den: int


@dataclass
class DecompositionResult:
    q: Poly
    r: Poly
    annihilator_residual: float
    method: str
    diagnostics: dict = dc_field(default_factory=dict)


def fischer_matrix(pk: Poly, m: int) -> FischerMatrix:
    """Assemble the degree-m normal-equations matrix for homogeneous exact pk.

    Entry (i, j) is the coefficient of z^beta_i in pk*(D)(pk z^beta_j):
    the sum of conj(c) c' delta!/beta_i! over the terms c z^gamma,
    c' z^gamma' of pk with beta_i + gamma = delta = beta_j + gamma', read
    from ``mult_pattern`` by grouping its entries by their row delta.
    With c = n / D for Gaussian integers n, the sums run over the ints
    conj(n) n' delta!/beta_i!, the entries times D^2.

    Exact pk only: float pk raises TypeError, its slices being served by
    ``slice_projector``.  ``polyalg.check_slice`` refuses first a pk that
    is zero or inhomogeneous, m < deg pk and a degree m past its cap.
    """
    if pk.field != EXACT:
        raise TypeError("fischer_matrix takes exact pk; float slices use slice_projector")
    n = m - pk.degree
    check_slice(pk, n)
    basis = tuple(enumerate_monomials(pk.dim, n))
    pairs, d = pk.numerators()
    nums = [pairs[gamma] for gamma, _ in pk.sorted_terms()]
    rows, weights = mult_pattern(pk, basis)
    # per row delta: (i, conj(n) w) of pk*(D) and (i, n) of pk, i = beta's index
    by_row = {}
    for i, (row_i, weight_i) in enumerate(zip(rows.tolist(), weights.tolist())):
        for delta, w, (nr, ni) in zip(row_i, weight_i, nums):
            by_row.setdefault(delta, []).append((i, nr * w, -ni * w, nr, ni))
    mat_re = [[0] * len(basis) for _ in basis]
    mat_im = [[0] * len(basis) for _ in basis]
    for entries in by_row.values():
        for i, cr, ci, _, _ in entries:
            row_re, row_im = mat_re[i], mat_im[i]
            for j, _, _, nr, ni in entries:
                row_re[j] += cr * nr - ci * ni
                row_im[j] += cr * ni + ci * nr
    top = enumerate_monomials(pk.dim, m)
    adjoint = {top[delta]: tuple((i, cr * d, ci * d) for i, cr, ci, _, _ in entries)
               for delta, entries in by_row.items()}
    return FischerMatrix(basis, tuple(tuple(zip(re, im)) for re, im in zip(mat_re, mat_im)),
                         adjoint, d * d)


@dataclass(frozen=True)
class DegreeTable:
    """One degree m's graded-lex monomials, the position of each, and the
    weights sqrt(alpha!/m!) that take the raw monomial basis to the
    orthonormal one up to the common factor sqrt(m!)."""

    monomials: tuple
    index: dict
    weights: np.ndarray


def degree_table(d: int, m: int) -> DegreeTable:
    """The ``DegreeTable`` of degree m in d variables; past degree ~1000,
    where alpha!/m! falls below the normal doubles, by ``sqrt_int``."""
    monomials = tuple(enumerate_monomials(d, m))
    top = math.factorial(m)
    ratios = [midx_factorial(alpha) / top for alpha in monomials]
    weights = (np.sqrt(ratios) if min(ratios) >= np.finfo(float).tiny
               else np.array([sqrt_int(midx_factorial(alpha), top) for alpha in monomials]))
    return DegreeTable(monomials, {alpha: i for i, alpha in enumerate(monomials)}, weights)


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


def orthonormal_operator(pk: Poly, m: int, tables=None):
    """(M, e, degree-m table, degree m - k table): the dense matrix M of
    multiplication by 2^-e pk (``unit_scaled``) between the orthonormal
    slices m - k and m, behind ``check_slice`` as ``fischer_matrix``;
    ``tables`` (degree -> ``DegreeTable``) lends or receives the two tables."""
    n = m - pk.degree
    check_slice(pk, n)
    tables = {} if tables is None else tables
    src, low = (tables[j] if j in tables else tables.setdefault(j, degree_table(pk.dim, j))
                for j in (m, n))
    scaled, e = unit_scaled(pk)
    rows, cols, vals = mult_entries(scaled, low.monomials)
    mult = np.zeros((len(src.monomials), len(low.monomials)), dtype=complex)
    mult[rows, cols] = vals
    return mult, e, src, low


def slice_projector(pk: Poly, m: int, tables=None) -> SliceProjector:
    """The degree-m float projector for homogeneous pk, from one SVD of its
    ``orthonormal_operator``; slices that share ``tables`` build each degree once."""
    mult, e, src, low = orthonormal_operator(pk, m, tables)
    u, s, vh = np.linalg.svd(mult, full_matrices=False)
    cond = gram_condition(s)  # kappa(M^H M); refuses a low rank too
    # back to the raw basis: q = W_{m-k}^-1 M^+ W_m f, W = diag(sqrt(alpha!)),
    # split as sqrt(m!/(m-k)!) times the bounded sqrt(alpha!/|alpha|!)
    # ratios of the two tables, so no weight is a lone sqrt(alpha!)
    pinv = (((vh.conj().T / (s * low.weights[:, None])) @ (u.conj().T * src.weights))
            * sqrt_int(math.perm(m, pk.degree)))
    return SliceProjector(low.monomials, src.index, ldexp_normal(pinv, -e), cond)


class SliceSolver:
    """Fischer projections for one homogeneous pk, in either field: every
    route but long division, the top-down ``decompose_direct`` included,
    reaches the slice operator only through :meth:`project`.

    Each slice is prepared once and kept: exact slices as the integer
    matrix of q |-> pk*(D)(pk q) and pk*(D) on slice m (``fischer_matrix``),
    solved by Bareiss; float slices as the pseudoinverse M^+ of the
    multiplication matrix in the orthonormal basis (``slice_projector``,
    one SVD per slice), so that a float projection is one matrix-vector
    product.  The float slices share one dict of per-degree tables
    (``degree_table``: monomials, index, weights), so each degree is enumerated and weighted once, as the
    source of one slice and the basis of the slice k below it.  The tables
    live as long as the solver, that is for one decomposition.
    """

    def __init__(self, pk: Poly):
        self.pk = pk
        self.pk_star = pk.star()
        self._matrices = {}
        self._projectors = {}
        self._tables = {}

    def project(self, fm: Poly):
        """(q, condition or None) with pk*(D)(fm - pk q) = 0, fm homogeneous.

        fm is not checked: the routes project the components they split
        off themselves, and ``project_homogeneous`` checks its caller's.
        The condition is that of the float slice, kappa(M)^2; exact pk and
        fm give an exact q and None.  Exact slices form pk*(D) fm from the
        matrix's integer columns over fm's common denominator and solve in
        Gaussian integers; a float q that leaves the float range raises
        NumericalError naming the slice.
        """
        pk = self.pk
        if fm.is_zero or fm.degree < pk.degree:
            return Poly.zero(pk.dim, fm.field), None
        m = fm.degree
        if pk.field == EXACT and fm.field == EXACT:
            mat = self._matrices.get(m)
            if mat is None:
                mat = self._matrices[m] = fischer_matrix(pk, m)
            pairs, den = fm.numerators()
            # b = mat.den * den * pk*(D) fm, den fm's common denominator
            b_re, b_im = [0] * len(mat.basis), [0] * len(mat.basis)
            for alpha, (gr, gi) in pairs.items():
                for i, cr, ci in mat.adjoint.get(alpha, ()):
                    b_re[i] += cr * gr - ci * gi
                    b_im[i] += cr * gi + ci * gr
            if not (any(b_re) or any(b_im)):
                return Poly.zero(pk.dim, EXACT), None
            # (rows / mat.den) q = pk*(D) fm, i.e. rows q = b / den
            x = bareiss_solve(mat.rows, list(zip(b_re, b_im)), den)
            if x is None:
                raise NumericalError("projection system unexpectedly singular")
            return Poly._canonical(pk.dim, {alpha: v for alpha, v in zip(mat.basis, x) if v},
                                   EXACT), None
        proj = self._projectors.get(m)
        if proj is None:
            proj = self._projectors[m] = slice_projector(pk, m, self._tables)
        vec = np.zeros(len(proj.source), dtype=complex)
        for alpha, c in fm.terms.items():
            vec[proj.source[alpha]] = complex(c)
        with np.errstate(over="ignore", invalid="ignore"):
            q = proj.pinv @ vec
        if not np.isfinite(q).all():
            raise NumericalError(f"the degree-{m} slice projection exceeds the float range")
        return Poly._canonical(pk.dim, {a: c for a, c in zip(proj.basis, q.tolist()) if c},
                               FLOAT), proj.condition


def project_homogeneous(pk: Poly, fm: Poly) -> DecompositionResult:
    """Orthogonal split fm = pk q + r with pk*(D) r = 0, all homogeneous.

    Pythagoras holds: ||fm||^2 = ||pk q||^2 + ||r||^2.  It is
    ``decompose_direct`` on a homogeneous pk and fm, whose recursion then
    projects one slice (d = 1 divides with remainder, method
    ``"univariate"``), after the same front door plus a homogeneity check.
    Its ``system_size``, as ``decompose_direct``'s, counts the monomials of
    degree <= deg fm - deg pk, though only the top slice's are solved.
    """
    pk, fm, _ = _admit(pk, fm)
    if not (pk.is_homogeneous() and fm.is_homogeneous()):
        raise InvalidInputError("pk and fm must be homogeneous")
    return _decompose_direct(pk, fm, SliceSolver(pk))


def _project_components(solver: SliceSolver, g: Poly) -> Poly:
    """Sum of the projection coefficients of each homogeneous component."""
    return sum((solver.project(gm)[0] for gm in g.homogeneous_components().values()),
               Poly.zero(solver.pk.dim, g.field))


def _admit(p: Poly, f, max_degree=None, series=False):
    """(p, f, cap): the one front door of every route, p and f made ready
    for its body (``project_homogeneous`` adds only its check that they
    are homogeneous).

    p must be nonzero, and f, a polynomial or a Taylor stream, must have
    p's dimension.  A stream is truncated at cap: max_degree, else its
    declared degree, finite and >= 0, clipped to the latter and, past
    d = 1, at least deg p.  cap is None for a polynomial.  p and f then
    meet by ``polyalg._one_field``: when either is float, both are
    promoted (NumericalError if that empties a nonzero f, or p's top
    component, which would change the divisor's degree).
    ``series`` refuses a stream, and float input with a d = 1 divisor,
    whose slice projections leave round-off in r at degrees >= deg p where
    long division leaves none.
    """
    if p.is_zero:
        raise InvalidInputError("p must be nonzero")
    if f.dim != p.dim:
        raise DimensionMismatchError(f"p has dimension {p.dim} but f has {f.dim}")
    cap = None
    if not isinstance(f, Poly):
        if series:
            raise InvalidInputError("the series route needs polynomial input; "
                                    "streams take the direct route")
        cap = max_degree if max_degree is not None else f.max_degree
        if cap is None or math.isinf(cap):
            raise InvalidInputError("a finite truncation degree is required")
        if cap < 0:
            raise InvalidInputError(f"truncation degree must be >= 0, got {cap}")
        cap = int(min(cap, f.max_degree))
        f = f.truncate(cap)
        if p.dim > 1 and cap < p.degree:
            raise InvalidInputError(f"truncation degree {cap} is below deg p = {p.degree}")
    elif series and p.dim == 1 and FLOAT in (p.field, f.field):
        raise InvalidInputError("the series route needs dimension >= 2 for float input; "
                                "d = 1 goes by long division")
    p_one, f_one = _one_field(p, f)
    if p_one.degree != p.degree:
        raise NumericalError("the top-degree coefficients of p underflow to 0 in floats")
    if f_one.is_zero and not f.is_zero:
        raise NumericalError("every coefficient of f underflows to 0 in floats")
    return p_one, f_one, cap


def decompose_direct(p: Poly, f, max_degree=None) -> DecompositionResult:
    """Fischer decomposition of f by p, whatever p and f are.

    A d = 1 divisor divides with remainder (``_divide``, method
    ``"univariate"``).  Otherwise, write p = P_k + L with deg L < k.
    P_k*(D) r = 0 holds component by component, and L q_j only reaches
    degrees below j + k, so the degree n + k component of
    f - L (q_{n+1} + q_{n+2} + ...) is P_k q_n plus a component of r: q_n
    is its slice projection (``SliceSolver.project``), taken from
    n = deg f - k down to 0.  Exact input gives the unique
    exact q; float input reports the largest slice condition kappa(M)^2
    as ``condition``.  A Taylor stream f is truncated at max_degree (else
    its declared degree), reported as ``truncation_degree``; that cap must
    be at least deg p, and q and r are returned up to degree cap - deg p.
    """
    p, f, cap = _admit(p, f, max_degree)
    return _decompose_direct(p, f, SliceSolver(p.homogeneous_component(p.degree)), cap)


def _decompose_direct(p: Poly, f: Poly, solver: SliceSolver, cap=None) -> DecompositionResult:
    """decompose_direct on admitted input, on the SliceSolver of p's top
    component; cap is the stream's cap."""
    if p.dim == 1:
        return _divide(p, f, solver.pk_star, cap)
    k = p.degree
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
    return DecompositionResult(q, r, apolar.norm(apply_diff_op(solver.pk_star, r)), "direct",
                               diag)


def decompose_series(p: Poly, f: Poly) -> DecompositionResult:
    """Fischer decomposition by the iterated projection series.

    Writing p = P_k - L with L the (negated) lower part, the coefficient
    series is q = T f + T(L T f) + T(L T(L T f)) + ..., where T projects
    each homogeneous component onto the image of multiplication by P_k.
    Every level drops total degree by at least deg p - deg L, so the sum
    is finite for polynomial input and equals the direct solve exactly.
    A Taylor stream, and float input with a d = 1 divisor, are refused
    (``_admit``).
    """
    p, f, _ = _admit(p, f, series=True)
    return _decompose_series(p, f, SliceSolver(p.homogeneous_component(p.degree)))


def _decompose_series(p: Poly, f: Poly, solver: SliceSolver) -> DecompositionResult:
    """decompose_series on admitted input, on the given SliceSolver."""
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
    return DecompositionResult(q, r, apolar.norm(apply_diff_op(solver.pk_star, r)), "series",
                               {"levels": levels})


def _direct_and_series(p: Poly, f: Poly):
    """(decompose_direct(p, f), decompose_series(p, f)) on one
    SliceSolver, so each slice matrix is assembled once for both."""
    p, f, _ = _admit(p, f, series=True)
    solver = SliceSolver(p.homogeneous_component(p.degree))
    return _decompose_direct(p, f, solver), _decompose_series(p, f, solver)


# ---------------------------------------------------------------------------
# d = 1: division with remainder

def _poly_divmod_1d(f: Poly, p: Poly):
    """Univariate long division: f = p q + rem with deg rem < deg p, in the
    one field of p and f (see _admit)."""
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


def _divide(p: Poly, f: Poly, pk_star: Poly, cap=None) -> DecompositionResult:
    """decompose_direct on admitted input with a d = 1 divisor, pk_star
    the conjugate of its top component and cap the stream's cap.

    P_k*(D) r = 0 means r^(k) = 0, i.e. deg r < deg p, so f = p q + r is
    long division and r is the interpolant of f at the root multiset of p.
    A Taylor stream is divided as its truncation, in the field of its
    coefficients and p's.  Float input reports
    ``condition`` = (||q'|| + ||r'||) / (||q|| + ||r||) in the apolar norm,
    q' and r' the same division run on the coefficient moduli with every
    subtraction an addition: the sizes the division passes through, so
    the rounding error of q and r is small against ||q'|| + ||r'||.
    """
    diag = {} if cap is None else {"truncation_degree": cap}
    k = int(p.degree)
    if f.is_zero or f.degree < k:
        q, r = Poly.zero(1, f.field), f
    elif k == 0:
        q, r = f / p.coefficient((0,)), Poly.zero(1, f.field)
    else:
        q, r = _poly_divmod_1d(f, p)
    if f.field == FLOAT:
        diag["condition"] = _division_condition(p, f, q, r)
    return DecompositionResult(q, r, apolar.norm(apply_diff_op(pk_star, r)), "univariate", diag)


def _division_condition(p: Poly, f: Poly, q: Poly, r: Poly) -> float:
    """(||q'|| + ||r'||) / (||q|| + ||r||) for the long division f = p q + r,
    q' and r' the division of |f| by p's moduli with every subtraction an
    addition; 1.0 when the division subtracts nothing.  q and r are finite, as built;
    a norm past the float range, or q and r lost to underflow, raise NumericalError."""
    k = int(p.degree)
    if f.is_zero or f.degree < k:
        return 1.0
    size = apolar.norm(q) + apolar.norm(r)
    if not size:  # f's terms have underflowed out of q and r
        raise NumericalError("the division underflows: q and r vanish in floats")
    if k == 0:
        return 1.0
    sizes = _poly_divmod_1d(
        Poly(1, {a: abs(c) for a, c in f.terms.items()}),
        Poly(1, {a: abs(c) if a == (k,) else -abs(c) for a, c in p.terms.items()}))
    return sum(map(apolar.norm, sizes)) / size
