"""Multiplication operators in the orthonormal monomial basis and their
extremal singular values.

For homogeneous pk of degree k, multiplication f |-> pk f maps the
degree-m slice injectively into degree m+k.  Its smallest singular value
never drops below ||pk|| (Bombieri) and its largest stays under the
degree-dependent coefficient bound, so the per-degree extremes quantify
how much the product norm can grow or shrink relative to ||pk|| ||f||.
The log-log slope of sigma_min against m is the growth exponent reported
by :func:`ks_exponent_fit`.

M is assembled by ``polyalg.mult_entries`` in one numpy pass over every
column, from the pattern of ``polyalg.mult_pattern``: row indices from
the closed-form graded-lex rank, and each entry
c sqrt(delta!/beta!) from the exact integer falling product delta!/beta!,
rounded to float once before its one square root.

The extremes come from the sparse Gram matrix M^H M of the multiplication
matrix M (each column of M has len(pk.terms) nonzeros), not from an SVD.
A quadratic pk is first brought to its Takagi normal form
sum sigma_i z_i^2, sigma_i the singular values of its symmetric
coefficient matrix: the apolar norm is unitarily invariant, so M keeps
its singular values, and it becomes real.  The Gram matrix is block
diagonal over the connected components of its sparsity pattern (for the
normal form, the 2^(d-1) classes of exponent parities), and each block
is solved on its own: small blocks by a dense Hermitian eigensolve, large
ones by ARPACK with shift-invert at 0 for the minimum (Lehoucq, Sorensen
and Yang, ARPACK Users' Guide, SIAM 1998).  The results agree with a
dense SVD of pk's own M to a relative 1e-12, and a fixed seed makes them
repeat bit for bit.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError, NumericalError
from .exactlinalg import exact_nullspace
from .fields import EXACT, FLOAT, GaussianRational, gaussian_sqrt, is_exact_scalar, to_exact
from .polyalg import (Poly, count_monomials, enumerate_monomials, monomial_array, mult_entries,
                      mult_pattern, require_nonzero_homogeneous, write_atomic)

# scipy.sparse is imported where an operator is built, so that importing
# this module (and the CLI) does not load it
if TYPE_CHECKING:
    from scipy.sparse import csc_array

DEFAULT_DIM_CAP = 20000

# Gram blocks up to this size go to a dense eigvalsh, larger ones to
# ARPACK, which also needs size >= 3.  Measured with one BLAS thread,
# best of 7, two runs each.  Real blocks (the generic d=3 quadratic's
# normal form): size 253, dense 3.7-4.3 ms vs ARPACK 3.9-5.4 ms; size
# 300, 5.4-6.0 ms vs 4.9-5.1 ms.  Complex blocks (a full d=3 cubic):
# size 276, 8.8-9.0 ms vs 10.2-11.7 ms; size 325, 12.6-14.2 ms vs
# 11.9-13.5 ms.
DENSE_EIG_MAX = 256
# Seed of the ARPACK start and restart vectors: a fixed generator keeps
# the extremes bit-identical from run to run.
_ARPACK_SEED = 20240
# ARPACK accepts a Ritz value theta once its residual is below
# tol * |theta|, which puts theta that close, relatively, to an eigenvalue.
# At tol = 0 (machine precision) it chases round-off inside exactly
# repeated eigenvalues: shift-invert on z1^2+z2^2+z3^2 took up to 18 s
# per degree at m 40-60.  With 30 Arnoldi vectors instead of 20 those
# runs also restart less: at most 35 ms per degree at m 22-31.
_ARPACK_TOL = 1e-13
_ARPACK_NCV = 30
# Dense blocks of one size are stacked into one eigvalsh call holding at
# most this many entries (16 MiB of complex).
_DENSE_BATCH = 1 << 20


@dataclass(frozen=True)
class MultiplicationMatrix:
    """Matrix of f |-> pk*f between orthonormal graded slices.

    Rows are indexed by the degree m+k monomials, columns by the degree m
    monomials, both in graded-lex order and normalized by sqrt(alpha!).
    ``matrix`` is a CSC array with len(pk.terms) nonzeros per column,
    built straight from ``polyalg.mult_entries``' arrays.  Each entry is
    exact up to two roundings: the integer falling product delta!/beta!
    converted to float once, then one square root.
    """

    pk: Poly
    m: int
    matrix: csc_array
    col_basis: tuple


def _check_operator(pk: Poly, m: int, dim_cap: int) -> None:
    """Raise InvalidInputError unless multiplication by pk on the degree-m
    slice is a valid operator under the dimension cap."""
    require_nonzero_homogeneous(pk)
    if pk.degree < 1:
        raise InvalidInputError("pk must have degree >= 1")
    if m < 0:
        raise InvalidInputError("source degree must be >= 0")
    if count_monomials(pk.dim, m + pk.degree) > dim_cap:
        raise InvalidInputError(
            f"slice dimension exceeds cap {dim_cap}; raise dim_cap to override")


def mult_matrix(pk: Poly, m: int, dim_cap: int = DEFAULT_DIM_CAP) -> MultiplicationMatrix:
    from scipy.sparse import csc_array

    _check_operator(pk, m, dim_cap)
    col_basis = monomial_array(pk.dim, m)
    rows, _, vals = mult_entries(pk, col_basis)
    # mult_entries lists each column's len(pk.terms) entries with rows ascending
    indptr = np.arange(0, len(vals) + 1, len(pk.terms))
    a = csc_array((vals, rows, indptr),
                  shape=(count_monomials(pk.dim, m + pk.degree), len(col_basis)))
    return MultiplicationMatrix(pk, m, a, tuple(map(tuple, col_basis.tolist())))


def _takagi_normal_form(pk: Poly) -> Poly:
    """sigma_1 z1^2 + ... + sigma_d zd^2 for a quadratic form pk = z^T A z.

    A is the complex symmetric coefficient matrix, A_ii = c(2e_i) and
    A_ij = c(e_i + e_j)/2, and the sigma_i are its singular values.  The
    Takagi factorization A = U Sigma U^T (Horn and Johnson, Matrix
    Analysis, Cor. 4.4.4) gives pk = sum sigma_i w_i^2 with w = U^T z, and
    the apolar norm is unitarily invariant (Beauzamy, Bombieri, Enflo and
    Montgomery, J. Number Theory 36, 1990), so every multiplication
    operator of pk has the singular values of the normal form's.  A binary
    quadratic is a square exactly when sigma_2 = 0.  The SVD is backward
    stable, so sigma_i at or below numpy's rank tolerance d eps sigma_1 are
    zero to working precision; they are dropped, which splits the Gram
    matrix into more blocks.
    """
    d = pk.dim
    a = np.zeros((d, d), dtype=complex)
    for alpha, c in pk.terms.items():
        i, j = [v for v, e in enumerate(alpha) for _ in range(e)]
        a[i, j] += complex(c) / 2
        a[j, i] += complex(c) / 2
    sigma = np.linalg.svd(a, compute_uv=False)
    tol = d * np.finfo(float).eps * sigma[0]
    return Poly(d, {tuple(2 * (v == i) for v in range(d)): float(s)
                    for i, s in enumerate(sigma) if s > tol}, field=FLOAT)


def _arpack_extreme(gram, **mode) -> float:
    """One extreme eigenvalue of a Hermitian sparse matrix by ARPACK,
    started from a fixed-seed vector with fixed-seed restarts."""
    from scipy.sparse.linalg import eigs

    rng = np.random.default_rng(_ARPACK_SEED)
    n = gram.shape[0]
    return float(eigs(gram, k=1, v0=rng.uniform(-1.0, 1.0, n), rng=rng,
                      ncv=min(_ARPACK_NCV, n), tol=_ARPACK_TOL,
                      return_eigenvectors=False, **mode)[0].real)


def _block_eig_extremes(gram) -> tuple:
    """(lowest, highest) eigenvalue of a sparse Hermitian matrix, taken
    over the diagonal blocks of its connected components.

    The components come from the sparsity pattern, not from the values,
    which may be purely imaginary.  Blocks up to DENSE_EIG_MAX go to a
    dense eigvalsh, stacked by size in batches of at most _DENSE_BATCH
    entries; larger ones go to ARPACK one by one.
    """
    from scipy.sparse import csc_array
    from scipy.sparse.csgraph import connected_components

    gram = gram.tocoo()
    r, c, v = gram.row, gram.col, gram.data
    pattern = csc_array((np.ones(len(v)), (r, c)), shape=gram.shape)
    _, labels = connected_components(pattern, directed=False)
    sizes = np.bincount(labels)
    # position of each index inside its block, keeping the original order
    order = np.argsort(labels, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    entry_label = labels[r]
    lo, hi = [], []
    for s in np.unique(sizes).tolist():
        comps = np.flatnonzero(sizes == s)
        if s > DENSE_EIG_MAX:
            for comp in comps:
                e = entry_label == comp
                block = csc_array((v[e], (pos[r[e]], pos[c[e]])), shape=(s, s))
                lo.append(_arpack_extreme(block, sigma=0, which="LM"))
                hi.append(_arpack_extreme(block, which="LR"))
            continue
        per_batch = max(1, _DENSE_BATCH // (s * s))
        for first in range(0, len(comps), per_batch):
            batch = comps[first:first + per_batch]
            slot = np.full(len(sizes), -1)
            slot[batch] = np.arange(len(batch))
            e = slot[entry_label] >= 0
            stack = np.zeros((len(batch), s, s), dtype=v.dtype)
            stack[slot[entry_label[e]], pos[r[e]], pos[c[e]]] = v[e]
            ev = np.linalg.eigvalsh(stack)
            lo.append(float(ev[:, 0].min()))
            hi.append(float(ev[:, -1].max()))
    return min(lo), max(hi)


def sigma_extremes(pk: Poly, m: int, dim_cap: int = DEFAULT_DIM_CAP):
    """(sigma_min, sigma_max) of the degree-m multiplication matrix M.

    They are the square roots of the extreme eigenvalues of the sparse
    Gram matrix G = M^H M, which is Hermitian positive definite: M is
    injective and sigma_min >= ||pk|| > 0 (Bombieri), so squaring loses
    at most eps * cond(M)^2.  A quadratic pk is first replaced by its
    Takagi normal form sum sigma_i z_i^2, whose M has the same singular
    values and is real.  G is block diagonal over the connected components
    of its sparsity pattern: for sum sigma_i z_i^2 the 2^(d-1) classes of
    exponent parities (finer when some sigma_i vanish), and sparse pk
    such as sum c_i z_i^3 split too.  Each block of size up to
    DENSE_EIG_MAX goes to a dense eigvalsh; above it ARPACK (implicitly
    restarted Arnoldi) finds the minimum by shift-invert at 0 through a
    sparse LU and the maximum directly.  Both agree with a dense SVD of
    pk's own M to a relative 1e-12 and repeat bit for bit.
    """
    _check_operator(pk, m, dim_cap)
    if pk.degree == 2:
        pk = _takagi_normal_form(pk)
    a = mult_matrix(pk, m, dim_cap=dim_cap).matrix
    if not a.data.imag.any():
        a = a.real
    gram = a.conj().T @ a
    try:
        lo, hi = _block_eig_extremes(gram)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        # RuntimeError: ARPACK's ArpackError / ArpackNoConvergence and
        # SuperLU's exactly singular factor
        raise NumericalError(
            f"eigensolve failed for degree {m} (shape {a.shape}): {exc}") from exc
    return math.sqrt(lo), math.sqrt(hi)


@dataclass
class SpectralReport:
    degrees: list
    sigma_min: list
    sigma_max: list
    fitted_tau: float
    fitted_C: float
    fit_window: tuple
    residual: float
    flags: list = dc_field(default_factory=list)


def sweep_sigma(pk: Poly, degrees, dim_cap: int = DEFAULT_DIM_CAP):
    """Per-degree singular-value extremes, in the order of ``degrees``."""
    pairs = [sigma_extremes(pk, mm, dim_cap) for mm in degrees]
    lo = [p[0] for p in pairs]
    hi = [p[1] for p in pairs]
    return lo, hi


def ks_exponent_fit(pk: Poly, m_range=(8, 40), dim_cap: int = DEFAULT_DIM_CAP) -> SpectralReport:
    """Least-squares fit of log sigma_min(m) = log C + (tau/2) log m.

    The fitted exponent is reported as-is; values above deg pk (or above
    deg pk - 1 + 0.05 when d > 1, where deg pk - 1 is provable) only raise
    flags.  A flag marks a window whose slope exceeds the ceiling, which a
    finite window can do genuinely: (z1 + z2)^2 + 1e-2 z2^2 fits tau 1.335
    at m = 1000 and 1.021 at m = 10^4.
    """
    m_min, m_max = int(m_range[0]), int(m_range[1])
    if m_min < 2 or m_max <= m_min:
        raise InvalidInputError("need m_max > m_min >= 2")
    if m_max - m_min + 1 < 4:
        raise InvalidInputError("fit window must span at least 4 degrees")
    degrees = list(range(m_min, m_max + 1))
    lo, hi = sweep_sigma(pk, degrees, dim_cap=dim_cap)
    x = np.log(np.array(degrees, dtype=float))
    y = np.log(np.array(lo))
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    tau = 2.0 * slope
    k = int(pk.degree)
    flags = []
    if tau > k:
        flags.append("tau-exceeds-degree")
    if pk.dim > 1 and tau > k - 1 + 0.05:
        flags.append("tau-above-provable-ceiling")
    return SpectralReport(degrees, lo, hi, tau, math.exp(intercept),
                          (m_min, m_max), resid, flags)


def kernel_basis(pk: Poly, m: int):
    """Basis of the kernel of pk(D) on the homogeneous degree-m slice.

    The matrix of pk(D) from slice m to slice m - k is the transposed
    pattern of ``polyalg.mult_pattern`` on slice m - k: pk(D) sends
    z^delta, delta = beta + gamma, to c delta!/beta! z^beta for each term
    c z^gamma.  pk(D) is the apolar adjoint of multiplication by pk*, so
    this kernel is the orthogonal complement of pk* times slice m - k,
    and the slice matrix of pk*(D)(pk .) is M^H M in the orthonormal
    basis, M from :func:`mult_matrix`.  Exact coefficients give an exact
    rational basis via reduced row echelon form; float input falls back
    to an SVD nullspace.
    """
    require_nonzero_homogeneous(pk)
    if m < 0:
        raise InvalidInputError("degree must be >= 0")
    d = pk.dim
    k = int(pk.degree)
    col_basis = enumerate_monomials(d, m)
    if m < k:
        return [Poly.monomial(d, alpha, 1, field=pk.field) for alpha in col_basis]
    coeffs = [c for _, c in pk.sorted_terms()]
    zero = coeffs[0] - coeffs[0]  # 0 in pk's field
    ranks, weights = mult_pattern(pk, enumerate_monomials(d, m - k))
    rows = [[zero] * len(col_basis) for _ in ranks]
    for row, ranks_j, weights_j in zip(rows, ranks.tolist(), weights.tolist()):
        for c, delta, w in zip(coeffs, ranks_j, weights_j):
            row[delta] = c * w
    if pk.field == EXACT:
        vecs = exact_nullspace(rows, len(col_basis))
        return [Poly(d, dict(zip(col_basis, v)), field=EXACT) for v in vecs]
    a = np.array(rows, dtype=complex)
    _, sv, vh = np.linalg.svd(a)
    tol = max(a.shape) * np.finfo(float).eps * (sv[0] if len(sv) else 1.0)
    rank = int(np.sum(sv > tol))
    return [Poly(d, {alpha: complex(v) for alpha, v in zip(col_basis, row)}, field=FLOAT)
            for row in vh[rank:].conj()]


@dataclass(frozen=True)
class QuadraticClass:
    """Classification of a z1^2 / z1 z2 / z2^2 combination in 2 variables."""

    degenerate: bool
    square_root: tuple = None
    witness_direction: tuple = None


# Float coefficients count as zero below this fraction of the largest
# modulus, and the discriminant below its square.
_CLASSIFY_TOL = 1e-12


def classify_quadratic_2d(a, b, c) -> QuadraticClass:
    """Classify P = a z1^2 + b z1 z2 + c z2^2.

    Degenerate means 4ac = b^2, equivalently P = (r z1 + s z2)^2; then
    multiplication by P preserves the norm ratio along (s z1 - r z2)^m
    exactly, so no uniform norm growth in the degree is possible.
    """
    exact = all(is_exact_scalar(v) for v in (a, b, c))
    if exact:
        a, b, c = to_exact(a), to_exact(b), to_exact(c)
        if not (a or b or c):
            raise InvalidInputError("coefficients must not all vanish")
        disc = 4 * a * c - b * b
        degenerate = disc == 0
        is_zero = lambda v: not v
    else:
        a, b, c = complex(a), complex(b), complex(c)
        scale = max(abs(a), abs(b), abs(c))
        if scale == 0:
            raise InvalidInputError("coefficients must not all vanish")
        degenerate = abs(4 * a * c - b * b) <= _CLASSIFY_TOL * scale * scale
        is_zero = lambda v: abs(v) <= _CLASSIFY_TOL * scale
    square_root = None
    witness = None
    if degenerate:
        if not is_zero(a):
            r = (gaussian_sqrt(a) if exact else None) or complex(a) ** 0.5
            s = b / (2 * r)
        else:
            # 4ac = b^2 with a = 0 forces b = 0, so P = c z2^2
            r = GaussianRational(0) if exact else 0j
            s = (gaussian_sqrt(c) if exact else None) or complex(c) ** 0.5
        square_root = (r, s)
        witness = (s, -r)
    return QuadraticClass(degenerate, square_root, witness)


# ---------------------------------------------------------------------------
# report serialization

def report_to_csv(report: SpectralReport) -> str:
    buf = io.StringIO()
    buf.write("m,sigma_min,sigma_max\n")
    for m, lo, hi in zip(report.degrees, report.sigma_min, report.sigma_max):
        buf.write(f"{m},{lo!r},{hi!r}\n")
    return buf.getvalue()


def report_header(report: SpectralReport) -> dict:
    def clean(x):
        return x if isinstance(x, float) and math.isfinite(x) else (
            x if not isinstance(x, float) else None)
    return {
        "fitted_tau": clean(report.fitted_tau),
        "fitted_C": clean(report.fitted_C),
        "window": list(report.fit_window),
        "residual": clean(report.residual),
        "flags": report.flags,
    }


def save_report(report: SpectralReport, csv_path, json_path) -> None:
    write_atomic(csv_path, report_to_csv(report))
    write_atomic(json_path, json.dumps(report_header(report), indent=1) + "\n")
