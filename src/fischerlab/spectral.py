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
column, from the pattern of ``polyalg.mult_pattern``: row indices from the
closed-form graded-lex rank, each entry c sqrt(delta!/beta!) from the
exact falling product delta!/beta!, rounded once before one square root.

The extremes come from the Gram matrix M^H M, not from an SVD.  It is
block diagonal, and each block is solved on its own: small blocks by a
dense Hermitian eigensolve, large ones by ARPACK with shift-invert at 0
for the minimum (Lehoucq, Sorensen and Yang, ARPACK Users' Guide, SIAM
1998).  A quadratic pk is first brought to its Takagi normal form
sum sigma_i z_i^2, sigma_i the singular values of its symmetric
coefficient matrix: the apolar norm is unitarily invariant, so M keeps
its singular values, and it becomes real.  Its Gram matrix and blocks
(the 2^(d-1) classes of exponent parities) have closed forms, assembled
in numpy with no sparse matrix.  Any other pk gets the sparse product
M^H M (each column of M has len(pk.terms) nonzeros), blocked by the
connected components of its sparsity pattern.  The results agree with a
dense SVD of pk's own M to a relative 1e-12, and a fixed seed makes
them repeat bit for bit.  Float :func:`kernel_basis` reads the float
slices' dense operator and condition gate.  Each slice map here passes
``polyalg.check_slice`` first.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field as dc_field
from itertools import permutations
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError, NumericalError
from .exactlinalg import exact_nullspace, gram_condition, ldexp_normal
from .fields import EXACT, FLOAT, GaussianRational, gaussian_sqrt, is_exact_scalar, to_exact
from .fischer import orthonormal_operator
from .polyalg import (Poly, check_slice, count_monomials, enumerate_monomials, grlex_rank,
                      mult_entries, mult_pattern, unit_scaled, write_atomic)

# scipy.sparse is imported only where a sparse operator is built or ARPACK
# runs, so that importing this module (and the CLI) does not load it, nor
# does the spectrum of a quadratic whose blocks all go to eigvalsh
if TYPE_CHECKING:
    from scipy.sparse import csc_array

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


def mult_matrix(pk: Poly, m: int) -> MultiplicationMatrix:
    """pk's ``MultiplicationMatrix`` from degree m, for deg pk >= 1."""
    from scipy.sparse import csc_array

    k = check_slice(pk, m)
    if k < 1:
        raise InvalidInputError("pk must have degree >= 1")
    col_basis = enumerate_monomials(pk.dim, m)
    rows, _, vals = mult_entries(pk, col_basis)
    # mult_entries lists each column's len(pk.terms) entries with rows ascending
    indptr = np.arange(0, len(vals) + 1, len(pk.terms))
    a = csc_array((vals, rows, indptr),
                  shape=(count_monomials(pk.dim, m + k), len(col_basis)))
    return MultiplicationMatrix(pk, m, a, tuple(col_basis))


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


def _normal_form_gram(nf: Poly, m: int) -> tuple:
    """(rows, cols, vals, labels) of the Gram matrix M^T M of a Takagi
    normal form nf = sum_{t<r} sigma_t z_t^2 on the degree-m slice, built
    from closed forms with no sparse product.

    Column beta of M holds v_t(beta) = sigma_t sqrt((beta_t+1)(beta_t+2))
    in row beta + 2e_t, in ``mult_entries``' arithmetic.  So the diagonal
    is sum_t v_t(beta)^2, summed in term order as the sparse product sums
    it, and each pair i != j < r with beta_j >= 2 gives row beta one more
    entry, G[beta, beta'] = v_i(beta) v_j(beta'), beta' = beta + 2e_i - 2e_j,
    from the one row of M that columns beta and beta' share: the entries
    of M^T M bit for bit.  Such a move keeps the parities of the active
    exponents (t < r) and the inactive exponents, and joins every beta
    that shares them, so these classes are the blocks; each is labeled
    through one integer, the graded-lex rank of its reduced exponent
    times m + 1 plus that exponent's degree.
    """
    r = len(nf.terms)  # the sigma_t sit on z_0 .. z_{r-1}, in term order
    sigma = np.array([complex(c) for _, c in nf.sorted_terms()])
    beta = np.array(enumerate_monomials(nf.dim, m), dtype=np.int64).reshape(-1, nf.dim)
    act = beta[:, :r]
    v = (sigma * np.sqrt(((act + 1) * (act + 2)).astype(float))).real
    index = np.arange(len(beta))
    rows, cols, vals = [index], [index], [sum((v * v).T)]  # 0 + v_0^2 + v_1^2 + ...
    for i, j in permutations(range(r), 2):
        src = np.flatnonzero(beta[:, j] >= 2)
        moved = beta[src]
        moved[:, [i, j]] += [2, -2]
        dst = grlex_rank(moved)
        rows.append(src)
        cols.append(dst)
        vals.append(v[src, i] * v[dst, j])
    reduced = beta.copy()
    reduced[:, :r] &= 1
    codes = grlex_rank(reduced) * (m + 1) + reduced.sum(axis=1)
    labels = np.unique(codes, return_inverse=True)[1]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), labels


def _sparse_gram(a) -> tuple:
    """(rows, cols, vals, labels) of the Gram matrix a^H a of a sparse
    multiplication matrix: its COO entries, and the connected component of
    each index in its sparsity pattern, not in its values, which may be
    purely imaginary."""
    from scipy.sparse import csc_array
    from scipy.sparse.csgraph import connected_components

    if not a.data.imag.any():
        a = a.real
    gram = (a.conj().T @ a).tocoo()
    r, c, v = gram.row, gram.col, gram.data
    pattern = csc_array((np.ones(len(v)), (r, c)), shape=gram.shape)
    _, labels = connected_components(pattern, directed=False)
    return r, c, v, labels


def _block_eig_extremes(r, c, v, labels) -> tuple:
    """(lowest, highest) eigenvalue of a Hermitian matrix given by its
    entries (r, c, v) and the block label of each index, taken over the
    diagonal blocks.

    Blocks up to DENSE_EIG_MAX go to a dense eigvalsh, stacked by size in
    batches of at most _DENSE_BATCH entries; larger ones go to ARPACK one
    by one.  A failed eigensolve raises NumericalError naming the block's
    size.
    """
    sizes = np.bincount(labels)
    # position of each index inside its block, keeping the original order
    order = np.argsort(labels, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    entry_label = labels[r]
    lo, hi = [], []
    try:
        for s in np.unique(sizes).tolist():
            comps = np.flatnonzero(sizes == s)
            if s > DENSE_EIG_MAX:
                from scipy.sparse import csc_array

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
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        # RuntimeError: ARPACK's ArpackError / ArpackNoConvergence and
        # SuperLU's exactly singular factor
        raise NumericalError(f"eigensolve failed on a block of size {s}: {exc}") from exc
    return min(lo), max(hi)


def sigma_extremes(pk: Poly, m: int):
    """(sigma_min, sigma_max) of the degree-m multiplication matrix M.

    They are the square roots of the extreme eigenvalues of the Gram
    matrix G = M^H M, which is Hermitian positive definite: M is injective
    and sigma_min >= ||pk|| > 0 (Bombieri), so squaring loses at most
    eps * cond(M)^2.  They are taken for 2^-e pk (``unit_scaled``) and
    scaled back by 2^e.  G is block diagonal, and each block is solved on
    its own.  A quadratic pk is replaced by its Takagi normal form
    sum sigma_i z_i^2, whose M has the same singular values and is real;
    its G and blocks (the 2^(d-1) classes of exponent parities, finer when
    some sigma_i vanish) come from closed forms, in numpy, with no sparse
    matrix.  Any other pk gets the sparse G = M^H M of ``mult_matrix``,
    blocked by the connected components of its sparsity pattern (sparse pk
    such as sum c_i z_i^3 split too).  Each block of size up to
    DENSE_EIG_MAX goes to a dense eigvalsh; above it ARPACK (implicitly
    restarted Arnoldi) finds the minimum by shift-invert at 0 through a
    sparse LU and the maximum directly.  Both agree with a dense SVD of
    pk's own M to a relative 1e-12 and repeat bit for bit.  The slice
    passes ``polyalg.check_slice`` first (``mult_matrix`` refuses a
    constant pk); a Gram entry past the double range is a NumericalError.
    """
    k = check_slice(pk, m)
    pk, e = unit_scaled(pk)
    if k == 2:
        entries = _normal_form_gram(_takagi_normal_form(pk), m)
    else:
        entries = _sparse_gram(mult_matrix(pk, m).matrix)
    if not np.isfinite(entries[2]).all():
        raise NumericalError(f"degree {m}: a Gram matrix entry exceeds the float range")
    try:
        lo, hi = _block_eig_extremes(*entries)
        return tuple(ldexp_normal([math.sqrt(lo), math.sqrt(hi)], e).tolist())
    except NumericalError as exc:
        raise NumericalError(f"degree {m}: {exc}") from exc


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


def sweep_sigma(pk: Poly, degrees):
    """Per-degree singular-value extremes, in the order of ``degrees``."""
    pairs = [sigma_extremes(pk, mm) for mm in degrees]
    lo = [p[0] for p in pairs]
    hi = [p[1] for p in pairs]
    return lo, hi


def ks_exponent_fit(pk: Poly, m_range=(8, 40)) -> SpectralReport:
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
    lo, hi = sweep_sigma(pk, degrees)
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

    pk(D) is the apolar adjoint of the injective multiplication by pk*,
    so the kernel is the orthogonal complement of pk* times slice m - k,
    of dimension count(m) - count(m - k).  Exact coefficients give an
    exact basis by row reduction of pk(D)'s raw-basis matrix, the
    transposed pattern of ``polyalg.mult_pattern``, built in Gaussian
    integers from pk's numerators over their common denominator.  Float
    coefficients take the last count(m) - count(m - k) left singular
    vectors of pk*'s ``fischer.orthonormal_operator``, behind the float
    slices' gate, divided by the degree-m weights: an apolar-orthogonal
    basis of common norm sqrt(m!).  ``polyalg.check_slice`` takes m as the
    source degree: m >= 0, and degree m + k, above every slice built, capped.
    """
    k = check_slice(pk, m)
    d = pk.dim
    col_basis = enumerate_monomials(d, m)
    if m < k:
        return [Poly.monomial(d, alpha, 1, field=pk.field) for alpha in col_basis]
    if pk.field == FLOAT:
        mult, _, src, _ = orthonormal_operator(pk.star(), m)
        u, s, _ = np.linalg.svd(mult)
        gram_condition(s)
        return [Poly(d, dict(zip(src.monomials, vec.tolist())), field=FLOAT)
                for vec in (u[:, len(s):] / src.weights[:, None]).T]
    # the rows times the common denominator of pk's coefficients, which
    # leaves the kernel as it is
    pairs = pk.numerators()[0]
    nums = [pairs[gamma] for gamma, _ in pk.sorted_terms()]
    ranks, weights = mult_pattern(pk, enumerate_monomials(d, m - k))
    rows = [[(0, 0)] * len(col_basis) for _ in ranks]
    for row, ranks_j, weights_j in zip(rows, ranks.tolist(), weights.tolist()):
        for (nr, ni), delta, w in zip(nums, ranks_j, weights_j):
            row[delta] = (nr * w, ni * w)
    return [Poly(d, dict(zip(col_basis, v)), field=EXACT)
            for v in exact_nullspace(rows, len(col_basis))]


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
        # an exact value converts through GaussianRational, which raises
        # NumericalError past the double range
        a, b, c = (complex(to_exact(v)) if is_exact_scalar(v) else complex(v) for v in (a, b, c))
        try:
            scale = max(abs(a), abs(b), abs(c))
        except OverflowError:
            raise NumericalError("a coefficient's modulus exceeds the float range") from None
        if scale == 0:
            raise InvalidInputError("coefficients must not all vanish")
        # the discriminant of P / scale, whose products neither overflow nor underflow
        an, bn, cn = a / scale, b / scale, c / scale
        degenerate = abs(4 * an * cn - bn * bn) <= _CLASSIFY_TOL
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
