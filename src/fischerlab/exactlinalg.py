"""Linear solves: one fraction-free exact kernel and a diagnosed float path.

The exact kernel works on Gaussian integers held as ``(re, im)`` int
pairs: callers bring their rows over a common denominator first (the
kernel and the reduced form do not change when a row is scaled).
Bareiss elimination (Math. Comp. 22, 1968) runs over Z[i]: every entry
stays a subdeterminant, so dividing by the previous pivot is exact.
Back-substitution is scaled by the last pivot, the pivot minor's
determinant, so only returned entries are rationals, each built once.
:func:`exact_rref`, :func:`bareiss_solve` and :func:`exact_nullspace`
share the one elimination.  The float solves are the slice
pseudoinverses behind :func:`gram_condition`; every float condition
passes the one gate of :func:`checked_condition`, which raises
:class:`ConditioningError` instead of returning garbage.
(:func:`float_lstsq_solve` has no caller here; the benchmark patches it.)
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConditioningError, NumericalError
from .fields import GaussianRational

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)
_COND_LIMIT = 1e12


def _divisor(re, im):
    """(conj, norm) of b = re + i im, both over gcd(re, im), so that a / b ==
    a * conj // norm for a multiple a of b; a real b costs one division."""
    g = math.gcd(re, im)
    return re // g, -im // g, (re * re + im * im) // g


def _eliminate(mat, ncols) -> list:
    """Fraction-free forward elimination of the int-pair rows ``mat`` in
    place; returns the pivot columns.  Rows at and past the rank end zero."""
    pivots = []
    qr, qi, qn = 1, 0, 1  # divisor of the previous pivot
    for col in range(ncols):
        lead = len(pivots)
        pivot_row = next((r for r in range(lead, len(mat)) if mat[r][col] != (0, 0)), None)
        if pivot_row is None:
            continue
        mat[lead], mat[pivot_row] = mat[pivot_row], mat[lead]
        ref = mat[lead]
        pr, pi = ref[col]
        for row in mat[lead + 1:]:
            hr, hi = row[col]
            for c in range(col + 1, ncols):
                ar, ai = row[c]
                br, bi = ref[c]
                xr = pr * ar - pi * ai - hr * br + hi * bi
                xi = pr * ai + pi * ar - hr * bi - hi * br
                row[c] = ((xr * qr - xi * qi) // qn, (xr * qi + xi * qr) // qn)
            row[col] = (0, 0)
        qr, qi, qn = _divisor(pr, pi)
        pivots.append(col)
    return pivots


def _reduced_column(mat, pivots, j, den=1) -> list:
    """Column j of the reduced form of the eliminated ``mat``, divided by
    den, in the rows whose pivot lies left of j: GaussianRationals, one
    ``from_parts`` per nonzero entry."""
    # det = last pivot; det * (reduced column j) lies in Z[i] (Cramer's rule)
    dr, di = mat[len(pivots) - 1][pivots[-1]] if pivots else (1, 0)
    dn = (dr * dr + di * di) * den
    top = sum(pc < j for pc in pivots)
    x = [None] * top
    out = [_ZERO] * top
    for i in range(top - 1, -1, -1):
        ar, ai = mat[i][j]
        sr, si = dr * ar - di * ai, dr * ai + di * ar
        for k in range(i + 1, top):
            ur, ui = mat[i][pivots[k]]
            xr, xi = x[k]
            sr -= ur * xr - ui * xi
            si -= ur * xi + ui * xr
        ur, ui, un = _divisor(*mat[i][pivots[i]])
        xr, xi = x[i] = ((sr * ur - si * ui) // un, (sr * ui + si * ur) // un)
        if xr or xi:
            out[i] = GaussianRational.from_parts(xr * dr + xi * di, xi * dr - xr * di, dn)
    return out


def bareiss_solve(rows, rhs, den=1):
    """Solve A x = b / den exactly; returns None if A is singular.

    ``rows`` (square) and ``rhs`` hold Gaussian integers as (re, im) int
    pairs and den is a positive int; x is a list of GaussianRational.
    """
    n = len(rows)
    mat = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = _eliminate(mat, n + 1)
    return _reduced_column(mat, pivots, n, den) if pivots == list(range(n)) else None


def exact_rref(rows, ncols):
    """Reduced row echelon form of int-pair rows over the Gaussian rationals.

    ``ncols`` is the row length (the column count when ``rows`` is empty).
    Returns (reduced rows of GaussianRational, pivot column indices).
    """
    mat = [list(row) for row in rows]
    pivots = _eliminate(mat, ncols)
    out = [[_ONE if j == pc else _ZERO for j in range(ncols)] for pc in pivots]
    out += [[_ZERO] * ncols for _ in mat[len(pivots):]]
    for j in sorted(set(range(ncols)).difference(pivots)):
        for row, v in zip(out, _reduced_column(mat, pivots, j)):
            row[j] = v
    return out, pivots


def exact_nullspace(rows, ncols):
    """Basis of the nullspace of A, given as int-pair rows, over the
    Gaussian rationals.

    One vector per free column: the free coordinate is 1 and pivot
    coordinates are read off the reduced form, giving a deterministic
    basis in column order.
    """
    mat, pivots = exact_rref(rows, ncols)
    basis = []
    for free in sorted(set(range(ncols)).difference(pivots)):
        vec = [_ZERO] * ncols
        vec[free] = _ONE
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -mat[row_idx][free]
        basis.append(vec)
    return basis


def checked_condition(sv, rank: int, ncols: int) -> float:
    """Condition sv[0] / sv[-1] of a system in ``ncols`` unknowns with
    singular values ``sv`` (descending) and numerical ``rank``.

    Raises ConditioningError when the system is numerically singular or
    its condition exceeds _COND_LIMIT or is not a number.
    """
    if len(sv) == 0 or sv[0] == 0:
        raise ConditioningError("zero system", condition=float("inf"))
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    if rank < ncols or not cond <= _COND_LIMIT:
        raise ConditioningError(
            f"system too ill-conditioned (estimated condition {cond:.3e})",
            condition=cond)
    return cond


def gram_condition(sv) -> float:
    """checked_condition of M^H M from the singular values sv of a full
    column rank M, descending: sv is squared at the power-of-two scale that
    puts sv[0] in [1/2, 1), so that a square past the double range cannot
    read as inf / inf, and every in-range ratio keeps its bits."""
    scaled = np.ldexp(sv, -math.frexp(sv[0])[1])
    return checked_condition(scaled * scaled, len(sv), len(sv))


def ldexp_normal(x, e: int) -> np.ndarray:
    """x * 2^e entrywise and exactly, undoing a power-of-two scale; a
    nonzero real or imaginary part that leaves the normal doubles, where
    the result would round, raises NumericalError."""
    x = np.ascontiguousarray(x, dtype=complex if np.iscomplexobj(x) else float)
    parts = x.view(float)
    with np.errstate(over="ignore", under="ignore"):
        out = np.ldexp(parts, e)
    if not np.all((np.isfinite(out) & (np.abs(out) >= np.finfo(float).tiny)) | (parts == 0)):
        raise NumericalError(f"a value scaled by 2^{e} leaves the normal double range")
    return out.view(x.dtype)


def float_lstsq_solve(a: np.ndarray, b: np.ndarray):
    """SVD-backed least-squares solve with a condition estimate.

    Returns (x, condition).  Raises ConditioningError when the system is
    numerically singular.
    """
    x, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    return x, checked_condition(sv, rank, a.shape[1])
