"""The apolar inner product and its classical bounds.

For P = sum c_alpha z^alpha and Q = sum d_alpha z^alpha the inner product
is <P,Q> = sum alpha! c_alpha conj(d_alpha); equivalently [Q*(D)P](0).
Multiplication by Q and the differential operator Q*(D) are adjoint to
each other in this product, which is what the residual checkers verify.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, InvalidInputError, NumericalError
from .fields import EXACT, GaussianRational, abs_sq
from .polyalg import (Poly, apply_diff_op, enumerate_monomials, midx_add,
                      midx_factorial)
from . import sampling


def inner_product(p: Poly, q: Poly):
    """<p, q> = sum alpha! c_alpha conj(d_alpha); linear in the first slot.

    Exact inputs give an exact Gaussian-rational value; a float value
    beyond the double range raises NumericalError.
    """
    if p.dim != q.dim:
        raise DimensionMismatchError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if p.field != q.field:
        p, q = p.to_float(), q.to_float()
    small = p if len(p.terms) <= len(q.terms) else q
    total = GaussianRational(0) if p.field == EXACT else 0j
    for alpha in small.terms:
        c = p.coefficient(alpha)
        d = q.coefficient(alpha)
        if c == 0 or d == 0:
            continue
        if p.field == EXACT:
            total = total + midx_factorial(alpha) * c * d.conjugate()
        else:
            total = total + _float_term(alpha, c, d)
    return total if p.field == EXACT else _finite(total)


def _finite(value):
    """value itself, or NumericalError if a float term or total overflowed."""
    if not cmath.isfinite(value):
        raise NumericalError("apolar product exceeds the float range")
    return value


def _float_term(alpha, c, d) -> complex:
    """alpha! c conj(d) in floats, alpha! first so that it meets a tiny c;
    past degree 170, where alpha! leaves the double range, through logs."""
    try:
        return _finite(float(midx_factorial(alpha)) * c * d.conjugate())
    except OverflowError:
        log_w = sum(math.lgamma(a + 1) for a in alpha)
    try:
        mod = math.exp(log_w + math.log(abs(c)) + math.log(abs(d)))
    except OverflowError:
        raise NumericalError("apolar product exceeds the float range") from None
    return mod * (c / abs(c)) * (d / abs(d)).conjugate()


def norm_sq(p: Poly):
    """<p, p>, exact rational for exact input, float otherwise; a float
    value beyond the double range raises NumericalError."""
    if p.field == EXACT:
        # sum alpha! |re + i im|^2 / den^2 over one common denominator
        terms = [(midx_factorial(alpha), *c.parts()) for alpha, c in p.terms.items()]
        den = math.lcm(*(d for *_, d in terms)) ** 2
        return Fraction(sum(w * (re * re + im * im) * (den // (d * d))
                            for w, re, im, d in terms), den)
    total = 0.0
    for alpha, c in p.terms.items():
        total += _float_term(alpha, c, c).real
    return _finite(total)


def norm(p: Poly) -> float:
    return math.sqrt(float(norm_sq(p)))


def log_norm_sq(p: Poly) -> float:
    """log <p, p>, overflow-safe for extreme degrees; -inf for p = 0.

    Float coefficients enter through log|c|, since |c|^2 underflows long
    before |c| does.  A subnormal coefficient whose term is not negligible
    next to the largest one raises NumericalError: the coefficient has lost
    precision, and terms of its size may have flushed to zero unseen.
    """
    if p.is_zero:
        return float("-inf")
    logs = []
    log_subnormal = float("-inf")
    for alpha, c in p.terms.items():
        la = sum(math.lgamma(a + 1) for a in alpha)
        if p.field == EXACT:
            a2 = abs_sq(c)
            lc = math.log(a2.numerator) - math.log(a2.denominator)
        else:
            lc = 2.0 * math.log(abs(c))
            if abs(c) < sys.float_info.min:
                log_subnormal = max(log_subnormal, la + lc)
        logs.append(la + lc)
    top = max(logs)
    if log_subnormal > top + math.log(sys.float_info.epsilon):
        raise NumericalError("float coefficients underflow: the apolar norm has lost "
                             "precision")
    return top + math.log(sum(math.exp(l - top) for l in logs))


def adjoint_residual(q: Poly, f: Poly, g: Poly) -> float:
    """|<q*(D) f, g> - <f, q g>|; identically zero, exactly so on exact input."""
    lhs = inner_product(apply_diff_op(q.star(), f), g)
    rhs = inner_product(f, q * g)
    diff = lhs - rhs
    if diff == 0:
        return 0.0
    return abs(diff)


def reznick_residual(pk: Poly, fm: Poly) -> float:
    """|  ||pk fm||^2 - sum_alpha ||(d^alpha pk*)(D) fm||^2 / alpha!  |.

    Both polynomials must be homogeneous.  The sum runs over |alpha| <=
    deg pk; higher derivatives vanish.  The |alpha| = deg pk slice alone
    already equals ||pk||^2 ||fm||^2, which is Bombieri's inequality.
    """
    if not pk.is_homogeneous():
        raise InvalidInputError("pk must be homogeneous")
    if not fm.is_homogeneous():
        raise InvalidInputError("fm must be homogeneous")
    lhs = norm_sq(pk * fm)
    k = pk.degree
    if pk.is_zero:
        return 0.0
    pk_star = pk.star()
    rhs = Fraction(0) if lhs.__class__ is Fraction else 0.0
    for deg in range(int(k) + 1):
        for alpha in enumerate_monomials(pk.dim, deg):
            d_op = pk_star.derivative(alpha)
            if d_op.is_zero:
                continue
            term = norm_sq(apply_diff_op(d_op, fm))
            rhs += term / midx_factorial(alpha)
    diff = lhs - rhs
    if diff == 0:
        return 0.0
    return abs(float(diff))


def c_alpha_m(alpha, m: int) -> float:
    """Smallest constant C with ||z^alpha f|| <= C ||f|| over degree-m f.

    Equals max over |beta| = m of sqrt((alpha+beta)!/beta!), found by
    enumeration with exact integer ratios; the root is taken at the end.
    """
    alpha = tuple(alpha)
    if m < 0:
        raise InvalidInputError("degree must be >= 0")
    best = max(Fraction(midx_factorial(midx_add(alpha, beta)), midx_factorial(beta))
               for beta in enumerate_monomials(len(alpha), m))
    return math.sqrt(float(best))


def beauzamy_bound(pk: Poly, m: int) -> float:
    """(1+m)^(k/2) sum |c_alpha| sqrt(alpha!) for homogeneous pk of degree k.

    Dominates ||pk f|| / ||f|| for every homogeneous f of degree m.
    """
    if not pk.is_homogeneous():
        raise InvalidInputError("pk must be homogeneous")
    if pk.is_zero:
        return 0.0
    k = pk.degree
    s = sum(math.sqrt(float(abs_sq(c))) * math.sqrt(midx_factorial(alpha))
            for alpha, c in pk.terms.items())
    return (1 + m) ** (k / 2) * s


def shapiro_pointwise_residual(fk: Poly, z) -> float:
    """max(0, |fk(z)|^2 - |z|^(2k) ||fk||^2 / k!); always 0 in theory."""
    if not fk.is_homogeneous():
        raise InvalidInputError("fk must be homogeneous")
    if fk.is_zero:
        return 0.0
    k = fk.degree
    zt = [complex(v) for v in z]
    val = abs(complex(fk.to_float().evaluate(zt))) ** 2
    z_norm_sq = sum(abs(v) ** 2 for v in zt)
    bound = z_norm_sq ** k * float(norm_sq(fk)) / math.factorial(k)
    return max(0.0, val - bound)


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: complex
    stderr: float
    samples: int


def bargmann_mc_estimate(p: Poly, q: Poly, samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo value of the Gaussian integral form of <p, q>.

    Draws z = x + iy with x, y componentwise normal of variance 1/2, so
    the sampling density matches exp(-|x|^2-|y|^2)/pi^d, and averages
    p(z) conj(q(z)).  Deterministic for a fixed seed regardless of how
    chunks are scheduled.
    """
    if p.dim != q.dim:
        raise DimensionMismatchError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    pf, qf = p.to_float(), q.to_float()
    total = 0.0 + 0.0j
    total_abs2 = 0.0
    for pts in sampling.gaussian_point_chunks(p.dim, samples, seed):
        vals = sampling.poly_eval_array(pf, pts) * sampling.poly_eval_array(qf, pts).conj()
        total += vals.sum()
        total_abs2 += float((vals.real ** 2 + vals.imag ** 2).sum())
    mean = complex(total / samples)
    var = max(float(total_abs2) / samples - abs(mean) ** 2, 0.0)
    return MonteCarloEstimate(mean, math.sqrt(var / samples), samples)
