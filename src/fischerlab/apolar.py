"""The apolar inner product and its classical bounds.

For P = sum c_alpha z^alpha and Q = sum d_alpha z^alpha the inner product
is <P,Q> = sum alpha! c_alpha conj(d_alpha); equivalently [Q*(D)P](0).
Multiplication by Q and the differential operator Q*(D) are adjoint to
each other in this product, which is what the residual checkers verify.

Float values past the double range follow one rule: where alpha!, a sum
or a nonzero square leaves the normal doubles, the value is recomputed
exactly on the dyadic values (``fields.dyadic``) and rounded once.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidInputError, NumericalError
from .fields import EXACT, GaussianRational, dyadic
from .polyalg import (Poly, _one_field, apply_diff_op, enumerate_monomials, log_ratio, midx_add,
                      midx_factorial, sqrt_int)
from . import sampling


def inner_product(p: Poly, q: Poly):
    """<p, q> = sum alpha! c_alpha conj(d_alpha); linear in the first slot.

    p and q meet by ``polyalg._one_field``.  Exact inputs give an exact
    Gaussian-rational value, float inputs a sum in floats, alpha! first so
    that it meets a tiny c, or past the double range the exact value
    rounded once (NumericalError if it is past it).
    """
    p, q = _one_field(p, q)
    if len(p.terms) <= len(q.terms):  # over the shorter, in its order
        get = q.terms.get
        triples = [(alpha, c, d) for alpha, c in p.terms.items() if (d := get(alpha)) is not None]
    else:
        get = p.terms.get
        triples = [(alpha, c, d) for alpha, d in q.terms.items() if (c := get(alpha)) is not None]
    if p.field == EXACT:
        total = GaussianRational(0)
        for alpha, c, d in triples:
            total = total + midx_factorial(alpha) * c * d.conjugate()
        return total
    total = 0j
    try:
        for alpha, c, d in triples:
            total += float(midx_factorial(alpha)) * c * d.conjugate()
        if cmath.isfinite(total):
            return total
    except OverflowError:  # alpha! past the double range
        pass
    try:
        return complex(inner_product(_dyadic(p), _dyadic(q)))
    except NumericalError:
        raise NumericalError("apolar product exceeds the float range") from None


def _dyadic(p: Poly) -> Poly:
    """p, with float coefficients read exactly (``fields.dyadic``)."""
    return p if p.field == EXACT else Poly(p.dim, {a: dyadic(c) for a, c in p.terms.items()})


def _sq_numerator(pairs) -> int:
    """sum alpha! (re^2 + im^2) over (alpha, (re, im)) pairs: <p, p> den^2
    for the exact p = sum (re + i im) z^alpha / den."""
    return sum(midx_factorial(alpha) * (re * re + im * im) for alpha, (re, im) in pairs)


def norm_sq(p: Poly):
    """<p, p>, exact rational for exact input, else ``inner_product``'s
    float, or one rounding of the exact value when that is not normal."""
    if p.field == EXACT:
        pairs, den = p.numerators()
        return Fraction(_sq_numerator(pairs.items()), den * den)
    sq = inner_product(p, p).real
    return sq if sq >= sys.float_info.min or p.is_zero else float(norm_sq(_dyadic(p)))


def norm(p: Poly) -> float:
    """sqrt(<p, p>) as a float, in either field: the root of the float
    square when that is a normal double, else ``sqrt_int`` of the exact
    square; a norm itself past the double range raises NumericalError."""
    try:
        sq = float(norm_sq(p))
    except (NumericalError, OverflowError):  # a float square, an exact one
        sq = 0.0
    if sq >= sys.float_info.min or p.is_zero:
        return math.sqrt(sq)
    exact = norm_sq(_dyadic(p))
    try:
        return sqrt_int(exact.numerator, exact.denominator)
    except NumericalError:
        raise NumericalError("apolar norm exceeds the float range") from None


# log a! = lgamma(a + 1) at index a, grown on demand by float log_norm_sq
_LOG_FACTORIALS = []


def log_norm_sq(p: Poly) -> float:
    """log <p, p>, overflow-safe for extreme degrees; -inf for p = 0.

    An exact p's value is ``polyalg.log_ratio`` of ``norm_sq(p)``: the log
    of the exact rational sum alpha! |c|^2, taken once.
    Float coefficients enter through log|c|, since |c|^2 underflows long
    before |c| does: log alpha! is the left-to-right sum of lgamma(a_i + 1),
    read from a module-level table grown to the largest exponent seen, and
    the terms' logs meet in one log-sum-exp.  A subnormal coefficient whose
    term is not negligible next to the largest one raises NumericalError:
    the coefficient has lost precision, and terms of its size may have
    flushed to zero unseen.
    """
    if p.is_zero:
        return float("-inf")
    if p.field == EXACT:
        sq = norm_sq(p)
        return log_ratio(sq.numerator, sq.denominator)
    terms = p.terms
    table = _LOG_FACTORIALS
    for a in range(len(table), max(map(max, terms)) + 1):
        table.append(math.lgamma(a + 1))
    log_fact = table.__getitem__
    log = math.log
    mods = list(map(abs, terms.values()))
    logs = [sum(map(log_fact, alpha)) + 2.0 * log(mod) for alpha, mod in zip(terms, mods)]
    log_subnormal = max((l for l, mod in zip(logs, mods) if mod < sys.float_info.min),
                        default=float("-inf"))
    top = max(logs)
    if log_subnormal > top + log(sys.float_info.epsilon):
        raise NumericalError("float coefficients underflow: the apolar norm has lost "
                             "precision")
    return top + log(sum(map(math.exp, [l - top for l in logs])))


def adjoint_residual(q: Poly, f: Poly, g: Poly) -> float:
    """|<q*(D) f, g> - <f, q g>|; identically zero, exactly so on exact input."""
    lhs = inner_product(apply_diff_op(q.star(), f), g)
    rhs = inner_product(f, q * g)
    diff = lhs - rhs
    if diff == 0:
        return 0.0
    return abs(diff)


@lru_cache(maxsize=1024)
def _unit_operator(dim: int, alpha: tuple, field) -> Poly:
    """z^alpha, the operator D^alpha; a Poly is immutable, so one serves
    every call."""
    return Poly.monomial(dim, alpha, 1, field=field)


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
            d_op = apply_diff_op(_unit_operator(pk.dim, alpha, pk.field), pk_star)
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
    if any(a < 0 for a in alpha):  # midx_factorial reads exponents as table indices
        raise InvalidInputError(f"exponents must be >= 0, got {alpha}")
    best = max(Fraction(midx_factorial(midx_add(alpha, beta)), midx_factorial(beta))
               for beta in enumerate_monomials(len(alpha), m))
    return sqrt_int(best.numerator, best.denominator)


def beauzamy_bound(pk: Poly, m: int) -> float:
    """(1+m)^(k/2) sum |c_alpha| sqrt(alpha!) for homogeneous pk of degree k.

    Dominates ||pk f|| / ||f|| for every homogeneous f of degree m.  Each
    |c_alpha| is ``abs(c)``, never a root of |c|^2, which overflows from
    |c| ~ 1e154; an exact c, a modulus, (1+m)^(k/2) or the bound past the
    double range raises NumericalError.
    """
    if not pk.is_homogeneous():
        raise InvalidInputError("pk must be homogeneous")
    if pk.is_zero:
        return 0.0
    k = pk.degree
    try:
        bound = (1 + m) ** (k / 2) * sum(abs(c) * sqrt_int(midx_factorial(alpha))
                                         for alpha, c in pk.terms.items())
    except OverflowError:  # the power, or the modulus of a float c, alone
        bound = math.inf
    if bound == math.inf:
        raise NumericalError("the Beauzamy bound exceeds the float range")
    return bound


def shapiro_pointwise_residual(fk: Poly, z) -> float:
    """max(0, |fk(z)|^2 - |z|^(2k) ||fk||^2 / k!); always 0 in theory.

    Where k!, |z|^2k, ||fk||^2 or the bound leaves the double range, the
    bound is recomputed exactly, on fk's dyadic values for float fk, and
    rounded once; a value beyond the range raises NumericalError."""
    if not fk.is_homogeneous():
        raise InvalidInputError("fk must be homogeneous")
    if fk.is_zero:
        return 0.0
    k = fk.degree
    zt = [complex(v) for v in z]
    z_norm_sq = sum(abs(v) ** 2 for v in zt)
    try:
        bound = z_norm_sq ** k * float(norm_sq(fk)) / math.factorial(k)
    except (OverflowError, NumericalError):  # k!, |z|^2k or ||fk||^2 past the range
        bound = math.inf
    if not math.isfinite(bound):
        bound = Fraction(z_norm_sq) ** k * norm_sq(_dyadic(fk)) / math.factorial(k)
    try:
        return max(0.0, abs(complex(fk.to_float().evaluate(zt))) ** 2 - float(bound))
    except OverflowError:
        raise NumericalError("a pointwise value exceeds the float range") from None


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
    pf, qf = (g.to_float() for g in _one_field(p, q))
    if samples < 2:  # one sample has no spread: a standard error of 0
        raise InvalidInputError(f"samples must be >= 2, got {samples}")
    total = 0.0 + 0.0j
    total_abs2 = 0.0
    for pts in sampling.gaussian_point_chunks(p.dim, samples, seed):
        vals = sampling.poly_eval_array(pf, pts) * sampling.poly_eval_array(qf, pts).conj()
        total += vals.sum()
        total_abs2 += float((vals.real ** 2 + vals.imag ** 2).sum())
    mean = complex(total / samples)
    var = max(float(total_abs2) / samples - abs(mean) ** 2, 0.0)
    return MonteCarloEstimate(mean, math.sqrt(var / samples), samples)
