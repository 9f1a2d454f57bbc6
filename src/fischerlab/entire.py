"""Entire functions as degree-indexed streams of homogeneous components.

Everything here is degree-wise: growth order is fitted to the decay of the
components' sphere sup norms, read off their exact apolar norms (which
bracket the sup norm up to a factor polynomial in the degree), weighted
sup norms classify membership in the lambda-weighted Banach spaces, and
a stream's truncation is the polynomial that ``fischer.decompose_direct``
divides (``decompose_entire`` is that call under its former name).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import apolar
from .errors import FormatError, InvalidInputError, NumericalError
from .fields import EXACT, FLOAT
from .fischer import DecompositionResult, decompose_direct
from .polyalg import (Poly, _float_products, _from_numerators, _gaussian_products, _merge_into,
                      log_ratio, poly_from_dict)


class TaylorStream:
    """Supplier of the homogeneous components f_m of an entire function.

    ``max_degree`` is the declared supply limit (math.inf for closed-form
    generators).  Components are cached.  A stream backed by a polynomial
    has its degree as ``poly_degree`` (-1 for zero; None for any other
    stream): every component beyond it is known to be exactly zero.
    A component from ``component_fn`` must be homogeneous of its degree
    (or zero) and is checked; ``from_poly`` and ``from_exp`` build theirs
    so and skip the check.  ``log_norm_sq(m)`` is log ||f_m||^2, which an
    exact ``from_exp`` stream reads off its recurrence's numerators without
    building f_m.
    """

    def __init__(self, dim, component_fn, max_degree=math.inf, poly_degree=None):
        if dim < 1:
            raise InvalidInputError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.max_degree = max_degree
        self.poly_degree = poly_degree
        self._fn = component_fn
        self._check = True
        self._log_norm = None
        self._cache = {}

    def _check_degree(self, m: int) -> None:
        if m < 0:
            raise InvalidInputError("component degree must be >= 0")
        if m > self.max_degree:
            raise InvalidInputError(
                f"component {m} beyond declared max degree {self.max_degree}")

    def component(self, m: int) -> Poly:
        self._check_degree(m)
        if m not in self._cache:
            fm = self._fn(m)
            if self._check and not fm.is_homogeneous(m) and not fm.is_zero:
                raise InvalidInputError(f"component {m} is not homogeneous of degree {m}")
            self._cache[m] = fm
        return self._cache[m]

    def log_norm_sq(self, m: int) -> float:
        """``apolar.log_norm_sq(self.component(m))``, bit for bit, with the
        same argument checks as ``component``; an exact exp stream takes it
        from the numerators f_m already has in its recurrence."""
        self._check_degree(m)
        if self._log_norm is not None:
            return self._log_norm(m)
        return apolar.log_norm_sq(self.component(m))

    def truncate(self, cap: int) -> Poly:
        """Sum of components up to min(cap, max_degree), float if any is."""
        cap = int(min(cap, self.max_degree))
        return _join(self.dim, [self.component(m) for m in range(cap + 1)])

    @classmethod
    def from_poly(cls, p: Poly) -> "TaylorStream":
        comps = p.homogeneous_components()
        zero = Poly.zero(p.dim, p.field)
        deg = -1 if p.is_zero else int(p.degree)
        stream = cls(p.dim, lambda m: comps.get(m, zero), max_degree=math.inf,
                     poly_degree=deg)
        stream._check = False
        return stream

    @classmethod
    def from_exp(cls, inner: Poly, max_degree=math.inf) -> "TaylorStream":
        """Components of exp(inner), inner a polynomial with inner(0) = 0.

        Uses the Euler-operator recurrence m f_m = sum_j (j g_j) f_{m-j}, g_j
        the components of inner, on plain coefficient dicts multiplied by
        ``Poly``'s own product kernels; only the requested component becomes
        a Poly.  Exact input runs on Gaussian-integer numerators: inner's
        over their denominator D, and f_n's over n! D^n, never reduced, so
        components are exactly those of the Gaussian-rational recurrence,
        and ``log_norm_sq`` reads log ||f_m||^2 off f_m's numerators, with no
        GaussianRational built: the same exact rational ``apolar.log_norm_sq``
        takes the log of, so the same float.  Float input
        takes the recurrence's float operations in a fixed order (product,
        times j, sum over j, times 1/n), so components repeat bit for bit.
        A float component that underflow has emptied raises NumericalError:
        a product of nonzero doubles is zero only by underflow, and an
        all-zero component would read as a polynomial's tail.  So does the
        first float component with an infinite or NaN coefficient, which
        overflow has left without a meaningful norm.
        """
        if not inner.homogeneous_component(0).is_zero:
            raise InvalidInputError("exp generator needs vanishing constant term")
        if inner.field == EXACT:
            comp, log_norm = _exact_exp_components(inner)
        else:
            comp, log_norm = _float_exp_components(inner), None
        stream = cls(inner.dim, comp, max_degree=max_degree)
        stream._check = False
        stream._log_norm = log_norm
        return stream


def _join(dim, parts) -> Poly:
    """Sum of polynomials of disjoint degrees, float if any part is: then
    every part goes through ``Poly.to_float``, as ``polyalg._one_field``
    promotes two operands."""
    field = FLOAT if any(g.field == FLOAT for g in parts) else EXACT
    parts = [g.to_float() for g in parts] if field == FLOAT else parts
    return Poly._canonical(dim, {a: c for g in parts for a, c in g.terms.items()}, field)


def _pair_add(u, v):
    return u[0] + v[0], u[1] + v[1]


def _exact_exp_components(inner: Poly):
    """(comp, log_norm) of exp(inner) for exact inner, on Z[i] numerators:
    comp(m) is f_m and log_norm(m) is log ||f_m||^2.  With g_j = G_j / D
    over inner's numerators, f_n = N_n / (n! D^n) for the Gaussian integers
    N_n = sum_j j (n-1)!/(n-j)! D^(j-1) G_j N_(n-j): no denominator to keep."""
    dim = inner.dim
    pairs, scale = inner.numerators()
    parts = [(j, [(a, pairs[a]) for a in gj.terms])
             for j, gj in inner.homogeneous_components().items()]
    nums = [{(0,) * dim: (1, 0)}]  # f_n = nums[n] / (n! scale^n)

    def step(n):
        acc = {}
        for j, gj in parts:
            if j > n or not nums[n - j]:
                continue
            w = j * math.perm(n - 1, j - 1) * scale ** (j - 1)
            prod = _gaussian_products([(a, (w * gr, w * gi)) for a, (gr, gi) in gj],
                                      nums[n - j].items())
            part = {k: v for k, v in prod.items() if v[0] or v[1]}
            if acc:
                _merge_into(acc, part, _pair_add, (0, 0))
            else:
                acc = part
        nums.append(acc)

    def numerators(m):
        for n in range(len(nums), m + 1):
            step(n)
        return nums[m], math.factorial(m) * scale ** m

    def comp(m):
        return _from_numerators(dim, *numerators(m))

    def log_norm(m):
        num, den = numerators(m)
        sq = apolar._sq_numerator(num.items())
        return log_ratio(sq, den * den) if sq else float("-inf")

    return comp, log_norm


def _float_exp_components(inner: Poly):
    """component(m) of exp(inner) for float inner, bit for bit the Poly-op
    recurrence acc + (g_j * f_{n-j}) * j, then acc * (1/n)."""
    dim = inner.dim
    parts = [(j, list(gj.terms.items()))
             for j, gj in inner.homogeneous_components().items()]
    comps = [{(0,) * dim: 1 + 0j}]

    def step(n):
        acc = {}
        for j, gj in parts:
            if j > n or not comps[n - j]:
                continue
            prod = _float_products(gj, comps[n - j].items())
            part = {k: v * j for k, v in prod.items() if v != 0}
            if acc:
                _merge_into(acc, part)
            else:
                acc = part
        inv = 1.0 / n
        out = {k: s for k, v in acc.items() if (s := v * inv) != 0}
        if not out and (acc or _product_underflows(parts, comps, n)):
            raise NumericalError(f"exp stream component {n} underflowed to zero "
                                 "in double precision")
        if not all(map(cmath.isfinite, out.values())):
            raise NumericalError(f"exp stream component {n} overflowed the double range")
        comps.append(out)

    def comp(m):
        for n in range(len(comps), m + 1):
            step(n)
        return Poly._canonical(dim, comps[m], FLOAT)

    return comp


def _product_underflows(parts, comps, n) -> bool:
    """Whether some g_j * f_{n-j} coefficient product flushed to zero."""
    return any(ca * cb == 0 for j, gj in parts if j <= n
               for _, ca in gj for cb in comps[n - j].values())


class LambdaSeq:
    """Decreasing positive weights lambda_m <= 1 tending to zero.

    Values are clamped by min(., 1), which leaves the induced space
    unchanged.  Construction probes a geometric grid of degrees and
    rejects sequences that fail to decrease toward zero there; an actual
    limit cannot be certified from finitely many samples.
    """

    _PROBE = [1, 2, 4, 8, 16, 64, 256, 1024, 4096, 16384]

    def __init__(self, fn, name="lambda"):
        self._fn = fn
        self.name = name
        vals = [self(m) for m in self._PROBE]
        if any(v <= 0 for v in vals):
            raise InvalidInputError("lambda values must be positive")
        if any(b > a + 1e-15 for a, b in zip(vals, vals[1:])):
            raise InvalidInputError("lambda values must be non-increasing")
        if not vals[-1] < vals[0]:
            raise InvalidInputError(
                "lambda sequence shows no decrease toward 0 on the probe grid")

    def __call__(self, m: int) -> float:
        return min(float(self._fn(m)), 1.0)


def lambda_from_spec(spec: str) -> LambdaSeq:
    """Named weight sequences for the CLI: 'inv-log', 'inv-linear', 'power:p'."""
    if spec == "inv-log":
        return LambdaSeq(lambda m: 1.0 / math.log(m + 2), "inv-log")
    if spec == "inv-linear":
        return LambdaSeq(lambda m: 1.0 / (m + 1), "inv-linear")
    if spec.startswith("power:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise FormatError(f"bad lambda spec {spec!r}") from exc
        if not 0 < p < math.inf:
            raise FormatError("power exponent must be positive and finite")
        return LambdaSeq(lambda m: (m + 1.0) ** (-p), spec)
    raise FormatError(f"unknown lambda spec {spec!r}")


# ---------------------------------------------------------------------------
# growth diagnostics

@dataclass(frozen=True)
class OrderEstimate:
    rho: float
    flag: str
    samples: list


def order_estimate(f: TaylorStream, degrees) -> OrderEstimate:
    """Growth order from the decay of the components' sphere sup norms.

    For homogeneous f_m in d variables the apolar norm brackets the sup
    norm over the unit sphere: sqrt((d-1)!/(m+d-1)!) ||f_m|| <= max_S |f_m|
    <= ||f_m|| / sqrt(m!) (||f_m||^2 as a Gaussian integral in polar
    coordinates, and Cauchy-Schwarz against the kernel (z.conj(w))^m/m!).  So
    each sample is the exact, seed-free (lgamma(m+d) - log ||f_m||^2) / 2,
    which is -log max_S |f_m| up to a factor polynomial in m (exactly so
    for d = 1).  If the sup norm decays like m^(-m/rho) C^m m^s, the
    sample is asymptotically (1/rho) m log m - (log C) m - s log m; a
    three-term least-squares fit over the upper half of the requested
    degrees recovers 1/rho, and its s log m column absorbs the bracket's
    polynomial factor.  All-zero tails report order 0 with a
    'polynomial/zero' flag.  log ||f_m||^2 is ``f.log_norm_sq(m)``: for an
    exact f_m, the log of the exact rational ||f_m||^2, taken once.
    """
    degrees = [m for m in degrees if 0 <= m <= f.max_degree]
    if len(degrees) < 20:
        raise InvalidInputError("order estimation needs at least 20 degrees")
    samples = []
    for m in degrees:
        log_nsq = f.log_norm_sq(m)
        if m >= 2 and not math.isinf(log_nsq):
            samples.append((m, 0.5 * (math.lgamma(m + f.dim) - log_nsq)))
    tail_start = degrees[len(degrees) // 2]
    tail = [(m, L) for m, L in samples if m >= tail_start]
    if not tail:
        return OrderEstimate(0.0, "polynomial/zero", [])
    if len(tail) < 4:
        return OrderEstimate(0.0, "insufficient-tail", tail)
    x = np.array([[m * math.log(m), m, math.log(m)] for m, _ in tail])
    y = np.array([L for _, L in tail])
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    a = float(coef[0])
    if a <= 0:
        return OrderEstimate(float("inf"), "super-order-growth", tail)
    return OrderEstimate(1.0 / a, "", tail)


@dataclass(frozen=True)
class WeightedNormReport:
    norm: float
    argmax_m: int
    membership_trend: str


def blambda_norm(f: TaylorStream, lam: LambdaSeq, m_cap: int) -> WeightedNormReport:
    """Truncated sup of ||f_m|| / (m^(m/2) lambda_m^m) with trend flag.

    The m = 0 term is read as ||f_0||, and every log ||f_m||^2 from
    ``f.log_norm_sq(m)``, so an exact stream's is the log of the exact
    rational ||f_m||^2, taken once.  The trend compares the weighted
    ratios over the last quartile of degrees: steady decay is consistent
    with membership (the defining ratio must tend to 0), a flat or rising
    tail is not.  A sup past the double range raises NumericalError.
    """
    if m_cap < 1:
        raise InvalidInputError("m_cap must be >= 1")
    m_cap = int(min(m_cap, f.max_degree))
    logs = []
    for m in range(m_cap + 1):
        log_nsq = f.log_norm_sq(m)
        if math.isinf(log_nsq):
            logs.append(float("-inf"))
            continue
        t = 0.5 * log_nsq
        if m >= 1:
            t -= 0.5 * m * math.log(m)
            t -= m * math.log(lam(m))
        logs.append(t)
    best = max(logs)
    argmax = logs.index(best)
    try:
        norm_val = math.exp(best) if not math.isinf(best) else 0.0
    except OverflowError:
        raise NumericalError("the weighted sup norm exceeds the float range") from None
    quart = [v for v in logs[-max(2, (m_cap + 1) // 4):] if not math.isinf(v)]
    if len(quart) < 2:
        trend = "consistent-with-membership"
    else:
        drops = [b - a for a, b in zip(quart, quart[1:])]
        if all(dr <= 1e-12 for dr in drops) and quart[-1] < quart[0] - 1e-9:
            trend = "consistent-with-membership"
        elif quart[-1] >= quart[0] - 1e-9:
            trend = "not-converging-to-0"
        else:
            trend = "inconclusive"
    return WeightedNormReport(norm_val, argmax, trend)


def _checked_tau(k: int, tau, beta: int) -> Fraction:
    """tau exactly, after both condition checks' preconditions 0 <= beta < k
    and 0 <= tau <= k, which a NaN or infinite tau fails."""
    if not 0 <= beta < k:
        raise InvalidInputError("need 0 <= beta < k")
    if not 0 <= tau <= k:
        raise InvalidInputError(f"need 0 <= tau <= k, got tau = {tau!r}")
    return Fraction(tau)


def check_main_condition(k: int, tau, beta: int, rho) -> bool:
    """Exact test of rho (k - tau) < 2 (k - beta).  rho = inf, the order of
    super-order growth, fails it for tau < k and is refused at tau = k,
    where inf * 0 has no value; a NaN tau or rho is refused."""
    tau = _checked_tau(k, tau, beta)
    if not rho >= 0:
        raise InvalidInputError(f"need rho >= 0, got rho = {rho!r}")
    if rho == math.inf:
        if tau == k:
            raise InvalidInputError("rho = inf at tau = k: inf * 0 has no value")
        return False
    return Fraction(rho) * (k - tau) < 2 * (k - beta)


def check_lambda_condition(lam: LambdaSeq, k: int, tau, beta: int, probe=None):
    """Numerically probe m^((k-tau)/2) lambda_m^(k-beta) -> 0.

    Returns (verdict, tail samples); the verdict is a monotone-tail
    heuristic over the last quartile of the probe range.  Its preconditions
    are ``check_main_condition``'s: 0 <= beta < k and 0 <= tau <= k.
    """
    tau = float(_checked_tau(k, tau, beta))
    probe = list(probe) if probe is not None else list(range(4, 4097, 8))
    if len(probe) < 20:
        raise InvalidInputError("probe range must cover at least 20 degrees")
    vals = [(m, m ** ((k - tau) / 2) * lam(m) ** (k - beta)) for m in probe]
    tail = vals[-max(5, len(vals) // 4):]
    ys = [v for _, v in tail]
    decreasing = all(b <= a * (1 + 1e-12) for a, b in zip(ys, ys[1:]))
    increasing = all(b >= a * (1 - 1e-12) for a, b in zip(ys, ys[1:]))
    full_ratio = vals[-1][1] / vals[0][1] if vals[0][1] > 0 else float("inf")
    if decreasing and full_ratio < 0.5:
        verdict = "tending-to-zero"
    elif increasing and full_ratio > 2.0:
        verdict = "not-tending"
    else:
        verdict = "inconclusive"
    return verdict, tail


# ---------------------------------------------------------------------------
# truncated decomposition

def decompose_entire(p: Poly, f: TaylorStream, m_cap: int) -> DecompositionResult:
    """``fischer.decompose_direct(p, f, m_cap)``, under its former name."""
    return decompose_direct(p, f, m_cap)


# ---------------------------------------------------------------------------
# stream interchange format

def stream_from_dict(obj) -> TaylorStream:
    """Parse {"kind": "poly", ...polynomial...} or
    {"kind": "exp_poly", "inner": <polynomial>, "max_degree": M}.

    A poly-kind stream supplies every component, so a ``max_degree`` it
    declares below the polynomial's degree is a FormatError."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError("stream object needs a 'kind'")
    kind = obj["kind"]
    cap = obj.get("max_degree", math.inf)
    if "max_degree" in obj and (type(cap) is not int or cap < 0):
        raise FormatError(f"max_degree must be a non-negative integer, got {cap!r}")
    if kind == "poly":
        body = {k: v for k, v in obj.items() if k not in ("kind", "max_degree")}
        poly = poly_from_dict(body)
        if poly.degree > cap:
            raise FormatError(f"max_degree {cap} is below the polynomial's degree {poly.degree}")
        return TaylorStream.from_poly(poly)
    if kind == "exp_poly":
        if "inner" not in obj:
            raise FormatError("exp_poly stream needs 'inner'")
        inner = poly_from_dict(obj["inner"])
        return TaylorStream.from_exp(inner, max_degree=cap)
    raise FormatError(f"unknown stream kind {kind!r}")

