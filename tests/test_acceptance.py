"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time
from fractions import Fraction

from fischerlab import apolar, entire, fischer, spectral
from fischerlab.entire import TaylorStream
from fischerlab.polyalg import (Poly, apply_diff_op, midx_factorial, variables)
from conftest import rand_homogeneous, rand_poly


def _criterion(number, name):
    def wrap(fn):
        def run():
            start = time.time()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {name}: FAIL "
                      f"({time.time() - start:.1f}s)")
                raise
            print(f"ACCEPTANCE {number:2d} {name}: PASS "
                  f"({time.time() - start:.1f}s)")
        run.__name__ = fn.__name__
        return run
    return wrap


# ---------------------------------------------------------------------------

@_criterion(1, "exact identity suite")
def test_exact_identity_suite():
    rng = random.Random(101)
    cases = 200
    for _ in range(cases):
        d = rng.randint(1, 3)
        k = rng.randint(1, 3)
        m = rng.randint(0, 5)
        q = rand_poly(rng, d, 3)
        f = rand_poly(rng, d, 5)
        g = rand_poly(rng, d, 3)
        assert apolar.adjoint_residual(q, f, g) == 0
        pk = rand_homogeneous(rng, d, k)
        fm = rand_homogeneous(rng, d, m)
        assert apolar.reznick_residual(pk, fm) == 0
        alpha = tuple(rng.randint(0, 2) for _ in range(d))
        beta = tuple(rng.randint(0, 2) for _ in range(d))
        ip = apolar.inner_product(Poly(d, {alpha: 1}), Poly(d, {beta: 1}))
        assert ip == (midx_factorial(alpha) if alpha == beta else 0)
        if m >= k:
            res = fischer.project_homogeneous(pk, fm)
            assert fm == pk * res.q + res.r
            assert apolar.inner_product(pk * res.q, res.r) == 0
            assert apolar.norm_sq(fm) == \
                apolar.norm_sq(pk * res.q) + apolar.norm_sq(res.r)
            assert res.annihilator_residual == 0


@_criterion(2, "float inequality suite")
def test_float_inequality_suite():
    rng = random.Random(202)
    cases = 500
    violations = 0
    for _ in range(cases):
        d = rng.randint(1, 3)
        k = rng.randint(1, 3)
        m = rng.randint(0, 5)
        pk = rand_homogeneous(rng, d, k).to_float()
        fm = rand_homogeneous(rng, d, m).to_float()
        prod_norm = apolar.norm(pk * fm)
        base = apolar.norm(pk) * apolar.norm(fm)
        if prod_norm < base * (1 - 1e-9):
            violations += 1
        if prod_norm > apolar.beauzamy_bound(pk, m) * apolar.norm(fm) * (1 + 1e-9):
            violations += 1
        z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
        if apolar.shapiro_pointwise_residual(fm, z) > 1e-9 * max(1.0, float(apolar.norm_sq(fm))):
            violations += 1
        alpha = tuple(rng.randint(0, 2) for _ in range(d))
        mono_prod = apolar.norm(Poly(d, {alpha: 1.0}) * fm)
        lo, hi = apolar.norm(fm), apolar.c_alpha_m(alpha, m) * apolar.norm(fm)
        if mono_prod < lo * (1 - 1e-9) or mono_prod > hi * (1 + 1e-9):
            violations += 1
    assert violations == 0


@_criterion(3, "1d factorial law")
def test_univariate_factorial_law():
    rng = random.Random(303)
    for _ in range(60):
        k = rng.randint(1, 4)
        m = rng.randint(0, 30)
        a = complex(rng.gauss(0, 2), rng.gauss(0, 2))
        if abs(a) < 1e-6:
            a = 1.0 + 0j
        lo, hi = spectral.sigma_extremes(Poly(1, {(k,): a}), m)
        expected = abs(a) * math.sqrt(math.factorial(k + m) / math.factorial(m))
        assert abs(lo - expected) <= 1e-10 * expected
        assert abs(hi - expected) <= 1e-10 * expected


@_criterion(4, "series/direct oracle equivalence")
def test_series_direct_equivalence():
    rng = random.Random(404)
    cases = 100
    for i in range(cases):
        beta = i % 2
        pk = rand_homogeneous(rng, 2, 2)
        low = rand_homogeneous(rng, 2, beta)
        p = pk - low
        f = rand_poly(rng, 2, 8, n_terms=6)
        direct = fischer.decompose_direct(p, f)
        series = fischer.decompose_series(p, f)
        assert direct.q == series.q and direct.r == series.r
        assert p * direct.q + direct.r == f
        assert apply_diff_op(pk.star(), direct.r).is_zero
        assert direct.annihilator_residual == 0 == series.annihilator_residual


@_criterion(5, "laplacian projection oracle")
def test_laplacian_projection():
    x, y = variables(2)
    res = fischer.project_homogeneous(x * x + y * y, x * x)
    assert res.q == Poly.constant(2, Fraction(1, 2))
    assert res.r == (x * x - y * y) * Fraction(1, 2)


@_criterion(6, "degenerate vs generic quadratic classes")
def test_quadratic_class_reproduction():
    x, y = variables(2)
    p_degenerate = (x + y) ** 2          # coefficients (1, 2, 1)
    base = math.sqrt(8)
    for m in range(2, 41):
        lo, _ = spectral.sigma_extremes(p_degenerate, m)
        assert lo <= base * (1 + 1e-9)
    rep = spectral.ks_exponent_fit(p_degenerate, (8, 40))
    assert -0.1 <= rep.fitted_tau <= 0.1
    p_generic = x * x + x * y + y * y    # coefficients (1, 1, 1)
    rep2 = spectral.ks_exponent_fit(p_generic, (8, 40))
    assert 0.8 <= rep2.fitted_tau <= 1.2
    w = x - y
    for m in range(0, 21):
        wm = w ** m
        assert apolar.norm_sq(p_degenerate * wm) == 8 * math.factorial(m) * 2 ** m


@_criterion(7, "amenable benchmarks")
def test_amenable_benchmarks():
    x, y = variables(2)
    rep = spectral.ks_exponent_fit(x * x + y * y, (8, 40))
    assert 0.85 <= rep.fitted_tau <= 1.15
    rep2 = spectral.ks_exponent_fit(x, (8, 40))
    assert -0.05 <= rep2.fitted_tau <= 0.05
    for m in range(2, 41):
        lo, _ = spectral.sigma_extremes(x, m)
        assert abs(lo - 1.0) <= 1e-10


@_criterion(8, "kernel bases")
def test_kernel_bases():
    x, y = variables(2)
    basis = spectral.kernel_basis(x * x, 3)
    assert len(basis) == 2
    for b in basis:
        assert apply_diff_op(x * x, b).is_zero
    basis2 = spectral.kernel_basis(x * x + y * y, 2)
    assert len(basis2) == 2
    for b in basis2:
        assert apply_diff_op(x * x + y * y, b).is_zero


E_50_DIGITS = Fraction(
    "2.71828182845904523536028747135266249775724709369996")


@_criterion(9, "univariate entire remainder at e")
def test_univariate_entire_e():
    z, = variables(1)
    stream = TaylorStream.from_exp(z, max_degree=60)
    res = fischer.decompose_direct(z - 1, stream, max_degree=30)
    assert res.r.degree <= 0
    r_val = complex(res.r.coefficient((0,)))
    assert abs(r_val - float(E_50_DIGITS)) <= 1e-12
    assert abs(r_val.imag) <= 1e-14


@_criterion(10, "entire series sanity")
def test_entire_series_sanity():
    x, y = variables(2)
    p = x * x - 1
    f = TaylorStream.from_exp(y, max_degree=60)
    dec = entire.decompose_entire(p, f, 40)
    for m in range(0, 39):
        assert dec.q.homogeneous_component(m).is_zero
    for m in range(0, 39):
        assert dec.r.homogeneous_component(m) == f.component(m)
    rng = random.Random(1010)
    for _ in range(5):
        fpoly = rand_poly(rng, 2, 6)
        direct = fischer.decompose_direct(p, fpoly)
        dec2 = entire.decompose_entire(p, TaylorStream.from_poly(fpoly), 30)
        assert dec2.q == direct.q
        assert dec2.r == direct.r


@_criterion(11, "growth order estimation")
def test_growth_order_estimation():
    z, = variables(1)
    est1 = entire.order_estimate(TaylorStream.from_exp(z, max_degree=210),
                                 range(20, 201))
    assert abs(est1.rho - 1.0) <= 0.1
    est2 = entire.order_estimate(TaylorStream.from_exp(z * z, max_degree=210),
                                 range(20, 201))
    assert abs(est2.rho - 2.0) <= 0.2
    rng = random.Random(1111)
    for _ in range(3):
        p = rand_poly(rng, 1, 15)
        est = entire.order_estimate(TaylorStream.from_poly(p), range(20, 201))
        assert est.rho < 0.05


@_criterion(12, "gaussian integral monte carlo")
def test_gaussian_integral_mc():
    rng = random.Random(1212)
    hits = 0
    total = 10
    for case in range(total):
        d = rng.randint(1, 2)
        p = rand_poly(rng, d, 3)
        q = rand_poly(rng, d, 3)
        est = apolar.bargmann_mc_estimate(p, q, 10 ** 6, seed=9000 + case)
        exact = complex(apolar.inner_product(p, q))
        if abs(est.estimate - exact) <= 4 * est.stderr + 1e-12:
            hits += 1
    assert hits >= 9


@_criterion(13, "condition checkers")
def test_condition_checkers():
    assert entire.check_main_condition(2, 1, 0, 3) is True
    assert entire.check_main_condition(2, 0, 1, 1) is False
    assert entire.check_main_condition(2, 2, 0, 50) is True
    assert entire.check_main_condition(3, 3, 2, 1000) is True
    lam1 = entire.LambdaSeq(lambda m: 1.0 / (m + 1), "inv-linear")
    verdict1, _ = entire.check_lambda_condition(lam1, 2, 1, 0)
    assert verdict1 == "tending-to-zero"
    lam2 = entire.LambdaSeq(lambda m: (m + 1.0) ** -0.125, "power:1/8")
    verdict2, _ = entire.check_lambda_condition(lam2, 2, 1, 0)
    assert verdict2 == "not-tending"
