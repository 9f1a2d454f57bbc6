import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fischerlab import apolar, fischer, sampling
from fischerlab.errors import DimensionMismatchError, InvalidInputError, NumericalError
from fischerlab.fields import FLOAT, GaussianRational
from fischerlab.polyalg import Poly, enumerate_monomials, log_ratio, midx_factorial, variables
from conftest import (exact_homogeneous, exact_polys, gaussian_rationals,
                      rand_homogeneous, rand_poly)


def test_inner_product_monomial():
    p = Poly(2, {(2, 1): 1})
    assert apolar.inner_product(p, p) == 2  # 2! * 1!


def test_distinct_monomials_orthogonal():
    assert apolar.inner_product(Poly.variable(2, 0), Poly.variable(2, 1)) == 0


def test_inner_product_square_of_sum():
    x, y = variables(2)
    p = (x + y) ** 2
    assert apolar.inner_product(p, p) == 8


def test_inner_product_constant_slot():
    x, y = variables(2)
    p = 3 * x * y + 7
    one = Poly.constant(2, 1)
    assert apolar.inner_product(p, one) == p.evaluate((0, 0))


def test_inner_product_sesquilinear(rng):
    c = GaussianRational(Fraction(2, 3), Fraction(-1, 2))
    for _ in range(10):
        p, q, g = (rand_poly(rng, 2, 4) for _ in range(3))
        assert apolar.inner_product(p * c + q, g) == \
            c * apolar.inner_product(p, g) + apolar.inner_product(q, g)
        assert apolar.inner_product(g, p * c) == \
            c.conjugate() * apolar.inner_product(g, p)


def test_inner_product_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        apolar.inner_product(Poly.variable(1, 0), Poly.variable(2, 0))


def test_monomial_orthogonality_table():
    monos = enumerate_monomials(2, 3) + enumerate_monomials(2, 2)
    for a in monos:
        for b in monos:
            val = apolar.inner_product(Poly(2, {a: 1}), Poly(2, {b: 1}))
            assert val == (midx_factorial(a) if a == b else 0)


@pytest.mark.parametrize("m", [0, 1, 2, 5, 11])
def test_norm_binomial_difference(m):
    x, y = variables(2)
    assert apolar.norm_sq((x - y) ** m) == math.factorial(m) * 2 ** m


def test_norm_zero():
    assert apolar.norm_sq(Poly.zero(3)) == 0


def test_norm_scaled_monomial():
    a = GaussianRational(Fraction(3, 2), Fraction(-1, 3))
    k = 4
    p = Poly(1, {(k,): a})
    assert apolar.norm_sq(p) == (Fraction(9, 4) + Fraction(1, 9)) * math.factorial(k)


@pytest.mark.parametrize("c", [1e200, 3e-200j, 2.0 ** 600, 1e-170 - 1e-170j,
                               1.2345678912345e-160])
def test_float_norm_whose_square_leaves_the_double_range(c):
    # ||c (z1^2 + 2 z1 z2)|| = |c| sqrt(2! + 4), though |c|^2 is inf, 0 or
    # subnormal (1e-320 keeps 5 significant digits)
    x, y = variables(2, field=FLOAT)
    p = (x * x + 2 * x * y) * c
    assert apolar.norm(p) == pytest.approx(abs(c) * math.sqrt(6), rel=1e-15, abs=0)
    unit = x * x + 2 * x * y
    assert apolar.norm(unit) == math.sqrt(apolar.norm_sq(unit))  # the normal path
    if c == 2.0 ** 600:  # a power of two scales exactly
        assert apolar.norm(p) == 2.0 ** 600 * apolar.norm(unit)
    with pytest.raises(NumericalError):
        apolar.norm(Poly(1, {(1,): complex(math.inf, 0)}))
    with pytest.raises(NumericalError):  # finite coefficients, but 8e307 sqrt(6) is past the range
        apolar.norm(unit * 8e307)


def test_exact_norm_takes_the_float_path():
    # in range, the bits of sqrt(float(<p, p>)); a square past the double
    # range, or below the normal doubles, is taken at a power-of-two scale
    x, y = variables(2)
    p = GaussianRational(Fraction(3, 7), 2) * x * x - Fraction(1, 5) * x * y
    assert apolar.norm(p) == math.sqrt(float(apolar.norm_sq(p)))
    tiny = Fraction(1, 10 ** 200) * (x + y)
    assert apolar.norm(tiny) == pytest.approx(math.sqrt(2) * 1e-200, rel=1e-15, abs=0)
    assert apolar.norm(10 ** 160 * (x + y)) == pytest.approx(math.sqrt(2) * 1e160, rel=1e-15)
    with pytest.raises(NumericalError):  # sqrt(2) 10^400 itself is past the range
        apolar.norm(10 ** 400 * (x + y))


def test_adjoint_identity_example():
    x, y = variables(2)
    assert apolar.adjoint_residual(x * y, x * x * y * y, x * y) == 0


def test_adjoint_identity_random_exact(rng):
    for _ in range(40):
        d = rng.randint(1, 3)
        q = rand_poly(rng, d, 3)
        f = rand_poly(rng, d, 6)
        g = rand_poly(rng, d, 3)
        assert apolar.adjoint_residual(q, f, g) == 0


def test_adjoint_identity_float(rng):
    for _ in range(20):
        q = rand_poly(rng, 2, 3).to_float()
        f = rand_poly(rng, 2, 5).to_float()
        g = rand_poly(rng, 2, 3).to_float()
        scale = max(1.0, abs(complex(apolar.inner_product(f, q * g))))
        assert apolar.adjoint_residual(q, f, g) <= 1e-10 * scale


def test_reznick_example():
    x, y = variables(2)
    pk = x * x
    fm = y
    assert apolar.norm_sq(pk * fm) == 2
    assert apolar.reznick_residual(pk, fm) == 0


def test_reznick_constant_fm(rng):
    pk = rand_homogeneous(rng, 2, 3)
    one = Poly.constant(2, 1)
    assert apolar.reznick_residual(pk, one) == 0


def test_reznick_random_exact(rng):
    for _ in range(25):
        d = rng.randint(1, 3)
        k = rng.randint(1, 3)
        m = rng.randint(0, 5)
        pk = rand_homogeneous(rng, d, k)
        fm = rand_homogeneous(rng, d, m)
        assert apolar.reznick_residual(pk, fm) == 0


def test_reznick_rejects_inhomogeneous():
    x, _ = variables(2)
    with pytest.raises(InvalidInputError):
        apolar.reznick_residual(x * x - 1, x)


def test_bombieri_inequality_exact(rng):
    for _ in range(25):
        p = rand_poly(rng, 2, 3)
        f = rand_poly(rng, 2, 4)
        assert apolar.norm_sq(p * f) >= apolar.norm_sq(p) * apolar.norm_sq(f)


@st.composite
def _identity_cases(draw):
    """(pk, fm, q, f, g) in one dimension: pk nonzero homogeneous of degree
    1-3, fm homogeneous of degree 0-4, q, f and g of degree <= 3."""
    d = draw(st.integers(1, 3))
    pk = draw(exact_homogeneous(d, draw(st.integers(1, 3))).filter(lambda p: not p.is_zero))
    fm = draw(exact_homogeneous(d, draw(st.integers(0, 4))))
    q, f, g = (draw(exact_polys(dims=(d, d))) for _ in range(3))
    return pk, fm, q, f, g


@settings(max_examples=30)
@given(_identity_cases())
def test_exact_identity_battery_property(case):
    # the exact checks of `verify`: adjointness, Reznick, Bombieri, Pythagoras
    pk, fm, q, f, g = case
    assert apolar.adjoint_residual(q, f, g) == 0
    assert apolar.reznick_residual(pk, fm) == 0
    assert apolar.norm_sq(pk * fm) >= apolar.norm_sq(pk) * apolar.norm_sq(fm)
    res = fischer.project_homogeneous(pk, fm)
    assert apolar.norm_sq(fm) == apolar.norm_sq(pk * res.q) + apolar.norm_sq(res.r)
    assert apolar.inner_product(pk * res.q, res.r) == 0
    assert res.annihilator_residual == 0


def test_c_alpha_m_trivial():
    for m in (0, 3, 7):
        assert apolar.c_alpha_m((0, 0), m) == 1.0


def test_c_alpha_m_values():
    assert apolar.c_alpha_m((1, 0), 3) == pytest.approx(2.0)
    assert apolar.c_alpha_m((2, 0), 2) == pytest.approx(math.sqrt(12))


def test_c_alpha_m_sandwich(rng):
    for _ in range(15):
        d = rng.randint(1, 3)
        m = rng.randint(0, 4)
        alpha = tuple(rng.randint(0, 2) for _ in range(d))
        fm = rand_homogeneous(rng, d, m).to_float()
        mono = Poly(d, {alpha: 1.0})
        lower = apolar.norm(fm)
        middle = apolar.norm(mono * fm)
        upper = apolar.c_alpha_m(alpha, m) * lower
        assert lower <= middle * (1 + 1e-9)
        assert middle <= upper * (1 + 1e-9)


def test_beauzamy_values():
    x, y = variables(2)
    assert apolar.beauzamy_bound(x * x, 0) == pytest.approx(math.sqrt(2))
    assert apolar.beauzamy_bound(x * x + y * y, 3) == pytest.approx(8 * math.sqrt(2))


def test_beauzamy_bound_past_degree_170():
    # sqrt(171!) is in range though 171! is not
    x, y = variables(2, field=FLOAT)
    root = math.exp(math.lgamma(172) / 2)
    assert apolar.beauzamy_bound(x ** 171 + y ** 171, 2) == pytest.approx(
        3 ** 85.5 * 2 * root, rel=1e-12)


def test_beauzamy_bound_is_finite_where_squared_coefficients_overflow():
    # |c|^2 = 1e400 is past the double range, |c| = 1e200 is not: a bound
    # read off |c|^2 would be inf, and verify's "beauzamy" check would pass
    # without testing anything
    x, y = variables(2, field=FLOAT)
    pk, fm = 1e200 * (x + y), 1e-200 * x
    bound = apolar.beauzamy_bound(pk, 1)
    assert math.isfinite(bound)
    assert apolar.norm(pk * fm) / apolar.norm(fm) <= bound  # 1.73e200 <= 2.83e200
    xe, ye = variables(2)
    assert apolar.beauzamy_bound(10 ** 200 * (xe + ye), 1) == bound
    with pytest.raises(NumericalError):  # an exact |c| past the range
        apolar.beauzamy_bound(10 ** 400 * xe, 1)


def test_beauzamy_dominates(rng):
    for _ in range(100):
        d = rng.randint(1, 3)
        k = rng.randint(1, 3)
        m = rng.randint(0, 4)
        pk = rand_homogeneous(rng, d, k).to_float()
        fm = rand_homogeneous(rng, d, m).to_float()
        lhs = apolar.norm(pk * fm)
        rhs = apolar.beauzamy_bound(pk, m) * apolar.norm(fm)
        assert lhs <= rhs * (1 + 1e-9)


def test_shapiro_extremal_monomial():
    z, = variables(1)
    for k in (1, 2, 5):
        assert apolar.shapiro_pointwise_residual(z ** k, (1,)) == pytest.approx(0.0, abs=1e-12)


def test_shapiro_aligned_direction():
    x, y = variables(2)
    assert apolar.shapiro_pointwise_residual(x + y, (1, 1)) == pytest.approx(0.0, abs=1e-12)


def test_shapiro_past_degree_170():
    # |z|^(2k) ||fk||^2 / k! is in range though k! is not; a value that
    # itself leaves the range is a numerical failure
    x, y = variables(2)
    fk = Fraction(1, 10 ** 10) * (x ** 171 + x ** 170 * y)
    for z in [(1, 0), (0.6 - 0.2j, 1.1), (2, -1j)]:
        assert apolar.shapiro_pointwise_residual(fk, z) <= 1e-9 * float(apolar.norm_sq(fk))
    assert apolar.shapiro_pointwise_residual(x ** 171, (1, 0)) == 0.0  # |z1^171|^2 = 1 = bound
    with pytest.raises(NumericalError):
        apolar.shapiro_pointwise_residual(10 ** 200 * x, (1, 0))


def test_shapiro_fuzz(rng):
    for _ in range(60):
        d = rng.randint(1, 3)
        k = rng.randint(1, 4)
        fk = rand_homogeneous(rng, d, k).to_float()
        scale = max(1.0, float(apolar.norm_sq(fk)))
        for _ in range(16):
            z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
            assert apolar.shapiro_pointwise_residual(fk, z) <= 1e-9 * scale


def test_bargmann_constant_exact():
    one = Poly.constant(2, 1)
    est = apolar.bargmann_mc_estimate(one, one, 1000, seed=3)
    assert est.estimate == 1.0 + 0.0j
    assert est.stderr == 0.0


def test_bargmann_z1_z1():
    x, _ = variables(2)
    est = apolar.bargmann_mc_estimate(x, x, 200_000, seed=11)
    assert abs(est.estimate - 1.0) <= 3 * est.stderr


def test_bargmann_orthogonal():
    x, y = variables(2)
    est = apolar.bargmann_mc_estimate(x, y, 200_000, seed=11)
    assert abs(est.estimate) <= 3 * est.stderr


def test_bargmann_deterministic():
    x, y = variables(2)
    a = apolar.bargmann_mc_estimate(x + y, x, 50_000, seed=5)
    b = apolar.bargmann_mc_estimate(x + y, x, 50_000, seed=5)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_bargmann_seed_battery(rng):
    # spread of seeded runs: every one of the 50 runs within 4 stderr
    x, y = variables(2)
    p = x * x + GaussianRational(0, 1) * y
    q = x * x - y
    exact = complex(apolar.inner_product(p, q))
    hits = 0
    for seed in range(50):
        est = apolar.bargmann_mc_estimate(p, q, 20_000, seed=seed)
        if abs(est.estimate - exact) <= 4 * est.stderr:
            hits += 1
    assert hits >= 50 * 0.99


def test_bargmann_rejects_zero_samples():
    one = Poly.constant(1, 1)
    with pytest.raises(InvalidInputError):
        apolar.bargmann_mc_estimate(one, one, 0, seed=0)


def test_bargmann_rejects_a_single_sample():
    # one sample has no spread, so its standard error would read 0
    one = Poly.constant(1, 1)
    with pytest.raises(InvalidInputError, match=">= 2"):
        apolar.bargmann_mc_estimate(one, one, 1, seed=0)
    assert apolar.bargmann_mc_estimate(one, one, 2, seed=0).samples == 2


def _sphere_bound(fm, samples=4096):
    """sqrt((m+d-1)!/(d-1)!) max_S |f_m|, sampled: the upper bound on ||f_m||
    that order_estimate's bracket reads as its lower side."""
    m, d = int(fm.degree), fm.dim
    scale = math.sqrt(math.factorial(m + d - 1) / math.factorial(d - 1))
    return scale * sampling.sphere_max(fm, samples=samples)


def test_sphere_bound_monomial_d1():
    # in one variable the bracket is tight: ||z^m|| = sqrt(m!) and |z^m| = 1
    # on the unit circle
    z, = variables(1)
    for m in (1, 4, 9):
        assert apolar.norm(z ** m) == pytest.approx(_sphere_bound(z ** m), rel=1e-12)


@pytest.mark.parametrize("alpha", [(1, 1), (2, 1), (3, 3), (1, 1, 1), (2, 0, 1),
                                   (4, 1, 1)])
def test_sphere_max_monomials(alpha):
    # max over the unit sphere of |z^alpha| is prod (alpha_i/m)^(alpha_i/2),
    # 1/2 for z1 z2
    m = sum(alpha)
    exact = math.prod((a / m) ** (a / 2) for a in alpha)
    got = sampling.sphere_max(Poly(len(alpha), {alpha: 1}))
    assert exact * 0.95 <= got <= exact * (1 + 1e-12)


def test_log_norm_sq_float_underflow():
    # 1e-310 is subnormal: next to 1 its term is negligible, alone it is not
    assert apolar.log_norm_sq(Poly(1, {(0,): 1.0, (1,): 1e-310}, field=FLOAT)) == 0.0
    with pytest.raises(NumericalError):
        apolar.log_norm_sq(Poly(1, {(1,): 1e-310}, field=FLOAT))


def _reference_log_norm_sq(p):
    """log <p, p> as log_norm_sq first computed it: lgamma summed per
    exponent, an exact |c|^2 as the Fraction Re(c)^2 + Im(c)^2, log-sum-exp
    in storage order; float log_norm_sq still computes it so."""
    if p.is_zero:
        return float("-inf")
    logs = []
    log_subnormal = float("-inf")
    for alpha, c in p.terms.items():
        la = sum(math.lgamma(a + 1) for a in alpha)
        if p.field == FLOAT:
            lc = 2.0 * math.log(abs(c))
            if abs(c) < sys.float_info.min:
                log_subnormal = max(log_subnormal, la + lc)
        else:
            a2 = c.real * c.real + c.imag * c.imag
            lc = math.log(a2.numerator) - math.log(a2.denominator)
        logs.append(la + lc)
    top = max(logs)
    if log_subnormal > top + math.log(sys.float_info.epsilon):
        raise NumericalError("underflow")
    return top + math.log(sum(math.exp(l - top) for l in logs))


def _big_gaussian_rationals():
    # parts far past the double range, so that their logs see big ints
    part = st.integers(-10 ** 40, 10 ** 40)
    return st.builds(GaussianRational, st.builds(Fraction, part, st.integers(1, 10 ** 30)),
                     st.builds(Fraction, part, st.integers(1, 10 ** 30)))


def _reducing_gaussian_rationals():
    # z / (k |z|^2): re^2 + im^2 and den^2 share a large factor, so |c|^2
    # must be reduced before its logs are taken
    def build(re, im, k):
        den = k * (re * re + im * im) or 1
        return GaussianRational(Fraction(re, den), Fraction(im, den))

    part = st.integers(-10 ** 12, 10 ** 12)
    return st.builds(build, part, part, st.integers(1, 10 ** 6)).filter(bool)


_FLOAT_PARTS = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)


@settings(max_examples=150)
@given(st.data())
def test_log_norm_sq_matches_per_term_reference(data):
    # float input bit for bit; the table of log a! is read past its current
    # length in every third example, and the terms mix degrees and
    # exponents up to 3 or 400
    d = data.draw(st.integers(1, 4))
    exact = data.draw(st.booleans())
    coeffs = (st.one_of(gaussian_rationals(), _big_gaussian_rationals(),
                        _reducing_gaussian_rationals()) if exact
              else st.builds(complex, _FLOAT_PARTS, _FLOAT_PARTS))
    # small exponents leave the last bits of log |c|^2 visible in the sum
    top = data.draw(st.sampled_from([3, 400]))
    exps = st.lists(st.integers(0, top), min_size=d, max_size=d).map(tuple)
    terms = data.draw(st.dictionaries(exps, coeffs, max_size=8))
    if data.draw(st.integers(0, 2)) == 0:
        past = len(apolar._LOG_FACTORIALS) + data.draw(st.integers(0, 20))
        terms[(past,) + (0,) * (d - 1)] = data.draw(coeffs)
    p = Poly(d, terms, field=None if exact else FLOAT)
    try:
        want = _reference_log_norm_sq(p)
    except NumericalError:
        with pytest.raises(NumericalError):
            apolar.log_norm_sq(p)
        return
    got = apolar.log_norm_sq(p)
    if not exact or p.is_zero:
        assert got == want
    else:
        # one log of the exact rational sum, which the per-term logs match
        # up to their rounding
        sq = apolar.norm_sq(p)
        assert got == log_ratio(sq.numerator, sq.denominator)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_log_norm_sq_sums_in_storage_order():
    # 1 + 1e-16 + 1e-16 rounds to 1 left to right; the two small terms
    # first add up to 2.2e-16 past it
    small = {(1,): 1e-8, (2,): math.sqrt(5e-17)}  # alpha! |c|^2 = 1e-16 each
    first = Poly(1, {(0,): 1.0, **small}, field=FLOAT)
    last = Poly(1, {**small, (0,): 1.0}, field=FLOAT)
    assert apolar.log_norm_sq(first) == _reference_log_norm_sq(first) == 0.0
    assert apolar.log_norm_sq(last) == _reference_log_norm_sq(last) > 0.0


@pytest.mark.parametrize("terms", [{(2, 0): 1e200}, {(170, 0): 10.0}, {(171, 0): 1e10},
                                   {(1, 0): 1.2e154, (0, 1): 1.2e154}])
def test_float_apolar_overflow_raises(terms):
    # one term past the double range, or only the total (1.2e154 (x + y))
    p = Poly(2, {a: complex(c) for a, c in terms.items()})
    with pytest.raises(NumericalError):
        apolar.norm_sq(p)
    with pytest.raises(NumericalError):
        apolar.inner_product(p, p)


def _reference_inner_product(p, q):
    """<p, q> of float p and q as the float loop computed it before the
    exact retry: over the shorter's terms, alpha! first, left to right."""
    small = p if len(p.terms) <= len(q.terms) else q
    total = 0j
    for alpha in small.terms:
        c, d = p.coefficient(alpha), q.coefficient(alpha)
        if c == 0 or d == 0:
            continue
        total = total + float(midx_factorial(alpha)) * c * d.conjugate()
    return total


def _reference_norm_sq(p):
    """<p, p> of float p as that float loop computed it: real parts summed."""
    total = 0.0
    for alpha, c in p.terms.items():
        total += (float(midx_factorial(alpha)) * c * c.conjugate()).real
    return total


def _exact(p):
    """p with its float coefficients read exactly, built from Fractions."""
    return Poly(p.dim, {a: GaussianRational(Fraction(c.real), Fraction(c.imag))
                        for a, c in p.terms.items()})


def _correctly_rounded_sqrt(x: Fraction) -> float:
    """sqrt(x) rounded once, from an integer root with 80 or more bits and
    a sticky bit for an inexact one."""
    t = max(0, (160 - x.numerator.bit_length() + x.denominator.bit_length()) // 2)
    scaled = (x.numerator << 2 * t) // x.denominator
    root = math.isqrt(scaled)
    if root * root != scaled or scaled * x.denominator != x.numerator << 2 * t:
        root |= 1
    return math.ldexp(float(root), -t)


_NORMAL_PARTS = st.one_of(st.just(0.0), st.builds(lambda m, s: math.copysign(m, s),
                                                  st.floats(1e-100, 1e100),
                                                  st.sampled_from([1.0, -1.0])))


@settings(max_examples=150)
@given(st.data())
def test_float_apolar_values_in_range_keep_the_float_loop_bits(data):
    # normal coefficients up to 1e100 at degree <= 30 keep every term and
    # sum a normal double, so no value takes the exact retry
    d = data.draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, 30 // d), min_size=d, max_size=d).map(tuple)
    coeffs = st.builds(complex, _NORMAL_PARTS, _NORMAL_PARTS)
    p, q = (Poly(d, data.draw(st.dictionaries(exps, coeffs, max_size=8)), field=FLOAT)
            for _ in range(2))
    assert apolar.inner_product(p, q) == _reference_inner_product(p, q)
    assert apolar.inner_product(q, p) == _reference_inner_product(q, p)
    assert apolar.norm_sq(p) == _reference_norm_sq(p)
    assert apolar.norm(p) == math.sqrt(_reference_norm_sq(p))


@pytest.mark.parametrize("terms", [{(171, 0): 1.0, (0, 171): 1.0},
                                   {(200, 0): 1e-190 - 3e-191j, (100, 100): 7e-200},
                                   {(171, 1): 3e-160, (2, 0): 1e150},
                                   {(180, 0): 1e-170j, (0, 185): -2.5e-171},
                                   {(1, 0): 1e200, (0, 1): -3e199j},
                                   {(1, 0): 1.2345678912345e-160, (0, 1): 2.5e-162j},
                                   {(1, 0): 1e-200, (0, 1): 2.5e-200}])
def test_float_apolar_values_past_the_range_round_the_exact_value_once(terms):
    # alpha! past the double range (degree 171-200), or a square outside the
    # normal doubles (coefficients near 1e+-200): the exact value on the
    # dyadic coefficients, rounded once, in both fields; only a value that
    # is itself past the range is refused
    p = Poly(2, terms, field=FLOAT)
    q = Poly(2, {alpha: c * (0.5 + 1j) for alpha, c in terms.items()}, field=FLOAT)
    sq, pq = apolar.norm_sq(_exact(p)), apolar.inner_product(_exact(p), _exact(q))
    if sq > Fraction(sys.float_info.max):
        with pytest.raises(NumericalError):
            apolar.norm_sq(p)
        with pytest.raises(NumericalError):
            apolar.inner_product(p, q)
    else:
        assert apolar.norm_sq(p) == float(sq)
        assert apolar.inner_product(p, q) == complex(pq)
    assert apolar.norm(p) == apolar.norm(_exact(p)) == _correctly_rounded_sqrt(sq)


def test_norm_of_degree_171_is_computed_though_its_square_is_past_the_range():
    x, y = variables(2)
    want = _correctly_rounded_sqrt(Fraction(2 * math.factorial(171)))  # about 5e154
    p = x ** 171 + y ** 171
    assert apolar.norm(p) == apolar.norm(p.to_float()) == want
    with pytest.raises(NumericalError):  # its square, 2 171!, is refused
        apolar.norm_sq(p.to_float())


def test_sphere_bound_fuzz(rng):
    for _ in range(10):
        m = rng.randint(1, 6)
        fm = rand_homogeneous(rng, 2, m)
        assert apolar.norm(fm) <= _sphere_bound(fm) * (1 + 1e-9)
