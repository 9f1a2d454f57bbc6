import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fischerlab import apolar, fischer, sampling
from fischerlab.errors import DimensionMismatchError, InvalidInputError, NumericalError
from fischerlab.fields import FLOAT, GaussianRational
from fischerlab.polyalg import Poly, enumerate_monomials, midx_factorial, variables
from conftest import exact_homogeneous, exact_polys, rand_homogeneous, rand_poly


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


@pytest.mark.parametrize("terms", [{(2, 0): 1e200}, {(170, 0): 10.0}, {(171, 0): 1e10},
                                   {(1, 0): 1.2e154, (0, 1): 1.2e154}])
def test_float_apolar_overflow_raises(terms):
    # one term past the double range, or only the total (1.2e154 (x + y))
    p = Poly(2, {a: complex(c) for a, c in terms.items()})
    with pytest.raises(NumericalError):
        apolar.norm_sq(p)
    with pytest.raises(NumericalError):
        apolar.inner_product(p, p)


def test_sphere_bound_fuzz(rng):
    for _ in range(10):
        m = rng.randint(1, 6)
        fm = rand_homogeneous(rng, 2, m)
        assert apolar.norm(fm) <= _sphere_bound(fm) * (1 + 1e-9)
