import cmath
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fischerlab import apolar, cli, fischer, spectral
from fischerlab.errors import ConditioningError, InvalidInputError
from fischerlab.exactlinalg import float_lstsq_solve
from fischerlab.fields import EXACT, FLOAT, GaussianRational
from fischerlab.polyalg import (Poly, apply_diff_op, enumerate_monomials, midx_factorial,
                               poly_to_dict, save_poly, variables)
from fischerlab.entire import TaylorStream
from conftest import rand_gaussian, rand_homogeneous, rand_poly


def _annihilates(p, r):
    pk = p.homogeneous_component(int(p.degree))
    return apply_diff_op(pk.star(), r).is_zero


def _monomials_up_to(d, n):
    """All exponent tuples of degree <= n, degrees ascending."""
    return [a for m in range(n + 1) for a in enumerate_monomials(d, m)]


def _exactify(p):
    """p with its float coefficients read as the Gaussian rationals they are."""
    return Poly(p.dim, {a: GaussianRational(Fraction(c.real), Fraction(c.imag))
                        for a, c in p.terms.items()})


def _assert_matches_exact(res, p, f, tol):
    """q and r of a float decomposition within tol of the exact decomposition
    of the exactified inputs, relative in the apolar norm."""
    want = fischer.decompose_direct(_exactify(p), _exactify(f))
    for got, exact in ((res.q, want.q), (res.r, want.r)):
        exact = exact.to_float()
        assert apolar.norm(got - exact) <= tol * apolar.norm(exact)


# ---------------------------------------------------------------------------
# fischer_matrix

def test_fischer_matrix_laplacian_1x1():
    x, y = variables(2)
    fm = fischer.fischer_matrix(x * x + y * y, 2)
    assert fm.basis == ((0, 0),)
    assert fm.rows == ((GaussianRational(4),),)


def test_fischer_matrix_univariate():
    z, = variables(1)
    fm = fischer.fischer_matrix(z * z, 2)
    assert fm.rows == ((GaussianRational(2),),)


def test_fischer_matrix_diagonal_positive(rng):
    x, y = variables(2)
    cases = [(x * x, 3)] + [(rand_homogeneous(rng, d, 2), m) for d, m in [(2, 8), (3, 6), (4, 5)]]
    for pk, m in cases:
        fm = fischer.fischer_matrix(pk, m)
        mat = np.array([[complex(v) for v in row] for row in fm.rows])
        # the alpha!-weighted slice matrix is M^H M, M the multiplication
        # matrix in the orthonormal basis: Hermitian positive definite
        w = np.sqrt([midx_factorial(a) for a in fm.basis])
        sym = mat * (w[:, None] / w[None, :])
        mult = spectral.mult_matrix(pk, m - 2)
        assert mult.col_basis == fm.basis
        gram = (mult.matrix.conj().T @ mult.matrix).toarray()
        assert np.linalg.norm(sym - gram) <= 1e-14 * np.linalg.norm(gram)
        assert np.allclose(sym, sym.conj().T)
        assert np.all(np.linalg.eigvalsh(sym) > 0)


def test_fischer_matrix_rejects_low_degree():
    x, y = variables(2)
    with pytest.raises(InvalidInputError):
        fischer.fischer_matrix(x * x, 1)
    with pytest.raises(InvalidInputError):
        fischer.fischer_matrix(Poly.zero(2), 3)


def _assert_columns_are_images(pk, m):
    """Column j of fischer_matrix(pk, m) is pk*(D)(pk z^beta_j): equal for
    exact pk, within 1e-14 of the largest coefficient for float pk."""
    fm = fischer.fischer_matrix(pk, m)
    entry = GaussianRational if pk.field == EXACT else complex
    assert all(type(v) is entry for row in fm.rows for v in row)
    for j, beta in enumerate(fm.basis):
        column = Poly(pk.dim, {alpha: row[j] for alpha, row in zip(fm.basis, fm.rows)},
                      field=pk.field)
        image = apply_diff_op(pk.star(), pk * Poly.monomial(pk.dim, beta, 1, field=pk.field))
        if pk.field == EXACT:
            assert column == image
        else:
            scale = max(abs(c) for c in image.terms.values())
            assert all(abs(column.coefficient(a) - image.coefficient(a)) <= 1e-14 * scale
                       for a in fm.basis)


def test_fischer_matrix_columns_are_diff_op_images():
    rng = random.Random(18)
    for d in range(1, 5):
        for k in range(4):
            pk = rand_homogeneous(rng, d, k)
            for m in range(k, k + (4 if d < 4 else 3)):
                _assert_columns_are_images(pk, m)
                _assert_columns_are_images(pk.to_float(), m)


def test_fischer_matrix_past_int64_weights():
    # from m = 80, (m + k)^k passes 2^63 and mult_pattern's weights are
    # Python ints; at m = 90 the z1^10 term's weight 90!/80! ~ 2.1e19 would
    # wrap in int64
    pk = rand_homogeneous(random.Random(80), 2, 10) + Poly.monomial(2, (10, 0), 3)
    assert pk.coefficient((10, 0)) != 0
    for m in (80, 90):
        _assert_columns_are_images(pk, m)


# ---------------------------------------------------------------------------
# project_homogeneous

def test_project_laplacian_oracle():
    x, y = variables(2)
    res = fischer.project_homogeneous(x * x + y * y, x * x)
    assert res.q == Poly.constant(2, Fraction(1, 2))
    assert res.r == (x * x - y * y) * Fraction(1, 2)
    assert res.annihilator_residual == 0


def test_project_kernel_case():
    x, y = variables(2)
    res = fischer.project_homogeneous(x * x, x * y)
    assert res.q.is_zero
    assert res.r == x * y


def test_project_exact_divisibility(rng):
    pk = rand_homogeneous(rng, 2, 2)
    res = fischer.project_homogeneous(pk, pk)
    assert res.q == Poly.constant(2, 1)
    assert res.r.is_zero


def test_project_zero_input():
    x, y = variables(2)
    res = fischer.project_homogeneous(x * x, Poly.zero(2))
    assert res.q.is_zero and res.r.is_zero


def test_project_pythagoras_orthogonality(rng):
    for _ in range(25):
        d = rng.randint(1, 3)
        k = rng.randint(1, 3)
        m = rng.randint(k, 5)
        pk = rand_homogeneous(rng, d, k)
        fm = rand_homogeneous(rng, d, m)
        res = fischer.project_homogeneous(pk, fm)
        assert fm == pk * res.q + res.r
        assert apolar.inner_product(pk * res.q, res.r) == 0
        assert apolar.norm_sq(fm) == apolar.norm_sq(pk * res.q) + apolar.norm_sq(res.r)
        assert res.annihilator_residual == 0


def test_project_float_matches_exact(rng):
    for _ in range(10):
        pk = rand_homogeneous(rng, 2, 2)
        fm = rand_homogeneous(rng, 2, 4)
        exact = fischer.project_homogeneous(pk, fm)
        approx = fischer.project_homogeneous(pk.to_float(), fm.to_float())
        diff = exact.q.to_float() - approx.q
        assert apolar.norm(diff) <= 1e-9 * max(1.0, apolar.norm(exact.q))


def _reference_float_projection(pk, fm):
    """The float projection by the normal equations: the slice system
    pk*(D)(pk q) = pk*(D) fm on the fischer_matrix rows, solved by least
    squares in the orthonormal basis; returns (q, condition)."""
    mat = fischer.fischer_matrix(pk, fm.degree)
    weights = np.array([math.sqrt(midx_factorial(alpha)) for alpha in mat.basis])
    a = np.array([[complex(v) for v in row] for row in mat.rows], dtype=complex)
    a = a * (weights[:, None] / weights[None, :])
    rhs = apply_diff_op(pk.star(), fm).to_float()
    b = np.array([complex(rhs.coefficient(alpha)) for alpha in mat.basis]) * weights
    x, cond = float_lstsq_solve(a, b)
    return Poly(pk.dim, {alpha: complex(x[i] / weights[i]) for i, alpha in enumerate(mat.basis)},
                field=FLOAT), cond


@pytest.mark.parametrize("d", [2, 3, 4])
def test_slice_projector_matches_normal_equations(rng, d):
    # q = M^+ f_m, M the multiplication matrix in the orthonormal basis,
    # is the solution of the normal equations; mixed fields project in floats
    top = {2: 12, 3: 10, 4: 8}[d]
    for k in (1, 2, 3):
        pk = rand_homogeneous(rng, d, k)
        for m in (k, (k + top) // 2, top):
            fm = rand_homogeneous(rng, d, m)
            for pp, ff in [(pk.to_float(), fm.to_float()), (pk, fm.to_float()),
                           (pk.to_float(), fm)]:
                ref, ref_cond = _reference_float_projection(pp, ff)
                q, cond = fischer.SliceSolver(pp).project(ff)
                assert q.field == FLOAT
                assert apolar.norm(q - ref) <= 1e-12 * apolar.norm(ref)
                assert cond == pytest.approx(ref_cond, rel=1e-9)


def _projector_digest(pk, m):
    proj = fischer.slice_projector(pk, m)
    digest = hashlib.sha256(proj.pinv.tobytes())
    digest.update(proj.condition.hex().encode())
    return digest.hexdigest()[:16]


def test_slice_projector_bits_unchanged():
    # digests of pinv and condition recorded before mult_entries was
    # vectorized (numpy 2.4 with its bundled OpenBLAS 0.3.31, x86-64): the
    # projectors are bit-identical to the per-entry loop's
    x, y = variables(2)
    a, b, c = variables(3)
    cases = [
        ((x * x + (0.5 + 0.3j) * x * y + 2 * y * y).to_float(), (2, 5, 9),
         ["ba14ba060404c56d", "5a3954a16ce00e68", "fe47adfbedfde691"]),
        (x ** 3 - 2 * x * y * y + Poly(2, {(0, 3): 1 + 1j}), (3, 8),
         ["647f5ad808a7b00b", "7210b3a48f20d0b7"]),
        (a * a + a * b + 2 * b * b + c * c + a * c, (2, 4, 6),
         ["ff70e4e4cf230688", "328669dd1b165452", "7e574dce354a228c"]),
    ]
    for pk, ms, want in cases:
        assert [_projector_digest(pk, m) for m in ms] == want


def test_float_entire_repeats_bit_for_bit():
    x, y = variables(2)
    p = (x * x + y * y).to_float() - 0.8
    inner = (0.6 * x + 0.9 * y).to_float()
    first, second = (fischer.decompose_direct(p, TaylorStream.from_exp(inner, max_degree=60), 24)
                     for _ in range(2))
    assert repr(first.q.sorted_terms()) == repr(second.q.sorted_terms())
    assert repr(first.r.sorted_terms()) == repr(second.r.sorted_terms())
    assert first.diagnostics == second.diagnostics


# ---------------------------------------------------------------------------
# decompose_direct

def test_direct_oracle():
    x, y = variables(2)
    res = fischer.decompose_direct(x * x - 1, x * x)
    assert res.q == Poly.constant(2, 1)
    assert res.r == Poly.constant(2, 1)


def test_direct_zero_f():
    x, y = variables(2)
    res = fischer.decompose_direct(x * x + y, Poly.zero(2))
    assert res.q.is_zero and res.r.is_zero


def test_direct_harmonic_remainder():
    x, y = variables(2)
    p = x * x + y * y
    res = fischer.decompose_direct(p, x ** 4)
    assert res.r + p * res.q == x ** 4
    lap = apply_diff_op(p, res.r)
    assert lap.is_zero
    assert res.annihilator_residual == 0


def test_direct_reconstruction_random(rng):
    for _ in range(20):
        d = rng.randint(1, 3)
        p = rand_poly(rng, d, 3)
        while p.is_zero:
            p = rand_poly(rng, d, 3)
        f = rand_poly(rng, d, 6)
        res = fischer.decompose_direct(p, f)
        assert p * res.q + res.r == f
        assert _annihilates(p, res.r)


def test_direct_float_conditioning_error():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(ConditioningError) as exc_info:
        float_lstsq_solve(a, np.array([1.0, 2.0]))
    assert exc_info.value.condition is None or exc_info.value.condition > 1e12


def test_direct_float_reconstruction(rng):
    for _ in range(10):
        p = rand_poly(rng, 2, 3).to_float()
        while p.is_zero:
            p = rand_poly(rng, 2, 3).to_float()
        f = rand_poly(rng, 2, 6).to_float()
        res = fischer.decompose_direct(p, f)
        err = apolar.norm(f - (p * res.q + res.r))
        assert err <= 1e-10 * max(1.0, apolar.norm(f))
        pk = p.homogeneous_component(int(p.degree))
        assert apolar.norm(apply_diff_op(pk.star(), res.r)) <= 1e-9 * max(1.0, apolar.norm(f))


def test_direct_float_degree_spread_matches_exact():
    # lower terms 1e9 times the leading one: each slice projection is
    # conditioned by P_k alone, so the spread between degrees costs nothing
    x, y = variables(2)
    p, f = (x * x + 1e9 * x + 1.0).to_float(), (x ** 6).to_float()
    _assert_matches_exact(fischer.decompose_direct(p, f), p, f, 1e-12)


def test_direct_float_matches_exact_battery():
    rng = random.Random(11)

    def coeff():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    for _ in range(40):
        d, k = rng.choice([2, 3]), rng.choice([1, 2, 3])
        pk = Poly(d, {a: coeff() for a in enumerate_monomials(d, k)})
        scale = 10 ** rng.uniform(-2, 4)
        lower = Poly(d, {a: scale * coeff() for a in _monomials_up_to(d, k - 1)
                         if rng.random() < 0.6})
        n = rng.randint(k, {2: 9, 3: 6}[d])
        f = Poly(d, {a: coeff() for a in _monomials_up_to(d, n) if rng.random() < 0.5})
        if f.is_zero:
            continue
        p = pk + lower
        _assert_matches_exact(fischer.decompose_direct(p, f), p, f, 1e-12)


# ---------------------------------------------------------------------------
# decompose_series

def test_series_oracle():
    x, y = variables(2)
    res = fischer.decompose_series(x * x - 1, x * x)
    assert res.q == Poly.constant(2, 1)
    assert res.r == Poly.constant(2, 1)


def test_series_homogeneous_collapses(rng):
    pk = rand_homogeneous(rng, 2, 2)
    f = rand_poly(rng, 2, 5)
    res = fischer.decompose_series(pk, f)
    expected = sum((fischer.project_homogeneous(pk, fm).q
                    for fm in f.homogeneous_components().values()),
                   Poly.zero(2))
    assert res.q == expected


def test_series_matches_direct_sweep(rng):
    for _ in range(15):
        beta = rng.choice([0, 1])
        pk = rand_homogeneous(rng, 2, 2)
        low = rand_homogeneous(rng, 2, beta) if rng.random() < 0.9 else Poly.zero(2)
        p = pk - low
        f = rand_poly(rng, 2, 6)
        direct = fischer.decompose_direct(p, f)
        series = fischer.decompose_series(p, f)
        assert direct.q == series.q
        assert direct.r == series.r
        assert p * series.q + series.r == f
        assert _annihilates(p, series.r)


def test_series_matches_direct_wide_sweep(rng):
    # lower parts of arbitrary shape (no declared gap), up to 3 variables
    for _ in range(10):
        d = rng.randint(1, 3)
        k = rng.randint(1, 3)
        pk = rand_homogeneous(rng, d, k)
        low = rand_poly(rng, d, k - 1) if k > 1 else Poly.zero(d)
        p = pk + low
        f = rand_poly(rng, d, 8 if d < 3 else 6)
        direct = fischer.decompose_direct(p, f)
        series = fischer.decompose_series(p, f)
        assert direct.q == series.q and direct.r == series.r
        assert p * direct.q + direct.r == f
        assert _annihilates(p, direct.r)


def test_series_float_matches_direct(rng):
    for _ in range(6):
        pk = rand_homogeneous(rng, 2, 2).to_float()
        low = rand_homogeneous(rng, 2, 1).to_float()
        p = pk - low
        f = rand_poly(rng, 2, 5).to_float()
        direct = fischer.decompose_direct(p, f)
        series = fischer.decompose_series(p, f)
        scale = max(1.0, apolar.norm(direct.q))
        assert apolar.norm(direct.q - series.q) <= 1e-9 * scale
        assert apolar.norm(f - (p * series.q + series.r)) <= 1e-9 * max(1.0, apolar.norm(f))


@pytest.mark.parametrize("route", ["direct", "series", "entire"])
def test_float_input_gives_float_q_and_r_on_every_route(route):
    # mixing the fields promotes to float, also when deg f < deg p
    x, y = variables(2)
    p = x * x + y * y - 1
    f = x ** 3 + 2 * y
    for pp, ff in [(p.to_float(), x), (p.to_float(), f), (p, x.to_float()), (p, f.to_float())]:
        if route == "entire":
            res = fischer.decompose_direct(pp, TaylorStream.from_poly(ff), int(ff.degree) + 2)
        else:
            res = getattr(fischer, f"decompose_{route}")(pp, ff)
        assert res.q.field == res.r.field == FLOAT
        assert apolar.norm(pp * res.q + res.r - ff) < 1e-12


def test_slice_matrices_assembled_once_per_decomposition(monkeypatch):
    # exact slices are assembled by fischer_matrix, float ones by slice_projector
    assembled = Counter()

    def count(name):
        original = getattr(fischer, name)

        def counting(pk, m):
            assembled[m] += 1
            return original(pk, m)

        monkeypatch.setattr(fischer, name, counting)

    x, y = variables(2)
    p = x * x + y * y - 1
    count("fischer_matrix")
    # the series projects degree 4 both from f and from its first level
    fischer.decompose_series(p, x ** 4 * y ** 2 + x ** 3 * y + y ** 4)
    assert assembled and max(assembled.values()) == 1
    monkeypatch.undo()
    assembled.clear()
    count("slice_projector")
    stream = TaylorStream.from_exp((x + y) * 0.25, max_degree=40)
    fischer.decompose_direct(p.to_float(), stream, 12)
    assert assembled and max(assembled.values()) == 1


def test_exact_direct_equals_series_at_degree_14():
    # a generic d = 3 divisor and a 30%-dense dividend: exact slice solves
    # scale each right-hand side by one common denominator
    x, y, z = variables(3)
    p = x * x + x * y + 2 * y * y + z * z + x * z - 1
    rng = random.Random(3)
    f = Poly(3, {a: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                 for a in _monomials_up_to(3, 14) if rng.random() < 0.3})
    direct, series = fischer._direct_and_series(p, f)
    assert direct.q == series.q
    assert direct.annihilator_residual == series.annihilator_residual == 0
    assert f == p * direct.q + direct.r


# ---------------------------------------------------------------------------
# decompose_univariate

def test_univariate_oracle():
    z, = variables(1)
    res = fischer.decompose_univariate(z * z - 1, z ** 3)
    assert res.q == z
    assert res.r == z


def test_univariate_taylor_at_multiple_root():
    z, = variables(1)
    f = 1 + z + z * z * Fraction(1, 2) + z ** 3 * Fraction(1, 6)
    res = fischer.decompose_univariate(z ** 2, f)
    assert res.r == 1 + z
    assert res.q == Fraction(1, 2) + z * Fraction(1, 6)


def test_univariate_exact_random(rng):
    for _ in range(15):
        p = rand_poly(rng, 1, 4)
        while p.is_zero:
            p = rand_poly(rng, 1, 4)
        f = rand_poly(rng, 1, 9)
        res = fischer.decompose_univariate(p, f)
        assert p * res.q + res.r == f
        assert res.r.is_zero or res.r.degree < p.degree


def test_univariate_exp_stream():
    z, = variables(1)
    stream = TaylorStream.from_exp(z, max_degree=60)
    res = fischer.decompose_univariate(z - 1, stream, max_degree=30)
    # exact p and an exact stream divide exactly: r is the Taylor sum at 1
    assert res.r == Poly.constant(1, sum(Fraction(1, math.factorial(j)) for j in range(31)))
    e_ref = Fraction(
        "2.71828182845904523536028747135266249775724709369995957496696762772407663")
    r_val = complex(res.r.coefficient((0,)))
    assert res.r.degree <= 0
    assert abs(r_val - float(e_ref)) <= 1e-12
    # q should approximate (e^z - e)/(z - 1): spot check at z = 0 -> e - 1
    assert complex(res.q.evaluate([0])) == pytest.approx(math.e - 1, abs=1e-10)


def test_univariate_stream_multiple_roots():
    z, = variables(1)
    stream = TaylorStream.from_exp(z, max_degree=40)
    res = fischer.decompose_univariate(z ** 3, stream, max_degree=25)
    # remainder = Taylor polynomial of e^z of degree 2
    assert complex(res.r.coefficient((0,))) == pytest.approx(1.0, abs=1e-9)
    assert complex(res.r.coefficient((1,))) == pytest.approx(1.0, abs=1e-9)
    assert complex(res.r.coefficient((2,))) == pytest.approx(0.5, abs=1e-9)


def test_univariate_stream_conjugate_and_double_roots():
    z, = variables(1)
    # (z - 1)^2 (z^2 + 4): double root at 1, simple roots at +-2i
    p = ((z - 1) ** 2 * (z * z + 4)).to_float()
    stream = TaylorStream.from_exp(z * Fraction(1, 2), max_degree=60)
    res = fischer.decompose_univariate(p, stream, max_degree=45)
    f_trunc = stream.truncate(45).to_float()
    for point in (1.0 + 0j, 2j, -2j):
        fv = complex(f_trunc.evaluate([point]))
        rv = complex(res.r.evaluate([point]))
        assert abs(fv - rv) <= 1e-8 * max(1.0, abs(fv))
    dr = res.r.derivative((1,))
    df = f_trunc.derivative((1,))
    assert abs(complex(df.evaluate([1.0])) - complex(dr.evaluate([1.0]))) <= 1e-6
    assert res.r.degree <= 3


def _float_and_exact_division(p, stream, n):
    """[(q, exact q), (r, exact r)]: the float stream route against exact
    division of the exact truncation by p's float coefficients, read as the
    Gaussian rationals they are."""
    res = fischer.decompose_univariate(p, stream, max_degree=n)
    assert res.q.field == res.r.field == FLOAT
    want = fischer._poly_divmod_1d(stream.truncate(n), _exactify(p))
    return [(got, w.to_float()) for got, w in zip((res.q, res.r), want)]


def test_univariate_stream_triple_root_matches_exact_division():
    z, = variables(1)
    p = (z.to_float() - (0.5 + 0.25j)) ** 3
    for got, want in _float_and_exact_division(p, TaylorStream.from_exp(z), 30):
        assert apolar.norm(got - want) <= 1e-12 * apolar.norm(want)


def test_univariate_stream_below_divisor_degree():
    z, = variables(1)
    res = fischer.decompose_univariate((z * z - 1).to_float(), TaylorStream.from_exp(z * 0),
                                       max_degree=10)
    assert res.q == Poly.zero(1, FLOAT)
    assert res.r == Poly.constant(1, 1.0)
    assert res.diagnostics == {"truncation_degree": 10, "condition": 1.0}


def test_univariate_float_condition():
    # dividing e^z's truncation at 40 by z + 20 cancels: the division on the
    # coefficient moduli passes through sizes 1.09e5 times those of q and r,
    # and the error of q and r stays within n eps of those sizes; by z - 20
    # nothing cancels.  Exact input reports no condition.
    z, = variables(1)
    stream = TaylorStream.from_exp(z.to_float(), max_degree=60)
    exact_stream = TaylorStream.from_exp(z, max_degree=60)
    cond = {}
    for c in (20, -20):
        res = fischer.decompose_univariate((z + c).to_float(), stream, 40)
        want = fischer.decompose_univariate(z + c, exact_stream, 40)
        assert "condition" not in want.diagnostics
        cond[c] = res.diagnostics["condition"]
        err = apolar.norm(res.q - want.q.to_float()) + apolar.norm(res.r - want.r.to_float())
        size = apolar.norm(want.q.to_float()) + apolar.norm(want.r.to_float())
        assert err <= 40 * 2.0 ** -52 * cond[c] * size
    assert cond[20] == pytest.approx(1.092e5, rel=1e-3)
    assert cond[-20] == 1.0


def _battery_roots(rng, root_class):
    def disk(radius):
        return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
    if root_class == "random":
        return [disk(2) for _ in range(rng.randint(1, 6))]
    if root_class == "clustered":
        base, gap = disk(1.5), 10 ** rng.uniform(-9, -4)
        return ([base + j * gap * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                 for j in range(rng.randint(2, 4))]
                + [disk(2) for _ in range(rng.randint(0, 2))])
    if root_class == "moduli":
        return [cmath.rect(10 ** rng.uniform(-3, math.log10(20)), rng.uniform(0, 2 * math.pi))
                for _ in range(rng.randint(1, 5))]
    # exact multiple roots: dyadic, so the float coefficients carry them exactly
    return [complex(rng.randint(-12, 12), rng.randint(-12, 12)) / 8
            for _ in range(rng.randint(1, 2)) for _ in range(rng.randint(2, 4))]


@pytest.mark.parametrize("seed, root_class", [
    (1, "random"), (2, "clustered"), (3, "moduli"), (4, "multiple")])
def test_univariate_stream_division_battery(seed, root_class):
    rng = random.Random(seed)
    z, = variables(1)
    zf = z.to_float()
    for _ in range(30):
        p = Poly.constant(1, 1.0)
        for root in _battery_roots(rng, root_class):
            p = p * (zf - root)
        c = GaussianRational(Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))
        stream = TaylorStream.from_exp(z * c, max_degree=60)
        n = rng.randint(15, 50)
        # long division with every subtraction replaced by an addition of
        # magnitudes gives coefficient sizes free of cancellation; the
        # forward error of float long division is within n * 2^-52 of them
        k = int(p.degree)
        p_abs = Poly(1, {a: abs(v) if a == (k,) else -abs(v) for a, v in p.terms.items()})
        f_abs = Poly(1, {a: abs(v) for a, v in stream.truncate(n).terms.items()})
        sizes = fischer._poly_divmod_1d(f_abs, p_abs)
        for (got, want), size in zip(_float_and_exact_division(p, stream, n), sizes):
            assert apolar.norm(got - want) <= n * 2.0 ** -52 * apolar.norm(size)


def test_univariate_rejects_multivariate():
    x, y = variables(2)
    with pytest.raises(InvalidInputError):
        fischer.decompose_univariate(x, x * y)


@pytest.mark.parametrize("field", ["exact", "float"])
@pytest.mark.parametrize("f_kind", ["poly", "stream"])
def test_direct_is_long_division_in_dimension_one(field, f_kind):
    # decompose_direct answers a d = 1 divisor with decompose_univariate:
    # the same q, r, method and diagnostics; exact results ==, float ones
    # bit for bit (Poly equality compares the coefficients exactly)
    rng = random.Random(19)
    z, = variables(1)
    for _ in range(12):
        p = rand_homogeneous(rng, 1, rng.randint(1, 4)) + rand_poly(rng, 1, 3)
        if p.degree < 1:
            continue
        if field == "float":
            p = p.to_float()
        if f_kind == "poly":
            f = rand_poly(rng, 1, rng.randint(0, 12), n_terms=6)
        else:
            f = TaylorStream.from_exp(z * rand_gaussian(rng), max_degree=rng.randint(4, 30))
        for cap in (None, rng.randint(0, 20)):
            want = fischer.decompose_univariate(p, f, cap)
            got = fischer.decompose_direct(p, f, cap)
            assert got == want
            assert got.method == "univariate"
            assert got.q.field == (FLOAT if field == "float" else EXACT)


def test_series_refuses_streams_and_float_univariate_input():
    # the series route splits polynomials only, and in d = 1 exact ones:
    # float slice projections would leave r terms of degree >= deg p
    z, = variables(1)
    x, y = variables(2)
    p = Poly(1, {(2,): 3.0 + 0j, (1,): 0.7 + 0j, (0,): 1.1 + 0j})
    f = Poly(1, {(9,): 1.3 + 0j, (4,): 0.2 + 0j, (0,): 1.0 + 0j})
    with pytest.raises(InvalidInputError, match="long division"):
        fischer.decompose_series(p, f)
    with pytest.raises(InvalidInputError, match="long division"):
        fischer.decompose_series(3 * z * z + 1, f)
    with pytest.raises(InvalidInputError, match="polynomial input"):
        fischer.decompose_series(x * x - 1, TaylorStream.from_exp(x + y, max_degree=8))
    with pytest.raises(InvalidInputError, match="polynomial input"):
        fischer._direct_and_series(x * x - 1, TaylorStream.from_exp(x + y, max_degree=8))
    assert fischer.decompose_direct(p, f).r.degree <= 1
    exact = fischer.decompose_series(z * z - 1, z ** 5 + 2 * z)
    assert exact.q == fischer.decompose_univariate(z * z - 1, z ** 5 + 2 * z).q


# ---------------------------------------------------------------------------
# degree-1 divisors: the direct recursion, one projection per degree

def test_linear_oracle():
    x, y = variables(2)
    res = fischer.decompose_direct(x + y - 1, x + y)
    assert res.q == Poly.constant(2, 1)
    assert res.r == Poly.constant(2, 1)
    assert res.annihilator_residual == 0


def test_linear_no_shift_matches_projection(rng):
    x, y = variables(2)
    p1 = x - 2 * y
    f = rand_poly(rng, 2, 4)
    res = fischer.decompose_direct(p1, f)
    expected = sum((fischer.project_homogeneous(p1, fm).q
                    for fm in f.homogeneous_components().values()),
                   Poly.zero(2))
    assert res.q == expected


def test_linear_remainder_kills_z1(rng):
    x, y = variables(2)
    for c in (Fraction(2), GaussianRational(1, 1)):
        f = rand_poly(rng, 2, 4)
        res = fischer.decompose_direct(x - c, f)
        assert apply_diff_op(x, res.r).is_zero
        assert (x - Poly.constant(2, c)) * res.q + res.r == f


def test_linear_stream_truncated():
    x, y = variables(2)
    stream = TaylorStream.from_exp(y, max_degree=25)
    res = fischer.decompose_direct(x, stream, max_degree=20)
    # every component of e^{z2} is killed by d/dz1, so q = 0 and r is the
    # truncation, up to degree 20 - deg p
    assert res.q.is_zero
    assert res.r == stream.truncate(19)
    assert res.diagnostics["truncation_degree"] == 20


def test_linear_stream_nonzero_shift_exact_on_truncation():
    x, y = variables(2)
    stream = TaylorStream.from_exp(y, max_degree=25)
    p1, p0 = x + y, Fraction(1)
    res = fischer.decompose_direct(p1 - p0, stream, max_degree=15)
    # f = p q + r holds exactly in every degree up to 15 - deg p
    pq = (p1 - 1) * res.q
    for m in range(15):
        assert pq.homogeneous_component(m) + res.r.homogeneous_component(m) == stream.component(m)
    assert res.q.degree <= 14 and res.r.degree <= 14
    assert res.annihilator_residual == 0
    assert res.diagnostics["truncation_degree"] == 15


def test_stream_routes_reject_unusable_truncation_degree(tmp_path):
    x, y = variables(2)
    z, = variables(1)
    for call in (lambda cap: fischer.decompose_univariate(z - 1, TaylorStream.from_exp(z), cap),
                 lambda cap: fischer.decompose_direct(x - 1, TaylorStream.from_exp(y), cap)):
        for cap in (None, -1):
            with pytest.raises(InvalidInputError):
                call(cap)
    # the direct route also needs a cap of at least deg p, on the CLI too
    # (exit 3); the stream's declared degree counts as its cap
    p = x * x * y - x - 1
    for cap in (0, 2):
        with pytest.raises(InvalidInputError, match="below deg p"):
            fischer.decompose_direct(p, TaylorStream.from_exp(y, max_degree=40), cap)
    with pytest.raises(InvalidInputError, match="below deg p"):
        fischer.decompose_direct(p, TaylorStream.from_exp(y, max_degree=2))
    assert fischer.decompose_direct(p, TaylorStream.from_exp(y), 3).r == Poly.constant(2, 1)
    save_poly(p, tmp_path / "p.json")
    with open(tmp_path / "f.json", "w") as fh:
        json.dump({"kind": "exp_poly", "max_degree": 40, "inner": poly_to_dict(y)}, fh)
    for mcap, code in ((2, cli.EXIT_PRECONDITION), (3, cli.EXIT_OK)):
        assert cli.main(["decompose", "--p", str(tmp_path / "p.json"), "--f",
                         str(tmp_path / "f.json"), "--mcap", str(mcap),
                         "--out", str(tmp_path / "x")]) == code


# ---------------------------------------------------------------------------
# cross-module consistency

def test_projection_norm_vs_sigma_min(rng):
    for _ in range(8):
        k = rng.randint(1, 2)
        m = rng.randint(k, 5)
        pk = rand_homogeneous(rng, 2, k)
        fm = rand_homogeneous(rng, 2, m)
        res = fischer.project_homogeneous(pk, fm)
        sigma_min, _ = spectral.sigma_extremes(pk, m - k)
        lhs = apolar.norm(res.q)
        rhs = apolar.norm(fm) / sigma_min
        assert lhs <= rhs * (1 + 1e-9)
