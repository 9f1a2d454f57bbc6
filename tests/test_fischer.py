import cmath
import hashlib
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fischerlab import apolar, cli, fischer, polyalg, spectral
from fischerlab.errors import (ConditioningError, DimensionMismatchError, FischerLabError,
                               InvalidInputError, NumericalError)
from fischerlab.exactlinalg import float_lstsq_solve
from fischerlab.fields import EXACT, FLOAT, GaussianRational
from fischerlab.polyalg import (Poly, apply_diff_op, enumerate_monomials, midx_factorial,
                               poly_to_dict, save_poly, sqrt_int, variables)
from fischerlab.entire import TaylorStream
from conftest import exact_polys, float_polys, rand_gaussian, rand_homogeneous, rand_poly


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

def _rationals(fm):
    """The entries of a FischerMatrix as Gaussian rationals."""
    return tuple(tuple(GaussianRational.from_parts(re, im, fm.den) for re, im in row)
                 for row in fm.rows)


def test_fischer_matrix_laplacian_1x1():
    x, y = variables(2)
    fm = fischer.fischer_matrix(x * x + y * y, 2)
    assert fm.basis == ((0, 0),)
    assert _rationals(fm) == ((GaussianRational(4),),)


def test_fischer_matrix_univariate():
    z, = variables(1)
    fm = fischer.fischer_matrix(z * z, 2)
    assert _rationals(fm) == ((GaussianRational(2),),)


def test_fischer_matrix_diagonal_positive(rng):
    x, y = variables(2)
    cases = [(x * x, 3)] + [(rand_homogeneous(rng, d, 2), m) for d, m in [(2, 8), (3, 6), (4, 5)]]
    for pk, m in cases:
        fm = fischer.fischer_matrix(pk, m)
        mat = np.array([[complex(v) for v in row] for row in _rationals(fm)])
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


def test_fischer_matrix_rejects_float_pk_before_enumerating():
    # float slices go through slice_projector; the slice matrix is integer.
    # The field is checked first: slice 10^9 is never enumerated
    x = variables(3)[0]
    with pytest.raises(TypeError, match="exact pk"):
        fischer.fischer_matrix((x * x).to_float(), 10 ** 9)


def _assert_columns_are_images(pk, m):
    """Column j of fischer_matrix(pk, m) is pk*(D)(pk z^beta_j), and its
    adjoint columns are pk*(D) z^delta, both exactly."""
    fm = fischer.fischer_matrix(pk, m)
    rows = _rationals(fm)
    for j, beta in enumerate(fm.basis):
        column = Poly(pk.dim, {alpha: row[j] for alpha, row in zip(fm.basis, rows)})
        assert column == apply_diff_op(pk.star(), pk * Poly.monomial(pk.dim, beta, 1))
    for delta in enumerate_monomials(pk.dim, m):
        column = Poly(pk.dim, {fm.basis[i]: GaussianRational.from_parts(re, im, fm.den)
                               for i, re, im in fm.adjoint.get(delta, ())})
        assert column == apply_diff_op(pk.star(), Poly.monomial(pk.dim, delta, 1))


def test_fischer_matrix_columns_are_diff_op_images():
    rng = random.Random(18)
    for d in range(1, 5):
        for k in range(4):
            pk = rand_homogeneous(rng, d, k)
            for m in range(k, k + (4 if d < 4 else 3)):
                _assert_columns_are_images(pk, m)


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


@pytest.mark.parametrize("field", ["exact", "float"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_project_homogeneous_is_decompose_direct_on_one_slice(d, field):
    # the one-slice split runs decompose_direct's recursion: the same q, r
    # and annihilator residual, so d = 1 divides on every direct route
    rng = random.Random(30 + d)
    cases = [(rand_homogeneous(rng, d, rng.randint(1, 3)), rand_homogeneous(rng, d, m))
             for m in (0, 2, 4, 5) for _ in range(2)]
    if d == 1:
        cases.append((Poly(1, {(3,): 0.7 + 0.3j}), Poly(1, {(7,): 1.3 - 0.2j})))
    for pk, fm in cases:
        if field == "float":
            pk, fm = pk.to_float(), fm.to_float()
        got, want = fischer.project_homogeneous(pk, fm), fischer.decompose_direct(pk, fm)
        assert (got.q, got.r, got.method) == (want.q, want.r, want.method)
        assert got.annihilator_residual == want.annihilator_residual
        assert got.diagnostics == want.diagnostics
        if d == 1:
            assert got.method == "univariate"
            if fm.degree >= pk.degree:  # division leaves no remainder
                assert got.r.is_zero and got.annihilator_residual == 0.0


def _reference_float_projection(pk, fm):
    """The float projection by the normal equations: the slice system
    pk*(D)(pk q) = pk*(D) fm on the rows of exact pk's fischer_matrix,
    solved by least squares in the orthonormal basis; returns
    (q, condition)."""
    mat = fischer.fischer_matrix(pk, fm.degree)
    weights = np.array([math.sqrt(midx_factorial(alpha)) for alpha in mat.basis])
    a = np.array([[complex(v) for v in row] for row in _rationals(mat)], dtype=complex)
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
                ref, ref_cond = _reference_float_projection(pk, ff)
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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_projectors_equal_batches_of_one_bit_for_bit(rng, d):
    # one batch cuts every slice's M from one mult_entries call over all
    # their columns; each slice keeps the bits it has when built alone.
    # Complex pk, scaled off [1, 2) so that unit_scaled's exponent is not 0
    top = {2: 12, 3: 9, 4: 7}[d]
    for k in (1, 2, 3):
        pk = (rand_homogeneous(rng, d, k) * GaussianRational(3, 5) * 2 ** 40).to_float()
        assert polyalg.unit_scaled(pk)[1] != 0
        assert any(c.imag for c in pk.terms.values())
        degrees = list(range(top, k - 1, -1))
        batch = fischer.slice_projectors(pk, degrees)
        assert list(batch) == degrees
        for m in degrees:
            alone = fischer.slice_projector(pk, m)
            assert batch[m].pinv.tobytes() == alone.pinv.tobytes()
            assert batch[m].condition.hex() == alone.condition.hex()
            assert (batch[m].basis, batch[m].source) == (alone.basis, alone.source)


def test_batched_projectors_past_int64_weights_keep_their_bits():
    # (72 + 10)^10 passes 2^63, so the batch reads every slice's weights as
    # Python ints, slice 20's too, which alone are int64: both round to the
    # same doubles
    pk = (rand_homogeneous(random.Random(80), 2, 10) + Poly.monomial(2, (10, 0), 3)).to_float()
    batch = fischer.slice_projectors(pk, [72, 20])
    for m in (72, 20):
        alone = fischer.slice_projector(pk, m)
        assert batch[m].pinv.tobytes() == alone.pinv.tobytes()
        assert batch[m].condition.hex() == alone.condition.hex()


def test_slice_solver_early_return_follows_the_one_operand_rule():
    # a zero fm or one below deg pk projects to 0 in the field the two
    # operands meet in: float when either is, as every other projection
    x, y = variables(2)
    pk = x * x + y * y
    for pp, ff, field in [(pk.to_float(), x, FLOAT), (pk, x.to_float(), FLOAT),
                          (pk.to_float(), Poly.zero(2), FLOAT), (pk, x, EXACT),
                          (pk.to_float(), x ** 3, FLOAT), (pk, x ** 3, EXACT)]:
        q, cond = fischer.SliceSolver(pp).project(ff)
        assert q.field == field
        assert (cond is None) == (field == EXACT or ff.degree < 2)


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


def _outcome(route, p, f):
    """(q, r, key order of q and r, residual, method, diagnostics) of a
    route, or the type and text of its refusal."""
    try:
        res = route(p, f)
    except FischerLabError as exc:  # both sides must refuse alike
        return type(exc), str(exc)
    return (res.q, res.r, list(res.q.terms.items()), list(res.r.terms.items()),
            res.annihilator_residual, res.method, res.diagnostics)


@settings(max_examples=60)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    exact_polys(dims=(d, d), degrees=(0, 2), max_terms=4).filter(lambda p: not p.is_zero),
    float_polys(d, degrees=(0, 4), max_terms=6))))
def test_exact_p_beside_float_f_decomposes_as_its_float_promotion(pair):
    # _admit promotes p with f (polyalg._one_field), so no route, slice
    # solver or division sees an exact p beside a float f
    p, f = pair
    pk, fm = (g.homogeneous_component(g.degree) for g in (p, f))
    routes = [(fischer.decompose_direct, p, f), (fischer.project_homogeneous, pk, fm)]
    if p.dim >= 2:
        routes.append((fischer.decompose_series, p, f))
    for route, a, b in routes:
        assert _outcome(route, a, b) == _outcome(route, a.to_float(), b)


def test_slice_matrices_assembled_once_per_decomposition(monkeypatch):
    # exact slices are assembled by fischer_matrix, float ones by one
    # slice_projectors batch per decomposition, from per-degree tables
    # (degree_table) and one mult_entries call
    assembled = Counter()

    def count(name, key=lambda m: [m]):
        original = getattr(fischer, name)

        def counting(first, m, *rest):
            assembled.update(key(m))
            return original(first, m, *rest)

        monkeypatch.setattr(fischer, name, counting)

    x, y = variables(2)
    p = x * x + y * y - 1
    count("fischer_matrix")
    # the series projects degree 4 both from f and from its first level
    fischer.decompose_series(p, x ** 4 * y ** 2 + x ** 3 * y + y ** 4)
    assert assembled and max(assembled.values()) == 1
    monkeypatch.undo()
    assembled.clear()
    # every target degree from the cap down to deg p, each built once, in
    # one batch that makes one mult_entries call
    count("slice_projectors", key=lambda degrees: degrees)
    count("mult_entries", key=lambda cols: ["mult_entries"])
    stream = TaylorStream.from_exp((x + y) * 0.25, max_degree=40)
    fischer.decompose_direct(p.to_float(), stream, 12)
    assert assembled == Counter([*range(2, 13), "mult_entries"])
    assembled.clear()
    # a homogeneous p reaches only f's own degrees: z1^30 + 1 builds slice
    # 30 alone, degree 0 lying below deg p
    fischer.decompose_direct((x * x + y * y).to_float(), x ** 30 + 1)
    assert assembled == Counter([30, "mult_entries"])
    monkeypatch.undo()
    assembled.clear()
    # slice m reads degree m as its source and degree m - 2 as its basis:
    # every degree from 0 to the cap is tabled, each exactly once
    count("degree_table")
    fischer.decompose_direct(p.to_float(), stream, 12)
    assert assembled == Counter(range(13))


def test_degree_table_weights_stay_normal_past_degree_1000():
    # at degree 1100 in d = 2, alpha!/m! falls to 1/C(1100, 550), about
    # 1e-329: those weights come from sqrt_int, and every one is normal;
    # tables in range keep the bits of sqrt(alpha!/m!)
    table = fischer.degree_table(2, 1100)
    top = math.factorial(1100)
    assert (table.weights >= sys.float_info.min).all()
    assert table.weights.tolist() == [sqrt_int(midx_factorial(a), top) for a in table.monomials]
    for d, m in [(1, 0), (1, 170), (2, 40), (2, 900), (3, 25), (4, 12)]:
        table = fischer.degree_table(d, m)
        assert table.weights.tolist() == [math.sqrt(midx_factorial(a) / math.factorial(m))
                                          for a in table.monomials]


def test_exact_direct_equals_series_at_degree_14():
    # a generic d = 3 divisor and a 30%-dense dividend: exact slice solves
    # scale each right-hand side by one common denominator
    x, y, z = variables(3)
    p = x * x + x * y + 2 * y * y + z * z + x * z - 1
    rng = random.Random(3)
    f = Poly(3, {a: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                 for a in _monomials_up_to(3, 14) if rng.random() < 0.3})
    direct, series_q = fischer._direct_and_series(p, f)
    # equal q's give equal r's, so the series' r = f - p q is direct.r
    assert direct.q == series_q
    assert direct.annihilator_residual == 0
    assert f == p * direct.q + direct.r
    # the series' own result, which --series-check does not form
    series = fischer.decompose_series(p, f)
    assert (series.q, series.r, series.annihilator_residual) == (direct.q, direct.r, 0)


# ---------------------------------------------------------------------------
# d = 1 divisors: decompose_direct divides with remainder

def test_univariate_oracle():
    z, = variables(1)
    res = fischer.decompose_direct(z * z - 1, z ** 3)
    assert res.q == z
    assert res.r == z


def test_univariate_taylor_at_multiple_root():
    z, = variables(1)
    f = 1 + z + z * z * Fraction(1, 2) + z ** 3 * Fraction(1, 6)
    res = fischer.decompose_direct(z ** 2, f)
    assert res.r == 1 + z
    assert res.q == Fraction(1, 2) + z * Fraction(1, 6)


def test_univariate_exact_random(rng):
    for _ in range(15):
        p = rand_poly(rng, 1, 4)
        while p.is_zero:
            p = rand_poly(rng, 1, 4)
        f = rand_poly(rng, 1, 9)
        res = fischer.decompose_direct(p, f)
        assert p * res.q + res.r == f
        assert res.r.is_zero or res.r.degree < p.degree


def test_univariate_exp_stream():
    z, = variables(1)
    stream = TaylorStream.from_exp(z, max_degree=60)
    res = fischer.decompose_direct(z - 1, stream, max_degree=30)
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
    res = fischer.decompose_direct(z ** 3, stream, max_degree=25)
    # remainder = Taylor polynomial of e^z of degree 2
    assert complex(res.r.coefficient((0,))) == pytest.approx(1.0, abs=1e-9)
    assert complex(res.r.coefficient((1,))) == pytest.approx(1.0, abs=1e-9)
    assert complex(res.r.coefficient((2,))) == pytest.approx(0.5, abs=1e-9)


def test_univariate_stream_conjugate_and_double_roots():
    z, = variables(1)
    # (z - 1)^2 (z^2 + 4): double root at 1, simple roots at +-2i
    p = ((z - 1) ** 2 * (z * z + 4)).to_float()
    stream = TaylorStream.from_exp(z * Fraction(1, 2), max_degree=60)
    res = fischer.decompose_direct(p, stream, max_degree=45)
    f_trunc = stream.truncate(45).to_float()
    for point in (1.0 + 0j, 2j, -2j):
        fv = complex(f_trunc.evaluate([point]))
        rv = complex(res.r.evaluate([point]))
        assert abs(fv - rv) <= 1e-8 * max(1.0, abs(fv))
    dz = z.to_float()  # d/dz as an operator
    dr = apply_diff_op(dz, res.r)
    df = apply_diff_op(dz, f_trunc)
    assert abs(complex(df.evaluate([1.0])) - complex(dr.evaluate([1.0]))) <= 1e-6
    assert res.r.degree <= 3


def _float_and_exact_division(p, stream, n):
    """[(q, exact q), (r, exact r)]: the float stream route against exact
    division of the exact truncation by p's float coefficients, read as the
    Gaussian rationals they are."""
    res = fischer.decompose_direct(p, stream, max_degree=n)
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
    res = fischer.decompose_direct((z * z - 1).to_float(), TaylorStream.from_exp(z * 0),
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
        res = fischer.decompose_direct((z + c).to_float(), stream, 40)
        want = fischer.decompose_direct(z + c, exact_stream, 40)
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


@pytest.mark.parametrize("field", ["exact", "float"])
@pytest.mark.parametrize("f_kind", ["poly", "stream"])
def test_direct_is_long_division_in_dimension_one(field, f_kind):
    # decompose_direct divides by a d = 1 divisor with remainder: f = p q + r
    # with deg r < deg p, exactly on exact input; float input reports the
    # condition of the division, within which q and r meet the exact
    # division of the same float coefficients
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
            got = fischer.decompose_direct(p, f, cap)
            assert got.method == "univariate"
            assert got.r.is_zero or got.r.degree < p.degree
            want_diag = set()
            g = f
            if f_kind == "stream":
                trunc = f.max_degree if cap is None else min(cap, f.max_degree)
                g = f.truncate(trunc)
                assert got.diagnostics["truncation_degree"] == trunc
                want_diag.add("truncation_degree")
            if field == "exact":
                assert got.q.field == got.r.field == EXACT
                assert p * got.q + got.r == g
            else:
                want_diag.add("condition")
                g = g.to_float()
                cond = got.diagnostics["condition"]
                assert cond == fischer._division_condition(p, g, got.q, got.r)
                assert got.q.field == got.r.field == FLOAT
                want = fischer._poly_divmod_1d(_exactify(g), _exactify(p))
                err = sum(apolar.norm(a - b.to_float()) for a, b in zip((got.q, got.r), want))
                size = apolar.norm(got.q) + apolar.norm(got.r)
                assert err <= (g.degree + 1) * 2.0 ** -52 * cond * size
            assert set(got.diagnostics) == want_diag


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
    assert exact.q == fischer.decompose_direct(z * z - 1, z ** 5 + 2 * z).q


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
    for call in (lambda cap: fischer.decompose_direct(z - 1, TaylorStream.from_exp(z), cap),
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
# the front door: one set of preconditions for every route

_ROUTES = {
    "direct": fischer.decompose_direct,
    # a d = 1 divisor divides with remainder inside decompose_direct
    "univariate": fischer.decompose_direct,
    "series": fischer.decompose_series,
    "direct-and-series": fischer._direct_and_series,
    # the one-slice split takes the leading form and a homogeneous fm
    "project": lambda p, f: fischer.project_homogeneous(
        p.homogeneous_component(p.degree),
        f.homogeneous_component(f.degree) if isinstance(f, Poly) else f),
}


@pytest.mark.parametrize("route", _ROUTES)
@pytest.mark.parametrize("field", ["exact", "float"])
@pytest.mark.parametrize("f_kind", ["poly", "stream"])
@pytest.mark.parametrize("p_dim,f_dim", [(2, 1), (1, 2), (2, 3)],
                         ids=["lower", "higher", "higher-d3"])
def test_every_route_rejects_f_of_another_dimension(route, field, f_kind, p_dim, f_dim):
    # f and p must live on the same C^d: long division reads only f's first
    # exponent, and the recursion looks f's monomials up in p's slices
    p = sum(variables(p_dim), Poly.zero(p_dim)) ** 2 - 1
    zs = variables(f_dim)
    f = GaussianRational(Fraction(1, 2), 1) * zs[0] ** 3 * zs[-1] + zs[-1] ** 2
    if field == "float":
        p, f = p.to_float(), f.to_float()
    if f_kind == "stream":
        f = TaylorStream.from_exp(f, max_degree=8)
    with pytest.raises(DimensionMismatchError):
        _ROUTES[route](p, f)


def test_project_homogeneous_rejects_inhomogeneous_fm():
    x, y = variables(2)
    for pk, fm in ((x * x + y * y, x ** 3 + y), ((x * y).to_float(), (x ** 2 - 1).to_float()),
                   (x * x + y, x ** 3), (x * x - 1, x ** 3)):
        with pytest.raises(InvalidInputError, match="homogeneous"):
            fischer.project_homogeneous(pk, fm)


@pytest.mark.parametrize("c,f", [(5e-324, 1.0), (1e300, 1e-300)], ids=["overflow", "underflow"])
def test_float_constant_divisor_refuses_a_quotient_out_of_range(c, f):
    # q = f / c is inf, or 0 with f nonzero: exit 4, never a file holding inf
    with pytest.raises(NumericalError):
        fischer.decompose_direct(Poly(1, {(0,): c}), Poly(1, {(1,): f}))


@pytest.mark.parametrize("field", ["exact", "float"])
def test_stream_truncated_below_deg_p(field, tmp_path):
    # d = 1: the truncation is already the remainder of long division;
    # d >= 2: the recursion needs a cap of at least deg p (exit 3)
    z, = variables(1)
    x, _ = variables(2)
    promote = (lambda p: p.to_float()) if field == "float" else (lambda p: p)
    stream = TaylorStream.from_exp(promote(z), max_degree=2)
    res = fischer.decompose_direct(promote(z ** 3 - 1), stream)
    assert res.q == Poly.zero(1, FLOAT if field == "float" else EXACT)
    assert res.r == stream.truncate(2)
    assert res.diagnostics["truncation_degree"] == 2
    p = promote(x ** 3 - 1)
    with pytest.raises(InvalidInputError, match="below deg p"):
        fischer.decompose_direct(p, TaylorStream.from_exp(promote(x), max_degree=2))
    save_poly(p, tmp_path / "p.json")
    (tmp_path / "f.json").write_text(json.dumps(
        {"kind": "exp_poly", "max_degree": 2, "inner": poly_to_dict(promote(x))}))
    assert cli.main(["decompose", "--p", str(tmp_path / "p.json"), "--f",
                     str(tmp_path / "f.json"), "--out", str(tmp_path / "x")]) == 3
    assert not list(tmp_path.glob("x.*"))


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
