import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fischerlab.errors import DimensionMismatchError, FormatError, InvalidInputError
from fischerlab.fields import EXACT, FLOAT, GaussianRational
from fischerlab.polyalg import (NEG_INF, Poly, apply_diff_op, count_monomials,
                                enumerate_monomials, enumerate_up_to_degree, grlex_rank,
                                midx_add, midx_factorial, monomial_array, mult_entries,
                                op_matrix, poly_from_dict, poly_to_dict, variables)
from conftest import exact_polys, rand_homogeneous, rand_poly


def test_enumerate_single_variable():
    assert enumerate_monomials(1, 4) == [(4,)]


def test_enumerate_graded_lex_d2():
    assert enumerate_monomials(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_enumerate_count_d3():
    monos = enumerate_monomials(3, 2)
    assert len(monos) == 6 == count_monomials(3, 2)
    assert len(set(monos)) == 6
    assert all(sum(a) == 2 for a in monos)


def test_enumerate_rejects_dimension_zero():
    with pytest.raises(InvalidInputError):
        enumerate_monomials(0, 3)


@pytest.mark.parametrize("d,m", [(1, 0), (1, 7), (2, 0), (2, 5), (3, 0), (3, 4), (3, 11),
                                 (4, 6), (5, 3)])
def test_monomial_array_matches_enumeration(d, m):
    arr = monomial_array(d, m)
    assert arr.shape == (count_monomials(d, m), d)
    assert list(map(tuple, arr.tolist())) == enumerate_monomials(d, m)
    assert grlex_rank(arr).tolist() == list(range(len(arr)))


def test_monomial_array_rejects_bad_sizes():
    with pytest.raises(InvalidInputError):
        monomial_array(0, 3)
    with pytest.raises(InvalidInputError):
        monomial_array(2, -1)


def _reference_mult_entries(pk, col_basis, row_basis):
    """The per-entry loop mult_entries replaced: one tuple, one dict lookup
    and two factorial products per nonzero."""
    row_index = {alpha: i for i, alpha in enumerate(row_basis)}
    rows, cols, vals = [], [], []
    for j, beta in enumerate(col_basis):
        fact_beta = midx_factorial(beta)
        for gamma, c in pk.terms.items():
            delta = midx_add(gamma, beta)
            rows.append(row_index[delta])
            cols.append(j)
            vals.append(complex(c) * math.sqrt(midx_factorial(delta) / fact_beta))
    return rows, cols, vals


def _shuffled_homogeneous(rng, d, k, exact):
    """Homogeneous pk of degree k, terms in random order; float coefficients
    include signed zeros and purely real or imaginary values."""
    parts = [0.0, -0.0, 1.0, -1.0, 2.5, -0.75]
    terms = []
    for alpha in enumerate_monomials(d, k):
        if rng.random() < 0.3:
            continue
        if exact:
            c = GaussianRational(Fraction(rng.randint(-7, 7), rng.randint(1, 5)),
                                 Fraction(rng.randint(-7, 7), rng.randint(1, 5)))
        else:
            c = complex(rng.choice(parts + [rng.gauss(0, 3)]),
                        rng.choice(parts + [rng.gauss(0, 3)]))
        terms.append((alpha, c))
    rng.shuffle(terms)
    pk = Poly(d, terms, field=EXACT if exact else FLOAT)
    return pk if not pk.is_zero else Poly.monomial(d, (k,) + (0,) * (d - 1), 1)


def _assert_matches_reference(pk, m):
    d, k = pk.dim, int(pk.degree)
    cols = enumerate_monomials(d, m)
    ref_rows, ref_cols, ref_vals = _reference_mult_entries(pk, cols,
                                                           enumerate_monomials(d, m + k))
    # the kernel lists each column's entries with rows ascending (CSC order)
    order = np.lexsort((ref_rows, ref_cols))
    rows, cols_out, vals = mult_entries(pk, monomial_array(d, m))
    assert rows.tolist() == np.array(ref_rows)[order].tolist()
    assert cols_out.tolist() == np.array(ref_cols)[order].tolist()
    assert vals.dtype == complex
    assert vals.tobytes() == np.array(ref_vals, dtype=complex)[order].tobytes()


def test_mult_entries_matches_reference_loop():
    rng = random.Random(14)
    sizes = {1: (0, 1, 2, 17, 64, 120), 2: (0, 1, 3, 10, 41, 120), 3: (0, 2, 9, 23),
             4: (0, 3, 8)}
    for d, ms in sizes.items():
        for k in range(4):
            for exact in (True, False):
                pk = _shuffled_homogeneous(rng, d, k, exact)
                for m in ms:
                    _assert_matches_reference(pk, m)


def test_mult_entries_past_int64_falling_products():
    # (m + k)^k passes 2^63, so the weights are Python ints; 26!/6! does too
    rng = random.Random(63)
    for exact in (True, False):
        pk = _shuffled_homogeneous(rng, 2, 20, exact) + Poly.monomial(2, (20, 0), 3)
        assert pk.coefficient((20, 0)) != 0
        for m in range(7):
            _assert_matches_reference(pk, m)


def test_difference_of_squares():
    x, y = variables(2)
    assert (x + y) * (x - y) == x * x - y * y


def test_zero_absorbs(rng):
    z = Poly.zero(3)
    for _ in range(5):
        p = rand_poly(rng, 3, 4)
        assert (z * p).is_zero


def test_square_expansion():
    x, y = variables(2)
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y


def test_degree_additivity(rng):
    for _ in range(30):
        p = rand_poly(rng, 2, 5)
        q = rand_poly(rng, 2, 5)
        if p.is_zero or q.is_zero:
            continue
        assert (p * q).degree == p.degree + q.degree


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        Poly.variable(2, 0) * Poly.variable(3, 0)


def test_star_basic():
    x, _ = variables(2)
    p = x.scale(GaussianRational(1, 1))
    assert p.star() == x.scale(GaussianRational(1, -1))


def test_star_fixes_real(rng):
    p = Poly(2, {(1, 0): Fraction(3, 2), (0, 2): -2})
    assert p.star() == p


def test_star_involution_and_multiplicativity(rng):
    for _ in range(20):
        p = rand_poly(rng, 2, 4)
        q = rand_poly(rng, 2, 4)
        assert p.star().star() == p
        assert (p * q).star() == p.star() * q.star()


def test_diff_op_monomials():
    x, y = variables(2)
    assert apply_diff_op(x * x, x ** 3 * y) == 6 * x * y
    assert apply_diff_op(x * y, x * x * y * y) == 4 * x * y
    assert apply_diff_op(x * x, y ** 7).is_zero


def test_diff_op_composition(rng):
    for _ in range(12):
        d = rng.randint(1, 3)
        q1 = rand_poly(rng, d, 2)
        q2 = rand_poly(rng, d, 2)
        f = rand_poly(rng, d, 6)
        lhs = apply_diff_op(q1, apply_diff_op(q2, f))
        rhs = apply_diff_op(q1 * q2, f)
        assert lhs == rhs


def _op_matrix_columns_match(q, p, col_basis, row_basis):
    rows = op_matrix(q, p, col_basis, row_basis)
    assert len(rows) == len(row_basis)
    entry = GaussianRational if q.field == p.field == EXACT else complex
    assert all(type(v) is entry for row in rows for v in row)
    for j, beta in enumerate(col_basis):
        column = Poly(q.dim, {alpha: row[j] for alpha, row in zip(row_basis, rows)},
                      field=q.field)
        assert column == apply_diff_op(q, p * Poly.monomial(q.dim, beta, 1, field=p.field))


def test_op_matrix_slice_columns_are_diff_op_images(rng):
    for _ in range(10):
        d, kq, kp = rng.randint(1, 4), rng.randint(0, 3), rng.randint(0, 3)
        m = rng.randint(kq, kq + 3)
        q, p = rand_homogeneous(rng, d, kq), rand_homogeneous(rng, d, kp)
        _op_matrix_columns_match(q, p, enumerate_monomials(d, m),
                                 enumerate_monomials(d, m + kp - kq))


def test_op_matrix_graded_columns_are_diff_op_images(rng):
    for _ in range(10):
        d, n = rng.randint(1, 3), rng.randint(0, 4)
        q, p = rand_poly(rng, d, 3), rand_poly(rng, d, 3)
        cols = enumerate_up_to_degree(d, n)
        rows = enumerate_up_to_degree(d, n + 3)
        _op_matrix_columns_match(q, p, cols, rows)
        # float entries repeat apply_diff_op's arithmetic bit for bit
        _op_matrix_columns_match(q.to_float(), p.to_float(), cols, rows)


def test_homogeneous_components():
    x, _ = variables(2)
    p = x * x - 1
    assert p.homogeneous_component(2) == x * x
    assert p.homogeneous_component(0) == Poly.constant(2, -1)
    assert p.homogeneous_component(1).is_zero
    resum = sum((p.homogeneous_component(j) for j in range(3)), Poly.zero(2))
    assert resum == p


def test_zero_polynomial_conventions():
    z = Poly.zero(2)
    assert z.degree == NEG_INF
    for j in range(5):
        assert z.homogeneous_component(j).is_zero
        assert z.is_homogeneous(j)


def test_evaluate():
    x, y = variables(2)
    p = x * x + y * y
    assert complex(p.evaluate((1, 1j))) == 0
    assert Poly.zero(2).evaluate((1, 2)) == 0


def test_evaluate_exact_point():
    x, y = variables(2)
    p = 2 * x + y * y
    assert p.evaluate((Fraction(1, 2), Fraction(3))) == Fraction(10)


def test_float_matches_exact(rng):
    for _ in range(15):
        p = rand_poly(rng, 2, 4)
        q = rand_poly(rng, 2, 4)
        exact = (p * q + p).evaluate((Fraction(1, 3), Fraction(-2, 5)))
        approx = (p.to_float() * q.to_float() + p.to_float()).evaluate((1 / 3, -2 / 5))
        assert abs(complex(exact) - complex(approx)) <= 1e-12 * max(1.0, abs(complex(exact)))


def test_float_product_coefficients_match_exact(rng):
    # integer coefficients, products of total degree up to 8
    for _ in range(15):
        p = Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-9, 9)
                     for _ in range(4)})
        q = Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-9, 9)
                     for _ in range(4)})
        exact = p * q
        approx = p.to_float() * q.to_float()
        for alpha, c in exact.terms.items():
            err = abs(complex(approx.coefficient(alpha)) - complex(c))
            assert err <= 1e-12 * max(1.0, abs(complex(c)))


def test_mixed_field_promotes():
    x, _ = variables(2)
    assert (x + 0.5 * x).field == FLOAT


def test_scale_field_ignores_underflow():
    # exact only when both the polynomial and the scalar are exact, even
    # when every product underflows to zero
    tiny = Poly(1, {(1,): 1e-300 + 0j})
    for out in (tiny.scale(1e-300), tiny / 1e300, tiny.scale(0)):
        assert out.is_zero and out.field == FLOAT
    three = Poly(1, {(1,): 3})
    assert three.scale(Fraction(1, 2)).field == EXACT
    assert three.scale(0).field == EXACT
    assert three.scale(0.5).field == FLOAT


def test_power_zero_is_one():
    x, _ = variables(2)
    assert x ** 0 == Poly.constant(2, 1)


def test_json_round_trip_exact(rng):
    for _ in range(10):
        p = rand_poly(rng, 3, 5)
        obj = poly_to_dict(p)
        text = json.dumps(obj)
        assert poly_from_dict(json.loads(text)) == p


def test_json_round_trip_float():
    x, y = variables(2)
    p = (0.5 * x + 1.25j * y).to_float()
    q = poly_from_dict(poly_to_dict(p))
    assert q.field == FLOAT
    assert q == p


@settings(max_examples=40)
@given(exact_polys(degrees=(0, 6), max_terms=8))
def test_json_round_trip_exact_property(p):
    q = poly_from_dict(json.loads(json.dumps(poly_to_dict(p))))
    assert q == p and q.field == EXACT


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40)
@given(st.integers(1, 3).flatmap(lambda d: st.dictionaries(
    st.lists(st.integers(0, 6), min_size=d, max_size=d).map(tuple),
    st.builds(complex, _finite, _finite), max_size=8)))
def test_json_round_trip_float_property(terms):
    p = Poly(len(next(iter(terms), (0,))), terms, field=FLOAT)
    q = poly_from_dict(json.loads(json.dumps(poly_to_dict(p))))
    # an empty term list carries no field and reads back as exact zero
    assert q.field == (EXACT if p.is_zero else FLOAT)
    # bit for bit, signed zeros and subnormals included
    assert ({a: (c.real.hex(), c.imag.hex()) for a, c in q.terms.items()}
            == {a: (c.real.hex(), c.imag.hex()) for a, c in p.terms.items()})


def test_json_rejects_mixed_kinds():
    with pytest.raises(FormatError):
        poly_from_dict({"dim": 1, "terms": [
            {"exp": [0], "re": "1/2", "im": 0.5}]})


def test_json_rejects_garbage():
    with pytest.raises(FormatError):
        poly_from_dict({"dim": 1})
    with pytest.raises(FormatError):
        poly_from_dict({"dim": 1, "terms": [{"exp": [-1], "re": "1/1", "im": "0/1"}]})
    with pytest.raises(FormatError):
        poly_from_dict({"dim": True, "terms": [{"exp": [1], "re": "1/1", "im": "0/1"}]})
    with pytest.raises(FormatError):
        poly_from_dict({"dim": 1, "terms": 5})
    for re in [True, None, [1], float("inf"), float("nan"), 10 ** 400]:
        with pytest.raises(FormatError):
            poly_from_dict({"dim": 1, "terms": [{"exp": [1], "re": re, "im": 0}]})
        with pytest.raises(FormatError):
            poly_from_dict({"dim": 1, "terms": [{"exp": [1], "re": 0, "im": re}]})


@pytest.mark.parametrize("exp", [[1.7], [True], ["1"], [1.0]])
def test_json_rejects_non_integer_exponents(exp):
    with pytest.raises(FormatError):
        poly_from_dict({"dim": 1, "terms": [{"exp": exp, "re": "1/1", "im": "0/1"}]})


def test_poly_rejects_bool_exponent():
    with pytest.raises(InvalidInputError):
        Poly(2, {(True, 0): 1})


def test_poly_rejects_float_coefficient_on_exact_field():
    with pytest.raises(InvalidInputError):
        Poly(1, {(1,): 1.5}, field=EXACT)
