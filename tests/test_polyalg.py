import cmath
import itertools
import json
import math
import os
import random
import tempfile
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fischerlab import apolar
from fischerlab.entire import TaylorStream
from fischerlab.errors import (DimensionMismatchError, FormatError, InvalidInputError,
                               NumericalError)
from fischerlab.fields import EXACT, FLOAT, GaussianRational
from fischerlab.fischer import SliceSolver, decompose_direct
from fischerlab.polyalg import (NEG_INF, Poly, apply_diff_op, count_monomials,
                                enumerate_monomials, grlex_rank, midx_add, midx_factorial,
                                log_ratio, mult_entries, poly_from_dict, poly_to_dict,
                                save_poly, sqrt_int, unit_scaled, variables, write_atomic)
from conftest import exact_polys, float_polys, rand_poly


def test_enumerate_single_variable():
    assert enumerate_monomials(1, 4) == [(4,)]


def test_enumerate_graded_lex_d2():
    assert enumerate_monomials(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_enumerate_count_d3():
    monos = enumerate_monomials(3, 2)
    assert len(monos) == 6 == count_monomials(3, 2)
    assert len(set(monos)) == 6
    assert all(sum(a) == 2 for a in monos)


@settings(max_examples=100)
@given(exact_polys(dims=(1, 4), degrees=(0, 9), max_terms=12))
def test_sorted_terms_is_graded_lex(p):
    # the reference key: degree ascending, then exponents descending
    want = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), tuple(-a for a in kv[0])))
    assert p.sorted_terms() == want


def test_enumerate_rejects_dimension_zero():
    with pytest.raises(InvalidInputError):
        enumerate_monomials(0, 3)


@pytest.mark.parametrize("d,m", [(1, 0), (1, 7), (2, 0), (2, 5), (3, 0), (3, 4), (3, 11),
                                 (4, 6), (5, 3)])
def test_monomial_array_matches_enumeration(d, m):
    # brute force: every tuple in [0, m]^d of degree m, sorted by the
    # graded-lex rule (first variable most significant, descending); the
    # array of enumerate_monomials is what grlex_rank inverts
    want = sorted((a for a in itertools.product(range(m + 1), repeat=d) if sum(a) == m),
                  reverse=True)
    monos = enumerate_monomials(d, m)
    assert monos == want
    assert len(monos) == count_monomials(d, m)
    arr = np.array(monos, dtype=np.int64).reshape(-1, d)
    assert grlex_rank(arr).tolist() == list(range(len(monos)))


def test_monomial_array_rejects_bad_sizes():
    with pytest.raises(InvalidInputError):
        enumerate_monomials(0, 3)
    with pytest.raises(InvalidInputError):
        enumerate_monomials(2, -1)


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
    rows, cols_out, vals = mult_entries(pk, cols)
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


def test_sqrt_int_rounds_as_math_sqrt_also_past_the_double_range():
    rng = random.Random(171)
    for bits in (1, 30, 53, 64, 200, 1023):
        t = 520 if bits < 500 else 490  # 4^t n past the double range, its root not
        for _ in range(20):
            n = rng.getrandbits(bits) | 1
            assert sqrt_int(n) == math.sqrt(n)
            # 4^t n rounds as n does, and its root is 2^t times n's
            assert sqrt_int(n << 2 * t) == math.ldexp(math.sqrt(n), t)
    assert sqrt_int(math.factorial(171)) == pytest.approx(math.exp(math.lgamma(172) / 2),
                                                          rel=1e-13)
    with pytest.raises(NumericalError):  # 2^1050
        sqrt_int(1 << 2100)
    # the root of a ratio n / den: its rounding scaled by powers of four,
    # past the double range and below the normal doubles alike
    for _ in range(200):
        n, den = rng.getrandbits(rng.randint(1, 400)) | 1, rng.getrandbits(rng.randint(1, 400)) | 1
        assert sqrt_int(n, den) == math.sqrt(n / den)
        assert sqrt_int(n << 1300, den) == math.ldexp(math.sqrt(n / den), 650)
        assert sqrt_int(n, den << 1300) == math.ldexp(math.sqrt(n / den), -650)
    assert sqrt_int(0, 1 << 3000) == 0.0
    assert sqrt_int(1, 1 << 2100) == 2.0 ** -1050  # a root below the normal doubles


def _ulps(got, want):
    return abs(got - want) / math.ulp(want)


def test_log_ratio_is_the_log_of_the_exact_ratio():
    assert log_ratio(1, 1) == 0.0
    with localcontext() as ctx:
        ctx.prec = 60
        ln2 = Decimal(2).ln()
        for k in range(0, 1101):  # k log 2 rounded once, of either sign
            assert log_ratio(2 ** k, 1) == log_ratio(3 << k, 3) == float(k * ln2)
            assert log_ratio(1, 2 ** k) == log_ratio(3, 3 << k) == -float(k * ln2)
            # k * math.log(2) rounds twice: equal where its product is
            # exact, as at powers of two, else within 1 ulp
            assert _ulps(log_ratio(2 ** k, 1), k * math.log(2)) <= (k & (k - 1) != 0)
    # n / den an exact normal double x, whose math.log sees no rounding of
    # the ratio, and the same x from a scaled pair of ints
    rng = random.Random(36)
    for _ in range(2000):
        x = math.ldexp(rng.uniform(0.5, 1.0), rng.choice([rng.randint(-1021, 1024), 0, 1, 2]))
        n, den = x.as_integer_ratio()
        scale = rng.getrandbits(rng.choice([1, 40, 300])) | 1
        assert _ulps(log_ratio(n * scale, den * scale), math.log(x)) <= 1, (n, den)
    # any ratio, against a 60-digit reference: near 1 math.log(n / den)
    # would lose the digits the rounding of n / den drops
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(2000):
            bits = rng.choice([3, 53, 64, 400])
            n, den = rng.getrandbits(bits) + 1, rng.getrandbits(bits) + 1
            shift = rng.choice([0, 0, 1, 2, 5, 1000])
            n, den = (n << shift, den) if rng.random() < 0.5 else (n, den << shift)
            want = float(Decimal(n).ln() - Decimal(den).ln())
            if want:
                assert _ulps(log_ratio(n, den), want) <= 2, (n, den)
    assert log_ratio(10 ** 12 + 1, 10 ** 12) == pytest.approx(1e-12, rel=1e-12)


def test_log_ratio_is_monotone_and_finite_past_the_double_range():
    # adjacent ratios across the log1p branch's ends (1/2 and 2) and across
    # powers of two, at small and 1000-bit denominators
    for den in (3, 7 << 1000, 10 ** 300 + 1):
        for centre in (den // 2, den, 2 * den, 4 * den, 5 * den, den << 70, den >> 1):
            vals = [log_ratio(n, den) for n in range(max(1, centre - 40), centre + 40)]
            assert vals == sorted(vals), (den, centre)
    big = 10 ** 800
    assert log_ratio(big, 1) == pytest.approx(800 * math.log(10), rel=1e-15)
    assert log_ratio(1, big) == -log_ratio(big, 1)
    assert log_ratio(big + 1, big) == 0.0  # log1p of 1e-800, below the doubles
    assert math.isfinite(log_ratio(3 ** 1700, big)) and math.isfinite(log_ratio(big, 3 ** 1700))
    for n, den in ((0, 1), (-1, 1), (1, 0), (1, -1), (0, 0)):
        with pytest.raises(ValueError):
            log_ratio(n, den)


def test_mult_entries_past_the_double_range():
    # the weights 172!/1! and 172!/(1! 171!) leave the double range; their
    # roots do not, and a root past it is refused
    pk = Poly(2, {(171, 0): 1.0, (0, 171): 0.5})
    rows, cols, vals = mult_entries(pk, [(1, 0), (0, 1)])
    weights = [math.factorial(172), math.factorial(171), math.factorial(171), math.factorial(172)]
    assert vals.tolist() == [c * sqrt_int(w) for c, w in zip([1, 0.5, 1, 0.5], weights)]
    with pytest.raises(NumericalError):
        mult_entries(Poly(1, {(400,): 1.0}), [(0,)])


def test_float_diff_op_past_the_double_range():
    # 171! and 172! leave the double range, c 171! does not
    q = Poly(2, {(171, 0): 1e-300})
    f = Poly(2, {(171, 0): 1.0, (172, 1): 2.0 - 1j})
    got = apply_diff_op(q, f)
    want = {(0, 0): Fraction(1e-300) * math.factorial(171),
            (1, 1): Fraction(1e-300) * math.factorial(172) * GaussianRational(2, -1)}
    assert got.terms.keys() == want.keys()
    for alpha, c in want.items():
        assert got.coefficient(alpha) == pytest.approx(complex(c), rel=1e-15)
    # each term is c v, rounded as floats multiply, times the exact weight,
    # rounded once, at degrees 171-200 and coefficients near 1e+-200
    for c, v, beta in [(1e-300, 1.0, (171, 0)), (1e-200 + 3e-201j, 2.5e-100, (200, 3)),
                       (7e-190j, -1.5e-100 + 1e-101j, (185, 185))]:
        got = apply_diff_op(Poly(2, {(171, 0): c}), Poly(2, {beta: v}))
        w = math.factorial(beta[0]) // math.factorial(beta[0] - 171)
        want = complex(GaussianRational(Fraction((c * v).real), Fraction((c * v).imag)) * w)
        assert got.terms == {(beta[0] - 171, beta[1]): want}
    with pytest.raises(NumericalError):
        apply_diff_op(Poly(1, {(171,): 1.0}), Poly(1, {(171,): 1.0}))


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
    # Poly.zero skips validation but keeps the dimension check
    for field in (EXACT, FLOAT):
        assert Poly.zero(3, field) == Poly(3, {}, field=field)
    with pytest.raises(InvalidInputError):
        Poly.zero(0)


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


def test_write_atomic_replaces_whole_files_with_the_default_mode(tmp_path):
    # the file gets the mode a plain open(path, "w") gives it, and neither a
    # finished nor a failed write leaves its temporary file behind
    plain = tmp_path / "plain.txt"
    with open(plain, "w") as fh:
        fh.write("x")
    target = tmp_path / "out.json"
    for text in ("first\n", "second\n"):
        write_atomic(target, text)
        assert target.read_text() == text
    assert target.stat().st_mode == plain.stat().st_mode
    (tmp_path / "dir").mkdir()
    with pytest.raises(OSError):
        write_atomic(tmp_path / "dir", "text")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "out.json", "plain.txt"]


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


# ---------------------------------------------------------------------------
# results the package builds are canonical: what Poly(...) would have built

def assert_canonical(r: Poly):
    """r's terms are exactly what the validating constructor builds from
    them, key order included: nonzero coefficients of the field's type."""
    items = list(r.terms.items())
    assert items == list(Poly(r.dim, items, field=r.field).terms.items())
    kind = GaussianRational if r.field == EXACT else complex
    assert all(type(c) is kind and c != 0 and len(a) == r.dim for a, c in items)


def _in_field(p: Poly, field) -> Poly:
    return p.to_float() if field == FLOAT else p


@st.composite
def _poly_pairs(draw):
    """Two polynomials in one dimension, in each combination of fields;
    half the time the second is b - a, so sums cancel whole terms."""
    d = draw(st.integers(1, 3))
    a, b = (draw(exact_polys(dims=(d, d), max_terms=6)) for _ in range(2))
    if draw(st.booleans()):
        b = b - a
    fa, fb = draw(st.sampled_from([(EXACT, EXACT), (FLOAT, FLOAT), (EXACT, FLOAT),
                                   (FLOAT, EXACT)]))
    return _in_field(a, fa), _in_field(b, fb)


@settings(max_examples=120)
@given(_poly_pairs(), st.integers(0, 4))
def test_operation_results_are_canonical(pair, j):
    a, b = pair
    results = [a + b, a - b, b - a, a * b, (a + b) * (a - b), -a, a.star(),
               a.homogeneous_component(j), a.to_float(),
               apply_diff_op(Poly.monomial(a.dim, (j,) + (0,) * (a.dim - 1), 1, field=a.field), a),
               apply_diff_op(Poly.monomial(a.dim, (1,) * a.dim, 1, field=a.field), a),
               apply_diff_op(a, b), apply_diff_op(b.star(), a),
               *a.homogeneous_components().values()]
    for r in results:
        assert_canonical(r)
    # sums keep the order the validating constructor gives the merged terms,
    # which later float sums run in
    field = EXACT if a.field == b.field == EXACT else FLOAT
    for x, y in [(a, b), (a, -b)]:
        merged = list(x.terms.items()) + list(y.terms.items())
        assert list((x + y).terms.items()) == list(Poly(a.dim, merged, field=field).terms.items())


def _same_poly(x: Poly, y: Poly) -> None:
    assert x == y
    assert list(x.terms.items()) == list(y.terms.items())


@settings(max_examples=150)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    exact_polys(dims=(d, d), max_terms=4), exact_polys(dims=(d, d), max_terms=3),
    float_polys(d, max_terms=6))), st.integers(0, 3))
def test_mixed_operands_meet_as_their_float_promotions(polys, cap):
    # one rule, polyalg._one_field: an exact and a float operand give what
    # the same call gives on both promoted by to_float, term order included;
    # the exact one has terms that round to 0 in floats, which promotion drops
    exact, tiny, b = polys
    a = exact + tiny * Fraction(1, 10 ** 400)
    for x, y in ((a, b), (b, a)):
        fx, fy = x.to_float(), y.to_float()
        _same_poly(x + y, fx + fy)
        _same_poly(x - y, fx - fy)
        _same_poly(x * y, fx * fy)
        _same_poly(apply_diff_op(x, y), apply_diff_op(fx, fy))
        assert apolar.inner_product(x, y) == apolar.inner_product(fx, fy)
    parts = {m: (a if m % 2 else b).homogeneous_component(m) for m in range(4)}
    stream = TaylorStream(a.dim, parts.__getitem__, max_degree=3)
    promoted = TaylorStream(a.dim, lambda m: parts[m].to_float(), max_degree=3)
    _same_poly(stream.truncate(cap), promoted.truncate(cap))


def test_to_float_drops_coefficients_that_round_to_zero():
    p = Poly(2, {(1, 0): GaussianRational(Fraction(1, 10 ** 400)), (0, 1): 3})
    assert list(p.to_float().terms.items()) == [((0, 1), 3 + 0j)]


@pytest.mark.parametrize("fields", [(EXACT, EXACT), (FLOAT, FLOAT), (EXACT, FLOAT)])
def test_cancelling_sums_in_products_are_dropped(fields):
    x, y = variables(2)
    s, t = _in_field(x + y, fields[0]), _in_field(x - y, fields[1])
    # the xy terms of s t cancel, and so do terms of (D_x - D_y)((x + y)^3 x)
    for r in (s * t, apply_diff_op(t, s ** 3 * x)):
        assert_canonical(r)
    assert (s * t).terms.keys() == {(2, 0), (0, 2)}
    field = FLOAT if FLOAT in fields else EXACT
    assert apply_diff_op(t, s ** 3 * x) == _in_field((x + y) ** 3, field)


@pytest.mark.parametrize("field", [EXACT, FLOAT])
@pytest.mark.parametrize("d", [2, 3])
def test_stream_and_decomposition_results_are_canonical(d, field):
    rng = random.Random(2100 + d)
    for _ in range(3):
        inner = rand_poly(rng, d, 2, n_terms=5)
        inner = _in_field(inner - inner.homogeneous_component(0), field)
        stream = TaylorStream.from_exp(inner)
        p = _in_field(rand_poly(rng, d, 2, n_terms=5) + Poly.variable(d, 0) ** 2, field)
        f = _in_field(rand_poly(rng, d, 6, n_terms=8), field)
        results = [stream.component(m) for m in range(9)] + [stream.truncate(8)]
        for res in (decompose_direct(p, stream, 8), decompose_direct(p, f)):
            results += [res.q, res.r]
        solver = SliceSolver(p.homogeneous_component(int(p.degree)))
        results += [solver.project(fm)[0] for fm in f.homogeneous_components().values()]
        for r in results:
            assert r.field == field
            assert_canonical(r)


# ---------------------------------------------------------------------------
# a float Poly holds only finite coefficients

_edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
                                1.7e308, -1.7e308])


@st.composite
def _edge_float_polys(draw, d):
    """Float polynomials in d variables of degree <= 3, zero included, with
    parts at the edges of the double range or of moderate size."""
    exps = st.lists(st.integers(0, 3), min_size=d, max_size=d).map(tuple).filter(
        lambda alpha: sum(alpha) <= 3)
    part = st.one_of(_edge_floats, st.floats(-4, 4))
    return Poly(d, draw(st.dictionaries(exps, st.builds(complex, part, part), max_size=5)),
                field=FLOAT)


@settings(max_examples=100)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(_edge_float_polys(d), _edge_float_polys(d))),
       st.builds(complex, _edge_floats, _edge_floats).filter(bool))
def test_float_arithmetic_makes_finite_coefficients_or_refuses(pq, c):
    p, q = pq
    for op in (p.__add__, p.__sub__, p.__mul__, lambda q: p ** 3, lambda q: p.scale(c),
               lambda q: p / c, lambda q: apply_diff_op(p, q)):
        try:
            out = op(q)
        except NumericalError:
            continue
        assert out.field == FLOAT and all(map(cmath.isfinite, out.terms.values()))
    for bad in (math.inf, math.nan):
        with pytest.raises(NumericalError):
            Poly(p.dim, {(1,) * p.dim: bad})


# ---------------------------------------------------------------------------
# save_poly writes what json.dumps(poly_to_dict(p), indent=1) writes

_big = st.integers(-10 ** 40, 10 ** 40)


@st.composite
def _polys_to_save(draw):
    """Exact or float polynomials in 1-4 variables, zero included: exact
    parts large and negative, finite floats with signed zeros, subnormals
    and huge values (no float Poly holds inf or nan)."""
    d = draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, 12), min_size=d, max_size=d).map(tuple)
    if draw(st.booleans()):
        part = st.builds(Fraction, _big, st.integers(1, 10 ** 30))
        coeff = st.builds(GaussianRational, part, part)
    else:
        part = st.one_of(_finite, _edge_floats)
        coeff = st.builds(complex, part, part)
    return Poly(d, draw(st.dictionaries(exps, coeff, max_size=8)))


@settings(max_examples=150)
@given(_polys_to_save())
def test_save_poly_writes_the_json_dumps_bytes(p):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        save_poly(p, path)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == (json.dumps(poly_to_dict(p), indent=1) + "\n").encode()


def test_save_poly_writes_the_zero_polynomial(tmp_path):
    for d in range(1, 5):
        for field in (EXACT, FLOAT):
            save_poly(Poly.zero(d, field), tmp_path / "z.json")
            assert (tmp_path / "z.json").read_text() == f'{{\n "dim": {d},\n "terms": []\n}}\n'


@pytest.mark.parametrize("coeffs, e", [
    ([1.5 + 1.5j, 0.1], 0),  # the modulus 2.12 does not count, only the parts
    ([2.0, -0.75j], 1),
    ([-3j, 1.0], 1),
    ([5e-324], -1074),
    ([1.7e308, 1e-300], 1023),
    ([GaussianRational(Fraction(1, 10 ** 400))], -1329),
    ([GaussianRational(Fraction(-7, 3), Fraction(1, 2)), GaussianRational(1)], 1),
    ([GaussianRational(2 ** 80 - 1)], 79),
    ([GaussianRational(0, 2 ** 80)], 80),
])
def test_unit_scaled_puts_the_largest_part_in_one_to_two(coeffs, e):
    p = Poly(1, {(j,): c for j, c in enumerate(coeffs)})
    scaled, got = unit_scaled(p)
    assert got == e and scaled.field == p.field
    assert 1 <= max(max(abs(c.real), abs(c.imag)) for c in scaled.terms.values()) < 2
    if p.field == EXACT:
        assert scaled.terms == {a: c * Fraction(2) ** -e for a, c in p.terms.items()}


@pytest.mark.parametrize("field", [EXACT, FLOAT])
def test_unit_scaled_returns_a_unit_poly_itself(field):
    x, y = variables(2, field=field)
    p = x * x + y * y
    assert unit_scaled(p) == (p, 0) and unit_scaled(p)[0] is p


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
def test_unit_scaled_refuses_a_coefficient_that_is_not_finite(c):
    with pytest.raises(NumericalError):  # no float Poly holds one for unit_scaled to see
        Poly(1, {(0,): 1.0, (1,): c})
