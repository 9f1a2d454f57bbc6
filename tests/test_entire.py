import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fischerlab import apolar, entire, fischer
from fischerlab.entire import LambdaSeq, TaylorStream
from fischerlab.errors import FormatError, InvalidInputError, NumericalError
from fischerlab.fields import FLOAT, GaussianRational
from fischerlab.polyalg import Poly, apply_diff_op, poly_to_dict, variables
from conftest import (exact_homogeneous, exact_polys, gaussian_rationals,
                      rand_homogeneous, rand_poly)


# ---------------------------------------------------------------------------
# streams

def test_exp_stream_components_exact():
    z, = variables(1)
    s = TaylorStream.from_exp(z, max_degree=2000)
    for m in (0, 1, 5, 20):
        assert s.component(m) == Poly(1, {(m,): Fraction(1, math.factorial(m))})


def test_exp_stream_even_square():
    z, = variables(1)
    s = TaylorStream.from_exp(z * z, max_degree=100)
    assert s.component(3).is_zero
    assert s.component(8) == Poly(1, {(8,): Fraction(1, math.factorial(4))})


def test_exp_stream_multivariate_matches_product():
    x, y = variables(2)
    s = TaylorStream.from_exp(x + y, max_degree=30)
    # component m of e^{z1+z2} is (z1+z2)^m / m!
    for m in (0, 1, 2, 6):
        assert s.component(m) == (x + y) ** m * Fraction(1, math.factorial(m))


def test_exp_stream_rejects_constant_term():
    z, = variables(1)
    with pytest.raises(InvalidInputError):
        TaylorStream.from_exp(z + 1)


def test_poly_stream_is_total():
    x, y = variables(2)
    s = TaylorStream.from_poly(x ** 3 + y)
    assert s.poly_degree is not None
    assert s.component(1) == y
    assert s.component(17).is_zero  # beyond the degree, still available


def test_stream_component_validation():
    s = TaylorStream(1, lambda m: Poly.variable(1, 0), max_degree=10)
    with pytest.raises(InvalidInputError):
        s.component(3)  # not homogeneous of requested degree
    with pytest.raises(InvalidInputError):
        s.component(11)


def test_package_streams_skip_the_homogeneity_check(monkeypatch):
    # from_poly and from_exp build homogeneous components; only a
    # user-supplied component_fn is checked (above)
    x, y = variables(2)
    streams = [TaylorStream.from_poly(x ** 3 + y), TaylorStream.from_exp(x + y),
               TaylorStream.from_exp((x + y).to_float())]
    monkeypatch.setattr(Poly, "is_homogeneous", lambda self, j=None: pytest.fail("checked"))
    assert [s.component(3).is_zero for s in streams] == [False, False, False]


def _exact_inners():
    """(name, inner) of exact exp streams in d = 1-3, seeded: a linear
    form, z1 + z1 z2 (not homogeneous), z1^2 (every odd component zero) and
    a form with one coefficient 10^400."""
    rng = random.Random(36)

    def coeff():
        return GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 9)),
                                Fraction(rng.randint(-5, 5), rng.randint(1, 9)))

    for d in (1, 2, 3):
        z = variables(d)
        yield f"linear-d{d}", sum((v * coeff() for v in z), Poly.zero(d))
        if d > 1:
            yield f"z1+z1z2-d{d}", z[0] + z[0] * z[1]
        yield f"z1^2-d{d}", z[0] * z[0]
        yield f"huge-d{d}", z[0] * 10 ** 400 + z[-1] * coeff()


@pytest.mark.parametrize("name, inner", [pytest.param(*case, id=case[0])
                                         for case in _exact_inners()])
def test_stream_log_norm_sq_is_the_component_log_norm(name, inner):
    # an exact exp stream reads log ||f_m||^2 off its recurrence's
    # numerators; apolar.log_norm_sq of the built component is the same
    # float, before the component is built and after
    stream = TaylorStream.from_exp(inner, max_degree=30)
    for m in range(31):
        before = stream.log_norm_sq(m)
        want = apolar.log_norm_sq(stream.component(m))
        assert before == want == stream.log_norm_sq(m), m
        assert math.isinf(want) == (name.startswith("z1^2") and m % 2 == 1), m
    for m in (-1, 31):
        with pytest.raises(InvalidInputError) as comp:
            stream.component(m)
        with pytest.raises(InvalidInputError) as log_norm:
            stream.log_norm_sq(m)
        assert str(log_norm.value) == str(comp.value)
    # the reports repeat whether a stream reads the numerators or, through
    # a plain component_fn, apolar.log_norm_sq of each component
    lam = entire.lambda_from_spec("inv-log")
    fresh = TaylorStream.from_exp(inner, max_degree=30)
    plain = TaylorStream(inner.dim, fresh.component, max_degree=30)
    orders = [entire.order_estimate(s, range(0, 31)) for s in (fresh, plain, stream)]
    assert orders[0] == orders[1] == orders[2]
    try:
        norms = [entire.blambda_norm(s, lam, 30) for s in (fresh, plain, stream)]
    except NumericalError:  # a weighted sup past the double range
        assert name.startswith("huge")
    else:
        assert norms[0] == norms[1] == norms[2]


def test_stream_log_norm_sq_of_other_streams_is_the_component_log_norm():
    # float exp, poly and plain streams take apolar.log_norm_sq of
    # component(m), and refuse the degrees component refuses
    x, y = variables(2)
    streams = [TaylorStream.from_exp((x + y * 0.5j).to_float(), 5),
               TaylorStream(2, lambda m: (x - y * Fraction(1, 3)) ** m, max_degree=5),
               TaylorStream.from_poly(x * y + x)]
    for stream in streams:
        for m in range(6):
            assert stream.log_norm_sq(m) == apolar.log_norm_sq(stream.component(m))
        for m in [-1] + [6] * (stream.max_degree == 5):
            with pytest.raises(InvalidInputError):
                stream.log_norm_sq(m)


def test_stream_json_round_trip():
    x, y = variables(2)
    obj = {"kind": "exp_poly", "inner": {"dim": 2, "terms": [
        {"exp": [0, 1], "re": "1/1", "im": "0/1"}]}, "max_degree": 50}
    s = entire.stream_from_dict(obj)
    assert s.component(2) == y * y * Fraction(1, 2)
    poly_obj = {"kind": "poly", "dim": 2, "terms": [
        {"exp": [2, 0], "re": "1/1", "im": "0/1"}]}
    s2 = entire.stream_from_dict(poly_obj)
    assert s2.poly_degree is not None and s2.component(2) == x * x
    for bad in ({"kind": "mystery"}, {"dim": 1, "terms": []},
                {"kind": "exp_poly", "max_degree": 5}):
        with pytest.raises(FormatError):
            entire.stream_from_dict(bad)


@pytest.mark.parametrize("cap", ["oops", -1, 2.5, True, None])
def test_stream_rejects_bad_max_degree(cap):
    inner = {"dim": 1, "terms": [{"exp": [1], "re": "1/1", "im": "0/1"}]}
    with pytest.raises(FormatError):
        entire.stream_from_dict({"kind": "exp_poly", "inner": inner, "max_degree": cap})
    with pytest.raises(FormatError):
        entire.stream_from_dict({"kind": "poly", **inner, "max_degree": cap})


def test_poly_stream_max_degree_below_degree_rejected():
    # a poly-kind stream supplies every component, so a limit below its
    # degree contradicts the data; a limit at or above it loads
    body = {"kind": "poly", "dim": 2, "terms": [
        {"exp": [5, 0], "re": "1/1", "im": "0/1"}, {"exp": [0, 1], "re": "1/1", "im": "0/1"}]}
    with pytest.raises(FormatError):
        entire.stream_from_dict({**body, "max_degree": 4})
    for cap in (5, 9):
        s = entire.stream_from_dict({**body, "max_degree": cap})
        assert s.poly_degree == 5 and s.component(5).terms == {(5, 0): 1}
    assert entire.stream_from_dict({"kind": "poly", "dim": 1, "terms": [],
                                    "max_degree": 0}).poly_degree == -1


@settings(max_examples=25)
@given(exact_polys(degrees=(1, 3)), st.integers(0, 5))
def test_exp_stream_exact_matches_truncated_series(inner, m):
    # the degree-m part of exp(inner) comes from the terms inner^j / j!, j <= m
    series = sum((inner ** j * Fraction(1, math.factorial(j)) for j in range(m + 1)),
                 Poly.zero(inner.dim))
    assert TaylorStream.from_exp(inner).component(m) == series.homogeneous_component(m)


def _poly_op_exp_components(inner, top):
    """Components 0..top of exp(inner) from the recurrence written in Poly
    operations: acc + (g_j * f_{n-j}) * j summed over j, then acc * (1/n)."""
    parts = inner.homogeneous_components()
    state = {0: Poly.constant(inner.dim, 1, field=inner.field)}
    for n in range(1, top + 1):
        acc = Poly.zero(inner.dim, inner.field)
        for j, gj in parts.items():
            if j > n:
                continue
            prev = state[n - j]
            if not prev.is_zero:
                acc = acc + gj * prev * j
        state[n] = acc * (1.0 / n)
    return [state[n] for n in range(top + 1)]


def _bits(p):
    """Terms in storage order with the exact bits of each double."""
    return [(a, c.real.hex(), c.imag.hex()) for a, c in p.terms.items()]


@pytest.mark.parametrize("terms, top", [
    ({(1,): 1.0}, 177),
    ({(1,): 0.3 - 1.1j, (2,): 0.25j, (3,): -0.7 + 0.1j}, 120),
    # partial underflow: coefficients turn subnormal from degree ~160
    ({(1, 0): 0.6 + 0.2j, (0, 1): -0.5 + 0.4j}, 185),
    ({(2, 0): 0.5 - 0.5j, (1, 1): 1.25, (0, 2): -0.75j, (1, 0): 0.1j}, 60),
    ({(1, 0, 0): 0.9, (0, 1, 1): -0.4 + 0.3j, (0, 0, 3): 0.2 - 0.6j}, 30),
])
def test_exp_stream_float_bit_identical_to_poly_ops(terms, top):
    inner = Poly(len(next(iter(terms))), terms, field=FLOAT)
    stream = TaylorStream.from_exp(inner)
    for m, expected in enumerate(_poly_op_exp_components(inner, top)):
        assert _bits(stream.component(m)) == _bits(expected), m


def test_exp_stream_float_total_underflow_raises():
    z, = variables(1, field=FLOAT)
    s = TaylorStream.from_exp(z)
    assert not s.component(177).is_zero
    with pytest.raises(NumericalError):
        s.component(178)  # 1/178! is below half the smallest subnormal
    # zero components with nothing to underflow are genuine zeros
    sq = TaylorStream.from_exp(z * z)
    assert sq.component(51).is_zero and sq.component(51).field == FLOAT


@settings(max_examples=25)
@given(exact_polys())
def test_stream_from_dict_poly_round_trip(p):
    s = entire.stream_from_dict(json.loads(json.dumps({"kind": "poly", **poly_to_dict(p)})))
    assert s.poly_degree == (-1 if p.is_zero else p.degree)
    for m in range(5):
        assert s.component(m) == p.homogeneous_component(m)


@settings(max_examples=25)
@given(exact_polys(degrees=(1, 3)), st.booleans(), st.integers(0, 40))
def test_stream_from_dict_exp_round_trip(inner, as_float, cap):
    if as_float:
        inner = inner.to_float()
    obj = {"kind": "exp_poly", "inner": poly_to_dict(inner), "max_degree": cap}
    s = entire.stream_from_dict(json.loads(json.dumps(obj)))
    direct = TaylorStream.from_exp(inner)
    assert s.max_degree == cap and s.poly_degree is None
    for m in range(min(cap, 4) + 1):
        got, want = s.component(m), direct.component(m)
        if as_float:
            # the file lists terms in graded-lex order, so float sums may
            # run in another order than they do on ``inner``
            assert apolar.norm(got - want) <= 1e-12 * apolar.norm(want)
        else:
            assert got == want


# ---------------------------------------------------------------------------
# lambda sequences

def test_lambda_clamps_to_one():
    lam = LambdaSeq(lambda m: 5.0 / (m + 1))
    assert lam(0) == 1.0
    assert lam(9) == 0.5


def test_lambda_rejects_constant_one():
    with pytest.raises(InvalidInputError):
        LambdaSeq(lambda m: 1.0)


def test_lambda_rejects_increasing():
    with pytest.raises(InvalidInputError):
        LambdaSeq(lambda m: 1.0 - 1.0 / (m + 2))


def test_lambda_spec_parser():
    assert entire.lambda_from_spec("inv-log")(0) == 1.0  # clamp at 1
    assert entire.lambda_from_spec("inv-log")(10) == pytest.approx(1 / math.log(12))
    assert entire.lambda_from_spec("power:0.5")(3) == pytest.approx(0.5)
    with pytest.raises(FormatError):
        entire.lambda_from_spec("nope")


# ---------------------------------------------------------------------------
# order estimation

def test_order_exp():
    z, = variables(1)
    s = TaylorStream.from_exp(z, max_degree=250)
    est = entire.order_estimate(s, range(20, 201))
    assert abs(est.rho - 1.0) <= 0.1


def test_order_exp_square():
    z, = variables(1)
    s = TaylorStream.from_exp(z * z, max_degree=250)
    est = entire.order_estimate(s, range(20, 201))
    assert abs(est.rho - 2.0) <= 0.2


def test_order_polynomial_zero_flag(rng):
    p = rand_poly(rng, 1, 12)
    s = TaylorStream.from_poly(p)
    est = entire.order_estimate(s, range(20, 201))
    assert est.rho < 0.05
    assert est.flag == "polynomial/zero"


def test_order_sparse_tail_flag():
    comps = {m: Poly(1, {(m,): 1.0}, field=FLOAT) for m in (150, 160, 170)}
    s = TaylorStream(1, lambda m: comps.get(m, Poly.zero(1, FLOAT)), max_degree=200)
    est = entire.order_estimate(s, range(20, 201))
    assert est.flag == "insufficient-tail"
    assert est.rho == 0.0


def test_order_needs_enough_degrees():
    z, = variables(1)
    s = TaylorStream.from_exp(z, max_degree=100)
    with pytest.raises(InvalidInputError):
        entire.order_estimate(s, range(10, 15))


def test_order_multivariate_exp():
    x, y = variables(2)
    a = x * GaussianRational(1, 1) + y * GaussianRational(0, 1)
    for inner, lo, hi, tol in [(x + y, 20, 80, 0.15), (a, 20, 39, 0.05), (a, 81, 100, 0.05)]:
        s = TaylorStream.from_exp(inner, max_degree=hi)
        est = entire.order_estimate(s, range(lo, hi + 1))
        assert abs(est.rho - 1.0) <= tol


def test_order_samples_are_exact_apolar_norms():
    # exp(a.z) has ||f_m||^2 = |a|^(2m) / m!, and each sample is
    # (lgamma(m+d) - log ||f_m||^2) / 2; |a|^2 = 3 here
    x, y = variables(2)
    s = TaylorStream.from_exp(x * GaussianRational(1, 1) + y * GaussianRational(0, 1),
                              max_degree=39)
    est = entire.order_estimate(s, range(20, 40))
    assert [m for m, _ in est.samples] == list(range(30, 40))
    for m, sample in est.samples:
        expected = 0.5 * (math.lgamma(m + 2) + math.lgamma(m + 1) - m * math.log(3))
        assert sample == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# weighted norms

def test_blambda_constant():
    s = TaylorStream.from_poly(Poly.constant(1, 1))
    lam = entire.lambda_from_spec("inv-log")
    rep = entire.blambda_norm(s, lam, 50)
    assert rep.norm == pytest.approx(1.0)
    assert rep.argmax_m == 0


def test_blambda_exp_consistent():
    z, = variables(1)
    s = TaylorStream.from_exp(z, max_degree=150)
    lam = entire.lambda_from_spec("inv-log")
    rep = entire.blambda_norm(s, lam, 100)
    assert math.isfinite(rep.norm)
    assert rep.membership_trend == "consistent-with-membership"


def test_blambda_boundary_sequence():
    # components manufactured to sit exactly on the weighted unit sphere
    lam = entire.lambda_from_spec("inv-linear")
    comps = {}
    for m in range(0, 41):
        weight = m ** (m / 2) * lam(m) ** m if m else 1.0
        coeff = weight / math.sqrt(math.factorial(m))
        comps[m] = Poly(1, {(m,): coeff}, field=FLOAT)
    s = TaylorStream(1, lambda m: comps.get(m, Poly.zero(1, FLOAT)), max_degree=40)
    rep = entire.blambda_norm(s, lam, 40)
    assert rep.norm == pytest.approx(1.0, rel=1e-9)
    assert rep.membership_trend == "not-converging-to-0"


# ---------------------------------------------------------------------------
# condition checkers

@pytest.mark.parametrize("k,tau,beta,rho,expected", [
    (2, 1, 0, 3, True),        # 3 < 4
    (2, 0, 1, 1, False),       # 2 < 2 fails
    (2, 2, 0, 100, True),      # tau = k: 0 < positive
    (3, 1, 2, Fraction(1), False),  # 2 < 2 fails
    (3, 1, 2, Fraction(1, 2), True),  # 1 < 2
    (2, Fraction(1, 2), 0, Fraction(8, 3), False),  # 4 < 4 fails exactly
])
def test_main_condition_table(k, tau, beta, rho, expected):
    assert entire.check_main_condition(k, tau, beta, rho) is expected


def test_main_condition_validation():
    with pytest.raises(InvalidInputError):
        entire.check_main_condition(2, 1, 2, 1.0)
    with pytest.raises(InvalidInputError):
        entire.check_main_condition(2, 3, 0, 1.0)


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("k,tau,beta", [(2, 1.0, 0), (2, 0, 1), (3, Fraction(5, 2), 2)])
def test_main_condition_fails_at_infinite_order_below_tau_k(k, tau, beta):
    # order_estimate reports rho = inf for super-order growth: inf times a
    # positive k - tau is never below 2 (k - beta)
    assert entire.check_main_condition(k, tau, beta, _INF) is False


@pytest.mark.parametrize("k,tau,beta,rho", [
    (2, 2, 0, _INF),       # inf * 0 has no value
    (2, 2.0, 1, _INF),
    (2, _NAN, 0, 1.0),
    (2, 1, 0, _NAN),
    (2, _NAN, 0, _INF),
    (2, _INF, 0, 1.0),
    (2, -_INF, 0, 1.0),
    (2, 1, 0, -_INF),
])
def test_main_condition_refuses_non_finite_values_without_a_meaning(k, tau, beta, rho):
    with pytest.raises(InvalidInputError):
        entire.check_main_condition(k, tau, beta, rho)


@pytest.mark.parametrize("tau", [_NAN, _INF, -_INF, -1, 2.5, Fraction(-1, 3)])
def test_lambda_condition_takes_the_same_tau_range(tau):
    lam = entire.lambda_from_spec("inv-linear")
    with pytest.raises(InvalidInputError):
        entire.check_lambda_condition(lam, 2, tau, 0)
    with pytest.raises(InvalidInputError):
        entire.check_main_condition(2, tau, 0, 1)


def test_lambda_condition_takes_tau_at_both_ends():
    lam = entire.lambda_from_spec("inv-linear")
    assert entire.check_lambda_condition(lam, 2, 0, 0)[0] == "tending-to-zero"
    assert entire.check_lambda_condition(lam, 2, 2, 1)[0] == "tending-to-zero"


def test_lambda_condition_tending():
    lam = entire.lambda_from_spec("inv-linear")
    verdict, tail = entire.check_lambda_condition(lam, 2, 1, 0)
    assert verdict == "tending-to-zero"
    assert len(tail) >= 5


def test_lambda_condition_not_tending():
    lam = entire.lambda_from_spec("power:0.125")
    verdict, _ = entire.check_lambda_condition(lam, 2, 1, 0)
    assert verdict == "not-tending"


def test_lambda_condition_probe_validation():
    lam = entire.lambda_from_spec("inv-linear")
    with pytest.raises(InvalidInputError):
        entire.check_lambda_condition(lam, 2, 1, 0, probe=range(4, 10))


# ---------------------------------------------------------------------------
# truncated decomposition: decompose_direct on the truncation, q and r up
# to degree cap - deg p

def _cut(g, top):
    """The components of g of degree <= top."""
    return sum((g.homogeneous_component(m) for m in range(top + 1)), Poly.zero(g.dim, g.field))


def _assert_reconstructs(dec, p, f, top, tol):
    """f_M = (p q)_M + r_M for M <= top, within tol relative."""
    pq = p * dec.q
    for m in range(top + 1):
        err = apolar.norm(f.component(m) - pq.homogeneous_component(m)
                          - dec.r.homogeneous_component(m))
        assert err <= tol * max(1.0, apolar.norm(f.component(m))), m


def test_entire_kernel_stream_gives_zero_q():
    x, y = variables(2)
    f = TaylorStream.from_exp(y, max_degree=60)
    dec = fischer.decompose_direct(x * x - 1, f, 40)
    assert dec.q.is_zero
    assert dec.r == _cut(f.truncate(40), 38)


def test_entire_polynomial_oracle_exact(rng):
    x, y = variables(2)
    for _ in range(8):
        beta = rng.choice([0, 1])
        pk = rand_homogeneous(rng, 2, 2)
        low = rand_homogeneous(rng, 2, beta)
        p = pk - low
        fpoly = rand_poly(rng, 2, 6)
        direct = fischer.decompose_direct(p, fpoly)
        dec = fischer.decompose_direct(p, TaylorStream.from_poly(fpoly), 30)
        assert dec.q == direct.q
        assert dec.r == direct.r


def test_entire_homogeneous_p_per_degree(rng):
    x, y = variables(2)
    pk = x * x + y * y
    fpoly = rand_poly(rng, 2, 5)
    dec = fischer.decompose_direct(pk, TaylorStream.from_poly(fpoly), 20)
    expected = sum((fischer.project_homogeneous(pk, fm).q
                    for fm in fpoly.homogeneous_components().values()),
                   Poly.zero(2))
    assert dec.q == expected


def test_entire_reconstruction_per_degree_float():
    x, y = variables(2)
    p = x * x + y * y - 1
    f = TaylorStream.from_exp((x + y) * 0.25, max_degree=40)
    dec = fischer.decompose_direct(p, f, 24)
    _assert_reconstructs(dec, p, f, 22, 1e-12)


def test_entire_block_decay_diagnostics():
    # the degree blocks q_M of an order-1 stream's q decay, and the
    # diagnostics are the direct route's plus the truncation degree
    x, y = variables(2)
    p = x * x + y * y - 1
    f = TaylorStream.from_exp((x + y) * 0.25, max_degree=40)
    dec = fischer.decompose_direct(p, f, 24)
    assert set(dec.diagnostics) == {"system_size", "condition", "truncation_degree"}
    assert dec.diagnostics["system_size"] == math.comb(22 + 2, 2)
    assert dec.diagnostics["condition"] >= 1.0
    norms = [apolar.norm(dec.q.homogeneous_component(m)) for m in range(0, 23, 2)]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_entire_mixed_lower_part_converges():
    # divisor with both degree-0 and degree-1 lower terms against an
    # order-1 stream: q's degree blocks decay and every degree up to
    # cap - deg p reconstructs
    x, y = variables(2)
    p = x * x + y * y - x - 1
    f = TaylorStream.from_exp((x + y) * 0.3, max_degree=60)
    dec = fischer.decompose_direct(p, f, 30)
    _assert_reconstructs(dec, p, f, 28, 1e-12)
    norms = [apolar.norm(dec.q.homogeneous_component(m)) for m in range(4, 29)]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_entire_total_stream_stops_on_smallest_step():
    # lower degrees 0 and 1: the truncation at 8 holds all of f
    x, y = variables(2)
    p = x * x + y * y + x - 1
    f = x ** 6 + x ** 3 * y + y * y
    dec = fischer.decompose_direct(p, TaylorStream.from_poly(f), 8)
    direct = fischer.decompose_direct(p, f)
    assert dec.q == direct.q
    assert dec.r == direct.r


def test_entire_total_stream_of_degree_beyond_m_cap():
    # deg f far above m_cap: the truncation drops x^24, so q and r are
    # those of y^3, r cut at m_cap - deg p
    x, y = variables(2)
    p = x * x + y * y + x
    f = x ** 24 + y ** 3
    dec = fischer.decompose_direct(p, TaylorStream.from_poly(f), 4)
    want = fischer.decompose_direct(p, y ** 3)
    assert dec.q == want.q
    assert dec.r == _cut(want.r, 2)
    assert dec.annihilator_residual == 0


@settings(max_examples=40)
@given(exact_homogeneous(2, 2).filter(lambda pk: not pk.is_zero),
       exact_homogeneous(2, 1), gaussian_rationals(),
       exact_polys(dims=(2, 2), degrees=(0, 5)))
def test_entire_polynomial_stream_matches_direct(pk, p1, p0, f):
    # lower part of degree 0 and/or 1: a polynomial stream truncated at
    # deg f + deg p reproduces the direct solve of the polynomial
    p = pk + p1 + Poly.constant(2, p0)
    assume(not (p - pk).is_zero)
    dec = fischer.decompose_direct(p, TaylorStream.from_poly(f),
                                   (0 if f.is_zero else f.degree) + 2)
    direct = fischer.decompose_direct(p, f)
    assert dec.q == direct.q
    assert dec.r == direct.r
    assert dec.annihilator_residual == 0


def test_entire_partial_stream_truncation_rule():
    # k = 2, m_cap 14: q is the exact q of the truncation at 14, r its
    # remainder up to degree 12
    x, y = variables(2)
    p = x * x + y * y - x - 1
    f = TaylorStream.from_exp((x + y) * Fraction(3, 10), max_degree=60)
    dec = fischer.decompose_direct(p, f, 14)
    want = fischer.decompose_direct(p, f.truncate(14))
    assert dec.q == want.q
    assert dec.r == _cut(want.r, 12)
    assert dec.diagnostics == {"system_size": math.comb(12 + 2, 2), "truncation_degree": 14}


def test_entire_requires_room():
    x, y = variables(2)
    with pytest.raises(InvalidInputError):
        fischer.decompose_direct(x * x, TaylorStream.from_poly(x), 1)


def _stream_battery(d, exact):
    """(p, exp stream, cap) for k in {1, 2, 3} and every lower part {0},
    {1}, {0, 1}, {0, 2} that lies below k; seeded per dimension."""
    rng = random.Random(1717 + d)
    cap = {(2, True): 10, (3, True): 7, (2, False): 20, (3, False): 12}[d, exact]
    for k in (1, 2, 3):
        for lower in ((0,), (1,), (0, 1), (0, 2)):
            if max(lower) >= k:
                continue
            p = rand_homogeneous(rng, d, k) + sum(
                (rand_homogeneous(rng, d, s) for s in lower), Poly.zero(d))
            inner = Poly(d, {tuple(int(i == j) for i in range(d)): GaussianRational(
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), 4), Fraction(rng.randint(-2, 2), 4))
                for j in range(d)})
            if not exact:
                p, inner = p.to_float(), inner.to_float()
            yield p, TaylorStream.from_exp(inner, max_degree=200), cap, (k, lower)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_stream_contract_battery(d, exact):
    # the stream contract the benchmark's check_decompose_stream reads: q and
    # r of degree <= cap - k, f_M = (p q)_M + r_M for every M <= cap - k
    # (== for exact input, 1e-12 relative in the apolar norm for float), and
    # pk*(D) r = 0
    for p, f, cap, case in _stream_battery(d, exact):
        k = int(p.degree)
        top = cap - k
        dec = fischer.decompose_direct(p, f, cap)
        assert dec.diagnostics["truncation_degree"] == cap, case
        assert dec.q.degree <= top and dec.r.degree <= top, case
        pq = p * dec.q
        for m in range(top + 1):
            resid = f.component(m) - pq.homogeneous_component(m) - dec.r.homogeneous_component(m)
            if exact:
                assert resid.is_zero, (case, m)
            else:
                assert apolar.norm(resid) <= 1e-12 * apolar.norm(f.component(m)), (case, m)
        pk = p.homogeneous_component(k)
        if exact:
            assert dec.annihilator_residual == 0, case
            assert apply_diff_op(pk.star(), dec.r).is_zero, case
        else:
            assert dec.annihilator_residual <= 1e-12 * apolar.norm(pk) * apolar.norm(dec.r), case


def _chained_truncation(stream, cap):
    """Components 0..cap added one at a time to the exact zero, as
    TaylorStream.truncate summed them before it joined them once."""
    total = Poly.zero(stream.dim)
    for m in range(int(min(cap, stream.max_degree)) + 1):
        total = total + stream.component(m)
    return total


@pytest.mark.parametrize("make, cap", [
    (lambda x, y: TaylorStream.from_exp(x + y * Fraction(1, 2)), 15),
    (lambda x, y: TaylorStream.from_exp(x * y + x, max_degree=9), 20),
    (lambda x, y: TaylorStream.from_poly(x ** 3 - y), 6),
    (lambda x, y: TaylorStream.from_exp((0.6 * x - 0.3j * y).to_float()), 30),
    # odd components of exp(x^2 + y^2) are empty float polynomials
    (lambda x, y: TaylorStream.from_exp((x * x + y * y).to_float()), 9),
    (lambda x, y: TaylorStream.from_poly(Poly.zero(2, FLOAT)), 3),
    (lambda x, y: TaylorStream.from_exp((0.5 * x).to_float()), 0),
], ids=["exact-exp", "exact-exp-clipped", "exact-poly", "float-exp", "float-exp-sparse",
        "float-zero", "float-cap0"])
def test_truncate_matches_chained_sum(make, cap):
    stream = make(*variables(2))
    got, want = stream.truncate(cap), _chained_truncation(stream, cap)
    assert got.field == want.field
    assert list(got.terms) == list(want.terms)
    if got.field == FLOAT:
        assert _bits(got) == _bits(want)
    else:
        assert list(got.terms.values()) == list(want.terms.values())
