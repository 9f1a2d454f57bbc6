"""The exact hot loops run on Gaussian-integer numerators over one common
denominator.  Each is checked here, term order included, against a
reference written with plain GaussianRational arithmetic, and guarded
against falling back to that arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from fischerlab import apolar, cli, entire, fischer, spectral
from fischerlab.entire import TaylorStream
from fischerlab.fields import GaussianRational
from fischerlab.polyalg import (Poly, apply_diff_op, enumerate_monomials, midx_add,
                                midx_factorial, midx_sub, save_poly, variables)

G = GaussianRational
_ZERO = G(0)


# ---------------------------------------------------------------------------
# references in plain GaussianRational arithmetic

def _sums(dim, acc):
    return Poly(dim, {a: c for a, c in acc.items() if c})


def ref_mul(a, b):
    acc = {}
    for alpha, ca in a.terms.items():
        for beta, cb in b.terms.items():
            key = midx_add(alpha, beta)
            acc[key] = acc[key] + ca * cb if key in acc else ca * cb
    return _sums(a.dim, acc)


def ref_apply_diff_op(q, f):
    acc = {}
    for alpha, c in q.terms.items():
        for beta, v in f.terms.items():
            rest = midx_sub(beta, alpha)
            if rest is not None:
                w = c * v * (midx_factorial(beta) // midx_factorial(rest))
                acc[rest] = acc[rest] + w if rest in acc else w
    return _sums(q.dim, acc)


def ref_fischer_matrix(pk, m):
    """Entry (i, j): the coefficient of z^beta_i in pk*(D)(pk z^beta_j)."""
    basis = enumerate_monomials(pk.dim, m - int(pk.degree))
    terms = list(pk.terms.items())
    rows = []
    for bi in basis:
        row = []
        for bj in basis:
            acc = _ZERO
            for ga, ca in terms:
                delta = midx_add(bi, ga)
                for gb, cb in terms:
                    if midx_add(bj, gb) == delta:
                        acc = acc + ca.conjugate() * cb * (midx_factorial(delta)
                                                           // midx_factorial(bi))
            row.append(acc)
        rows.append(tuple(row))
    return tuple(basis), tuple(rows)


def ref_rref(rows, ncols):
    """Gauss-Jordan elimination: (reduced rows, pivot columns)."""
    mat = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        lead = len(pivots)
        pr = next((r for r in range(lead, len(mat)) if mat[r][col]), None)
        if pr is None:
            continue
        mat[lead], mat[pr] = mat[pr], mat[lead]
        inv = G(1) / mat[lead][col]
        mat[lead] = [v * inv for v in mat[lead]]
        for r, row in enumerate(mat):
            if r != lead and row[col]:
                factor = row[col]
                mat[r] = [v - factor * u for v, u in zip(row, mat[lead])]
        pivots.append(col)
    return mat, pivots


def ref_project(pk, fm):
    basis, rows = ref_fischer_matrix(pk, int(fm.degree))
    rhs = ref_apply_diff_op(pk.star(), fm)
    n = len(basis)
    mat, pivots = ref_rref([list(row) + [rhs.coefficient(b)] for row, b in zip(rows, basis)],
                           n + 1)
    assert pivots == list(range(n))
    return Poly(pk.dim, {b: row[n] for b, row in zip(basis, mat) if row[n]})


def ref_kernel_basis(pk, m):
    """The nullspace of pk(D) on slice m, one vector per free column."""
    k = int(pk.degree)
    cols = enumerate_monomials(pk.dim, m)
    rows = []
    for beta in enumerate_monomials(pk.dim, m - k):
        row = [_ZERO] * len(cols)
        for gamma, c in pk.terms.items():
            delta = midx_add(beta, gamma)
            row[cols.index(delta)] = c * (midx_factorial(delta) // midx_factorial(beta))
        rows.append(row)
    mat, pivots = ref_rref(rows, len(cols))
    basis = []
    for free in (j for j in range(len(cols)) if j not in pivots):
        vec = [_ZERO] * len(cols)
        vec[free] = G(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][free]
        basis.append(Poly(pk.dim, dict(zip(cols, vec))))
    return basis


# ---------------------------------------------------------------------------
# inputs

DENS = (1, 3, 10 ** 30)


def _coeff(rng, den):
    return G(Fraction(rng.randint(-5, 5), rng.choice((1, den))),
             Fraction(rng.randint(-5, 5), rng.choice((1, den))))


def _poly(rng, d, degrees, n_terms, den):
    terms = {}
    for _ in range(n_terms):
        terms[rng.choice(enumerate_monomials(d, rng.choice(degrees)))] = _coeff(rng, den)
    return Poly(d, terms)


def _cases():
    """(d, k, den, rng) for d 1-4, k 1-3 and denominators 1 to 10^30."""
    for d in (1, 2, 3, 4):
        for k in (1, 2, 3):
            for den in DENS:
                yield d, k, den, random.Random(1000 * d + 10 * k + len(str(den)))


def _homogeneous(rng, d, k, den):
    while True:
        pk = _poly(rng, d, [k], 3, den)
        if not pk.is_zero:
            return pk


def _same(got, want):
    assert got == want
    assert list(got.terms.items()) == list(want.terms.items())


# ---------------------------------------------------------------------------
# the battery

def test_products_and_d_operators_match_the_reference():
    for d, k, den, rng in _cases():
        for _ in range(3):
            a = _poly(rng, d, range(k + 2), 5, den)
            b = _poly(rng, d, range(k + 3), 6, den)
            _same(a * b, ref_mul(a, b))
            _same(apply_diff_op(a, b), ref_apply_diff_op(a, b))
            _same(apply_diff_op(a.star(), b * b), ref_apply_diff_op(a.star(), b * b))


def test_sums_that_cancel_leave_no_term():
    x, y = variables(2)
    half = G(Fraction(1, 10 ** 30))
    a, b = x * half + y, x * half - y
    _same(a * b, ref_mul(a, b))
    assert list((a * b).terms) == [(2, 0), (0, 2)]
    # (D_x + D_y)(x y^2 - x^2 y) = y^2 - 2 x y + 2 x y - x^2
    q, f = x + y, (x * y * y - x * x * y) * half
    got = apply_diff_op(q, f)
    _same(got, ref_apply_diff_op(q, f))
    assert list(got.terms) == [(0, 2), (2, 0)]
    assert apply_diff_op(x * x + y * y, (x * x - y * y) * half).is_zero


def test_slice_matrices_match_the_reference():
    for d, k, den, rng in _cases():
        pk = _homogeneous(rng, d, k, den)
        for m in range(k, k + (3 if d < 4 else 2)):
            fm = fischer.fischer_matrix(pk, m)
            rows = tuple(tuple(G.from_parts(re, im, fm.den) for re, im in row)
                         for row in fm.rows)
            assert (fm.basis, rows) == ref_fischer_matrix(pk, m)


def test_projections_match_the_reference():
    for d, k, den, rng in _cases():
        pk = _homogeneous(rng, d, k, den)
        solver = fischer.SliceSolver(pk)
        for m in range(k, k + (3 if d < 4 else 2)):
            fm = _poly(rng, d, [m], 4, den)
            if fm.is_zero:
                continue
            q, cond = solver.project(fm)
            assert cond is None
            _same(q, ref_project(pk, fm))


def test_projection_of_the_kernel_is_zero():
    # pk*(D) fm = 0: every sum in the right-hand side cancels
    x, y = variables(2)
    pk = x * x + y * y
    fm = (x * x - y * y) * G(Fraction(7, 10 ** 30))
    q, _ = fischer.SliceSolver(pk).project(fm)
    assert q == Poly.zero(2)


def test_kernels_match_the_reference():
    for d, k, den, rng in _cases():
        pk = _homogeneous(rng, d, k, den)
        for m in range(k, k + (3 if d < 4 else 2)):
            got = spectral.kernel_basis(pk, m)
            want = ref_kernel_basis(pk, m)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                _same(g, w)


def test_weights_past_int64_match_the_reference():
    # slice 82 of a degree-10 pk has unknowns of degree 72, and
    # (72 + 10)^10 passes 2^63: mult_pattern's weights are Python ints, and
    # 82!/72! ~ 1.4e19 would wrap in int64
    x, y = variables(2)
    pk = 3 * x ** 10 + G(Fraction(1, 7), 2) * x ** 3 * y ** 7
    m = 82
    fm = fischer.fischer_matrix(pk, m)
    rows = tuple(tuple(G.from_parts(re, im, fm.den) for re, im in row) for row in fm.rows)
    assert (fm.basis, rows) == ref_fischer_matrix(pk, m)
    f = Poly(2, {(82, 0): G(Fraction(1, 10 ** 30)), (40, 42): 5, (3, 79): G(0, 2)})
    _same(fischer.SliceSolver(pk).project(f)[0], ref_project(pk, f))
    _same(apply_diff_op(pk.star(), f), ref_apply_diff_op(pk.star(), f))
    for g, w in zip(spectral.kernel_basis(pk, m), ref_kernel_basis(pk, m)):
        _same(g, w)


# ---------------------------------------------------------------------------
# the guard: no GaussianRational arithmetic in the integer loops

_ARITHMETIC = ("__mul__", "__rmul__", "__add__", "__radd__", "__truediv__", "__rtruediv__")


class _counting:
    """Counts GaussianRational arithmetic and from_parts calls inside a
    with block, so inputs built outside it go uncounted."""

    def __enter__(self):
        self.patch = pytest.MonkeyPatch()
        self.counts = {"arithmetic": 0, "from_parts": 0}
        counts = self.counts

        def wrap(name, original):
            def counting(*args):
                counts[name] += 1
                return original(*args)
            return counting

        for op in _ARITHMETIC:
            self.patch.setattr(G, op, wrap("arithmetic", getattr(G, op)))
        self.patch.setattr(G, "from_parts", staticmethod(wrap("from_parts", G.from_parts)))
        return counts

    def __exit__(self, *exc):
        self.patch.undo()


def _terms(*polys):
    return sum(len(p.terms) for p in polys)


def test_integer_loops_do_no_rational_arithmetic():
    rng = random.Random(29)
    inputs = []
    for d in (1, 2, 3):
        for den in DENS:
            pk = _homogeneous(rng, d, 2, den)
            inputs.append((pk, _poly(rng, d, range(4), 5, den), _poly(rng, d, [5], 5, den)))
    for pk, f, fm in inputs:
        solver = fischer.SliceSolver(pk)
        with _counting() as counts:
            outputs = [pk * f, apply_diff_op(pk.star(), f), solver.project(fm)[0],
                       *spectral.kernel_basis(pk, 5)]
        assert counts["arithmetic"] == 0
        assert 0 < counts["from_parts"] <= _terms(*outputs)


def test_exact_exp_streams_do_no_rational_arithmetic():
    # inner's numerators come from Poly.numerators, the recurrence adds int
    # pairs over n! D^n, and each component is built once from its numerators
    rng = random.Random(30)
    for d in (1, 2, 3):
        for den in DENS:
            inner = _poly(rng, d, (1, 2, 3), 4, den)
            with _counting() as counts:
                stream = TaylorStream.from_exp(inner)
                outputs = [stream.component(m) for m in range(12)]
            assert counts["arithmetic"] == 0
            assert 0 < counts["from_parts"] <= _terms(*outputs)


def test_exact_order_and_blambda_read_the_numerators():
    # order and blambda take log ||f_m||^2 of an exact exp stream from the
    # recurrence's numerators: no component is built, no term reduced
    rng = random.Random(36)
    lam = entire.lambda_from_spec("inv-log")
    for d in (1, 2, 3):
        for den in DENS:
            inner = _poly(rng, d, (1, 2), 3, den)
            with _counting() as counts:
                entire.order_estimate(TaylorStream.from_exp(inner), range(0, 30))
                entire.blambda_norm(TaylorStream.from_exp(inner), lam, 30)
            assert counts == {"arithmetic": 0, "from_parts": 0}


def test_the_guard_sees_rational_arithmetic():
    with _counting() as counts:
        G(1, 2) * G(Fraction(1, 3)) + 1
        G.from_parts(1, 2, 3)
    assert counts == {"arithmetic": 2, "from_parts": 1}


# ---------------------------------------------------------------------------
# the numerator view: read once, kept, and the same values as a derivation

def _fresh(p):
    """p's numerators derived anew, from a copy built by ``Poly(...)``."""
    return Poly(p.dim, p.terms).numerators()


def _same_values(view, want):
    (pairs, den), (want_pairs, want_den) = view, want
    assert list(pairs) == list(want_pairs)
    for a, (re, im) in pairs.items():
        wr, wi = want_pairs[a]
        assert (re * want_den, im * want_den) == (wr * den, wi * den)


def _view_inputs():
    rng = random.Random(37)
    for d in (1, 2, 3):
        for den in DENS:
            yield _poly(rng, d, range(4), 6, den), _poly(rng, d, range(3), 4, den)


def test_numerators_give_every_coefficient_in_term_order():
    for p, _ in _view_inputs():
        pairs, den = p.numerators()
        assert list(pairs) == list(p.terms)
        assert den == math.lcm(*(c.parts()[2] for c in p.terms.values()))
        for (a, (re, im)), c in zip(pairs.items(), p.terms.values()):
            assert G.from_parts(re, im, den) == c
    assert Poly.zero(2).numerators() == ({}, 1)


def test_numerators_are_read_once_and_change_nothing():
    for p, _ in _view_inputs():
        twin = Poly(p.dim, p.terms)
        view = p.numerators()
        assert p.numerators() is view
        assert p == twin and hash(p) == hash(twin)
        assert list(p.terms.items()) == list(twin.terms.items())
        assert repr(p) == repr(twin)


def test_kept_views_of_products_and_d_operators_hold_the_same_values():
    for a, b in _view_inputs():
        for got in (a * b, apply_diff_op(b, a), apply_diff_op(a.star(), a * b)):
            if not got.is_zero:
                _same_values(got.numerators(), _fresh(got))
        # a product keeps the product of its operands' denominators
        assert (a * b).numerators()[1] == a.numerators()[1] * b.numerators()[1]


def test_kept_views_feed_the_slice_maps_as_derived_ones():
    # pk = a b keeps a denominator that need not be the least one
    for d, k, den, rng in _cases():
        if k == 1 or d == 4:
            continue
        pk = _homogeneous(rng, d, 1, den) * _homogeneous(rng, d, k - 1, den)
        m = k + 1
        fm = fischer.fischer_matrix(pk, m)
        rows = tuple(tuple(G.from_parts(re, im, fm.den) for re, im in row) for row in fm.rows)
        assert (fm.basis, rows) == ref_fischer_matrix(pk, m)
        f = _poly(rng, d, [1], 2, den) * _poly(rng, d, [m], 3, den)
        if not f.is_zero:
            _same(fischer.SliceSolver(pk).project(f)[0], ref_project(pk, f))
        for g, w in zip(spectral.kernel_basis(pk, m), ref_kernel_basis(pk, m)):
            _same(g, w)


class _reads:
    """The polynomials whose numerators are read inside a with block, each
    with whether that read derived them."""

    def __enter__(self):
        self.patch = pytest.MonkeyPatch()
        reads = []
        original = Poly.numerators

        def numerators(p):
            reads.append((p, p._nums is None))
            return original(p)

        self.patch.setattr(Poly, "numerators", numerators)
        return reads

    def __exit__(self, *exc):
        self.patch.undo()


def test_reznick_residual_derives_fm_once_across_its_operators():
    rng = random.Random(38)
    for d in (1, 2, 3):
        for den in DENS:
            pk = _homogeneous(rng, d, 2, den)
            fm = _homogeneous(rng, d, 3, den)
            with _reads() as reads:
                apolar.reznick_residual(pk, fm)
            of_fm = [derived for p, derived in reads if p is fm]
            assert len(of_fm) >= 2 + 1  # pk fm, then k + 1 operators at least
            assert of_fm.count(True) == 1


def test_series_check_derives_pk_star_once_across_both_routes(tmp_path):
    x, y = variables(2)
    pk = x * x + G(Fraction(1, 3), 1) * x * y + 2 * y * y  # pk* != pk
    save_poly(pk + x - 1, tmp_path / "p.json")
    save_poly((x + y) ** 5 * G(Fraction(1, 7)) + y ** 3, tmp_path / "f.json")
    argv = ["decompose", "--p", str(tmp_path / "p.json"), "--f", str(tmp_path / "f.json"),
            "--series-check", "--out", str(tmp_path / "x")]
    with _reads() as reads:
        assert cli.main(argv) == 0
    of_pk_star = [derived for p, derived in reads if p == pk.star()]
    assert len(of_pk_star) >= 2
    assert of_pk_star.count(True) == 1


def test_the_read_counter_sees_a_derivation():
    p = _poly(random.Random(39), 2, [2], 3, 3)
    with _reads() as reads:
        p.numerators()
        p.numerators()
        Poly(p.dim, p.terms).numerators()
    assert [derived for _, derived in reads] == [True, False, True]
