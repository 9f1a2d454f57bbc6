import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csc_array, csr_array
from scipy.sparse.csgraph import connected_components

from fischerlab import apolar, fischer, polyalg, spectral
from fischerlab.errors import InvalidInputError, NumericalError
from fischerlab.fields import GaussianRational
from fischerlab.polyalg import (Poly, apply_diff_op, count_monomials, enumerate_monomials,
                                midx_factorial, variables)
from conftest import Listed, rand_homogeneous

# ARPACK gets real blocks for quadratics: a complex start vector cast to
# real would warn here
pytestmark = pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")

# The three dimension-3 quadratic classes: generic, a square in the z1, z2
# plane plus c z3^2, and the sphere quadratic.  The degree-m Gram matrix has
# size C(m+2, 2): 253 at m = 21, 276 at m = 22.
_A, _B = 0.7 + 0.2j, -0.4 + 1.1j
QUADRATICS_3D = {
    "generic": Poly(3, {(2, 0, 0): 1 + 0j, (1, 1, 0): 1 + 0j, (0, 2, 0): 1 + 0j,
                        (0, 0, 2): 1 + 0j, (0, 1, 1): 0.5 + 0.3j}),
    "square": Poly(3, {(2, 0, 0): _A * _A, (1, 1, 0): 2 * _A * _B, (0, 2, 0): _B * _B,
                       (0, 0, 2): 0.9 - 0.5j}),
    "sphere": Poly(3, {(2, 0, 0): 1 + 0j, (0, 2, 0): 1 + 0j, (0, 0, 2): 1 + 0j}),
}
# A cubic with every coefficient nonzero: its Gram matrix is one block.
FULL_CUBIC_3D = Poly(3, {alpha: complex(1 + i, 2 - i)
                         for i, alpha in enumerate(enumerate_monomials(3, 3))})


def test_mult_matrix_z1_shape_and_values():
    x, y = variables(2)
    mm = spectral.mult_matrix(x, 1)
    assert mm.matrix.shape == (3, 2)
    sv = np.linalg.svd(mm.matrix.toarray(), compute_uv=False)
    assert sv == pytest.approx([math.sqrt(2), 1.0])


def test_mult_matrix_rejects_constants():
    with pytest.raises(InvalidInputError):
        spectral.mult_matrix(Poly.constant(2, 1), 3)


def test_mult_matrix_column_norm_is_apolar_norm():
    x, y = variables(2)
    mm = spectral.mult_matrix(x * x + y * y, 0)
    assert mm.matrix.shape == (3, 1)
    assert np.linalg.norm(mm.matrix.toarray()[:, 0]) == pytest.approx(2.0)  # = ||pk||


def test_mult_matrix_column_norms_random(rng):
    pk = rand_homogeneous(rng, 2, 2)
    m = 3
    mm = spectral.mult_matrix(pk, m)
    for j, beta in enumerate(mm.col_basis):
        expected = apolar.norm_sq(pk * Poly(2, {beta: 1})) / midx_factorial(beta)
        assert np.linalg.norm(mm.matrix.toarray()[:, j]) ** 2 == pytest.approx(float(expected))


def test_mult_matrix_respects_cap(monkeypatch):
    x, y = variables(2)
    monkeypatch.setattr(polyalg, "DIM_CAP", 5)  # read at call time
    with pytest.raises(InvalidInputError):
        spectral.mult_matrix(x, 10)


_SUM_SQ = Poly(2, {(2, 0): 1, (0, 2): 1})  # degree n has n + 1 monomials in d = 2
# name -> (slice map, n minus its degree argument at target degree n: 0,
# or k = 2 for the maps that take the source degree)
_SLICE_MAPS = {
    "fischer_matrix": (fischer.fischer_matrix, 0),
    "orthonormal_operator": (lambda pk, m: fischer.orthonormal_operator(pk.to_float(), m), 0),
    "slice_projector": (lambda pk, m: fischer.slice_projector(pk.to_float(), m), 0),
    "kernel_basis-exact": (spectral.kernel_basis, 2),
    "kernel_basis-float": (lambda pk, m: spectral.kernel_basis(pk.to_float(), m), 2),
    "mult_matrix": (spectral.mult_matrix, 2),
    "sigma_extremes": (spectral.sigma_extremes, 2),
}


@pytest.mark.parametrize("name", _SLICE_MAPS)
def test_every_slice_map_refuses_one_monomial_past_the_cap_before_listing(listing_fails, name):
    # the guard reads degree m + k: DIM_CAP + 1 monomials at n = DIM_CAP is
    # refused before anything is listed, DIM_CAP monomials are let through
    call, offset = _SLICE_MAPS[name]
    n = polyalg.DIM_CAP
    with pytest.raises(InvalidInputError, match=f"more than {n} monomials at degree {n}"):
        call(_SUM_SQ, n - offset)
    with pytest.raises(Listed):
        call(_SUM_SQ, n - 1 - offset)


@pytest.mark.parametrize("name", _SLICE_MAPS)
@pytest.mark.parametrize("pk,n", [(Poly.zero(2), 6), (_SUM_SQ + Poly(2, {(1, 0): 1}), 6),
                                  (_SUM_SQ, 1)], ids=["zero", "inhomogeneous", "below-deg-pk"])
def test_every_slice_map_refuses_bad_input_before_listing(listing_fails, name, pk, n):
    # n is the target degree; at n = 1 the source degree is -1
    call, offset = _SLICE_MAPS[name]
    with pytest.raises(InvalidInputError):
        call(pk, n - offset)


def _dense_mult_oracle(pk, m):
    """The multiplication matrix filled entry by entry into a dense array."""
    cols = enumerate_monomials(pk.dim, m)
    rows = enumerate_monomials(pk.dim, m + int(pk.degree))
    a = np.zeros((len(rows), len(cols)), dtype=complex)
    for j, beta in enumerate(cols):
        for gamma, c in pk.terms.items():
            delta = tuple(g + b for g, b in zip(gamma, beta))
            a[rows.index(delta), j] = complex(c) * math.sqrt(
                midx_factorial(delta) / midx_factorial(beta))
    return a


@pytest.mark.parametrize("name,m", [(name, m) for name in QUADRATICS_3D
                                     for m in (21, 22, 43)])
def test_mult_matrix_is_sparse_and_matches_dense_oracle(name, m):
    pk = QUADRATICS_3D[name]
    mm = spectral.mult_matrix(pk, m)
    a = mm.matrix
    assert isinstance(a, csc_array)
    assert a.nnz == len(mm.col_basis) * len(pk.terms)
    oracle = _dense_mult_oracle(pk, m)
    assert np.array_equal(a.toarray(), oracle)
    # the Gram matrix M^H M, entry for entry
    gram = (a.conj().T @ a).tocsc()
    b = csc_array(oracle)
    gram_oracle = (b.conj().T @ b).tocsc()
    assert np.array_equal(gram.indptr, gram_oracle.indptr)
    assert np.array_equal(gram.indices, gram_oracle.indices)
    assert np.array_equal(gram.data, gram_oracle.data)


def test_sigma_z1_closed_form():
    x, y = variables(2)
    for m in (0, 1, 4, 9):
        lo, hi = spectral.sigma_extremes(x, m)
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(math.sqrt(m + 1), abs=1e-10)


def test_sigma_univariate_factorial_law(rng):
    for _ in range(10):
        k = rng.randint(1, 4)
        m = rng.randint(0, 30)
        a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        pk = Poly(1, {(k,): a})
        lo, hi = spectral.sigma_extremes(pk, m)
        expected = abs(a) * math.sqrt(math.factorial(k + m) / math.factorial(m))
        assert lo == pytest.approx(expected, rel=1e-10)
        assert hi == pytest.approx(expected, rel=1e-10)


def test_sigma_degenerate_square_stays_at_base(rng):
    x, y = variables(2)
    pk = (x + y) ** 2
    base = apolar.norm(pk)
    for m in (2, 9, 17):
        lo, _ = spectral.sigma_extremes(pk, m)
        assert lo <= base * (1 + 1e-9)
        assert lo >= base * (1 - 1e-9)  # Bombieri floor


def test_sigma_bombieri_floor_and_beauzamy_ceiling(rng):
    for _ in range(10):
        k = rng.randint(1, 3)
        m = rng.randint(0, 8)
        pk = rand_homogeneous(rng, 2, k)
        lo, hi = spectral.sigma_extremes(pk, m)
        assert lo >= apolar.norm(pk) * (1 - 1e-9)
        assert hi <= apolar.beauzamy_bound(pk.to_float(), m) * (1 + 1e-9)


def test_ks_fit_laplacian_slope():
    x, y = variables(2)
    rep = spectral.ks_exponent_fit(x * x + y * y, (8, 40))
    assert 0.85 <= rep.fitted_tau <= 1.15
    assert rep.flags == []


def test_ks_fit_degenerate_flat():
    x, y = variables(2)
    rep = spectral.ks_exponent_fit((x + y) ** 2, (8, 40))
    assert abs(rep.fitted_tau) <= 0.1
    assert rep.residual <= 1e-9


def test_ks_fit_linear_flat():
    x, y = variables(2)
    rep = spectral.ks_exponent_fit(x, (8, 40))
    assert abs(rep.fitted_tau) <= 0.05


def test_ks_fit_cubics_stay_under_provable_ceiling():
    x, y = variables(2)
    for pk in (x ** 3 + y ** 3, x * x * y):
        rep = spectral.ks_exponent_fit(pk, (8, 40))
        assert rep.fitted_tau <= 2.05  # ceiling k - 1 for d > 1
        assert rep.flags == []


def test_ks_fit_flags_a_slope_above_the_provable_ceiling():
    # bench/jobs.py's tripping quadratic, normal form about
    # 1.311 z1^2 + 1.102 z2^2 + 0.177 z3^2: its local slope at these degrees
    # exceeds k - 1 = 1 by more than the 0.05 margin, which the current rule flags
    pk = Poly(3, {(2, 0, 0): 0.656884285987 - 0.382856551242j,
                  (1, 1, 0): 0.410317029051 - 1.185709953029j,
                  (1, 0, 1): -0.539924242883 + 0.094322976574j,
                  (0, 2, 0): 0.250390929418 - 0.483525322068j,
                  (0, 1, 1): 0.508809740752 + 0.228026094627j,
                  (0, 0, 2): 0.815295743342 + 0.577637784758j})
    rep = spectral.ks_exponent_fit(pk, (24, 27))
    assert rep.fitted_tau == pytest.approx(1.0686, abs=1e-4)
    assert rep.flags == ["tau-above-provable-ceiling"]


def test_ks_fit_window_validation():
    x, y = variables(2)
    with pytest.raises(InvalidInputError):
        spectral.ks_exponent_fit(x, (1, 40))
    with pytest.raises(InvalidInputError):
        spectral.ks_exponent_fit(x, (8, 10))


def test_kernel_basis_partial_derivative():
    x, y = variables(2)
    basis = spectral.kernel_basis(x * x, 3)
    assert len(basis) == 2
    spanned = {frozenset(b.terms.keys()) for b in basis}
    assert spanned == {frozenset({(1, 2)}), frozenset({(0, 3)})}


def test_kernel_basis_harmonics():
    x, y = variables(2)
    basis = spectral.kernel_basis(x * x + y * y, 2)
    assert len(basis) == 2
    for b in basis:
        assert apply_diff_op(x * x + y * y, b).is_zero


def test_kernel_basis_univariate_empty():
    z, = variables(1)
    for m in (2, 3, 7):
        assert spectral.kernel_basis(z * z, m) == []


def test_kernel_low_degree_full():
    x, y = variables(2)
    basis = spectral.kernel_basis(x * x, 1)
    assert len(basis) == 2


def test_kernel_exactness_and_dimension(rng):
    for _ in range(10):
        d = rng.randint(2, 3)
        k = rng.randint(1, 2)
        m = rng.randint(k, 4)
        pk = rand_homogeneous(rng, d, k)
        basis = spectral.kernel_basis(pk, m)
        for b in basis:
            assert apply_diff_op(pk, b).is_zero
        assert len(basis) >= count_monomials(d, m) - count_monomials(d, m - k)
        # linear independence via distinct free coordinates
        mat = np.array([[complex(b.coefficient(a)) for a in
                         spectral.enumerate_monomials(d, m)] for b in basis])
        if len(basis):
            assert np.linalg.matrix_rank(mat) == len(basis)


def test_kernel_float_backend():
    x, y = variables(2)
    basis = spectral.kernel_basis((x * x + y * y).to_float(), 2)
    assert len(basis) == 2
    for b in basis:
        assert apolar.norm(apply_diff_op((x * x + y * y).to_float(), b)) <= 1e-12


def _dyadic_homogeneous(rng, d, k):
    """Nonzero homogeneous pk of degree k with coefficients (a + b i)/4,
    a, b in [-8, 8]: the float pk holds the same values."""
    monos = enumerate_monomials(d, k)
    part = lambda: Fraction(rng.randint(-8, 8), 4)
    terms = {alpha: GaussianRational(part(), part()) for alpha in monos if rng.random() < 0.6}
    terms[monos[rng.randrange(len(monos))]] = GaussianRational(1, 1)
    return Poly(d, terms)


def _orthonormal_rows(basis, d, m):
    """Each polynomial's coordinates c_alpha sqrt(alpha!) on the degree-m
    monomials: the apolar inner product is their dot product."""
    monos = enumerate_monomials(d, m)
    return np.array([[complex(b.coefficient(alpha)) * math.sqrt(midx_factorial(alpha))
                      for alpha in monos] for b in basis]).reshape(len(basis), len(monos))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_float_kernel_is_apolar_orthogonal_and_spans_the_exact_kernel(rng, d):
    top = {2: 12, 3: 9, 4: 6}[d]
    for k in (1, 2, 3):
        pk = _dyadic_homogeneous(rng, d, k)
        pkf = pk.to_float()
        for m in sorted({k, (k + top) // 2, top}):
            basis = spectral.kernel_basis(pkf, m)
            assert len(basis) == count_monomials(d, m) - count_monomials(d, m - k)
            for b in basis:
                assert apolar.norm(apply_diff_op(pkf, b)) <= 1e-12 * apolar.norm(b)
            if not basis:
                continue
            rows = _orthonormal_rows(basis, d, m)
            gram = rows.conj() @ rows.T
            assert np.abs(gram - gram[0, 0] * np.eye(len(basis))).max() <= 1e-12 * gram[0, 0].real
            # every exact kernel vector lies in the float basis' span
            onb = rows / math.sqrt(gram[0, 0].real)
            exact = _orthonormal_rows(spectral.kernel_basis(pk, m), d, m)
            resid = exact - (exact @ onb.conj().T) @ onb
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(exact)


@pytest.mark.parametrize("c", [2.0 ** -700, 1.0, 2.0 ** 700])
@pytest.mark.parametrize("pk,m", [(QUADRATICS_3D["generic"], 8), (QUADRATICS_3D["generic"], 21),
                                  (QUADRATICS_3D["square"], 12), (FULL_CUBIC_3D, 6)])
def test_float_slice_maps_scale_by_powers_of_two_bit_for_bit(c, pk, m):
    # every float slice map scales pk to one power of two first, so c pk
    # gives c times the extremes, 1/c times the pseudoinverse and the same
    # kernel, bit for bit
    e = math.frexp(c)[1] - 1
    scaled = pk * c
    want = [math.ldexp(s, e).hex() for s in spectral.sigma_extremes(pk, m)]
    assert [s.hex() for s in spectral.sigma_extremes(scaled, m)] == want
    if m > 12:
        return
    pinv = fischer.slice_projector(pk, m).pinv
    want = np.empty_like(pinv)
    want.real, want.imag = np.ldexp(pinv.real, -e), np.ldexp(pinv.imag, -e)
    assert fischer.slice_projector(scaled, m).pinv.tobytes() == want.tobytes()
    assert ([repr(b.sorted_terms()) for b in spectral.kernel_basis(scaled, m)]
            == [repr(b.sorted_terms()) for b in spectral.kernel_basis(pk, m)])


def test_classify_degenerate_121():
    cls = spectral.classify_quadratic_2d(1, 2, 1)
    assert cls.degenerate
    r, s = cls.square_root
    assert (r, s) == (GaussianRational(1), GaussianRational(1))
    assert cls.witness_direction == (GaussianRational(1), GaussianRational(-1))


def test_classify_amenable_diagonal():
    cls = spectral.classify_quadratic_2d(1, 0, 1)
    assert not cls.degenerate
    assert cls.square_root is None and cls.witness_direction is None


def test_classify_symmetric_neither():
    # z1^2 + z1 z2 + z2^2 is unitarily equivalent to a diagonal quadratic
    # (1.5 z1^2 + 0.5 z2^2), and non-degenerate like it
    cls = spectral.classify_quadratic_2d(1, 1, 1)
    assert not cls.degenerate and cls.square_root is None


def test_classify_mixed_term_amenable():
    cls = spectral.classify_quadratic_2d(0, 3, 0)
    assert not cls.degenerate and cls.square_root is None


def test_classify_all_zero_rejected():
    with pytest.raises(InvalidInputError):
        spectral.classify_quadratic_2d(0, 0, 0)


def test_classify_float_tolerance():
    cls = spectral.classify_quadratic_2d(1.0, 2.0 + 1e-15, 1.0)
    assert cls.degenerate


@pytest.mark.parametrize("c", [1e300, 1e-200])
def test_classify_float_at_any_scale(c):
    # 4ac - b^2 is taken of P / max |coefficient|: c^2 itself overflowed or
    # underflowed, and c (z1^2 + z2^2) read as degenerate
    assert not spectral.classify_quadratic_2d(c, 0.0, c).degenerate
    assert spectral.classify_quadratic_2d(c, 2 * c, c).degenerate


@pytest.mark.parametrize("a, b, c", [(0.5 - 2j, Fraction(10 ** 400), 1),
                                     (1.7e308 + 1.7e308j, 0.0, 1.0)])
def test_classify_past_the_double_range_is_numerical(a, b, c):
    with pytest.raises(NumericalError):
        spectral.classify_quadratic_2d(a, b, c)


def test_classify_exact_irrational_root_falls_back_to_float():
    cls = spectral.classify_quadratic_2d(Fraction(2), 4, Fraction(2))
    assert cls.degenerate
    r, s = cls.square_root
    assert complex(r) == pytest.approx(math.sqrt(2))


def test_degenerate_witness_equality_exact(rng):
    # multiplication by (z1+z2)^2 preserves the Bombieri ratio on the witness line
    x, y = variables(2)
    p = (x + y) ** 2
    w = x - y
    for m in (1, 4, 10, 20):
        wm = w ** m
        assert apolar.norm_sq(p * wm) == apolar.norm_sq(p) * apolar.norm_sq(wm)
        assert apolar.norm_sq(p * wm) == 8 * math.factorial(m) * 2 ** m


def test_univariate_monotone_factorial_law():
    a = GaussianRational(Fraction(3, 7), Fraction(1, 2))
    k = 3
    pk = Poly(1, {(k,): a})
    values = []
    for m in range(0, 12):
        lo, _ = spectral.sigma_extremes(pk, m)
        values.append(lo ** 2 * math.factorial(m) / math.factorial(k + m))
    expected = float(a.real ** 2 + a.imag ** 2)
    for v in values:
        assert v == pytest.approx(expected, rel=1e-10)


def _gram_block_sizes(pk, m):
    """Sizes of the connected components of the sparsity pattern of the
    Gram matrix M^H M of pk's own multiplication matrix."""
    a = spectral.mult_matrix(pk, m).matrix
    gram = (a.conj().T @ a).tocsr()
    pattern = csr_array((np.ones(gram.nnz), gram.indices, gram.indptr), shape=gram.shape)
    return np.bincount(connected_components(pattern, directed=False)[1])


def _assert_matches_dense_svd(pk, m):
    sv = np.linalg.svd(spectral.mult_matrix(pk, m).matrix.toarray(), compute_uv=False)
    lo, hi = spectral.sigma_extremes(pk, m)
    assert lo == pytest.approx(sv[-1], rel=1e-12, abs=0)
    assert hi == pytest.approx(sv[0], rel=1e-12, abs=0)


def test_size_rule_straddles_the_oracle_degrees():
    # the full cubic's Gram matrix is one block of C(m+2, 2): 253 at m = 21
    # goes to the dense eigvalsh, 276 at m = 22 to ARPACK
    for m in (21, 22):
        assert _gram_block_sizes(FULL_CUBIC_3D, m).tolist() == [count_monomials(3, m)]
        _assert_matches_dense_svd(FULL_CUBIC_3D, m)
    assert count_monomials(3, 21) <= spectral.DENSE_EIG_MAX < count_monomials(3, 22)


@pytest.mark.parametrize("field", ["exact", "float"])
@pytest.mark.parametrize("m", [10, 100, 1000])
def test_sigma_min_of_a_square_is_its_norm(field, m):
    # multiplication by P = (a z1 + b z2)^2 keeps the ratio ||P f|| / ||f||
    # at ||P|| on f = (conj(b) z1 - conj(a) z2)^m, and never goes below it
    x, y = variables(2)
    if field == "exact":
        p = (GaussianRational(2, 1) * x + GaussianRational(-1, 3) * y) ** 2
    else:
        p = (_A * x + _B * y) ** 2
    lo, _ = spectral.sigma_extremes(p, m)
    assert lo == pytest.approx(apolar.norm(p), rel=1e-12, abs=0)


def test_takagi_normal_form_detects_squares():
    # a binary quadratic is a square exactly when sigma_2 = 0
    x, y = variables(2)
    square = spectral._takagi_normal_form(((_A * x + _B * y) ** 2).to_float())
    assert list(square.terms) == [(2, 0)]
    assert complex(square.coefficient((2, 0))) == pytest.approx(abs(_A) ** 2 + abs(_B) ** 2)
    assert len(spectral._takagi_normal_form(x * x + y * y).terms) == 2
    assert len(spectral._takagi_normal_form(x * y).terms) == 2


# Sparse cubics whose Gram matrices split into blocks.  Every off-diagonal
# Gram entry of z1^2 z2 + i z2^3 is purely imaginary, so components read
# off the values cast to float would be single indices.
SPLIT_CUBICS = {
    "sum-of-cubes": Poly(3, {(3, 0, 0): 1 + 0j, (0, 3, 0): 2 + 0j, (0, 0, 3): 3j}),
    "imaginary-gram": Poly(2, {(2, 1): 1 + 0j, (0, 3): 1j}),
}


@pytest.mark.parametrize("dense_max", [spectral.DENSE_EIG_MAX, 2])
@pytest.mark.parametrize("name,m", [(name, m) for name in SPLIT_CUBICS for m in (9, 30)])
def test_split_sigma_extremes_match_dense_svd(monkeypatch, name, m, dense_max):
    pk = SPLIT_CUBICS[name]
    sizes = _gram_block_sizes(pk, m)
    # several blocks, and at dense_max = 2 some of them go to ARPACK
    assert len(sizes) > 1 and sizes.max() > 2
    monkeypatch.setattr(spectral, "DENSE_EIG_MAX", dense_max)
    _assert_matches_dense_svd(pk, m)


def test_imaginary_gram_entries_keep_their_blocks():
    a = spectral.mult_matrix(SPLIT_CUBICS["imaginary-gram"], 30).matrix
    gram = (a.conj().T @ a).tocoo()
    off = gram.row != gram.col
    assert off.any() and not gram.data[off].real.any()
    assert _gram_block_sizes(SPLIT_CUBICS["imaginary-gram"], 30).tolist() == [16, 15]


@pytest.mark.parametrize("name,m", [(name, m) for name in QUADRATICS_3D
                                     for m in (8, 21, 22, 31)]
                         + [("generic", m) for m in (40, 41, 42, 43)])
def test_sigma_extremes_matches_dense_svd(name, m):
    pk = QUADRATICS_3D[name]
    sv = np.linalg.svd(spectral.mult_matrix(pk, m).matrix.toarray(), compute_uv=False)
    lo, hi = spectral.sigma_extremes(pk, m)
    assert lo == pytest.approx(sv[-1], rel=1e-12, abs=0)
    assert hi == pytest.approx(sv[0], rel=1e-12, abs=0)


def _seeded_quadratics(d, seed):
    """Quadratics in d variables: generic, half-sparse, the square of a
    linear form, the sphere quadratic and one monomial."""
    rng = np.random.default_rng(seed)
    mons = enumerate_monomials(d, 2)
    coeffs = rng.normal(size=len(mons)) + 1j * rng.normal(size=len(mons))
    keep = rng.random(len(mons)) < 0.5
    keep[0] = True
    lin = Poly(d, {tuple(int(v == i) for v in range(d)): complex(c)
                   for i, c in enumerate(rng.normal(size=d) + 1j * rng.normal(size=d))})
    return {
        "generic": Poly(d, dict(zip(mons, coeffs.tolist()))),
        "half-sparse": Poly(d, {a: c for a, c, k in zip(mons, coeffs.tolist(), keep) if k}),
        "square": lin * lin,
        "sphere": Poly(d, {tuple(2 * (v == i) for v in range(d)): 1 + 0j for i in range(d)}),
        "monomial": Poly(d, {mons[int(rng.integers(len(mons)))]: 1.5 - 0.5j}),
    }


def _sparse_sigma_extremes(pk, m):
    """sigma_extremes of a quadratic by the sparse route on its normal
    form: mult_matrix, M^T M and the components of its pattern."""
    a = spectral.mult_matrix(spectral._takagi_normal_form(pk), m).matrix
    lo, hi = spectral._block_eig_extremes(*spectral._sparse_gram(a))
    return math.sqrt(lo), math.sqrt(hi)


@pytest.mark.parametrize("dense_max", [spectral.DENSE_EIG_MAX, 2])
@pytest.mark.parametrize("quadratics,degrees",
                         # d = 4 stops at m = 15 (816 columns) to keep the run short
                         [(_seeded_quadratics(d, seed=d), range(32 if d < 4 else 16))
                          for d in (1, 2, 3, 4)]
                         + [(QUADRATICS_3D, range(40, 46))],
                         ids=["d1", "d2", "d3", "d4", "d3-m40"])
def test_quadratic_blocks_equal_the_sparse_route(monkeypatch, quadratics, degrees, dense_max):
    # the closed-form Gram blocks of the normal form give the sparse
    # product's extremes bit for bit, on the dense and the ARPACK branch
    monkeypatch.setattr(spectral, "DENSE_EIG_MAX", dense_max)
    for name, pk in quadratics.items():
        for m in degrees:
            got, want = spectral.sigma_extremes(pk, m), _sparse_sigma_extremes(pk, m)
            assert [x.hex() for x in got] == [x.hex() for x in want], (name, m)


@pytest.mark.parametrize("pk,m", [(QUADRATICS_3D["sphere"], m) for m in (12, 14, 19, 23)]
                         + [(Poly(3, {(2, 0, 0): 1 + 0j}), m) for m in (13, 14)]
                         + [(FULL_CUBIC_3D, 12), (SPLIT_CUBICS["sum-of-cubes"], 20)])
def test_arpack_extremes_repeat_bit_for_bit(monkeypatch, pk, m):
    # Gram blocks of these symmetric pk have few distinct eigenvalues, so
    # the Krylov space runs out and ARPACK draws new vectors from rng: they
    # differ between calls unless rng has the fixed seed (eigsh on complex
    # input drops rng) and the start vector is fixed.  The cubics' blocks
    # are complex, the quadratics' real.
    monkeypatch.setattr(spectral, "DENSE_EIG_MAX", 2)
    first = spectral.sigma_extremes(pk, m)
    assert all(spectral.sigma_extremes(pk, m) == first for _ in range(4))


def test_report_csv_format():
    x, y = variables(2)
    rep = spectral.ks_exponent_fit(x, (8, 12))
    csv = spectral.report_to_csv(rep)
    lines = csv.strip().splitlines()
    assert lines[0] == "m,sigma_min,sigma_max"
    assert len(lines) == 1 + 5
    header = spectral.report_header(rep)
    assert set(header) == {"fitted_tau", "fitted_C", "window", "residual", "flags"}
