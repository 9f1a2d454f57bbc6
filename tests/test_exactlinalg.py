import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fischerlab.errors import ConditioningError
from fischerlab.exactlinalg import (bareiss_solve, checked_condition, exact_nullspace,
                                    exact_rref, float_lstsq_solve, gram_condition)
from fischerlab.fields import GaussianRational


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def _mat(rows):
    return [[G(v) if not isinstance(v, GaussianRational) else v for v in row]
            for row in rows]


def _ints(rows):
    """Rows of Gaussian rationals as the kernel takes them: (re, im) int
    pairs, each row scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        parts = [c.parts() for c in row]
        den = math.lcm(*(d for _, _, d in parts))
        out.append([(re * (den // d), im * (den // d)) for re, im, d in parts])
    return out


def _solve(rows, rhs):
    """bareiss_solve on the rationals A x = b, each row of [A | b] scaled
    to Gaussian integers."""
    system = _ints([list(row) + [b] for row, b in zip(rows, rhs)])
    return bareiss_solve([row[:-1] for row in system], [row[-1] for row in system])


def test_bareiss_known_system():
    a = _mat([[2, 1], [1, 3]])
    x = _solve(a, [G(5), G(10)])
    assert x == [G(1), G(3)]


def test_bareiss_divides_the_right_hand_side_by_den():
    a = [[(2, 0), (1, 0)], [(1, 0), (3, 0)]]
    assert bareiss_solve(a, [(5, 0), (10, 0)], 7) == [G("1/7"), G("3/7")]
    assert bareiss_solve(a, [(5, 5), (0, 0)], 5) == [G("3/5", "3/5"), G("-1/5", "-1/5")]


def test_bareiss_with_fractions_and_complex():
    a = [[G("1/2"), G(0, 1)], [G(1), G("1/3")]]
    b = [G(1, 1), G(0)]
    x = _solve(a, b)
    assert x is not None
    for row, rhs in zip(a, b):
        acc = G(0)
        for c, xi in zip(row, x):
            acc = acc + c * xi
        assert acc == rhs


def test_bareiss_singular_returns_none():
    a = _mat([[1, 2], [2, 4]])
    assert _solve(a, [G(1), G(2)]) is None


def test_bareiss_random_consistency(rng):
    for _ in range(20):
        n = rng.randint(1, 6)
        a = [[G(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
              for _ in range(n)] for _ in range(n)]
        b = [G(rng.randint(-5, 5)) for _ in range(n)]
        x = _solve([row[:] for row in a], b[:])
        if x is None:
            continue
        for row, rhs in zip(a, b):
            acc = G(0)
            for c, xi in zip(row, x):
                acc = acc + c * xi
            assert acc == rhs


def test_rref_pivots():
    mat, pivots = exact_rref(_ints(_mat([[0, 2, 1], [0, 4, 2]])), 3)
    assert pivots == [1]
    assert mat[0][1] == G(1)


def test_nullspace_dimension_and_membership():
    rows = _mat([[1, 0, -1], [0, 1, 1]])
    basis = exact_nullspace(_ints(rows), 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        acc = G(0)
        for c, xi in zip(row, v):
            acc = acc + c * xi
        assert acc == G(0)


def test_nullspace_of_empty_matrix_is_everything():
    basis = exact_nullspace([], 3)
    assert len(basis) == 3


# -- properties of the exact kernel on small random matrices ------------------

_ZERO = G(0)
_bounded = settings(max_examples=30)


def _dot(row, vec):
    acc = _ZERO
    for c, v in zip(row, vec):
        acc = acc + c * v
    return acc


@st.composite
def _entries(draw, count):
    """``count`` Gaussian rationals with parts in [-3, 3] over denominators 1-3."""
    parts = draw(st.lists(st.integers(-3, 3), min_size=2 * count, max_size=2 * count))
    dens = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    return [G(Fraction(parts[2 * i], dens[i]), Fraction(parts[2 * i + 1], dens[i]))
            for i in range(count)]


@st.composite
def _matrices(draw, square=False):
    """(rows, ncols): a product L R with a random inner size, so zero and
    rank-deficient matrices come up as often as full-rank ones."""
    nrows = draw(st.integers(1 if square else 0, 4))
    ncols = nrows if square else draw(st.integers(1, 5))
    inner = draw(st.integers(0, 4))
    left = draw(_entries(nrows * inner))
    right = draw(_entries(inner * ncols))
    return [[_dot(left[i * inner:(i + 1) * inner], right[j::ncols]) for j in range(ncols)]
            for i in range(nrows)], ncols


@_bounded
@given(_matrices())
def test_rref_is_reduced_and_row_equivalent(system):
    rows, ncols = system
    mat, pivots = exact_rref(_ints(rows), ncols)
    rank = len(pivots)
    assert len(mat) == len(rows) and pivots == sorted(set(pivots))
    for i, pc in enumerate(pivots):
        assert all(not v for v in mat[i][:pc])
        assert [r[pc] for r in mat] == [G(1) if k == i else _ZERO for k in range(len(mat))]
    assert all(not v for row in mat[rank:] for v in row)
    # each input row is the combination of the reduced rows read at the pivots
    for row in rows:
        assert row == [_dot([row[pc] for pc in pivots], [r[j] for r in mat[:rank]])
                       for j in range(ncols)]


@_bounded
@given(_matrices(), st.randoms(use_true_random=False), _entries(4))
def test_rref_is_unique_under_row_permutation_and_scaling(system, rnd, scales):
    rows, ncols = system
    # Re(s) + 4 > 0, so every row scale is nonzero
    shuffled = [[c * (s + 4) for c in row] for row, s in zip(rows, scales)]
    rnd.shuffle(shuffled)
    assert exact_rref(_ints(shuffled), ncols) == exact_rref(_ints(rows), ncols)


@_bounded
@given(_matrices())
def test_rref_is_idempotent(system):
    rows, ncols = system
    mat, pivots = exact_rref(_ints(rows), ncols)
    assert exact_rref(_ints(mat), ncols) == (mat, pivots)


@_bounded
@given(_matrices())
def test_nullspace_is_annihilated_and_complements_rank(system):
    rows, ncols = system
    basis = exact_nullspace(_ints(rows), ncols)
    assert len(basis) == ncols - len(exact_rref(_ints(rows), ncols)[1])
    assert all(_dot(row, v) == _ZERO for v in basis for row in rows)


@_bounded
@given(_matrices(square=True), _entries(4))
def test_bareiss_solves_exactly_or_reports_singular(system, rhs):
    rows, n = system
    rhs = rhs[:n]
    x = _solve(rows, rhs)
    assert (x is None) == (len(exact_rref(_ints(rows), n)[1]) < n)
    if x is not None:
        assert [_dot(row, x) for row in rows] == rhs


def test_float_lstsq_condition_reported():
    a = np.array([[3.0, 0.0], [0.0, 1.0]])
    x, cond = float_lstsq_solve(a, np.array([6.0, 1.0]))
    assert np.allclose(x, [2.0, 1.0])
    assert cond == pytest.approx(3.0)


def test_float_lstsq_rejects_singular():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ConditioningError):
        float_lstsq_solve(a, np.array([1.0, 1.0]))


def test_gram_condition_squares_at_a_power_of_two_scale():
    # kappa(M)^2 of singular values whose squares overflow, or underflow,
    # is the in-range ratio; in range it keeps the bits of sv * sv
    for sv in ([3e200, 1e200], [3e-200, 1e-200]):
        assert gram_condition(np.array(sv)) == pytest.approx(9.0, rel=1e-15)
    sv = np.array([7.3, 2.1, 0.4])
    assert gram_condition(sv) == checked_condition(sv * sv, 3, 3)
    with pytest.raises(ConditioningError):
        gram_condition(np.array([1e7, 1.0]))


def test_checked_condition_refuses_nan():
    with pytest.raises(ConditioningError):
        checked_condition(np.array([np.nan, 1.0]), 2, 2)
