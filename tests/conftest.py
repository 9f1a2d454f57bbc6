import os

# one BLAS thread, set before anything imports numpy: threads of their own
# make the many small dense SVDs of the suite many times slower on a few cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import random  # noqa: E402
from fractions import Fraction  # noqa: E402

import pytest  # noqa: E402
from hypothesis import settings, strategies as st  # noqa: E402

from fischerlab import apolar, cli, fischer, polyalg, spectral  # noqa: E402
from fischerlab.fields import EXACT, FLOAT, GaussianRational  # noqa: E402
from fischerlab.polyalg import Poly, enumerate_monomials  # noqa: E402

# no per-example deadline on a shared host; the same examples on every run
settings.register_profile("fischerlab", deadline=None, derandomize=True)
settings.load_profile("fischerlab")


def rand_gaussian(rng, span=4, max_den=3):
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, max_den)),
        Fraction(rng.randint(-span, span), rng.randint(1, max_den)))


def rand_poly(rng, d, max_degree, n_terms=4):
    """Random exact polynomial; may be zero."""
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        alpha = tuple(rng.randint(0, max_degree) for _ in range(d))
        if sum(alpha) <= max_degree:
            terms[alpha] = rand_gaussian(rng)
    return Poly(d, terms, field=EXACT)


def rand_homogeneous(rng, d, m, density=0.6):
    """Random exact homogeneous polynomial, guaranteed nonzero."""
    monos = enumerate_monomials(d, m)
    terms = {a: rand_gaussian(rng) for a in monos if rng.random() < density}
    if not all(terms.values()) or not terms:
        terms[monos[rng.randrange(len(monos))]] = GaussianRational(1)
    return Poly(d, terms, field=EXACT)


def gaussian_rationals():
    """Gaussian rationals with parts in [-4, 4] over denominators 1-5."""
    part = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
    return st.builds(GaussianRational, part, part)


@st.composite
def exact_polys(draw, dims=(1, 3), degrees=(0, 3), max_terms=5):
    """Exact polynomials in 1-3 variables whose terms have total degree in
    ``degrees``; may be zero."""
    d = draw(st.integers(*dims))
    exps = st.lists(st.integers(0, degrees[1]), min_size=d, max_size=d).map(tuple).filter(
        lambda a: degrees[0] <= sum(a) <= degrees[1])
    terms = draw(st.dictionaries(exps, gaussian_rationals(), max_size=max_terms))
    return Poly(d, terms, field=EXACT)


@st.composite
def float_polys(draw, d, degrees=(0, 3), max_terms=5):
    """Float polynomials in d variables with parts in [-4, 4] whose terms
    have total degree in ``degrees``; may be zero."""
    exps = st.lists(st.integers(0, degrees[1]), min_size=d, max_size=d).map(tuple).filter(
        lambda a: degrees[0] <= sum(a) <= degrees[1])
    part = st.floats(-4, 4, allow_subnormal=False)
    terms = draw(st.dictionaries(exps, st.builds(complex, part, part), max_size=max_terms))
    return Poly(d, terms, field=FLOAT)


def exact_homogeneous(d, m, max_terms=5):
    """Exact homogeneous polynomials of degree m in d variables; may be zero."""
    return st.dictionaries(st.sampled_from(enumerate_monomials(d, m)), gaussian_rationals(),
                           max_size=max_terms).map(lambda terms: Poly(d, terms, field=EXACT))


@pytest.fixture
def rng():
    return random.Random(20240901)


class Listed(Exception):
    """Raised by a monomial listing that ``listing_fails`` patched."""


@pytest.fixture
def listing_fails(monkeypatch):
    """enumerate_monomials and degree_table raise Listed, in every module
    that holds them: a slice guard must refuse before either runs."""
    def listed(*args, **kwargs):
        raise Listed

    for module in (polyalg, fischer, spectral, apolar, cli):
        for name in ("enumerate_monomials", "degree_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, listed)
