"""Seeded sampling shared by the Gaussian-integral Monte Carlo and the
sphere-maximum estimate.

Both draw from one generator: Gaussian batches from the counter-based
Philox generator, keyed per chunk, so results are identical for a fixed
seed.  Chunking bounds the memory of a large sample; the chunks run one
after another, there are no workers.  Sphere maxima take the best of
those points scaled onto the unit sphere and are reported as lower
bounds of the true maximum.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_SPHERE_SAMPLES = 1 << 14
MC_CHUNK = 1 << 16


def poly_eval_array(p, pts: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial on an (n, d) complex array of points."""
    vals = np.zeros(pts.shape[0], dtype=complex)
    for alpha, c in p.sorted_terms():
        term = np.full(pts.shape[0], complex(c))
        for j, e in enumerate(alpha):
            if e:
                term = term * pts[:, j] ** e
        vals += term
    return vals


def sphere_max(p, samples: int = DEFAULT_SPHERE_SAMPLES, seed: int = 0) -> float:
    """Lower estimate of max |p| over the unit sphere of C^d.

    Exact for d = 1 and homogeneous p (the modulus is constant on the
    circle).  Otherwise the largest |p| over ``samples`` points of
    gaussian_point_chunks scaled onto the sphere, which are uniform there.
    """
    if p.is_zero:
        return 0.0
    if p.dim == 1 and p.is_homogeneous():
        return abs(next(iter(p.terms.values())))
    pf = p.to_float()
    best = 0.0
    for pts in gaussian_point_chunks(p.dim, samples, seed):
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        best = max(best, float(np.abs(poly_eval_array(pf, pts)).max()))
    return best


def gaussian_point_chunks(d: int, total: int, seed: int, chunk: int = MC_CHUNK):
    """Yield (n_i, d) complex arrays with density exp(-|x|^2-|y|^2)/pi^d.

    Real and imaginary parts are independent normals with variance 1/2.
    Each chunk uses Philox keyed by (seed, chunk index), so the stream is
    reproducible.
    """
    done = 0
    idx = 0
    key_base = int(seed) & (2 ** 64 - 1)
    while done < total:
        n = min(chunk, total - done)
        rng = np.random.Generator(np.random.Philox(key=[key_base, idx]))
        block = rng.standard_normal((n, 2 * d)) / math.sqrt(2.0)
        yield block[:, :d] + 1j * block[:, d:]
        done += n
        idx += 1
