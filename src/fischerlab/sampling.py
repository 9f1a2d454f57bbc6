"""Seeded sampling shared by the Gaussian-integral Monte Carlo and the
sphere-maximum estimators.

Sphere maxima use scrambled Sobol points pushed through the inverse normal
CDF plus a local polish, and are reported as lower bounds of the true
maximum.  Gaussian batches come from the counter-based Philox generator,
keyed per chunk, so results are identical for a fixed seed no matter how
the chunks are distributed over workers.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtri
from scipy.stats import qmc

DEFAULT_SPHERE_SAMPLES = 1 << 14
MC_CHUNK = 1 << 16


def worker_count() -> int:
    """Worker cap from FISCHER_LAB_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("FISCHER_LAB_THREADS", "1")))
    except ValueError:
        return 1


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


def _sphere_points(d: int, n: int, seed: int) -> np.ndarray:
    """n quasi-random points on the unit sphere of C^d (= S^{2d-1})."""
    sob = qmc.Sobol(d=2 * d, scramble=True, seed=int(seed) & (2 ** 64 - 1))
    u = sob.random(n)
    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    g = g / norms[:, None]
    return g[:, :d] + 1j * g[:, d:]


def sphere_max(p, samples: int = DEFAULT_SPHERE_SAMPLES, seed: int = 0) -> float:
    """Lower estimate of max |p| over the unit sphere of C^d.

    Exact for d = 1 and homogeneous p (the modulus is constant on the
    circle).  Otherwise the best sampled point is polished by maximizing
    the scale-invariant ratio |p(w)|^2 / |w|^(2 deg p).
    """
    if p.is_zero:
        return 0.0
    if p.dim == 1 and p.is_homogeneous():
        return abs(next(iter(p.terms.values())))
    pf = p.to_float()
    m = pf.degree
    pts = _sphere_points(p.dim, samples, seed)
    vals = np.abs(poly_eval_array(pf, pts))
    best_idx = int(np.argmax(vals))
    best = float(vals[best_idx])
    d = p.dim
    w0 = np.concatenate([pts[best_idx].real, pts[best_idx].imag])

    def neg_ratio(w):
        nrm = np.linalg.norm(w)
        if nrm < 1e-8:
            return 0.0
        z = (w[:d] + 1j * w[d:]).reshape(1, d)
        val = abs(poly_eval_array(pf, z)[0])
        return -(val / nrm ** m) ** 2 if m else -(val ** 2)

    res = minimize(neg_ratio, w0, method="BFGS",
                   options={"maxiter": 60, "gtol": 1e-12})
    w = res.x
    nrm = np.linalg.norm(w)
    if nrm > 1e-8:
        z = ((w[:d] + 1j * w[d:]) / nrm).reshape(1, d)
        best = max(best, float(abs(poly_eval_array(pf, z)[0])))
    return best


def gaussian_point_chunks(d: int, total: int, seed: int, chunk: int = MC_CHUNK):
    """Yield (n_i, d) complex arrays with density exp(-|x|^2-|y|^2)/pi^d.

    Real and imaginary parts are independent normals with variance 1/2.
    Each chunk uses Philox keyed by (seed, chunk index), so the stream is
    reproducible and worker-split-invariant.
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
