"""Output checks, computed without fischerlab.

Every check reads the job's output files back and recomputes what it
certifies with its own small polynomial arithmetic, so a defect in the
program's polynomial layer cannot hide itself, and checking never shows
up in the traced per-layer numbers.  A check returns None when the
output is right and a one-line reason when it is wrong.

Float tolerances (relative to the apolar norm of the input):

* ``FLOAT_TOL`` for reconstruction ``f - (p q + r)`` and the annihilator
  residual ``pk*(D) r`` of float decompositions;
* ``SPECTRAL_RTOL`` on the Bombieri floor and the Beauzamy bound;
* ``ORDER_TOL`` on the growth order of exp of a linear form, which is 1
  (the program's three-term fit gives 0.990-0.996 on degrees 20-100);
* ``BLAMBDA_RTOL`` on the weighted sup norm against its closed form.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

FLOAT_TOL = 1e-9
SPECTRAL_RTOL = 1e-9
ORDER_TOL = 0.05
BLAMBDA_RTOL = 1e-9


class GQ:
    """Gaussian rational, just enough arithmetic for the checks."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return GQ(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        if isinstance(o, int):
            return GQ(self.re * o, self.im * o)
        return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def conjugate(self):
        return GQ(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __abs__(self):
        return math.hypot(self.re, self.im)


# ---------------------------------------------------------------------------
# sparse polynomials as {exponent tuple: coefficient}, zero terms dropped

def parse_poly(obj):
    """(dim, terms) from the CLI's JSON polynomial format."""
    terms = {}
    for t in obj["terms"]:
        re, im = t["re"], t["im"]
        c = GQ(Fraction(re), Fraction(im)) if isinstance(re, str) else complex(re, im)
        if c:
            terms[tuple(t["exp"])] = c
    return obj["dim"], terms


def read_poly(path):
    with open(path) as fh:
        return parse_poly(json.load(fh))


def read_payload(path):
    with open(path) as fh:
        obj = json.load(fh)
    if obj.get("tool") != "fischer-lab":
        raise ValueError(f"{path}: not a fischer-lab report")
    return obj["payload"]


def _put(acc, key, value):
    total = acc[key] + value if key in acc else value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        _put(out, e, c if sign > 0 else c * -1)
    return out


def mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _put(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def diff_op(q, f):
    """q(D) f: each z^alpha of q acts as the derivative d^alpha."""
    out = {}
    for ea, ca in q.items():
        for eb, cb in f.items():
            if all(b >= a for a, b in zip(ea, eb)):
                fall = math.prod(math.perm(b, a) for a, b in zip(ea, eb))
                _put(out, tuple(b - a for a, b in zip(ea, eb)), ca * cb * fall)
    return out


def star(p):
    return {e: c.conjugate() for e, c in p.items()}


def homogeneous(p, m):
    return {e: c for e, c in p.items() if sum(e) == m}


def degree(p):
    return max((sum(e) for e in p), default=-1)


def norm(p):
    """Apolar norm sqrt(sum alpha! |c_alpha|^2), in floats."""
    return math.sqrt(sum(math.prod(math.factorial(a) for a in e) * abs(c) ** 2
                         for e, c in p.items()))


def exp_components(inner, dim, top):
    """Float components f_0..f_top of exp(inner), by m f_m = sum_j j g_j f_(m-j)."""
    parts = {j: homogeneous(inner, j) for j in range(1, degree(inner) + 1)}
    comps = [{(0,) * dim: 1 + 0j}]
    for m in range(1, top + 1):
        acc = {}
        for j, gj in parts.items():
            if gj and j <= m:
                acc = add(acc, {e: c * j for e, c in mul(gj, comps[m - j]).items()})
        comps.append({e: c * (1.0 / m) for e, c in acc.items()})
    return comps


# ---------------------------------------------------------------------------
# one check per job kind

def check_decompose_exact(job):
    _, p = parse_poly(job.spec["p"])
    _, f = parse_poly(job.spec["f"])
    _, q = read_poly(job.outputs[0])
    _, r = read_poly(job.outputs[1])
    payload = read_payload(job.outputs[2])
    pk = homogeneous(p, degree(p))
    if add(mul(p, q), r) != f:
        return "f != p*q + r"
    if diff_op(star(pk), r):
        return "pk*(D) r != 0"
    if payload["diagnostics"].get("series_check_agrees") is not True:
        return "series_check_agrees is not true"
    if payload["annihilator_residual"] != 0:
        return "reported annihilator residual is not 0"
    return None


def _float_residuals(p, f, pq, r):
    """Relative residuals of f = pq + r and pk*(D) r = 0."""
    pk = homogeneous(p, degree(p))
    scale = norm(f)
    recon = norm(add(f, add(pq, r), sign=-1)) / scale
    annihilator = norm(diff_op(star(pk), r)) / scale
    return recon, annihilator


def check_decompose_float(job):
    _, p = parse_poly(job.spec["p"])
    _, f = parse_poly(job.spec["f"])
    _, q = read_poly(job.outputs[0])
    _, r = read_poly(job.outputs[1])
    recon, annihilator = _float_residuals(p, f, mul(p, q), r)
    if not (recon <= FLOAT_TOL and annihilator <= FLOAT_TOL):
        return f"float residuals too large: recon {recon:.3e}, pk*(D) r {annihilator:.3e}"
    return None


def check_decompose_stream(job):
    """Truncated split of exp(inner): q and r are read up to mcap - k."""
    dim, p = parse_poly(job.spec["p"])
    _, inner = parse_poly(job.spec["inner"])
    top = job.spec["mcap"] - degree(p)
    _, q = read_poly(job.outputs[0])
    _, r = read_poly(job.outputs[1])
    if degree(q) > top or degree(r) > top:
        return f"q or r exceeds the truncation degree {top}"
    f = {}
    for comp in exp_components(inner, dim, top):
        f = add(f, comp)
    pq = {e: c for e, c in mul(p, q).items() if sum(e) <= top}
    recon, annihilator = _float_residuals(p, f, pq, r)
    if not (recon <= FLOAT_TOL and annihilator <= FLOAT_TOL):
        return f"stream residuals too large: recon {recon:.3e}, pk*(D) r {annihilator:.3e}"
    return None


def check_kernel(job):
    dim, pk = parse_poly(job.spec["pk"])
    m, k = job.spec["m"], degree(pk)
    basis = [parse_poly(b)[1] for b in read_payload(job.outputs[0])["basis"]]
    expected = math.comb(m + dim - 1, dim - 1) - (math.comb(m - k + dim - 1, dim - 1)
                                                 if m >= k else 0)
    if len(basis) != expected:
        return f"kernel dimension {len(basis)} != {expected}"
    if any(diff_op(pk, b) for b in basis):
        return "a basis vector is not annihilated by pk(D)"
    if _rank(basis) != len(basis):
        return "kernel basis is linearly dependent"
    return None


def _rank(polys):
    """Exact rank of a list of polynomials (fraction-free pivoting)."""
    rows = [dict(p) for p in polys]
    rank = 0
    while rows:
        row = rows.pop()
        if not row:
            continue
        pivot = min(row)
        rank += 1
        head = row[pivot]
        rows = [add({e: c * head for e, c in other.items()},
                    {e: c * other[pivot] for e, c in row.items()}, sign=-1)
                if pivot in other else other for other in rows]
    return rank


def _bombieri_and_beauzamy(pk, m):
    k = degree(pk)
    floor = norm(pk)
    weight = sum(abs(c) * math.sqrt(math.prod(math.factorial(a) for a in e))
                 for e, c in pk.items())
    return floor, (1 + m) ** (k / 2) * weight


def check_ks_fit(job):
    _, pk = parse_poly(job.spec["pk"])
    with open(job.outputs[0]) as fh:
        rows = list(csv.DictReader(fh))
    with open(job.outputs[1]) as fh:
        header = json.load(fh)
    degrees = [int(row["m"]) for row in rows]
    if degrees != list(range(job.spec["m_min"], job.spec["m_max"] + 1)):
        return f"sweep degrees {degrees} do not match the window"
    for row in rows:
        floor, ceiling = _bombieri_and_beauzamy(pk, int(row["m"]))
        lo, hi = float(row["sigma_min"]), float(row["sigma_max"])
        if lo < floor * (1 - SPECTRAL_RTOL):
            return f"sigma_min {lo!r} below the Bombieri floor {floor!r} at m={row['m']}"
        if hi > ceiling * (1 + SPECTRAL_RTOL):
            return f"sigma_max {hi!r} above the Beauzamy bound {ceiling!r} at m={row['m']}"
    if "tau-above-provable-ceiling" in header["flags"]:
        return f"fitted tau {header['fitted_tau']} flagged above the provable ceiling"
    return None


def check_order(job):
    payload = read_payload(job.outputs[0])
    rho = payload["order"]
    if payload["flag"] or not abs(rho - 1.0) <= ORDER_TOL:
        return f"order {rho!r} (flag {payload['flag']!r}) not within {ORDER_TOL} of 1"
    return None


def _lambda(spec, m):
    if spec == "inv-log":
        v = 1.0 / math.log(m + 2)
    elif spec == "inv-linear":
        v = 1.0 / (m + 1)
    else:
        v = (m + 1.0) ** -float(spec.split(":", 1)[1])
    return min(v, 1.0)


def check_blambda(job):
    """exp(a.z) has ||f_m|| = |a|^m / sqrt(m!), so the weighted sup norm
    has a closed form."""
    _, inner = parse_poly(job.spec["inner"])
    log_a = 0.5 * math.log(sum(abs(c) ** 2 for c in inner.values()))
    spec = job.spec["lam"]
    logs = [0.0] + [m * log_a - 0.5 * math.lgamma(m + 1) - 0.5 * m * math.log(m)
                    - m * math.log(_lambda(spec, m)) for m in range(1, job.spec["mcap"] + 1)]
    best = max(logs)
    payload = read_payload(job.outputs[0])
    if payload["argmax_m"] != logs.index(best):
        return f"argmax {payload['argmax_m']} != {logs.index(best)}"
    if not abs(payload["norm"] - math.exp(best)) <= BLAMBDA_RTOL * math.exp(best):
        return f"norm {payload['norm']!r} != {math.exp(best)!r}"
    return None


def check_verify(job):
    payload = read_payload(job.outputs[0])
    if payload["violations"] != 0:
        return f"verify reported {payload['violations']} violations"
    return None


CHECKS = {
    "decompose_exact": check_decompose_exact,
    "decompose_float": check_decompose_float,
    "decompose_stream": check_decompose_stream,
    "kernel": check_kernel,
    "ks_fit": check_ks_fit,
    "order": check_order,
    "blambda": check_blambda,
    "verify": check_verify,
}


def check(job, exit_code):
    """None if the job's exit code and outputs are right, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return CHECKS[job.check](job)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        # missing or malformed output files
        return f"unreadable output: {type(exc).__name__}: {exc}"
