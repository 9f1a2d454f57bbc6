"""Seeded inputs and fixed job lists for the benchmark workloads.

Every workload is a list of job slots whose shapes (verb, dimension,
degree, window, truncation) are fixed; the seed only draws coefficients
and verify seeds.  Job cost therefore depends on the seed through bit
growth and conditioning alone, which keeps run-to-run spread small while
the inputs still differ from seed to seed.  NOTES.md explains why each
workload exists and which layer it loads.

This module does not import fischerlab or numpy: input generation must
work in the set-up probe before anything else is timed.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("exact-algebra", "float-spectra", "taylor-streams")


@dataclass
class Job:
    """One `fischer-lab` call plus what its output check needs.

    Paths in ``argv``, ``inputs`` and ``outputs`` are relative to the run
    directory, so reports (which embed output paths) are identical from
    run to run.
    """

    name: str
    check: str
    argv: list
    inputs: dict
    outputs: list
    spec: dict = field(default_factory=dict)
    probe: str = ""     # for a known-defect probe job: the metric counting its failures


# ---------------------------------------------------------------------------
# coefficient and polynomial generators (plain JSON, the CLI file format)

def monomials(d, m):
    """Exponent tuples of degree m in d variables, graded-lex order."""
    if d == 1:
        return [(m,)]
    return [(a,) + rest for a in range(m, -1, -1) for rest in monomials(d - 1, m - a)]


def _gauss_int(rng, span=2):
    while True:
        re, im = rng.randint(-span, span), rng.randint(-span, span)
        if re or im:
            return f"{re}/1", f"{im}/1"


def _gauss_rat(rng, span=3, den=3):
    while True:
        re, im = rng.randint(-span, span), rng.randint(-span, span)
        if re or im:
            return f"{re}/{rng.randint(1, den)}", f"{im}/{rng.randint(1, den)}"


def _float_coeff(rng, lo=0.5, hi=1.5):
    """Complex float with modulus in [lo, hi] and a random phase."""
    r, t = rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi)
    return round(r * math.cos(t), 12), round(r * math.sin(t), 12)


def _poly(d, terms):
    return {"dim": d, "terms": [{"exp": list(a), "re": re, "im": im}
                                for a, (re, im) in terms]}


def _exact_divisor(rng, d, n_top):
    """k = 2 divisor with nonzero lower parts of degree 1 and 0."""
    top = monomials(d, 2)
    rng.shuffle(top)
    terms = [(a, _gauss_int(rng)) for a in top[:n_top]]
    linear = [0] * d
    linear[rng.randrange(d)] = 1
    terms.append((tuple(linear), _gauss_int(rng)))
    terms.append(((0,) * d, _gauss_int(rng)))
    return _poly(d, terms)


def _exact_dividend(rng, d, n, n_terms=6):
    """Degree-n dividend: two top-degree terms plus lower-degree ones."""
    top = monomials(d, n)
    rng.shuffle(top)
    low = [a for m in range(n) for a in monomials(d, m)]
    rng.shuffle(low)
    chosen = top[:2] + low[:n_terms - 2]
    return _poly(d, [(a, _gauss_rat(rng)) for a in chosen])


def _exact_quadratic(rng, d, n_terms):
    top = monomials(d, 2)
    rng.shuffle(top)
    return _poly(d, [(a, _gauss_int(rng)) for a in top[:n_terms]])


def _float_poly(rng, d, degrees):
    return _poly(d, [(a, _float_coeff(rng)) for m in degrees for a in monomials(d, m)])


# A generic quadratic with fitted exponents 0.82-0.93 on every window used.
# Random generic quadratics are not used: a few percent of them fit a
# 4-degree window above the provable ceiling k - 1 (see NOTES.md), which
# the ks-fit check rejects.
GENERIC_QUADRATIC = {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
                     (0, 1, 1): 0.5 + 0.3j}
SPHERE_QUADRATIC = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
# A random generic quadratic (all six coefficients of modulus 0.5-1.5,
# random phase) that the program flags: its m 24-27 window fits tau
# 1.0686, above the flag threshold 1.05.  Kept as a known-defect probe.
TRIPPING_QUADRATIC = _poly(3, [
    ((2, 0, 0), (0.656884285987, -0.382856551242)),
    ((1, 1, 0), (0.410317029051, -1.185709953029)),
    ((1, 0, 1), (-0.539924242883, 0.094322976574)),
    ((0, 2, 0), (0.250390929418, -0.483525322068)),
    ((0, 1, 1), (0.508809740752, 0.228026094627)),
    ((0, 0, 2), (0.815295743342, 0.577637784758))])


def _relabel(rng, terms):
    """Seeded unitary change of variables (permutation, per-variable phases)
    and scale; spectra scale by the factor and fitted exponents do not move."""
    perm = rng.sample(range(3), 3)
    phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)]
    scale = rng.uniform(0.5, 1.5)
    out = []
    for alpha, c in terms.items():
        beta = tuple(alpha[perm[i]] for i in range(3))
        v = complex(c) * scale * cmath.exp(1j * sum(b * t for b, t in zip(beta, phases)))
        out.append((beta, (round(v.real, 12), round(v.imag, 12))))
    return _poly(3, out)


def _quadratics(rng):
    """The three dimension-3 quadratic classes of the spectral workload."""
    # (a z1 + b z2)^2 + c z3^2: degenerate in the z1, z2 plane, exponent ~0
    a, b, c = (complex(*_float_coeff(rng)) for _ in range(3))
    square = _poly(3, [(e, (round(v.real, 12), round(v.imag, 12))) for e, v in
                       (((2, 0, 0), a * a), ((1, 1, 0), 2 * a * b), ((0, 2, 0), b * b),
                        ((0, 0, 2), c))])
    return {"generic": _relabel(rng, GENERIC_QUADRATIC), "square": square,
            "sphere": _relabel(rng, SPHERE_QUADRATIC)}


def _exp_stream(inner, max_degree):
    return {"kind": "exp_poly", "max_degree": max_degree, "inner": inner}


def _linear_form(rng, d, exact):
    """a.z; exact coefficients are Gaussian integers of modulus 1 or sqrt 2,
    which bounds how much exact stream cost varies with the seed."""
    if exact:
        return _poly(d, [(tuple(int(i == j) for i in range(d)), _gauss_int(rng, 1))
                         for j in range(d)])
    return _poly(d, [(tuple(int(i == j) for i in range(d)), _float_coeff(rng, 0.5, 1.0))
                     for j in range(d)])


# ---------------------------------------------------------------------------
# job constructors

def _decompose_exact(rng, i, d, n):
    p, f = _exact_divisor(rng, d, 3), _exact_dividend(rng, d, n)
    tag = f"j{i:03d}"
    return Job(f"decompose-exact-d{d}-n{n}", "decompose_exact",
               ["decompose", "--p", f"{tag}.p.json", "--f", f"{tag}.f.json",
                "--backend", "exact", "--series-check", "--out", f"{tag}.out"],
               {f"{tag}.p.json": p, f"{tag}.f.json": f},
               [f"{tag}.out.q.json", f"{tag}.out.r.json", f"{tag}.out.diagnostics.json"],
               {"p": p, "f": f})


def _decompose_float_poly(rng, i, d, n):
    p = _float_poly(rng, d, [0, 1, 2])
    f = _float_poly(rng, d, range(n + 1))
    tag = f"j{i:03d}"
    return Job(f"decompose-float-d{d}-n{n}", "decompose_float",
               ["decompose", "--p", f"{tag}.p.json", "--f", f"{tag}.f.json",
                "--backend", "float", "--out", f"{tag}.out"],
               {f"{tag}.p.json": p, f"{tag}.f.json": f},
               [f"{tag}.out.q.json", f"{tag}.out.r.json", f"{tag}.out.diagnostics.json"],
               {"p": p, "f": f})


def _decompose_stream(rng, i, mcap):
    shift = rng.uniform(0.5, 1.5)
    p = _poly(2, [((2, 0), (1.0, 0.0)), ((0, 2), (1.0, 0.0)), ((0, 0), (-shift, 0.0))])
    inner = _linear_form(rng, 2, exact=False)
    tag = f"j{i:03d}"
    return Job(f"decompose-stream-mcap{mcap}", "decompose_stream",
               ["decompose", "--p", f"{tag}.p.json", "--f", f"{tag}.f.json",
                "--mcap", str(mcap), "--out", f"{tag}.out"],
               {f"{tag}.p.json": p, f"{tag}.f.json": _exp_stream(inner, 200)},
               [f"{tag}.out.q.json", f"{tag}.out.r.json", f"{tag}.out.diagnostics.json"],
               {"p": p, "inner": inner, "mcap": mcap})


def _kernel(rng, i, m):
    pk = _exact_quadratic(rng, 3, 3)
    tag = f"j{i:03d}"
    return Job(f"kernel-d3-m{m}", "kernel",
               ["kernel", "--p", f"{tag}.pk.json", "--m", str(m), "--out", f"{tag}.out.json"],
               {f"{tag}.pk.json": pk}, [f"{tag}.out.json"], {"pk": pk, "m": m})


def _verify(rng, i, cases, samples):
    tag = f"j{i:03d}"
    return Job(f"verify-c{cases}", "verify",
               ["verify", "--seed", str(rng.randrange(1 << 30)), "--cases", str(cases),
                "--mc-samples", str(samples), "--out", f"{tag}.out.json"],
               {}, [f"{tag}.out.json"])


def _ks_fit(i, name, pk, m_min, m_max):
    tag = f"j{i:03d}"
    return Job(f"ks-fit-{name}-m{m_min}", "ks_fit",
               ["ks-fit", "--p", f"{tag}.pk.json", "--m-min", str(m_min),
                "--m-max", str(m_max), "--out", f"{tag}.out"],
               {f"{tag}.pk.json": pk}, [f"{tag}.out.csv", f"{tag}.out.json"],
               {"pk": pk, "m_min": m_min, "m_max": m_max})


def _order(rng, i, lo, hi, exact):
    inner = _linear_form(rng, 2, exact)
    kind = "exact" if exact else "float"
    tag = f"j{i:03d}"
    return Job(f"order-{kind}-{lo}-{hi}", "order",
               ["order", "--f", f"{tag}.f.json", "--min-degree", str(lo),
                "--max-degree", str(hi), "--out", f"{tag}.out.json"],
               {f"{tag}.f.json": _exp_stream(inner, hi)}, [f"{tag}.out.json"])


def _blambda(rng, i, mcap, lam, exact):
    inner = _linear_form(rng, 2, exact)
    kind = "exact" if exact else "float"
    tag = f"j{i:03d}"
    return Job(f"blambda-{kind}-{lam}-mcap{mcap}", "blambda",
               ["blambda", "--f", f"{tag}.f.json", "--lam", lam, "--mcap", str(mcap),
                "--out", f"{tag}.out.json"],
               {f"{tag}.f.json": _exp_stream(inner, 200)}, [f"{tag}.out.json"],
               {"inner": inner, "mcap": mcap, "lam": lam})


# ---------------------------------------------------------------------------
# workloads: (constructor, arguments) slots, full size and smoke size

LAMBDAS = ("inv-log", "inv-linear", "power:0.5")

_SLOTS = {
    "exact-algebra": {
        # counts put the median job inside the eight d2-n6 decompositions
        # and the 90th percentile inside the three d2-n8 ones, so neither
        # quantile sits on the gap between two job sizes
        "full": ([("decompose_exact", 2, n) for n in (4, 5) for _ in range(3)]
                 + [("decompose_exact", 2, 6) for _ in range(8)]
                 + [("decompose_exact", 2, n) for n in (7, 8) for _ in range(3)]
                 + [("decompose_exact", 3, 3), ("decompose_exact", 3, 4),
                    ("decompose_exact", 3, 4)]
                 + [("decompose_exact", 3, n) for n in (5, 6) for _ in range(2)]
                 + [("kernel", m) for m in (3, 4, 5, 6, 7, 8)]
                 + [("verify", 40, 20000) for _ in range(3)]),
        "smoke": [("decompose_exact", 2, 4), ("decompose_exact", 3, 3),
                  ("kernel", 4), ("verify", 4, 2000)],
    },
    "float-spectra": {
        # 37 jobs: the median lands mid-way in the six ~30 ms jobs (ks-fit
        # at m 12, decompose at degree 7), not at their edge
        "full": ([("ks_fit", q, m, m + 3) for q in ("generic", "square", "sphere")
                  for m in (8, 12, 16, 20, 24, 28)]
                 + [("ks_fit", "generic", 40, 43)]
                 + [("decompose_float", 3, n) for n in (3, 4, 5, 6, 7, 8) for _ in range(3)]),
        "smoke": [("ks_fit", q, 6, 9) for q in ("generic", "square", "sphere")]
                 + [("decompose_float", 3, 4)],
    },
    "taylor-streams": {
        # the two order jobs (sphere sampling, ~1.5 s each) are the top 2
        # of 35, so the 90th percentile lands among the ~350 ms jobs (mcap
        # 30-32 decompositions, mcap-80 exact blambda), not on one
        # numpy-bound job whose time swings 15% from pass to pass
        "full": ([("decompose_stream", mcap)
                  for mcap in (24, 24, 24, 26, 26, 28, 28, 28, 30, 30, 32, 32)]
                 + [("order", lo, lo + 19, True) for lo in (20, 81)]
                 + [("blambda", mcap, lam, True) for mcap in (60, 80) for lam in LAMBDAS]
                 + [("blambda", mcap, lam, False) for mcap in (40, 50, 60, 70, 80)
                    for lam in LAMBDAS]),
        "smoke": [("decompose_stream", 12), ("order", 20, 39, True),
                  ("blambda", 40, "inv-log", True), ("blambda", 40, "inv-linear", False)],
    },
}

# Known defects, run as probes: once per run, untimed, untraced and outside
# the timed list (which must have no failing operation), each failure
# counted under the probe's metric.  NOTES.md says more.
#  - Float streams fail from degree ~90-100 on (component coefficients of
#    exp(a.z) with |a_i| >= 0.5 square to below the smallest double and
#    log() raises), so timed float stream jobs stay at degree <= 80.
#  - ks-fit flags tau-above-provable-ceiling on some generic quadratics,
#    so the timed generic class is one unflagged quadratic, relabelled.
_PROBES = {
    "entire.float_stream_probe.fail_frac": [("order", 100, 139, False),
                                            ("blambda", 140, "inv-log", False)],
    "spectral.ks_fit_probe.fail_frac": [("ks_fit", "tripping", 24, 27)],
}


_CONSTRUCTORS = {
    "decompose_exact": _decompose_exact,
    "decompose_float": _decompose_float_poly,
    "decompose_stream": _decompose_stream,
    "kernel": _kernel,
    "verify": _verify,
    "order": _order,
    "blambda": _blambda,
}


def _build(rng, i, slot, quads):
    kind, *args = slot
    if kind == "ks_fit":
        name, lo, hi = args
        return _ks_fit(i, name, quads[name], lo, hi)
    return _CONSTRUCTORS[kind](rng, i, *args)


def make_jobs(workload, seed, smoke=False):
    """(timed jobs, known-defect probe jobs) for one workload and seed.

    Job order is shuffled by the seed; the multiset of slot shapes is the
    same for every seed.
    """
    if workload not in _SLOTS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    quads = {**_quadratics(rng), "tripping": TRIPPING_QUADRATIC}
    slots = list(_SLOTS[workload]["smoke" if smoke else "full"])
    rng.shuffle(slots)
    jobs = [_build(rng, i, slot, quads) for i, slot in enumerate(slots)]
    probe = []
    for metric, probe_slots in _PROBES.items():
        for slot in probe_slots:
            probe.append(_build(rng, len(jobs) + len(probe), slot, quads))
            probe[-1].probe = metric
    return jobs, probe
