"""fischer-lab command line front end.

Verbs: inner, decompose, spectrum, ks-fit, kernel, classify2x2, order,
blambda, verify.  Each verb maps its flags to one library call:
``decompose`` lets the input pick the route (``fischer.decompose_direct``,
long division in d = 1); ``--series-check`` also runs the series.
Reports are JSON envelopes (CSV for spectral sweeps), and every file is
written atomically by ``polyalg.write_atomic``; identical command plus
seed gives byte-identical output.  Exit codes: 0 ok, 1 verify
violations, 2 parse errors, 3 precondition violations, 4 numerical
failures, 5 internal errors (any other exception; a bug, reported with
its traceback).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import random
import sys
import traceback
from fractions import Fraction

from . import __version__, apolar, entire, fischer, spectral
from .errors import (ConditioningError, DimensionMismatchError, FormatError,
                     InvalidInputError, NumericalError)
from .fields import EXACT, GaussianRational, to_exact
from .polyalg import (Poly, _rational_strings, enumerate_monomials, load_json, load_poly,
                      poly_from_dict, poly_to_dict, save_poly, write_atomic)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4
EXIT_INTERNAL = 5


def _jsonable(value):
    """Make module outputs JSON-ready with a deterministic field order."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # order can report inf
    return value


def emit_report(verb: str, payload, path=None) -> None:
    """Write (or print) the versioned JSON envelope, atomically."""
    envelope = {"tool": "fischer-lab", "version": __version__,
                "verb": verb, "payload": _jsonable(payload)}
    text = json.dumps(envelope, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        write_atomic(path, text)


def _on_backend(p: Poly, path, backend) -> Poly:
    if backend == "float":
        return p.to_float()
    if backend == "exact" and p.field != EXACT:
        raise FormatError(f"{path}: float coefficients cannot run on the exact backend")
    return p


def _load_poly_arg(path, backend=None) -> Poly:
    return _on_backend(load_poly(path), path, backend)


def _load_function_arg(path, backend=None):
    """A polynomial file or a stream file, whichever parses; a "poly" stream
    is its polynomial, and polynomials follow _load_poly_arg's backend rule.
    An exp stream, whose field is its constant term's, follows the rule's
    exact half; a float backend reaches it through the divisor's promotion."""
    obj = load_json(path)
    if isinstance(obj, dict) and "kind" in obj:
        f = entire.stream_from_dict(obj)  # checks the kind and max_degree
        if f.poly_degree is None:
            if backend == "exact":
                _on_backend(f.component(0), path, backend)
            return f
    return _on_backend(poly_from_dict(obj), path, backend)


def _load_stream_arg(path) -> entire.TaylorStream:
    """_load_function_arg's result as a Taylor stream."""
    f = _load_function_arg(path)
    return entire.TaylorStream.from_poly(f) if isinstance(f, Poly) else f


def _parse_scalar(text: str):
    """Rational ('3/4') or complex ('1+2j') literal."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        value = complex(text)
    except ValueError as exc:
        raise FormatError(f"cannot parse scalar {text!r}") from exc
    if not cmath.isfinite(value):
        raise FormatError(f"scalar {text!r} is not finite")
    return value


# ---------------------------------------------------------------------------
# verb handlers

def _cmd_inner(args) -> int:
    p = _load_poly_arg(args.p, args.backend)
    q = _load_poly_arg(args.q, args.backend)
    val = apolar.inner_product(p, q)
    payload = {
        "inner_product": _scalar_parts(val),
        "norm_sq_p": _scalar_parts(apolar.norm_sq(p)),
        "norm_sq_q": _scalar_parts(apolar.norm_sq(q)),
    }
    emit_report("inner", payload, args.out)
    return EXIT_OK


def _scalar_parts(v):
    if isinstance(v, (GaussianRational, Fraction)):
        re, im = _rational_strings(to_exact(v))
        return {"re": re, "im": im}
    v = complex(v)
    return {"re": v.real, "im": v.imag}


def _cmd_decompose(args) -> int:
    p = _load_poly_arg(args.p, args.backend)
    f = _load_function_arg(args.f, args.backend)
    if args.series_check:
        res, other = fischer._direct_and_series(p, f)
        res.diagnostics["series_check_agrees"] = (
            other.q == res.q if res.q.field == EXACT
            else apolar.norm(other.q - res.q) <= 1e-9 * max(1.0, apolar.norm(res.q)))
    else:
        res = fischer.decompose_direct(p, f, max_degree=args.mcap)
    prefix = args.out or "decomposition"
    save_poly(res.q, f"{prefix}.q.json")
    save_poly(res.r, f"{prefix}.r.json")
    payload = {
        "method": res.method,
        "annihilator_residual": res.annihilator_residual,
        "q_file": f"{prefix}.q.json",
        "r_file": f"{prefix}.r.json",
        "diagnostics": res.diagnostics,
    }
    emit_report("decompose", payload, f"{prefix}.diagnostics.json")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    pk = _load_poly_arg(args.p)
    m_min, m_max = args.m_min, args.m_max
    if m_max < m_min:
        raise InvalidInputError(f"need m_max >= m_min, got window [{m_min}, {m_max}]")
    if args.verb == "ks-fit" or m_max - m_min + 1 >= 4:
        report = spectral.ks_exponent_fit(pk, (m_min, m_max), dim_cap=args.dim_cap)
    else:
        degrees = list(range(m_min, m_max + 1))
        lo, hi = spectral.sweep_sigma(pk, degrees, dim_cap=args.dim_cap)
        report = spectral.SpectralReport(degrees, lo, hi, float("nan"),
                                         float("nan"), (m_min, m_max),
                                         float("nan"), ["no-fit"])
    out = args.out or "spectrum"
    spectral.save_report(report, f"{out}.csv", f"{out}.json")
    return EXIT_OK


def _cmd_kernel(args) -> int:
    pk = _load_poly_arg(args.p, args.backend)
    basis = spectral.kernel_basis(pk, args.m)
    payload = {"dimension": len(basis),
               "basis": [poly_to_dict(b) for b in basis]}
    emit_report("kernel", payload, args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    a, b, c = (_parse_scalar(s) for s in (args.a, args.b, args.c))
    cls = spectral.classify_quadratic_2d(a, b, c)
    payload = {
        "degenerate": cls.degenerate,
        "square_root": None if cls.square_root is None else
            [_scalar_parts(v) for v in cls.square_root],
        "witness_direction": None if cls.witness_direction is None else
            [_scalar_parts(v) for v in cls.witness_direction],
    }
    emit_report("classify2x2", payload, args.out)
    return EXIT_OK


def _cmd_order(args) -> int:
    f = _load_stream_arg(args.f)
    hi = args.max_degree
    if hi is None:
        if f.poly_degree is not None:
            hi = 200  # components beyond the degree are known zeros
        elif math.isinf(f.max_degree):
            raise InvalidInputError("--max-degree required for unbounded streams")
        else:
            hi = int(f.max_degree)
    est = entire.order_estimate(f, range(args.min_degree, hi + 1))
    payload = {"order": est.rho, "flag": est.flag,
               "degrees": [args.min_degree, hi]}
    emit_report("order", payload, args.out)
    return EXIT_OK


def _cmd_blambda(args) -> int:
    f = _load_stream_arg(args.f)
    lam = entire.lambda_from_spec(args.lam)
    rep = entire.blambda_norm(f, lam, args.mcap)
    payload = {"norm": rep.norm, "argmax_m": rep.argmax_m,
               "membership_trend": rep.membership_trend, "lambda": args.lam}
    emit_report("blambda", payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: the randomized identity suite

def _random_gaussian(rng) -> GaussianRational:
    """Real part, then imaginary part: each a/b, a in [-4, 4], b in [1, 3]."""
    return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                            Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def _random_exact_poly(rng, d, max_degree, terms=4):
    out = {}
    for _ in range(rng.randint(1, terms)):
        alpha = tuple(rng.randint(0, max_degree) for _ in range(d))
        if sum(alpha) <= max_degree:
            out[alpha] = _random_gaussian(rng)
    return Poly(d, out, field=EXACT)


def _random_exact_homogeneous(rng, d, m):
    out = {}
    for alpha in enumerate_monomials(d, m):
        if rng.random() < 0.6:
            out[alpha] = _random_gaussian(rng)
    poly = Poly(d, out, field=EXACT)
    if poly.is_zero:
        poly = Poly.monomial(d, enumerate_monomials(d, m)[0], 1)
    return poly


def _cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    cases = args.cases
    if cases < 0:
        raise InvalidInputError(f"--cases must be >= 0, got {cases}")
    names = ["adjoint", "reznick", "bombieri", "pythagoras", "beauzamy",
             "shapiro-pointwise"]
    ran = {n: 0 for n in names}
    failed = {n: 0 for n in names}

    def check(name, ok):
        ran[name] += 1
        if not ok:
            failed[name] += 1

    def run_battery(pk, fm, q, fpoly, g):
        d = pk.dim
        k, m = int(pk.degree), int(fm.degree) if not fm.is_zero else 0
        check("adjoint", apolar.adjoint_residual(q, fpoly, g) == 0)
        check("reznick", apolar.reznick_residual(pk, fm) == 0)
        check("bombieri",
              apolar.norm_sq(pk * fm) >= apolar.norm_sq(pk) * apolar.norm_sq(fm))
        if m >= k:
            res = fischer.project_homogeneous(pk, fm)
            check("pythagoras",
                  apolar.norm_sq(fm) == apolar.norm_sq(pk * res.q) + apolar.norm_sq(res.r)
                  and apolar.inner_product(pk * res.q, res.r) == 0
                  and res.annihilator_residual == 0)
        fmf, pkf = fm.to_float(), pk.to_float()
        bound = apolar.beauzamy_bound(pkf, m) * apolar.norm(fmf)
        check("beauzamy", apolar.norm(pkf * fmf) <= bound * (1 + 1e-9))
        z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
        check("shapiro-pointwise",
              apolar.shapiro_pointwise_residual(fmf, z)
              <= 1e-9 * max(1.0, float(apolar.norm_sq(fm))))

    if args.p or args.f:
        # run the battery on the supplied polynomials instead of random data
        if not (args.p and args.f):
            raise InvalidInputError("verify needs both --p and --f, or neither")
        p = _load_poly_arg(args.p, "exact")
        if p.is_zero:
            raise InvalidInputError("--p must be a nonzero polynomial")
        fpoly = _load_poly_arg(args.f, "exact")
        pk = p.homogeneous_component(int(p.degree))
        components = list(fpoly.homogeneous_components().values()) or [fpoly]
        for fm in components:
            run_battery(pk, fm, p, fpoly, fm)
        cases = len(components)
    else:
        for _ in range(cases):
            d = rng.randint(1, 3)
            k = rng.randint(1, 3)
            m = rng.randint(0, 5)
            q = _random_exact_poly(rng, d, 3)
            fpoly = _random_exact_poly(rng, d, 5)
            g = _random_exact_poly(rng, d, 3)
            pk = _random_exact_homogeneous(rng, d, k)
            fm = _random_exact_homogeneous(rng, d, m)
            run_battery(pk, fm, q, fpoly, g)
    mc_p = _random_exact_poly(rng, 2, 2)
    mc_q = _random_exact_poly(rng, 2, 2)
    est = apolar.bargmann_mc_estimate(mc_p, mc_q, args.mc_samples, args.seed)
    exact_val = complex(apolar.inner_product(mc_p, mc_q))
    mc_ok = abs(est.estimate - exact_val) <= 4 * est.stderr + 1e-12
    table = [{"check": n, "cases": ran[n], "failures": failed[n],
              "pass": failed[n] == 0} for n in names]
    table.append({"check": "bargmann-mc", "cases": 1,
                  "failures": 0 if mc_ok else 1, "pass": mc_ok})
    violations = sum(row["failures"] for row in table)
    payload = {"seed": args.seed, "cases": cases, "violations": violations,
               "checks": table}
    emit_report("verify", payload, args.out)
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fischer-lab",
        description="Apolar inner products, Fischer decompositions, and "
                    "multiplication-operator spectra for polynomials and "
                    "entire-function Taylor streams.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("inner", help="apolar inner product and norms")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--backend", choices=["exact", "float"])

    sp = sub.add_parser("decompose", help="Fischer decomposition f = P q + r")
    sp.add_argument("--p", required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--backend", choices=["exact", "float"])
    sp.add_argument("--mcap", type=int)
    sp.add_argument("--series-check", action="store_true")

    for name, help_text in (("spectrum", "singular value sweep"),
                            ("ks-fit", "growth-exponent fit of sigma_min")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--p", required=True)
        sp.add_argument("--m-min", type=int, default=8)
        sp.add_argument("--m-max", type=int, default=40)
        sp.add_argument("--dim-cap", type=int, default=spectral.DEFAULT_DIM_CAP)

    sp = sub.add_parser("kernel", help="kernel basis of pk(D) on one slice")
    sp.add_argument("--p", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--backend", choices=["exact", "float"])

    sp = sub.add_parser("classify2x2", help="classify a z1^2 + b z1 z2 + c z2^2")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("c")

    sp = sub.add_parser("order", help="growth order from component decay")
    sp.add_argument("--f", required=True)
    sp.add_argument("--min-degree", type=int, default=10)
    sp.add_argument("--max-degree", type=int)

    sp = sub.add_parser("blambda", help="weighted component sup norm")
    sp.add_argument("--f", required=True)
    sp.add_argument("--lam", required=True,
                    help="'inv-log', 'inv-linear', or 'power:<p>'")
    sp.add_argument("--mcap", type=int, default=100)

    sp = sub.add_parser("verify", help="identity suite on random or given inputs")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cases", type=int, default=200)
    sp.add_argument("--mc-samples", type=int, default=200_000)
    sp.add_argument("--p", help="optional divisor polynomial to check instead of random data")
    sp.add_argument("--f", help="optional dividend polynomial, used with --p")

    prefixes = {"decompose": "decomposition", "spectrum": "spectrum", "ks-fit": "spectrum"}
    for name, sp in sub.choices.items():  # the last flag of every verb
        default = prefixes.get(name)
        sp.add_argument("--out", type=lambda text: text or None,  # "" is "not given"
                        help=default and f"output prefix (default '{default}')")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parsing leaves it unchanged,
    and in-process callers run main many times."""
    return build_parser()


def _handlers() -> dict:
    """verb -> handler, built per call so that patched handlers take effect."""
    return {"inner": _cmd_inner, "decompose": _cmd_decompose, "spectrum": _cmd_spectrum,
            "ks-fit": _cmd_spectrum, "kernel": _cmd_kernel, "classify2x2": _cmd_classify,
            "order": _cmd_order, "blambda": _cmd_blambda, "verify": _cmd_verify}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _handlers()[args.verb](args)
    except (FormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"fischer-lab: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidInputError, DimensionMismatchError) as exc:
        print(f"fischer-lab: invalid input: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ConditioningError, NumericalError) as exc:
        print(f"fischer-lab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # noqa: BLE001 -- last resort: never exit 1 on a bug
        traceback.print_exc()
        print(f"fischer-lab: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
