import argparse
import json
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from fischerlab import apolar, cli, entire, fischer
from fischerlab.fields import FLOAT
from fischerlab.polyalg import (Poly, enumerate_monomials, load_poly, poly_to_dict, save_poly,
                                variables)


@pytest.fixture
def files(tmp_path):
    x, y = variables(2)
    paths = {}
    for name, poly in [("p", x * x - 1), ("f", x * x), ("pk", x * x + y * y),
                       ("z1", x)]:
        path = tmp_path / f"{name}.json"
        save_poly(poly, path)
        paths[name] = str(path)
    exp_stream = {"kind": "exp_poly", "max_degree": 220,
                  "inner": {"dim": 1, "terms": [
                      {"exp": [1], "re": "1/1", "im": "0/1"}]}}
    paths["expz"] = str(tmp_path / "expz.json")
    with open(paths["expz"], "w") as fh:
        json.dump(exp_stream, fh)
    paths["tmp"] = tmp_path
    return paths


def _read_envelope(path):
    with open(path) as fh:
        obj = json.load(fh)
    assert obj["tool"] == "fischer-lab"
    assert set(obj) == {"tool", "version", "verb", "payload"}
    return obj["payload"]


def test_decompose_cli_oracle(files):
    prefix = str(files["tmp"] / "dec")
    rc = cli.main(["decompose", "--p", files["p"], "--f", files["f"],
                   "--backend", "exact", "--out", prefix])
    assert rc == 0
    q = load_poly(f"{prefix}.q.json")
    r = load_poly(f"{prefix}.r.json")
    assert q == Poly.constant(2, 1)
    assert r == Poly.constant(2, 1)
    payload = _read_envelope(f"{prefix}.diagnostics.json")
    assert payload["method"] == "direct"
    assert payload["annihilator_residual"] == 0


def test_series_check_assembles_each_slice_once(files, monkeypatch):
    assembled = Counter()
    original = fischer.fischer_matrix

    def counting(pk, m):
        assembled[m] += 1
        return original(pk, m)

    monkeypatch.setattr(fischer, "fischer_matrix", counting)
    x, y = variables(2)
    p_path, f_path = files["tmp"] / "sc.p.json", files["tmp"] / "sc.f.json"
    save_poly(x * x + y * y - x * y + 1, p_path)
    save_poly(x ** 4 * y ** 2 + x ** 3 * y + y ** 4 - x, f_path)
    prefix = str(files["tmp"] / "sc")
    rc = cli.main(["decompose", "--p", str(p_path), "--f", str(f_path),
                   "--backend", "exact", "--series-check", "--out", prefix])
    assert rc == 0
    payload = _read_envelope(f"{prefix}.diagnostics.json")
    assert payload["diagnostics"]["series_check_agrees"] is True
    # the direct and series routes share one solver, so one assembly per slice
    assert len(assembled) >= 3 and max(assembled.values()) == 1


def test_decompose_series_check(files):
    prefix = str(files["tmp"] / "dec2")
    for backend in ([], ["--backend", "float"]):  # exact ==, float within 1e-9
        rc = cli.main(["decompose", "--p", files["p"], "--f", files["f"],
                       "--series-check", "--out", prefix, *backend])
        assert rc == 0
        payload = _read_envelope(f"{prefix}.diagnostics.json")
        assert payload["diagnostics"]["series_check_agrees"] is True


def test_series_check_on_degree_one_divisor(tmp_path):
    # deg p = 1 takes the direct route, so the cross-check runs there
    x, y = variables(2)
    save_poly(x + y - 1, tmp_path / "p.json")
    save_poly(x ** 3 * y + 2 * y - 1, tmp_path / "f.json")
    prefix = str(tmp_path / "dec")
    assert cli.main(["decompose", "--p", str(tmp_path / "p.json"), "--f",
                     str(tmp_path / "f.json"), "--series-check", "--out", prefix]) == 0
    payload = _read_envelope(f"{prefix}.diagnostics.json")
    assert payload["method"] == "direct"
    assert payload["diagnostics"]["series_check_agrees"] is True


@pytest.mark.parametrize("route", ["univariate", "entire", "direct-stream", "auto-stream"])
def test_series_check_refused_off_the_direct_route(files, tmp_path, route):
    # the cross-check needs input the series route can split: a polynomial,
    # and exact input when d = 1
    x, y = variables(2)
    z, = variables(1)
    save_poly((z * z - 1).to_float(), tmp_path / "pz.json")
    save_poly(z ** 3, tmp_path / "fz.json")
    save_poly(z * z - 1, tmp_path / "pz_exact.json")
    save_poly(x - 1, tmp_path / "p1.json")
    with open(tmp_path / "exp.json", "w") as fh:
        json.dump({"kind": "exp_poly", "max_degree": 8, "inner": poly_to_dict(x + y)}, fh)
    p, f = {
        # float input with a d = 1 divisor
        "univariate": ("pz.json", "fz.json"),
        # an entire-function stream against a quadratic p, under auto
        "entire": (files["p"], "exp.json"),
        # a d = 1 stream, which decompose_direct divides
        "direct-stream": ("pz_exact.json", files["expz"]),
        "auto-stream": ("p1.json", "exp.json"),
    }[route]
    rc = cli.main(["decompose", "--p", str(tmp_path / p), "--f", str(tmp_path / f),
                   "--series-check", "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_PRECONDITION
    assert not (tmp_path / "x.q.json").exists()


def test_series_check_on_exact_univariate_input_agrees(tmp_path):
    # exact d = 1 input: long division, checked against the series
    z, = variables(1)
    p, f = z ** 3 - 2 * z + 1, (z + 1) ** 9 - z * z
    save_poly(p, tmp_path / "p.json")
    save_poly(f, tmp_path / "f.json")
    outputs = {}
    for name, extra in (("auto", []), ("check", ["--series-check"])):
        prefix = str(tmp_path / name)
        assert cli.main(["decompose", "--p", str(tmp_path / "p.json"), "--f",
                         str(tmp_path / "f.json"), "--out", prefix, *extra]) == 0
        outputs[name] = [load_poly(f"{prefix}.{part}.json") for part in ("q", "r")]
    payload = _read_envelope(str(tmp_path / "check.diagnostics.json"))
    assert payload["method"] == "univariate"
    assert payload["diagnostics"] == {"series_check_agrees": True}
    assert outputs["check"] == outputs["auto"]
    q, r = outputs["auto"]
    assert p * q + r == f and r.degree < 3


@pytest.mark.parametrize("mcap", [9, None], ids=["auto-9", "auto-None"])
def test_decompose_degree_one_stream_goes_direct(tmp_path, mcap):
    x, y = variables(2)
    p = x + y - 1
    stream = {"kind": "exp_poly", "max_degree": 11, "inner": poly_to_dict(x - 2 * y)}
    save_poly(p, tmp_path / "p.json")
    with open(tmp_path / "f.json", "w") as fh:
        json.dump(stream, fh)
    prefix = str(tmp_path / "dec")
    extra = [] if mcap is None else ["--mcap", str(mcap)]
    assert cli.main(["decompose", "--p", str(tmp_path / "p.json"), "--f",
                     str(tmp_path / "f.json"), "--out", prefix, *extra]) == 0
    cap = 11 if mcap is None else mcap
    # q of the truncation, and r up to degree cap - deg p
    want = fischer.decompose_direct(p, entire.stream_from_dict(stream).truncate(cap))
    assert load_poly(f"{prefix}.q.json") == want.q
    assert load_poly(f"{prefix}.r.json") == sum(
        (want.r.homogeneous_component(m) for m in range(cap)), Poly.zero(2))
    payload = _read_envelope(f"{prefix}.diagnostics.json")
    assert payload["method"] == "direct"
    assert payload["diagnostics"]["truncation_degree"] == cap


@pytest.mark.parametrize("argv", [
    ["--method", "linear"], ["--method", "entire"], ["--tol", "1e-14"],
    ["--method", "direct"], ["--method", "univariate"], ["--method", "series"],
    ["--method", "auto"], ["--beta", "0"],
], ids=["linear", "entire", "tol", "direct", "univariate", "series", "auto", "beta"])
def test_method_linear_is_gone(files, capsys, argv):
    # the split is unique, so decompose takes no route knobs: the input
    # picks between long division and the direct recursion (--series-check
    # also runs the series), and nothing reads a declared gap degree
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose", "--p", files["p"], "--f", files["f"], *argv])
    assert exc.value.code == cli.EXIT_PARSE
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err


@pytest.mark.parametrize("p_field,f_kind", [("float", "poly"), ("float", "stream"),
                                             ("exact", "float-poly")])
def test_forced_direct_refuses_float_univariate_input(files, tmp_path, capsys, p_field, f_kind):
    # no route can be forced: d = 1 float input goes by long division,
    # whose q and r the CLI writes bit for bit
    z, = variables(1)
    p = z - 1 if p_field == "exact" else (z - 1).to_float()
    save_poly(p, tmp_path / "p1.json")
    f_path, f = files["expz"], entire.TaylorStream.from_exp(z, max_degree=220)
    if f_kind != "stream":
        f = (z ** 5 + 2 * z).to_float()
        save_poly(f, tmp_path / "f1.json")
        f_path = str(tmp_path / "f1.json")
    argv = ["decompose", "--p", str(tmp_path / "p1.json"), "--f", f_path, "--mcap", "30",
            "--out", str(tmp_path / "x")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--method", "direct"])
    assert exc.value.code == cli.EXIT_PARSE
    assert "unrecognized arguments: --method direct" in capsys.readouterr().err
    assert cli.main(argv) == 0
    want = fischer.decompose_univariate(p, f, 30)
    assert want.q.field == FLOAT
    for part in ("q", "r"):
        assert load_poly(str(tmp_path / f"x.{part}.json")) == getattr(want, part)
    assert _read_envelope(str(tmp_path / "x.diagnostics.json"))["method"] == "univariate"


def test_forced_direct_on_exact_univariate_input_is_long_division(files, tmp_path):
    # decompose_direct on a d = 1 divisor is decompose_univariate, and the
    # CLI writes its exact q and r
    z, = variables(1)
    p, stream = z * z - 1, entire.TaylorStream.from_exp(z, max_degree=220)
    save_poly(p, tmp_path / "p1.json")
    assert cli.main(["decompose", "--p", str(tmp_path / "p1.json"), "--f", files["expz"],
                     "--mcap", "30", "--out", str(tmp_path / "auto")]) == 0
    direct = fischer.decompose_direct(p, stream, 30)
    assert direct == fischer.decompose_univariate(p, stream, 30)
    assert direct.method == "univariate"
    for part in ("q", "r"):
        assert load_poly(str(tmp_path / f"auto.{part}.json")) == getattr(direct, part)
    assert direct.r.degree < 2


def test_decompose_univariate_auto(files, tmp_path):
    z, = variables(1)
    save_poly(z * z - 1, tmp_path / "p1.json")
    save_poly(z ** 3, tmp_path / "f1.json")
    prefix = str(tmp_path / "uni")
    rc = cli.main(["decompose", "--p", str(tmp_path / "p1.json"),
                   "--f", str(tmp_path / "f1.json"), "--out", prefix])
    assert rc == 0
    payload = _read_envelope(f"{prefix}.diagnostics.json")
    assert payload["method"] == "univariate"
    assert load_poly(f"{prefix}.r.json") == z


def test_decompose_entire_stream(files, tmp_path):
    z, = variables(1)
    save_poly(z - 1, tmp_path / "pz.json")
    prefix = str(tmp_path / "ent")
    rc = cli.main(["decompose", "--p", str(tmp_path / "pz.json"),
                   "--f", files["expz"], "--mcap", "30", "--out", prefix])
    assert rc == 0
    r = load_poly(f"{prefix}.r.json")
    assert abs(complex(r.coefficient((0,))) - math.e) < 1e-12


def test_decompose_entire_on_polynomial_file(files, tmp_path):
    # a polynomial file is decomposed whole: --mcap truncates streams only
    prefix = str(tmp_path / "entpoly")
    rc = cli.main(["decompose", "--p", files["p"], "--f", files["f"],
                   "--mcap", "1", "--out", prefix])
    assert rc == 0
    payload = _read_envelope(f"{prefix}.diagnostics.json")
    assert payload["method"] == "direct"
    assert "truncation_degree" not in payload["diagnostics"]
    assert load_poly(f"{prefix}.q.json") == Poly.constant(2, 1)
    assert load_poly(f"{prefix}.r.json") == Poly.constant(2, 1)


def test_decompose_polynomial_stream_keeps_top_degrees_of_r(tmp_path):
    # r reaches deg f = 4 > deg f - deg p; the default cap must not cut it
    x, y = variables(2)
    p, f = x * x + y * y - 1, x ** 4
    save_poly(p, tmp_path / "p.json")
    save_poly(f, tmp_path / "f.json")
    with open(tmp_path / "fs.json", "w") as fh:
        json.dump({"kind": "poly", **poly_to_dict(f)}, fh)
    direct = fischer.decompose_direct(p, f)
    assert direct.r.degree == 4
    prefix = str(tmp_path / "out")
    assert cli.main(["decompose", "--p", str(tmp_path / "p.json"),
                     "--f", str(tmp_path / "fs.json"), "--out", prefix]) == 0
    q, r = load_poly(f"{prefix}.q.json"), load_poly(f"{prefix}.r.json")
    assert r == direct.r
    assert q == direct.q
    assert p * q + r == f


@pytest.mark.parametrize("dim", [1, 2])
def test_decompose_poly_kind_stream_as_polynomial(tmp_path, dim):
    # the univariate (d = 1) and direct (here deg p = 1) routes read a
    # "poly" stream file as the polynomial it is, with no --mcap
    if dim == 1:
        z, = variables(1)
        p, f = z * z - 1, z ** 5 + 2 * z
    else:
        x, y = variables(2)
        p, f = x - 1, x ** 3 * y + 2 * y * y
    save_poly(p, tmp_path / "p.json")
    save_poly(f, tmp_path / "f.json")
    with open(tmp_path / "fs.json", "w") as fh:
        json.dump({"kind": "poly", **poly_to_dict(f)}, fh)
    out = {}
    for name in ("f", "fs"):
        prefix = str(tmp_path / name)
        assert cli.main(["decompose", "--p", str(tmp_path / "p.json"),
                         "--f", str(tmp_path / f"{name}.json"), "--out", prefix]) == 0
        out[name] = load_poly(f"{prefix}.q.json"), load_poly(f"{prefix}.r.json")
    assert out["fs"] == out["f"]
    q, r = out["fs"]
    assert p * q + r == f


def test_inner_cli(files, tmp_path):
    out = str(tmp_path / "inner.json")
    rc = cli.main(["inner", "--p", files["f"], "--q", files["f"], "--out", out])
    assert rc == 0
    payload = _read_envelope(out)
    assert payload["inner_product"]["re"] == "2/1"


@pytest.mark.parametrize("verb", ["inner", "decompose", "spectrum", "ks-fit", "kernel",
                                  "classify2x2", "order", "blambda", "verify"])
def test_empty_out_is_the_default_destination(files, monkeypatch, capsys, verb):
    # --out "" means "not given" on every verb: stdout, or the default prefix
    argv, written = {
        "inner": (["--p", "f", "--q", "f"], None),
        "decompose": (["--p", "p", "--f", "f"], "decomposition.diagnostics.json"),
        "spectrum": (["--p", "pk", "--m-min", "2", "--m-max", "3"], "spectrum.csv"),
        "ks-fit": (["--p", "pk", "--m-min", "8", "--m-max", "11"], "spectrum.json"),
        "kernel": (["--p", "pk", "--m", "2"], None),
        "classify2x2": (["1", "2", "1"], None),
        "order": (["--f", "expz", "--min-degree", "20", "--max-degree", "40"], None),
        "blambda": (["--f", "expz", "--lam", "inv-log", "--mcap", "20"], None),
        "verify": (["--cases", "2", "--mc-samples", "100"], None),
    }[verb]
    monkeypatch.chdir(files["tmp"])
    argv = [files.get(a, a) for a in argv]
    assert cli.main([verb, *argv, "--out", ""]) == 0
    out = capsys.readouterr().out
    if written is None:
        assert json.loads(out)["verb"] == verb
    else:
        assert out == ""
        assert (files["tmp"] / written).exists()


def test_classify_cli(tmp_path, capsys):
    rc = cli.main(["classify2x2", "1", "2", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert set(payload) == {"degenerate", "square_root", "witness_direction"}
    assert payload["degenerate"] is True
    assert payload["witness_direction"] == [
        {"re": "1/1", "im": "0/1"}, {"re": "-1/1", "im": "0/1"}]


def test_ks_fit_cli(files, tmp_path):
    prefix = str(tmp_path / "ks")
    rc = cli.main(["ks-fit", "--p", files["pk"], "--m-min", "8",
                   "--m-max", "24", "--out", prefix])
    assert rc == 0
    lines = open(f"{prefix}.csv").read().strip().splitlines()
    assert lines[0] == "m,sigma_min,sigma_max"
    assert len(lines) == 1 + 17
    header = json.load(open(f"{prefix}.json"))
    assert 0.7 <= header["fitted_tau"] <= 1.3


def test_spectrum_cli_short_window(files, tmp_path):
    prefix = str(tmp_path / "spec")
    rc = cli.main(["spectrum", "--p", files["z1"], "--m-min", "3",
                   "--m-max", "4", "--out", prefix])
    assert rc == 0
    header = json.load(open(f"{prefix}.json"))
    assert header["flags"] == ["no-fit"]
    assert header["fitted_tau"] is None


def test_kernel_cli(files, tmp_path, capsys):
    rc = cli.main(["kernel", "--p", files["pk"], "--m", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["dimension"] == 2


def test_order_cli(files, capsys):
    rc = cli.main(["order", "--f", files["expz"], "--min-degree", "20",
                   "--max-degree", "200"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert abs(payload["order"] - 1.0) <= 0.1


# exp((0.6+0.2i) z1 + (-0.5+0.4i) z2) in floats
_FLOAT_EXP_INNER = {"dim": 2, "terms": [{"exp": [1, 0], "re": 0.6, "im": 0.2},
                                        {"exp": [0, 1], "re": -0.5, "im": 0.4}]}


def test_order_cli_float_stream_high_degree(files, capsys):
    # the components here have |c|^2 below the smallest double
    path = files["tmp"] / "float_exp.json"
    path.write_text(json.dumps({"kind": "exp_poly", "max_degree": 139,
                                "inner": _FLOAT_EXP_INNER}))
    rc = cli.main(["order", "--f", str(path), "--min-degree", "100",
                   "--max-degree", "139"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert abs(payload["order"] - 1.0) <= 0.05


def test_order_cli_float_stream_underflow_is_numerical(files):
    # from degree ~175 on the largest coefficients are subnormal, from 190
    # the components are zero: an estimate here would be silently wrong
    path = files["tmp"] / "float_exp.json"
    path.write_text(json.dumps({"kind": "exp_poly", "max_degree": 189,
                                "inner": _FLOAT_EXP_INNER}))
    rc = cli.main(["order", "--f", str(path), "--min-degree", "170",
                   "--max-degree", "189"])
    assert rc == cli.EXIT_NUMERICAL


def test_order_cli_float_stream_total_underflow_is_numerical(files):
    # float exp(z): 1/178! is below half the smallest subnormal, so every
    # component from 178 on is empty; a window wholly past that point used
    # to read as a polynomial's zero tail ("polynomial/zero", exit 0)
    path = files["tmp"] / "float_expz.json"
    path.write_text(json.dumps({"kind": "exp_poly", "max_degree": 239, "inner": {
        "dim": 1, "terms": [{"exp": [1], "re": 1.0, "im": 0.0}]}}))
    rc = cli.main(["order", "--f", str(path), "--min-degree", "200",
                   "--max-degree", "239"])
    assert rc == cli.EXIT_NUMERICAL


def test_order_cli_polynomial_defaults(files, capsys):
    rc = cli.main(["order", "--f", files["f"], "--min-degree", "20"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["order"] < 0.05
    assert payload["flag"] == "polynomial/zero"


def test_blambda_cli(files, capsys):
    rc = cli.main(["blambda", "--f", files["expz"], "--lam", "inv-log",
                   "--mcap", "80"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["membership_trend"] == "consistent-with-membership"


def test_verify_cli(tmp_path):
    out = str(tmp_path / "verify.json")
    rc = cli.main(["verify", "--seed", "7", "--cases", "25",
                   "--mc-samples", "20000", "--out", out])
    assert rc == 0
    payload = _read_envelope(out)
    assert payload["violations"] == 0
    names = {row["check"] for row in payload["checks"]}
    assert {"adjoint", "reznick", "bombieri", "pythagoras", "beauzamy",
            "shapiro-pointwise", "bargmann-mc"} <= names


def test_verify_provided_inputs(files, tmp_path):
    out = str(tmp_path / "verify_given.json")
    rc = cli.main(["verify", "--p", files["pk"], "--f", files["f"],
                   "--mc-samples", "5000", "--out", out])
    assert rc == 0
    payload = _read_envelope(out)
    assert payload["violations"] == 0


def test_verify_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert cli.main(["verify", "--seed", "3", "--cases", "10",
                         "--mc-samples", "10000", "--out", out]) == 0
    assert open(a).read() == open(b).read()


@pytest.mark.parametrize("route", ["direct-exact", "direct-float", "series", "entire",
                                   "linear", "univariate"])
def test_decompose_reports_deterministic(tmp_path, route):
    x, y = variables(2)
    z, = variables(1)
    p, f = x * x + x * y + 2 * y * y - y - 1, (x + 2 * y) ** 5 + x * y - 3
    stream = {"kind": "exp_poly", "max_degree": 60,
              "inner": poly_to_dict((0.6 * x + 0.9 * y).to_float())}
    f_float = poly_to_dict(f.to_float())
    p, f, extra, method = {
        "direct-exact": (p, poly_to_dict(f), [], "direct"),
        "direct-float": (p.to_float(), f_float, [], "direct"),
        "series": (p.to_float(), f_float, ["--series-check"], "direct"),
        "entire": (p.to_float(), stream, ["--mcap", "20"], "direct"),
        # deg p = 1 takes the direct route
        "linear": ((x - 2 * y + 3).to_float(), f_float, [], "direct"),
        "univariate": (z ** 3 - 2 * z + 1, poly_to_dict((z + 1) ** 9), [], "univariate"),
    }[route]
    save_poly(p, tmp_path / "p.json")
    with open(tmp_path / "f.json", "w") as fh:
        json.dump(f, fh)
    prefix = str(tmp_path / "dec")
    outputs = []
    for _ in range(2):
        assert cli.main(["decompose", "--p", str(tmp_path / "p.json"), "--f",
                         str(tmp_path / "f.json"), "--out", prefix] + extra) == 0
        outputs.append([open(f"{prefix}.{part}.json", "rb").read()
                        for part in ("q", "r", "diagnostics")])
    assert _read_envelope(f"{prefix}.diagnostics.json")["method"] == method
    assert outputs[0] == outputs[1]


def test_spectral_outputs_deterministic(files, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix in (a, b):
        assert cli.main(["ks-fit", "--p", files["pk"], "--m-min", "8",
                         "--m-max", "20", "--out", prefix]) == 0
    assert open(f"{a}.csv").read() == open(f"{b}.csv").read()
    assert open(f"{a}.json").read() == open(f"{b}.json").read()


def test_emit_round_trip(files, tmp_path):
    # emitted polynomial files parse back to the same polynomial, bit-exact
    p = load_poly(files["p"])
    path = tmp_path / "roundtrip.json"
    save_poly(p, path)
    assert load_poly(path) == p
    assert open(path).read() == open(files["p"]).read()


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["inner", "--p", str(bad), "--q", str(bad)]) == cli.EXIT_PARSE
    missing = str(tmp_path / "missing.json")
    assert cli.main(["inner", "--p", missing, "--q", missing]) == cli.EXIT_PARSE


def test_exit_code_bad_stream_max_degree(files, tmp_path):
    bad = tmp_path / "oops.json"
    bad.write_text(json.dumps({"kind": "exp_poly", "max_degree": "oops", "inner": {
        "dim": 2, "terms": [{"exp": [1, 0], "re": "1/1", "im": "0/1"}]}}))
    rc = cli.main(["decompose", "--p", files["p"], "--f", str(bad), "--mcap", "6",
                   "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_PARSE
    assert cli.main(["blambda", "--f", str(bad), "--lam", "inv-log"]) == cli.EXIT_PARSE


def test_exit_code_poly_stream_max_degree_below_degree(files, tmp_path):
    x, y = variables(2)
    stream = {"kind": "poly", **poly_to_dict(x ** 5 + y)}
    for cap, code in [(2, cli.EXIT_PARSE), (5, 0)]:
        path = tmp_path / f"poly_cap{cap}.json"
        path.write_text(json.dumps({**stream, "max_degree": cap}))
        assert cli.main(["decompose", "--p", files["pk"], "--f", str(path),
                         "--out", str(tmp_path / f"x{cap}")]) == code


def test_exit_code_non_integer_exponent(files, tmp_path):
    bad = tmp_path / "frac_exp.json"
    bad.write_text(json.dumps({"dim": 2, "terms": [
        {"exp": [1.7, 0], "re": "1/1", "im": "0/1"}]}))
    rc = cli.main(["decompose", "--p", files["p"], "--f", str(bad),
                   "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_PARSE


@pytest.mark.parametrize("terms", [
    '[{"exp": [1, 0], "re": true, "im": false}]',
    '[{"exp": [1, 0], "re": null, "im": 0}]',
    '[{"exp": [1, 0], "re": [1], "im": 0}]',
    '[{"exp": [1, 0], "re": 1e400, "im": 0}]',
    '5',
    '[{"exp": [1, 0], "re": "1/1", "im": "0/1"}, {"exp": [1, 0], "re": "2/1", "im": "0/1"}]',
    '[{"re": "1/1", "im": "0/1"}]',
], ids=["bool", "null", "list", "overflow", "terms-not-list", "duplicate-exponent",
        "term-without-exp"])
def test_exit_code_bad_coefficient(files, tmp_path, terms):
    bad = tmp_path / "bad_coeff.json"
    bad.write_text('{"dim": 2, "terms": %s}' % terms)
    rc = cli.main(["decompose", "--p", files["p"], "--f", str(bad),
                   "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_PARSE
    assert not (tmp_path / "x.q.json").exists()


@pytest.mark.parametrize("scalar", ["nan", "inf", "nan+1j", "1+infj", "infj"])
def test_exit_code_non_finite_scalar(scalar):
    assert cli.main(["classify2x2", scalar, "1", "1"]) == cli.EXIT_PARSE
    assert cli.main(["classify2x2", "1", "1", scalar]) == cli.EXIT_PARSE


@pytest.mark.parametrize("spec", ["power:nan", "power:inf", "power:0", "power:-1"])
def test_exit_code_bad_power_lambda(files, spec):
    assert cli.main(["blambda", "--f", files["expz"], "--lam", spec]) == cli.EXIT_PARSE


def test_exit_code_negative_verify_cases(tmp_path):
    out = tmp_path / "verify.json"
    rc = cli.main(["verify", "--cases", "-3", "--mc-samples", "100", "--out", str(out)])
    assert rc == cli.EXIT_PRECONDITION
    assert not out.exists()


def test_exit_code_precondition(files, tmp_path):
    # ks-fit needs homogeneous pk; p.json is not homogeneous
    assert cli.main(["ks-fit", "--p", files["p"]]) == cli.EXIT_PRECONDITION
    # an exp stream without max_degree has no last degree to stop at
    unbounded = tmp_path / "unbounded.json"
    unbounded.write_text(json.dumps({"kind": "exp_poly", "inner": _FLOAT_EXP_INNER}))
    assert cli.main(["order", "--f", str(unbounded)]) == cli.EXIT_PRECONDITION
    assert cli.main(["verify", "--p", files["pk"]]) == cli.EXIT_PRECONDITION


def test_exit_code_verify_zero_divisor(files, tmp_path):
    save_poly(Poly.zero(2), tmp_path / "zero.json")
    out = tmp_path / "verify.json"
    rc = cli.main(["verify", "--p", str(tmp_path / "zero.json"), "--f", files["f"],
                   "--mc-samples", "100", "--out", str(out)])
    assert rc == cli.EXIT_PRECONDITION
    assert not out.exists()


@pytest.mark.parametrize("verb", ["spectrum", "ks-fit"])
def test_exit_code_inverted_spectrum_window(files, tmp_path, verb):
    prefix = tmp_path / "inv"
    rc = cli.main([verb, "--p", files["z1"], "--m-min", "5", "--m-max", "3",
                   "--out", str(prefix)])
    assert rc == cli.EXIT_PRECONDITION
    assert not (tmp_path / "inv.csv").exists()
    assert not (tmp_path / "inv.json").exists()


def test_exit_code_series_on_stream(files, tmp_path):
    rc = cli.main(["decompose", "--p", files["p"], "--f", files["expz"],
                   "--series-check", "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_PRECONDITION


def test_exit_code_series_on_float_univariate_input(tmp_path, capsys):
    # float slice projections would leave round-off terms of degree >= deg p
    # in r, where long division (auto) leaves none
    p = Poly(1, {(2,): 3.0 + 0j, (1,): 0.7 + 0j, (0,): 1.1 + 0j})
    f = Poly(1, {(9,): 1.3 + 0j, (4,): 0.2 + 0j, (0,): 1.0 + 0j})
    save_poly(p, tmp_path / "p.json")
    save_poly(f, tmp_path / "f.json")
    argv = ["decompose", "--p", str(tmp_path / "p.json"), "--f", str(tmp_path / "f.json")]
    assert cli.main(argv + ["--series-check", "--out", str(tmp_path / "x")]) == 3
    assert "long division" in capsys.readouterr().err
    assert not (tmp_path / "x.q.json").exists()
    assert cli.main(argv + ["--out", str(tmp_path / "auto")]) == 0
    assert load_poly(str(tmp_path / "auto.r.json")).degree <= 1


def test_exit_code_numerical_failure(tmp_path):
    # the components of exp(0.001 x + 0.001 y) flush to zero in doubles
    # from degree 78 on, below the requested truncation degree
    x, y = variables(2)
    save_poly((x * x + y * y - 1).to_float(), tmp_path / "p.json")
    stream = {"kind": "exp_poly", "max_degree": 200,
              "inner": poly_to_dict((0.001 * x + 0.001 * y).to_float())}
    with open(tmp_path / "f.json", "w") as fh:
        json.dump(stream, fh)
    rc = cli.main(["decompose", "--p", str(tmp_path / "p.json"),
                   "--f", str(tmp_path / "f.json"),
                   "--mcap", "100", "--out", str(tmp_path / "flush")])
    assert rc == cli.EXIT_NUMERICAL


def test_exit_code_forced_direct_on_degree_one_float_divisor(tmp_path):
    # a float deg p = 1 divisor in d = 2 is projected slice by slice and
    # matches the exact decomposition
    x, y = variables(2)
    p, f = x - 1000, (x + y) ** 6
    save_poly(p.to_float(), tmp_path / "p.json")
    save_poly(f.to_float(), tmp_path / "f.json")
    want = fischer.decompose_direct(p, f)
    prefix = str(tmp_path / "auto")
    assert cli.main(["decompose", "--p", str(tmp_path / "p.json"),
                     "--f", str(tmp_path / "f.json"), "--out", prefix]) == 0
    assert _read_envelope(f"{prefix}.diagnostics.json")["method"] == "direct"
    for part in ("q", "r"):
        exact = getattr(want, part).to_float()
        got = load_poly(f"{prefix}.{part}.json")
        assert apolar.norm(got - exact) <= 1e-12 * apolar.norm(exact)


def test_float_apolar_norms_past_degree_170(tmp_path):
    # 175! exceeds the double range: the residual norm and inner products
    # are still reported, and only a value beyond that range exits 4
    x, y = variables(2)
    save_poly((x * x + y * y - 1).to_float(), tmp_path / "p.json")
    save_poly((0.5 * x ** 175 + y).to_float(), tmp_path / "f.json")
    save_poly((1e-10 * x ** 175).to_float(), tmp_path / "small.json")
    prefix = str(tmp_path / "dec")
    assert cli.main(["decompose", "--p", str(tmp_path / "p.json"),
                     "--f", str(tmp_path / "f.json"), "--out", prefix]) == 0
    residual = _read_envelope(f"{prefix}.diagnostics.json")["annihilator_residual"]
    series = fischer.decompose_series(load_poly(str(tmp_path / "p.json")),
                                      load_poly(str(tmp_path / "f.json")))
    # ||f|| is about 5e158
    assert residual == pytest.approx(series.annihilator_residual, rel=1e-6)
    assert 0 < residual < 1e-12 * 5e158
    out = str(tmp_path / "inner.json")
    assert cli.main(["inner", "--p", str(tmp_path / "small.json"),
                     "--q", str(tmp_path / "small.json"), "--out", out]) == 0
    norm_sq = _read_envelope(out)["norm_sq_p"]["re"]
    assert norm_sq == pytest.approx(float(math.factorial(175) * Fraction(1e-10) ** 2), rel=1e-12)
    assert cli.main(["inner", "--p", str(tmp_path / "f.json"),
                     "--q", str(tmp_path / "f.json")]) == cli.EXIT_NUMERICAL


@pytest.mark.parametrize("terms,ok", [
    ({(2,): 1e200}, False),     # 2 (1e200)^2 overflows at degree 2
    ({(170,): 10.0}, False),    # 170! 100 overflows just below the factorial limit
    ({(170,): 1.0}, True),      # 170! itself is a double
    ({(171,): 1e10}, False),    # past degree 170 the product goes through logs
    ({(171,): 1e-10}, True),
])
def test_inner_float_overflow_exits_4_on_both_sides_of_170(tmp_path, terms, ok):
    save_poly(Poly(1, {a: complex(c) for a, c in terms.items()}), tmp_path / "p.json")
    out = tmp_path / "inner.json"
    rc = cli.main(["inner", "--p", str(tmp_path / "p.json"), "--q", str(tmp_path / "p.json"),
                   "--out", str(out)])
    if ok:
        assert rc == 0
        assert math.isfinite(_read_envelope(out)["norm_sq_p"]["re"])
    else:
        assert rc == cli.EXIT_NUMERICAL
        assert not out.exists()


def test_main_in_process_writes_what_fresh_processes_write(files, tmp_path):
    # the parser is built once per process; consecutive verbs must not see
    # one another's options
    runs = [
        ["inner", "--p", files["f"], "--q", files["pk"], "--out", "{d}/inner.json"],
        ["decompose", "--p", files["p"], "--f", files["f"], "--out", "{d}/dec"],
        ["kernel", "--p", files["pk"], "--m", "3", "--out", "{d}/kernel.json"],
        ["classify2x2", "1", "0", "1", "--out", "{d}/classify.json"],
        ["order", "--f", files["expz"], "--out", "{d}/order.json"],
        ["ks-fit", "--p", files["pk"], "--m-min", "4", "--m-max", "8", "--out", "{d}/ks"],
        ["inner", "--p", files["z1"], "--q", files["z1"], "--backend", "float",
         "--out", "{d}/inner2.json"],
    ]
    in_process, fresh = tmp_path / "in_process", tmp_path / "fresh"
    in_process.mkdir()
    fresh.mkdir()
    for argv in runs:
        assert cli.main([a.format(d=in_process) for a in argv]) == 0
        subprocess.run([sys.executable, "-m", "fischerlab.cli",
                        *(a.format(d=fresh) for a in argv)],
                       check=True, cwd=Path(cli.__file__).parents[1])
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in in_process.iterdir())
    for name in names:
        got = (in_process / name).read_bytes()
        want = (fresh / name).read_bytes().replace(str(fresh).encode(), str(in_process).encode())
        assert got == want, name


@pytest.mark.parametrize("error", [
    ArpackNoConvergence("ARPACK: no convergence", np.empty(0), np.empty((0, 0))),
    ArpackError(-9999),
    RuntimeError("Factor is exactly singular"),
])
def test_exit_code_eigensolve_failure(tmp_path, monkeypatch, error):
    def failing_eigs(*args, **kwargs):
        raise error
    # spectral imports eigs when it runs an eigensolve, so patch it at source
    monkeypatch.setattr("scipy.sparse.linalg.eigs", failing_eigs)
    # a cubic with every coefficient nonzero: its Gram matrix at m = 22 is
    # one block of size 276, above spectral.DENSE_EIG_MAX, so ARPACK runs
    pk = Poly(3, {alpha: complex(1 + i, 2 - i) for i, alpha in
                  enumerate(enumerate_monomials(3, 3))})
    save_poly(pk, tmp_path / "pk3.json")
    rc = cli.main(["ks-fit", "--p", str(tmp_path / "pk3.json"), "--m-min", "22",
                   "--m-max", "25", "--out", str(tmp_path / "ks")])
    assert rc == cli.EXIT_NUMERICAL


def test_exit_code_float_on_exact_backend(files, tmp_path):
    x, y = variables(2)
    save_poly((0.5 * x).to_float(), tmp_path / "float.json")
    rc = cli.main(["inner", "--p", str(tmp_path / "float.json"),
                   "--q", str(tmp_path / "float.json"), "--backend", "exact"])
    assert rc == cli.EXIT_PARSE
    # an exp stream follows the same rule, by the field of its coefficients
    for name, inner in [("float", _FLOAT_EXP_INNER), ("exact", poly_to_dict(x + y))]:
        (tmp_path / f"{name}_exp.json").write_text(json.dumps(
            {"kind": "exp_poly", "max_degree": 8, "inner": inner}))
        rc = cli.main(["decompose", "--p", files["pk"], "--f", str(tmp_path / f"{name}_exp.json"),
                       "--backend", "exact", "--out", str(tmp_path / name)])
        assert rc == (cli.EXIT_PARSE if name == "float" else cli.EXIT_OK)
        assert (tmp_path / f"{name}.q.json").exists() == (name == "exact")


def test_exit_code_internal_error(files, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_order", broken)
    assert cli.main(["order", "--f", files["expz"]]) == cli.EXIT_INTERNAL == 5
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_every_verb_has_a_handler():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert cli._handlers().keys() == subparsers.choices.keys()
