import json
import math
from collections import Counter

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from fischerlab import cli, fischer, spectral
from fischerlab.polyalg import Poly, load_poly, poly_to_dict, save_poly, variables


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
    rc = cli.main(["decompose", "--p", files["p"], "--f", files["f"],
                   "--series-check", "--out", prefix])
    assert rc == 0
    payload = _read_envelope(f"{prefix}.diagnostics.json")
    assert payload["diagnostics"]["series_check_agrees"] is True


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
    # explicit entire method over a finite polynomial defaults its own cap
    prefix = str(tmp_path / "entpoly")
    rc = cli.main(["decompose", "--p", files["p"], "--f", files["f"],
                   "--method", "entire", "--out", prefix])
    assert rc == 0
    payload = _read_envelope(f"{prefix}.diagnostics.json")
    assert payload["method"] == "entire_truncated"
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
    for f_args in (["--f", str(tmp_path / "fs.json")],
                   ["--f", str(tmp_path / "f.json"), "--method", "entire"]):
        prefix = str(tmp_path / "out")
        assert cli.main(["decompose", "--p", str(tmp_path / "p.json"), *f_args,
                         "--out", prefix]) == 0
        q, r = load_poly(f"{prefix}.q.json"), load_poly(f"{prefix}.r.json")
        assert r == direct.r
        assert q == direct.q
        assert p * q + r == f


def test_inner_cli(files, tmp_path):
    out = str(tmp_path / "inner.json")
    rc = cli.main(["inner", "--p", files["f"], "--q", files["f"], "--out", out])
    assert rc == 0
    payload = _read_envelope(out)
    assert payload["inner_product"]["re"] == "2/1"


def test_classify_cli(tmp_path, capsys):
    rc = cli.main(["classify2x2", "1", "2", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
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
], ids=["bool", "null", "list", "overflow", "terms-not-list"])
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


def test_exit_code_precondition(files):
    # ks-fit needs homogeneous pk; p.json is not homogeneous
    assert cli.main(["ks-fit", "--p", files["p"]]) == cli.EXIT_PRECONDITION


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
                   "--method", "series", "--out", str(tmp_path / "x")])
    assert rc == cli.EXIT_PRECONDITION


def test_exit_code_numerical_failure(tmp_path):
    x, y = variables(2)
    save_poly((x * x + 1e9 * x + 1.0).to_float(), tmp_path / "illp.json")
    save_poly((x ** 6).to_float(), tmp_path / "illf.json")
    rc = cli.main(["decompose", "--p", str(tmp_path / "illp.json"),
                   "--f", str(tmp_path / "illf.json"),
                   "--out", str(tmp_path / "ill")])
    assert rc == cli.EXIT_NUMERICAL


@pytest.mark.parametrize("error", [
    ArpackNoConvergence("ARPACK: no convergence", np.empty(0), np.empty((0, 0))),
    ArpackError(-9999),
    RuntimeError("Factor is exactly singular"),
])
def test_exit_code_eigensolve_failure(tmp_path, monkeypatch, error):
    def failing_eigs(*args, **kwargs):
        raise error
    monkeypatch.setattr(spectral, "eigs", failing_eigs)
    pk = Poly(3, {(2, 0, 0): 1 + 0j, (0, 2, 0): 1 + 0j, (0, 0, 2): 1 + 0j})
    save_poly(pk, tmp_path / "pk3.json")
    # Gram size 276 at m = 22, above spectral.DENSE_EIG_MAX, so ARPACK runs
    rc = cli.main(["ks-fit", "--p", str(tmp_path / "pk3.json"), "--m-min", "22",
                   "--m-max", "25", "--out", str(tmp_path / "ks")])
    assert rc == cli.EXIT_NUMERICAL


def test_exit_code_float_on_exact_backend(files, tmp_path):
    x, y = variables(2)
    save_poly((0.5 * x).to_float(), tmp_path / "float.json")
    rc = cli.main(["inner", "--p", str(tmp_path / "float.json"),
                   "--q", str(tmp_path / "float.json"), "--backend", "exact"])
    assert rc == cli.EXIT_PARSE


def test_exit_code_internal_error(files, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_order", broken)
    assert cli.main(["order", "--f", files["expz"]]) == cli.EXIT_INTERNAL == 5
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err
