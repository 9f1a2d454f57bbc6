"""Tests of the benchmark itself (not of fischerlab).

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py

The smoke runs execute every job type once per pass, output checks
included, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_inputs_are_a_function_of_the_seed():
    for workload in jobs.WORKLOADS:
        a, _ = jobs.make_jobs(workload, 5)
        b, _ = jobs.make_jobs(workload, 5)
        c, _ = jobs.make_jobs(workload, 6)
        assert [j.inputs for j in a] == [j.inputs for j in b]
        assert [j.argv for j in a] == [j.argv for j in b]
        assert [j.inputs for j in a] != [j.inputs for j in c]
        # the seed draws coefficients and order, never the slot shapes
        assert sorted(j.name for j in a) == sorted(j.name for j in c)


def test_full_job_lists_give_enough_latency_samples():
    for workload in jobs.WORKLOADS:
        timed, _ = jobs.make_jobs(workload, 1)
        assert len(timed) * run.MIN_PASSES >= 100
        kinds = {j.check for j in jobs.make_jobs(workload, 1, smoke=True)[0]}
        assert kinds == {j.check for j in timed}


def test_spec_names_are_produced_by_the_harness():
    names = {m["name"] for m in SPEC["workloads"]}
    assert names == set(jobs.WORKLOADS)
    layer_keys = {f"{name}.{stat}" for _, _, name in tracing.LAYERS
                  for stat in ("calls", "s", "self_s")}
    layer_keys |= set(tracing.STATS) | {
        "fischer.fischer_matrix.reuse", "trace.overhead_s", "cli.main.fail_frac",
        "entire.float_stream_probe.fail_frac", "spectral.ks_fit_probe.fail_frac"}
    assert {m["name"] for m in SPEC["per_layer"]} <= layer_keys
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert "setup_s" in e2e
    assert e2e <= {"wall_s", "cpu_s", "job_p50_ms", "job_p90_ms", "setup_s",
                   "peak_rss_mib", "fail_frac"}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_run(workload):
    digests = []
    for trace in (0, 1):
        proc = _bench("--workload", workload, "--seed", "3", "--smoke", "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        with open(os.path.join(ROOT, ".bench_out",
                               f"{workload}-seed3-trace{trace}-smoke.json")) as fh:
            digests.append(json.load(fh)["outputs_digest"])
        if trace:
            assert result["metrics"]["cli.main.self_s"]["value"] > 0
            # every known-defect probe ran and was counted
            for name in ("entire.float_stream_probe.fail_frac",
                         "spectral.ks_fit_probe.fail_frac"):
                assert 0.0 <= result["metrics"][name]["value"] <= 1.0
    # byte-identical outputs between separate runs of the same seed
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "exact-algebra", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("outcome", ["raise", "exit 7"])
def test_a_failing_timed_job_fails_the_run(outcome, monkeypatch, capsys):
    """A timed job that raises or returns an undocumented exit code makes
    the run incorrect: its cut-short time must not pass as a speed-up."""
    real_import = run.import_program

    def broken_program():
        cli = real_import()

        class Broken:
            @staticmethod
            def main(argv):
                if argv[0] == "kernel":
                    if outcome == "raise":
                        raise TypeError("stubbed failure")
                    return 7
                return cli.main(argv)
        return Broken

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "SRC", os.path.join(ROOT, "src"))
    monkeypatch.setattr(run, "OUT", os.path.join(ROOT, ".bench_out"))
    monkeypatch.setattr(run, "import_program", broken_program)
    status = run.main(["--workload", "exact-algebra", "--seed", "3", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == 2      # the kernel job, once in each of two passes


def _run_job(job, tmp_path, monkeypatch):
    from fischerlab import cli
    monkeypatch.chdir(tmp_path)
    for name, obj in job.inputs.items():
        (tmp_path / name).write_text(json.dumps(obj))
    return cli.main(job.argv)


def test_checks_reject_wrong_outputs(tmp_path, monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    timed, _ = jobs.make_jobs("exact-algebra", 2, smoke=True)
    job = next(j for j in timed if j.check == "decompose_exact")
    assert checks.check(job, _run_job(job, tmp_path, monkeypatch)) is None
    r = json.loads((tmp_path / job.outputs[1]).read_text())
    r["terms"][0]["re"] = "12345/1"
    (tmp_path / job.outputs[1]).write_text(json.dumps(r))
    assert checks.check(job, 0) == "f != p*q + r"
    (tmp_path / job.outputs[1]).unlink()
    assert checks.check(job, 0).startswith("unreadable output: FileNotFoundError")

    timed, _ = jobs.make_jobs("float-spectra", 2, smoke=True)
    job = next(j for j in timed if j.check == "ks_fit")
    assert checks.check(job, _run_job(job, tmp_path, monkeypatch)) is None
    csv_path = tmp_path / job.outputs[0]
    lines = csv_path.read_text().splitlines()
    m, _, hi = lines[1].split(",")
    lines[1] = f"{m},1e-3,{hi}"
    csv_path.write_text("\n".join(lines) + "\n")
    assert "Bombieri floor" in checks.check(job, 0)
    assert checks.check(job, 4) == "exit code 4"
