"""fischer-lab benchmark: seeded CLI workloads, checked outputs, per-layer traces.

Run from the root of a checkout (the directory holding ``src/`` and
``BENCHMARK.json``)::

    python3 bench/run.py --workload exact-algebra --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --smoke

One process runs one workload as a closed loop with a single caller: the
fixed job list of the workload (one "pass") runs back to back through
``fischerlab.cli.main(argv)``, in-process, and passes repeat until
``--seconds`` is used up (at least three).  Every output is read back and
checked on the first pass and hashed on every pass; later passes must
reproduce the first pass byte for byte.

Times are calibrated against a reference kernel timed around every job
(see REF_NOMINAL_S and HOST_EXPONENT below, and NOTES.md).  With
``--trace 0`` the last stdout line carries the end-to-end metrics named
in BENCHMARK.json; with ``--trace 1`` the run first measures untraced
passes, then installs the tracer and reports the per-layer metrics of
the traced passes, plus the tracing overhead.  Lines before the last one
are a readable report of the same run.  A run record (and,
when traced, the spans) is written under ``.bench_out/``.

Exit status: 0 when every timed job ran and every output is right, 1
when a timed job raised, returned an undocumented exit code or wrote a
wrong output (the result line then says ``"correct": false``), 2 on a
usage or set-up error, with no result line.
"""

from __future__ import annotations

import os
import sys

# Threads are pinned before numpy is imported anywhere: one worker for the
# degree sweeps and one BLAS thread, at most nproc on any machine, so a
# run occupies one core whatever the machine's core count.
THREAD_PINS = {"FISCHER_LAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

import checks  # noqa: E402
import jobs as joblist  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}
MIN_PASSES = 3
# set-up samples per run, fresh interpreters of ~1.5 s each: five take
# a sixth of a run, and more would lengthen every run for setup_s alone
SETUP_REPS = 5
# no new pass starts once the run could not finish within this budget,
# whatever --seconds says (the harness must end within 180 s)
HARD_BUDGET_S = 120.0
# Host-speed calibration.  Other tenants of a shared host slow pure-Python
# code by up to 2x for seconds to minutes at a time, which can swamp any
# useful bound.  A fixed pure-Python reference kernel is timed before and
# after every job; a job's time is scaled by (REF_NOMINAL_S / the mean of
# the two) ** exponent.  The host's momentary speed cancels, the
# program's own speed does not.  Raw times stay in the run record.
REF_NOMINAL_S = 0.004
# The exponent per workload, for (wall_s and cpu_s, job_p50_ms,
# job_p90_ms): how strongly those jobs' times follow the kernel's.
# Python-bound jobs follow it fully; BLAS-bound ones (the large SVDs that
# make up float-spectra's totals and its 90th percentile) follow it with
# an exponent of 0.25-0.5.  Values are the least-spread ones over 26
# float-spectra runs; NOTES.md gives the measurements.
HOST_EXPONENT = {"exact-algebra": (1.0, 1.0, 1.0),
                 "float-spectra": (0.35, 0.75, 0.5),
                 "taylor-streams": (1.0, 1.0, 1.0)}


def reference_kernel():
    """Wall seconds of a fixed ~4 ms of Fraction, dict and list work,
    best of three so that caches the previous job left cold do not count."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 400):
            acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
            table[(i % 17, i % 5)] = [acc.numerator % 1000, str(i)]
        best = min(best, time.perf_counter() - t0)
    return best


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_program():
    """Import fischerlab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fischerlab", "cli.py")):
        raise SetupError(f"{SRC}/fischerlab not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import fischerlab
    import fischerlab.cli
    if not os.path.abspath(fischerlab.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported fischerlab from {fischerlab.__file__}, not {SRC}")
    return fischerlab.cli


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {**THREAD_PINS, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "seed": seed}


def write_inputs(job_list, directory):
    """Write every input file; returns a digest of all of them."""
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256()
    for job in job_list:
        for name, obj in sorted(job.inputs.items()):
            text = json.dumps(obj, sort_keys=True)
            with open(os.path.join(directory, name), "w") as fh:
                fh.write(text)
            digest.update(name.encode() + b"\0" + text.encode() + b"\0")
    return digest.hexdigest()


def setup_probe(workload, seed, smoke, directory):
    """Body of one set-up sample: fresh imports plus input generation.

    Prints the inputs' digest, then the mean time of the reference kernel
    run before and after the set-up in this process (the host speed the
    sample ran at) and how long measuring it took, which the caller
    subtracts.
    """
    t0 = time.perf_counter()
    ref_before = reference_kernel()
    ref_cost = time.perf_counter() - t0
    import_program()
    timed, probe = joblist.make_jobs(workload, seed, smoke)
    digest = write_inputs(timed + probe, directory)
    t0 = time.perf_counter()
    ref_after = reference_kernel()
    ref_cost += time.perf_counter() - t0
    print(digest, (ref_before + ref_after) / 2, ref_cost)


def measure_setup(workload, seed, smoke, reps):
    """Median wall time of ``reps`` fresh interpreters doing set-up.

    Each sample starts ``python3 bench/run.py --setup-probe``, which
    imports numpy, scipy and fischerlab and writes the workload's inputs;
    it is calibrated by the reference kernel timed inside it, with
    exponent 1.  Returns (calibrated median, raw median, input digests);
    the digests let the caller check that the seed alone determines the
    inputs.
    """
    raw, calibrated, digests = [], [], []
    for i in range(reps):
        directory = os.path.join(OUT, f"setup-{os.getpid()}-{i}")
        argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", directory,
                "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        shutil.rmtree(directory, ignore_errors=True)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{proc.stderr}")
        digest, ref, ref_cost = proc.stdout.split()[-3:]
        raw.append(elapsed - float(ref_cost))
        calibrated.append(raw[-1] * REF_NOMINAL_S / float(ref))
        digests.append(digest)
    return statistics.median(calibrated), statistics.median(raw), digests


def _digest_outputs(job):
    digest = hashlib.sha256()
    for path in job.outputs:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def call(cli, job):
    """Run one job; returns (exit code or None, error text or None)."""
    try:
        return cli.main(list(job.argv)), None
    except SystemExit as exc:  # argparse rejects the argv
        return None, f"SystemExit({exc.code})"
    except Exception as exc:  # noqa: BLE001 -- the job failed; count it, keep going
        return None, f"{type(exc).__name__}: {exc}"


class Run:
    """Passes over one workload's job list, with their checks and timings."""

    def __init__(self, cli, timed):
        self.cli = cli
        self.timed = timed
        self.digests = {}
        self.passes = []        # per pass: raw per-job wall_s, cpu_s and reference ref_s
        self.attempted = 0
        self.failed = []        # (job name, error)
        self.wrong = []         # (job name, reason)
        self.seq = 0
        self.job_names = {}
        self.tables = []        # per traced pass: the tracer's layer table

    def run_pass(self, tracer=None):
        first = not self.passes
        first_span = tracer.start_pass() if tracer else None
        wall, cpu, refs = [], [], [reference_kernel()]
        for job in self.timed:
            for path in job.outputs:
                if os.path.exists(path):
                    os.unlink(path)
            self.job_names[self.seq] = job.name
            if tracer:
                tracer.start_job(self.seq)
            self.seq += 1
            t0, c0 = time.perf_counter(), time.process_time()
            code, error = call(self.cli, job)
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            refs.append(reference_kernel())
            wall.append(dt)
            cpu.append(dc)
            self.attempted += 1
            if error is not None or code not in DOCUMENTED_EXIT_CODES:
                self.failed.append((job.name, error or f"undocumented exit code {code}"))
                continue
            reason = checks.check(job, code) if first or code != 0 else None
            if reason is None and code == 0:
                digest = _digest_outputs(job)
                if self.digests.setdefault(job.outputs[0], digest) != digest:
                    reason = "output bytes differ from the first pass"
            if reason is not None:
                self.wrong.append((job.name, reason))
        # a job's reference time: the mean of the kernel before and after it
        self.passes.append({"wall_s": wall, "cpu_s": cpu,
                            "ref_s": [(a + b) / 2 for a, b in zip(refs, refs[1:])],
                            "traced": tracer is not None})
        if tracer:
            self.tables.append(tracer.layer_table(first_span))

    def repeat(self, until, min_passes, tracer=None, start=None):
        """Run passes while the next one fits before ``until`` seconds from
        ``start``, and at least ``min_passes``, within the hard budget."""
        start = time.perf_counter() if start is None else start
        done, longest = 0, 0.0
        while True:
            t0 = time.perf_counter()
            self.run_pass(tracer)
            done += 1
            longest = max(longest, time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if elapsed + longest > HARD_BUDGET_S:
                break
            if done >= min_passes and elapsed + longest > until:
                break


def corrected(p, key, exponent):
    """One pass's per-job times (``key`` ``wall_s`` or ``cpu_s``) scaled by
    (REF_NOMINAL_S / reference time) ** exponent."""
    return [t * (REF_NOMINAL_S / r) ** exponent for t, r in zip(p[key], p["ref_s"])]


def pass_time(passes, key, exponent):
    """Median over ``passes`` of the corrected pass total."""
    return statistics.median(sum(corrected(p, key, exponent)) for p in passes)


def end_to_end(run, setup, peak_rss_mib, workload):
    """End-to-end metrics by name; raw per-job times stay in ``run.passes``."""
    total, p50, p90 = HOST_EXPONENT[workload]
    plain = [p for p in run.passes if not p["traced"]]
    lat50 = [t * 1e3 for p in plain for t in corrected(p, "wall_s", p50)]
    lat90 = [t * 1e3 for p in plain for t in corrected(p, "wall_s", p90)]
    return {"wall_s": pass_time(plain, "wall_s", total),
            "cpu_s": pass_time(plain, "cpu_s", total),
            "job_p50_ms": statistics.median(lat50),
            "job_p90_ms": statistics.quantiles(lat90, n=10, method="inclusive")[8],
            "setup_s": setup[0], "raw_setup_s": setup[1],
            "peak_rss_mib": peak_rss_mib,
            "fail_frac": len(run.failed) / run.attempted,
            "host_speed": statistics.median(
                REF_NOMINAL_S / statistics.median(p["ref_s"]) for p in plain)}


def probe_fail_fracs(probe_results):
    """Failed share of the known-defect probe jobs, per probe metric."""
    outcomes = {}
    for r in probe_results:
        outcomes.setdefault(r["metric"], []).append(r["error"] is not None)
    return {metric: sum(failed) / len(failed) for metric, failed in outcomes.items()}


def per_layer(run, probe_results, workload):
    traced = [p for p in run.passes if p["traced"]]
    plain = [p for p in run.passes if not p["traced"]]
    total = HOST_EXPONENT[workload][0]
    merged = {key: statistics.median(t[key] for t in run.tables) for key in run.tables[0]}
    merged["trace.overhead_s"] = (pass_time(traced, "wall_s", total)
                                  - pass_time(plain, "wall_s", total))
    merged["cli.main.fail_frac"] = len(run.failed) / run.attempted
    merged.update(probe_fail_fracs(probe_results))
    return merged


def run_probe(cli, probe):
    """Known-defect jobs: run once, untraced and untimed; failures counted."""
    results = []
    for job in probe:
        code, error = call(cli, job)
        if error is None:
            error = checks.check(job, code)
        results.append({"job": job.name, "metric": job.probe, "error": error})
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(joblist.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small job list, two passes, one set-up sample")
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.smoke, args.setup_probe)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def run_all(args):
    """Each workload in a fresh process of its own, one after the other."""
    status = 0
    for workload in joblist.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = max(status, subprocess.run(argv, cwd=ROOT, timeout=600).returncode)
    return status


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise SetupError(f"{path} not found")
    with open(path) as fh:
        return json.load(fh)


def run_workload(args):
    started = time.perf_counter()
    spec = load_spec()
    cli = import_program()
    env = environment(args.seed)
    timed, probe = joblist.make_jobs(args.workload, args.seed, args.smoke)
    # setup_s is an end-to-end metric: a traced run takes one sample, for
    # the inputs check only
    *setup, probe_digests = measure_setup(args.workload, args.seed, args.smoke,
                                          1 if args.smoke or args.trace else SETUP_REPS)
    rundir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    inputs_digest = write_inputs(timed + probe, rundir)
    os.chdir(rundir)
    try:
        run = Run(cli, timed)
        seconds = 0.0 if args.smoke else args.seconds
        tracer = None
        if args.trace:
            # a third of the time untraced, for the overhead, then traced;
            # at least two passes a side, so neither median is one pass
            start = time.perf_counter()
            run.repeat(seconds / 3, 1 if args.smoke else 2, start=start)
            tracer = Tracer()
            tracer.install()
            try:
                run.repeat(seconds, 1 if args.smoke else 2, tracer, start=start)
            finally:
                tracer.uninstall()
        else:
            run.repeat(seconds, 2 if args.smoke else MIN_PASSES)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe_results = run_probe(cli, probe)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(rundir, ignore_errors=True)

    if any(d != inputs_digest for d in probe_digests):
        run.wrong.append(("inputs", "set-up probe generated different inputs for the seed"))
    e2e = end_to_end(run, setup, peak_rss_mib, args.workload)
    layers = per_layer(run, probe_results, args.workload) if args.trace else {}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    # a timed job that crashed is as wrong as a wrong output: its shortened
    # time would otherwise read as a speed-up
    correct = not run.wrong and not run.failed

    elapsed_s = time.perf_counter() - started
    report(args, env, run, e2e, layers, probe_results, spec, elapsed_s)
    record = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              "elapsed_s": elapsed_s,
              "environment": env, "jobs": [job.name for job in timed],
              "inputs_digest": inputs_digest,
              "outputs_digest": hashlib.sha256("".join(
                  v for _, v in sorted(run.digests.items())).encode()).hexdigest(),
              "end_to_end": e2e, "per_layer": layers, "passes": run.passes,
              "failed": run.failed, "wrong": run.wrong, "probe": probe_results}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT, f"{tag}.spans.tsv"), run.job_names)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failed), "metrics": metrics}))
    return 0 if correct else 1


def report(args, env, run, e2e, layers, probe_results, spec, elapsed_s):
    """Readable lines before the result line."""
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    plain = [p for p in run.passes if not p["traced"]]
    samples = sum(len(p["wall_s"]) for p in plain)
    print(f"# workload {args.workload}: {len(run.timed)} jobs per pass, "
          f"{len(plain)} untraced passes, {samples} job latencies, "
          f"{len(run.passes) - len(plain)} traced passes, run took {elapsed_s:.1f} s")
    print("# " + " | ".join(f"{m['name']} {e2e[m['name']]:.6g} {m['unit']}"
                            for m in spec["end_to_end"])
        + f" | raw_setup_s {e2e['raw_setup_s']:.6g} s"
        + f" | fail_frac {e2e['fail_frac']:.6g} ({len(run.failed)}/{run.attempted})"
        + f" | host_speed {e2e['host_speed']:.4g}")
    print("# host-speed exponents: wall_s and cpu_s {}, job_p50_ms {}, job_p90_ms {}, setup_s 1"
          .format(*HOST_EXPONENT[args.workload]))
    if layers:
        print(f"# tracing overhead per pass: {layers['trace.overhead_s']:.6g} s")
        top = sorted((k for k in layers if k.endswith(".self_s")),
                     key=lambda k: -layers[k])[:5]
        print("# largest self time per pass: " +
              ", ".join(f"{k[:-7]} {layers[k]:.4g} s" for k in top))
    for name, error in run.failed:
        print(f"# FAILED {name}: {error}")
    for name, reason in run.wrong:
        print(f"# WRONG {name}: {reason}")
    for r in probe_results:
        print(f"# known-defect probe {r['job']}: {r['error'] or 'ok'}")


if __name__ == "__main__":
    sys.exit(main())
