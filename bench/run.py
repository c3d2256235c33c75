"""Benchmark of the subfreq CLI: one closed-loop client, one job at a time.

    python3 bench/run.py --workload group-exact --seed 1 --seconds 30 --trace 0

Every job is a call to `subfreq.cli.entry(argv)` on input files written by
bench/gen.py from the seed.  The run passes over the workload's job list
ceil(seconds / nominal pass time) times (at least twice; see
gen.PASS_SECONDS), checks every job's output, and prints a table of
metrics followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
passes alternate between untraced and traced, the metrics are the
per-layer ones from the traced passes, and the tracing overhead is the
difference between the two kinds of pass.  See bench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported by anything below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_run")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
TAIL_BEYOND = 10
EPS = 2.0 ** -52

sys.path.insert(0, BENCH)
import gen  # noqa: E402
from checks import run_check  # noqa: E402
from tracing import Tracer  # noqa: E402


class Context:
    """What the checks need besides a job's own output."""

    def __init__(self, inputs, expected, entry):
        self.inputs = inputs
        self.expected = expected
        self._entry = entry
        self._exact = {}

    def path(self, name):
        return os.path.join(self.inputs, name)

    def expected_digest(self, job_id):
        return self.expected.get(job_id)

    def exact_output(self, argv):
        """stdout of a reference command, run once, outside the timed loop."""
        key = tuple(argv)
        if key not in self._exact:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = self._entry(list(argv))
            if rc != 0:
                raise ValueError(f"reference command exited {rc}: {' '.join(argv)}")
            self._exact[key] = out.getvalue()
        return self._exact[key]


def _digest(text, arrays):
    h = hashlib.sha256(text.encode())
    for arr in arrays:
        h.update(repr((arr.shape, arr.dtype.str)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def run_job(cli, job, inputs):
    """One job: returns (latency_s, output record)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    rc = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = perf_counter()
            try:
                rc = cli.entry(list(job["argv"]))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # the client keeps running; the job counts as failed
                error = traceback.format_exc(limit=3)
            latency = perf_counter() - t0
    arrays = []
    out_file = job["expect"].get("out")
    if out_file and rc == 0:
        with np.load(os.path.join(inputs, out_file)) as data:
            arrays = [data[f"arr_{i}"] for i in range(len(data.files) - 1)] + [data["values"]]
    text = stdout.getvalue()
    return latency, {"rc": rc, "stdout": text, "stderr": stderr.getvalue(), "error": error,
                     "arrays": arrays, "digest": _digest(f"{rc}\n{text}", arrays),
                     "warnings": [str(w.message) for w in caught]}


def measure(cli, jobs, inputs, ctx, passes, trace):
    """Closed loop: `passes` rounds over the job list, run in the input
    directory; returns the rounds and the checked outcomes."""
    tracer = Tracer() if trace else None
    rounds = []
    first = {}
    cwd = os.getcwd()
    os.chdir(inputs)
    try:
        for _ in range(max(passes, MIN_ROUNDS)):
            rounds.append(_round(cli, jobs, inputs, tracer, len(rounds), first))
        outcomes = []
        for idx, job in enumerate(jobs):
            out = first[job["id"]]
            passed, detail, figures = run_check(job, out, ctx)
            repeats_same = all(r["digest"][idx] == out["digest"] for r in rounds)
            outcomes.append({"id": job["id"], "passed": passed, "detail": detail,
                             "figures": figures, "deterministic": repeats_same})
    finally:
        os.chdir(cwd)
    return rounds, outcomes, tracer


def _round(cli, jobs, inputs, tracer, number, first):
    """One pass over the job list; keeps the first output of each job."""
    # traced runs: an untraced warm-up round, then traced and untraced in turn
    traced = tracer is not None and number % 2 == 1
    record = {"traced": traced, "latency": [], "digest": [], "warnings": 0,
              "sobol_warnings": 0}
    gc.collect()  # no pass pays for the garbage of the one before it
    if traced:
        tracer.install()
    try:
        for idx, job in enumerate(jobs):
            if traced:
                tracer.current_job = idx
            latency, out = run_job(cli, job, inputs)
            record["latency"].append(latency)
            record["digest"].append(out["digest"])
            record["warnings"] += len(out["warnings"])
            record["sobol_warnings"] += sum("Sobol" in w for w in out["warnings"])
            first.setdefault(job["id"], out)
    finally:
        if traced:
            tracer.uninstall()
    record["wall"] = sum(record["latency"])
    return record


def tail(values):
    """(value, percentile): the highest order statistic with at least
    TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(n - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / n


def summarize(jobs, rounds, outcomes, setup_times):
    """End-to-end metrics plus the figures printed alongside them."""
    untraced = [r for r in rounds if not r["traced"]]
    latencies = [x for r in untraced for x in r["latency"]]
    attempted = len(jobs) * len(rounds)
    failed = 0
    for idx, oc in enumerate(outcomes):
        for r in rounds:
            same = r["digest"][idx] == rounds[0]["digest"][idx]
            failed += not (oc["passed"] and same)
    figures = {}
    for oc in outcomes:
        for key, val in oc["figures"].items():
            figures[key] = max(figures.get(key, -math.inf), val)
    tail_value, tail_pct = tail(latencies)
    value_err = figures.get("value_err", math.nan)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # best of the passes per job: the estimate least disturbed by a
        # shared host; the latency distribution below keeps the slow passes
        "wall_s": (sum(min(r["latency"][i] for r in untraced) for i in range(len(jobs))), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "accuracy_digits": (-math.log10(max(value_err, EPS)), "digits"),
    }
    info = {
        "failed_frac": (failed / attempted, "ratio"),
        "freq_err_max": (figures.get("freq_err"), "1"),
        "identity_resid_max": (figures.get("identity_resid"), "1"),
        "fd_err_max": (figures.get("fd_err"), "1"),
        "fd_freq_err": (figures.get("fd_freq_err"), "1"),
        "job_tail_pct": (tail_pct, "%"),
        "job_samples": (len(latencies), "count"),
        "rounds": (len(untraced), "count"),
        "warnings": (sum(r["warnings"] for r in untraced), "count"),
    }
    return attempted, failed, metrics, info


def environment():
    import numpy
    import scipy
    import sympy

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "nproc": os.cpu_count(), "pinned_cpu": max(os.sched_getaffinity(0)), "cpu": cpu}


def setup(workload, seed, size, work):
    """Time SETUP_REPEATS fresh interpreters that import subfreq and write
    the inputs; returns (times, input directory)."""
    times, dirs = [], []
    for i in range(SETUP_REPEATS):
        out = os.path.join(work, f"inputs{i}")
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "gen.py"),
                               "--workload", workload, "--seed", str(seed),
                               "--out", out, "--size", size],
                              capture_output=True, text=True, check=False)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
        dirs.append(out)
    contents = []
    for d in dirs:
        files = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                files[name] = fh.read()
        contents.append(files)
    if any(c != contents[0] for c in contents):
        raise SystemExit("set-up is not deterministic: input files differ between repeats")
    return times, dirs[0]


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(gen.SIZES), default="full",
                        help="'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    # one core for the whole run, so the process never migrates
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sf = gen.import_subfreq()
    import subfreq.cli as cli

    for name in gen.LAZY_IMPORTS:
        importlib.import_module(name)

    work = os.path.join(WORK, f"{args.workload}-{args.size}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setup_times, inputs = setup(args.workload, args.seed, args.size, work)
    with open(os.path.join(inputs, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[args.size]

    ctx = Context(inputs, expected, cli.entry)
    passes = math.ceil(args.seconds / gen.PASS_SECONDS[args.workload])
    rounds, outcomes, tracer = measure(cli, jobs, inputs, ctx, passes, args.trace)
    attempted, failed, metrics, info = summarize(jobs, rounds, outcomes, setup_times)
    env = environment()

    print(f"# subfreq {sf.__version__} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("# " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for idx, oc in enumerate(outcomes):
        lat = statistics.median(r["latency"][idx] for r in rounds)
        status = "ok" if oc["passed"] and oc["deterministic"] else "FAILED"
        print(f"# job {oc['id']:<28} median {lat:8.4f} s  {status}  {oc['detail']}"
              + ("" if oc["deterministic"] else "  (output differs between repeats)"))
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:<20} {_fmt(value):>14} {unit}")

    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = {"args": vars(args), "env": env, "setup_times": setup_times,
              "metrics": result_metrics,
              "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
              "jobs": outcomes, "rounds": rounds}
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        warm = [r for r in rounds[1:] if not r["traced"]] or rounds[:1]
        overhead = (statistics.median(r["wall"] for r in traced)
                    - statistics.median(r["wall"] for r in warm))
        extra = {"trace.overhead_s": (overhead, "s"),
                 "cli.jobs": (len(jobs), "count"),
                 "groups.warnings": (sum(r["sobol_warnings"] for r in traced) / len(traced),
                                     "count"),
                 "verify.checks_failed": (sum(oc["figures"].get("verify_failed", 0)
                                              for oc in outcomes), "count")}
        result_metrics = tracer.layer_metrics(len(traced), extra)
        tracer.write(os.path.join(work, "spans.csv.gz"), [job["id"] for job in jobs])
        for name, m in result_metrics.items():
            print(f"{name:<36} {_fmt(m['value']):>14} {m['unit']}")
        report["layers"] = result_metrics
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
