"""Byte-identity check of the benchmark jobs across two checkouts.

Run every `jobs.json` argv of both benchmark workloads, at seeds 1 and 2,
through `subfreq.cli.entry` of one checkout, and write a JSON record per
job: the sha256 of exit code + stdout + stderr, the sha256 of each file the
job writes with `--out`, the text outputs themselves (stdout and text
`--out` files) so that changed CSV cells can be measured, and for a
`solve --out` array file the max nodal error against the boundary
polynomial of the job's problem file, the exact solution of every
benchmark problem.  The whole job
list runs REPEATS times, one pass after the other, so a job's runs are
spread over the run; its record holds `seconds`, the least time of `entry`
over those runs, and the tool exits 1 naming the first job whose repeat
differs from its first run.

    python3 tools/job_digests.py --checkout PARENT --out parent.json
    python3 tools/job_digests.py --out change.json
    python3 tools/job_digests.py --compare parent.json change.json

The checkout's own `bench/gen.py` writes the inputs and its own `src/`
provides `subfreq`, so each checkout runs in its own interpreter.  As in
the benchmark, BLAS and OpenMP run on one thread.  `--compare` prints every
job whose record differs, with the largest relative change of a number in
its text outputs (|a - b| / max(|a|, |b|); inf when the texts differ in
anything but their numbers), followed for a CSV by the column of that
number and its absolute change, then the nodal error of A and of B when
the job writes an array file, and exits 1 when any job differs.  It
ignores `seconds`, and ends with one line per workload and seed: the sum of
the job `seconds` of A and of B, and their ratio B / A.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported by anything below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
REPEATS = 5  # passes over the job list; a job's seconds is the least of its runs
# a decimal number, or nan / inf as whole words ("finite" holds no inf)
NUMBER = re.compile(r"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b))")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _out_file(argv):
    """The path after --out in a job's argv, if any."""
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_jobs(checkout, size="full"):
    """{"<workload>/s<seed>/<job id>": record} for every job of the checkout:
    REPEATS passes over the whole job list, so that the repeats of a job are
    spread over the run rather than back to back."""
    sys.path.insert(0, os.path.join(checkout, "bench"))
    import gen

    sf = gen.import_subfreq()
    import subfreq.cli as cli

    records = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        batches = []
        for workload in gen.WORKLOADS:
            for seed in SEEDS:
                inputs = os.path.join(tmp, f"{workload}-{seed}")
                jobs = gen.generate(sf, workload, seed, inputs, size)
                batches.append((inputs, [(f"{workload}/s{seed}/{job['id']}", job["argv"])
                                         for job in jobs]))
        for repeat in range(REPEATS):
            for inputs, jobs in batches:
                os.chdir(inputs)
                try:
                    for key, argv in jobs:
                        _fold(records, key, _run(cli, argv), repeat)
                finally:
                    os.chdir(cwd)
    return records


def _fold(records, key, run, repeat):
    """Fold run number `repeat` (from 0) of a job into its record: the first
    run's record, with `seconds` the least time so far; exits 1 naming the
    job when the run's record differs from the first."""
    seconds = run.pop("seconds")
    first = records.setdefault(key, {**run, "seconds": seconds})
    if {**run, "seconds": first["seconds"]} != first:
        raise SystemExit(f"{key}: run {repeat + 1} of {REPEATS} differs from the first run")
    first["seconds"] = min(first["seconds"], seconds)


def _run(cli, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            rc = cli.entry(list(argv))
        except SystemExit as exc:
            rc = exc.code
        seconds = time.perf_counter() - start
    record = {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
              "seconds": seconds}
    record["sha256"] = _sha(f"{rc}\n{record['stdout']}\n{record['stderr']}".encode())
    path = _out_file(argv)
    if path and os.path.exists(path):
        with open(path, "rb") as fh:
            data = fh.read()
        record["out"] = {"path": path, "sha256": _sha(data)}
        if not path.endswith(".npz"):
            record["out"]["text"] = data.decode("utf-8")
        elif "--problem" in argv:
            record["out"]["nodal_error"] = nodal_error(argv[argv.index("--problem") + 1], path)
    return record


def nodal_error(problem, path):
    """max |u - P| over the nodes of an array file (`*axes, values=`), P the
    boundary polynomial of the problem file, evaluated by the checkout's
    own benchmark check (`bench/checks.py`, on sys.path with `gen`)."""
    import checks

    with open(problem, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(os.path.dirname(problem), spec["boundary"][len("poly:"):]),
              encoding="utf-8") as fh:
        terms = json.load(fh)
    with np.load(path) as data:
        axes = [data[f"arr_{i}"] for i in range(len(data.files) - 1)]
        values = data["values"]
    mesh = [x.ravel() for x in np.meshgrid(*axes, indexing="ij")]
    m = spec["m"]
    exact = checks.eval_terms(terms, np.stack(mesh[:m], axis=1), np.stack(mesh[m:], axis=1))
    return float(np.max(np.abs(values - exact.reshape(values.shape))))


def _number_change(a, b):
    """Relative change of two numbers written as text: 0 when equal (NaN
    included), inf when only one is finite."""
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _columns(text):
    """The column name of each number of a CSV text (a header of names, then
    rows of one number per cell), in order; None for any other text."""
    lines = text.strip().split("\n")
    names = lines[0].split(",")
    if len(lines) < 2 or len(names) < 2 or NUMBER.search(lines[0]):
        return None
    cells = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(names) or not all(NUMBER.fullmatch(c) for c in row) for row in cells):
        return None
    return names * len(cells)


def text_change(text_a, text_b):
    """(relative, absolute, column) of the largest relative change between the
    numbers of two texts (a CSV, a `max_residual=...` line, a JSON report):
    column is the CSV column of that number, None for other texts or when no
    number changed; (inf, inf, None) when the texts differ in anything but
    their numbers."""
    parts_a, parts_b = NUMBER.split(text_a), NUMBER.split(text_b)
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return math.inf, math.inf, None
    changes = [(_number_change(a, b), i) for i, (a, b) in
               enumerate(zip(parts_a[1::2], parts_b[1::2]))]
    relative, i = max(changes, default=(0.0, None))
    if not relative:
        return 0.0, 0.0, None
    absolute = abs(float(parts_a[2 * i + 1]) - float(parts_b[2 * i + 1]))
    columns = _columns(text_a)
    return relative, absolute, columns[i] if columns else None


def compare(records_a, records_b):
    """Lines describing every job whose record differs; empty when none."""
    lines = []
    for key in sorted(set(records_a) | set(records_b)):
        a, b = records_a.get(key), records_b.get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in {'B' if a is None else 'A'}")
            continue
        parts = [name for name in ("rc", "stdout", "stderr") if a[name] != b[name]]
        out_a, out_b = a.get("out", {}), b.get("out", {})
        if out_a.get("sha256") != out_b.get("sha256"):
            parts.append(f"out {out_a.get('path') or out_b.get('path')}")
        if not parts:
            continue
        changes = [text_change(a["stdout"], b["stdout"])]
        if "text" in out_a and "text" in out_b:
            changes.append(text_change(out_a["text"], out_b["text"]))
        relative, absolute, column = max(changes, key=lambda change: change[0])
        where = f" ({column}, absolute {absolute:.3g})" if column else ""
        errors = [out.get("nodal_error") for out in (out_a, out_b)]
        nodal = ("" if errors == [None, None] else
                 "; nodal error " + ", ".join(f"{side} {'-' if e is None else f'{e:.3g}'}"
                                              for side, e in zip("AB", errors)))
        lines.append(f"{key}: differs in {', '.join(parts)}; "
                     f"largest relative number change {relative:.3g}{where}{nodal}")
    return lines


def timing(records_a, records_b):
    """One line per workload and seed: the sums of the job `seconds` of A and
    of B and their ratio B / A (nan where a record has no `seconds`)."""
    sums = {}
    for side, records in enumerate((records_a, records_b)):
        for key, record in records.items():
            group = sums.setdefault(key.rsplit("/", 1)[0], [0.0, 0.0])
            group[side] += record.get("seconds", math.nan)
    return [f"{group}: A {a:.4f} s, B {b:.4f} s, B/A {b / a if a else math.nan:.3f}"
            for group, (a, b) in sorted(sums.items())]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", default=ROOT,
                        help="repository whose bench/ and src/ are run (default: this one)")
    parser.add_argument("--out", help="write the job records to this JSON file")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two record files instead of running jobs")
    args = parser.parse_args(argv)
    if args.compare:
        records = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
        lines = compare(*records)
        total = len(set(records[0]) | set(records[1]))
        print("\n".join(lines + [f"{len(lines)} of {total} jobs differ"]
                        + timing(*records)))
        return 1 if lines else 0
    if not args.out:
        parser.error("--out is required unless --compare is given")
    records = run_jobs(os.path.abspath(args.checkout), args.size)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(records)} jobs -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
