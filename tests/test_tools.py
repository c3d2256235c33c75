"""tools/job_digests.py: the byte-identity check of the benchmark jobs."""

import importlib.util
import json
import math
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "job_digests.py"
_spec = importlib.util.spec_from_file_location("job_digests", TOOL)
job_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(job_digests)


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True,
                          text=True, check=False, cwd=ROOT)


def test_job_digests_compare(tmp_path):
    records = tmp_path / "a.json"
    proc = run_tool("--size", "tiny", "--out", str(records))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(records.read_text())
    keys = sorted(data)
    assert {key.split("/")[0] for key in keys} == {"group-exact", "fd-curves"}
    assert {key.split("/")[1] for key in keys} == {"s1", "s2"}
    # the --out arrays of `solve`, with their nodal error against the exact
    # solution, the problem's boundary polynomial
    solves = [rec["out"] for key, rec in data.items() if key.endswith("-solve")]
    assert solves and all(out["path"].endswith(".npz") for out in solves)
    assert all(0.0 <= out["nodal_error"] <= 1e-10 for out in solves)
    assert all(rec["seconds"] > 0.0 for rec in data.values())

    same = run_tool("--compare", str(records), str(records))
    assert same.returncode == 0
    report = same.stdout.strip().split("\n")
    assert report[0] == f"0 of {len(keys)} jobs differ"
    # then the timing of each workload and seed
    assert [line.split(":")[0] for line in report[1:]] == [
        f"{w}/s{s}" for w in ("fd-curves", "group-exact") for s in (1, 2)]
    assert all(line.endswith("B/A 1.000") for line in report[1:])

    # move one CSV cell by a relative 1e-3 and drop one job
    curve = next(key for key in keys if data[key]["stdout"].startswith("r,D,H,N"))
    lines = data[curve]["stdout"].split("\n")
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-3))
    lines[1] = ",".join(cells)
    data[curve]["stdout"] = "\n".join(lines)
    dropped = keys[0] if keys[0] != curve else keys[1]
    del data[dropped]
    changed = tmp_path / "b.json"
    changed.write_text(json.dumps(data))
    diff = run_tool("--compare", str(records), str(changed))
    assert diff.returncode == 1
    report = diff.stdout.strip().split("\n")
    assert f"{dropped}: only in A" in report
    line = next(text for text in report if text.startswith(f"{curve}:"))
    assert "differs in stdout" in line
    # a CSV names the column of the largest change and its absolute change
    relative, where = line.split("largest relative number change ")[1].split(" (")
    assert abs(float(relative) - 1e-3 / (1 + 1e-3)) < 1e-6
    column, absolute = where.rstrip(")").split(", absolute ")
    assert column == "H"
    assert float(absolute) == pytest.approx(float(cells[2]) - float(cells[2]) / (1 + 1e-3),
                                            rel=1e-2)
    assert report[-5] == f"2 of {len(keys)} jobs differ"


def _record(stdout, seconds):
    return {"rc": 0, "stdout": stdout, "stderr": "", "sha256": stdout, "seconds": seconds}


def test_compare_ignores_seconds_and_timing_sums_them():
    a = {"w/s1/x": _record("1\n", 0.25), "w/s1/y": _record("2\n", 0.5),
         "w/s2/x": _record("1\n", 0.125)}
    b = {"w/s1/x": _record("1\n", 0.5), "w/s1/y": _record("2\n", 0.25),
         "w/s2/x": _record("3\n", 0.375)}
    lines = job_digests.compare(a, b)
    assert len(lines) == 1 and lines[0].startswith("w/s2/x: differs in stdout")
    assert job_digests.timing(a, b) == ["w/s1: A 0.7500 s, B 0.7500 s, B/A 1.000",
                                        "w/s2: A 0.1250 s, B 0.3750 s, B/A 3.000"]
    del a["w/s1/y"]["seconds"]  # a record from before the timing reads nan
    assert job_digests.timing(a, b)[0] == "w/s1: A nan s, B 0.7500 s, B/A nan"


def test_compare_prints_the_nodal_error_of_both_sides():
    # a changed array file: the line ends with the nodal error of A and of B
    a = {"w/s1/solve": {**_record("grid=[9]\n", 0.5),
                        "out": {"path": "u.npz", "sha256": "a", "nodal_error": 1e-3}},
         "w/s1/new": {**_record("", 0.5), "out": {"path": "v.npz", "sha256": "a"}}}
    b = {"w/s1/solve": {**_record("grid=[9]\n", 0.5),
                        "out": {"path": "u.npz", "sha256": "b", "nodal_error": 2.5e-14}},
         "w/s1/new": {**_record("", 0.5),
                      "out": {"path": "v.npz", "sha256": "b", "nodal_error": 0.0}}}
    lines = job_digests.compare(a, b)
    assert lines == ["w/s1/new: differs in out v.npz; largest relative number change 0; "
                     "nodal error A -, B 0",
                     "w/s1/solve: differs in out u.npz; largest relative number change 0; "
                     "nodal error A 0.001, B 2.5e-14"]


def test_a_job_whose_repeat_differs_exits_naming_it():
    # the runs of a job arrive one pass apart; each keeps the least time
    records = {}
    for repeat, seconds in enumerate([0.5, 0.25, 0.75]):
        job_digests._fold(records, "w/s1/x", _record("1\n", seconds), repeat)
        job_digests._fold(records, "w/s1/y", _record("2\n", 1.0 - seconds), repeat)
    assert records == {"w/s1/x": _record("1\n", 0.25), "w/s1/y": _record("2\n", 0.25)}
    with pytest.raises(SystemExit, match=f"^w/s1/x: run 4 of {job_digests.REPEATS} differs"):
        job_digests._fold(records, "w/s1/x", _record("0\n", 0.125), 3)


def test_run_jobs_interleaves_the_repeats(monkeypatch):
    # one pass over the whole job list per repeat, not REPEATS runs in a row
    order = []
    monkeypatch.setattr(job_digests, "_run",
                        lambda cli, argv: order.append(tuple(argv)) or _record("", 0.5))
    monkeypatch.setattr(sys, "path", list(sys.path))  # run_jobs puts bench/ on it
    records = job_digests.run_jobs(str(ROOT), "tiny")
    sys.modules.pop("gen")
    jobs = len(records)
    assert len(order) == job_digests.REPEATS * jobs
    assert all(order[i] == order[i % jobs] for i in range(len(order)))
    assert all(record["seconds"] == 0.5 for record in records.values())


@pytest.mark.parametrize("stdout_a, stdout_b, change", [
    ("max_residual=4.000000e-01\n", "max_residual=5.000000e-01\n", 0.2),
    ('[{"detail": "max residual 2.0e-03", "passed": true}]',
     '[{"detail": "max residual 1.0e-03", "passed": true}]', 0.5),
    ("finite nan,-inf,1.0\n", "finite nan,-inf,2.0\n", 0.5),
    ("N=nan\n", "N=1.0\n", math.inf),
    ("max_residual=1e-3 nondecreasing=true\n", "max_residual=1e-3 nondecreasing=false\n",
     math.inf),
], ids=["residual-line", "verify-json", "words-nan-inf", "nan-to-number", "word-differs"])
def test_job_digests_compare_reads_numbers_in_any_text(tmp_path, stdout_a, stdout_b, change):
    # the change of a job that is not a CSV: the numbers of two texts that
    # differ only in their numbers ("finite" is a word, not inf)
    paths = []
    for name, stdout in (("a", stdout_a), ("b", stdout_b)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"job": {"rc": 0, "stdout": stdout, "stderr": "",
                                            "sha256": name}}))
        paths.append(str(path))
    proc = run_tool("--compare", *paths)
    assert proc.returncode == 1
    line = proc.stdout.strip().split("\n")[0]
    assert line.startswith("job: differs in stdout; largest relative number change ")
    assert float(line.rsplit(" ", 1)[1]) == pytest.approx(change, rel=1e-3)
