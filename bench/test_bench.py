"""Tests of the benchmark itself (not part of the package's test suite):

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import run  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_run_is_correct_and_complete(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    spec = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_same_seed_gives_same_inputs(tmp_path):
    sf = gen.import_subfreq()
    for workload in gen.WORKLOADS:
        a = gen.generate(sf, workload, 7, str(tmp_path / "a"), "tiny")
        b = gen.generate(sf, workload, 7, str(tmp_path / "b"), "tiny")
        assert a == b
        for name in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_wrong_expectation_counts_as_failure(tmp_path):
    sf = gen.import_subfreq()
    import subfreq.cli as cli

    inputs = str(tmp_path)
    jobs = gen.generate(sf, "group-exact", 5, inputs, "tiny")
    jobs = [j for j in jobs if j["id"] in ("h1-k1", "h1-k2", "verify-psi-error")]
    jobs[1]["expect"]["kappa"] = 3          # the input has degree 2
    jobs[2]["expect"]["rc"] = 0             # the injected fault makes verify exit 1
    ctx = run.Context(inputs, {}, cli.entry)
    rounds, outcomes, _ = run.measure(cli, jobs, inputs, ctx, 2, False)
    attempted, failed, _, info = run.summarize(jobs, rounds, outcomes, [1.0])
    assert [oc["passed"] for oc in outcomes] == [True, False, False]
    assert attempted == 3 * len(rounds) and failed == 2 * len(rounds)
    assert info["failed_frac"][0] == pytest.approx(2 / 3)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "group-exact", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == pytest.approx(75.0)
