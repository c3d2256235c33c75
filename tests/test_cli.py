import json
from fractions import Fraction

import numpy as np
import pytest

import subfreq as sf
from subfreq.cli import entry
from subfreq.polynomials import Polynomial
from subfreq.quadrature import MAX_RULE_NODES


@pytest.fixture()
def h1_file(tmp_path):
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(sf.group_to_json(sf.heisenberg(1))))
    return str(path)


@pytest.fixture()
def x_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('[{"coeff":"1","z":[1,0],"t":[0]}]')
    return str(path)


def test_group_report(h1_file, capsys):
    assert entry(["group", "--group", h1_file]) == 0
    out = capsys.readouterr().out
    assert "m=2" in out and "q=4" in out.lower()
    assert "htype=true" in out
    assert "metivier=true" in out


def test_group_report_json(h1_file, capsys):
    assert entry(["group", "--group", h1_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["Q"] == 4 and data["htype"] is True


def test_group_json_quaternionic(tmp_path, capsys):
    # k = 3: the Metivier check takes its Sobol path
    quaternionic = [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
                    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]]
    path = tmp_path / "quaternionic.json"
    path.write_text(json.dumps(sf.group_to_json(sf.make_group(4, 3, quaternionic))))
    assert entry(["group", "--group", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"m": 4, "k": 3, "N": 7, "Q": 10, "htype": True, "metivier": True}


def test_group_6d_report(tmp_path, capsys):
    path = tmp_path / "g6.json"
    path.write_text(json.dumps(sf.group_to_json(sf.example_group_6d())))
    assert entry(["group", "--group", str(path)]) == 0
    assert "Q=8" in capsys.readouterr().out


def test_missing_file_exit_2(capsys):
    assert entry(["group", "--group", "/no/such/file.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_group_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert entry(["group", "--group", str(path)]) == 2


def test_harmonics_round_trip(h1_file, capsys):
    assert entry(["harmonics", "--group", h1_file, "--degree", "2",
                  "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    g = sf.heisenberg(1)
    assert len(payload) == 3
    for data in payload:
        p = Polynomial.from_json(data, m=2, k=1)
        assert sf.sublaplacian(g, p).is_zero()
        # round-trips bit-exactly
        assert p.to_json() == data


def test_frequency_csv(h1_file, x_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    args = ["frequency", "--group", h1_file, "--poly", x_file,
            "--rmin", "0.5", "--rmax", "2", "--steps", "4",
            "--resolution", "16", "--out", str(out)]
    assert entry(args) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "r,D,H,N,W_kappa,M_kappa,discrepancy_norm"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    for row in rows:
        assert float(row[3]) == pytest.approx(1.0, rel=1e-4)
    # determinism: rerun is byte-identical
    first = out.read_text()
    assert entry(args) == 0
    assert out.read_text() == first


def test_frequency_resolution_too_large_exit_2(tmp_path, capsys):
    group = tmp_path / "h3.json"
    group.write_text(json.dumps(sf.group_to_json(sf.heisenberg(3))))
    poly = tmp_path / "x.json"
    poly.write_text('[{"coeff":"1","z":[1,0,0,0,0,0],"t":[0]}]')
    # the default resolution 32 needs about 182M nodes on H^3
    assert entry(["frequency", "--group", str(group), "--poly", str(poly)]) == 2
    err = capsys.readouterr().err
    assert "error" in err and f"the limit is {MAX_RULE_NODES}" in err


def test_frequency_zero_polynomial(h1_file, tmp_path, capsys):
    zero = tmp_path / "zero.json"
    zero.write_text('[{"coeff":"0","z":[0,0],"t":[0]}]')
    assert entry(["frequency", "--group", h1_file, "--poly", str(zero),
                  "--steps", "3", "--resolution", "8"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    for line in captured.out.strip().split("\n")[1:]:
        assert line.split(",")[3] == "nan"


def test_frequency_with_center(h1_file, x_file, capsys):
    assert entry(["frequency", "--group", h1_file, "--poly", x_file,
                  "--center", "[[0.5, 0.25], [0.125]]",
                  "--steps", "2", "--resolution", "8"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3


def test_discrepancy_command(h1_file, x_file, capsys):
    assert entry(["discrepancy", "--group", h1_file, "--poly", x_file,
                  "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vanishes"] is False
    assert data["numerator"] == [{"coeff": "-1", "z": [0, 1], "t": [1]}]


def test_baouendi_solve_and_frequency(tmp_path, capsys):
    bpoly = tmp_path / "b.json"
    bpoly.write_text('[{"coeff":"1","z":[0],"t":[1]}]')
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "m": 1, "k": 1, "alpha": 2, "box": [[-1, 1], [-1, 1]],
        "grid": [65, 65], "boundary": f"poly:{bpoly}"}))
    assert entry(["baouendi", "solve", "--problem", str(prob)]) == 0
    assert "residual" in capsys.readouterr().out

    assert entry(["baouendi", "frequency", "--problem", str(prob),
                  "--rmin", "0.2", "--rmax", "0.5", "--steps", "3",
                  "--resolution", "16"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    for line in lines[1:]:
        # boundary data t is itself a solid harmonic of degree alpha+1 = 3
        assert float(line.split(",")[3]) == pytest.approx(3.0, abs=0.05)


def test_baouendi_polynomial_mode(tmp_path, capsys):
    poly = tmp_path / "t.json"
    poly.write_text('[{"coeff":"1","z":[0],"t":[1]}]')
    assert entry(["baouendi", "frequency", "--poly", str(poly),
                  "--m", "1", "--k", "1", "--alpha", "2",
                  "--rmin", "0.3", "--rmax", "0.9", "--steps", "3",
                  "--resolution", "16"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    for line in lines[1:]:
        assert float(line.split(",")[3]) == pytest.approx(3.0, rel=1e-9)


@pytest.fixture()
def mixed_112_files(tmp_path):
    """u = t + P/10 on (1, 1, 2) and the reference t, as polynomial files."""
    t = Polynomial.t_var(1, 1, 0, tweight=3)
    u = t + sf.solid_harmonic_quadratic(sf.BaouendiSpec(1, 1, 2)) * Fraction(1, 10)
    paths = tmp_path / "u.json", tmp_path / "t.json"
    for path, p in zip(paths, (u, t)):
        path.write_text(json.dumps(p.to_json()))
    return [str(path) for path in paths]


MIXED_112_FLAGS = ["--m", "1", "--k", "1", "--alpha", "2", "--kappa", "3",
                   "--rmin", "0.3", "--rmax", "1.0"]


def _fields(out):
    return dict(item.split("=") for item in out.split())


def test_baouendi_weiss_cli(mixed_112_files, capsys):
    u, _ = mixed_112_files
    assert entry(["baouendi", "weiss", "--poly", u] + MIXED_112_FLAGS) == 0
    assert float(_fields(capsys.readouterr().out)["max_residual"]) < 1e-2


def test_baouendi_monneau_cli(mixed_112_files, capsys):
    u, t = mixed_112_files
    assert entry(["baouendi", "monneau", "--poly", u, "--ref", t] + MIXED_112_FLAGS) == 0
    fields = _fields(capsys.readouterr().out)
    assert float(fields["max_residual"]) < 1e-2
    assert fields["nondecreasing"] == "true"


def test_baouendi_missing_inputs_exit_2(capsys):
    assert entry(["baouendi", "frequency", "--m", "1", "--k", "1"]) == 2


def test_baouendi_ortho_cli(capsys):
    assert entry(["baouendi", "ortho", "--m", "1", "--k", "1", "--alpha", "2",
                  "--resolution", "16", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["relative"]) < 1e-8


def test_verify_cli_quick(capsys):
    assert entry(["verify", "--resolution", "12"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_negative_control(capsys):
    assert entry(["verify", "--resolution", "12",
                  "--inject-psi-sign-error"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_json(capsys):
    assert entry(["verify", "--resolution", "12", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(item["passed"] for item in data)
