import argparse
import gc
import json
import os
import pathlib
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oracles
import subfreq as sf
from subfreq import cli
from subfreq.cli import entry
from subfreq.polynomials import Polynomial
from subfreq.quadrature import MAX_RULE_NODES


QUATERNIONIC = oracles.QUATERNIONIC_J


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
    path = tmp_path / "quaternionic.json"
    path.write_text(json.dumps(sf.group_to_json(sf.make_group(4, 3, QUATERNIONIC))))
    assert entry(["group", "--group", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"m": 4, "k": 3, "N": 7, "Q": 10, "htype": True, "metivier": True}


@pytest.mark.parametrize("make", [
    lambda: sf.make_group(4, 3, [QUATERNIONIC[0], QUATERNIONIC[1], QUATERNIONIC[0]]),
    lambda: oracles.random_skew_group(6, 3, seed=6),
], ids=["repeated-quaternion", "m6-k3"])
def test_group_not_metivier(make, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(sf.group_to_json(make())))
    assert entry(["group", "--group", str(path)]) == 0
    assert "metivier=false" in capsys.readouterr().out


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


@pytest.mark.parametrize("make", [lambda: sf.heisenberg(3), lambda: sf.heisenberg(4),
                                  lambda: sf.make_group(4, 3, QUATERNIONIC)],
                         ids=["h3", "h4", "quaternionic"])
def test_closed_form_frequency_runs_at_the_default_resolution(tmp_path, capsys, make):
    # a polynomial curve reads no node, so the default resolution 32 runs on
    # groups whose rule exceeds the node limit there (about 182M nodes on H^3)
    g = make()
    assert len(sf.build_sphere_rule(g, 32)) > MAX_RULE_NODES
    group, poly = tmp_path / "group.json", tmp_path / "p.json"
    group.write_text(json.dumps(sf.group_to_json(g)))
    poly.write_text(json.dumps(sf.harmonic_basis(g, 4)[0].to_json()))
    assert entry(["frequency", "--group", str(group), "--poly", str(poly)]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert rows and all(abs(float(row.split(",")[3]) - 4.0) <= 1e-13 for row in rows)


def test_verify_resolution_too_large_exit_2(capsys):
    # verify sums over the nodes of the H^1 rule, 4 * 3000 * 1501 > 2^24 of them
    assert 4 * 3000 * 1501 > MAX_RULE_NODES
    assert entry(["verify", "--resolution", "3000"]) == 2
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


def test_harmonics_text_is_one_polynomial_a_line(h1_file, capsys):
    argv = ["harmonics", "--group", h1_file, "--degree", "3"]
    assert entry(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert entry(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line) for line in lines] == payload
    assert lines == [json.dumps(data) for data in payload] and len(lines) == 4


def test_entry_finds_the_command_by_name_when_called(h1_file, monkeypatch, capsys):
    # a command rebound after the parser is built (as a tracer rebinds it) runs
    cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_group", lambda args: calls.append(args.group) or 0)
    monkeypatch.setattr(cli, "cmd_baouendi_ortho", lambda args: calls.append(args.m) or 0)
    assert entry(["group", "--group", h1_file]) == 0
    assert entry(["baouendi", "ortho", "--m", "1", "--k", "1", "--alpha", "1"]) == 0
    assert calls == [h1_file, 1] and capsys.readouterr().out == ""


_S, _T = argparse._StoreAction, argparse._StoreTrueAction
# flag -> (dest, type, default, required, action class, help); a trailing
# "?" or "!" names the optional or the required variant of a flag
_FLAG = {
    "json": ("json", None, False, False, _T, None),
    "out": ("out", None, None, False, _S, None),
    "group": ("group", None, None, True, _S, None),
    "poly": ("poly", None, None, True, _S, None),
    "resolution": ("resolution", int, 32, False, _S, None),
    "steps": ("steps", int, 16, False, _S, None),
    "kappa?": ("kappa", float, None, False, _S, None),
    "kappa!": ("kappa", float, None, True, _S, None),
    **{name: (name.rstrip("?"), kind, None, False, _S, None)  # the optional baouendi inputs
       for name, kind in (("problem", None), ("poly?", None), ("m", int), ("k", int),
                          ("alpha", float))},
}
_B_CURVE = ["problem", "poly?", "m", "k", "alpha", "resolution", "out", "steps",
            ("--rmin", "rmin", float, 0.05, False, _S, None),
            ("--rmax", "rmax", float, 0.4, False, _S, None)]
# (sub)command -> (its help, its flags: a _FLAG key or a full row)
CLI_SURFACE = {
    ("group",): ("classify a group file", ["group", "json", "out"]),
    ("harmonics",): ("solid harmonic basis of a degree", [
        "group", "json", "out", ("--degree", "degree", int, None, True, _S, None)]),
    ("frequency",): ("frequency curve CSV for a polynomial", [
        "group", "poly", "kappa?", "resolution", "steps", "out",
        ("--center", "center", None, None, False, _S, "JSON point [[z...],[t...]]"),
        ("--ref", "ref", None, None, False, _S, "reference polynomial for the M column"),
        ("--rmin", "rmin", float, 0.5, False, _S, None),
        ("--rmax", "rmax", float, 1.5, False, _S, None)]),
    ("discrepancy",): ("symbolic discrepancy of a polynomial", ["group", "poly", "json", "out"]),
    ("baouendi", "solve"): ("finite-difference Dirichlet solve", [
        "out", ("--problem", "problem", None, None, True, _S, None)]),
    ("baouendi", "frequency"): ("frequency curve CSV", [*_B_CURVE, "kappa?"]),
    ("baouendi", "ortho"): ("orthogonality of solid harmonics", [
        "resolution", "json", "out",
        ("--m", "m", int, None, True, _S, None), ("--k", "k", int, None, True, _S, None),
        ("--alpha", "alpha", float, None, True, _S, None),
        ("--radius", "radius", float, 1.0, False, _S, None)]),
    ("baouendi", "weiss"): ("Weiss derivative identity check", [*_B_CURVE, "kappa!"]),
    ("baouendi", "monneau"): ("Monneau derivative identity check", [
        *_B_CURVE, "kappa!", ("--ref", "ref", None, None, True, _S, None)]),
    ("verify",): ("run the identity battery", [
        "resolution", "json", "out",
        ("--inject-psi-sign-error", "inject_psi_sign_error", None, False, False, _T,
         argparse.SUPPRESS)]),
}


def _surface_row(flag):
    if isinstance(flag, tuple):
        return flag[0], flag[1:]
    return "--" + flag.rstrip("?!"), _FLAG[flag]


def _commands(parser, path=()):
    """(path, help, parser) of every (sub)command that runs a cmd_* function."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in action._choices_actions}
            for name, child in action.choices.items():
                if any(isinstance(a, argparse._SubParsersAction) for a in child._actions):
                    yield from _commands(child, (*path, name))
                else:
                    yield (*path, name), helps[name], child


def test_cli_surface_is_pinned():
    # every flag of every (sub)command keeps its name, dest, type, default,
    # required-ness, action and help, and entry finds a cmd_* for each command
    help_row = ("help", None, argparse.SUPPRESS, False, argparse._HelpAction,
                "show this help message and exit")
    found = {path: (text, {tuple(a.option_strings): (a.dest, a.type, a.default, a.required,
                                                     type(a), a.help)
                           for a in parser._actions})
             for path, text, parser in _commands(cli.build_parser())}
    expected = {path: (text, {("-h", "--help"): help_row,
                              **{(name,): row for name, row in map(_surface_row, flags)}})
                for path, (text, flags) in CLI_SURFACE.items()}
    assert found == expected
    commands = {"cmd_" + "_".join(path) for path in found}
    assert commands == {name for name in dir(cli) if name.startswith("cmd_")}


def test_frequency_with_center(h1_file, x_file, capsys):
    assert entry(["frequency", "--group", h1_file, "--poly", x_file,
                  "--center", "[[0.5, 0.25], [0.125]]",
                  "--steps", "2", "--resolution", "8"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3


def test_frequency_on_h1_loads_no_sympy(h1_file, x_file):
    # the H-type test is exact and cheap, and an H-type group is Metivier by
    # theorem, so `frequency`, `group` and `discrepancy` never need sympy;
    # the rules are numpy's and only fd_solve imports scipy, so neither
    # needs scipy
    code = ("import sys; from subfreq.cli import entry; "
            f"rc = entry(['frequency', '--group', {h1_file!r}, '--poly', {x_file!r}, "
            "'--steps', '2', '--resolution', '8']); "
            f"rc += entry(['group', '--group', {h1_file!r}]); "
            f"rc += entry(['discrepancy', '--group', {h1_file!r}, '--poly', {x_file!r}]); "
            "assert rc == 0; assert 'sympy' not in sys.modules; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   stdout=subprocess.DEVNULL)


def test_harmonics_and_exact_group_checks_load_no_sympy(h1_file, tmp_path):
    # the kernel of `harmonics` is modular elimination in numpy, and the
    # determinant (the Metivier example, k = 1) and the k = 2 pencil (J_2
    # doubled, so not H-type) are Fractions; the 6-d group is H-type
    j1, j2 = sf.example_group_6d().J
    groups = {"g6": sf.example_group_6d(), "metivier": sf.example_group_metivier(),
              "pencil": sf.make_group(4, 2, [j1, [[2 * x for x in row] for row in j2]])}
    paths = [str(tmp_path / f"{name}.json") for name in groups]
    for path, group in zip(paths, groups.values()):
        pathlib.Path(path).write_text(json.dumps(sf.group_to_json(group)))
    code = ("import sys; from subfreq.cli import entry; "
            f"rc = entry(['harmonics', '--group', {h1_file!r}, '--degree', '4', '--json']); "
            + "".join(f"rc += entry(['group', '--group', {path!r}]); " for path in paths)
            + "assert rc == 0; assert not [m for m in sys.modules if m.split('.')[0] == 'sympy']")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout.splitlines()
    assert len(json.loads(out[0])) == 5
    assert out[1:] == ["m=4 k=2 N=6 Q=8 htype=true metivier=true",
                       "m=4 k=1 N=5 Q=6 htype=false metivier=true",
                       "m=4 k=2 N=6 Q=8 htype=false metivier=true"]


@pytest.fixture()
def t_problem_17(tmp_path):
    """A 17^2 FD problem file on (1, 1, 2) with boundary data t."""
    bpoly = tmp_path / "b.json"
    bpoly.write_text('[{"coeff":"1","z":[0],"t":[1]}]')
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"m": 1, "k": 1, "alpha": 2, "box": [[-1, 1], [-1, 1]],
                                "grid": [17, 17], "boundary": f"poly:{bpoly}"}))
    return str(prob)


def test_baouendi_frequency_on_a_problem_loads_no_scipy_interpolate(t_problem_17):
    # the grid handle interpolates with its own kernel
    code = ("import sys; from subfreq.cli import entry; "
            f"assert entry(['baouendi', 'frequency', '--problem', {t_problem_17!r}, "
            "'--steps', '2', '--resolution', '8', '--rmax', '0.9']) == 0; "
            "assert 'scipy.interpolate' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("command", ["solve", "frequency"])
def test_integer_alpha_problem_loads_no_scipy(t_problem_17, tmp_path, command):
    # alpha = 2: the collocation solve and its series handle are numpy's, so
    # neither command imports any scipy module (the FD path does)
    argv = ["baouendi", command, "--problem", t_problem_17]
    argv += (["--out", str(tmp_path / "u.npz")] if command == "solve"
             else ["--steps", "2", "--resolution", "8", "--rmax", "0.9"])
    code = ("import sys; from subfreq.cli import entry; "
            f"assert entry({argv!r}) == 0; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   stdout=subprocess.DEVNULL)


def test_fd_solve_loads_only_scipy_linalg(t_problem_17, tmp_path):
    # alpha = 1.5 takes the FD scheme: its DST-I is numpy's FFT and its
    # exact inverse is banded LAPACK, so scipy.linalg alone is imported
    problem = json.loads(pathlib.Path(t_problem_17).read_text())
    path = tmp_path / "half.json"
    path.write_text(json.dumps({**problem, "alpha": 1.5}))
    code = ("import sys; from subfreq.cli import entry; "
            f"assert entry(['baouendi', 'solve', '--problem', {str(path)!r}]) == 0; "
            "assert 'scipy.linalg' in sys.modules; "
            "assert not [m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'fft'], ['scipy', 'sparse'], ['scipy', 'special'])]")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert "alpha=1.5 grid=[17, 17]" in out


@pytest.mark.parametrize("m, alpha", [("1", "1e15"), ("2", "1000")])
def test_baouendi_ortho_alpha_beyond_the_symbolic_size_exit_2(m, alpha):
    # m = 1, alpha 1e15 multiplied |z|^2 out 1e15 times (a hang); m = 2,
    # alpha 1000 ended after 11 s in an OverflowError traceback, exit 1
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "subfreq", "baouendi", "ortho", "--m", m,
                           "--k", "1", "--alpha", alpha], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)), timeout=30)
    assert time.perf_counter() - start < 10.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"at m = {m} is too large for the symbolic calculus" in proc.stderr


def test_baouendi_ortho_alpha_whose_q_squared_overflows_exit_2(capsys):
    # alpha 1e300 is finite and positive, but the rule's Q^2 / (Q - 2)
    # overflowed: an uncaught OverflowError, exit 1 (verification failure)
    assert entry(["baouendi", "ortho", "--m", "1", "--k", "1", "--alpha", "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "makes Q^2 overflow a float" in captured.err


@pytest.mark.parametrize("center, message", [
    ("[1]", "a point is a JSON pair"),
    ('{"a":1}', "a point is a JSON pair"),
    ("[[1],[0]]", "point does not match group dimensions"),
    ("[[1,2,3],[0]]", "point does not match group dimensions"),
    ("[[1,0],[0,5]]", "point does not match group dimensions"),
    # non-finite coordinates used to crash in to_fraction with exit 1
    ("[[NaN,0],[0]]", "of finite numbers"),
    ("[[0,Infinity],[0]]", "of finite numbers"),
    ("[[1e400,0],[0]]", "of finite numbers"),
], ids=["list", "object", "short-z", "long-z", "long-t", "nan", "infinity", "overflow"])
def test_frequency_bad_center_exit_2(h1_file, x_file, center, message, capsys):
    assert entry(["frequency", "--group", h1_file, "--poly", x_file, "--center", center,
                  "--steps", "2", "--resolution", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_frequency_ref_needs_kappa_exit_2(h1_file, x_file, capsys):
    # the M column is M_kappa(u, ref); without --kappa it used to be all NaN
    assert entry(["frequency", "--group", h1_file, "--poly", x_file, "--ref", x_file,
                  "--steps", "2", "--resolution", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--ref needs --kappa" in captured.err


def test_poly_file_exponent_is_not_truncated_exit_2(h1_file, tmp_path, capsys):
    poly = tmp_path / "p.json"
    poly.write_text('[{"coeff":"1","z":[1.5,0],"t":[0.9]}]')  # used to load as z1
    assert entry(["frequency", "--group", h1_file, "--poly", str(poly),
                  "--steps", "2", "--resolution", "8"]) == 2
    assert "exponent must be an integer" in capsys.readouterr().err


def test_problem_file_grid_is_not_truncated_exit_2(tmp_path, capsys):
    bpoly = tmp_path / "b.json"
    bpoly.write_text('[{"coeff":"1","z":[0],"t":[1]}]')
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({  # the grid used to be read as [33, 33]
        "m": 1, "k": 1, "alpha": 2, "box": [[-1, 1], [-1, 1]],
        "grid": [33.9, 33], "boundary": f"poly:{bpoly}"}))
    assert entry(["baouendi", "solve", "--problem", str(prob)]) == 2
    assert "a grid size must be an integer" in capsys.readouterr().err


def test_problem_file_reads_its_polynomial_next_to_it(tmp_path, monkeypatch, capsys):
    # a relative "poly:" path is read from the problem file's directory; it
    # used to be read from the current one, so this exited 2
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "b.json").write_text('[{"coeff":"1","z":[0],"t":[1]}]')
    (inputs / "prob.json").write_text(json.dumps({
        "m": 1, "k": 1, "alpha": 2, "box": [[-1, 1], [-1, 1]],
        "grid": [17, 17], "boundary": "poly:b.json"}))
    monkeypatch.chdir(tmp_path)
    assert entry(["baouendi", "solve", "--problem", str(inputs / "prob.json")]) == 0
    assert entry(["baouendi", "frequency", "--problem", os.path.join("inputs", "prob.json"),
                  "--steps", "2", "--resolution", "8", "--rmax", "0.9"]) == 0
    assert capsys.readouterr().err == ""


def test_problem_file_alpha_bool_exit_2(tmp_path, capsys):
    bpoly = tmp_path / "b.json"
    bpoly.write_text('[{"coeff":"1","z":[0],"t":[1]}]')
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({  # alpha true used to be read as alpha 1
        "m": 1, "k": 1, "alpha": True, "box": [[-1, 1], [-1, 1]],
        "grid": [33, 33], "boundary": f"poly:{bpoly}"}))
    assert entry(["baouendi", "solve", "--problem", str(prob)]) == 2
    assert "alpha must be a number, got True" in capsys.readouterr().err


def test_problem_file_at_non_integer_alpha(tmp_path, capsys):
    # the boundary polynomial used to be read in the integer-alpha calculus,
    # so alpha 1.5 exited 2 although the FD solver supports it
    bpoly = tmp_path / "b.json"
    bpoly.write_text('[{"coeff":"1","z":[0],"t":[1]}]')
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"m": 1, "k": 1, "alpha": 1.5, "box": [[-1, 1], [-1, 1]],
                                "grid": [33, 33], "boundary": f"poly:{bpoly}"}))
    assert entry(["baouendi", "solve", "--problem", str(prob)]) == 0
    assert "alpha=1.5" in capsys.readouterr().out
    assert entry(["baouendi", "frequency", "--problem", str(prob),
                  "--rmin", "0.2", "--rmax", "0.5", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    for line in lines[1:]:
        # t is a solid harmonic of degree alpha + 1 = 2.5
        assert float(line.split(",")[3]) == pytest.approx(2.5, abs=1e-5)
    assert entry(["baouendi", "weiss", "--problem", str(prob), "--kappa", "2.5",
                  "--rmin", "0.2", "--rmax", "0.5", "--steps", "3"]) == 0
    assert capsys.readouterr().err == ""
    # the reference is read in the same layer weight and enters by its jet
    assert entry(["baouendi", "monneau", "--problem", str(prob), "--ref", str(bpoly),
                  "--kappa", "2.5", "--rmin", "0.2", "--rmax", "0.5", "--steps", "3"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and out.out.startswith("max_residual=")


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


def test_baouendi_frequency_outside_box_exit_2(t_problem_17, capsys):
    # gauge balls of radius > 1 leave the box of the FD solution
    assert entry(["baouendi", "frequency", "--problem", t_problem_17,
                  "--rmin", "0.5", "--rmax", "2", "--steps", "3"]) == 2
    assert "[-1, 1] x [-1, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--rmin", "nan"), ("--rmax", "nan"),
                                         ("--rmax", "inf")])
def test_baouendi_frequency_non_finite_radius_exit_2(t_problem_17, flag, value, capsys):
    # --rmin nan used to end in a scipy traceback, and --rmax inf was accepted
    assert entry(["baouendi", "frequency", "--problem", t_problem_17, "--steps", "3",
                  "--resolution", "8", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{flag} must be finite" in captured.err


BAD_INPUTS = {
    "frequency-kappa-nan": (["frequency", "--group", "{h1}", "--poly", "{x}", "--kappa", "nan"],
                            "--kappa must be finite"),
    "weiss-kappa-nan": (["baouendi", "weiss", "--problem", "{problem}", "--kappa", "nan"],
                        "--kappa must be finite"),
    "weiss-kappa-inf": (["baouendi", "weiss", "--problem", "{problem}", "--kappa", "inf"],
                        "--kappa must be finite"),
    "monneau-kappa-nan": (["baouendi", "monneau", "--poly", "{u}", "--ref", "{t}", "--m", "1",
                           "--k", "1", "--alpha", "2", "--kappa", "nan"],
                          "--kappa must be finite"),
    "frequency-alpha-inf": (["baouendi", "frequency", "--poly", "{u}", "--m", "1", "--k", "1",
                             "--alpha", "inf"], "--alpha must be finite"),
    **{f"ortho-radius-{value}": (["baouendi", "ortho", "--m", "1", "--k", "1", "--alpha", "2",
                                  "--radius", value], message)
       for value, message in (("0", "--radius must be > 0"), ("-1", "--radius must be > 0"),
                              ("inf", "--radius must be finite"),
                              ("nan", "--radius must be finite"))},
    "group-zero-denominator": (["group", "--group", "{zero_group}"],
                               "bad group spec: J_1[0][1] is '-1/0'"),
    "poly-zero-denominator": (["frequency", "--group", "{h1}", "--poly", "{zero_poly}"],
                              "bad polynomial data: the coeff of term 0 is '1/0'"),
    # finite radii whose integrals overflow used to print inf and NaN columns
    "frequency-radius-overflow": (["frequency", "--group", "{h1}", "--poly", "{x}", "--rmin",
                                   "1e-300", "--rmax", "1e300", "--steps", "3"],
                                  "integrals at --rmin 1e-300 to --rmax 1e+300 overflow a float"),
    "frequency-small-radius-overflow": (["frequency", "--group", "{h1}", "--poly", "{x}",
                                         "--rmin", "1e-300", "--rmax", "2", "--kappa", "-5"],
                                        "integrals at --rmin 1e-300 to --rmax 2.0 overflow"),
    "ortho-radius-overflow": (["baouendi", "ortho", "--m", "1", "--k", "1", "--alpha", "2",
                               "--radius", "1e300"],
                              "the integrals at --radius 1e+300 overflow a float"),
    # finite radii whose powers underflow to 0 used to print 0/0 as NaN columns
    # after RuntimeWarnings (ortho: a ZeroDivisionError traceback, exit 1)
    **{f"{name}-radius-underflow": (argv + ["--rmin", "1e-300", "--rmax", "1e-200"],
                                    "integrals at --rmin 1e-300 to --rmax 1e-200 underflow")
       for name, argv in (
           ("frequency", ["frequency", "--group", "{h1}", "--poly", "{x}", "--steps", "3"]),
           ("frequency-poly", ["baouendi", "frequency", "--poly", "{u}", "--m", "1", "--k", "1",
                               "--alpha", "2", "--steps", "3"]),
           ("frequency-problem", ["baouendi", "frequency", "--problem", "{problem}",
                                  "--steps", "3"]),
           ("monneau", ["baouendi", "monneau", "--problem", "{problem}", "--ref", "{t}",
                        "--kappa", "3"]),
           ("weiss", ["baouendi", "weiss", "--problem", "{problem}", "--kappa", "3"]))},
    # radii whose integrals underflow to 0 without a 0/0 used to print D = H = 0
    # and N = nan, or a discrepancy_norm of 0, with exit 0
    "frequency-problem-tiny-radius": (["baouendi", "frequency", "--problem", "{problem}",
                                       "--rmin", "1e-40", "--rmax", "1e-40"],
                                      "integrals at --rmin 1e-40 to --rmax 1e-40 underflow"),
    "frequency-tiny-radius": (["frequency", "--group", "{h1}", "--poly", "{x}",
                               "--rmin", "1e-40", "--rmax", "1e-40"],
                              "integrals at --rmin 1e-40 to --rmax 1e-40 underflow"),
    "ortho-radius-underflow": (["baouendi", "ortho", "--m", "1", "--k", "1", "--alpha", "2",
                                "--radius", "1e-22"],
                               "the integrals at --radius 1e-22 underflow a float"),
    "harmonics-negative-degree": (["harmonics", "--group", "{h1}", "--degree", "-1"],
                                  "kappa must be >= 0"),
    "group-list-entry": (["group", "--group", "{list_group}"],
                         "bad group spec: J_1[0][1] is [1]: cannot convert list to Fraction"),
    "solve-alpha-infinity": (["baouendi", "solve", "--problem", "{inf_alpha}"],
                             "alpha must be finite"),
    "frequency-alpha-infinity": (["baouendi", "frequency", "--problem", "{inf_alpha}"],
                                 "alpha must be finite"),
    "solve-box-infinity": (["baouendi", "solve", "--problem", "{inf_box}"],
                           "a box bound must be finite"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_non_finite_flags_and_malformed_files_exit_2(case, h1_file, x_file, mixed_112_files,
                                                     t_problem_17, tmp_path, capsys):
    # each used to exit 0 with NaN output, exit 1 with a traceback, or (the
    # infinite box) run CG to its iteration cap first
    files = {"h1": h1_file, "x": x_file, "u": mixed_112_files[0], "t": mixed_112_files[1],
             "problem": t_problem_17}
    contents = {"zero_group": {"m": 2, "k": 1, "J": [[[0, "-1/0"], ["1/0", 0]]]},
                "zero_poly": [{"coeff": "1/0", "z": [1, 0], "t": [0]}],
                "list_group": {"m": 2, "k": 1, "J": [[[0, [1]], [-1, 0]]]}}
    problem = json.loads(pathlib.Path(t_problem_17).read_text())
    contents["inf_alpha"] = {**problem, "alpha": float("inf")}
    contents["inf_box"] = {**problem, "box": [[-float("inf"), 1], [-1, 1]]}
    for name, data in contents.items():
        files[name] = str(tmp_path / f"{name}.json")
        pathlib.Path(files[name]).write_text(json.dumps(data))  # inf as Infinity
    argv, message = BAD_INPUTS[case]
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert entry([arg.format(**files) for arg in argv]) == 2
    assert time.perf_counter() - start < 1.0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("argv", [
    ["frequency", "--problem", "{problem}"],
    ["weiss", "--problem", "{problem}", "--kappa", "1"],
    ["ortho", "--m", "1", "--k", "1", "--alpha", "120"],
], ids=["frequency-problem", "weiss-problem", "ortho"])
def test_high_alpha_at_ordinary_radii_exits_0(argv, t_problem_17, tmp_path, capsys):
    # at alpha = 60 the terms u^2 psi of the sums underflow at the nodes near
    # t = 0 on the default radii, while every integral stays a normal float
    # (H(0.05) is about 1e-241, N = 61): only an integral that underflows is
    # an error, so the command writes its curve and exits 0
    problem = tmp_path / "alpha60.json"
    problem.write_text(json.dumps({**json.loads(pathlib.Path(t_problem_17).read_text()),
                                   "alpha": 60}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert entry(["baouendi", *(arg.format(problem=problem) for arg in argv)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert captured.err == ""
    if argv[0] == "frequency":
        assert float(captured.out.splitlines()[1].split(",")[3]) == pytest.approx(61.0)


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


@pytest.mark.parametrize("steps", [1, 2, 3, 4])
@pytest.mark.parametrize("command", ["weiss", "monneau"])
def test_baouendi_checks_on_few_radii(mixed_112_files, command, steps, capsys):
    # the radial derivatives are exact, so fewer than 5 radii are checked too
    # (they used to end in an uncaught ValueError, exit 1)
    u, t = mixed_112_files
    argv = ["baouendi", command, "--poly", u] + (["--ref", t] if command == "monneau" else [])
    assert entry(argv + MIXED_112_FLAGS + ["--steps", str(steps)]) == 0
    assert float(_fields(capsys.readouterr().out)["max_residual"]) <= 1e-10


def test_baouendi_weiss_on_one_repeated_radius(mixed_112_files, tmp_path, capsys):
    # rmin = rmax repeats one radius: its residual is read, not a step dx = 0
    # that printed max_residual=0 for every input
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"m": 1, "k": 1, "alpha": 2, "box": [[-1, 1], [-1, 1]],
                                "grid": [33, 33], "boundary": f"poly:{mixed_112_files[0]}"}))
    argv = ["baouendi", "weiss", "--problem", str(prob), "--kappa", "3",
            "--resolution", "16", "--rmin", "0.3", "--rmax", "0.3", "--steps"]
    assert entry(argv + ["6"]) == 0
    repeated = capsys.readouterr().out
    assert entry(argv + ["1"]) == 0
    assert repeated == capsys.readouterr().out
    # the collocation solution of this polynomial problem reads 2e-11 (the
    # FD grid handle read more than 1e-6); a zero step printed exactly 0
    assert float(_fields(repeated)["max_residual"]) > 0.0


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
    # the psi fault reaches exactly the checks that integrate against psi;
    # the radial exponential's H is summed over the nodes, with psi
    assert entry(["verify", "--resolution", "12", "--json",
                  "--inject-psi-sign-error"]) == 1
    failed = {item["name"] for item in json.loads(capsys.readouterr().out)
              if not item["passed"]}
    assert failed == {"H-prime-identity", "first-variation-full",
                      "weiss-derivative", "monneau", "radial-exponential-frequency"}


@pytest.mark.parametrize("check, name", [
    ("check_H_identity", "H-prime-identity"), ("check_weiss_derivative", "weiss-derivative"),
    ("radial_exponential_integrals", "radial-exponential-frequency")])
def test_verify_fails_a_nan_residual(check, name, monkeypatch):
    # Python's max(0.0, nan) is 0.0, so a NaN residual used to pass; each
    # fold now keeps it
    inner = getattr(cli.verify_mod, check)

    def nan_at_the_last_radius(*args):
        result = inner(*args)
        if isinstance(result, dict):
            result["residuals"] = np.r_[result["residuals"][:-1], np.nan]
        else:
            result[1][-1] = np.nan
        return result

    monkeypatch.setattr(cli.verify_mod, check, nan_at_the_last_radius)
    results = {r["name"]: r for r in cli.verify_mod.run_battery(resolution=12)}
    assert [r for r in results if not results[r]["passed"]] == [name]
    assert "nan" in results[name]["detail"]


def _flip_j_term(ops, which=0):
    """The fields of ops with the sign of X_0's J term number `which` flipped:
    the terms whose coefficient holds a z, (1/2) <J_l z, e_0> d_{t_l}."""
    x0 = dict(ops.X[0].terms)
    key = [key for key in x0 if sum(key[0])][which]
    x0[key] = -x0[key]
    return [ops.X[0]._replace(terms=x0)] + list(ops.X[1:])


@pytest.mark.parametrize("fault", ["Z-tweight-1", "X0-J-sign"])
def test_verify_fails_a_wrong_operator(capsys, monkeypatch, fault):
    # homogeneity alone ([X_i, Z] = X_i, [Delta_H, Z] = 2 Delta_H) misses a J
    # sign error, which the brackets [X_i, X_j] = sum_l <J_l e_i, e_j> d_{t_l}
    # catch; every other check reads no operator but the discrepancy's
    import subfreq.verify as verify
    from subfreq.polynomials import _sum_of_squares

    g = sf.heisenberg(1)
    ops = g.operators
    if fault == "Z-tweight-1":
        vars(g)["operators"] = ops._replace(Z=ops.Z._replace(terms={key: 1 for key in ops.Z.terms}))
    else:  # Delta_H composed from the wrong fields
        vars(g)["operators"] = ops._replace(X=_flip_j_term(ops))
        vars(g)["laplacian_operator"] = _sum_of_squares(g.operators.X)
    monkeypatch.setattr(verify, "heisenberg", lambda n: g)
    assert entry(["verify", "--resolution", "12", "--json"]) == 1
    failed = {item["name"] for item in json.loads(capsys.readouterr().out)
              if not item["passed"]}
    assert failed == {"euler-commutator-identities"}


def test_commutator_identities_catch_one_flipped_j_term():
    # X_0 of the 6-d group has two J terms; flipping either one breaks a bracket
    assert sf.polynomials.commutator_identities(sf.example_group_6d())
    for which in range(2):
        g = sf.example_group_6d()
        vars(g)["operators"] = g.operators._replace(X=_flip_j_term(g.operators, which))
        assert not sf.polynomials.commutator_identities(g)


def test_verify_json(capsys):
    assert entry(["verify", "--resolution", "12", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(item["passed"] for item in data)


def test_one_parser_serves_every_call_and_keeps_no_state(h1_file, x_file, tmp_path,
                                                         monkeypatch, capsys):
    builds = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    # --json, then none: JSON, then text
    assert entry(["group", "--group", h1_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 2
    assert entry(["group", "--group", h1_file]) == 0
    assert capsys.readouterr().out.startswith("m=2")
    # --out, then none: the file, then stdout
    out = tmp_path / "group.txt"
    assert entry(["group", "--group", h1_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "" and out.read_text().startswith("m=2")
    assert entry(["group", "--group", h1_file]) == 0
    assert capsys.readouterr().out.startswith("m=2")
    # an argparse error, then a valid call
    with pytest.raises(SystemExit) as exc:
        entry(["group"])
    assert exc.value.code == 2
    assert entry(["group", "--group", h1_file]) == 0
    # --resolution 8, then the default 32
    resolutions = []
    build = cli.build_sphere_rule
    monkeypatch.setattr(cli, "build_sphere_rule",
                        lambda context, res: resolutions.append(res) or build(context, res))
    argv = ["frequency", "--group", h1_file, "--poly", x_file, "--steps", "2"]
    assert entry(argv + ["--resolution", "8"]) == 0
    assert entry(argv) == 0
    assert resolutions == [8, 32]
    # two identical calls, identical output
    capsys.readouterr()
    outputs = []
    for _ in range(2):
        assert entry(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""
    assert builds.count("subfreq") == 1


def test_curve_commands_sum_the_series_once(tmp_path, monkeypatch, capsys):
    # every integral of the solution's handle on the nodes of all the radii
    # reads one kernel call: the curve, the Weiss check and the Monneau check
    import subfreq.baouendi as baouendi

    t_file = tmp_path / "t.json"
    t_file.write_text('[{"coeff":"1","z":[0,0],"t":[1]}]')
    problem = tmp_path / "prob.json"
    problem.write_text(json.dumps({"m": 2, "k": 1, "alpha": 1, "box": [[-1, 1]] * 3,
                                   "grid": [17, 17, 17], "boundary": f"poly:{t_file}"}))
    kernel, calls = baouendi._series_jet, []
    monkeypatch.setattr(baouendi, "_series_jet",
                        lambda *args: calls.append(args[-1].shape) or kernel(*args))
    flags = ["--problem", str(problem), "--resolution", "8", "--steps", "3"]
    for argv in (["frequency", *flags], ["weiss", *flags, "--kappa", "2"],
                 ["monneau", *flags, "--kappa", "2", "--ref", str(t_file)]):
        calls.clear()
        assert entry(["baouendi", *argv]) == 0
        assert len(calls) == 1, argv
    assert capsys.readouterr().err == ""


def test_jobs_leave_no_cyclic_garbage(h1_file, x_file, t_problem_17, capsys):
    # a job's arrays (an FD solution's channels among them) are freed when it
    # returns, by reference counting, not at the cyclic GC's next collection
    radii = ["--steps", "2", "--resolution", "8", "--rmax", "0.9"]
    jobs = [["group", "--group", h1_file],
            ["harmonics", "--group", h1_file, "--degree", "3", "--json"],
            ["harmonics", "--group", h1_file, "--degree", "3"],
            ["frequency", "--group", h1_file, "--poly", x_file, "--steps", "2",
             "--resolution", "8"],
            ["discrepancy", "--group", h1_file, "--poly", x_file],
            ["baouendi", "solve", "--problem", t_problem_17],
            ["baouendi", "frequency", "--problem", t_problem_17, *radii],
            ["baouendi", "weiss", "--problem", t_problem_17, "--kappa", "3", *radii]]
    for argv in jobs:  # the first calls import modules and fill the rule caches
        assert entry(argv) == 0
    gc.collect()
    gc.disable()
    try:
        for argv in jobs:
            assert entry(argv) == 0
            assert gc.collect() == 0, argv
    finally:
        gc.enable()
    assert capsys.readouterr().err == ""
