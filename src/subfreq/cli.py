"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import verify as verify_mod
from .baouendi import (
    BaouendiSpec,
    fd_solve,
    problem_from_json,
    relative_orthogonality,
)
from .errors import ParseError, SubfreqError
from .frequency import (
    FunctionHandle,
    check_monneau_derivative,
    check_weiss_derivative,
    frequency_curve,
    geometric_radii,
    polynomial_jet,
)
from .groups import Point, group_from_json
from .polynomials import Polynomial, discrepancy_poly, harmonic_basis, json_lines
from .quadrature import build_sphere_rule


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_group(path):
    return group_from_json(_read(path))


def _load_poly(path, context):
    return Polynomial.from_json(_read(path), context.m, context.k, context.tweight)


def _emit(args, text, data=None, *, _json=None):
    """Write json.dumps(data) under --json (or `_json()`, when given, a
    function that returns the JSON text a command has encoded itself), else
    text (a str, or a function that builds it when it costs to build) as
    lines, to --out or to stdout; returns the exit code 0."""
    if getattr(args, "json", False):
        text = json.dumps(data) if _json is None else _json()
    elif callable(text):
        text = text()
    text = text if text.endswith("\n") else text + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _emit_curve(args, curve):
    if np.all(np.isnan(curve.N)):
        print("warning: H(r) = 0 at every radius; N is NaN", file=sys.stderr)
    return _emit(args, curve.to_csv())


def _radii(args):
    if not (args.steps >= 1 and 0 < args.rmin <= args.rmax):
        raise ParseError("need 0 < rmin <= rmax and steps >= 1")
    if args.steps == 1:
        return np.array([args.rmin])
    return geometric_radii(args.rmin, args.rmax, args.steps)


def _point(text):
    """The Point of a JSON pair of finite number lists [[z...], [t...]]; its
    dimensions are checked against the group where it is used."""
    raw = json.loads(text)
    if not (isinstance(raw, list) and len(raw) == 2
            and all(isinstance(part, list) for part in raw)
            and all(isinstance(x, int) and not isinstance(x, bool)
                    or isinstance(x, float) and math.isfinite(x)
                    for part in raw for x in part)):
        raise ParseError(f"a point is a JSON pair [[z...], [t...]] of finite numbers, got {text}")
    return Point(tuple(raw[0]), tuple(raw[1]))


def cmd_group(args):
    g = _load_group(args.group)
    info = {"m": g.m, "k": g.k, "N": g.N, "Q": g.Q,
            "htype": g.classification["is_htype"],
            "metivier": g.classification["is_metivier"]}
    return _emit(args, " ".join(f"{key}={str(val).lower()}" for key, val in info.items()), info)


def cmd_harmonics(args):
    lines = json_lines(harmonic_basis(_load_group(args.group), args.degree))
    return _emit(args, lambda: "\n".join(lines), _json=lambda: f"[{', '.join(lines)}]")


def cmd_frequency(args):
    if args.ref and args.kappa is None:
        raise ParseError("--ref needs --kappa: the M column is M_kappa(u, ref)")
    g = _load_group(args.group)
    p = _load_poly(args.poly, g)
    center = _point(args.center) if args.center else None
    u = FunctionHandle.from_polynomial(g, p, center=center, label=args.poly)
    rule = build_sphere_rule(g, args.resolution)
    ref = None
    if args.ref:
        ref = FunctionHandle.from_polynomial(g, _load_poly(args.ref, g), label=args.ref)
    curve = frequency_curve(u, rule, _radii(args), kappa=args.kappa, ref=ref)
    return _emit_curve(args, curve)


def cmd_discrepancy(args):
    g = _load_group(args.group)
    g.require_htype("discrepancy")
    p = _load_poly(args.poly, g)
    disc = discrepancy_poly(g, p)
    data = {"vanishes": disc.is_zero(), "numerator": disc.to_json()}
    return _emit(args, lambda: f"vanishes={str(data['vanishes']).lower()}\n"
                               f"{json.dumps(data['numerator'])}", data)


def _solve_problem(path):
    """Read a problem file and solve it; returns (spec, solution)."""
    spec, box, grid, poly = problem_from_json(_read(path), os.path.dirname(path))
    return spec, fd_solve(spec, box, grid, poly.evaluate)


def _baouendi_input(args):
    """Returns (spec, function handle). Solves the FD problem when a problem
    file is given, otherwise loads a polynomial."""
    if args.problem:
        spec, sol = _solve_problem(args.problem)
        return spec, sol.as_handle()
    if not (args.poly and args.m and args.k and args.alpha is not None):
        raise ParseError("need --problem, or --poly with --m --k --alpha")
    spec = BaouendiSpec(args.m, args.k, args.alpha)
    p = _load_poly(args.poly, spec)
    return spec, FunctionHandle.from_polynomial(spec, p, label=args.poly)


def cmd_baouendi_solve(args):
    spec, sol = _solve_problem(args.problem)
    if args.out:
        np.savez(args.out, *sol.axes, values=sol.values)
    # the nodes solved on: the problem's grid, or fewer by collocation
    print(f"m={spec.m} k={spec.k} alpha={spec.alpha} grid={[len(ax) for ax in sol.axes]} "
          f"residual={sol.residual:.3e}")
    return 0


def cmd_baouendi_frequency(args):
    spec, u = _baouendi_input(args)
    rule = build_sphere_rule(spec, args.resolution)
    curve = frequency_curve(u, rule, _radii(args), kappa=args.kappa)
    return _emit_curve(args, curve)


def cmd_baouendi_ortho(args):
    if not args.radius > 0:
        raise ParseError(f"--radius must be > 0, got {args.radius}")
    spec = BaouendiSpec(args.m, args.k, args.alpha)
    rule = build_sphere_rule(spec, args.resolution)
    inner, rel = relative_orthogonality(spec, args.radius, rule)
    return _emit(args, f"inner={inner:.3e} relative={rel:.3e}", {"inner": inner, "relative": rel})


def cmd_baouendi_weiss(args):
    spec, u = _baouendi_input(args)
    rule = build_sphere_rule(spec, args.resolution)
    res = check_weiss_derivative(u, args.kappa, _radii(args), rule)
    worst = float(np.max(res["residuals"]))
    return _emit(args, f"max_residual={worst:.6e}")


def cmd_baouendi_monneau(args):
    spec, u = _baouendi_input(args)
    # layer weight alpha + 1, as for a problem boundary; an FD u takes its jet at any alpha
    p = Polynomial.from_json(_read(args.ref), spec.m, spec.k, spec.alpha + 1)
    ref = (FunctionHandle.from_polynomial(spec, p, label=args.ref) if u.poly is not None
           else FunctionHandle(spec, polynomial_jet(p), label=args.ref))
    rule = build_sphere_rule(spec, args.resolution)
    res = check_monneau_derivative(u, ref, args.kappa, _radii(args), rule)
    worst = float(np.max(res["residuals"]))
    return _emit(args, f"max_residual={worst:.6e} "
                       f"nondecreasing={str(res['nondecreasing']).lower()}")


def cmd_verify(args):
    results = verify_mod.run_battery(resolution=args.resolution,
                                     flip_psi=args.inject_psi_sign_error)
    failed = [r for r in results if not r["passed"]]
    lines = [f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['detail']}" for r in results]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    _emit(args, "\n".join(lines), results)
    return 1 if failed else 0


def _flags(**flags):
    """A parent parser (add_help=False) with one flag --<name> per keyword,
    declared by add_argument with that keyword's dict; a command lists it
    in `parents=`."""
    parser = argparse.ArgumentParser(add_help=False)
    for name, keywords in flags.items():
        parser.add_argument(f"--{name}", **keywords)
    return parser


@functools.cache
def build_parser():
    """The parser, built once per process; parse_args leaves it unchanged.
    Each flag that commands share is declared once, as a parent parser."""
    parser = argparse.ArgumentParser(
        prog="subfreq",
        description="Frequency functions on step-2 Carnot groups and for "
                    "Baouendi operators")
    sub = parser.add_subparsers(dest="command", required=True)
    out, as_json = _flags(out={}), _flags(json={"action": "store_true"})
    group, poly = _flags(group={"required": True}), _flags(poly={"required": True})
    resolution = _flags(resolution={"type": int, "default": 32})
    kappa = _flags(kappa={"type": float})

    def radii(rmin, rmax):
        return _flags(rmin={"type": float, "default": rmin},
                      rmax={"type": float, "default": rmax}, steps={"type": int, "default": 16})

    sub.add_parser("group", help="classify a group file", parents=[group, as_json, out])
    sub.add_parser("harmonics", help="solid harmonic basis of a degree", parents=[
        group, _flags(degree={"type": int, "required": True}), as_json, out])
    sub.add_parser("frequency", help="frequency curve CSV for a polynomial", parents=[
        group, poly, _flags(center={"help": "JSON point [[z...],[t...]]"}), kappa,
        _flags(ref={"help": "reference polynomial for the M column"}),
        resolution, radii(0.5, 1.5), out])
    sub.add_parser("discrepancy", help="symbolic discrepancy of a polynomial",
                   parents=[group, poly, as_json, out])

    bsub = sub.add_parser("baouendi", help="Baouendi operator tools").add_subparsers(
        dest="subcommand", required=True)
    # what `_baouendi_input` reads (a problem file, or a polynomial and its
    # (m, k, alpha)), the rule's resolution and --out
    b_input = [_flags(problem={}, poly={}, m={"type": int}, k={"type": int},
                      alpha={"type": float}), resolution, out]
    b_radii, kappa_required = radii(0.05, 0.4), _flags(kappa={"type": float, "required": True})
    bsub.add_parser("solve", help="finite-difference Dirichlet solve",
                    parents=[_flags(problem={"required": True}), out])
    bsub.add_parser("frequency", help="frequency curve CSV", parents=[*b_input, kappa, b_radii])
    bsub.add_parser("ortho", help="orthogonality of solid harmonics", parents=[
        _flags(m={"type": int, "required": True}, k={"type": int, "required": True},
               alpha={"type": float, "required": True}, radius={"type": float, "default": 1.0}),
        resolution, as_json, out])
    bsub.add_parser("weiss", help="Weiss derivative identity check",
                    parents=[*b_input, kappa_required, b_radii])
    bsub.add_parser("monneau", help="Monneau derivative identity check", parents=[
        *b_input, _flags(ref={"required": True}), kappa_required, b_radii])

    p = sub.add_parser("verify", help="run the identity battery",
                       parents=[resolution, as_json, out])
    p.add_argument("--inject-psi-sign-error", action="store_true", help=argparse.SUPPRESS)
    return parser


def entry(argv=None):
    """Run one command: `cmd_<command>[_<subcommand>]`, looked up by name
    when called, so a rebound module attribute is the one that runs, once
    every float flag is checked finite; a float overflow, division by zero
    or 0 / 0 of a command with radii, or an integral of it that underflows
    (`quadrature`, Columns), is an input error that names them."""
    args = build_parser().parse_args(argv)
    sub = getattr(args, "subcommand", None)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ParseError(f"--{name} must be finite, got {value}")
        radii = [f"--{name} {getattr(args, name)}" for name in ("radius", "rmin", "rmax")
                 if hasattr(args, name)]
        check = "raise" if radii else None
        with np.errstate(over=check, divide=check, invalid=check):
            try:
                return globals()[f"cmd_{args.command}" + (f"_{sub}" if sub else "")](args)
            except FloatingPointError as exc:  # overflow, an integral's underflow, x / 0, 0 / 0
                where = " to ".join(radii)
                flow = "overflow" if "overflow" in str(exc) else "underflow"
                raise ParseError(f"the integrals at {where} {flow} a float ({exc})") from exc
    except (SubfreqError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    sys.exit(entry(argv))


if __name__ == "__main__":
    main()
