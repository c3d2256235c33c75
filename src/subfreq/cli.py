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
from .polynomials import Polynomial, discrepancy_poly, harmonic_basis
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


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _emit_curve(args, curve):
    if np.all(np.isnan(curve.N)):
        print("warning: H(r) = 0 at every radius; N is NaN", file=sys.stderr)
    _emit(args, curve.to_csv())
    return 0


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


def _add_radius_flags(p, rmin=0.5, rmax=1.5, steps=16):
    p.add_argument("--rmin", type=float, default=rmin)
    p.add_argument("--rmax", type=float, default=rmax)
    p.add_argument("--steps", type=int, default=steps)


def cmd_group(args):
    g = _load_group(args.group)
    info = {"m": g.m, "k": g.k, "N": g.N, "Q": g.Q,
            "htype": g.classification["is_htype"],
            "metivier": g.classification["is_metivier"]}
    if args.json:
        _emit(args, json.dumps(info))
    else:
        _emit(args, " ".join(f"{key}={str(val).lower()}" for key, val in info.items()))
    return 0


def cmd_harmonics(args):
    payload = [p.to_json() for p in harmonic_basis(_load_group(args.group), args.degree)]
    _emit(args, json.dumps(payload) if args.json else "\n".join(map(json.dumps, payload)))
    return 0


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
    if args.json:
        _emit(args, json.dumps({"vanishes": disc.is_zero(),
                                "numerator": disc.to_json()}))
    else:
        _emit(args, f"vanishes={str(disc.is_zero()).lower()}\n"
                    f"{json.dumps(disc.to_json())}")
    return 0


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
    if args.json:
        _emit(args, json.dumps({"inner": inner, "relative": rel}))
    else:
        _emit(args, f"inner={inner:.3e} relative={rel:.3e}")
    return 0


def cmd_baouendi_weiss(args):
    spec, u = _baouendi_input(args)
    rule = build_sphere_rule(spec, args.resolution)
    res = check_weiss_derivative(u, args.kappa, _radii(args), rule)
    worst = float(np.max(res["residuals"]))
    _emit(args, f"max_residual={worst:.6e}")
    return 0


def cmd_baouendi_monneau(args):
    spec, u = _baouendi_input(args)
    # layer weight alpha + 1, as for a problem boundary; an FD u takes its jet at any alpha
    p = Polynomial.from_json(_read(args.ref), spec.m, spec.k, spec.alpha + 1)
    ref = (FunctionHandle.from_polynomial(spec, p, label=args.ref) if u.poly is not None
           else FunctionHandle(spec, polynomial_jet(p), label=args.ref))
    rule = build_sphere_rule(spec, args.resolution)
    res = check_monneau_derivative(u, ref, args.kappa, _radii(args), rule)
    worst = float(np.max(res["residuals"]))
    _emit(args, f"max_residual={worst:.6e} nondecreasing={str(res['nondecreasing']).lower()}")
    return 0


def cmd_verify(args):
    results = verify_mod.run_battery(resolution=args.resolution,
                                     flip_psi=args.inject_psi_sign_error)
    failed = [r for r in results if not r["passed"]]
    if args.json:
        _emit(args, json.dumps(results))
    else:
        lines = [f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['detail']}"
                 for r in results]
        lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
        _emit(args, "\n".join(lines))
    return 1 if failed else 0


@functools.cache
def build_parser():
    """The parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="subfreq",
        description="Frequency functions on step-2 Carnot groups and for "
                    "Baouendi operators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="classify a group file")
    p.add_argument("--group", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("harmonics", help="solid harmonic basis of a degree")
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("frequency", help="frequency curve CSV for a polynomial")
    p.add_argument("--group", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--center", help="JSON point [[z...],[t...]]")
    p.add_argument("--kappa", type=float)
    p.add_argument("--ref", help="reference polynomial for the M column")
    p.add_argument("--resolution", type=int, default=32)
    _add_radius_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("discrepancy", help="symbolic discrepancy of a polynomial")
    p.add_argument("--group", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")

    bp = sub.add_parser("baouendi", help="Baouendi operator tools")
    bsub = bp.add_subparsers(dest="subcommand", required=True)

    def common_b(p):
        p.add_argument("--problem")
        p.add_argument("--poly")
        p.add_argument("--m", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--resolution", type=int, default=32)
        p.add_argument("--out")

    p = bsub.add_parser("solve", help="finite-difference Dirichlet solve")
    p.add_argument("--problem", required=True)
    p.add_argument("--out")

    p = bsub.add_parser("frequency", help="frequency curve CSV")
    common_b(p)
    p.add_argument("--kappa", type=float)
    _add_radius_flags(p, rmin=0.05, rmax=0.4)

    p = bsub.add_parser("ortho", help="orthogonality of solid harmonics")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")

    p = bsub.add_parser("weiss", help="Weiss derivative identity check")
    common_b(p)
    p.add_argument("--kappa", type=float, required=True)
    _add_radius_flags(p, rmin=0.05, rmax=0.4)

    p = bsub.add_parser("monneau", help="Monneau derivative identity check")
    common_b(p)
    p.add_argument("--ref", required=True)
    p.add_argument("--kappa", type=float, required=True)
    _add_radius_flags(p, rmin=0.05, rmax=0.4)

    p = sub.add_parser("verify", help="run the identity battery")
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.add_argument("--inject-psi-sign-error", action="store_true",
                   help=argparse.SUPPRESS)

    return parser


def entry(argv=None):
    """Run one command: `cmd_<command>[_<subcommand>]`, looked up by name
    when called, so a rebound module attribute is the one that runs, once
    every float flag is checked finite; a float overflow of a command with
    radii is an input error that names them."""
    args = build_parser().parse_args(argv)
    sub = getattr(args, "subcommand", None)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ParseError(f"--{name} must be finite, got {value}")
        radii = [f"--{name} {getattr(args, name)}" for name in ("radius", "rmin", "rmax")
                 if hasattr(args, name)]
        with np.errstate(over="raise" if radii else None):
            try:
                return globals()[f"cmd_{args.command}" + (f"_{sub}" if sub else "")](args)
            except FloatingPointError as exc:
                where = " to ".join(radii)
                raise ParseError(f"the integrals at {where} overflow a float ({exc})") from exc
    except (SubfreqError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    sys.exit(entry(argv))


if __name__ == "__main__":
    main()
