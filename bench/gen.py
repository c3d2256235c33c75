"""Seeded inputs and job lists for the subfreq benchmark.

Run as a script, this is the benchmark's set-up step: a fresh interpreter
imports subfreq (numpy, scipy, sympy), writes the group, polynomial and
problem JSON files of one workload into a directory, and writes the job
list to `jobs.json` there.  The program under test sees only those files
and the argv of each job.

    python3 bench/gen.py --workload group-exact --seed 1 --out DIR

The same seed always gives byte-identical files.
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("group-exact", "fd-curves")

# Modules subfreq imports inside functions.  The set-up interpreter imports
# sympy, as a CLI user's would; the benchmark process imports all of them
# before the loop so that no job pays a first-use import.
LAZY_IMPORTS = ("sympy", "scipy.interpolate", "scipy.stats")

# Seconds one pass over a workload's full-size job list took at the seed
# (2-core Xeon VM).  A run makes ceil(seconds / PASS_SECONDS) passes, so that
# both sides of a comparison run the same jobs and every percentile has the
# same sample count.
PASS_SECONDS = {"group-exact": 13.0, "fd-curves": 10.0}

# Problem sizes.  "full" is the benchmark; "tiny" keeps the same job list
# shape at sizes small enough for the benchmark's own tests.
SIZES = {
    "full": {
        "h1_res": 32, "h1_steps": 32, "h1_ref_steps": 4, "verify_res": 32,
        "h2_k2_res": 16, "h2_k2_steps": 16, "h2_k4_res": 20, "h2_k4_steps": 1,
        "fd_grids": (((1, 1, 2), (129, 129)), ((1, 1, 2), (257, 257)),
                     ((2, 1, 1), (65, 65, 65))),
        "fd_steps": 5, "fd_res": 32,
        "fd_err_bound": 1e-3, "fd_freq_bound": 0.1, "weiss_bound": 0.5,
        "harm_h2": (6, 7, 8), "harm_g6": (4, 6),
    },
    "tiny": {
        "h1_res": 8, "h1_steps": 3, "h1_ref_steps": 3, "verify_res": 12,
        "h2_k2_res": 8, "h2_k2_steps": 2, "h2_k4_res": 20, "h2_k4_steps": 1,
        "fd_grids": (((1, 1, 2), (33, 33)), ((1, 1, 2), (65, 65)),
                     ((2, 1, 1), (17, 17, 17))),
        "fd_steps": 5, "fd_res": 8,
        "fd_err_bound": 5e-2, "fd_freq_bound": 1.0, "weiss_bound": 5.0,
        "harm_h2": (3, 4), "harm_g6": (2, 3),
    },
}

# The quaternionic H-type group (m = 4, k = 3): left multiplication by the
# unit quaternions i, j, k on R^4.  classify() takes its Sobol path (k > 2).
QUATERNIONIC_J = (
    ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)),
    ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
)

# Known classification of every group file, checked against `group`.
GROUPS = {
    "h1": {"htype": True, "metivier": True},
    "g6": {"htype": True, "metivier": True},
    "metivier": {"htype": False, "metivier": True},
    "quaternionic": {"htype": True, "metivier": True},
}


def import_subfreq():
    """Import subfreq from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "subfreq", "__init__.py")):
        raise SystemExit(f"error: no subfreq package under {SRC}")
    sys.path.insert(0, SRC)
    import subfreq

    if os.path.dirname(os.path.dirname(os.path.abspath(subfreq.__file__))) != SRC:
        raise SystemExit(f"error: imported subfreq from {subfreq.__file__}")
    return subfreq


def _rational(rng, lo=1, hi=9, den=8):
    """Nonzero rational p/q with random sign."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(1, den))


def _combination(sf, rng, basis):
    """Seeded rational combination of all of `basis` whose support is the
    union of the supports, so that every seed gives the same work."""
    support = set().union(*(q.terms for q in basis))
    while True:
        p = sf.Polynomial.zero(basis[0].m, basis[0].k, basis[0].tweight)
        for q in basis:
            p = p + q * _rational(rng)
        if set(p.terms) == support:
            return p


def _center(rng, m, k):
    """Dyadic point (exact in binary floating point) with nonzero entries."""
    z = [rng.choice((-1, 1)) * rng.randint(1, 7) / 8 for _ in range(m)]
    t = [rng.choice((-1, 1)) * rng.randint(1, 7) / 16 for _ in range(k)]
    return [z, t]


def _random_poly(sf, rng, m, k, max_degree=4, n_terms=6):
    """Sparse polynomial with small integer coefficients and n_terms terms."""
    terms = {}
    while len(terms) < n_terms:
        a = tuple(rng.randint(0, max_degree) for _ in range(m))
        b = tuple(rng.randint(0, max_degree // 2) for _ in range(k))
        terms[(a, b)] = rng.choice((-1, 1)) * rng.randint(1, 9)
    return sf.Polynomial(m, k, 2, terms)


class Inputs:
    """Writes input files into a directory and collects the job list."""

    def __init__(self, out):
        self.out = out
        self.jobs = []

    def write(self, name, obj):
        with open(os.path.join(self.out, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
            fh.write("\n")
        return name

    def job(self, job_id, argv, check, **expect):
        self.jobs.append({"id": job_id, "argv": [str(a) for a in argv],
                          "check": check, "expect": expect})


def _group_files(sf, inp, names):
    makers = {
        "h1": lambda: sf.heisenberg(1),
        "h2": lambda: sf.heisenberg(2),
        "g6": sf.example_group_6d,
        "metivier": sf.example_group_metivier,
        "quaternionic": lambda: sf.make_group(4, 3, QUATERNIONIC_J),
    }
    groups = {}
    for name in names:
        groups[name] = makers[name]()
        inp.write(f"{name}.json", sf.group_to_json(groups[name]))
    return groups


def group_curves(sf, rng, inp, size):
    from subfreq.fixtures import quartic_cylindrical

    g = _group_files(sf, inp, ("h1", "h2"))
    h1, h2 = g["h1"], g["h2"]
    radii = ["--rmin", "0.25", "--rmax", "2"]
    h1_flags = radii + ["--steps", size["h1_steps"], "--resolution", size["h1_res"]]

    polys = {1: _combination(sf, rng, sf.harmonic_basis(h1, 1)),
             2: _combination(sf, rng, sf.harmonic_basis(h1, 2)),
             3: sf.harmonic_basis(h1, 3)[1] * _rational(rng),
             4: sf.harmonic_basis(h1, 4)[0] * _rational(rng)}
    for kappa, p in polys.items():
        name = inp.write(f"h1_k{kappa}.json", p.to_json())
        inp.job(f"h1-k{kappa}", ["frequency", "--group", "h1.json", "--poly", name,
                                 "--kappa", kappa] + h1_flags,
                "curve_kappa", kappa=kappa, rows=size["h1_steps"])

    # harmonic, vanishing discrepancy, not homogeneous: the M column runs
    c1, c2 = abs(_rational(rng)), abs(_rational(rng))
    t = sf.Polynomial.t_var(h1.m, h1.k, 0)
    inp.write("h1_cyl.json", (t * c1 + quartic_cylindrical(h1) * c2).to_json())
    inp.write("h1_cyl_ref.json", (t * c1).to_json())
    inp.job("h1-cyl-ref", ["frequency", "--group", "h1.json", "--poly", "h1_cyl.json",
                           "--kappa", 2, "--ref", "h1_cyl_ref.json", "--steps",
                           size["h1_ref_steps"], "--resolution", size["h1_res"]] + radii,
            "curve_monneau", rows=size["h1_ref_steps"])

    for kappa in (1, 2):
        center = json.dumps(_center(rng, h1.m, h1.k))
        inp.job(f"h1-k{kappa}-centred", ["frequency", "--group", "h1.json",
                                         "--poly", f"h1_k{kappa}.json",
                                         "--center", center] + h1_flags,
                "curve", rows=size["h1_steps"])

    # kappa = 4 runs at resolution 20: at 16 the 8-point circle factor of
    # the H^2 rule does not integrate u^2 (degree 8) and N is 4.571
    h2_polys = {2: _combination(sf, rng, sf.harmonic_basis(h2, 2)),
                4: sf.harmonic_basis(h2, 4)[0] * _rational(rng)}
    for kappa, p in h2_polys.items():
        steps = size[f"h2_k{kappa}_steps"]
        name = inp.write(f"h2_k{kappa}.json", p.to_json())
        inp.job(f"h2-k{kappa}", ["frequency", "--group", "h2.json", "--poly", name,
                                 "--kappa", kappa, "--steps", steps,
                                 "--resolution", size[f"h2_k{kappa}_res"]] + radii,
                "curve_kappa", kappa=kappa, rows=steps)

    res = ["--resolution", size["verify_res"], "--json"]
    inp.job("verify", ["verify"] + res, "verify", rc=0)
    inp.job("verify-psi-error", ["verify", "--inject-psi-sign-error"] + res,
            "verify", rc=1)


def fd_curves(sf, rng, inp, size):
    radii = ["--rmin", "0.25", "--rmax", "0.7"]
    for (m, k, alpha), grid in size["fd_grids"]:
        spec = sf.BaouendiSpec(m, k, alpha)
        tw = alpha + 1
        # t is B_a-harmonic of degree a+1 and P of degree 2(a+1), so the
        # exact solution of the Dirichlet problem is the boundary polynomial.
        # The scheme is exact on t, so the FD errors scale with |c| (nodal)
        # and c^2 (frequency); the seed picks the sign and |c| stays 1/3 so
        # that the accuracy figures are comparable across seeds.
        c = Fraction(rng.choice((-1, 1)), 3)
        u = sf.Polynomial.t_var(m, k, 0, tweight=tw) + sf.solid_harmonic_quadratic(spec) * c
        tag = f"{m}{k}{alpha}-{grid[0]}"
        poly = inp.write(f"b{tag}.json", u.to_json())
        box = [[-1, 1]] * (m + k)
        prob = inp.write(f"p{tag}.json", {"m": m, "k": k, "alpha": alpha, "box": box,
                                          "grid": list(grid), "boundary": f"poly:{poly}"})
        freq = ["--steps", size["fd_steps"], "--resolution", size["fd_res"]] + radii
        exact = ["baouendi", "frequency", "--poly", poly, "--m", m, "--k", k,
                 "--alpha", alpha] + freq
        inp.job(f"fd-{tag}-solve", ["baouendi", "solve", "--problem", prob,
                                    "--out", f"sol{tag}.npz"],
                "fd_solve", poly=poly, m=m, k=k, out=f"sol{tag}.npz",
                bound=size["fd_err_bound"])
        inp.job(f"fd-{tag}-frequency", ["baouendi", "frequency", "--problem", prob] + freq,
                "fd_frequency", exact_argv=[str(a) for a in exact],
                bound=size["fd_freq_bound"], rows=size["fd_steps"])
        inp.job(f"fd-{tag}-weiss", ["baouendi", "weiss", "--problem", prob,
                                    "--kappa", tw] + freq,
                "weiss", bound=size["weiss_bound"])


def exact_algebra(sf, rng, inp, size):
    from subfreq.fixtures import quartic_cylindrical

    g = _group_files(sf, inp, ("h1", "h2", "g6", "metivier", "quaternionic"))
    for gname, degrees in (("h2", size["harm_h2"]), ("g6", size["harm_g6"])):
        grp = g[gname]
        for kappa in degrees:
            inp.job(f"harmonics-{gname}-k{kappa}",
                    ["harmonics", "--group", f"{gname}.json", "--degree", kappa, "--json"],
                    "harmonics", m=grp.m, k=grp.k, kappa=kappa)

    discs = {"h1": _random_poly(sf, rng, 2, 1), "g6": _random_poly(sf, rng, 4, 2),
             "h1-cyl": quartic_cylindrical(g["h1"]) * abs(_rational(rng))}
    for name, p in discs.items():
        gname = name.split("-")[0]
        grp = g[gname]
        fname = inp.write(f"disc_{name}.json", p.to_json())
        inp.job(f"discrepancy-{name}", ["discrepancy", "--group", f"{gname}.json",
                                        "--poly", fname, "--json"],
                "discrepancy", poly=fname, J=[[[float(x) for x in row] for row in mat]
                                              for mat in grp.J],
                vanishes=(name == "h1-cyl"))

    # `group --json` is avoided: it raises TypeError on the Sobol path
    # (numpy bool in the report), so the text form is used for every group.
    for gname in ("h1", "g6", "metivier", "quaternionic"):
        inp.job(f"group-{gname}", ["group", "--group", f"{gname}.json"], "group",
                **GROUPS[gname])

    for m, k, alpha in ((1, 1, 2), (2, 1, 1), (1, 1, 3)):
        inp.job(f"ortho-{m}{k}{alpha}", ["baouendi", "ortho", "--m", m, "--k", k,
                                         "--alpha", alpha, "--json"], "ortho")


def group_exact(sf, rng, inp, size):
    """Everything on H-type groups and exact polynomials: the curve jobs,
    then the symbolic jobs.  Alone, the symbolic jobs (pure-Python Fraction
    work) spread too much from run to run on a shared 2-vCPU host to be
    bounded by themselves."""
    group_curves(sf, rng, inp, size)
    exact_algebra(sf, rng, inp, size)


BUILDERS = {"group-exact": group_exact, "fd-curves": fd_curves}


def generate(sf, workload, seed, out, size="full"):
    """Write the inputs and jobs.json of one workload; returns the jobs."""
    os.makedirs(out, exist_ok=True)
    inp = Inputs(out)
    rng = random.Random(f"{workload}:{seed}")
    BUILDERS[workload](sf, rng, inp, SIZES[size])
    inp.write("jobs.json", inp.jobs)
    return inp.jobs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)
    sf = import_subfreq()
    import subfreq.cli  # noqa: F401  (the job entry point)
    import sympy  # noqa: F401
    generate(sf, args.workload, args.seed, args.out, args.size)


if __name__ == "__main__":
    main()
