"""Output checks for benchmark jobs.

Each check takes the job (from jobs.json) and the output of its first run,
and returns (passed, detail, figures).  `figures` holds the accuracy
numbers the benchmark reports: relative frequency errors, identity
residuals, FD nodal errors.  The checks use their own polynomial evaluator
and their own monomial counts, so that they do not share code with the
program they check.
"""

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np

CSV_HEADER = "r,D,H,N,W_kappa,M_kappa,discrepancy_norm"
KAPPA_TOL = 1e-3          # |N - kappa| <= KAPPA_TOL * kappa on homogeneous inputs
ORTHO_TOL = 1e-6          # relative inner product of orthogonal solid harmonics
RESIDUAL = re.compile(r"max residual ([0-9.eE+-]+)")


def eval_terms(terms, z, t):
    """Evaluate a polynomial given as JSON terms at points z (n, m), t (n, k)."""
    out = np.zeros(len(z))
    for term in terms:
        value = np.full(len(z), float(Fraction(term["coeff"])))
        for i, p in enumerate(term["z"]):
            value = value * z[:, i] ** p
        for ell, p in enumerate(term["t"]):
            value = value * t[:, ell] ** p
        out += value
    return out


def count_monomials(m, k, kappa):
    """dim of the delta-homogeneous polynomials of degree kappa (t weight 2)."""
    if kappa < 0:
        return 0

    def compositions(total, parts):
        return math.comb(total + parts - 1, parts - 1)

    return sum(compositions(kappa - 2 * tdeg, m) * compositions(tdeg, k)
               for tdeg in range(kappa // 2 + 1))


def _csv(text, rows):
    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"bad CSV header {lines[0]!r}")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if data.shape != (rows, 7):
        raise ValueError(f"expected {rows} CSV rows, got {data.shape}")
    return data


def check_curve(job, out, ctx):
    data = _csv(out["stdout"], job["expect"]["rows"])
    ok = bool(np.all(np.isfinite(data[:, :4])))
    return ok, "finite D, H, N" if ok else "non-finite D, H or N", {}


def check_curve_kappa(job, out, ctx):
    kappa = job["expect"]["kappa"]
    data = _csv(out["stdout"], job["expect"]["rows"])
    err = float(np.max(np.abs(data[:, 3] - kappa))) / kappa
    ok = err <= KAPPA_TOL and bool(np.all(np.isfinite(data[:, 4])))
    return ok, f"max |N-kappa|/kappa {err:.3e}", {"freq_err": err, "value_err": err}


def check_curve_monneau(job, out, ctx):
    data = _csv(out["stdout"], job["expect"]["rows"])
    m_col = data[:, 5]
    ok = (bool(np.all(np.isfinite(data[:, :6])))
          and bool(np.all(np.diff(m_col) >= -1e-5)))
    return ok, "M finite and nondecreasing" if ok else "M not monotone", {}


def check_verify(job, out, ctx):
    results = json.loads(out["stdout"])
    failed = sum(1 for r in results if not r["passed"])
    figures = {"verify_failed": failed}
    if job["expect"]["rc"] == 0:
        resid = [float(m.group(1)) for r in results
                 for m in [RESIDUAL.search(r["detail"])] if m]
        figures["identity_resid"] = max(resid)
        return failed == 0, f"{failed} checks failed, max residual {max(resid):.3e}", figures
    return failed > 0, f"{failed} checks failed under the injected fault", figures


def check_fd_solve(job, out, ctx):
    exp = job["expect"]
    with open(ctx.path(exp["poly"]), encoding="utf-8") as fh:
        terms = json.load(fh)
    arrays = out["arrays"]
    axes, values = arrays[:-1], arrays[-1]
    mesh = np.meshgrid(*axes, indexing="ij")
    z = np.stack([mesh[i].ravel() for i in range(exp["m"])], axis=1)
    t = np.stack([mesh[exp["m"] + j].ravel() for j in range(exp["k"])], axis=1)
    exact = eval_terms(terms, z, t).reshape(values.shape)
    err = float(np.max(np.abs(values - exact)))
    rel = err / float(np.max(np.abs(exact)))
    return (err <= exp["bound"], f"max nodal error {err:.3e}",
            {"fd_err": err, "value_err": rel})


def check_fd_frequency(job, out, ctx):
    exp = job["expect"]
    n_fd = _csv(out["stdout"], exp["rows"])[:, 3]
    n_exact = _csv(ctx.exact_output(exp["exact_argv"]), exp["rows"])[:, 3]
    err = float(np.max(np.abs(n_fd - n_exact) / np.abs(n_exact)))
    return (err <= exp["bound"], f"max |N_fd-N_exact|/N_exact {err:.3e}",
            {"fd_freq_err": err, "value_err": err})


def check_weiss(job, out, ctx):
    match = re.fullmatch(r"max_residual=([0-9.eE+-]+)\s*", out["stdout"])
    resid = float(match.group(1))
    return resid <= job["expect"]["bound"], f"max residual {resid:.3e}", {"identity_resid": resid}


def check_harmonics(job, out, ctx):
    exp = job["expect"]
    basis = json.loads(out["stdout"])
    want = (count_monomials(exp["m"], exp["k"], exp["kappa"])
            - count_monomials(exp["m"], exp["k"], exp["kappa"] - 2))
    same = hashlib.sha256(out["stdout"].encode()).hexdigest() == ctx.expected_digest(job["id"])
    integral = all(Fraction(term["coeff"]).denominator == 1 for p in basis for term in p)
    ok = len(basis) == want and integral and same
    detail = f"dim {len(basis)} (want {want}), output {'matches' if same else 'differs from'} seed"
    return ok, detail, {}


def check_discrepancy(job, out, ctx):
    """numerator = sum_l t_l Theta_l p, with Theta_l p(z, t) the derivative
    of p along the rotation z -> z + s J_l z, checked by central differences."""
    exp = job["expect"]
    report = json.loads(out["stdout"])
    with open(ctx.path(exp["poly"]), encoding="utf-8") as fh:
        terms = json.load(fh)
    jmats = np.array(exp["J"])
    k, m = jmats.shape[0], jmats.shape[1]
    rng = np.random.default_rng(0)
    z = rng.uniform(-1.0, 1.0, (32, m))
    t = rng.uniform(-1.0, 1.0, (32, k))
    h = 1e-5
    want = np.zeros(len(z))
    for ell in range(k):
        jz = z @ jmats[ell].T
        deriv = (eval_terms(terms, z + h * jz, t) - eval_terms(terms, z - h * jz, t)) / (2 * h)
        want += t[:, ell] * deriv
    got = eval_terms(report["numerator"], z, t)
    err = float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want))))
    ok = (err <= 1e-6 and report["vanishes"] == (report["numerator"] == [])
          and report["vanishes"] == exp["vanishes"])
    return ok, f"numerator vs central differences {err:.1e}", {}


def check_group(job, out, ctx):
    fields = dict(item.split("=") for item in out["stdout"].split())
    exp = job["expect"]
    got = {"htype": fields["htype"] == "true", "metivier": fields["metivier"] == "true"}
    want = {"htype": exp["htype"], "metivier": exp["metivier"]}
    return got == want, f"{got} (want {want})", {}


def check_ortho(job, out, ctx):
    rel = abs(json.loads(out["stdout"])["relative"])
    return rel <= ORTHO_TOL, f"relative inner product {rel:.3e}", {"value_err": rel}


CHECKS = {
    "curve": check_curve,
    "curve_kappa": check_curve_kappa,
    "curve_monneau": check_curve_monneau,
    "verify": check_verify,
    "fd_solve": check_fd_solve,
    "fd_frequency": check_fd_frequency,
    "weiss": check_weiss,
    "harmonics": check_harmonics,
    "discrepancy": check_discrepancy,
    "group": check_group,
    "ortho": check_ortho,
}


def run_check(job, out, ctx):
    """Expected exit code first, then the job's own check.  A check that
    raises on malformed output counts as failed, with the reason."""
    want_rc = job["expect"].get("rc", 0)
    if out["error"]:
        return False, out["error"], {}
    if out["rc"] != want_rc:
        return False, f"exit code {out['rc']}, want {want_rc}: {out['stderr'][-200:]}", {}
    try:
        return CHECKS[job["check"]](job, out, ctx)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError, OSError) as exc:
        return False, f"{type(exc).__name__}: {exc}", {}
