"""Spans and counters around the public functions of subfreq.

The tracer lives entirely in the benchmark: `install()` replaces each
public function of the traced modules (and a few methods) with a wrapper
that records a span, and `uninstall()` puts the originals back, so the
program's sources stay untouched and untraced rounds run the original
code.  A span is (name, start, end, parent, job); spans are kept in
compact arrays in memory and written out once at the end.
"""

import functools
import gzip
import inspect
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "groups", "polynomials", "exactla", "quadrature", "frequency",
          "baouendi", "verify")

# Called once per polynomial coefficient; a span would cost more than the call.
SKIP = {"exactla.to_fraction"}

METHODS = (("polynomials", "Polynomial", "evaluate"),
           ("frequency", "FunctionHandle", "from_polynomial"),
           ("baouendi", "GridSolution", "as_handle"))

CHECK_SPANS = {"frequency.check_H_identity", "frequency.check_D_variation",
               "frequency.check_weiss_derivative", "frequency.check_monneau_derivative"}
SYMBOLIC_SPANS = {"baouendi.solid_harmonic_quadratic", "baouendi.derived_quadratic_constant",
                  "polynomials.baouendi_apply"}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Records spans while installed; `job` tags the spans of one job."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts = Counter()
        self.radius_keys = set()
        self.current_job = -1
        self._stack = []
        self._patches = []
        self._hooks = {
            "polynomials.evaluate": self._count_terms,
            "quadrature.build_sphere_rule": self._count_rule,
            "quadrature.volume_integral": self._count_volume,
            "quadrature.surface_integral": self._count_surface,
            "frequency.dirichlet": self._count_radius,
            "exactla.kernel_basis": self._count_kernel,
            "baouendi.fd_solve": self._count_unknowns,
            "baouendi.as_handle": self._wrap_handle,
        }

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self.current_job)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._stack.pop()
            self.counts[name] += 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _count_terms(self, args, kwargs, result):
        poly, z = args[0], _arg(args, kwargs, 1, "z")
        self.counts["term_points"] += len(poly.terms) * math.prod(np.shape(z)[:-1])

    def _count_rule(self, args, kwargs, result):
        self.counts["rule_nodes"] += len(result)

    def _count_volume(self, args, kwargs, result):
        steps = _arg(args, kwargs, 3, "radial_steps", 32)
        self.counts["integrand_points"] += steps * len(_arg(args, kwargs, 2, "rule"))

    def _count_surface(self, args, kwargs, result):
        self.counts["integrand_points"] += len(_arg(args, kwargs, 2, "rule"))

    def _count_radius(self, args, kwargs, result):
        u, r = _arg(args, kwargs, 0, "u"), _arg(args, kwargs, 1, "r")
        self.radius_keys.add((self.current_job, id(u), float(r)))

    def _count_kernel(self, args, kwargs, result):
        rows, ncols = _arg(args, kwargs, 0, "rows"), _arg(args, kwargs, 1, "ncols")
        self.counts["kernel_entries"] += len(rows) * ncols

    def _count_unknowns(self, args, kwargs, result):
        sizes = _arg(args, kwargs, 2, "grid_sizes")
        self.counts["unknowns"] += math.prod(n - 2 for n in sizes)

    def _wrap_handle(self, args, kwargs, handle):
        for attr in ("value", "grad_sq", "zu"):
            setattr(handle, attr, self.wrap("baouendi.handle_eval", getattr(handle, attr)))

    def _counting_cg(self, cg):
        @functools.wraps(cg)
        def counted(*args, callback=None, **kwargs):
            def count(xk):
                self.counts["cg_iterations"] += 1
                if callback is not None:
                    callback(xk)

            return cg(*args, callback=count, **kwargs)

        return self.wrap("baouendi.cg", counted)

    # -- installing --------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        """Rebind every subfreq module attribute that is `original`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "subfreq" or modname.startswith("subfreq.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        for layer in LAYERS:
            mod = sys.modules[f"subfreq.{layer}"]
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP or inspect.isclass(obj)
                        or not callable(obj) or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                self._patch_everywhere(obj, self.wrap(name, obj))
        baouendi = sys.modules["subfreq.baouendi"]
        self._patch_everywhere(baouendi.cg, self._counting_cg(baouendi.cg))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"subfreq.{layer}"], cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(f"{layer}.{meth}", original.__func__))
            else:
                wrapped = self.wrap(f"{layer}.{meth}", original)
            self._patches.append((cls, meth, original))
            setattr(cls, meth, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def write(self, path, job_ids):
        """Write all spans as gzip CSV: name,start,end,parent,job."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,job\n")
            for i in range(len(self.start)):
                job = job_ids[self.job[i]] if self.job[i] >= 0 else ""
                fh.write(f"{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{job}\n")

    def layer_metrics(self, rounds, extra):
        """Per-layer metrics per pass over the job list (`rounds` passes
        traced); `extra` holds (value, unit) pairs that are already final."""
        n = len(self.start)  # > 0: every traced job records a cli.entry span
        names = np.array(self.names)[np.frombuffer(self.name, dtype=np.int32)]
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        def exclusive(wanted):
            """Total time of spans in `wanted` not nested in another one."""
            inside = np.isin(names, list(wanted))
            covered = np.zeros(n, dtype=bool)
            while True:  # one pass per nesting level
                step = np.zeros(n, dtype=bool)
                step[has_parent] = inside[parent[has_parent]] | covered[parent[has_parent]]
                if np.array_equal(step, covered):
                    break
                covered = step
            return float(np.sum(dur[inside & ~covered]))

        def self_of(layer):
            return float(np.sum(self_time[np.char.startswith(names, layer + ".")]))

        fd_children = has_parent & np.isin(names, ["baouendi.cg", "polynomials.evaluate"])
        fd_parent = np.zeros(n, dtype=bool)
        fd_parent[has_parent] = names[parent[has_parent]] == "baouendi.fd_solve"
        fd_solve_s = exclusive({"baouendi.fd_solve"})
        d_calls = self.counts["frequency.dirichlet"]
        metrics = {
            "polynomials.evaluate_calls": (self.counts["polynomials.evaluate"], "count"),
            "polynomials.evaluate_s": (exclusive({"polynomials.evaluate"}), "s"),
            "polynomials.evaluate_term_points": (self.counts["term_points"], "count"),
            "polynomials.lower_s": (exclusive({"frequency.from_polynomial"}), "s"),
            "polynomials.harmonic_basis_s": (exclusive({"polynomials.harmonic_basis"}), "s"),
            "quadrature.rule_build_s": (exclusive({"quadrature.build_sphere_rule"}), "s"),
            "quadrature.rule_nodes": (self.counts["rule_nodes"], "count"),
            "quadrature.volume_calls": (self.counts["quadrature.volume_integral"], "count"),
            "quadrature.surface_calls": (self.counts["quadrature.surface_integral"], "count"),
            "quadrature.volume_s": (exclusive({"quadrature.volume_integral"}), "s"),
            "quadrature.surface_s": (exclusive({"quadrature.surface_integral"}), "s"),
            "quadrature.integrand_points": (self.counts["integrand_points"], "count"),
            "quadrature.self_s": (self_of("quadrature"), "s"),
            "frequency.dirichlet_calls": (d_calls, "count"),
            "frequency.height_calls": (self.counts["frequency.height"], "count"),
            "frequency.curve_s": (exclusive({"frequency.frequency_curve"}), "s"),
            "frequency.check_s": (exclusive(CHECK_SPANS), "s"),
            "baouendi.fd_solve_s": (fd_solve_s, "s"),
            "baouendi.cg_s": (exclusive({"baouendi.cg"}), "s"),
            "baouendi.cg_iterations": (self.counts["cg_iterations"], "count"),
            "baouendi.assembly_s": (fd_solve_s - float(np.sum(dur[fd_children & fd_parent])), "s"),
            "baouendi.unknowns": (self.counts["unknowns"], "count"),
            "baouendi.handle_build_s": (exclusive({"baouendi.as_handle"}), "s"),
            "baouendi.handle_eval_s": (exclusive({"baouendi.handle_eval"}), "s"),
            "baouendi.symbolic_s": (exclusive(SYMBOLIC_SPANS), "s"),
            "exactla.kernel_basis_s": (exclusive({"exactla.kernel_basis"}), "s"),
            "exactla.kernel_entries": (self.counts["kernel_entries"], "count"),
            "groups.classify_calls": (self.counts["groups.classify"], "count"),
            "groups.classify_s": (exclusive({"groups.classify"}), "s"),
            "verify.battery_s": (exclusive({"verify.run_battery"}), "s"),
            "cli.self_s": (self_of("cli"), "s"),
            "trace.spans": (n, "count"),
        }
        out = {key: {"value": value / rounds, "unit": unit}
               for key, (value, unit) in metrics.items()}
        out.update({key: {"value": value, "unit": unit} for key, (value, unit) in extra.items()})
        # attempted / useful: Dirichlet integrals per distinct (function, radius)
        out["frequency.dirichlet_per_radius"] = {
            "value": d_calls / len(self.radius_keys) if self.radius_keys else 0.0,
            "unit": "ratio"}
        return out
