"""Span tracer around the public functions of the fracspec layers.

``Tracer`` rebinds every attribute of every loaded ``fracspec`` module that
holds one of the listed functions (``fracspec.inverse.eigen_system`` as well
as ``fracspec.sl_core.eigen_system``), so calls between modules are traced
too.  Each call records a span (key, start, end, parent) in memory, and the
work counts named in ``per_layer_metrics`` are taken from call arguments and
return values.  Leaving the ``with`` block restores every binding.

Only the benchmark's traced run imports this module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "sl_core": ("eigen_system", "split_spectra", "eval_modes_at"),
    "mittleff": ("ml", "relax_antiderivative", "relax_primitive"),
    "forward": ("solve_spectral", "kernel_K", "duhamel_residual", "solve_l1_fd"),
    "weyl_toolkit": ("wronskian_U", "f_decay_scan"),
    "uniqueness": ("lambda_set", "complement_inclusion_check"),
    "inverse": ("synthesize_data", "estimate_solver_floor", "reconstruct"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
SPAN_STATS = ("calls", "busy_s", "self_s")
WORK_COUNTS = (
    "sl_core.eigen_system.modes",
    "sl_core.eigen_system.warm_calls",
    "sl_core.eigen_system.max_rel_residual",
    "mittleff.ml.points",
    "mittleff.ml.points_series_range",
    "mittleff.ml.points_mid_range",
    "mittleff.ml.points_asymptotic_range",
    "mittleff.relax_antiderivative.points",
    "mittleff.relax_primitive.points",
    "forward.solve_spectral.mode_time_pairs",
    "forward.solve_l1_fd.cells",
    "forward.solve_l1_fd.history_flops",
    "weyl_toolkit.f_decay_scan.points",
    "uniqueness.complement_inclusion_check.complement_size",
    "inverse.reconstruct.gn_iterations",
    "inverse.reconstruct.forward_evals",
    "inverse.reconstruct.accepted_ratio",
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("max_rel_residual"):
        return "rel"
    if metric.endswith("_flops"):
        return "computed_flop"
    return "count"


class Tracer:
    """Context manager: install wrappers on enter, restore bindings on exit."""

    def __init__(self):
        self.spans: list = []          # [key, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.max_rel_residual = 0.0
        self._stack: list = []
        self._saved: list = []         # (module, attribute, original)

    # -- binding -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import fracspec  # noqa: F401  (loads every layer module)
        from fracspec.mittleff import Z_BIG, Z_SWITCH

        self._ml_ranges = (Z_SWITCH, Z_BIG)

        originals = {}
        for key in FUNCTIONS:
            mod, fn = key.split(".")
            func = getattr(sys.modules[f"fracspec.{mod}"], fn)
            originals[id(func)] = (func, self._wrap(key, func))
        for modname, module in list(sys.modules.items()):
            if modname != "fracspec" and not modname.startswith("fracspec."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, key: str, func):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [key, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._count(key, bound.arguments, result, index)
            return result

        return traced

    # -- work counts -------------------------------------------------------

    def _count(self, key: str, a: dict, result, index: int) -> None:
        c = self.counts
        if key == "sl_core.eigen_system":
            lam = result.lambdas
            c[key + ".modes"] += lam.size
            c[key + ".warm_calls"] += a["lambda_guess"] is not None
            rel = float(np.max(result.residuals / (1.0 + np.abs(lam))))
            self.max_rel_residual = max(self.max_rel_residual, rel)
        elif key == "mittleff.ml":
            z_switch, z_big = self._ml_ranges
            x = -np.atleast_1d(np.asarray(a["z"], dtype=float))
            big = x >= z_big
            small = (x <= z_switch) & ~big
            c[key + ".points"] += x.size
            c[key + ".points_series_range"] += int(small.sum())
            c[key + ".points_asymptotic_range"] += int(big.sum())
            c[key + ".points_mid_range"] += int(x.size - small.sum() - big.sum())
        elif key in ("mittleff.relax_antiderivative", "mittleff.relax_primitive"):
            c[key + ".points"] += np.size(a["t"])
        elif key == "forward.solve_spectral":
            c[key + ".mode_time_pairs"] += result.n_modes_used * result.t_grid.size
        elif key == "forward.solve_l1_fd":
            nx, nt = int(a["nx"]), int(a["nt"])
            c[key + ".cells"] += (nx + 1) * (nt + 1)
            # history product U[1:m].T @ c_hist: 2 (m - 1) (nx + 1) flops at
            # step m = 2..nt; computed from the sizes, not measured
            c[key + ".history_flops"] += (nx + 1) * nt * (nt - 1)
        elif key == "weyl_toolkit.f_decay_scan":
            c[key + ".points"] += result.y_values.size
        elif key == "uniqueness.complement_inclusion_check":
            c[key + ".complement_size"] += len(result.entries)
        elif key == "inverse.reconstruct":
            c[key + ".gn_iterations"] += result.iterations
            c[key + ".accepted_steps"] += len(result.misfit_history) - 1
            # every span opened since this one's start is nested inside it
            c[key + ".forward_evals"] += sum(
                1 for s in self.spans[index + 1:] if s[0] == "sl_core.eigen_system")

    # -- report ------------------------------------------------------------

    def span_stats(self) -> dict:
        """calls, busy_s and self_s per function; self = span - direct children."""
        child_s = [0.0] * len(self.spans)
        for key, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {f"{key}.{stat}": 0.0 for key in FUNCTIONS for stat in SPAN_STATS}
        for i, (key, start, end, _) in enumerate(self.spans):
            out[f"{key}.calls"] += 1
            out[f"{key}.busy_s"] += end - start
            out[f"{key}.self_s"] += end - start - child_s[i]
        return out

    def per_layer_metrics(self) -> dict:
        out = self.span_stats()
        for name in WORK_COUNTS:
            out[name] = float(self.counts.get(name, 0.0))
        out["sl_core.eigen_system.max_rel_residual"] = self.max_rel_residual
        evals = self.counts.get("inverse.reconstruct.forward_evals", 0.0)
        accepted = self.counts.get("inverse.reconstruct.accepted_steps", 0.0)
        out["inverse.reconstruct.accepted_ratio"] = accepted / evals if evals else 0.0
        return out
