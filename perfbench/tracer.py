"""Spans around calls into hermult's layers, recorded from outside the program.

The benchmark installs a wrapper on each module attribute through which
one layer calls another (``hermult.quadrature.phi_row``,
``hermult.nuclearity.lp_norm_1d``, ...).  Python resolves a module-level
name at call time, so the program's own calls go through the wrappers
and no source file changes.  Spans stay in memory; ``layer_metrics``
folds them into the per-layer figures once a round has ended.
"""

from __future__ import annotations

import math
from time import perf_counter

# Layer name -> the (module, attribute) pairs its callers look it up by.
# Modules are named relative to the hermult package.
LAYERS = {
    "accel.phi_row": [("quadrature", "phi_row"), ("hermite_core", "phi_row")],
    "accel.phi_table": [("spectral_ops", "phi_table"), ("trace_lab", "phi_table")],
    "accel.weighted_abs_power_sum": [("quadrature", "weighted_abs_power_sum")],
    "hermite_core.eval_phi_1d": [("quadrature", "eval_phi_1d")],
    "quadrature.lp_norm_1d": [("quadrature", "lp_norm_1d"), ("nuclearity", "lp_norm_1d")],
    "quadrature.roots_hermite": [("quadrature", "roots_hermite")],
    "quadrature.gauss_hermite_rule": [("quadrature", "gauss_hermite_rule"),
                                      ("trace_lab", "gauss_hermite_rule")],
    "spectral_ops.kernel_series": [("spectral_ops", "kernel_series"), ("cli", "kernel_series")],
    "spectral_ops.effective_weights": [("spectral_ops", "effective_weights"),
                                       ("trace_lab", "effective_weights")],
    "spectral_ops.level_tail_bound": [("spectral_ops", "level_tail_bound"),
                                      ("trace_lab", "level_tail_bound")],
    "nuclearity.kappa_sum": [("nuclearity", "kappa_sum"), ("trace_lab", "kappa_sum"),
                             ("cli", "kappa_sum")],
    "nuclearity.s_r_sum": [("nuclearity", "s_r_sum"), ("trace_lab", "s_r_sum")],
    "nuclearity.compare_sr_kappa": [("nuclearity", "compare_sr_kappa")],
    "trace_lab.trace_symbol_sum": [("trace_lab", "trace_symbol_sum")],
    "trace_lab.trace_diagonal_quadrature": [("trace_lab", "trace_diagonal_quadrature")],
    "trace_lab.galerkin_matrix": [("trace_lab", "galerkin_matrix")],
    "trace_lab.spectral_trace_check": [("trace_lab", "spectral_trace_check")],
}

KERNELS = ("accel.phi_row", "accel.phi_table", "accel.weighted_abs_power_sum")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _work(name, args, kwargs):
    """What a span keeps from its call's arguments: the work units of a
    kernel, p of a norm, (N, dimension) of an s_r_sum."""
    if name in ("accel.phi_row", "accel.phi_table"):
        return len(args[0]) * int(args[1])
    if name == "accel.weighted_abs_power_sum":
        return len(args[0])
    if name == "quadrature.lp_norm_1d":
        return float(_arg(args, kwargs, 1, "p"))
    if name == "nuclearity.s_r_sum":
        return (_arg(args, kwargs, 4, "N"), args[0].dimension)
    return None


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, last descendant."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, _work(name, args, kwargs)]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                span[4] = len(spans) - 1
            if name == "nuclearity.s_r_sum":
                span[5] = span[5] + (result.truncation_order,)
            return result

        return traced

    def install(self, hermult_modules: dict) -> None:
        """Wrap the layer attributes of ``hermult_modules`` (short name -> module).

        Sites in modules left out are skipped: the Python-API rounds do
        not import hermult.cli.
        """
        for layer, sites in LAYERS.items():
            for mod_name, attr in sites:
                module = hermult_modules.get(mod_name)
                if module is not None:
                    setattr(module, attr, self.wrap(layer, getattr(module, attr)))


def _orders_tried(N, n, truncation_order) -> int:
    """Truncation orders s_r_sum tried: one when N was given, else the doublings from 200 n."""
    if N is not None:
        return 1
    return int(round(math.log2(truncation_order / (200 * n)))) + 1


def layer_metrics(spans) -> dict:
    """Per-layer figures of one round: calls, busy and self time, work counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, (name, start, end, parent, last, work) in enumerate(spans):
        busy = end - start
        add(f"{name}.calls", 1)
        add(f"{name}.busy_s", busy)
        add(f"{name}.self_s", busy - child_time[i])
        if name in ("accel.phi_row", "accel.phi_table"):
            add(f"{name}.steps", work)
        elif name == "accel.weighted_abs_power_sum":
            add(f"{name}.points", work)
        elif name == "quadrature.lp_norm_1d":
            below = [spans[j][0] for j in range(i + 1, last + 1)]
            add(f"{name}.computed", int(any(b in KERNELS for b in below)))
            if math.isfinite(work):
                add(f"{name}.passes", below.count("accel.phi_row"))
        elif name == "nuclearity.s_r_sum":
            add(f"{name}.orders_tried", _orders_tried(*work))
    return out
