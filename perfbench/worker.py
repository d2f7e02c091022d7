"""One round of a workload, in a fresh interpreter.

    python3 perfbench/worker.py api|cli [--traced]   < ops.json  > result.json
    python3 perfbench/worker.py cli-one               < argv.json > result.json

``api`` imports hermult and runs the operations through its module
attributes.  ``cli`` starts one process per invocation: ``python -m
hermult`` untraced, or ``cli-one`` traced, which imports hermult.cli,
installs the tracer and calls ``main`` in-process.  Run from the root of
a checkout with PYTHONPATH=src.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import subprocess
import sys
import traceback
from time import perf_counter

from tracer import LAYERS, Tracer, layer_metrics

CHILD_TIMEOUT_S = 150
# A round times its calibration at its start, at its end, and before any
# operation that starts this long after the last sample.
CALIBRATION_GAP_S = 0.1


def _spawn(argv, stdin_text=None):
    proc = subprocess.run(argv, input=stdin_text, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def loop_ms() -> float:
    """Milliseconds taken by a fixed pure-Python loop."""
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(40000):
        acc = (acc + i * i) % 1000003
        table[i & 127] = acc
    return (perf_counter() - t0) * 1e3


def interpreter_start_ms() -> float:
    """Milliseconds taken to start and stop a bare interpreter, spawned as an invocation is."""
    t0 = perf_counter()
    code, _, stderr = _spawn([sys.executable, "-c", "pass"])
    if code != 0:
        raise SystemExit(f"bare interpreter exited {code}:\n{stderr}")
    return (perf_counter() - t0) * 1e3


# Calibration per round mode: work of the same kind as the round's
# operations, none of it hermult's, and its time at the reference speed
# (about its median on the machine described in perfbench/README.md).
# Python-API operations run interpreted and numpy code in-process; a CLI
# invocation is mostly interpreter start-up and imports.
CALIBRATIONS = {"api": (loop_ms, 8.0), "cli": (interpreter_start_ms, 70.0)}


class Calibration:
    """Samples of the machine's current speed, taken between a round's operations."""

    def __init__(self, mode):
        self.measure, self.ref_ms = CALIBRATIONS[mode]
        self.samples_ms = []
        self._last = 0.0

    def sample(self, force=False):
        if force or perf_counter() - self._last > CALIBRATION_GAP_S:
            self.samples_ms.append(self.measure())
            self._last = perf_counter()

    def report(self) -> dict:
        return {"calibration_ms": self.samples_ms, "calibration_ref_ms": self.ref_ms}


def _modules(names):
    return {name: importlib.import_module(f"hermult.{name}") for name in names}


def _layer_modules():
    return sorted({mod for sites in LAYERS.values() for mod, _ in sites})


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_api(ops, traced):
    import workloads

    h = _modules(m for m in _layer_modules() if m != "cli")
    tracer = Tracer()
    if traced:
        tracer.install(h)
    results = []
    calibration = Calibration("api")
    calibration.sample(force=True)
    round_start = perf_counter()
    for op in ops:
        calibration.sample()
        t0 = perf_counter()
        try:
            raw = workloads.execute(h, op)
        except Exception:  # an operation that fails is counted, not fatal
            results.append({"ok": False, "ms": (perf_counter() - t0) * 1e3,
                            "error": traceback.format_exc(limit=3)})
            continue
        ms = (perf_counter() - t0) * 1e3
        results.append({"ok": True, "ms": ms, "result": workloads.summarize(op["kind"], raw)})
    wall_s = perf_counter() - round_start
    calibration.sample(force=True)
    out = {"wall_s": wall_s, "ops": results, **calibration.report(),
           "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF)}
    if traced:
        out["layers"] = layer_metrics(tracer.spans)
    return out


def run_cli(ops, traced):
    results = []
    layers = {}
    calibration = Calibration("cli")
    calibration.sample(force=True)
    round_start = perf_counter()
    for op in ops:
        calibration.sample()
        t0 = perf_counter()
        if traced:
            code, stdout, stderr = _spawn([sys.executable, __file__, "cli-one"],
                                          json.dumps(op["argv"]))
        else:
            code, stdout, stderr = _spawn([sys.executable, "-m", "hermult", *op["argv"]])
        ms = (perf_counter() - t0) * 1e3
        if traced:
            if code != 0:
                raise SystemExit(f"traced CLI launcher failed:\n{stderr}")
            one = json.loads(stdout)
            code, stdout, stderr = one["code"], one["stdout"], one["stderr"]
            for key, value in one["layers"].items():
                layers[key] = layers.get(key, 0) + value
        results.append({"ok": code == op["expect"], "ms": ms, "code": code,
                        "result": {"code": code, "stdout": stdout, "stderr": stderr}})
    wall_s = perf_counter() - round_start
    calibration.sample(force=True)
    out = {"wall_s": wall_s, "ops": results, **calibration.report(),
           "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN)}
    if traced:
        out["layers"] = layers
    return out


def run_cli_one(argv):
    import hermult.cli as cli

    tracer = Tracer()
    tracer.install(_modules(_layer_modules()))
    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    main_s = perf_counter() - start
    layers = layer_metrics(tracer.spans)
    layers["cli.main_s"] = main_s
    layers["cli.output_bytes"] = len(stdout.getvalue().encode()) + len(stderr.getvalue().encode())
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "layers": layers}


def main():
    mode = sys.argv[1]
    traced = "--traced" in sys.argv[2:]
    payload = json.load(sys.stdin)
    if mode == "api":
        out = run_api(payload, traced)
    elif mode == "cli":
        out = run_cli(payload, traced)
    elif mode == "cli-one":
        out = run_cli_one(payload)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
