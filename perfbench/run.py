"""hermult benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is taken from ./src
(PYTHONPATH=src, no install).  Workloads: norm-table, criterion-sr,
trace-routes, cli (see perfbench/README.md).

A run byte-compiles src, then repeats rounds of the workload's fixed
operation list, each round in a fresh interpreter, until the next round
would end after S seconds (at least one round), and times SETUP_SAMPLES
fresh imports between the first rounds.  Each round also times a fixed
calibration loop, and its operation times are scaled to a reference
machine speed (speed_scale).  Every result is checked against references
computed outside the program.  The last line of stdout is one JSON object
with correct, attempted, failed, and the end-to-end metrics (--trace 0) or
the per-layer metrics (--trace 1).  A traced run starts with one untraced
round, so it can report the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 150
# BLAS threads: one, so that a solver does not wait on a busy second vCPU
# of the shared host.
BLAS_THREADS = "1"
IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_gmean_ms": "ms", "peak_rss_mb": "MB"}

_FIGURES = {"calls": "count", "computed": "count", "passes": "count", "steps": "count",
            "points": "count", "orders_tried": "count", "busy_s": "s", "self_s": "s"}
_LAYER_FIGURES = {
    "accel.phi_row": ("calls", "self_s", "steps"),
    "accel.phi_table": ("calls", "self_s", "steps"),
    "accel.weighted_abs_power_sum": ("calls", "self_s", "points"),
    "hermite_core.eval_phi_1d": ("calls", "self_s"),
    "quadrature.lp_norm_1d": ("calls", "computed", "busy_s", "self_s", "passes"),
    "quadrature.roots_hermite": ("calls", "self_s"),
    "quadrature.gauss_hermite_rule": ("calls", "self_s"),
    "spectral_ops.kernel_series": ("calls", "self_s"),
    "spectral_ops.effective_weights": ("calls", "self_s"),
    "spectral_ops.level_tail_bound": ("calls", "self_s"),
    "nuclearity.kappa_sum": ("calls", "busy_s", "self_s"),
    "nuclearity.s_r_sum": ("calls", "busy_s", "self_s", "orders_tried"),
    "nuclearity.compare_sr_kappa": ("calls", "busy_s", "self_s"),
    "trace_lab.trace_symbol_sum": ("calls", "busy_s", "self_s"),
    "trace_lab.trace_diagonal_quadrature": ("calls", "busy_s", "self_s"),
    "trace_lab.galerkin_matrix": ("calls", "busy_s", "self_s"),
    "trace_lab.spectral_trace_check": ("calls", "busy_s", "self_s"),
}
PER_LAYER = {f"{layer}.{fig}": _FIGURES[fig]
             for layer, figs in _LAYER_FIGURES.items() for fig in figs}
PER_LAYER.update({"cli.import_s": "s", "cli.main_s": "s", "cli.output_bytes": "bytes",
                  "trace.spans": "count", "trace.overhead_pct": "%"})


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run(argv, env, stdin_text=None) -> str:
    proc = subprocess.run(argv, input=stdin_text, capture_output=True, text=True,
                          env=env, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(map(str, argv))} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def import_seconds(module: str, env) -> float:
    """Time of `import module` in a fresh interpreter."""
    return float(_run([sys.executable, "-c", IMPORT_PROBE.format(module)], env))


def run_round(workload: str, ops: list, traced: bool, env) -> dict:
    mode = "cli" if workload == "cli" else "api"
    argv = [sys.executable, str(HERE / "worker.py"), mode] + (["--traced"] if traced else [])
    return json.loads(_run(argv, env, json.dumps(ops)))


def measure(workload, ops, seconds, trace, env, probe_module):
    """Rounds until the next would end after `seconds`; a traced run's first is untraced.

    The SETUP_SAMPLES import probes run one before each of the first
    rounds, so that they sample more of the run than its first seconds.
    Returns the rounds and the median probe.
    """
    rounds, durations, probes = [], [], []
    start = time.perf_counter()
    while True:
        if len(probes) < SETUP_SAMPLES:
            probes.append(import_seconds(probe_module, env))
        traced = trace and bool(rounds)
        t0 = time.perf_counter()
        result = run_round(workload, ops, traced, env)
        durations.append(time.perf_counter() - t0)
        result["traced"] = traced
        rounds.append(result)
        if trace and not traced:
            continue
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    probes += [import_seconds(probe_module, env) for _ in range(SETUP_SAMPLES - len(probes))]
    return rounds, statistics.median(probes)


def check_rounds(workload, ops, rounds) -> list:
    problems = []
    for r in rounds:
        results = [o["result"] if o["ok"] else None for o in r["ops"]]
        norms = {}
        for i, (op, res) in enumerate(zip(ops, results)):
            if res is None:
                continue
            if workload == "cli":
                problems += checks.check_cli(op, res, results)
                first = rounds[0]["ops"][i]
                if first["ok"] and res["stdout"] != first["result"]["stdout"]:
                    problems.append(f"output of {' '.join(op['argv'])} differs between rounds")
            else:
                problems += checks.check_op(op, res)
                if op["kind"] == "norm":
                    norms[(op["degree"], checks.p_key(op["p"]))] = res["value"]
        problems += checks.check_norm_relations(norms)
    return list(dict.fromkeys(problems))


def speed_scale(rnd) -> float:
    """Reference over mean calibration time of one round (worker.CALIBRATIONS).

    The shared host's speed drifts by up to half in phases of seconds to
    minutes, in CPU time as much as in wall time.  Every round times a
    fixed calibration, of the same kind of work as its operations but
    none of hermult's, at its start and end and between operations at
    least every 0.1 s; a round's times multiplied by this factor are its
    times at the reference speed.
    """
    return rnd["calibration_ref_ms"] / statistics.fmean(rnd["calibration_ms"])


def end_to_end(rounds, setup_s) -> dict:
    """Medians over the run's rounds of each round's figures at the reference speed.

    wall_s is a round's summed operation time, op_gmean_ms the geometric
    mean of its operation times.
    """
    scales = [speed_scale(r) for r in rounds]
    op_ms = [[o["ms"] for o in r["ops"]] for r in rounds]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(k * math.fsum(ms) / 1e3 for k, ms in zip(scales, op_ms)),
        "op_gmean_ms": statistics.median(k * statistics.geometric_mean(ms)
                                         for k, ms in zip(scales, op_ms)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(rounds, cli_import_s) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {name: statistics.median(r["layers"].get(name, 0) for r in traced)
           for name in PER_LAYER}
    out["cli.import_s"] = cli_import_s
    out["trace.spans"] = sum(v for k, v in out.items() if k.endswith(".calls"))
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hermult benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hermult" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no program at ./src/hermult; run from a checkout root\n")
        return 2
    env = child_env(root)
    _run([sys.executable, "-m", "compileall", "-q", str(root / "src")], env)
    workdir = HERE / "_work"
    workdir.mkdir(exist_ok=True)
    ops = workloads.plan(args.workload, args.seed, Path(os.path.relpath(workdir, root)))

    trace = bool(args.trace)
    rounds, setup_s = measure(args.workload, ops, args.seconds, trace, env,
                              "hermult.cli" if trace else "hermult")

    problems = check_rounds(args.workload, ops, rounds)
    for p in problems[:20]:
        sys.stderr.write(f"CHECK FAILED: {p}\n")
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(not o["ok"] for r in rounds for o in r["ops"])
    if trace:
        values, units = per_layer(rounds, setup_s), PER_LAYER
    else:
        values, units = end_to_end(rounds, setup_s), END_TO_END
    sys.stderr.write(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
                     f"{attempted} operations, {failed} failed, {len(problems)} check failures\n")
    for name, unit in units.items():
        sys.stderr.write(f"  {name:45s} {values[name]:.6g} {unit}\n")
    if not trace:
        scales = ", ".join(f"{speed_scale(r):.3f}" for r in rounds)
        sys.stderr.write(f"  times scaled to the reference speed by round: {scales}\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
