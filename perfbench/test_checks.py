"""The benchmark's own tests: every correctness check rejects a perturbed result.

    python3 -m pytest perfbench/test_checks.py

They need neither hermult nor mpmath: exact results are built from the
stored references and the closed forms in checks.py.
"""

import json
from pathlib import Path

import pytest

import checks
import run
import workloads


def _semigroup_output(t=1.0):
    ref = checks.heat_trace(t, 1)
    row = {"closed_form": ref, "diagonal_quadrature": ref, "max_abs_discrepancy": 0.0,
           "symbol_sum": ref, "t": t}
    return json.dumps({"rows": [row], "schema": 1}, indent=2, sort_keys=True) + "\n"


def _cli_result(stdout, code=0):
    return {"code": code, "stdout": stdout, "stderr": ""}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heat_trace_off_by_1e_6_is_rejected(n):
    op = {"kind": "trace_symbol_sum", "symbol": ["heat", 0.8, n]}
    exact = {"value": checks.heat_trace(0.8, n), "tail_bound": 1e-14, "truncation_order": 200}
    assert checks.check_op(op, exact) == []
    off = dict(exact, value=exact["value"] + 1e-6)
    assert checks.check_op(op, off)


def test_trace_report_off_by_1e_6_is_rejected():
    ref = checks.power_trace(1, 3)
    rep = {"symbol_sum": ref, "symbol_tail": 1e-12, "diagonal_quadrature": ref,
           "quadrature_tol": 1e-8, "truncation_order": 80}
    op = {"kind": "trace_report", "symbol": ["power", 3, 1]}
    assert checks.check_op(op, rep) == []
    assert checks.check_op(op, dict(rep, symbol_sum=ref - 1e-6))
    assert checks.check_op(op, dict(rep, diagonal_quadrature=ref + 1e-6))


@pytest.mark.parametrize("p", ["1", "4", "inf"])
@pytest.mark.parametrize("degree", [0, 7, 40])
def test_norm_off_beyond_its_tolerance_is_rejected(degree, p):
    ref = checks.refs()["norms"][p][degree]
    assert checks.check_norm(degree, p, ref) == []
    assert checks.check_norm(degree, p, ref * (1 + 0.5 * checks.NORM_RTOL)) == []
    assert checks.check_norm(degree, p, ref * (1 + 3 * checks.NORM_RTOL))
    assert checks.check_norm(degree, p, ref * (1 - 3 * checks.NORM_RTOL))


def test_high_degree_norms_are_held_to_their_properties():
    assert checks.check_norm(2000, 2.0, 1.0 + 1e-13) == []
    assert checks.check_norm(2000, 2.0, 1.0 + 3 * checks.NORM_RTOL)
    assert checks.check_norm(2000, "inf", 1.001 * checks.SUP_BOUND)
    good = {(2000, "1"): 9.7713, (2000, "2"): 1.0, (2000, "4"): 0.37494,
            (2000, "6"): 0.31196, (2000, "inf"): 0.33821}
    assert checks.check_norm_relations(good) == []
    assert checks.check_norm_relations({**good, (2000, "1"): 2.9})
    assert checks.check_norm_relations({**good, (2000, "4"): 0.6})


def test_sr_partial_sum_against_reference():
    op = {"kind": "s_r_sum", "symbol": ["heat", 1.0, 1], "p1": "1", "p2": "1", "r": "2/3",
          "N": None}
    ref = checks.refs()["s_r_heat1_p1_1_p2_1_r_2_3"]
    rep = {"partial_sum": ref, "tail_bound": 1e-100, "tolerance": 1e-8, "verdict": "finite",
           "truncation_order": 200}
    assert checks.check_op(op, rep) == []
    assert checks.check_op(op, dict(rep, partial_sum=ref * (1 + 1e-6)))
    assert checks.check_op(op, dict(rep, verdict="inconclusive"))


def test_cli_output_with_one_changed_byte_is_rejected():
    op = {"kind": "cli", "argv": ["semigroup", "--n", "1", "--t", "1"], "check": "semigroup",
          "expect": 0}
    text = _semigroup_output()
    first = _cli_result(text)
    assert checks.check_cli(op, first, [first]) == []
    # a changed last digit keeps the value within tolerance; only the bytes differ
    i = text.index(",\n") - 1
    changed = _cli_result(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
    assert checks.check_cli(op, changed, [changed]) == []
    repeat = dict(op, repeat_of=0)
    assert checks.check_cli(repeat, first, [first, first]) == []
    assert checks.check_cli(repeat, changed, [first, changed])
    rounds = [{"ops": [{"ok": True, "result": r}]} for r in (first, changed)]
    assert run.check_rounds("cli", [op], rounds)


def test_kernel_value_off_is_rejected():
    x, y = [0.3, -1.2], [1.1, 0.4]
    op = {"kind": "kernel_series", "symbol": ["heat", 0.7, 2], "x": x, "y": y, "N": 200}
    exact = {"value": checks.mehler(0.7, x, y), "tail_bound": 1e-30, "truncation_order": 200}
    assert checks.check_op(op, exact) == []
    assert checks.check_op(op, dict(exact, value=exact["value"] + 1e-9))


def test_galerkin_eigenvalues_off_are_rejected():
    op = {"kind": "galerkin_eigenvalues", "symbol": ["heat", 1.0, 1], "truncation": 20}
    eig = sorted(checks.heat_eigenvalues(1.0, 20))
    assert checks.check_op(op, {"eigenvalues": eig}) == []
    assert checks.check_op(op, {"eigenvalues": eig[:-1] + [eig[-1] * (1 + 1e-9)]})


def test_closed_forms_agree_with_each_other():
    # the Mehler kernel integrates along the diagonal to the trace; check at one time
    # by a Riemann sum, which is exact to rounding for a Gaussian on a fine grid
    t, h = 0.6, 0.01
    diag = sum(checks.mehler(t, [k * h], [k * h]) for k in range(-1500, 1501)) * h
    assert diag == pytest.approx(checks.heat_trace(t, 1), rel=1e-12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    a = workloads.plan(workload, 7, tmp_path)
    b = workloads.plan(workload, 7, tmp_path)
    c = workloads.plan(workload, 8, tmp_path)
    assert a == b
    assert a != c
    assert sorted(op["kind"] for op in a) == sorted(op["kind"] for op in c)


def test_every_layer_metric_is_declared():
    declared = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
