"""End-to-end tests of the command-line interface via subprocesses."""

import csv
import io
import json
import subprocess
import sys
import time

import pytest

from hermult.nuclearity import CriterionReport


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "hermult", *argv],
        capture_output=True, text=True, timeout=120,
    )


def stdout_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def stderr_json(proc):
    return json.loads(proc.stderr)


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestSemigroup:
    def test_single_time_all_routes_agree(self):
        obj = stdout_json(run_cli("semigroup", "--n", "1", "--t", "1"))
        assert obj["schema"] == 1
        assert obj["dimension"] == 1
        (row,) = obj["rows"]
        for key in ("symbol_sum", "diagonal_quadrature", "closed_form"):
            assert abs(row[key] - 0.4254590641196608) < 1e-7
        assert row["max_abs_discrepancy"] < 1e-10

    def test_default_grid_has_three_rows(self):
        obj = stdout_json(run_cli("semigroup"))
        assert [row["t"] for row in obj["rows"]] == [0.5, 1.0, 2.0]

    def test_csv_format(self):
        proc = run_cli("semigroup", "--t", "1", "--format", "csv")
        assert proc.returncode == 0
        rows = csv_rows(proc.stdout)
        assert rows[0] == ["t", "symbol_sum", "diagonal_quadrature",
                           "closed_form", "max_abs_discrepancy"]
        assert len(rows) == 2
        assert float(rows[1][1]) == pytest.approx(0.4254590641196608, rel=1e-12)

    def test_determinism_byte_identical(self):
        a = run_cli("semigroup", "--n", "2")
        b = run_cli("semigroup", "--n", "2")
        assert a.stdout == b.stdout
        assert a.stdout != ""

    def test_two_dimensions(self):
        obj = stdout_json(run_cli("semigroup", "--t", "1", "--n", "2"))
        (row,) = obj["rows"]
        assert abs(row["closed_form"] - 0.4254590641196608**2) < 1e-12


class TestCriterion:
    def test_heat_at_two_two(self):
        obj = stdout_json(run_cli(
            "criterion", "--p1", "2", "--p2", "2", "--r", "1", "--symbol", "heat:1"))
        assert obj["verdict"] == "finite"
        assert abs(obj["partial_sum"] - 0.425459) < 1e-5
        assert obj["r"] == "1"
        assert obj["p2_regime"] == "sub4"

    def test_gl_order_resolves_r(self):
        obj = stdout_json(run_cli("criterion", "--p1", "2", "--p2", "2",
                                  "--gl-order", "2"))
        assert obj["r"] == "1"

    def test_gl_order_at_four(self):
        obj = stdout_json(run_cli("criterion", "--p1", "2", "--p2", "2",
                                  "--gl-order", "4"))
        assert obj["r"] == "4/5"

    def test_fraction_exponent_parses_exactly(self):
        obj = stdout_json(run_cli("criterion", "--p1", "4/3", "--p2", "4",
                                  "--symbol", "heat:0.5"))
        assert obj["p1"] == "4/3"
        assert obj["alpha"] == -0.25
        assert obj["log_power"] == 2.0

    def test_p2_inf_supported(self):
        obj = stdout_json(run_cli("criterion", "--p2", "inf"))
        assert obj["p2"] == "inf"
        assert obj["verdict"] == "finite"

    def test_json_reparses_into_report(self):
        obj = stdout_json(run_cli("criterion", "--symbol", "heat:0.5"))
        report = CriterionReport.from_json_obj(obj)
        assert report.to_json_obj() == obj

    def test_csv_single_row(self):
        proc = run_cli("criterion", "--format", "csv")
        rows = csv_rows(proc.stdout)
        assert rows[0][0] == "criterion"
        assert len(rows) == 2
        assert rows[1][rows[0].index("verdict")] == "finite"

    def test_p1_one_exits_unsupported(self):
        proc = run_cli("criterion", "--p1", "1", "--p2", "2")
        assert proc.returncode == 3
        err = stderr_json(proc)["error"]
        assert err["type"] == "UnsupportedRegimeError"
        assert "p1" in err["hypothesis"]

    def test_r_and_gl_order_conflict(self):
        proc = run_cli("criterion", "--r", "1", "--gl-order", "2")
        assert proc.returncode == 2
        assert stderr_json(proc)["error"]["type"] == "ConfigError"

    def test_divergent_verdict_still_exits_zero(self):
        proc = run_cli("criterion", "--symbol", "power:0.1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "divergent"


class TestTrace:
    def test_heat_gets_closed_form(self):
        obj = stdout_json(run_cli("trace", "--symbol", "heat:1", "--N", "60"))
        assert obj["closed_form"] == pytest.approx(0.4254590641196608, rel=1e-14)
        assert max(obj["discrepancies"].values()) < 1e-12

    def test_power_has_no_closed_form(self):
        obj = stdout_json(run_cli("trace", "--symbol", "power:3", "--N", "80"))
        assert obj["closed_form"] is None
        assert set(obj["discrepancies"]) == {"symbol_vs_quadrature"}

    def test_table_file_with_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("nu1,value\n0,5\n3,-2\n")
        obj = stdout_json(run_cli("trace", "--symbol", f"table:{path}", "--N", "10"))
        assert obj["symbol_sum"] == 3.0
        assert obj["symbol_tail"] == 0.0

    def test_table_file_without_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,5\n3,-2\n")
        obj = stdout_json(run_cli("trace", "--symbol", f"table:{path}", "--N", "10"))
        assert obj["symbol_sum"] == 3.0

    def test_table_dimension_two(self, tmp_path):
        path = tmp_path / "m2.csv"
        path.write_text("nu1,nu2,value\n0,0,1\n1,2,4\n")
        obj = stdout_json(run_cli("trace", "--symbol", f"table:{path}", "--n", "2",
                                  "--N", "8"))
        assert obj["symbol_sum"] == 5.0

    def test_non_finite_table_value_exits_two(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("nu1,value\n0,5\n3,inf\n")
        proc = run_cli("trace", "--symbol", f"table:{path}")
        assert proc.returncode == 2
        err = stderr_json(proc)["error"]
        assert err["type"] == "DomainError"
        assert "table value at (3,) is not finite: inf" in err["message"]

    def test_uncertifiable_tail_exits_four(self):
        proc = run_cli("trace", "--symbol", "power:0.5")
        assert proc.returncode == 4
        assert stderr_json(proc)["error"]["type"] == "InconclusiveError"

    def test_missing_table_file_exits_two(self):
        proc = run_cli("trace", "--symbol", "table:/nonexistent/x.csv")
        assert proc.returncode == 2
        assert stderr_json(proc)["error"]["type"] == "DomainError"

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("trace", "--N", "40", "--output", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        obj = json.loads(out.read_text())
        assert obj["schema"] == 1


class TestKernel:
    def test_series_matches_closed_form(self):
        obj = stdout_json(run_cli("kernel", "--t", "1", "--grid", "0,1", "--N", "80"))
        assert len(obj["rows"]) == 4
        for row in obj["rows"]:
            assert row["abs_error"] < 1e-10
            assert row["tail_bound"] < 1e-12

    def test_origin_value(self):
        obj = stdout_json(run_cli("kernel", "--t", "1", "--grid", "0", "--N", "80"))
        (row,) = obj["rows"]
        assert row["closed_form"] == pytest.approx(0.20948100342398213, rel=1e-13)

    def test_dimension_two_vectors(self):
        obj = stdout_json(run_cli("kernel", "--t", "0.5", "--grid", "0,1",
                                  "--n", "2", "--N", "60"))
        for row in obj["rows"]:
            assert len(row["x"]) == 2
            assert row["abs_error"] < 1e-9

    def test_grid_value_starting_with_minus(self):
        # the README form: a separate value that argparse would take for an option
        spaced = run_cli("kernel", "--t", "0.5", "--grid", "-2,0,2", "--format", "csv")
        joined = run_cli("kernel", "--t", "0.5", "--grid=-2,0,2", "--format", "csv")
        assert spaced.returncode == 0, spaced.stderr
        assert spaced.stdout == joined.stdout
        assert len(csv_rows(spaced.stdout)) == 10

    def test_huge_points_give_zero_without_warnings(self):
        proc = run_cli("kernel", "--t", "0.5", "--grid=1e150,0", "--format", "csv")
        assert proc.returncode == 0 and proc.stderr == ""
        header, *rows = csv_rows(proc.stdout)
        assert len(rows) == 4
        for row in rows:
            cells = dict(zip(header, row))
            if "1e+150" in (cells["x"], cells["y"]):
                assert cells["series"] == cells["closed_form"] == cells["abs_error"] == "0.0"

    def test_csv_joins_coordinates(self):
        proc = run_cli("kernel", "--grid", "0,1", "--n", "2", "--N", "40",
                       "--format", "csv")
        rows = csv_rows(proc.stdout)
        assert rows[0][0] == "x"
        assert rows[1][0] == "0.0;0.0"


class TestNorms:
    def test_rows_and_ratio(self):
        obj = stdout_json(run_cli("norms", "--degrees", "10,100", "--p", "2,inf"))
        rows = obj["rows"]
        assert len(rows) == 4
        by_key = {(r["nu"], r["p"]): r for r in rows}
        assert by_key[(100, "2")]["computed"] == pytest.approx(1.0, rel=1e-10)
        assert by_key[(100, "2")]["ratio"] == pytest.approx(1.0, rel=1e-10)
        assert by_key[(100, "inf")]["computed"] < 1.0

    def test_fractional_p_served_in_one_pass(self):
        # the panel route at p = 4/3 and 5/2, degree 1600, process start included
        start = time.perf_counter()
        obj = stdout_json(run_cli("norms", "--degrees", "1600", "--p", "4/3,5/2"))
        assert time.perf_counter() - start < 2.0
        assert [row["p"] for row in obj["rows"]] == ["1.33333", "2.5"]
        assert all(row["computed"] > 0 for row in obj["rows"])

    def test_csv_header(self):
        proc = run_cli("norms", "--degrees", "5", "--p", "2", "--format", "csv")
        rows = csv_rows(proc.stdout)
        assert rows[0] == ["nu", "p", "computed", "model", "ratio"]
        assert len(rows) == 2

    def test_bad_degree_list_exits_two(self):
        proc = run_cli("norms", "--degrees", "5,abc")
        assert proc.returncode == 2
        assert stderr_json(proc)["error"]["type"] == "ConfigError"

    def test_exponent_past_the_double_range_exits_two(self):
        # 1e400 reads as an exact rational with no float
        proc = run_cli("norms", "--degrees", "3", "--p", "1e400")
        assert proc.returncode == 2
        assert stderr_json(proc)["error"]["type"] == "CapabilityError"


class TestParsing:
    def test_unknown_flag(self):
        proc = run_cli("trace", "--bogus")
        assert proc.returncode == 2
        assert stderr_json(proc)["error"]["type"] == "ConfigError"

    def test_missing_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_symbol_kind(self):
        proc = run_cli("trace", "--symbol", "gauss:1")
        assert proc.returncode == 2
        assert "heat:<t>" in stderr_json(proc)["error"]["message"]

    def test_symbol_without_parameter(self):
        proc = run_cli("trace", "--symbol", "heat")
        assert proc.returncode == 2

    def test_negative_time_is_domain_error(self):
        proc = run_cli("semigroup", "--t", "-1")
        assert proc.returncode == 2
        assert stderr_json(proc)["error"]["type"] == "DomainError"

    def test_error_objects_are_schema_versioned(self):
        proc = run_cli("criterion", "--p1", "1")
        assert stderr_json(proc)["schema"] == 1


class TestTolerance:
    # --tol must be finite and positive for every subcommand; before, criterion
    # printed "tolerance": NaN or Infinity (not JSON) and semigroup reported a
    # ConvergenceError
    @pytest.mark.parametrize("argv", [
        ("criterion", "--symbol", "heat:1", "--tol", "nan"),
        ("criterion", "--symbol", "heat:1", "--tol", "inf"),
        ("criterion", "--symbol", "heat:1", "--tol", "-1"),
        ("criterion", "--symbol", "heat:1", "--tol", "0"),
        ("semigroup", "--t", "1", "--tol", "nan"),
        ("norms", "--tol", "nan"),
    ], ids=["criterion-nan", "criterion-inf", "criterion-neg", "criterion-zero",
            "semigroup-nan", "norms-nan"])
    def test_refused_as_config_error(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        error = stderr_json(proc)["error"]
        assert error["type"] == "ConfigError"
        assert "--tol" in error["message"]

    def test_non_number_keeps_argparse_message(self):
        proc = run_cli("trace", "--tol", "abc")
        assert proc.returncode == 2
        assert stderr_json(proc)["error"]["message"] == (
            "argument --tol: invalid float value: 'abc'"
        )


class TestNoScipy:
    def test_import_and_every_subcommand_leave_scipy_unloaded(self, tmp_path):
        # scipy is a test oracle only: neither the import nor any subcommand,
        # run in-process by main(), may load it
        table = tmp_path / "weights.csv"
        table.write_text("0,0,1.0\n1,2,-0.5\n")
        script = f"""
import sys
import hermult
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
from hermult.cli import main
codes = [main(argv) for argv in (
    ["semigroup", "--n", "1", "--t", "1"],
    ["criterion", "--p1", "2", "--p2", "2", "--r", "1", "--symbol", "heat:1"],
    ["criterion", "--p1", "4/3", "--p2", "4", "--symbol", "heat:0.5"],
    ["criterion", "--p1", "3/2", "--p2", "inf", "--symbol", "heat:1", "--N", "30"],
    ["trace", "--symbol", "power:3", "--N", "80"],
    ["trace", "--symbol", "table:{table}", "--n", "2"],
    ["kernel", "--t", "0.5", "--grid", "-2,0,2", "--format", "csv"],
    ["norms", "--degrees", "10,100,1000", "--p", "1,2,4,inf"],
)]
loaded += [m for m in sys.modules if m.split(".")[0] == "scipy"]
print(codes, sorted(set(loaded)), file=sys.stderr)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0, 0] []"
