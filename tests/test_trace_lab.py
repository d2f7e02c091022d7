"""Tests for the multi-route trace comparisons."""

import math

import numpy as np
import pytest
from scipy.special import zeta

from hermult.errors import (
    CapabilityError,
    ConvergenceError,
    DomainError,
    HermultError,
    InconclusiveError,
    TraceCheckRefused,
)
from hermult.nuclearity import CriterionReport
from hermult.spectral_ops import (
    constant_symbol,
    custom_symbol,
    heat_symbol,
    power_symbol,
    table_symbol,
)
from hermult.trace_lab import (
    SpectralTraceReport,
    TraceReport,
    TraceValue,
    galerkin_matrix,
    semigroup_trace_closed_form,
    semigroup_trace_mehler_form,
    spectral_trace_check,
    trace_diagonal_quadrature,
    trace_report,
    trace_symbol_sum,
)

# 1 / (e - 1/e), the t = 1 heat trace in one dimension
GEOM_T1 = 0.4254590641196608


class TestSymbolSum:
    def test_heat_one_dimension(self):
        tv = trace_symbol_sum(heat_symbol(1.0))
        assert math.isclose(tv.value, GEOM_T1, rel_tol=1e-14)
        assert 0.0 <= tv.tail_bound < 1e-10
        assert tv.truncation_order >= 200

    def test_heat_two_dimensions_factorizes(self):
        tv = trace_symbol_sum(heat_symbol(1.0, n=2))
        assert math.isclose(tv.value, GEOM_T1**2, rel_tol=1e-13)

    def test_heat_three_dimensions(self):
        tv = trace_symbol_sum(heat_symbol(0.5, n=3))
        one = 1.0 / (math.exp(0.5) - math.exp(-0.5))
        assert math.isclose(tv.value, one**3, rel_tol=1e-12)

    def test_table_exact(self):
        tv = trace_symbol_sum(table_symbol({(0,): 5.0, (3,): -2.0}))
        assert tv.value == 3.0
        assert tv.tail_bound == 0.0

    def test_explicit_order_keeps_certified_tail(self):
        tv = trace_symbol_sum(heat_symbol(1.0), N=40)
        assert tv.truncation_order == 40
        assert 0.0 < tv.tail_bound < 1e-30
        assert math.isclose(tv.value, GEOM_T1, rel_tol=1e-14)

    def test_explicit_order_truncating_table_support(self):
        tv = trace_symbol_sum(table_symbol({(0,): 5.0, (3,): -2.0}), N=2)
        assert tv.value == 5.0
        assert tv.tail_bound == 2.0

    def test_power_series_matches_zeta(self):
        # sum over odd integers of m^{-3} equals (1 - 2^{-3}) zeta(3)
        tv = trace_symbol_sum(power_symbol(3.0), tol=1e-6)
        expected = 0.875 * float(zeta(3.0))
        assert abs(tv.value - expected) <= tv.tail_bound
        assert math.isclose(tv.value, expected, rel_tol=1e-6)

    def test_tail_bound_honest_for_heat(self):
        # envelope is exactly tight for heat, so only rounding separates
        # the bound from the discarded mass
        m = heat_symbol(0.05)
        small = trace_symbol_sum(m, N=30)
        big = trace_symbol_sum(m, N=400)
        assert abs(big.value - small.value) <= small.tail_bound * (1.0 + 1e-12)

    def test_no_envelope_is_inconclusive(self):
        with pytest.raises(InconclusiveError):
            trace_symbol_sum(custom_symbol(lambda nu: 0.0))

    def test_slow_power_is_inconclusive(self):
        with pytest.raises(InconclusiveError):
            trace_symbol_sum(power_symbol(0.8))

    def test_doubling_cap_raises_convergence_error(self):
        with pytest.raises(ConvergenceError) as exc:
            trace_symbol_sum(power_symbol(2.5), tol=1e-12)
        assert exc.value.last_two is not None
        lo, hi = exc.value.last_two
        assert hi >= lo > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            trace_symbol_sum(heat_symbol(1.0, n=2), n=1)

    def test_deterministic(self):
        a = trace_symbol_sum(heat_symbol(0.3, n=2))
        b = trace_symbol_sum(heat_symbol(0.3, n=2))
        assert a == b


class TestDiagonalQuadrature:
    def test_heat_matches_closed_form(self):
        value = trace_diagonal_quadrature(heat_symbol(1.0), N=60)
        assert math.isclose(value, GEOM_T1, rel_tol=1e-12)

    def test_two_dimensions(self):
        value = trace_diagonal_quadrature(heat_symbol(1.0, n=2), N=40)
        assert math.isclose(value, GEOM_T1**2, rel_tol=1e-12)

    def test_table_sums_unit_norms(self):
        value = trace_diagonal_quadrature(table_symbol({(1,): 1.0, (2,): 1.0}), N=10)
        assert math.isclose(value, 2.0, rel_tol=1e-12)

    def test_ground_state_norm(self):
        value = trace_diagonal_quadrature(table_symbol({(0,): 1.0}), N=5)
        assert math.isclose(value, 1.0, rel_tol=1e-13)

    def test_matches_truncated_symbol_sum(self):
        m = heat_symbol(0.2)
        value = trace_diagonal_quadrature(m, N=25)
        partial = math.fsum(math.exp(-0.2 * (2 * k + 1)) for k in range(26))
        assert math.isclose(value, partial, rel_tol=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            trace_diagonal_quadrature(heat_symbol(1.0), N=-1)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            trace_diagonal_quadrature(heat_symbol(1.0), n=3)


class TestSemigroupClosedForm:
    def test_frozen_value_at_one(self):
        assert semigroup_trace_closed_form(1.0) == pytest.approx(GEOM_T1, rel=1e-15)

    def test_power_structure_in_dimension(self):
        one = semigroup_trace_closed_form(1.3)
        for n in (2, 3, 5):
            assert math.isclose(semigroup_trace_closed_form(1.3, n=n), one**n,
                                rel_tol=1e-12)

    def test_large_time_approaches_ground_energy_decay(self):
        # (e^t - e^{-t})^{-1} = e^{-t} (1 + e^{-2t} + ...)
        value = semigroup_trace_closed_form(5.0)
        assert math.isclose(value, math.exp(-5.0), rel_tol=1e-4)
        assert value > math.exp(-5.0)

    def test_small_time_blowup_rate(self):
        # (e^t - e^{-t})^{-1} ~ 1/(2t) as t -> 0
        value = semigroup_trace_closed_form(1e-8)
        assert math.isclose(value, 0.5e8, rel_tol=1e-8)

    def test_underflow_returns_zero(self):
        assert semigroup_trace_closed_form(800.0) == 0.0

    def test_mehler_form_agrees(self):
        for t in (0.3, 1.0, 2.5, 10.0):
            for n in (1, 2, 4):
                a = semigroup_trace_closed_form(t, n=n)
                b = semigroup_trace_mehler_form(t, n=n)
                assert math.isclose(a, b, rel_tol=1e-12)

    def test_invalid_inputs(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                semigroup_trace_closed_form(bad)
        with pytest.raises(DomainError):
            semigroup_trace_closed_form(1.0, n=0)


class TestTraceReportRoutes:
    def test_heat_all_routes_agree(self):
        closed = semigroup_trace_closed_form(1.0)
        rep = trace_report(heat_symbol(1.0), N=60, closed_form=closed)
        assert rep.discrepancies["symbol_vs_quadrature"] < 1e-13
        assert rep.discrepancies["symbol_vs_closed"] < 1e-13
        assert rep.discrepancies["quadrature_vs_closed"] < 1e-13

    def test_two_dimensional_routes(self):
        closed = semigroup_trace_closed_form(0.5, n=2)
        rep = trace_report(heat_symbol(0.5, n=2), N=50, closed_form=closed)
        assert max(rep.discrepancies.values()) < 1e-11

    def test_without_closed_form(self):
        rep = trace_report(power_symbol(3.0), N=80)
        assert rep.closed_form is None
        assert set(rep.discrepancies) == {"symbol_vs_quadrature"}
        assert rep.discrepancies["symbol_vs_quadrature"] < 1e-12

    def test_wrong_closed_form_raises(self):
        with pytest.raises(ConvergenceError):
            trace_report(heat_symbol(1.0), N=60, closed_form=0.5)

    def test_json_object(self):
        rep = trace_report(heat_symbol(1.0), N=40,
                           closed_form=semigroup_trace_closed_form(1.0))
        obj = rep.to_json_obj()
        assert obj["schema"] == 1
        assert obj["symbol"] == "heat:1"
        assert obj["dimension"] == 1
        assert obj["truncation_order"] == 40
        assert list(obj["discrepancies"]) == sorted(obj["discrepancies"])


class TestGalerkinMatrix:
    def test_table_eigenvalues_recover_symbol(self):
        A = galerkin_matrix(table_symbol({(0,): 5.0, (3,): -2.0}), truncation=8)
        eig = np.sort(np.linalg.eigvalsh(A))
        assert abs(eig[0] - (-2.0)) < 1e-10
        assert abs(eig[-1] - 5.0) < 1e-10
        assert np.max(np.abs(eig[1:-1])) < 1e-10

    def test_heat_matrix_is_nearly_diagonal(self):
        A = galerkin_matrix(heat_symbol(1.0), truncation=20)
        expected = np.exp(-(2.0 * np.arange(21) + 1.0))
        assert np.max(np.abs(np.diag(A) - expected)) < 1e-13
        off = A - np.diag(np.diag(A))
        assert np.max(np.abs(off)) < 1e-13

    def test_symmetric(self):
        A = galerkin_matrix(power_symbol(2.0), truncation=15)
        assert np.max(np.abs(A - A.T)) < 1e-14

    def test_dimension_two_unsupported(self):
        with pytest.raises(CapabilityError):
            galerkin_matrix(heat_symbol(1.0, n=2), truncation=10)

    def test_negative_truncation(self):
        with pytest.raises(DomainError):
            galerkin_matrix(heat_symbol(1.0), truncation=-1)


class TestSpectralTraceCheck:
    def test_heat_at_p_two(self):
        rep = spectral_trace_check(heat_symbol(1.0), 2, truncation=60)
        assert rep.criterion.verdict == "finite"
        assert rep.hypotheses_met is True
        assert rep.r_used == "1"
        assert rep.r_gl == "1"
        assert math.isclose(rep.trace, GEOM_T1, rel_tol=1e-13)
        assert rep.discrepancy < 1e-10
        assert rep.max_offdiagonal < 1e-10

    def test_table_eigenvalue_sum(self):
        rep = spectral_trace_check(table_symbol({(0,): 5.0, (3,): -2.0}), 2,
                                   truncation=10)
        assert rep.trace == 3.0
        assert abs(rep.eigenvalue_sum - 3.0) < 1e-10

    def test_divergent_symbol_refused(self):
        with pytest.raises(TraceCheckRefused) as exc:
            spectral_trace_check(constant_symbol(1.0), 2)
        assert exc.value.verdict == "divergent"
        assert isinstance(exc.value.report, CriterionReport)

    def test_p_one_uses_direct_norm_route(self):
        rep = spectral_trace_check(heat_symbol(1.0), 1, truncation=40)
        assert rep.criterion.verdict == "finite"
        assert rep.r_used == "2/3"
        assert rep.criterion.tail_kind == "empirical"
        assert rep.discrepancy < 1e-10

    def test_conjugate_orders_share_r(self):
        a = spectral_trace_check(heat_symbol(1.0), 4, truncation=30)
        from fractions import Fraction
        b = spectral_trace_check(heat_symbol(1.0), Fraction(4, 3), truncation=30)
        assert a.r_gl == b.r_gl == "4/5"

    def test_r_override_clears_hypotheses_flag(self):
        rep = spectral_trace_check(heat_symbol(1.0), 2, truncation=30, r=0.5)
        assert rep.hypotheses_met is False
        assert rep.r_used == "1/2"
        assert rep.criterion.verdict == "finite"

    def test_json_object_nests_criterion(self):
        rep = spectral_trace_check(heat_symbol(1.0), 2, truncation=30)
        obj = rep.to_json_obj()
        assert obj["schema"] == 1
        assert obj["criterion"]["schema"] == 1
        assert obj["criterion"]["verdict"] == "finite"
        assert obj["p"] == "2"
        assert isinstance(obj["eigenvalue_sum"], float)

    def test_deterministic(self):
        a = spectral_trace_check(heat_symbol(0.5), 2, truncation=40)
        b = spectral_trace_check(heat_symbol(0.5), 2, truncation=40)
        assert a.trace == b.trace
        assert a.eigenvalue_sum == b.eigenvalue_sum
        assert a.discrepancy == b.discrepancy
