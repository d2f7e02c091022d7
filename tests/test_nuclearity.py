"""Tests for regime classification, weight laws, criterion sums, and reports."""

import json
import math
from fractions import Fraction

import pytest

from hermult.errors import DomainError, UnsupportedRegimeError
from hermult.hermite_core import enumerate_up_to
from hermult.nuclearity import (
    CriterionReport,
    PartitionCell,
    classify_regime,
    compare_sr_kappa,
    gl_condition,
    kappa_sum,
    kappa_weight,
    partition_cell_of,
    partition_cells,
    s_r_sum,
)
from hermult.quadrature import lp_norm_1d
from hermult.spectral_ops import constant_symbol, heat_symbol, power_symbol, table_symbol

GEOM_T1 = 1.0 / (math.e - math.exp(-1.0))  # sum of e^{-(2v+1)} over v >= 0

# independently derived (alpha, log_power) for the nine cases at r = 1
NINE_CASES = {
    (Fraction(2), Fraction(2)): ("sub4", "gt43", Fraction(0), Fraction(0)),
    (Fraction(4, 3), Fraction(2)): ("sub4", "eq43", Fraction(-1, 8), Fraction(1)),
    (Fraction(6, 5), Fraction(2)): ("sub4", "lt43", Fraction(-1, 9), Fraction(0)),
    (Fraction(2), Fraction(4)): ("eq4", "gt43", Fraction(-1, 8), Fraction(1)),
    (Fraction(4, 3), Fraction(4)): ("eq4", "eq43", Fraction(-1, 4), Fraction(2)),
    (Fraction(6, 5), Fraction(4)): ("eq4", "lt43", Fraction(-17, 72), Fraction(1)),
    (Fraction(2), Fraction(6)): ("super4", "gt43", Fraction(-1, 9), Fraction(0)),
    (Fraction(4, 3), Fraction(6)): ("super4", "eq43", Fraction(-17, 72), Fraction(1)),
    (Fraction(6, 5), Fraction(6)): ("super4", "lt43", Fraction(-2, 9), Fraction(0)),
}


class TestClassifyRegime:
    def test_nine_cases_exact(self):
        for (p1, p2), (reg, branch, alpha, lam) in NINE_CASES.items():
            case = classify_regime(p1, p2, 1)
            assert (case.p2_regime, case.p1_branch) == (reg, branch)
            assert case.alpha == alpha
            assert case.log_power == lam

    def test_named_examples(self):
        a = classify_regime(2, 2, 1)
        assert (a.p2_regime, a.p1_branch) == ("sub4", "gt43")
        b = classify_regime(Fraction(4, 3), 4, Fraction(1, 2))
        assert (b.p2_regime, b.p1_branch) == ("eq4", "eq43")
        c = classify_regime(1.2, 6, Fraction(2, 3))
        assert (c.p2_regime, c.p1_branch) == ("super4", "lt43")

    def test_p2_infinite(self):
        case = classify_regime(2, math.inf, 1)
        assert case.p2_regime == "super4"
        assert case.alpha == Fraction(-1, 12)
        assert case.log_power == 0

    def test_conjugate_duality(self):
        # gt43 iff the conjugate exponent is below 4
        for p1 in (Fraction(3, 2), 2, 4, 10):
            case = classify_regime(p1, 2, 1)
            assert case.p1_branch == "gt43"
            assert case.p1_conj < 4
        assert classify_regime(Fraction(4, 3), 2, 1).p1_conj == 4
        assert classify_regime(Fraction(6, 5), 2, 1).p1_conj == 6

    def test_float_exponents_snap_to_rationals(self):
        assert classify_regime(4 / 3, 2, 1).p1_branch == "eq43"
        assert classify_regime(1.2, 2, 1).p1 == Fraction(6, 5)
        assert classify_regime(2.0, 2, 1).p1 == 2

    def test_unsupported_p1(self):
        for bad in (1, 0.9, Fraction(1, 2)):
            with pytest.raises(UnsupportedRegimeError) as err:
                classify_regime(bad, 2, 1)
            assert err.value.hypothesis == "1 < p1 < infinity"
        with pytest.raises(UnsupportedRegimeError):
            classify_regime(math.inf, 2, 1)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            classify_regime(2, 0.5, 1)
        with pytest.raises(DomainError):
            classify_regime(2, 2, 0)
        with pytest.raises(DomainError):
            classify_regime(2, 2, Fraction(3, 2))
        with pytest.raises(DomainError):
            classify_regime(2, 2, 1, k=1)
        with pytest.raises(DomainError):
            classify_regime(2, 2, 1, k=2.5)

    def test_r_scaling_of_alpha(self):
        full = classify_regime(Fraction(4, 3), 4, 1)
        half = classify_regime(Fraction(4, 3), 4, Fraction(1, 2))
        assert half.alpha == full.alpha / 2
        assert half.log_power == full.log_power / 2


class TestPartition:
    def test_named_examples(self):
        assert partition_cell_of((11, 12, 13), 10) == 0
        assert partition_cell_of((3, 12), 10) == 1
        assert partition_cell_of((0, 0), 10) == 2

    def test_cells_cover_box_exactly_once(self):
        k = 3
        for n in (1, 2, 3):
            cells = partition_cells(n, k)
            counts = [0] * (n + 1)
            total = 0
            for nu in enumerate_up_to(n, 2 * k * n):
                if max(nu.entries) > 2 * k:
                    continue
                owners = [c.s for c in cells if c.contains(nu)]
                assert len(owners) == 1
                counts[owners[0]] += 1
                total += 1
            assert total == (2 * k + 1) ** n
            # s entries from {0..k} (k+1 choices), rest from {k+1..2k} (k choices)
            for s in range(n + 1):
                assert counts[s] == math.comb(n, s) * (k + 1) ** s * k ** (n - s)

    def test_cell_validation(self):
        with pytest.raises(DomainError):
            PartitionCell(s=3, k=10, dimension=2)
        cell = PartitionCell(s=1, k=10, dimension=2)
        with pytest.raises(DomainError):
            cell.contains((1, 2, 3))
        with pytest.raises(DomainError):
            partition_cell_of((1,), 1)


class TestKappaWeight:
    def test_frozen_power_law_example(self):
        case = classify_regime(2, 1, 1)  # alpha = (1/2)(1 - 1/2) = 1/4
        assert case.alpha == Fraction(1, 4)
        assert kappa_weight(case, (100,)) == pytest.approx(100 ** 0.25, rel=1e-14)
        assert kappa_weight(case, (100,)) == pytest.approx(3.16228, rel=1e-5)

    def test_frozen_log_law_example(self):
        case = classify_regime(Fraction(4, 3), 4, 1)  # alpha = -1/4, lambda = 2
        want = 55 ** -0.25 * math.log(55.0) ** 2
        assert kappa_weight(case, (55,)) == pytest.approx(want, rel=1e-14)
        assert kappa_weight(case, (55,)) == pytest.approx(5.8969, rel=1e-4)

    def test_weight_is_one_between_thresholds(self):
        for p in (2, 3, Fraction(3, 2)):
            case = classify_regime(p, p, 1)
            assert case.alpha == 0
            assert case.log_power == 0
            for nu in ((0,), (5,), (100,), (3, 200)):
                assert kappa_weight(case, nu) == 1.0

    def test_small_entries_use_cutoff_factor(self):
        case = classify_regime(2, 1, 1, k=10)
        assert kappa_weight(case, (5,)) == pytest.approx(10 ** 0.25, rel=1e-14)
        assert kappa_weight(case, (0, 3)) == pytest.approx(10 ** 0.5, rel=1e-14)

    def test_mixed_entries_factorize(self):
        case = classify_regime(Fraction(4, 3), 2, 1, k=10)
        a = float(case.alpha)
        kfac = 10 ** a * math.log(10.0)
        big = 50 ** a * math.log(50.0)
        assert kappa_weight(case, (2, 50)) == pytest.approx(kfac * big, rel=1e-14)

    def test_scale_covariance_on_log_free_branch(self):
        w1 = kappa_weight(classify_regime(2, 1, 1), (100,))
        w_half = kappa_weight(classify_regime(2, 1, Fraction(1, 2)), (100,))
        assert w_half == pytest.approx(w1 ** 0.5, rel=1e-14)

    def test_strictly_positive(self):
        case = classify_regime(Fraction(6, 5), 4, Fraction(2, 3))
        for nu in enumerate_up_to(2, 25):
            assert kappa_weight(case, nu) > 0.0


class TestKappaSum:
    def test_heat_geometric_series(self):
        rep = kappa_sum(heat_symbol(1.0), classify_regime(2, 2, 1))
        assert rep.partial_sum == pytest.approx(GEOM_T1, rel=1e-12)
        assert rep.verdict == "finite"
        assert rep.tail_kind == "certified"
        assert rep.tail_bound < 1e-8

    def test_partial_sums_nondecreasing(self):
        m = heat_symbol(0.2)
        case = classify_regime(Fraction(4, 3), 2, 1)
        partials = [kappa_sum(m, case, N=N).partial_sum for N in (15, 30, 60, 120)]
        assert partials == sorted(partials)

    def test_tail_bound_honest(self):
        m = heat_symbol(0.5)
        case = classify_regime(Fraction(4, 3), 4, 1)  # log-law case
        small = kappa_sum(m, case, N=15)
        big = kappa_sum(m, case, N=120)
        assert small.partial_sum <= big.partial_sum
        assert big.partial_sum <= small.partial_sum + small.tail_bound

    def test_constant_one_divergent(self):
        rep = kappa_sum(constant_symbol(1.0), classify_regime(2, 2, 1))
        assert rep.verdict == "divergent"
        assert rep.partial_sum == rep.truncation_order + 1

    def test_constant_zero_finite(self):
        rep = kappa_sum(constant_symbol(0.0), classify_regime(2, 2, 1))
        assert rep.verdict == "finite"
        assert rep.partial_sum == 0.0
        assert rep.tail_bound == 0.0

    def test_power_symbol_inconclusive_without_divergence(self):
        rep = kappa_sum(power_symbol(3.0), classify_regime(2, 2, 1))
        assert rep.verdict == "inconclusive"
        assert rep.tail_bound is None

    def test_power_symbol_certified_divergent(self):
        # sum of (2v+1)^{-0.3} with unit weights diverges
        rep = kappa_sum(power_symbol(0.3), classify_regime(2, 2, 1))
        assert rep.verdict == "divergent"

    def test_finite_table(self):
        m = table_symbol({(0,): 5.0, (3,): -2.0})
        rep = kappa_sum(m, classify_regime(2, 2, 1), N=20)
        assert rep.verdict == "finite"
        assert rep.partial_sum == 7.0
        assert rep.tail_bound == 0.0
        assert rep.tail_kind == "exact"

    def test_table_truncated_before_support(self):
        m = table_symbol({(0,): 5.0, (30,): -2.0})
        rep = kappa_sum(m, classify_regime(2, 2, 1), N=20)
        assert rep.partial_sum == 5.0
        assert rep.tail_bound == 2.0
        assert rep.verdict == "inconclusive"

    def test_truncation_floor(self):
        with pytest.raises(DomainError):
            kappa_sum(heat_symbol(1.0), classify_regime(2, 2, 1, k=10), N=5)

    def test_deterministic(self):
        case = classify_regime(Fraction(6, 5), 6, Fraction(2, 3))
        a = kappa_sum(heat_symbol(0.5), case, N=40).partial_sum
        b = kappa_sum(heat_symbol(0.5), case, N=40).partial_sum
        assert a == b


class TestSrSum:
    def test_heat_geometric_series(self):
        rep = s_r_sum(heat_symbol(1.0), 2, 2, 1)
        assert rep.partial_sum == pytest.approx(GEOM_T1, rel=1e-8)
        assert rep.verdict == "finite"
        assert rep.criterion == "s_r"

    def test_ground_state_norm_product(self):
        rep = s_r_sum(table_symbol({(0,): 1.0}), 2, 1, 1, N=10)
        want = math.sqrt(2.0) * math.pi ** 0.25  # L1 norm of phi_0; L2 norm is 1
        assert rep.partial_sum == pytest.approx(want, rel=1e-9)
        assert rep.partial_sum == pytest.approx(1.882793, rel=1e-6)

    def test_zero_symbol(self):
        rep = s_r_sum(constant_symbol(0.0), 2, 2, 1, N=20)
        assert rep.partial_sum == 0.0
        assert rep.verdict == "finite"

    def test_p1_equal_one_uses_sup_norm(self):
        rep = s_r_sum(heat_symbol(1.0), 1, 1, Fraction(2, 3), N=40)
        g0 = (lp_norm_1d(0, 1.0) * lp_norm_1d(0, math.inf)) ** (2.0 / 3.0)
        assert rep.partial_sum > g0 * math.exp(-2.0 / 3.0)
        assert rep.verdict == "finite"

    def test_tensor_factorization(self):
        one = s_r_sum(heat_symbol(1.0), 2, 2, 1, N=40).partial_sum
        two = s_r_sum(heat_symbol(1.0, n=2), 2, 2, 1, N=40).partial_sum
        assert two == pytest.approx(one ** 2, rel=1e-10)

    def test_validation(self):
        m = heat_symbol(1.0)
        with pytest.raises(DomainError):
            s_r_sum(m, math.inf, 2, 1)
        with pytest.raises(DomainError):
            s_r_sum(m, 2, 0.5, 1)
        with pytest.raises(DomainError):
            s_r_sum(m, 2, 2, 0)

    def test_regime_tags_attached_when_classifiable(self):
        rep = s_r_sum(heat_symbol(1.0), 2, 4, 1, N=20)
        assert rep.p2_regime == "eq4"
        assert rep.p1_branch == "gt43"
        rep1 = s_r_sum(heat_symbol(1.0), 1, 2, 1, N=20)
        assert rep1.p2_regime is None


class TestCompare:
    def test_identical_series_ratio_one(self):
        rep = compare_sr_kappa(heat_symbol(1.0), classify_regime(2, 2, 1), N=40)
        assert rep.ratio == pytest.approx(1.0, abs=1e-6)
        assert not rep.anomaly
        assert rep.drift < 1e-9

    def test_mixed_exponents_drift_small(self):
        rep = compare_sr_kappa(heat_symbol(0.5), classify_regime(2, 1, 1), N=40)
        assert rep.drift < 0.05
        assert math.isfinite(rep.ratio)
        assert rep.ratio > 0

    def test_finite_table_zero_drift(self):
        m = table_symbol({(0,): 2.0, (1,): 1.0})
        rep = compare_sr_kappa(m, classify_regime(2, 2, 1), N=20)
        assert rep.drift == 0.0
        assert rep.ratio == rep.ratio_doubled

    def test_both_zero_convention(self):
        rep = compare_sr_kappa(constant_symbol(0.0), classify_regime(2, 2, 1), N=20)
        assert rep.ratio == 1.0
        assert not rep.anomaly

    def test_json_round_trip(self):
        rep = compare_sr_kappa(heat_symbol(1.0), classify_regime(2, 2, 1), N=20)
        obj = json.loads(json.dumps(rep.to_json_obj()))
        assert obj["schema"] == 1
        assert obj["ratio"] == rep.ratio


class TestGlCondition:
    def test_exact_values(self):
        assert gl_condition(2) == 1
        assert gl_condition(1) == Fraction(2, 3)
        assert gl_condition(4) == Fraction(4, 5)
        assert isinstance(gl_condition(2), Fraction)

    def test_duality_symmetry(self):
        for p in (Fraction(4, 3), 4, Fraction(3, 2), 3, 2):
            conj = math.inf if p == 1 else p / (p - 1)
            assert gl_condition(p) == gl_condition(conj) or conj == math.inf
        assert gl_condition(Fraction(4, 3)) == gl_condition(4) == Fraction(4, 5)

    def test_maximized_at_two(self):
        values = [gl_condition(p) for p in (1, Fraction(4, 3), Fraction(3, 2), 2, 3, 4, 10)]
        assert max(values) == gl_condition(2) == 1
        assert gl_condition(1) < gl_condition(Fraction(3, 2)) < gl_condition(2)
        assert gl_condition(10) < gl_condition(4) < gl_condition(2)

    def test_validation(self):
        with pytest.raises(DomainError):
            gl_condition(math.inf)
        with pytest.raises(DomainError):
            gl_condition(0.5)


class TestCriterionReport:
    def test_json_round_trip_kappa(self):
        rep = kappa_sum(heat_symbol(1.0), classify_regime(Fraction(4, 3), 4, 1), N=40)
        obj = json.loads(json.dumps(rep.to_json_obj(), sort_keys=True))
        back = CriterionReport.from_json_obj(obj)
        assert back == rep

    def test_json_round_trip_sr(self):
        rep = s_r_sum(heat_symbol(1.0), 2, math.inf, 1, N=30)
        assert rep.p2 == "inf"
        back = CriterionReport.from_json_obj(json.loads(json.dumps(rep.to_json_obj())))
        assert back == rep

    def test_finite_verdict_requires_tail(self):
        with pytest.raises(DomainError):
            CriterionReport(
                criterion="kappa", partial_sum=1.0, tail_bound=None, tail_kind=None,
                truncation_order=10, verdict="finite", p1="2", p2="2", r="1",
                k=10, p2_regime="sub4", p1_branch="gt43", alpha=0.0, log_power=0.0,
                symbol="test", tolerance=1e-8,
            )

    def test_negative_partial_rejected(self):
        with pytest.raises(DomainError):
            CriterionReport(
                criterion="kappa", partial_sum=-1.0, tail_bound=0.0, tail_kind="exact",
                truncation_order=10, verdict="finite", p1="2", p2="2", r="1",
                k=10, p2_regime="sub4", p1_branch="gt43", alpha=0.0, log_power=0.0,
                symbol="test", tolerance=1e-8,
            )
