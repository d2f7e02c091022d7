"""Tests for regime classification, weight laws, criterion sums, and reports."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import hermult.nuclearity as nuc
import hermult.quadrature as quad
from hermult.errors import CapabilityError, DomainError, UnsupportedRegimeError
from hermult.hermite_core import enumerate_up_to
from hermult.nuclearity import (
    CriterionReport,
    PartitionCell,
    RegimeCase,
    classify_regime,
    compare_sr_kappa,
    gl_condition,
    kappa_sum,
    kappa_weight,
    partition_cell_of,
    partition_cells,
    s_r_sum,
)
from hermult.quadrature import lp_norm_1d, norm_law, norm_regime
from hermult.spectral_ops import (
    constant_symbol,
    heat_symbol,
    lattice_sum,
    power_symbol,
    table_symbol,
)

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


def _inv(p):
    """1/p as a Fraction, with 1/inf = 0."""
    return Fraction(0) if p == math.inf else Fraction(1) / p


def reference_law(p1, p2, r):
    """(p2_regime, p1_branch, alpha, log_power) by nine hand-written
    branches, one per case: the reference the derivation from the
    per-exponent norm law must reproduce."""
    p2_regime = "super4" if p2 == math.inf or p2 > 4 else "eq4" if p2 == 4 else "sub4"
    four_thirds = Fraction(4, 3)
    p1_branch = "gt43" if p1 > four_thirds else "eq43" if p1 == four_thirds else "lt43"
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)
    p1inv = _inv(p1)
    p2inv = _inv(p2)
    if p2_regime == "sub4":
        if p1_branch == "gt43":
            law = r * half * (p2inv - p1inv), Fraction(0)
        elif p1_branch == "eq43":
            law = r * half * (p2inv - Fraction(3, 4)), r
        else:
            law = r * half * (p2inv + p1inv / 3 - 1), Fraction(0)
    elif p2_regime == "eq4":
        if p1_branch == "gt43":
            law = r * half * (Fraction(1, 4) - p1inv), r
        elif p1_branch == "eq43":
            law = -r / 4, 2 * r
        else:
            law = r * sixth * (p1inv - Fraction(9, 4)), r
    # super4; 1/p2' = 1 - 1/p2
    elif p1_branch == "gt43":
        law = r * half * ((1 - p2inv) / 3 - p1inv), Fraction(0)
    elif p1_branch == "eq43":
        law = -r * sixth * (p2inv + Fraction(5, 4)), r
    else:
        law = r * sixth * (p1inv - p2inv - 2), Fraction(0)
    return (p2_regime, p1_branch) + law


class TestNormLawDerivation:
    def test_every_field_matches_the_nine_branch_reference(self):
        tiny = Fraction(1, 10 ** 20)
        p1s = {Fraction(a, b) for b in range(1, 7) for a in range(b + 1, 8 * b + 1)}
        p1s |= {Fraction(4, 3) - tiny, Fraction(4, 3) + tiny, 1 + tiny}
        p2s = {Fraction(a, b) for b in range(1, 5) for a in range(b, 10 * b + 1)}
        p2s |= {4 - tiny, 4 + tiny, Fraction(10 ** 9)}
        cases = 0
        for r in (Fraction(1), Fraction(2, 3), Fraction(1, 2), Fraction(1, 7)):
            for p1 in sorted(p1s):
                for p2 in sorted(p2s) + [math.inf]:
                    case = classify_regime(p1, p2, r)
                    reg, branch, alpha, lam = reference_law(p1, p2, r)
                    assert case == RegimeCase(
                        p1=p1, p2=p2, r=r, p2_regime=reg, p1_branch=branch, k=10,
                        alpha=alpha, log_power=lam, p1_conj=p1 / (p1 - 1),
                    ), (p1, p2, r)
                    assert type(case.alpha) is type(case.log_power) is Fraction
                    cases += 1
        assert cases > 15_000

    def test_labels_are_exact_near_four(self):
        above = Fraction(4 * 10 ** 20 + 1, 10 ** 20)
        below = Fraction(4 * 10 ** 20 - 1, 10 ** 20)
        assert float(above) == float(below) == 4.0
        assert norm_regime(above) == classify_regime(2, above, 1).p2_regime == "super4"
        assert norm_regime(below) == classify_regime(2, below, 1).p2_regime == "sub4"
        near = Fraction(4, 3) + Fraction(1, 10 ** 20)
        assert classify_regime(near, 2, 1).p1_branch == "gt43"
        assert classify_regime(Fraction(4, 3), 2, 1).p1_branch == "eq43"


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

    def test_cached_results_are_the_fresh_ones(self):
        # a float and the Fraction of its binary value are equal and hash
        # alike, but read as different rationals: the cache keeps them apart
        fresh = classify_regime.__wrapped__
        calls = [
            (Fraction(4 / 3), 4, 1), (4 / 3, 4, 1), (Fraction(4, 3), 4, 1),
            (2, Fraction(4.000000000000001), 1), (2, 4.000000000000001, 1), (2, 4, 1),
            (2, 2, Fraction(0.1)), (2, 2, 0.1), (2, 2, Fraction(1, 10)),
        ]
        for _ in range(2):
            for args in calls:
                assert classify_regime(*args) == fresh(*args)
        assert classify_regime(4 / 3, 4, 1) == classify_regime(Fraction(4, 3), 4, 1)
        assert classify_regime(4 / 3, 4, 1).p1_branch == "eq43"
        assert classify_regime(Fraction(4 / 3), 4, 1).p1_branch != "eq43"
        assert classify_regime(2, 4.000000000000001, 1).p2_regime == "super4"
        assert classify_regime(2, 2, 0.1).r == Fraction(1, 10) != Fraction(0.1)
        for p in (4, 4.0, Fraction(4), 4.000000000000001, Fraction(4.000000000000001),
                  4 / 3, Fraction(4 / 3), math.inf):
            assert quad._norm_case(p) == quad._norm_case.__wrapped__(p)
        assert quad._norm_case(4.000000000000001)[0] == "super4"

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

    @pytest.mark.parametrize("p,reads_as", [
        (4.0, Fraction(4)), (4.000000000000001, None), (math.nextafter(4.0, 3.0), None),
        (4 / 3, Fraction(4, 3)), (math.nextafter(4 / 3, 2.0), None),
        (math.nextafter(4 / 3, 1.0), None), (6 / 5, Fraction(6, 5)),
        (math.nextafter(6 / 5, 2.0), None), (math.nextafter(6 / 5, 1.0), None),
    ])
    def test_float_exponents_have_one_reader(self, p, reads_as):
        # a float reads as the small rational it rounds from, or else as its
        # exact value, in the weight-law cases and in the norm laws alike
        want = reads_as if reads_as is not None else Fraction(p)
        case = classify_regime(p, p, 1)
        assert case.p1 == case.p2 == want
        assert case.p2_regime == norm_regime(p) == norm_regime(want)
        assert norm_law(p) == norm_law(want)
        assert case.p1_branch == {"sub4": "gt43", "eq4": "eq43", "super4": "lt43"}[
            norm_regime(want / (want - 1))]

    def test_unsupported_p1(self):
        for bad in (1, 0.9, Fraction(1, 2)):
            with pytest.raises(UnsupportedRegimeError) as err:
                classify_regime(bad, 2, 1)
            assert err.value.hypothesis == "1 < p1 < infinity"
        with pytest.raises(UnsupportedRegimeError):
            classify_regime(math.inf, 2, 1)

    def test_cutoff_is_any_integer_from_two(self):
        # a NumPy integer as norm_model takes it; not a float or a bool
        assert classify_regime(2, 2, 1, k=np.int64(10)) == classify_regime(2, 2, 1, k=10)
        for bad in (10.0, 2.5, True, 1):
            with pytest.raises(DomainError, match="cutoff k"):
                classify_regime(2, 2, 1, k=bad)

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

    def test_numpy_integer_exponents(self):
        case = classify_regime(np.int64(2), np.int64(4), np.int64(1))
        assert case == classify_regime(2, 4, 1)
        assert all(type(f.numerator) is int for f in (case.p1, case.p2, case.r, case.alpha))
        with pytest.raises(UnsupportedRegimeError):
            classify_regime(np.int64(1), 2, 1)

    def test_booleans_are_the_integers_they_were(self):
        assert classify_regime(2, True, True) == classify_regime(2, 1, 1)
        with pytest.raises(UnsupportedRegimeError):
            classify_regime(True, 2, 1)

    def test_r_scaling_of_alpha(self):
        full = classify_regime(Fraction(4, 3), 4, 1)
        half = classify_regime(Fraction(4, 3), 4, Fraction(1, 2))
        assert half.alpha == full.alpha / 2
        assert half.log_power == full.log_power / 2


    @pytest.mark.parametrize("p1,p2,r", [
        (Fraction(4, 3), 4, 1), (1.5, math.inf, Fraction(2, 3)), (3, 2.5, 0.5),
        (Fraction(6, 5), 7, Fraction(1, 7)), (4.000000000000001, 2, 1)])
    def test_float_views_are_the_fractions_floats(self, p1, p2, r):
        # the readers take the case's float views, formed once, in place of
        # converting its Fractions on every call
        case = classify_regime(p1, p2, r)
        for name in ("alpha", "log_power", "r"):
            view = getattr(case, f"{name}_float")
            assert type(view) is float
            assert view.hex() == float(getattr(case, name)).hex(), name


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_table_sum_uses_factors_up_to_its_largest_order(self, n):
        # the same bits as the sum over the whole truncation's factors
        keys = [(0,) * n, (1,) + (0,) * (n - 1), (2,) * n, (0,) * (n - 1) + (7,), (3, 9, 0)[:n]]
        m = table_symbol({k: 0.3 * (i + 1) - 1.0 for i, k in enumerate(keys)}, n=n)
        case = classify_regime(Fraction(4, 3), 4, 1)
        rep = kappa_sum(m, case)
        full = lattice_sum(m, rep.truncation_order, term=abs,
                           factors=case.entry_factors(range(rep.truncation_order + 1)))
        # the default order: the floor k n, past the table's largest order 12
        assert rep.truncation_order == 10 * n
        assert rep.partial_sum == full

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
        with pytest.raises(DomainError):
            s_r_sum(m, 2, 2, 1, N=-1)

    @pytest.mark.parametrize("p1,p2", [(2, 2), (Fraction(4, 3), 4), (Fraction(3, 2), 3)])
    def test_table_uses_norms_up_to_its_largest_order(self, monkeypatch, p1, p2):
        # six norms up to degree 5, the table's largest order and the sum's default order
        table = {(0,): 1.0, (3,): -0.5, (5,): 0.25}
        asked = []
        sweep = nuc.lp_norms_1d

        def counted(N, p, tol=1e-8):
            asked.append(N)
            return sweep(N, p, tol)

        monkeypatch.setattr(nuc, "lp_norms_1d", counted)
        rep = s_r_sum(table_symbol(table), p1, p2, 1)
        p1_conj = float(p1) / (float(p1) - 1.0)
        want = math.fsum(abs(v) * lp_norm_1d(u, float(p2)) * lp_norm_1d(u, p1_conj)
                         for (u,), v in table.items())
        assert rep.truncation_order == 5 and asked == [5, 5]
        assert rep.partial_sum == pytest.approx(want, rel=1e-13)

    def test_exponent_past_the_double_range_refused(self):
        with pytest.raises(CapabilityError, match="double range"):
            s_r_sum(heat_symbol(1.0), 2, Fraction(10**400), 1, N=5)

    def test_refused_before_any_norm(self, monkeypatch):
        # the p2 = 1 norm of degree 7000 is over the work budget; refused
        # before any of the norms below it is computed
        def computed(*args):
            raise AssertionError(f"norm {args} computed before the refusal")

        monkeypatch.setattr(quad, "_lp_norm_1d_cached", computed)
        start = time.perf_counter()
        with pytest.raises(CapabilityError):
            s_r_sum(heat_symbol(1.0), 1, 1, Fraction(2, 3), N=7000)
        assert time.perf_counter() - start < 1.0

    def test_refused_by_the_work_of_all_norms(self, monkeypatch):
        # the L^1 norm of degree 1255 is within the budget, the sweep of the
        # 1256 norms up to it is not (its edge is 1,254)
        def computed(*args):
            raise AssertionError(f"norms {args} computed before the refusal")

        monkeypatch.setattr(quad, "_lp_norm_1d_cached", computed)
        monkeypatch.setattr(quad, "_lp_norms_1d_cached", computed)
        assert quad._route(1255, 1.0)[1] <= quad.NORM_WORK_BUDGET
        start = time.perf_counter()
        with pytest.raises(CapabilityError):
            s_r_sum(heat_symbol(1.0), 1, 1, Fraction(2, 3), N=1255)
        assert time.perf_counter() - start < 1.0

    def test_p1_equal_one_served_at_the_last_doubling_in_dimension_two(self):
        # the doubling from 200 n reaches 12800 n; at p1 = 1 that is the
        # sup-norm sweep to 25,600, within the budget (its edge is 29,641)
        rep = s_r_sum(heat_symbol(1.0, n=2), 1, 2, 1, N=25600)
        assert rep.truncation_order == 25600 and rep.verdict == "finite"
        one = s_r_sum(heat_symbol(1.0), 1, 2, 1, N=25600).partial_sum
        assert rep.partial_sum == pytest.approx(one ** 2, rel=1e-12)

    def test_p1_equal_one_served_at_the_default_order_in_dimension_two(self):
        # the default order is 32, where the certified tail is below the
        # sum's last bit; the heat symbol's sum factorizes
        rep = s_r_sum(heat_symbol(1.0, n=2), 1, 1, Fraction(2, 3))
        assert rep.truncation_order == 32 and rep.verdict == "finite"
        one = s_r_sum(heat_symbol(1.0), 1, 1, Fraction(2, 3), N=400).partial_sum
        assert rep.partial_sum == pytest.approx(one ** 2, rel=1e-12)

    @pytest.mark.parametrize("p1,p2", [(2, 14), (Fraction(14, 13), 2)])
    def test_even_p_above_12_served_at_the_default_order_in_dimension_two(self, p1, p2):
        # one exact rule per order serves the p = 14 norms up to 400; the
        # default order is 20
        rep = s_r_sum(heat_symbol(1.0, n=2), p1, p2, 1)
        assert rep.truncation_order == 20 and rep.verdict == "finite"
        one = s_r_sum(heat_symbol(1.0), p1, p2, 1, N=400).partial_sum
        assert rep.partial_sum == pytest.approx(one ** 2, rel=1e-12)

    def test_regime_tags_attached_when_classifiable(self):
        rep = s_r_sum(heat_symbol(1.0), 2, 4, 1, N=20)
        assert rep.p2_regime == "eq4"
        assert rep.p1_branch == "gt43"
        rep1 = s_r_sum(heat_symbol(1.0), 1, 2, 1, N=20)
        assert rep1.p2_regime is None


# one exponent on each side of 2, and both ends
BOUND_PS = [1, Fraction(6, 5), Fraction(4, 3), Fraction(3, 2), 2, 3, 4, 6, math.inf]


class TestNormBounds:
    """The per-entry bounds behind the certified s_r tail."""

    @pytest.mark.parametrize("p", BOUND_PS, ids=str)
    def test_bound_above_every_norm_on_a_degree_ladder(self, p):
        c, g = nuc._norm_bound(p)
        for u in (0, 1, 2, 3, 5, 8, 13, 30, 70, 150, 300, 700, 1500, 3000, 5000):
            norm = lp_norm_1d(u, float(p))
            bound = c * (u + 1.5) ** float(g)
            if p == 2 or (p == math.inf and u == 0):
                # equality: ||phi_u||_2 = 1, and |phi_0| peaks at pi^(-1/4)
                assert norm == pytest.approx(bound, rel=1e-14)
            else:
                assert norm < bound

    @pytest.mark.parametrize("p", BOUND_PS, ids=str)
    def test_phi0_norm_closed_form(self, p):
        assert nuc._phi0_norm(float(p)) == pytest.approx(lp_norm_1d(0, float(p)), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p1,p2", sorted(NINE_CASES) + [(1, 1), (1, 2)], ids=str)
    def test_sr_tail_bounds_the_remainder_to_twice_the_order(self, n, p1, p2):
        for t in (0.5, 1.0):
            m = heat_symbol(t, n)
            for N in (2, 6, 12):
                small = s_r_sum(m, p1, p2, Fraction(2, 3), N=N)
                big = s_r_sum(m, p1, p2, Fraction(2, 3), N=2 * N)
                assert small.tail_kind == "certified"
                slack = 8 * math.ulp(big.partial_sum)
                assert big.partial_sum - small.partial_sum <= small.tail_bound + slack

    def test_sr_tail_certified_at_p1_one(self):
        rep = s_r_sum(heat_symbol(1.0, 3), 1, 1, Fraction(2, 3))
        assert rep.tail_kind == "certified" and rep.verdict == "finite"
        assert rep.truncation_order == 35
        assert s_r_sum(heat_symbol(1.0), 2, 2, 1).tail_kind == "certified"


def _ulps(a, b):
    return abs(a - b) / math.ulp(b)


def _seeded_table(n):
    keys = [(0,) * n, (1,) + (0,) * (n - 1), (2,) * n, (0,) * (n - 1) + (7,), (3, 9, 0)[:n]]
    return table_symbol({k: 0.3 * (i + 1) - 1.0 for i, k in enumerate(keys)}, n=n)


DEFAULT_ORDER_SYMBOLS = [
    heat_symbol(t, n) for n in (1, 2, 3) for t in (0.5, 1.0, 1.5)
] + [_seeded_table(n) for n in (1, 2, 3)]


class TestDefaultOrder:
    """With no N, the order comes from the tail bound alone and the sum is
    within one ulp of that at the old default order 200 n."""

    @pytest.mark.parametrize("m", DEFAULT_ORDER_SYMBOLS, ids=lambda m: f"{m.label}-n{m.dimension}")
    @pytest.mark.parametrize("p1,p2", sorted(NINE_CASES), ids=str)
    def test_kappa_within_one_ulp_of_the_old_order(self, m, p1, p2):
        n = m.dimension
        for r in (Fraction(1), Fraction(2, 3)):
            case = classify_regime(p1, p2, r)
            new = kappa_sum(m, case)
            old = kappa_sum(m, case, N=200 * n)
            assert new.verdict == old.verdict
            assert new.tail_kind in ("certified", "exact")
            assert case.k * n <= new.truncation_order <= 200 * n
            assert _ulps(new.partial_sum, old.partial_sum) <= 1

    @pytest.mark.parametrize("m", DEFAULT_ORDER_SYMBOLS, ids=lambda m: f"{m.label}-n{m.dimension}")
    @pytest.mark.parametrize("p1,p2", sorted(NINE_CASES), ids=str)
    def test_sr_within_one_ulp_of_the_old_order(self, m, p1, p2):
        # the norm sweep to 200 n takes other points than the sweep to the
        # new order (the even-p grid follows its order), so its norms can
        # differ in the last bits; so does the sum, by up to n times that
        # relative difference on top of the one ulp
        n = m.dimension
        for r in (Fraction(1), Fraction(2, 3)):
            new = s_r_sum(m, p1, p2, r)
            old = s_r_sum(m, p1, p2, r, N=200 * n)
            assert new.verdict == old.verdict
            assert new.tail_kind in ("certified", "exact")
            assert new.truncation_order <= 200 * n
            top = new.truncation_order
            if m.table is not None:
                top = min(top, max(map(sum, m.table)))
            p1_conj = p1 / (p1 - 1)
            a = nuc._sr_factors(p2, p1_conj, float(r), top)
            b = nuc._sr_factors(p2, p1_conj, float(r), 200 * n)[: top + 1]
            drift = float(np.max(np.abs(a / b - 1.0)))
            assert abs(new.partial_sum - old.partial_sum) <= (
                math.ulp(old.partial_sum) + 1.01 * n * drift * old.partial_sum)

    def test_kappa_orders(self):
        case = classify_regime(2, 2, 1)
        orders = [kappa_sum(heat_symbol(1.0, n), case).truncation_order for n in (1, 2, 3)]
        assert orders == [18, 20, 30]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_few_tail_evaluations(self, n, monkeypatch):
        calls = []
        tail = nuc._exp_polylog_tail

        def counted(*args):
            calls.append(args[-1])
            return tail(*args)

        monkeypatch.setattr(nuc, "_exp_polylog_tail", counted)
        for p1, p2 in NINE_CASES:
            for t in (0.5, 1.0, 1.5):
                calls.clear()
                rep = s_r_sum(heat_symbol(t, n), p1, p2, Fraction(2, 3))
                assert len(calls) <= 5 and calls[-1] == rep.truncation_order

    def test_sr_norms_swept_once_at_the_order(self, monkeypatch):
        asked = []
        sweep = nuc.lp_norms_1d

        def counted(N, p, tol=1e-8):
            asked.append(N)
            return sweep(N, p, tol)

        monkeypatch.setattr(nuc, "lp_norms_1d", counted)
        rep = s_r_sum(heat_symbol(1.0, 2), Fraction(4, 3), 4, 1)
        assert asked == [rep.truncation_order] * 2

    def test_never_past_the_doubled_order(self):
        # at t = 0.05 the tail reaches 1e-8 by order 400 but the sum's last
        # bit only later: the doubled order stands
        case = classify_regime(Fraction(4, 3), 4, 1)
        rep = kappa_sum(heat_symbol(0.05, 2), case)
        assert rep.truncation_order == 400 and rep.verdict == "finite"
        assert rep.partial_sum == kappa_sum(heat_symbol(0.05, 2), case, N=400).partial_sum
        # below the doubled order the search stops at the first that qualifies
        case = classify_regime(Fraction(6, 5), 6, Fraction(2, 3))
        rep = kappa_sum(heat_symbol(0.05, 2), case)
        assert 400 < rep.truncation_order < 800
        old = kappa_sum(heat_symbol(0.05, 2), case, N=800)
        assert _ulps(rep.partial_sum, old.partial_sum) <= 1


class TestTruncationOrder:
    """Every criterion refuses an order that is not an integer at or above
    its floor, and reports a NumPy integer order as an int."""

    CALLS = {
        "kappa_sum": lambda N: kappa_sum(heat_symbol(1.0), classify_regime(2, 2, 1), N=N),
        "s_r_sum": lambda N: s_r_sum(heat_symbol(1.0), 2, 2, 1, N=N),
        "compare_sr_kappa": lambda N: compare_sr_kappa(
            heat_symbol(1.0), classify_regime(2, 2, 1), N=N),
    }
    FLOORS = {"kappa_sum": 10, "s_r_sum": 0, "compare_sr_kappa": 10}

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_non_integers_refused(self, call):
        for bad in (20.5, 20.0, Fraction(41, 2), "20", True, math.nan):
            with pytest.raises(DomainError, match="truncation order"):
                self.CALLS[call](bad)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_below_the_floor_refused(self, call):
        with pytest.raises(DomainError, match="truncation order"):
            self.CALLS[call](self.FLOORS[call] - 1)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_numpy_integer_reported_as_int(self, call):
        got = self.CALLS[call](np.int64(20))
        assert got == self.CALLS[call](20)
        assert type(got.truncation_order) is int
        assert json.loads(json.dumps(got.to_json_obj()))["truncation_order"] == 20


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

    def test_numpy_integer_exponent(self):
        value = gl_condition(np.int64(4))
        assert value == gl_condition(4) == Fraction(4, 5)
        assert type(value.numerator) is int
        assert gl_condition(True) == gl_condition(1)


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_tolerance_refused(self, tol):
        with pytest.raises(DomainError):
            kappa_sum(heat_symbol(1.0), classify_regime(2, 2, 1), tol=tol)
        with pytest.raises(DomainError):
            s_r_sum(heat_symbol(1.0), 2, 2, 1, N=10, tol=tol)

    def test_json_view_is_schema_then_fields(self):
        # the JSON key order is part of the output: schema first, then the
        # fields in declaration order, a nested report as its own view
        crit = kappa_sum(heat_symbol(1.0), classify_regime(2, 2, 1), N=40)
        assert list(crit.to_json_obj()) == [
            "schema", "criterion", "partial_sum", "tail_bound", "tail_kind",
            "truncation_order", "verdict", "p1", "p2", "r", "k", "p2_regime",
            "p1_branch", "alpha", "log_power", "symbol", "tolerance",
        ]
        ratio = compare_sr_kappa(heat_symbol(1.0), classify_regime(2, 2, 1), N=20)
        assert list(ratio.to_json_obj()) == [
            "schema", "ratio", "ratio_doubled", "drift", "truncation_order", "anomaly",
            "sr_partial", "sr_partial_doubled", "kappa_partial", "kappa_partial_doubled",
        ]

    def test_finite_verdict_requires_tail(self):
        with pytest.raises(DomainError):
            CriterionReport(
                criterion="kappa", partial_sum=1.0, tail_bound=None, tail_kind=None,
                truncation_order=10, verdict="finite", p1="2", p2="2", r="1",
                k=10, p2_regime="sub4", p1_branch="gt43", alpha=0.0, log_power=0.0,
                symbol="test", tolerance=1e-8,
            )

    @pytest.mark.parametrize("kind", ["empirical", None])
    def test_finite_verdict_requires_a_certified_or_exact_tail(self, kind):
        obj = kappa_sum(heat_symbol(1.0), classify_regime(2, 2, 1), N=40).to_json_obj()
        assert obj["verdict"] == "finite" and obj["tail_bound"] < 1e-30
        CriterionReport.from_json_obj(obj)
        obj["tail_kind"] = kind
        with pytest.raises(DomainError, match="certified or exact"):
            CriterionReport.from_json_obj(obj)

    def test_negative_partial_rejected(self):
        with pytest.raises(DomainError):
            CriterionReport(
                criterion="kappa", partial_sum=-1.0, tail_bound=0.0, tail_kind="exact",
                truncation_order=10, verdict="finite", p1="2", p2="2", r="1",
                k=10, p2_regime="sub4", p1_branch="gt43", alpha=0.0, log_power=0.0,
                symbol="test", tolerance=1e-8,
            )
