"""Tests for symbols, transforms, multipliers, and kernels."""

import math
import re
import time
import warnings

import mpmath
import numpy as np
import pytest

from hermult.errors import CapabilityError, DomainError
from hermult.hermite_core import enumerate_up_to, eval_phi_1d, eval_phi_nd
from hermult import _accel
from hermult._accel import phi_table
from hermult.quadrature import QuadratureRule, gauss_hermite_rule, roots_hermite, truncated_rule
from hermult.spectral_ops import (
    CoefficientVector,
    Envelope,
    LowerEnvelope,
    analyze,
    apply_multiplier,
    constant_symbol,
    custom_symbol,
    effective_weights,
    heat_symbol,
    kernel_series,
    lattice_sum,
    level_tail_bound,
    mehler_kernel,
    power_symbol,
    project_level,
    synthesize,
    table_symbol,
)

# Frozen closed form (2 pi sinh 2)^(-1/2); the generating-function route
# sum_k e^{-(2k+1)} phi_k(0)^2 = e^{-1} pi^{-1/2} (1-e^{-4})^{-1/2}
# evaluates to the same double.
MEHLER_ORIGIN_T1 = 0.20948100342398213


def phi1(k, x):
    return eval_phi_1d(k, x).to_float()


class TestSymbols:
    def test_heat_values(self):
        m = heat_symbol(1.0)
        assert m((0,)) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert m((5,)) == pytest.approx(math.exp(-11.0), rel=1e-15)
        assert m.level_value(5) == m((5,))

    def test_heat_dimension(self):
        m = heat_symbol(0.5, n=3)
        assert m((1, 2, 3)) == pytest.approx(math.exp(-0.5 * 15), rel=1e-15)

    def test_heat_validation(self):
        with pytest.raises(DomainError):
            heat_symbol(0.0)
        with pytest.raises(DomainError):
            heat_symbol(-1.0)
        with pytest.raises(DomainError):
            heat_symbol(math.inf)
        with pytest.raises(DomainError):
            heat_symbol(1.0, n=0)

    def test_power_values(self):
        m = power_symbol(2.0)
        assert m((3,)) == pytest.approx(7.0 ** -2, rel=1e-15)
        m2 = power_symbol(1.5, n=2)
        assert m2((0, 0)) == pytest.approx(2.0 ** -1.5, rel=1e-15)

    def test_power_validation(self):
        with pytest.raises(DomainError):
            power_symbol(0.0)
        with pytest.raises(DomainError):
            power_symbol(-2.0)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, 0])
    def test_dimension_must_be_a_positive_integer(self, bad):
        for make in (lambda n: heat_symbol(1.0, n), lambda n: power_symbol(2.0, n),
                     lambda n: constant_symbol(1.0, n), lambda n: table_symbol({}, n)):
            with pytest.raises(DomainError, match="dimension"):
                make(bad)
        assert heat_symbol(1.0, np.int64(2)).dimension == 2

    @pytest.mark.parametrize("a, n", [(700.0, 1), (500.0, 3), (1074.0, 1)])
    def test_power_without_lower_envelope(self, a, n):
        # (n+2)^{-a} underflows there, 2^{-a} does not: the symbol builds
        # without a lower envelope, and its value at 0 is n^{-a}
        m = power_symbol(a, n=n)
        assert m.lower_envelope is None
        assert m.envelope.C == 2.0 ** -a > 0.0
        assert m((0,) * n) == float(n) ** -a

    @pytest.mark.parametrize("a", [1075.0, 1100.0, 1e6])
    def test_power_refused_where_the_envelope_constant_underflows(self, a):
        with pytest.raises(DomainError, match=re.escape(f"a = {a:g} is too large")):
            power_symbol(a)

    def test_table_lookup_and_default(self):
        m = table_symbol({(0,): 5.0, (3,): -2.0})
        assert m((0,)) == 5.0
        assert m((3,)) == -2.0
        assert m((1,)) == 0.0
        assert not m.is_radial

    def test_table_key_dimension_check(self):
        with pytest.raises(DomainError):
            table_symbol({(0, 1): 1.0}, n=1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_table_refuses_non_finite_values(self, bad):
        with pytest.raises(DomainError, match=r"table value at \(3,\) is not finite"):
            table_symbol({(0,): 5.0, (3,): bad})

    def test_table_support_items_sorted(self):
        m = table_symbol({(2, 0): 1.0, (0, 0): 2.0, (0, 1): 3.0}, n=2)
        assert [k for k, _ in m.support_items()] == [(0, 0), (0, 1), (2, 0)]

    def test_constant_symbol(self):
        m = constant_symbol(1.0, n=2)
        assert m((7, 9)) == 1.0
        assert m.is_radial
        assert m.lower_envelope is not None
        assert constant_symbol(0.0).lower_envelope is None

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_constant_refuses_non_finite_values(self, bad):
        with pytest.raises(DomainError, match="constant symbol value must be finite"):
            constant_symbol(bad)

    def test_custom_symbol(self):
        m = custom_symbol(lambda e: float(e[0] % 2), n=1)
        assert m((3,)) == 1.0
        assert m((4,)) == 0.0
        assert not m.is_radial

    def test_dimension_mismatch_on_call(self):
        with pytest.raises(DomainError):
            heat_symbol(1.0)((1, 2))


class TestEnvelopes:
    def test_envelope_kinds(self):
        e = Envelope(kind="exponential", C=2.0, rate=1.0)
        assert e.level_bound(3) == pytest.approx(2.0 * math.exp(-3.0), rel=1e-15)
        p = Envelope(kind="polynomial", C=1.0, rate=2.0)
        assert p.level_bound(9) == pytest.approx(0.01, rel=1e-15)
        f = Envelope(kind="finite", C=5.0, support_order=3)
        assert f.level_bound(3) == 5.0
        assert f.level_bound(4) == 0.0
        s = Envelope(kind="polynomial", C=0.125, rate=3.0, shift=0.5)
        assert s.level_bound(4) == 0.125 * 4.5 ** -3.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.5, 3.0, 7.25])
    def test_power_envelope_is_the_symbol(self, a, n):
        m = power_symbol(a, n=n)
        for K in (0, 1, 7, 80, 25_600):
            assert m.envelope.level_bound(K) == pytest.approx(m.level_value(K), rel=1e-14)

    def test_envelope_validation(self):
        with pytest.raises(DomainError):
            Envelope(kind="weird")
        with pytest.raises(DomainError):
            Envelope(kind="exponential", rate=0.0)
        with pytest.raises(DomainError):
            LowerEnvelope(c=0.0, beta=1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(kind="polynomial", C=math.nan, rate=3.0),
        dict(kind="exponential", C=math.inf, rate=1.0),
        dict(kind="polynomial", C=1.0, rate=math.inf),
        dict(kind="exponential", C=1.0, rate=math.nan),
        dict(kind="polynomial", C=1.0, rate=-0.5),
        dict(kind="polynomial", C=1.0, rate=3.0, shift=0.0),
        dict(kind="polynomial", C=1.0, rate=3.0, shift=-1.0),
        dict(kind="polynomial", C=1.0, rate=3.0, shift=math.inf),
        dict(kind="exponential", C=1.0, rate=1.0, shift=math.nan),
    ], ids=["C-nan", "C-inf", "rate-inf", "rate-nan", "negative-polynomial-rate",
            "shift-zero", "shift-negative", "shift-inf", "shift-nan"])
    def test_envelope_refusals(self, kwargs):
        with pytest.raises(DomainError):
            Envelope(**kwargs)

    def test_exponential_tail_honest(self):
        # the certified bound dominates a long brute-force partial tail
        for n in (1, 2, 3):
            m = heat_symbol(0.4, n=n)
            N = 12
            bound = level_tail_bound(m, N)
            brute = math.fsum(
                math.comb(K + n - 1, n - 1) * m.level_value(K)
                for K in range(N + 1, N + 400)
            )
            assert bound >= brute
            assert bound <= brute * 2.0 + 1e-300

    def test_exponential_tail_decreasing(self):
        m = heat_symbol(1.0, n=2)
        bounds = [level_tail_bound(m, N) for N in (5, 10, 20, 40)]
        assert all(b > 0 for b in bounds)
        assert bounds == sorted(bounds, reverse=True)

    def test_polynomial_tail_honest(self):
        m = power_symbol(3.0, n=1)
        N = 50
        bound = level_tail_bound(m, N)
        brute = math.fsum(m.level_value(K) for K in range(N + 1, 200000))
        assert bound >= brute
        assert bound <= 10 * brute

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("da", [0.25, 0.5, 1.0, 2.5, "6", "9"])
    def test_power_tail_is_certified_and_tight(self, n, da):
        # exact tails sum_{K > N} C(K+n-1, n-1) (2K+n)^{-a} as Hurwitz zeta
        # values (DLMF 25.11): with m = (2K+n)^{-a} = 2^{-a} (K+n/2)^{-a},
        # n = 1 has multiplicity 1, n = 2 has K+1 and n = 3 has
        # (K+1)(K+2)/2 = ((K+3/2)^2 - 1/4)/2
        a = float(da) if isinstance(da, str) else n + da
        m = power_symbol(a, n=n)
        mpmath.mp.dps = 30
        A = mpmath.mpf(a)
        for N in (0, 1, 5, 80, 1000, 25_600):
            if n == 1:
                exact = 2 ** -A * mpmath.zeta(A, N + 1.5)
            elif n == 2:
                exact = 2 ** -A * mpmath.zeta(A - 1, N + 2)
            else:
                q = N + 2.5
                exact = 2 ** (-A - 1) * (mpmath.zeta(A - 2, q) - mpmath.zeta(A, q) / 4)
            bound = level_tail_bound(m, N)
            assert type(bound) is float
            assert bound >= exact, (N, bound, exact)
            if N >= 80:
                assert bound <= 1.06 * exact, (N, bound / exact)

    @pytest.mark.parametrize("n,N", [(1, 40), (2, 30), (3, 20)])
    def test_power_kernel_series_within_its_tail(self, n, N):
        m = power_symbol(n + 2.0, n=n)
        x, y = np.linspace(0.4, -0.9, n), np.linspace(-0.3, 1.2, n)
        near, far = kernel_series(m, x, y, N), kernel_series(m, x, y, 8 * N)
        assert 0.0 < abs(far.value - near.value) <= near.tail_bound

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("shift", [0.25, 1.0, 1.25, 1.5, 4.0])
    def test_shifted_polynomial_tail_honest(self, n, shift):
        beta = n + 1.5
        m = custom_symbol(lambda e: 0.0, n=n,
                          envelope=Envelope(kind="polynomial", C=1.0, rate=beta, shift=shift))
        for N in (0, 2, 30):
            brute = math.fsum(math.comb(K + n - 1, n - 1) * (shift + K) ** -beta
                              for K in range(N + 1, 200_000))
            assert level_tail_bound(m, N) >= brute

    def test_shift_below_one_overflows_to_inf(self):
        # 0.5^-2000 leaves the double range; the bound is inf, not an OverflowError
        env = Envelope(kind="polynomial", C=1.0, rate=2000.0, shift=0.5)
        m = custom_symbol(lambda e: 0.0, envelope=env)
        assert env.level_bound(0) == math.inf and env.level_bound(1) == 0.0
        assert level_tail_bound(m, 0) == math.inf
        assert level_tail_bound(m, 1) == 0.0

    def test_polynomial_tail_needs_decay(self):
        assert level_tail_bound(power_symbol(0.5), 100) is None
        assert level_tail_bound(power_symbol(2.0, n=2), 100) is None

    def test_finite_tail_exact(self):
        m = table_symbol({(0,): 5.0, (3,): -2.0})
        assert level_tail_bound(m, 3) == 0.0
        assert level_tail_bound(m, 2) == 2.0
        assert level_tail_bound(m, 0) == 2.0
        assert level_tail_bound(m, -1) == 7.0


def unit_vector(nu, max_order, dimension=1):
    return CoefficientVector(dimension=dimension, max_order=max_order, values={nu: 1.0})


class TestCoefficientVector:
    def test_get_and_default(self):
        c = CoefficientVector(dimension=1, max_order=4, values={(2,): 3.5})
        assert c.get((2,)) == 3.5
        assert c.get((1,)) == 0.0
        assert c.get(2) == 3.5

    def test_validation(self):
        with pytest.raises(DomainError):
            CoefficientVector(dimension=1, max_order=2, values={(3,): 1.0})
        with pytest.raises(DomainError):
            CoefficientVector(dimension=2, max_order=4, values={(1,): 1.0})
        with pytest.raises(DomainError):
            CoefficientVector(dimension=1, max_order=4, values={(1,): math.nan})

    def test_items_level_major(self):
        c = CoefficientVector(
            dimension=2, max_order=3,
            values={(2, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (0, 0): 4.0},
        )
        assert [k for k, _ in c.items()] == [(0, 0), (0, 1), (1, 0), (2, 0)]

    def test_l2_sq(self):
        c = CoefficientVector(dimension=1, max_order=4, values={(0,): 1.0, (2,): 2.0})
        assert c.l2_sq() == pytest.approx(5.0, rel=1e-15)

    def test_csv_rows_snap_small_values(self):
        c = CoefficientVector(dimension=1, max_order=2, values={(0,): 1e-15, (1,): 0.5})
        rows = c.to_csv_rows()
        assert rows[0] == ["nu1", "value"]
        assert rows[1] == ["0", "0.0"]
        assert rows[2] == ["1", "0.5"]

    def test_json_obj(self):
        c = CoefficientVector(dimension=2, max_order=2, values={(1, 1): 0.25})
        obj = c.to_json_obj()
        assert obj["schema"] == 1
        assert obj["entries"] == [{"nu": [1, 1], "value": 0.25}]


class TestEffectiveWeights:
    def test_matches_direct_formula_small(self):
        rule = gauss_hermite_rule(20)
        ew = effective_weights(rule)
        direct = rule.weights * np.exp(rule.nodes ** 2)
        assert np.allclose(ew, direct, rtol=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 21, 61, 400])
    def test_mirrors_the_rule_half(self, M):
        y, w = roots_hermite(M)
        ew = effective_weights(gauss_hermite_rule(M))
        assert np.array_equal(ew[M // 2:], w)
        assert np.array_equal(ew[:M // 2], w[M % 2:][::-1])

    @pytest.mark.parametrize("M", [21, 61, 81])
    def test_matches_christoffel_sum(self, M):
        # w e^{x^2} = 1 / sum_{k < M} phi_k(x)^2 at the rule's nodes
        rule = gauss_hermite_rule(M)
        T = phi_table(rule.nodes, M - 1)
        assert effective_weights(rule) == pytest.approx(1.0 / np.sum(T * T, axis=0), rel=1e-13)

    def test_other_nodes_rejected(self):
        rule = gauss_hermite_rule(5)
        moved = QuadratureRule(rule.nodes * 1.01, rule.weights, "gauss_hermite")
        with pytest.raises(DomainError):
            effective_weights(moved)

    def test_large_rule_stays_finite(self):
        ew = effective_weights(gauss_hermite_rule(400))
        assert np.all(np.isfinite(ew))
        assert np.all(ew > 0)

    def test_truncated_rule_passthrough(self):
        rule = truncated_rule(6.0, panels=40)
        assert np.array_equal(effective_weights(rule), rule.weights)

    def test_integrates_plain_gaussian(self):
        # integral of e^{-x^2} over R is sqrt(pi)
        rule = gauss_hermite_rule(30)
        ew = effective_weights(rule)
        got = float(np.sum(ew * np.exp(-rule.nodes ** 2)))
        assert got == pytest.approx(math.sqrt(math.pi), rel=1e-12)


class TestAnalyze:
    def test_single_basis_function(self):
        rule = gauss_hermite_rule(40)
        c = analyze(lambda x: phi1(3, x), 5, rule)
        assert c.get((3,)) == pytest.approx(1.0, abs=1e-10)
        for u in (0, 1, 2, 4, 5):
            assert abs(c.get((u,))) < 1e-10

    def test_linear_combination(self):
        rule = gauss_hermite_rule(40)
        c = analyze(lambda x: phi1(0, x) + 2.0 * phi1(2, x), 4, rule)
        assert c.get((0,)) == pytest.approx(1.0, abs=1e-10)
        assert c.get((2,)) == pytest.approx(2.0, abs=1e-10)
        assert abs(c.get((1,))) < 1e-10
        assert abs(c.get((3,))) < 1e-10

    def test_gaussian_is_ground_state(self):
        rule = gauss_hermite_rule(40)
        c = analyze(lambda x: math.pi ** -0.25 * math.exp(-0.5 * x * x), 4, rule)
        assert c.get((0,)) == pytest.approx(1.0, abs=1e-12)

    def test_parseval_partial(self):
        rule = gauss_hermite_rule(40)
        c = analyze(lambda x: phi1(0, x) + 2.0 * phi1(2, x), 6, rule)
        assert c.l2_sq() <= 5.0 + 1e-9
        assert c.l2_sq() == pytest.approx(5.0, abs=1e-9)

    def test_truncated_rule_route(self):
        rule = truncated_rule(9.0, panels=90)
        c = analyze(lambda x: phi1(3, x), 5, rule)
        assert c.get((3,)) == pytest.approx(1.0, abs=1e-8)

    def test_two_dimensional(self):
        rule = gauss_hermite_rule(12)
        target = (1, 2)

        def f(point):
            return eval_phi_nd(target, point).to_float()

        c = analyze(f, 4, rule, dimension=2)
        assert c.get(target) == pytest.approx(1.0, abs=1e-10)
        off = [abs(v) for k, v in c.items() if k != target]
        assert max(off) < 1e-10

    def test_non_finite_sample_rejected(self):
        rule = gauss_hermite_rule(10)
        with pytest.raises(DomainError):
            analyze(lambda x: math.nan, 2, rule)

    def test_bad_arguments(self):
        rule = gauss_hermite_rule(10)
        with pytest.raises(DomainError):
            analyze(lambda x: x, -1, rule)
        with pytest.raises(DomainError):
            analyze(lambda x: x, 2, rule, dimension=0)


class TestApplyAndSynthesize:
    def test_heat_on_unit_vector(self):
        c = unit_vector((3,), 5)
        out = apply_multiplier(heat_symbol(1.0), c)
        assert out.get((3,)) == pytest.approx(math.exp(-7.0), rel=1e-15)

    def test_identity_multiplier(self):
        c = CoefficientVector(dimension=1, max_order=3, values={(0,): 1.5, (3,): -2.5})
        out = apply_multiplier(constant_symbol(1.0), c)
        assert out.values == c.values

    def test_table_product_by_hand(self):
        m = table_symbol({(0,): 5.0})
        c = CoefficientVector(dimension=1, max_order=1, values={(0,): 2.0, (1,): 3.0})
        out = apply_multiplier(m, c)
        assert out.get((0,)) == 10.0
        assert out.get((1,)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            apply_multiplier(heat_symbol(1.0, n=2), unit_vector((0,), 1))

    def test_synthesize_ground_state_at_origin(self):
        c = unit_vector((0,), 0)
        assert synthesize(c, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-15)

    def test_synthesize_zero_vector(self):
        c = CoefficientVector(dimension=1, max_order=3, values={})
        for x in (-2.0, 0.0, 1.7):
            assert synthesize(c, x) == 0.0

    def test_round_trip_on_grid(self):
        rule = gauss_hermite_rule(40)
        c = analyze(lambda x: phi1(3, x), 5, rule)
        for x in np.linspace(-4, 4, 17):
            assert synthesize(c, x) == pytest.approx(phi1(3, x), abs=1e-10)

    def test_synthesize_dimension_check(self):
        with pytest.raises(DomainError):
            synthesize(unit_vector((0,), 0), [0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_synthesize_refuses_non_finite_points(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="points must be finite"):
                synthesize(unit_vector((2,), 2), bad)

    def test_eigenfunction_action(self):
        # analyze -> apply -> synthesize reproduces m(nu) phi_nu pointwise
        rule = gauss_hermite_rule(64)
        grid = np.linspace(-4, 4, 21)
        for m in (heat_symbol(1.0), power_symbol(1.0)):
            for nu in (0, 3, 7):
                c = analyze(lambda x, k=nu: phi1(k, x), 10, rule)
                out = apply_multiplier(m, c)
                for x in grid:
                    want = m((nu,)) * phi1(nu, x)
                    assert synthesize(out, x) == pytest.approx(want, abs=1e-8)


class TestProjectLevel:
    def test_keeps_exactly_one_level(self):
        c = CoefficientVector(
            dimension=2, max_order=2,
            values={(0, 0): 1.0, (1, 0): 2.0, (0, 1): 3.0, (2, 0): 4.0},
        )
        p1 = project_level(c, 1)
        assert p1.support() == [(0, 1), (1, 0)]
        assert p1.get((1, 0)) == 2.0

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        values = {(u,): float(rng.standard_normal()) for u in range(6)}
        c = CoefficientVector(dimension=1, max_order=5, values=values)
        p = project_level(c, 3)
        assert project_level(p, 3).values == p.values

    def test_disjoint_levels(self):
        c = CoefficientVector(dimension=1, max_order=5, values={(2,): 1.0, (4,): 1.0})
        assert project_level(project_level(c, 2), 4).values == {}

    def test_levels_partition_support(self):
        c = CoefficientVector(
            dimension=2, max_order=3,
            values={nu.entries: 1.0 for nu in enumerate_up_to(2, 3)},
        )
        recombined = {}
        for k in range(4):
            recombined.update(project_level(c, k).values)
        assert recombined == c.values

    def test_out_of_range(self):
        c = unit_vector((0,), 2)
        with pytest.raises(DomainError):
            project_level(c, 3)


class TestKernelSeries:
    def test_single_term_table(self):
        m = table_symbol({(0,): 1.0})
        got = kernel_series(m, 0.0, 0.0, 5)
        assert got.value == pytest.approx(math.pi ** -0.5, rel=1e-14)
        assert got.tail_bound == 0.0

    def test_symmetry_exact(self):
        m = heat_symbol(0.7)
        a = kernel_series(m, 1.3, -0.4, 40).value
        b = kernel_series(m, -0.4, 1.3, 40).value
        assert a == b

    def test_matches_mehler_1d(self):
        m = heat_symbol(1.0)
        for x, y in ((0.0, 0.0), (0.3, 0.2), (-1.1, 0.7), (2.0, -2.0)):
            got = kernel_series(m, x, y, 60)
            assert got.tail_bound < 1e-12
            assert got.value == pytest.approx(mehler_kernel(1.0, x, y), abs=1e-10)

    def test_radial_convolution_equals_lattice(self):
        x = np.array([0.3, -1.1]); y = np.array([0.2, 0.7])
        m = heat_symbol(1.0, n=2)
        fast = kernel_series(m, x, y, 30).value
        slow = custom_symbol(
            lambda e: math.exp(-(2 * sum(e) + 2)), n=2,
            envelope=Envelope(kind="exponential", C=math.exp(-2.0), rate=2.0),
        )
        brute = kernel_series(slow, x, y, 30).value
        assert fast == pytest.approx(brute, rel=1e-13)

    def test_tail_bound_is_honest(self):
        m = heat_symbol(0.5, n=2)
        x = np.array([0.5, -0.5]); y = np.array([1.0, 0.25])
        small = kernel_series(m, x, y, 12)
        big = kernel_series(m, x, y, 80)
        assert abs(small.value - big.value) <= small.tail_bound

    def test_no_envelope_means_no_tail(self):
        m = custom_symbol(lambda e: 1.0 / (1 + sum(e)) ** 3, n=1)
        got = kernel_series(m, 0.0, 0.0, 10)
        assert got.tail_bound is None

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            kernel_series(heat_symbol(1.0, n=2), 0.0, 0.0, 10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_table_equals_two(self, n):
        # phi_table on x and y together; the rescalings act on each point
        # alone, so the factors are those of one table per point set
        rng = np.random.default_rng(n)
        N = 40
        m = heat_symbol(0.4, n=n)
        for _ in range(5):
            x, y = rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n)
            want = lattice_sum(m, N, factors=phi_table(x, N) * phi_table(y, N))
            assert kernel_series(m, x, y, N).value == want
        x, y = np.full(n, 38.0), np.linspace(-40.0, 0.0, n)
        want = lattice_sum(m, N, factors=phi_table(x, N) * phi_table(y, N))
        assert kernel_series(m, x, y, N).value == want

    def test_range_test_runs_on_few_steps(self, monkeypatch):
        # the growth bounds leave the loop's range test to a few of the
        # steps of a table on six points in [-3, 3]; kernel_series builds
        # its table on fewer than _COLUMN_POINTS points point by point,
        # which never reaches the loop
        calls = []
        real = _accel._range_test

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(_accel, "_range_test", counted)
        rng = np.random.default_rng(3)
        N, runs = 300, 5
        m = heat_symbol(0.5, n=3)
        for _ in range(runs):
            x, y = rng.uniform(-3.0, 3.0, 3), rng.uniform(-3.0, 3.0, 3)
            before = len(calls)
            kernel_series(m, x, y, N)
            assert len(calls) == before
            for _ in _accel.phi_rows(np.concatenate((x, y)), N):
                pass
        # N - 1 loop steps per phi_rows call; the first step is tested
        assert runs <= len(calls) <= 0.05 * runs * (N - 1)

    def test_table_past_the_gaussian_underflow(self):
        # e^(-x^2/2) is zero in doubles at x = 40, phi_800(40)^2 = 0.0632 is not
        got = kernel_series(table_symbol({(800,): 1.0}), [40.0], [40.0], 800).value
        assert got == pytest.approx(eval_phi_1d(800, 40.0).to_float() ** 2, rel=1e-13)
        assert got == pytest.approx(0.0632, rel=1e-3)

    @pytest.mark.parametrize("x", [1e20, 1e140, 1e150, 1e154, 1e200, 1e308])
    def test_huge_points_give_zero(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_series(heat_symbol(1.0), [x], [0.5], 10).value == 0.0
            assert kernel_series(heat_symbol(1.0), [-x], [x], 10).value == 0.0
            assert kernel_series(heat_symbol(0.5, n=2), [0.5, x], [x, -1.0], 40).value == 0.0
            assert mehler_kernel(1.0, [x], [0.5]) == 0.0
            assert mehler_kernel(1.0, [x, 0.0], [-x, 0.0]) == 0.0

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, -1, "2"])
    def test_order_must_be_an_integer(self, bad):
        with pytest.raises(DomainError, match="truncation order"):
            kernel_series(heat_symbol(1.0), [0.1], [0.2], bad)
        with pytest.raises(DomainError, match="truncation order"):
            analyze(lambda x: x, bad, gauss_hermite_rule(4))

    def test_numpy_integer_order_is_taken(self):
        got = kernel_series(heat_symbol(1.0, n=2), [0.1, 0.3], [0.2, 0.4], np.int64(40))
        assert got == kernel_series(heat_symbol(1.0, n=2), [0.1, 0.3], [0.2, 0.4], 40)

    @pytest.mark.parametrize("n,N", [(2, 10**5), (3, 70711), (4, 10**6)])
    def test_convolution_past_its_cap_refused_before_any_work(self, n, N):
        # (n - 1) (N + 1)^2 level-column products: n = 2 at N = 2 * 10^5
        # took 6.2 s; 100 n and the CLI's 200 n are far inside
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match="convolution"):
            kernel_series(heat_symbol(1.0, n=n), [0.1] * n, [0.2] * n, N)
        assert time.perf_counter() - start < 1.0
        assert kernel_series(heat_symbol(1.0, n=n), [0.1] * n, [0.2] * n, 200 * n).value > 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_points_are_refused(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="points must be finite"):
                kernel_series(heat_symbol(1.0), [bad], [0.0], 20)
            with pytest.raises(DomainError, match="points must be finite"):
                kernel_series(heat_symbol(1.0, n=2), [0.0, 1.0], [0.5, bad], 20)


class TestMehlerKernel:
    def test_frozen_origin_value(self):
        direct = (2.0 * math.pi * math.sinh(2.0)) ** -0.5
        genfun = math.exp(-1.0) / math.sqrt(math.pi) / math.sqrt(1.0 - math.exp(-4.0))
        assert direct == pytest.approx(MEHLER_ORIGIN_T1, rel=1e-15)
        assert genfun == pytest.approx(MEHLER_ORIGIN_T1, rel=1e-15)
        assert mehler_kernel(1.0, 0.0, 0.0) == pytest.approx(MEHLER_ORIGIN_T1, rel=1e-14)

    def test_symmetry_exact(self):
        assert mehler_kernel(0.5, 1.2, -0.7) == mehler_kernel(0.5, -0.7, 1.2)

    def test_factorization_n2(self):
        x = np.array([0.3, -1.1]); y = np.array([0.2, 0.7])
        lhs = mehler_kernel(0.5, x, y)
        rhs = mehler_kernel(0.5, 0.3, 0.2) * mehler_kernel(0.5, -1.1, 0.7)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_diagonal_form(self):
        # at x = y the exponent is -|x|^2 tanh(t)
        t, x = 0.8, 1.3
        want = (2 * math.pi * math.sinh(2 * t)) ** -0.5 * math.exp(-x * x * math.tanh(t))
        assert mehler_kernel(t, x, x) == pytest.approx(want, rel=1e-13)

    def test_large_t_stable(self):
        v = mehler_kernel(200.0, 0.0, 0.0)
        want = math.exp(-0.5 * (math.log(2 * math.pi) + 400.0 - math.log(2.0)))
        assert v == pytest.approx(want, rel=1e-12)

    def test_far_points_underflow_to_zero(self):
        assert mehler_kernel(1.0, 30.0, -30.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mehler_kernel(0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            mehler_kernel(-1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            mehler_kernel(1.0, 0.0, [0.0, 1.0])
        with pytest.raises(DomainError):
            mehler_kernel(1.0, math.nan, 0.0)

    def test_overflow_reports_threshold(self):
        # prefactor sinh(2t)^{-n/2} exceeds the double range at subnormal t
        with pytest.raises(CapabilityError) as err:
            mehler_kernel(1e-310, [0.0, 0.0], [0.0, 0.0])
        assert "709.78" in str(err.value)

    def test_tiny_t_concentrates(self):
        # off the diagonal the kernel collapses to zero as t -> 0+
        assert mehler_kernel(1e-310, 1.0, 0.0) == 0.0
        v = mehler_kernel(1e-6, 0.5, 0.5)
        want = (2 * math.pi * 2e-6) ** -0.5 * math.exp(-0.25 * math.tanh(1e-6))
        assert v == pytest.approx(want, rel=1e-9)

    def test_semigroup_composition(self):
        # integral of K_t(x,z) K_s(z,y) dz equals K_{t+s}(x,y)
        rule = truncated_rule(10.0, panels=120, order=16)
        t = s = 0.5
        for x, y in ((0.5, -0.3), (1.2, 0.8), (0.0, 0.0)):
            vals = np.array([mehler_kernel(t, x, z) * mehler_kernel(s, z, y) for z in rule.nodes])
            got = float(np.sum(rule.weights * vals))
            assert got == pytest.approx(mehler_kernel(t + s, x, y), abs=1e-6)
