"""Quadrature rules, Lp norms, and the norm-model estimators.

Norm oracles for small degrees come from mpmath.quad applied to the
definition of phi_k, fully independent of the package quadrature.
"""

import math
import time

import mpmath
import numpy as np
import pytest

import hermult.quadrature as quad
from hermult import CapabilityError, ConvergenceError, DomainError
from hermult._accel import phi_row, phi_table
from hermult.quadrature import (
    NormEstimate,
    QuadratureRule,
    fit_norm_exponent,
    fit_norm_exponent_p4,
    gauss_hermite_rule,
    norm_model,
    lp_norm_1d,
    lp_norm_phi,
    norm_estimate,
    norm_regime,
    truncated_rule,
)

mpmath.mp.dps = 40

SQRT_PI = math.sqrt(math.pi)


def norm_oracle(k, p):
    """(integral of |phi_k|^p)^(1/p) straight from the definition.

    Splits the range at the zeros of H_k so the absolute-value kinks sit
    on subinterval endpoints where mpmath.quad handles them.
    """
    from scipy.special import roots_hermite

    den = mpmath.sqrt(mpmath.mpf(2) ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))

    def integrand(x):
        return abs(mpmath.hermite(k, x) * mpmath.exp(-x * x / 2) / den) ** p

    lim = math.sqrt(2 * (2 * k + 1)) + 14
    pts = [-lim] + (sorted(roots_hermite(k)[0].tolist()) if k else []) + [lim]
    val = mpmath.quad(integrand, pts)
    return float(val ** (mpmath.mpf(1) / p))


def sup_oracle(k):
    """max |phi_k| over the real zeros of phi_k' = (2k H_{k-1} - x H_k) e^{-x^2/2} / c_k.

    Hermite coefficients are exact integers from H_{j+1} = 2x H_j - 2j H_{j-1};
    mpmath.polyroots finds every critical point.
    """
    H = [[1], [0, 2]]  # ascending coefficients
    for j in range(1, k + 1):
        a, b = H[j], H[j - 1]
        H.append([(2 * a[i - 1] if i else 0) - (2 * j * b[i] if i < len(b) else 0)
                  for i in range(len(a) + 1)])
    lower = H[k - 1] if k else [0]
    q = [(2 * k * lower[i] if i < len(lower) else 0) - (H[k][i - 1] if i else 0)
         for i in range(k + 2)]
    roots = mpmath.polyroots(q[::-1], maxsteps=500, extraprec=400)
    den = mpmath.sqrt(mpmath.mpf(2) ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
    crit = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** -25]
    return float(max(abs(mpmath.hermite(k, x) * mpmath.exp(-x * x / 2)) for x in crit) / den)


class TestGaussHermiteRule:
    def test_one_point(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-14)

    def test_two_point(self):
        rule = gauss_hermite_rule(2)
        assert rule.nodes == pytest.approx([-2 ** -0.5, 2 ** -0.5], rel=1e-14)
        assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], rel=1e-14)

    @pytest.mark.parametrize("M", [1, 2, 5, 20, 64, 500])
    def test_weights_sum_to_sqrt_pi(self, M):
        rule = gauss_hermite_rule(M)
        assert math.fsum(rule.weights) == pytest.approx(SQRT_PI, rel=1e-12)
        assert np.all(np.diff(rule.nodes) > 0)

    def test_moments_exact_up_to_degree(self):
        rule = gauss_hermite_rule(20)
        # int x^j e^{-x^2}: 0 for odd j, Gamma((j+1)/2) for even j
        for j in range(0, 39, 2):
            got = float(np.sum(rule.weights * rule.nodes ** j))
            assert got == pytest.approx(math.gamma((j + 1) / 2), rel=1e-12), j
        for j in range(1, 39, 2):
            got = float(np.sum(rule.weights * rule.nodes ** j))
            scale = float(np.sum(rule.weights * np.abs(rule.nodes) ** j))
            assert abs(got) <= 1e-12 * scale, j

    def test_x4_moment_frozen(self):
        rule = gauss_hermite_rule(20)
        got = float(np.sum(rule.weights * rule.nodes ** 4))
        assert got == pytest.approx(0.75 * SQRT_PI, rel=1e-12)

    @pytest.mark.parametrize("M", [0, -3, 10_001, 2.5])
    def test_out_of_range(self, M):
        with pytest.raises(CapabilityError):
            gauss_hermite_rule(M)


class TestRuleValidation:
    def test_truncated_rule_roundtrip(self):
        rule = truncated_rule(3.0, panels=8)
        assert rule.kind == "truncated_adaptive"
        assert rule.truncation_radius == 3.0
        # integrates smooth functions on [-3, 3]: int cos = 2 sin(3)
        got = float(np.sum(rule.weights * np.cos(rule.nodes)))
        assert got == pytest.approx(2 * math.sin(3.0), rel=1e-13)

    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            QuadratureRule(np.array([0.0, 0.0]), np.array([1.0, 1.0]), "gauss_hermite")
        with pytest.raises(DomainError):
            QuadratureRule(np.array([0.0, 1.0]), np.array([1.0, -1.0]), "gauss_hermite")
        with pytest.raises(DomainError):
            QuadratureRule(np.array([0.0]), np.array([1.0]), "gauss_hermite", truncation_radius=2.0)
        with pytest.raises(DomainError):
            QuadratureRule(np.array([0.0]), np.array([1.0]), "truncated_adaptive")


class TestLpNorms:
    def test_frozen_closed_forms(self):
        assert lp_norm_phi((0,), 2.0) == pytest.approx(1.0, abs=1e-10)
        assert lp_norm_phi((0,), 1.0) == pytest.approx(math.sqrt(2) * math.pi ** 0.25, rel=1e-9)
        assert lp_norm_phi((0,), 4.0) == pytest.approx((2 * math.pi) ** -0.125, rel=1e-9)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 12])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 6.0])
    def test_against_mpmath_oracle(self, k, p):
        # even p runs the exact Gauss-Hermite rule, the others bisection to 1e-10
        rel = 1e-12 if p in (2.0, 4.0, 6.0) else 1e-8
        assert lp_norm_1d(k, p, 1e-10) == pytest.approx(norm_oracle(k, p), rel=rel)

    @pytest.mark.parametrize("k", [200, 1000])
    @pytest.mark.parametrize("p", [4.0, 6.0])
    def test_exact_rule_matches_bisection(self, k, p):
        exact, exact_shift = quad._even_p_integral_1d(k, p)
        adaptive, adaptive_shift = quad._lp_integral_1d(k, p, 1e-12)
        assert exact_shift == adaptive_shift == 0.0
        assert exact == pytest.approx(adaptive, rel=1e-11)

    def test_l2_normalization_many_degrees(self):
        for k in [0, 5, 40, 137, 600]:
            assert lp_norm_1d(k, 2.0, 1e-10) == pytest.approx(1.0, abs=1e-9)

    def test_sup_norm(self):
        # phi_0 peaks at the origin; phi_1 peak known in closed form at x = 1
        assert lp_norm_1d(0, math.inf) == pytest.approx(math.pi ** -0.25, rel=1e-10)
        want = math.sqrt(2.0) * math.pi ** -0.25 * math.exp(-0.5)
        assert lp_norm_1d(1, math.inf) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("k", [2, 3, 7, 12, 33])
    def test_sup_norm_against_mpmath_oracle(self, k):
        assert lp_norm_1d(k, math.inf) == pytest.approx(sup_oracle(k), rel=1e-13)

    def test_last_lobe_matches_dense_scan(self):
        # A scan of [0, R] at spacing 5e-3 for every degree at once, then a
        # second scan at spacing 5e-6 around each degree's best point: its
        # value lies below the maximum by at most lambda * h^2 / 8 < 3e-9.
        nmax = 200
        R = math.sqrt(2 * (2 * nmax + 1)) + 12
        coarse = np.linspace(0.0, R, int(R / 5e-3) + 1)
        table = np.abs(phi_table(coarse, nmax))
        for k in range(nmax + 1):
            i = int(np.argmax(table[k]))
            fine = np.linspace(coarse[max(i - 1, 0)], coarse[i + 1], 2001)
            vals, logs = phi_row(fine, k)
            dense = float(np.max(np.abs(vals) * np.exp(logs)))
            got = lp_norm_1d(k, math.inf)
            assert dense * (1 - 1e-14) <= got <= dense * (1 + 3e-9), k

    def test_sup_norm_uniform_bound(self):
        # classical uniform bound, also used by the kernel tail certificates
        bound = 1.086435 * math.pi ** -0.25
        for k in [0, 1, 2, 9, 33, 150, 1200]:
            assert lp_norm_1d(k, math.inf) <= bound

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 6.0])
    def test_tensor_factorization(self, p):
        tol = 1e-8
        for a, b in [(0, 0), (1, 3), (7, 2), (20, 11)]:
            prod = lp_norm_1d(a, p, tol) * lp_norm_1d(b, p, tol)
            assert lp_norm_phi((a, b), p, tol) == pytest.approx(prod, rel=2 * tol)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lp_norm_1d(3, 0.5)
        with pytest.raises(DomainError):
            lp_norm_1d(3, 2.0, tol=1e-15)
        with pytest.raises(DomainError):
            lp_norm_1d(3, 2.0, tol=0.5)
        with pytest.raises(DomainError):
            lp_norm_1d(-2, 2.0)

    @pytest.mark.parametrize("degree,p", [
        (10**6, 4.0), (10**5, 6.0), (10**6, math.inf), (10**4, 1.0), (10**6, 2.5),
    ])
    def test_refused_before_any_work(self, degree, p):
        start = time.perf_counter()
        with pytest.raises(CapabilityError):
            lp_norm_1d(degree, p)
        assert time.perf_counter() - start < 1.0

    def test_bisection_refused_before_crossing_budget(self, monkeypatch):
        # degree 40 at p = 4/3 needs more passes than a 1e6 point-step budget allows
        monkeypatch.setattr(quad, "NORM_WORK_BUDGET", 1e6)
        route, work = quad._norm_route(40, 4 / 3)
        assert route == "bisection" and work < quad.NORM_WORK_BUDGET
        with pytest.raises(CapabilityError):
            quad._lp_integral_1d(40, 4 / 3, 1e-8)

    def test_large_even_p_takes_bisection(self):
        # the exact rule's p * n / 2 + 1 = 90001 nodes would exceed the budget
        assert quad._norm_route(300, 600.0)[0] == "bisection"
        assert quad._norm_route(300, 100.0)[0] == "even"
        sup = lp_norm_1d(300, math.inf)
        # Hoelder: ||phi||_p <= ||phi||_inf^(1 - 2/p) ||phi||_2^(2/p)
        assert 0.99 * sup < lp_norm_1d(300, 600.0) <= sup ** (1 - 2 / 600)

    @pytest.mark.parametrize("degree,p", [(50, 1000.0), (50, 999.0), (300, 1000.0), (5, 2000.0)])
    def test_underflowing_power_keeps_the_norm(self, degree, p):
        # ||phi||_inf^p is below the double range; Hoelder interpolation with
        # ||phi||_2 = 1 gives ||phi||_4^(1/theta) <= ||phi||_p <= ||phi||_inf^(1 - 2/p)
        theta = (0.5 - 0.25) / (0.5 - 1.0 / p)
        norm = lp_norm_1d(degree, p)
        assert norm > 0.0
        assert lp_norm_1d(degree, 4.0) ** (1.0 / theta) <= norm
        assert norm <= lp_norm_1d(degree, math.inf) ** (1.0 - 2.0 / p)

    def test_bisection_moves_estimates_to_the_largest_shift(self, monkeypatch):
        # the second pass's largest exponent rises above -700, so it has no
        # shift; the first estimate moves to its scale, e^(-712) stays finite
        passes = iter([(1.0, -712.0), (math.exp(-699.0), 0.0), (math.exp(-699.0), 0.0)])
        monkeypatch.setattr(quad, "_half_line_integral", lambda *args: next(passes))
        assert quad._lp_integral_1d(40, 3.0, 1e-8) == (2.0 * math.exp(-699.0), 0.0)

    def test_norm_cache_is_bounded(self):
        # bounded, and large enough for the ~400 norms of an s_r_sum at N = 200
        assert 400 <= quad._lp_norm_1d_cached.cache_info().maxsize < 10**5

    def test_convergence_error_carries_last_two(self, monkeypatch):
        monkeypatch.setattr(quad, "_MAX_REFINEMENTS", 1)
        with pytest.raises(ConvergenceError) as exc:
            quad._lp_integral_1d(5, 1.37, 1e-13)
        a, b = exc.value.last_two
        assert a > 0 and b > 0 and a != b


class TestOrthonormality:
    def test_gram_matrix_is_identity(self):
        rule = gauss_hermite_rule(60)
        effective = rule.weights * np.exp(rule.nodes ** 2)
        T = phi_table(rule.nodes, 50)
        G = (T * effective) @ T.T
        assert np.max(np.abs(G - np.eye(51))) < 1e-12


class TestLemma1Model:
    def test_frozen_examples(self):
        assert norm_model(100, 2.0, 10) == pytest.approx(1.0, rel=1e-14)
        assert norm_model(100, 1.0, 10) == pytest.approx(100 ** 0.25, rel=1e-14)
        got = norm_model(math.e ** 2, 4.0, 2)
        assert got == pytest.approx(math.exp(-0.25) * 2, rel=1e-12)

    def test_frozen_constant_below_cutoff(self):
        rho = lp_norm_1d(10, 3.0, 1e-10)
        for nu in [0, 4, 10]:
            assert norm_model(nu, 3.0, 10) == pytest.approx(rho, rel=1e-12)

    @pytest.mark.parametrize(
        "p,expo",
        [
            (1.0, 0.25),
            (2.0, 0.0),
            (3.0, 1 / 6 - 0.25),
            (6.0, -1 / 36 - 1 / 12),
            (math.inf, -1 / 12),
        ],
    )
    def test_doubling_law(self, p, expo):
        for nu in [11, 40, 333]:
            ratio = norm_model(2 * nu, p, 10) / norm_model(nu, p, 10)
            assert ratio == pytest.approx(2 ** expo, rel=1e-12)

    def test_positivity_and_validation(self):
        for p in [1.0, 2.5, 4.0, 9.0, math.inf]:
            for nu in [0, 3, 10, 11, 500]:
                assert norm_model(nu, p, 10) > 0
        with pytest.raises(DomainError):
            norm_model(5, 2.0, k=1)
        with pytest.raises(DomainError):
            norm_model(-1, 2.0)


class TestNormEstimate:
    def test_fields_and_regimes(self):
        est = norm_estimate((30,), 2.0)
        assert est.regime == "sub4"
        assert est.computed == pytest.approx(1.0, abs=1e-7)
        assert est.predicted == pytest.approx(1.0, rel=1e-12)
        assert norm_regime(4.0) == "eq4"
        assert norm_regime(17.0) == "super4"
        assert norm_regime(math.inf) == "super4"
        with pytest.raises(DomainError):
            NormEstimate(p=2.0, degree=3, computed=-1.0, predicted=1.0, regime="sub4")
        with pytest.raises(DomainError):
            NormEstimate(p=5.0, degree=3, computed=1.0, predicted=1.0, regime="sub4")


class TestExponentFits:
    def test_p2_slope_is_flat(self):
        assert abs(fit_norm_exponent(2.0, (100, 2000), 10)) < 0.01

    def test_small_range_p1_slope(self):
        # modest range keeps this test quick; acceptance covers [200, 2000]
        slope = fit_norm_exponent(1.0, (100, 600), 8)
        assert slope == pytest.approx(0.25, abs=0.03)

    def test_p4_returns_power_term(self):
        power, logpow = fit_norm_exponent_p4((100, 600), 8)
        assert power == pytest.approx(-0.125, abs=0.05)
        assert math.isfinite(logpow)

    def test_degenerate_fit_rejected(self):
        with pytest.raises(DomainError):
            fit_norm_exponent(2.0, (5, 2000), 10)
        with pytest.raises(DomainError):
            fit_norm_exponent(2.0, (100, 2000), 5)
        with pytest.raises(DomainError):
            fit_norm_exponent(2.0, (2000, 100), 10)
