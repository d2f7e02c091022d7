"""Quadrature rules, Lp norms, and the norm-model estimators.

Norm oracles for small degrees and p come from mpmath.quad applied to the
definition of phi_k, fully independent of the package quadrature; large
p take a dense composite Gauss-Legendre sum instead.
"""

import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import hermult.quadrature as quad
from hermult import CapabilityError, ConvergenceError, DomainError, _accel
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
    lp_norms_1d,
    norm_estimate,
    norm_law,
    norm_model_exponent,
    norm_regime,
    truncated_rule,
)

mpmath.mp.dps = 40

SQRT_PI = math.sqrt(math.pi)


def norm_oracle(k, p):
    """(integral of |phi_k|^p)^(1/p) straight from the definition.

    Splits the range at the zeros of H_k so the absolute-value kinks sit
    on subinterval endpoints where mpmath.quad handles them.  Used up to
    p = 8: at p = 600, k = 3 it is off by 0.138, where |phi|^p is too
    peaked for mpmath.quad, so larger p take dense_norm.
    """
    from scipy.special import roots_hermite

    den = mpmath.sqrt(mpmath.mpf(2) ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))

    def integrand(x):
        return abs(mpmath.hermite(k, x) * mpmath.exp(-x * x / 2) / den) ** p

    lim = math.sqrt(2 * (2 * k + 1)) + 14
    pts = [-lim] + (sorted(roots_hermite(k)[0].tolist()) if k else []) + [lim]
    val = mpmath.quad(integrand, pts)
    return float(val ** (mpmath.mpf(1) / p))


def power_sum_norm(vals, weights, p):
    """(sum of weights |vals|^p)^(1/p), summed in logs: the terms
    t = ln w + p ln|v| less their largest, exponentiated and added by
    math.fsum, the largest added back after the root.  It shares no code
    with the routes' power sums."""
    with np.errstate(divide="ignore"):
        t = np.log(weights) + p * np.log(np.abs(vals))
    top = float(np.max(t))
    return math.exp((top + math.log(math.fsum(np.exp(t - top).tolist()))) / p)


def dense_norm(k, p, panels=40_000):
    """||phi_k||_p from composite 16-point Gauss-Legendre on `panels` equal
    panels of [-L, L], L = sqrt(2 (2k + 1)) + 14, not aligned to the zeros.

    For p >= 8 the integrand has at least seven continuous derivatives at
    the zeros of phi_k, and up to k = 300 a panel is under 1/50 of a lobe,
    pi / sqrt(2k + 1) wide, so the sum is converged for p up to 1e4.
    """
    rule = truncated_rule(math.sqrt(2 * (2 * k + 1)) + 14, panels=panels)
    return power_sum_norm(phi_row(rule.nodes, k), rule.weights, p)


def gauss_hermite_norm(k, p):
    """||phi_k||_p at even p from the Gauss-Hermite rule of M = p k / 2 + 1
    nodes (roots_hermite), the route the even-p norms took before the
    trapezoid grid: under x = y sqrt(2/p), |phi_k(x)|^p is a polynomial of
    degree p k in y times e^{-y^2}, which the rule integrates exactly."""
    M = int(p) // 2 * k + 1
    y, w = quad.roots_hermite(M)
    # doubled for the mirrored node -y except at y = 0
    weights = 2.0 * w
    if M % 2:
        weights[0] = w[0]
    scale = math.sqrt(2.0 / p)
    return power_sum_norm(phi_row(scale * y, k), scale * weights, p)


def sup_oracle(k):
    """max |phi_k| over the real zeros of phi_k' = (2k H_{k-1} - x H_k) e^{-x^2/2} / c_k.

    Hermite coefficients are exact integers from H_{j+1} = 2x H_j - 2j H_{j-1}.
    numpy's companion matrix in the Hermite basis, where the critical
    polynomial is k H_{k-1} - H_{k+1} / 2, places all k + 1 critical points;
    Newton's method on the exact integer polynomial refines each in mpmath,
    and they must stay distinct, so none is missed.
    """
    H = [[1], [0, 2]]  # ascending coefficients
    for j in range(1, k + 1):
        a, b = H[j], H[j - 1]
        H.append([(2 * a[i - 1] if i else 0) - (2 * j * b[i] if i < len(b) else 0)
                  for i in range(len(a) + 1)])
    lower = H[k - 1] if k else [0]
    q = [(2 * k * lower[i] if i < len(lower) else 0) - (H[k][i - 1] if i else 0)
         for i in range(k + 2)]
    dq = [i * q[i] for i in range(1, k + 2)]
    hermite_basis = np.zeros(k + 2)
    hermite_basis[k + 1] = -0.5
    if k:
        hermite_basis[k - 1] = k
    crit = []
    with mpmath.workdps(40 + k):
        for guess in np.polynomial.hermite.hermroots(hermite_basis):
            x = mpmath.mpf(float(np.real(guess)))
            for _ in range(8):
                x -= mpmath.polyval(q[::-1], x) / mpmath.polyval(dq[::-1], x)
            crit.append(x)
        assert len({mpmath.nstr(x, 30) for x in crit}) == k + 1
        den = mpmath.sqrt(mpmath.mpf(2) ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
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


def _count_work(monkeypatch):
    """Record point-steps as _route counts them, for single norms and for
    sweeps: a phi_row, phi_rows or phi_tail call whose largest degree is n,
    n (P + 4096); a phi_pair call at largest M, (M - 1) (P + 4096); each
    value of a weighted power sum, 4.  A call with one degree per point runs
    the loop to the largest one; its cuts only make the work smaller.  Also
    record np.ndim of each kernel call's degrees."""
    done, kernels = [], []
    pair, rows, tail, power = quad.phi_pair, quad.phi_rows, quad.phi_tail, quad.weighted_abs_power_sum
    row = quad.phi_row

    def counted_row(x, n):
        kernels.append(np.ndim(n))
        done.append(quad._phi_row_work(len(x), int(np.max(n))))
        return row(x, n)

    def counted_pair(x, M):
        kernels.append(np.ndim(M))
        done.append(quad._phi_row_work(len(x), max(int(np.max(M)) - 1, 0)))
        return pair(x, M)

    def counted_rows(x, n, lowest=0):
        kernels.append(0)
        done.append(quad._phi_row_work(len(x), n))
        return rows(x, n, lowest)

    def counted_tail(x, n):
        kernels.append(np.ndim(n))
        done.append(quad._phi_row_work(len(x), int(np.max(n))))
        return tail(x, n)

    def counted_power(vals, weights, p):
        done.append(quad._POWER_POINTS * vals.size)
        return power(vals, weights, p)

    monkeypatch.setattr(quad, "phi_pair", counted_pair)
    monkeypatch.setattr(quad, "phi_row", counted_row)
    monkeypatch.setattr(quad, "phi_rows", counted_rows)
    monkeypatch.setattr(quad, "phi_tail", counted_tail)
    monkeypatch.setattr(quad, "weighted_abs_power_sum", counted_power)
    return done, kernels


def _count_passes(monkeypatch):
    """Record the number of points of every Halley pass."""
    calls = []
    pair = quad.phi_pair

    def counted(x, M):
        calls.append(len(x))
        return pair(x, M)

    monkeypatch.setattr(quad, "phi_pair", counted)
    return calls


def _mp_phi_pair(x, M):
    """(phi_{M-1}(x), phi_M(x)) by the three-term recurrence in mpmath."""
    x = mpmath.mpf(x)
    p0 = mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-x * x / 2)
    p1 = mpmath.sqrt(2) * x * p0
    for k in range(1, M):
        p0, p1 = p1, x * mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * p1 - mpmath.sqrt(
            mpmath.mpf(k) / (k + 1)) * p0
    return p0, p1


class TestGaussHermiteNodes:
    """hermult's own rule against scipy, which stays a test-only oracle."""

    @staticmethod
    def _assert_nodes_match_scipy(M):
        from scipy.special import roots_hermite as scipy_roots

        want = scipy_roots(M)[0]
        y = quad.roots_hermite(M)[0]
        got = np.concatenate([-y[M % 2:][::-1], y])
        err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        assert err.max() <= 5e-13, (M, err.max())

    def test_nodes_match_scipy_up_to_200(self):
        for M in range(1, 201):
            self._assert_nodes_match_scipy(M)

    @pytest.mark.parametrize("M", [257, 401, 1000, 3201, 10_001])
    def test_nodes_match_scipy_on_a_ladder(self, M):
        self._assert_nodes_match_scipy(M)

    @pytest.mark.parametrize("M", [401, 3201])
    def test_nodes_are_zeros_to_rounding(self, M):
        # one Newton correction phi_M / phi_M' in 30-digit arithmetic
        y = quad.roots_hermite(M)[0]
        with mpmath.workdps(30):
            for i in np.unique(np.linspace(0, len(y) - 1, 6).astype(int)):
                prev, cur = _mp_phi_pair(y[i], M)
                d = mpmath.sqrt(2 * M) * prev - mpmath.mpf(y[i]) * cur
                assert abs(cur / d) <= 1e-15 * max(y[i], 1e-300), (M, i)

    def test_effective_weights_match_scipy(self):
        # scipy's own w e^{x^2} is off by up to 3e-12 at the outermost nodes
        # (the mpmath test below puts ours within 1e-13 there)
        from scipy.special import roots_hermite as scipy_roots

        for M in range(1, 151):
            x, w = scipy_roots(M)
            want = w[M // 2:] * np.exp(x[M // 2:] ** 2)
            got = quad.roots_hermite(M)[1]
            assert np.max(np.abs(got - want) / want) <= 5e-12, M

    @pytest.mark.parametrize("M", [20, 77, 150])
    def test_effective_weights_against_mpmath(self, M):
        # w e^{y^2} = 1 / (M phi_{M-1}(y)^2) at a zero y refined in mpmath
        y, w = quad.roots_hermite(M)
        for i in range(len(y)):
            x = mpmath.mpf(y[i])
            for _ in range(2):
                prev, cur = _mp_phi_pair(x, M)
                x -= cur / (mpmath.sqrt(2 * M) * prev - x * cur)
            prev, _ = _mp_phi_pair(x, M)
            want = 1 / (M * prev * prev)
            assert abs(w[i] - want) <= 1e-13 * want, (M, i)

    def test_pass_counts(self, monkeypatch):
        # two passes below _ONE_PASS_NODES nodes, one from there on; the
        # route estimates count these
        calls = _count_passes(monkeypatch)
        for M in range(1, 201):
            calls.clear()
            quad.roots_hermite.__wrapped__(M)
            assert len(calls) == (1 if M >= quad._ONE_PASS_NODES or M == 1 else 2), M

    def test_range_test_runs_a_few_times_per_pass(self, monkeypatch):
        # between range tests the growth bounds leave a pair maximum about
        # 400 bits of headroom, so the node pass of a wide rule tests only a
        # few of its 3176 steps (17 when this was written)
        calls = []
        real = _accel._range_test

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(_accel, "_range_test", counted)
        quad.roots_hermite.__wrapped__(3177)
        assert 1 <= len(calls) <= 64

    @pytest.mark.parametrize("M", [49, 61, 200, 3201])
    def test_one_pass_is_final(self, M):
        # another pass from the result moves the nodes and weights only by
        # the rounding of the recurrence: 1 ulp up to M = 200, 4 at 3201
        y, w = quad.roots_hermite(M)
        again, d, at, count = quad._halley_nodes(y, np.full(len(y), M))
        assert np.all(np.abs(again - y) <= 4 * np.spacing(y))
        d = _accel._to_floats(d, _accel._gauss(at), count)
        assert np.allclose(2.0 / (d * d), w, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("M", [150, 600, 2000])
    def test_weights_against_a_40_digit_recurrence(self, M):
        # w e^{y^2} = 2 / phi_M'(y)^2 with phi_M' = sqrt(2M) phi_{M-1} - y phi_M
        # from the recurrence in 40 digits, at 12 nodes from 0 to the largest:
        # at most 7.6e-15, 3.1e-14 and 1.9e-14 when written (9.5e-14 at
        # M = 2000 when phi_M' was taken through a log scale)
        y, w = quad.roots_hermite(M)
        for i in np.unique(np.linspace(0, len(y) - 1, 12).astype(int)).tolist():
            x = mpmath.mpf(y[i])
            prev, cur = 0, mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-x * x / 2)
            for k in range(M):
                c1, c0 = mpmath.sqrt(mpmath.mpf(2) / (k + 1)), mpmath.sqrt(mpmath.mpf(k) / (k + 1))
                prev, cur = cur, x * c1 * cur - c0 * prev
            want = 2 / (mpmath.sqrt(2 * M) * prev - x * cur) ** 2
            assert abs(w[i] - want) <= 4e-14 * want, (M, y[i])

    def test_half_rules_are_cached_read_only(self):
        y, w = quad.roots_hermite(33)
        assert quad.roots_hermite(33)[0] is y
        assert not y.flags.writeable and not w.flags.writeable
        assert 0 < quad.roots_hermite.cache_info().maxsize <= 1024

    def test_sup_maximum_lies_on_the_last_lobe(self, monkeypatch):
        # the certified critical point x* of the sup route lies between the
        # largest zero of phi_n and the turning point sqrt(2n + 1), at every
        # degree up to 3000 and on a ladder to 10^5
        found = {}
        polish = quad._sup_polish

        def recorded(n, x0, prev, cur):
            out = polish(n, x0, prev, cur)
            found[n] = out[0]
            return out

        monkeypatch.setattr(quad, "_sup_polish", recorded)
        quad._sup_norm_1d(range(3000, 0, -1))
        for n in (4000, 6000, 10000, 20000, 34332, 60000, 100000):
            quad._sup_norm_1d([n])
        # phi_1's largest zero is 0; the others from one set of Halley
        # passes over the largest guesses, which gives each rule's own node
        assert 0.0 < found.pop(1) < math.sqrt(3.0)
        degrees = np.array(sorted(found, reverse=True))
        guesses = quad._zero_guesses(degrees, np.ones(len(degrees)))
        largest = quad._halley_nodes(guesses, degrees)[0]
        for n in (2, 3, 48, 49, 1606, 3000):
            assert largest[degrees == n][0] == quad.roots_hermite(n)[0][-1], n
        for n, z in zip(degrees.tolist(), largest.tolist()):
            assert z < found[n] < math.sqrt(2.0 * n + 1.0), n


    @pytest.mark.parametrize("n", [3, 10, 50, 1000])
    def test_sup_refuses_a_maximum_it_cannot_certify(self, monkeypatch, n):
        # started on the lobe below the last one, Newton's method settles on
        # the maximum there; a zero of phi_n lies between it and sqrt(2n + 1),
        # so the certificate fails and the norm is refused, not wrong
        zeros = quad.roots_hermite(n)[0]
        monkeypatch.setattr(quad, "_sup_start", lambda u: 0.5 * (zeros[-2] + zeros[-1]))
        with pytest.raises(ConvergenceError, match="not certified"):
            quad._sup_norm_1d([n])


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

    @pytest.mark.parametrize("panels,order", [
        (0, 16), (64, 0), (2.5, 16), (64, 2.5), (True, 16), (64, True), ("8", 16), (-3, 16)])
    def test_truncated_rule_takes_ints_from_one(self, panels, order):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            truncated_rule(3.0, panels=panels, order=order)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("panels,order", [
        (1, quad._TRUNCATED_MAX_ORDER + 1), (1, 10**6),
        (quad._TRUNCATED_MAX_NODES // 16 + 1, 16), (10**9, 1)])
    def test_truncated_rule_over_the_caps_is_refused_up_front(self, panels, order):
        # leggauss grows with the cube of the order, and the rule's arrays
        # with the node count: nothing is built before the refusal
        start = time.perf_counter()
        with pytest.raises(CapabilityError):
            truncated_rule(3.0, panels=panels, order=order)
        assert time.perf_counter() - start < 1.0

    def test_truncated_rule_at_the_caps(self):
        rule = truncated_rule(3.0, panels=np.int64(1), order=quad._TRUNCATED_MAX_ORDER)
        assert float(np.sum(rule.weights * np.cos(rule.nodes))) == pytest.approx(
            2 * math.sin(3.0), rel=1e-13)
        assert len(truncated_rule(3.0, panels=quad._TRUNCATED_MAX_NODES // 16)) == (
            quad._TRUNCATED_MAX_NODES)


class TestLpNorms:
    def test_frozen_closed_forms(self):
        assert lp_norm_phi((0,), 2.0) == pytest.approx(1.0, abs=1e-10)
        assert lp_norm_phi((0,), 1.0) == pytest.approx(math.sqrt(2) * math.pi ** 0.25, rel=1e-9)
        assert lp_norm_phi((0,), 4.0) == pytest.approx((2 * math.pi) ** -0.125, rel=1e-9)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 12])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 6.0, 8.0])
    def test_against_mpmath_oracle(self, k, p):
        # even p runs the trapezoid grid, p = 1 the tail integrals at the
        # zeros, p = 3 the panels
        rel = 1e-13 if p == 1.0 else 1e-14
        assert lp_norm_1d(k, p, 1e-10) == pytest.approx(norm_oracle(k, p), rel=rel)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 13, 50, 101, 200, 401, 800, 1608])
    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0, 10.0, 12.0])
    def test_even_grid_matches_the_gauss_hermite_rule(self, k, p):
        # the gap is the rule's rounding as much as the grid's: against a
        # 32-digit trapezoid sum at (200, 6) the rule is 1.9e-14 off and the
        # grid 7.6e-16
        assert lp_norm_1d(k, p) == pytest.approx(gauss_hermite_norm(k, p), rel=2e-14)

    def test_even_route_builds_no_rule(self, monkeypatch):
        # the even route runs the recurrence once over its grid: no node
        # pass, so neither roots_hermite nor phi_pair is called
        calls = []
        rule, pair = quad.roots_hermite, quad.phi_pair

        def counted_rule(M):
            calls.append(("roots_hermite", M))
            return rule(M)

        def counted_pair(x, M):
            calls.append(("phi_pair", M))
            return pair(x, M)

        monkeypatch.setattr(quad, "roots_hermite", counted_rule)
        monkeypatch.setattr(quad, "phi_pair", counted_pair)
        quad._lp_norm_1d_cached.__wrapped__(401, 4.0)
        quad._lp_norms_1d_cached.__wrapped__(401, 6.0)
        quad._lp_norms_1d_cached.__wrapped__(60, 100.0)
        assert calls == []

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 12, 25])
    @pytest.mark.parametrize("p", [1.0, 1.25, 4 / 3, 1.5, 2.5, 3.0, 5.0])
    def test_panels_against_mpmath_oracle(self, k, p):
        # the kink rule takes the |x - a|^alpha factor at each zero
        # (9e-16 at most here when written)
        assert quad._panel_norm_1d([k], p)[0] == pytest.approx(norm_oracle(k, p), rel=1e-14)

    @pytest.mark.parametrize("k", [3, 10, 300])
    @pytest.mark.parametrize("p", [8.0, 37.5, 100.0, 600.0, 1000.0, 1e4])
    def test_panels_against_dense_sum(self, k, p):
        # ceil(sqrt(p) / 2) pieces a half-lobe resolve the peaks of |phi|^p
        # (1.9e-15 at most here when written)
        assert quad._panel_norm_1d([k], p)[0] == pytest.approx(dense_norm(k, p), rel=1e-14)

    @pytest.mark.parametrize("k", [200, 1000])
    @pytest.mark.parametrize("p", [4.0, 6.0])
    def test_exact_rule_matches_bisection(self, k, p):
        # against the panel route, an independent quadrature
        exact = quad._even_norm_1d([k], p)[0]
        assert quad._panel_norm_1d([k], p)[0] == pytest.approx(exact, rel=5e-14)

    def test_l2_normalization_many_degrees(self):
        for k in [0, 5, 40, 137, 600]:
            assert lp_norm_1d(k, 2.0, 1e-10) == pytest.approx(1.0, abs=1e-9)

    def test_sup_norm(self):
        # phi_0 peaks at the origin; phi_1 peak known in closed form at x = 1
        assert lp_norm_1d(0, math.inf) == pytest.approx(math.pi ** -0.25, rel=1e-10)
        want = math.sqrt(2.0) * math.pi ** -0.25 * math.exp(-0.5)
        assert lp_norm_1d(1, math.inf) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("k", range(60))
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
            dense = float(np.max(np.abs(phi_row(fine, k))))
            got = lp_norm_1d(k, math.inf)
            assert dense * (1 - 1e-14) <= got <= dense * (1 + 3e-9), k

    def test_sup_norm_uniform_bound(self):
        # Indritz's bound |phi_n| <= pi^(-1/4), an equality at n = 0 (Cramer's
        # 1.086435 pi^(-1/4) is the classical, weaker one)
        bound = math.pi ** -0.25
        norms = list(lp_norms_1d(400, math.inf)) + [lp_norm_1d(k, math.inf)
                                                   for k in (1000, 3000, 10000)]
        assert norms[0] == bound
        assert max(norms[1:]) <= bound

    def test_sup_norm_makes_one_recurrence_run(self, monkeypatch):
        runs = []
        row, pair = quad.phi_row, quad.phi_pair

        def counted_row(x, n):
            runs.append(n)
            return row(x, n)

        def counted_pair(x, n):
            runs.append(n)
            return pair(x, n)

        monkeypatch.setattr(quad, "phi_row", counted_row)
        monkeypatch.setattr(quad, "phi_pair", counted_pair)
        for n in list(range(1, 60)) + [401, 1606]:
            runs.clear()
            quad._lp_norm_1d_cached.__wrapped__(n, math.inf)
            assert runs == [n], n

    @pytest.mark.parametrize("n", [977, 34332, 240326])
    def test_sup_grid_log_scales_are_exact(self, monkeypatch, n):
        # the sup's point is rescaled (j > 0), and its value is the polished
        # mantissa times e^(-x^2/2) 2^(400 j), from the exact -x^2/2 and the
        # count j, within 2 ulps of that product in 50 digits
        runs = []
        pair = quad.phi_pair

        def recorded(x, m):
            out = pair(x, m)
            runs.append((x, *out))
            return out

        monkeypatch.setattr(quad, "phi_pair", recorded)
        (got,) = quad._sup_norm_1d([n])
        ((grid, prev, cur, count),) = runs
        x, j = float(grid[0]), int(count[0])
        top = quad._sup_polish(n, x, float(prev[0]), float(cur[0]))[1]
        with mpmath.workdps(50):
            want = mpmath.mpf(top) * mpmath.exp(-mpmath.mpf(x) ** 2 / 2 + 400 * j * mpmath.log(2))
            assert j > 0 and abs(got - want) <= 2 * math.ulp(got), (n, x)

    def test_sup_norm_at_the_served_edge(self):
        # max |phi_240326| to 40 digits, from the recurrence in 50-digit
        # decimal arithmetic (exponent range widened, no rescaling) and
        # Newton's method on phi' = sqrt(2n) phi_{n-1} - x phi, with
        # phi'' = (x^2 - 2n - 1) phi, from the best point of the sup grid
        # until a step was below 1e-30: x* = 693.2000596067915519335621...
        want = mpmath.mpf("0.2268556445668074977502718054493784561456")
        assert abs(lp_norm_1d(240326, math.inf) - want) <= 1e-13 * want

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

    @pytest.mark.parametrize("p", [True, False, np.bool_(True), "2", "inf", None, 2 + 0j])
    def test_p_must_be_a_real_number(self, p):
        # float(True) is 1.0 and float("2") is 2.0: neither is taken for p
        for norms in (lp_norm_1d, lp_norms_1d):
            with pytest.raises(DomainError):
                norms(3, p)

    def test_exponent_past_the_double_range_refused(self):
        # 10^400 is a real exponent with no float to take it to
        for call in (lambda: lp_norm_1d(3, Fraction(10**400)), lambda: lp_norms_1d(3, 10**400),
                     lambda: norm_estimate(3, Fraction(10**400))):
            with pytest.raises(CapabilityError, match="double range"):
                call()

    def test_real_p_of_every_kind_is_taken(self):
        want = lp_norm_1d(3, 4.0)
        for p in (4, np.int64(4), np.float64(4.0), Fraction(4)):
            assert lp_norm_1d(3, p) == want
        assert lp_norm_1d(3, Fraction(4, 3)) == lp_norm_1d(3, 4 / 3)

    @pytest.mark.parametrize("degree,p", [
        (10**6, 4.0), (10**5, 6.0), (10**6, math.inf), (10**5, 1.0), (10**6, 2.5),
        (0, 1e12), (1, 1e300),
    ])
    def test_refused_before_any_work(self, degree, p):
        # degrees 0 and 1 cost no recurrence steps, but the pieces of so
        # large a p would hold 6e7 points and more
        start = time.perf_counter()
        with pytest.raises(CapabilityError):
            lp_norm_1d(degree, p)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("degree,p,route", [
        (34332, math.inf, "sup"), (16323, 4.0, "even"), (11616, 6.0, "even"),
        (27790, 2.0, "even"), (6255, 1.0, "zeros"),
    ])
    def test_largest_degrees_served_before_are_served(self, degree, p, route):
        # the largest degrees within the budget when scipy supplied the nodes;
        # p = 2 has left the grid for its exact value, with no work
        got, work = quad._route(degree, float(p))
        if p == 2.0:
            assert (got, work) == ("unit", 0.0) and lp_norm_1d(degree, p) == 1.0
            route, work = got, quad._even_work(degree, p)
        assert got == route and work <= quad.NORM_WORK_BUDGET

    @pytest.mark.parametrize("p,sweep,edge,route", [
        (4.0, False, 25870, "even"), (12.0, False, 15327, "even"), (14.0, False, 14222, "even"),
        (24.0, False, 10928, "even"), (100.0, False, 5381, "even"),
        (math.inf, False, 244081, "sup"), (1.0, False, 27790, "zeros"),
        (2.5, False, 8509, "panels"), (1000.0, False, 2199, "panels"),
        (1.0, True, 1254, "zeros"), (math.inf, True, 29641, "sup"),
        (4 / 3, True, 554, "panels"), (37.5, True, 350, "panels"),
        (4.0, True, 11802, "even"), (14.0, True, 6401, "even"), (16.0, True, 5991, "even"),
        (24.0, True, 4896, "even"), (100.0, True, 2388, "even"), (1e4, True, 220, "even"),
        (4e4, True, 118, "panels"), (1e5, True, 100, "panels"),
    ])
    def test_served_edge(self, p, sweep, edge, route):
        # the largest degree of a norm, or order of a sweep (its N + 1
        # norms), within the budget: each kernel call the route makes is
        # charged its top degree times (its points + 4096), and each row
        # power sum 4 point-steps a value.  Past the edge every route is
        # over the budget, and the refusal comes before any work
        rows = edge + 1 if sweep else 1
        got, work = quad._route(edge, p, rows)
        assert got == route and work <= quad.NORM_WORK_BUDGET
        start = time.perf_counter()
        with pytest.raises(CapabilityError):
            (lp_norms_1d if sweep else lp_norm_1d)(edge + 1, p)
        assert time.perf_counter() - start < 1.0

    def test_l2_norm_served_exactly_up_to_the_largest_degree(self):
        # the Hermite functions are orthonormal: ||phi_n||_2 = 1 with no
        # work, at every degree up to MAX_DEGREE_DEFAULT, at once (the grid
        # was refused past 35,565)
        for degree in (0, 1, 27790, 35565, 35566, quad.MAX_DEGREE_DEFAULT):
            assert quad._route(degree, 2.0) == ("unit", 0.0)
        start = time.perf_counter()
        assert quad._lp_norm_1d_cached.__wrapped__(quad.MAX_DEGREE_DEFAULT, 2.0) == 1.0
        assert lp_norm_1d(35566, 2.0) == 1.0
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("degree,p", [(8509, 2.5), (2199, 1000.0)])
    def test_panel_norm_at_the_served_edge(self, degree, p):
        # within Hoelder's ||phi||_inf^(1 - 2/p) ||phi||_2^(2/p)
        assert 0.0 < lp_norm_1d(degree, p) <= lp_norm_1d(degree, math.inf) ** (1 - 2 / p)

    def test_rule_at_the_p1_edge_takes_one_pass(self, monkeypatch):
        # degree 27790 at p = 1 needs the 27790-node rule, the largest a
        # route builds; the route's estimate counts one pass of it
        from scipy.special import roots_hermite as scipy_roots

        calls = _count_passes(monkeypatch)
        M = 27790
        y = quad.roots_hermite.__wrapped__(M)[0]
        assert calls == [M - M // 2]
        want = scipy_roots(M)[0][M // 2:]
        assert np.max(np.abs(y - want) / np.maximum(want, 1.0)) <= 5e-13

    @pytest.mark.parametrize("p", [math.inf, 1.0, 2.0, 4.0, 6.0, 2.5, 14.0, 100.0])
    def test_estimates_cover_the_work_done(self, monkeypatch, p):
        # a single norm's counted work (_count_work), its power sums too
        done, _ = _count_work(monkeypatch)
        for degree in list(range(0, 130)) + [401, 1606, 5000]:
            done.clear()
            quad.roots_hermite.cache_clear()
            quad._lp_norm_1d_cached.__wrapped__(degree, p)
            assert sum(done) <= quad._route(degree, p)[1], degree

    def test_large_even_p_takes_panels(self):
        # the grid's cost per n^2, about p / pi, passes the panels',
        # 12 ceil(sqrt(p) / 2) + 1/2, at p = 378: at p = 600 the grid is
        # cheaper only up to degree 50, where the step cost dominates
        for degree in (0, 1, 50):
            assert quad._route(degree, 600.0)[0] == "even"
        for degree in (51, 300, 2442):
            assert quad._route(degree, 600.0)[0] == "panels"
        for degree in (0, 1, 300, 5000, 14222):
            assert quad._route(degree, 14.0)[0] == "even"
            assert quad._route(degree, 12.0)[0] == "even"
        sup = lp_norm_1d(300, math.inf)
        # Hoelder: ||phi||_p <= ||phi||_inf^(1 - 2/p) ||phi||_2^(2/p)
        assert 0.99 * sup < lp_norm_1d(300, 600.0) <= sup ** (1 - 2 / 600)

    def test_route_by_cost(self):
        # the even grid would hold 27,383 points at degree 100
        assert quad._route(100, 600.0)[0] == "panels"
        start = time.perf_counter()
        got = lp_norm_1d(100, 600.0)
        assert time.perf_counter() - start < 0.5
        exact = quad._even_norm_1d([100], 600.0)[0]
        assert got == pytest.approx(exact, rel=5e-14)

    @pytest.mark.parametrize("degree,p", [
        (0, 14.0), (8, 14.0), (300, 14.0), (1000, 14.0), (3000, 14.0), (1000, 20.0),
        (200, 26.0), (1000, 100.0), (50, 600.0)])
    def test_even_p_moved_to_the_grid_keep_their_value(self, degree, p):
        # single even-p norms the route rule gives the grid, against the panels
        assert quad._route(degree, p)[0] == "even"
        panels = quad._panel_norm_1d([degree], p)[0]
        assert lp_norm_1d(degree, p) == pytest.approx(panels, rel=2e-14)

    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0, 10.0, 12.0])
    def test_common_even_p_keep_the_exact_rule(self, p):
        # every degree served, degree 0 among them, where both runs cost 0
        # point-steps and the grid's fewer points win; p = 2 by its exact
        # value, with no work, past the grid's edge too
        edge = {2.0: 35565, 4.0: 25870, 6.0: 21373, 8.0: 18633, 10.0: 16738, 12.0: 15327}[p]
        if p == 2.0:
            for degree in range(0, edge + 2):
                assert quad._route(degree, p) == ("unit", 0.0), degree
            return
        for degree in range(0, edge + 1):
            assert quad._route(degree, p)[0] == "even", degree
        assert quad._route(edge + 1, p)[1] > quad.NORM_WORK_BUDGET

    @pytest.mark.parametrize("degree", [0, 1, 2, 5, 20, 100, 400, 1600])
    def test_zero_route_matches_bisection(self, degree):
        # against the panel route, an independent quadrature
        assert quad._l1_norm_1d([degree])[0] == pytest.approx(
            quad._panel_norm_1d([degree], 1.0)[0], rel=2e-14)

    @pytest.mark.parametrize("degree", [3000, 10000])
    def test_zero_route_within_its_bounds_at_large_degree(self, degree):
        # Hoelder: 1 = ||phi||_2^2 <= ||phi||_inf ||phi||_1; Cauchy-Schwarz
        # against 1 + x^2 with int x^2 phi_n^2 = n + 1/2 gives the upper bound
        norm = lp_norm_1d(degree, 1.0)
        assert 1.0 / lp_norm_1d(degree, math.inf) <= norm <= math.sqrt(math.pi * (degree + 1.5))

    @pytest.mark.parametrize("degree,p", [(50, 1000.0), (50, 999.0), (300, 1000.0), (5, 2000.0)])
    def test_underflowing_power_keeps_the_norm(self, degree, p):
        # ||phi||_inf^p is below the double range; Hoelder interpolation with
        # ||phi||_2 = 1 gives ||phi||_4^(1/theta) <= ||phi||_p <= ||phi||_inf^(1 - 2/p)
        theta = (0.5 - 0.25) / (0.5 - 1.0 / p)
        norm = lp_norm_1d(degree, p)
        assert norm > 0.0
        assert lp_norm_1d(degree, 4.0) ** (1.0 / theta) <= norm
        assert norm <= lp_norm_1d(degree, math.inf) ** (1.0 - 2.0 / p)

    def test_norm_cache_is_bounded(self):
        # bounded, and large enough for the ~400 norms of an s_r_sum at N = 200
        assert 400 <= quad._lp_norm_1d_cached.cache_info().maxsize < 10**5

    @pytest.mark.parametrize("p", [2.5, 4.0])
    def test_norm_is_computed_once_whatever_the_tolerance(self, p):
        # no route reads tol, so the norm model's rho_k and lp_norm_1d share
        # one entry
        quad._lp_norm_1d_cached.cache_clear()
        first = lp_norm_1d(10, p, 1e-8)
        assert lp_norm_1d(10, p, 1e-12) == first
        assert norm_model(3, p, 10) == first
        assert quad._lp_norm_1d_cached.cache_info().misses == 1

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1 / 3, 0.5, 1.0, 1.5, 1.9])
    def test_kink_rule_matches_scipy(self, alpha):
        # scipy's rule for (1 + x)^alpha on [-1, 1], mapped to t = (1 + x) / 2
        from scipy.special import roots_jacobi

        x, w = roots_jacobi(quad._PANEL_NODES, 0.0, alpha)
        t, got = quad._kink_rule(alpha)
        assert np.max(np.abs(t - 0.5 * (1.0 + x))) <= 1e-15
        want = w * 2.0 ** -(alpha + 1.0)
        assert np.max(np.abs(got - want)) <= 2e-13 * want.sum()


class TestNormSweep:
    """lp_norms_1d: every even-p norm up to N from the grid of degree N."""

    @pytest.mark.parametrize("N", [0, 1, 2, 48, 49, 200, 1000])
    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0])
    def test_matches_per_degree_norms(self, p, N):
        # at N = 1000 a sample of degrees, and a wider bound: there each
        # route is itself ~7e-14 off a long-double evaluation on its rule
        sweep = lp_norms_1d(N, p)
        degrees = range(N + 1) if N <= 200 else sorted({*range(0, N + 1, 53), N - 1, N})
        rel = 1e-13 if N <= 200 else 2e-13
        for u in degrees:
            assert sweep[u] == pytest.approx(lp_norm_1d(u, p), rel=rel), u

    @pytest.mark.parametrize("N", [0, 1, 2, 48, 49, 200, 1000])
    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0, 14.0, 24.0, 100.0])
    def test_top_row_is_the_single_norm(self, p, N):
        assert lp_norms_1d(N, p)[N] == quad._lp_norm_1d_cached.__wrapped__(N, p)

    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0])
    def test_low_degrees_of_a_large_sweep_against_mpmath(self, p):
        sweep = lp_norms_1d(1000, p)
        for u in range(6):
            assert sweep[u] == pytest.approx(norm_oracle(u, p), rel=1e-13), u

    def test_l2_norms_stay_one(self):
        # the grid itself, which p = 2 no longer takes
        assert np.max(np.abs(np.array(quad._even_norm_1d(range(3000, -1, -1), 2.0)) - 1.0)) <= 3e-14

    def test_l2_sweep_served_exactly_up_to_the_largest_degree(self):
        # all ones with no work, where the grid's sweep was refused past 27,789
        for N in (0, 27790, quad.MAX_DEGREE_DEFAULT):
            assert quad._route(N, 2.0, N + 1) == ("unit", 0.0)
        start = time.perf_counter()
        norms = quad._lp_norms_1d_cached.__wrapped__(quad.MAX_DEGREE_DEFAULT, 2.0)
        assert time.perf_counter() - start < 1.0
        assert len(norms) == quad.MAX_DEGREE_DEFAULT + 1 and np.all(norms == 1.0)
        assert np.all(lp_norms_1d(27790, 2.0) == 1.0)

    @pytest.mark.parametrize("N,p", [(110, 6.0), (300, 6.0)])
    def test_even_sweep_against_the_same_rule_in_40_digits(self, N, p):
        # every degree against the trapezoid sum on the same grid points in
        # 40-digit mpmath, phi_u from the recurrence at that precision: the
        # norm is within 4e-15 of it (1.4e-14 at (300, 6) when the rows were
        # summed as exp(p (ln|mantissa| + log scale)))
        h, points = quad._even_grid(N, p)
        with mpmath.workdps(40):
            xs = [mpmath.mpf(float(x)) for x in h * np.arange(points)]
            weights = [mpmath.mpf(h)] + [2 * mpmath.mpf(h)] * (points - 1)
            prev = [mpmath.mpf(0)] * points
            cur = [mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-x * x / 2) for x in xs]
            want = []
            for u in range(N + 1):
                total = mpmath.fsum(w * v ** int(p) for w, v in zip(weights, cur))
                want.append(total ** (mpmath.mpf(1) / int(p)))
                c1 = mpmath.sqrt(mpmath.mpf(2) / (u + 1))
                c0 = mpmath.sqrt(mpmath.mpf(u) / (u + 1))
                prev, cur = cur, [x * c1 * a - c0 * b for x, a, b in zip(xs, cur, prev)]
            sweep = lp_norms_1d(N, p)
            errors = [abs(got / norm - 1) for got, norm in zip(sweep.tolist(), want)]
        assert max(errors) <= 4e-15, int(np.argmax(errors))

    def test_other_p_take_the_per_degree_norms(self):
        # p = 1, p = inf and the panels sweep.  Past N = 280 at p = 1 and
        # N = 267 for the panels a point of a sweep may be rescaled at
        # another step than in its own degree's run; every value is scaled
        # exactly in its rescale count, so each degree keeps its bits
        cases = [(3.0, 12), (4 / 3, 267), (4 / 3, 290), (999.5, 60)] + [
            (p, N) for p in (1.0, math.inf) for N in (0, 1, 2, 12, 280, 310)]
        for p, N in cases:
            assert lp_norms_1d(N, p).tolist() == [lp_norm_1d(u, p) for u in range(N + 1)], (p, N)

    @pytest.mark.parametrize("N,p", [(483, 1.0), (692, math.inf), (698, math.inf),
                                     (405, 4 / 3), (313, 37.5)])
    def test_sweeps_at_the_served_edges_match_per_degree_norms(self, N, p):
        # past N = 280 (267 for the panels) a point may be rescaled at
        # another step than in its own degree's run; the values are scaled
        # exactly in the rescale count, so every degree keeps its bits
        sweep = lp_norms_1d(N, p)
        for u in sorted({*range(0, N + 1, 3), N - 1, N}):
            assert sweep[u] == lp_norm_1d(u, p), u

    def test_rules_do_not_depend_on_a_sweep(self):
        # the p = 1 and panel norms, single or swept, refine their zeros
        # themselves and leave the rule cache alone
        def rules():
            return [tuple(a.tobytes() for a in quad.roots_hermite(u))
                    for u in (1, 2, 7, 48, 49, 60, 283, 300)]

        quad.roots_hermite.cache_clear()
        alone = rules()
        quad.roots_hermite.cache_clear()
        quad._lp_norms_1d_cached.__wrapped__(300, 1.0)
        for u in (0, 1, 2, 7, 49, 300):
            for p in (1.0, 4 / 3, 37.5):
                quad._lp_norm_1d_cached.__wrapped__(u, p)
        assert quad.roots_hermite.cache_info().currsize == 0
        assert rules() == alone

    def test_rules_without_positive_zeros_take_no_pass(self, monkeypatch):
        calls = _count_passes(monkeypatch)
        for rules in ([0], [1], [1, 0]):
            assert len(quad._halley_nodes(*quad._rule_guesses(rules))[0]) == 0
        assert calls == []

    def test_batched_nodes_are_each_rules_nodes(self):
        # a rescaling multiplies phi_M and phi_{M-1} by one power of two, so
        # the Halley steps, and the nodes, keep their bits at every degree
        rules = [700, 483, 300, 283, *range(120, -1, -1)]
        nodes = quad._halley_nodes(*quad._rule_guesses(rules))[0]
        parts = np.split(nodes, np.cumsum([u // 2 for u in rules])[:-1])
        for u, part in zip(rules, parts):
            alone = quad._halley_nodes(*quad._rule_guesses([u]))[0]
            assert np.array_equal(alone, part), u
            if u:
                assert np.array_equal(part, quad.roots_hermite(u)[0][u % 2:]), u

    def test_read_only_and_cached(self):
        a = lp_norms_1d(30, 4.0)
        with pytest.raises(ValueError):
            a[0] = 1.0
        assert lp_norms_1d(30, 4.0) is a
        assert 1 <= quad._lp_norms_1d_cached.cache_info().maxsize <= 64

    def test_refused_before_any_work(self):
        start = time.perf_counter()
        with pytest.raises(CapabilityError):
            lp_norms_1d(10**5, 4.0)
        # an even p whose grid step would be 0: refused by the point caps
        with pytest.raises(CapabilityError):
            lp_norms_1d(300, 1e308)
        with pytest.raises(DomainError):
            lp_norms_1d(-1, 4.0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("N,p", [(1000, 1.0), (699, math.inf)])
    def test_admitted_by_the_work_of_all_its_norms(self, N, p):
        # the sweep is charged the one run it makes over all N + 1 norms:
        # their single-norm estimates sum past the budget, the sweep's own
        # is within it, and it gives each norm's value
        single = quad._route.__wrapped__
        assert sum(single(n, p)[1] for n in range(N + 1)) > quad.NORM_WORK_BUDGET
        assert quad.check_budget(N, p, N + 1) == {1.0: "zeros", math.inf: "sup"}[p]
        sweep = lp_norms_1d(N, p)
        for u in (0, N // 2, N):
            assert sweep[u] == lp_norm_1d(u, p), u

    def test_sup_sweep_served_past_400(self):
        # one run at one point per nonzero degree, N (N + 4096) point-steps;
        # 699, where the per-degree sum stopped, is served too
        for N in (400, 698, 699):
            assert quad._route(N, math.inf, N + 1) == ("sup", N * (N + 4096))
            assert quad.check_budget(N, math.inf, N + 1) == "sup"

    def test_even_p_above_12_sweep_matches_the_panel_norms(self):
        sweep = lp_norms_1d(3000, 14.0)
        for u in [*range(0, 3000, 500), 2999, 3000]:
            panels = quad._panel_norm_1d([u], 14.0)[0]
            assert sweep[u] == pytest.approx(panels, rel=1e-13, abs=0), u

    @pytest.mark.parametrize("N,p,route", [
        (0, 1e4, "panels"), (53, 1e4, "panels"), (64, 1e4, "panels"), (65, 1e4, "even"),
        (220, 1e4, "even"),
        (100, 4e4, "panels"), (38, 1e5, "panels"), (0, 14.0, "even"), (1, 600.0, "even")])
    def test_even_sweep_takes_the_cheaper_route(self, N, p, route):
        # each route counted with its N + 1 row power sums: at p = 10^4 the
        # grid's run costs p / pi per n^2 of the top degree, the panels' runs
        # about 600 points a degree at the top degree each
        assert quad.check_budget(N, p, N + 1) == route

    def test_sweep_to_degree_zero_takes_the_single_norms_route(self):
        # a sweep to degree 0 is that one norm, one row and one estimate
        for p in (2.0, 14.0, 600.0, 3000.0, 1e4, 1e5):
            assert lp_norms_1d(0, p)[0] == lp_norm_1d(0, p), p

    def test_even_p_sweep_past_the_budget_takes_the_panels(self):
        # the grid of N = 100 at p = 10^5, 4.55 million points, is past the
        # point cap and the budget; the panels' per-degree sum is within it
        assert quad._even_work(100, 1e5, 101) > quad.NORM_WORK_BUDGET
        assert quad.check_budget(100, 1e5, 101) == "panels"

    @pytest.mark.parametrize("N,p", [(300, 4.0), (3000, 2.0), (60, 1.0), (60, math.inf),
                                     (483, 1.0), (60, 2.5), (300, 2.5), (100, 600.0),
                                     (100, 599.5), (60, 1e4), (50, 1e4)])
    def test_sweep_estimate_covers_the_work_done(self, monkeypatch, N, p):
        # the N + 1 norms' counted work (_count_work), by the one estimate
        # of the single norm's test with rows = N + 1
        done, kernels = _count_work(monkeypatch)
        for cache in (quad._lp_norm_1d_cached, quad.roots_hermite):
            cache.cache_clear()
        quad._lp_norms_1d_cached.__wrapped__(N, p)
        assert sum(done) <= quad._route(N, p, N + 1)[1]
        if p in (1.0, math.inf):
            # the sweep's own calls, one degree per point: the sup's one
            # run, or at most two node passes and one tail run
            assert kernels and all(kernels) and len(kernels) <= {1.0: 3, math.inf: 1}[p]

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_sweep_is_estimated_once_per_order_and_exponent(self, p):
        # s_r_sum admits a sweep and then asks lp_norms_1d for it, which
        # checks it again; the second check reuses the first estimate
        quad._route.cache_clear()
        quad._lp_norms_1d_cached.cache_clear()
        quad.check_budget(37, p, 38)
        quad.lp_norms_1d(37, p)
        info = quad._route.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_s_r_sum_does_not_depend_on_a_larger_order(self):
        from hermult.nuclearity import s_r_sum
        from hermult.spectral_ops import heat_symbol

        def fresh(N):
            for cache in (quad._lp_norms_1d_cached, quad._lp_norm_1d_cached, quad.roots_hermite):
                cache.cache_clear()
            return s_r_sum(heat_symbol(0.3), Fraction(4, 3), 6, 1, N=N)

        alone = fresh(40)
        fresh(80)
        after = s_r_sum(heat_symbol(0.3), Fraction(4, 3), 6, 1, N=40)
        assert after.partial_sum == alone.partial_sum
        assert after.tail_bound == alone.tail_bound

    def test_memory_is_bounded(self):
        # the whole (N + 1) x 5741 table of the grid would take about 175 MB
        tracemalloc.start()
        try:
            quad._lp_norms_1d_cached.__wrapped__(4000, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestOrthonormality:
    def test_gram_matrix_is_identity(self):
        rule = gauss_hermite_rule(60)
        effective = rule.weights * np.exp(rule.nodes ** 2)
        T = phi_table(rule.nodes, 50)
        G = (T * effective) @ T.T
        assert np.max(np.abs(G - np.eye(51))) < 1e-12


def old_double_exponent(p: float) -> float:
    """The float formula the exponent view was written as before the law."""
    if p < 4.0:
        return 1.0 / (2.0 * p) - 0.25
    if p == 4.0:
        return -0.125
    if math.isinf(p):
        return -1.0 / 12.0
    return -1.0 / (6.0 * p) - 1.0 / 12.0


class TestNormLaw:
    @pytest.mark.parametrize("p,law", [
        (1, (Fraction(1, 4), 0)),
        (2, (Fraction(0), 0)),
        (4, (Fraction(-1, 8), 1)),
        (6, (Fraction(-1, 9), 0)),
        (math.inf, (Fraction(-1, 12), 0)),
    ])
    def test_pinned_values(self, p, law):
        for q in (p, float(p), Fraction(p) if p != math.inf else p):
            got = norm_law(q)
            assert got == law
            assert all(type(v) is Fraction and type(v.numerator) is int for v in got)

    def test_exact_inputs(self):
        assert norm_law(Fraction(3, 2)) == (Fraction(1, 12), 0)
        assert norm_law(np.int64(6)) == norm_law(6)
        assert type(norm_law(np.int64(6))[0].numerator) is int
        # a float that is not the double nearest a small rational is taken
        # exactly, not snapped to one
        assert norm_law(0.1 + 3.9)[0] == Fraction(-1, 8)
        assert norm_law(4.000000000000001)[1] == 0
        for bad in (0.5, 0, -math.inf, math.nan):
            with pytest.raises(DomainError):
                norm_law(bad)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 5.0, 6.0, math.inf])
    def test_float_view_keeps_the_old_bits(self, p):
        assert norm_model_exponent(p) == old_double_exponent(p)

    @pytest.mark.parametrize("p", [1.25, 1.5, 2.5, 3.0, 8.0, 10.0])
    def test_float_view_is_correctly_rounded(self, p):
        # the old formula rounded two or three times: it was up to 1.6 ulps
        # off (at p = 2.5), and the view moves by at most 2 ulps from it
        got = norm_model_exponent(p)
        assert abs(Fraction(got) - norm_law(p)[0]) <= Fraction(math.ulp(got)) / 2
        assert abs(got - old_double_exponent(p)) <= 2 * math.ulp(got)


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

    def test_estimate_takes_the_float_exponent(self):
        # norm, model and regime all at float(p), which rounds to 4 here
        est = norm_estimate((20,), Fraction(4 * 10 ** 20 + 1, 10 ** 20))
        assert est == norm_estimate((20,), 4.0)
        assert est.regime == "eq4"

    @pytest.mark.parametrize("p,wrong", [
        (4.0, "super4"), (4.0, "sub4"), (math.nextafter(4.0, 5.0), "eq4"),
        (math.nextafter(4.0, 3.0), "eq4"), (math.inf, "eq4"), (1.0, "super4"),
    ])
    def test_wrong_regime_refused(self, p, wrong):
        right = norm_regime(p)
        assert NormEstimate(p=p, degree=3, computed=1.0, predicted=1.0, regime=right).regime == right
        with pytest.raises(DomainError):
            NormEstimate(p=p, degree=3, computed=1.0, predicted=1.0, regime=wrong)


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

    def test_log_fit_where_the_law_has_a_log(self):
        # the joint fit wherever lam(p) != 0, whatever type p has
        power = fit_norm_exponent_p4((100, 600), 8)[0]
        for p in (4, 4.0, Fraction(4), np.int64(4)):
            assert fit_norm_exponent(p, (100, 600), 8) == power

    def test_degenerate_fit_rejected(self):
        with pytest.raises(DomainError):
            fit_norm_exponent(2.0, (5, 2000), 10)
        with pytest.raises(DomainError):
            fit_norm_exponent(2.0, (100, 2000), 5)
        with pytest.raises(DomainError):
            fit_norm_exponent(2.0, (2000, 100), 10)

    def test_sample_count_must_be_an_integer(self):
        for bad in (8.5, True, "10"):
            with pytest.raises(DomainError, match="samples"):
                fit_norm_exponent(2.0, (100, 2000), samples=bad)
        assert fit_norm_exponent(2.0, (100, 600), np.int64(8)) == fit_norm_exponent(2.0, (100, 600), 8)
