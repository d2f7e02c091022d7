"""Core Hermite evaluation and lattice enumeration tests.

The independent oracle is mpmath at 50 digits: phi_k(x) computed from
the raw Hermite polynomial and the factorial normalization, which is
exactly the definition and shares nothing with the recurrence under
test.
"""

import math
import warnings
from itertools import product

import mpmath
import numpy as np
import pytest

from hermult import (
    CapabilityError,
    DomainError,
    HermiteValue,
    MultiIndex,
    count_level,
    count_up_to,
    enumerate_level,
    enumerate_up_to,
    eval_phi_1d,
    eval_phi_nd,
)
from hermult._accel import _erfcx, phi_pair, phi_row, phi_rows, phi_table, phi_tail

mpmath.mp.dps = 50


def phi_oracle(k, x):
    """Definition-level evaluation: H_k(x) e^{-x^2/2} / sqrt(2^k k! sqrt(pi))."""
    xm = mpmath.mpf(x)
    num = mpmath.hermite(k, xm) * mpmath.exp(-xm * xm / 2)
    den = mpmath.sqrt(mpmath.mpf(2) ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
    return num / den


def as_mpf(hv: HermiteValue):
    if hv.value == 0.0:
        return mpmath.mpf(0)
    return mpmath.mpf(hv.value) * mpmath.exp(mpmath.mpf(hv.log_scale or 0.0))


# frozen closed forms
PHI0_AT_0 = math.pi ** -0.25             # 0.7511255444649425
PHI2_AT_0 = -(2 ** -0.5) * math.pi ** -0.25  # -0.5311259660135984


def test_frozen_values_at_origin():
    assert eval_phi_1d(0, 0.0).to_float() == pytest.approx(PHI0_AT_0, rel=1e-14)
    assert eval_phi_1d(1, 0.0).to_float() == 0.0
    assert eval_phi_1d(2, 0.0).to_float() == pytest.approx(PHI2_AT_0, rel=1e-14)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 10, 37, 64, 121, 200])
def test_recurrence_matches_polynomial_oracle(degree):
    xs = np.linspace(-20.0, 20.0, 41)
    for x in xs:
        got = as_mpf(eval_phi_1d(degree, float(x)))
        want = phi_oracle(degree, float(x))
        if abs(want) > mpmath.mpf("1e-300"):
            assert abs(got - want) <= abs(want) * mpmath.mpf("1e-10"), (degree, x)


def test_deep_tail_is_log_scaled():
    hv = eval_phi_1d(0, 40.0)
    assert hv.log_scale is not None
    # ln phi_0(40) = -800 + ln(pi^-1/4)
    assert hv.log_magnitude() == pytest.approx(-800.0 + math.log(PHI0_AT_0), rel=1e-12)
    assert hv.to_float() == 0.0  # below double range once collapsed
    assert hv.sign == 1.0


def reference_recurrence(x, degree):
    """The scaled recurrence with fresh arrays and masks at every step, as
    _accel ran it before its loop went in place; yields (previous, current,
    log_scale) for degrees 0..degree."""
    R, RI, RL = 2.0 ** 400, 2.0 ** -400, 400.0 * math.log(2.0)
    ls = -0.5 * x * x
    v0 = np.full(x.shape, math.pi ** -0.25)
    yield np.zeros(x.shape), v0, ls
    if degree == 0:
        return
    v1 = x * math.sqrt(2.0) * v0
    yield v0, v1, ls
    for k in range(1, degree):
        c1 = math.sqrt(2.0 / (k + 1.0))
        c0 = math.sqrt(k / (k + 1.0))
        v0, v1 = v1, x * c1 * v1 - c0 * v0
        m = np.maximum(np.abs(v1), np.abs(v0))
        big = m > R
        if big.any():
            v0, v1, ls = (np.where(big, v0 * RI, v0), np.where(big, v1 * RI, v1),
                          np.where(big, ls + RL, ls))
        small = (m > 0.0) & (m < RI)
        if small.any():
            v0, v1, ls = (np.where(small, v0 * R, v0), np.where(small, v1 * R, v1),
                          np.where(small, ls - RL, ls))
        yield v0, v1, ls


def rescalings(want):
    """Point rescalings (upward, downward) in a run of reference_recurrence,
    read off the steps of its log scales."""
    logs = [ls for _, _, ls in want]
    up = sum(int(np.sum(b > a)) for a, b in zip(logs, logs[1:]))
    down = sum(int(np.sum(b < a)) for a, b in zip(logs, logs[1:]))
    return up, down


@pytest.mark.parametrize("points", [1, 65, 1600])
def test_in_place_loop_keeps_the_bits(points):
    # grids reaching far into the tails, where the upward rescaling runs.
    # No input is known on which the downward one runs: the mantissas start
    # at pi^(-1/4), an upward rescaling leaves a pair maximum above 1, and
    # for a fixed x the pair max(|phi_{k-1}|, |phi_k|) e^(x^2/2) grows up
    # to the turning point k ~ x^2/2 and then oscillates under an envelope
    # falling like k^(-1/4), never by anything near 2^400.  Grids of 600
    # points from 1e-320 to 1e307, run to degree 20,000, fired none.
    x = np.linspace(-3.0, 70.0, points) if points > 1 else np.array([38.5])
    want = list(reference_recurrence(x, 1600))
    assert rescalings(want) == ({1: 2, 65: 153, 1600: 3713}[points], 0)
    # phi_rows reuses its block arrays, so each block is copied
    blocks = [(vals.copy(), ls.copy()) for vals, ls in phi_rows(x, 1600)]
    rows = np.concatenate([vals for vals, _ in blocks])
    logs = np.concatenate([ls for _, ls in blocks])
    assert np.array_equal(rows, np.array([cur for _, cur, _ in want]))
    assert np.array_equal(logs, np.array([ls for _, _, ls in want]))
    for n in (0, 1, 2, 48, 49, 401, 1600):
        prev, cur, ls = phi_pair(x, n)
        assert np.array_equal(prev, want[n][0]) and np.array_equal(cur, want[n][1])
        assert np.array_equal(ls, want[n][2])
        vals, row_ls = phi_row(x, n)
        assert np.array_equal(vals, want[n][1]) and np.array_equal(row_ls, want[n][2])


def reference_tail(x, degree):
    """phi_tail's loop with the range test at every step, beside
    reference_recurrence; yields (tail, log_scale) for degrees 0..degree."""
    R, RI, RL = 2.0 ** 400, 2.0 ** -400, 400.0 * math.log(2.0)
    ls = -0.5 * x * x
    v0 = np.full(x.shape, math.pi ** -0.25)
    j0 = (math.pi ** -0.25 * math.sqrt(0.5 * math.pi)) * _erfcx(math.sqrt(0.5) * x)
    j1 = math.sqrt(2.0) * v0
    yield j0, ls
    if degree == 0:
        return
    v1 = x * math.sqrt(2.0) * v0
    yield j1, ls
    for k in range(1, degree):
        c1 = math.sqrt(2.0 / (k + 1.0))
        c0 = math.sqrt(k / (k + 1.0))
        v0, v1 = v1, x * c1 * v1 - c0 * v0
        j0, j1 = j1, j0 * c0 + v0 * c1
        m = np.maximum(np.abs(v1), np.abs(v0))
        for mask, f, dl in ((m > R, RI, RL), ((m > 0.0) & (m < RI), R, -RL)):
            if mask.any():
                v0, v1 = np.where(mask, v0 * f, v0), np.where(mask, v1 * f, v1)
                j0, j1 = np.where(mask, j0 * f, j0), np.where(mask, j1 * f, j1)
                ls = np.where(mask, ls + dl, ls)
        yield j1, ls


SKIP_GRIDS = {
    "empty": np.array([]),
    "nan": np.array([0.5, np.nan, 60.0, -1.0]),
    "inf": np.array([np.inf, -2.0, 45.0, -np.inf]),
    # one step can carry a value past the test's reach
    "huge": np.array([1e130, -30.0, 0.5]),
    "tiny-and-far": np.array([1e-300, -5e-324, 0.0, 70.0, -85.0, 1e-310, 120.0]),
    "random-9": np.random.default_rng(11).uniform(-40.0, 40.0, 9),
}


@pytest.mark.parametrize("x", SKIP_GRIDS.values(), ids=SKIP_GRIDS.keys())
def test_skipped_range_tests_keep_the_bits(x):
    # the loop runs its range test only where the growth bounds allow a
    # rescaling (every step on a grid with a non-finite or a huge point);
    # the references run it at every step
    def same(a, b):
        return np.array_equal(a, b, equal_nan=True)

    # the non-finite and huge grids make inf - inf on both sides
    with np.errstate(invalid="ignore", over="ignore"):
        want = list(reference_recurrence(x, 1200))
        for n in (0, 1, 2, 3, 401, 1200):
            prev, cur, ls = phi_pair(x, n)
            assert same(prev, want[n][0]) and same(cur, want[n][1]) and same(ls, want[n][2]), n
        for degree, lowest in ((0, 0), (1, 0), (2, 0), (2, 2), (1200, 2), (1200, 7), (1200, 400)):
            rows = [(vals.copy(), ls.copy()) for vals, ls in phi_rows(x, degree, lowest)]
            got = np.concatenate([vals for vals, _ in rows])
            logs = np.concatenate([ls for _, ls in rows])
            assert same(got, np.array([cur for _, cur, _ in want[lowest:degree + 1]])), (degree, lowest)
            assert same(logs, np.array([ls for _, _, ls in want[lowest:degree + 1]])), (degree, lowest)
        xt = np.abs(x)
        tails = list(reference_tail(xt, 1200))
        for n in (0, 1, 2, 3, 401, 1200):
            tail, ls = phi_tail(xt, n)
            assert same(tail, tails[n][0]) and same(ls, tails[n][1]), n


def test_huge_points_have_zero_table_columns():
    # |phi_k(x)| is below the double range for every k <= nmax at these
    # points, which never enter the loop; the other columns keep their bits
    huge = np.array([1e20, -1e140, 1e150, 1e154, -1e200, 1e308])
    x = np.array([0.5, 1e20, -1.0, -1e140, 1e150, 1e154, -1e200, 1e308, 60.0])
    keep = np.isin(x, huge, invert=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nmax in (0, 1, 2, 40, 300):
            T = phi_table(x, nmax)
            assert np.all(T[:, ~keep] == 0.0) and not np.signbit(T[:, ~keep]).any()
            assert np.array_equal(T[:, keep], phi_table(x[keep], nmax)), nmax


def reference_table(x, nmax):
    """phi_table as it ran on its own loop, carrying exp(log_scale) along
    as es and multiplying it by 2^(+-400) at every rescaling."""
    R, RI, RL = 2.0 ** 400, 2.0 ** -400, 400.0 * math.log(2.0)
    out = np.empty((nmax + 1, x.shape[0]))
    ls = -0.5 * x * x
    es = np.exp(ls)
    v0 = np.full(x.shape, math.pi ** -0.25)
    out[0] = v0 * es
    if nmax == 0:
        return out
    v1 = x * math.sqrt(2.0) * v0
    out[1] = v1 * es
    for k in range(1, nmax):
        c1 = math.sqrt(2.0 / (k + 1.0))
        c0 = math.sqrt(k / (k + 1.0))
        v0, v1 = v1, x * c1 * v1 - c0 * v0
        m = np.maximum(np.abs(v1), np.abs(v0))
        big = m > R
        if big.any():
            v0, v1 = np.where(big, v0 * RI, v0), np.where(big, v1 * RI, v1)
            ls, es = np.where(big, ls + RL, ls), np.where(big, es * R, es)
        small = (m > 0.0) & (m < RI)
        if small.any():
            v0, v1 = np.where(small, v0 * R, v0), np.where(small, v1 * R, v1)
            ls, es = np.where(small, ls - RL, ls), np.where(small, es * RI, es)
        row = v1 * es
        deep = ls <= -700.0
        if deep.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.log(np.abs(v1)) + ls
                alt = np.where(t > -745.0, np.copysign(np.exp(np.maximum(t, -745.0)), v1), 0.0)
            alt = np.where(v1 == 0.0, 0.0, alt)
            row = np.where(deep, alt, row)
        out[k + 1] = row
    return out


@pytest.mark.parametrize("x", [
    np.array([0.0]),
    np.array([-110.0]),
    np.array([0.0, 1e-300, -5e-324, 38.5]),
    # e^(-x^2/2) is subnormal from 37.6 and zero from 38.6 on
    np.linspace(36.0, 40.0, 41),
    np.linspace(-110.0, 110.0, 81),
    np.random.default_rng(7).uniform(-110.0, 110.0, 23),
], ids=["origin", "far", "tiny", "subnormal-seed", "wide-81", "random-23"])
def test_table_on_the_one_loop_keeps_the_bits(x):
    for nmax in (0, 1, 2, 3, 401, 5000):
        assert np.array_equal(phi_table(x, nmax), reference_table(x, nmax)), nmax


def test_scaled_erfc_against_mpmath():
    # both sides of the switch to the asymptotic series at t = 26
    t = np.array([0.0, 1e-3, 0.5, 1.0, 3.7, 10.0, 25.99, 26.0, 26.5, 40.0, 1e3, 1e8])
    got = _erfcx(t)
    for ti, gi in zip(t.tolist(), got.tolist()):
        want = mpmath.erfc(ti) * mpmath.exp(mpmath.mpf(ti) ** 2)
        assert abs(gi - want) <= 4e-16 * want, ti


def tail_oracle(k, a):
    """int_a^inf phi_k from the definition, split at the zeros of H_k above a."""
    from scipy.special import roots_hermite

    zeros = roots_hermite(k)[0].tolist() if k else []
    pts = [a] + [z for z in zeros if z > a] + [a + 60.0]
    return mpmath.quad(lambda x: phi_oracle(k, x), pts)


@pytest.mark.parametrize("degree", [0, 1, 7, 24])
def test_tail_integrals_against_mpmath(degree):
    a = np.array([0.0, 0.3, 1.7, 4.2, 9.0])
    mantissa, logs = phi_tail(a, degree)
    for ai, m, ls in zip(a.tolist(), mantissa.tolist(), logs.tolist()):
        want = tail_oracle(degree, ai)
        got = mpmath.mpf(m) * mpmath.exp(ls)
        assert abs(got - want) <= 1e-14 * max(abs(want), mpmath.mpf("1e-300")), (degree, ai)


def test_tail_integrals_far_out_stay_in_range():
    # J_0(40) = pi^-1/4 sqrt(pi/2) erfc(40/sqrt 2) is about e^-803.7
    mantissa, logs = phi_tail(np.array([40.0]), 0)
    want = mpmath.pi ** -0.25 * mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(40 / mpmath.sqrt(2))
    got = mpmath.mpf(mantissa[0]) * mpmath.exp(logs[0])
    assert abs(got - want) <= 1e-13 * want


def test_log_scaled_agrees_with_oracle_far_out():
    want = phi_oracle(1000, 30.0)
    got = as_mpf(eval_phi_1d(1000, 30.0))
    assert abs(got - want) <= abs(want) * mpmath.mpf("1e-9")


def test_plain_representation_in_core_region():
    hv = eval_phi_1d(50, 1.25)
    assert hv.log_scale is None
    assert math.isfinite(hv.value)


@pytest.mark.parametrize("degree", [0, 1, 2, 7, 30, 111])
@pytest.mark.parametrize("x", [0.3, 1.7, 5.0, 13.2])
def test_symmetry(degree, x):
    left = eval_phi_1d(degree, -x)
    right = eval_phi_1d(degree, x)
    assert left.sign == (-1.0) ** degree * right.sign
    assert left.log_magnitude() == pytest.approx(right.log_magnitude(), abs=1e-12)


def test_scaled_by_multiplies_values_and_adds_log_scales():
    a = eval_phi_1d(0, 40.0)
    b = eval_phi_1d(0, 40.0)
    c = a.scaled_by(b)
    assert c.log_magnitude() == pytest.approx(a.log_magnitude() + b.log_magnitude(), rel=1e-12)


def test_eval_phi_1d_errors():
    with pytest.raises(DomainError):
        eval_phi_1d(-1, 0.0)
    with pytest.raises(DomainError):
        eval_phi_1d(2, math.nan)
    with pytest.raises(DomainError):
        eval_phi_1d(2, math.inf)
    with pytest.raises(CapabilityError):
        eval_phi_1d(11, 0.0, max_degree=10)


def test_eval_phi_nd_products():
    assert eval_phi_nd((0, 0), (0.0, 0.0)).to_float() == pytest.approx(math.pi ** -0.5, rel=1e-13)
    assert eval_phi_nd((1, 0), (0.0, 3.7)).to_float() == 0.0
    assert eval_phi_nd((2, 2), (0.0, 0.0)).to_float() == pytest.approx(0.5 * math.pi ** -0.5, rel=1e-13)
    # cross-check against the 1d factors at a generic point
    got = eval_phi_nd((3, 5, 2), (0.4, -1.1, 2.2)).to_float()
    want = (
        eval_phi_1d(3, 0.4).to_float()
        * eval_phi_1d(5, -1.1).to_float()
        * eval_phi_1d(2, 2.2).to_float()
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_eval_phi_nd_log_scaled_product():
    hv = eval_phi_nd((0, 0, 0), (40.0, 40.0, 40.0))
    assert hv.log_magnitude() == pytest.approx(3 * (-800.0 + math.log(PHI0_AT_0)), rel=1e-12)


def test_eval_phi_nd_dimension_mismatch():
    with pytest.raises(DomainError):
        eval_phi_nd((1, 2), (0.0, 0.0, 0.0))


def test_multi_index_validation_and_props():
    nu = MultiIndex((2, 0, 3))
    assert nu.order == 5
    assert nu.dimension == 3
    assert nu.eigenvalue() == 13
    with pytest.raises(DomainError):
        MultiIndex(())
    with pytest.raises(DomainError):
        MultiIndex((1, -2))


def test_enumerate_level_examples():
    assert [m.entries for m in enumerate_level(1, 5)] == [(5,)]
    assert [m.entries for m in enumerate_level(2, 3)] == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(enumerate_level(3, 2)) == 6


def brute_level(n, k):
    # the first n - 1 coordinates fix the last one, k minus their sum
    return sorted(head + (k - sum(head),) for head in product(range(k + 1), repeat=n - 1)
                  if sum(head) <= k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_level_matches_brute_force(n):
    for k in range(0, 31, 6):
        got = [m.entries for m in enumerate_level(n, k)]
        assert got == brute_level(n, k)
        assert len(got) == math.comb(k + n - 1, n - 1) == count_level(n, k)


def test_enumerate_up_to_counts_and_uniqueness():
    assert len(list(enumerate_up_to(1, 4))) == 5
    assert len(list(enumerate_up_to(2, 2))) == 6
    assert [m.entries for m in enumerate_up_to(3, 0)] == [(0, 0, 0)]
    for n, order in [(2, 7), (3, 5), (4, 4)]:
        seen = [m.entries for m in enumerate_up_to(n, order)]
        assert len(seen) == len(set(seen)) == math.comb(order + n, n) == count_up_to(n, order)
        assert all(sum(t) <= order for t in seen)
        # level-major, lexicographic within level
        key = [(sum(t), t) for t in seen]
        assert key == sorted(key)


def test_enumeration_errors():
    with pytest.raises(DomainError):
        enumerate_level(0, 3)
    with pytest.raises(DomainError):
        count_up_to(2, -1)
    with pytest.raises(CapabilityError):
        list(enumerate_up_to(8, 400))
