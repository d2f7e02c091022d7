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
from hermult import _accel
from hermult._accel import (
    _COLUMN_POINTS, _at_degrees, _erfcx, _gauss, _log_scale, _recurrence, _to_floats, phi_pair,
    phi_row, phi_rows, phi_table, phi_tail,
)

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


RESCALE_LOG = 400.0 * math.log(2.0)


def loop_rows(x, degree, lowest=0):
    """(mantissas, log scales) of phi_lowest..phi_degree as the one loop
    (``_recurrence``) carries them, one row per degree, with the log scale
    formed from each row's rescale counts (``_log_scale``); the loop works
    in place, so each row is copied."""
    steps, counts, logs = [], None, None
    for _, cur, count, _ in _recurrence(x, degree, lowest):
        if count is not counts:
            counts, logs = count, _log_scale(x, count)
        steps.append((cur.copy(), logs))
    return np.array([cur for cur, _ in steps]), np.array([ls for _, ls in steps])


def pair_logs(x, degree):
    """phi_pair's mantissas with the log scale of their rescale counts."""
    prev, cur, count = phi_pair(x, degree)
    return prev, cur, _log_scale(x, count)


def tail_logs(x, degree):
    """phi_tail's mantissas (from _at_degrees) with the log scale of their
    rescale counts."""
    _, _, count, tail = _at_degrees(x, degree, tails=True)
    return tail, _log_scale(x, count)


def assert_power_of_two_apart(got, got_ls, want, want_ls):
    """got equals want times an exact 2^(400 d) at every entry, d read off
    the log scales of the two runs (nan-equal where a grid point is not
    finite)."""
    with np.errstate(invalid="ignore"):
        d = np.rint((want_ls - got_ls) / RESCALE_LOG)
    d = np.where(np.isfinite(d), d, 0.0).astype(np.int64)
    assert np.array_equal(got, np.ldexp(want, 400 * d), equal_nan=True)


def assert_exact_log_scales(x, got_ls, want_ls):
    """Where the reference has not rescaled a point (its log scale is still
    -0.5 x x), got_ls is bit-identical to it; elsewhere it is within 2 ulps
    of -x^2/2 + 400 j ln 2 in 50-digit mpmath, j the run's rescale count."""
    xs = np.broadcast_to(x, got_ls.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        ls0 = -0.5 * xs * xs
        fresh = want_ls == ls0
        assert np.array_equal(got_ls[fresh], want_ls[fresh])
        rest = ~fresh & np.isfinite(got_ls)
        j = np.rint((got_ls[rest] - ls0[rest]) / RESCALE_LOG)
    for xi, ji, li in set(zip(xs[rest].tolist(), j.tolist(), got_ls[rest].tolist())):
        exact = -mpmath.mpf(xi) ** 2 / 2 + 400 * int(ji) * mpmath.log(2)
        assert abs(mpmath.mpf(li) - exact) <= 2 * math.ulp(li), (xi, ji)


@pytest.mark.parametrize("points", [1, 65, 1600])
def test_in_place_loop_keeps_the_bits(points):
    # grids reaching far into the tails, where the upward rescaling runs.
    # No input is known on which the downward one runs: the mantissas start
    # at pi^(-1/4), an upward rescaling leaves a pair maximum above 1, and
    # for a fixed x the pair max(|phi_{k-1}|, |phi_k|) e^(x^2/2) grows up
    # to the turning point k ~ x^2/2 and then oscillates under an envelope
    # falling like k^(-1/4), never by anything near 2^400.  Grids of 600
    # points from 1e-320 to 1e307, run to degree 20,000, fired none.  The
    # loop rescales later than the reference, which tests every step, so
    # its mantissas are the reference's times exact powers of 2^400.
    x = np.linspace(-3.0, 70.0, points) if points > 1 else np.array([38.5])
    want = list(reference_recurrence(x, 1600))
    assert rescalings(want) == ({1: 2, 65: 153, 1600: 3713}[points], 0)
    want_rows = np.array([cur for _, cur, _ in want])
    want_logs = np.array([ls for _, _, ls in want])
    rows, logs = loop_rows(x, 1600)
    assert_power_of_two_apart(rows, logs, want_rows, want_logs)
    assert_exact_log_scales(x, logs, want_logs)
    for n in (0, 1, 2, 48, 49, 401, 1600):
        prev, cur, ls = pair_logs(x, n)
        assert_power_of_two_apart(prev, ls, want[n][0], want[n][2])
        assert_power_of_two_apart(cur, ls, want[n][1], want[n][2])
        assert_exact_log_scales(x, ls, want[n][2])
        # the last step is tested, so the pair ends inside [2^-400, 2^400]
        pair_max = np.maximum(np.abs(prev), np.abs(cur))
        assert np.all((2.0 ** -400 <= pair_max) & (pair_max <= 2.0 ** 400))
        count = phi_pair(x, n)[2]
        assert np.array_equal(phi_row(x, n), _to_floats(cur, _gauss(x), count))


def stacked_rows(x, degree, lowest=0):
    """phi_rows' blocks stacked into one array."""
    return np.concatenate([block.copy() for block in phi_rows(x, degree, lowest)])


def test_rows_are_the_table_in_plain_floats():
    # phi_rows and phi_table turn the loop's mantissas into plain floats
    # by the one stage, exact in the rescale count, so they agree bit for
    # bit across blocks and rescalings, and a value below the double range
    # is 0 in both
    x = np.arange(-24, 281) * 0.25
    for degree, lowest in ((1600, 0), (1600, 1200), (5000, 4990)):
        table = phi_table(x, degree)[lowest:]
        assert np.array_equal(stacked_rows(x, degree, lowest), table), (degree, lowest)


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
    # pair maximum to leave [2^-800, 2^800] (every step on a grid with a
    # non-finite or a huge point); the references run it at every step
    # the non-finite and huge grids make inf - inf on both sides
    with np.errstate(invalid="ignore", over="ignore"):
        want = list(reference_recurrence(x, 1200))
        for n in (0, 1, 2, 3, 401, 1200):
            prev, cur, ls = pair_logs(x, n)
            assert_power_of_two_apart(prev, ls, want[n][0], want[n][2])
            assert_power_of_two_apart(cur, ls, want[n][1], want[n][2])
            assert_exact_log_scales(x, ls, want[n][2])
        for degree, lowest in ((0, 0), (1, 0), (2, 0), (2, 2), (1200, 2), (1200, 7), (1200, 400)):
            got, logs = loop_rows(x, degree, lowest)
            want_logs = np.array([ls for _, _, ls in want[lowest:degree + 1]])
            assert_power_of_two_apart(got, logs, np.array([cur for _, cur, _ in want[lowest:degree + 1]]),
                                      want_logs)
            assert_exact_log_scales(x, logs, want_logs)
        xt = np.abs(x)
        tails = list(reference_tail(xt, 1200))
        for n in (0, 1, 2, 3, 401, 1200):
            tail, ls = tail_logs(xt, n)
            assert_power_of_two_apart(tail, ls, tails[n][0], tails[n][1])
            assert_exact_log_scales(xt, ls, tails[n][1])


def test_huge_points_have_zero_table_columns():
    # |phi_k(x)| is below the double range for every k <= nmax at these
    # points, which never enter the loop; the other columns keep their bits.
    # phi_k(x) -> 0 as |x| -> inf, so +-inf give the zero column too
    huge = np.array([1e20, -1e140, 1e150, 1e154, -1e200, 1e308, np.inf, -np.inf])
    x = np.array([0.5, 1e20, -1.0, -1e140, 1e150, np.inf, 1e154, -1e200, 1e308, -np.inf, 60.0])
    keep = np.isin(x, huge, invert=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nmax in (0, 1, 2, 40, 300):
            T = phi_table(x, nmax)
            assert np.all(T[:, ~keep] == 0.0) and not np.signbit(T[:, ~keep]).any()
            assert np.array_equal(T[:, keep], phi_table(x[keep], nmax)), nmax


@pytest.mark.parametrize("tails", [False, True])
def test_one_degree_per_point_reads_each_at_its_own_step(tails):
    # one run of the loop over points of mixed degrees, nonincreasing, with
    # the passed degrees cut off the loop: each point gets the reference's
    # mantissas at its own degree, and the int call's bits wherever neither
    # run rescales it (the far points are rescaled, see above).  The plain
    # floats are scaled exactly in the rescale count, so they keep the int
    # call's bits at every point
    rng = np.random.default_rng(5)
    x = rng.permutation(np.linspace(-3.0, 70.0, 130))
    x = np.abs(x) if tails else x
    degree = np.sort(rng.choice([0, 1, 2, 3, 48, 49, 401, 1600], len(x)))[::-1]
    degree[[0, -1]] = 1600, 0
    with pytest.raises(ValueError):
        (phi_tail if tails else phi_pair)(x, degree[::-1])
    plain = phi_tail if tails else phi_row
    values = plain(x, degree)
    plain_lone = {n: plain(x, n) for n in np.unique(degree).tolist()}
    assert values.tolist() == [plain_lone[n][i] for i, n in enumerate(degree.tolist())]
    if tails:
        want = list(reference_tail(x, 1600))
        got, ls = tail_logs(x, degree)
        lone = {n: tail_logs(x, n) for n in np.unique(degree).tolist()}
        for i, n in enumerate(degree.tolist()):
            assert_power_of_two_apart(got[i:i + 1], ls[i:i + 1], want[n][0][i:i + 1],
                                      want[n][1][i:i + 1])
            assert_exact_log_scales(x[i:i + 1], ls[i:i + 1], want[n][1][i:i + 1])
            if x[i] < 20.0:
                assert (got[i], ls[i]) == (lone[n][0][i], lone[n][1][i]), (x[i], n)
        return
    want = list(reference_recurrence(x, 1600))
    prev, cur, ls = pair_logs(x, degree)
    lone = {n: pair_logs(x, n) for n in np.unique(degree).tolist()}
    for i, n in enumerate(degree.tolist()):
        for got, j in ((prev, 0), (cur, 1)):
            assert_power_of_two_apart(got[i:i + 1], ls[i:i + 1], want[n][j][i:i + 1],
                                      want[n][2][i:i + 1])
        assert_exact_log_scales(x[i:i + 1], ls[i:i + 1], want[n][2][i:i + 1])
        if abs(x[i]) < 20.0:
            assert (prev[i], cur[i], ls[i]) == tuple(a[i] for a in lone[n]), (x[i], n)
    assert all(len(a) == 0 for a in phi_pair(np.array([]), np.array([], dtype=int)))


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
    # phi_table is the stacked phi_rows blocks bit for bit: the same loop
    # and the same scaling stage.  Past 37, where e^(-x^2/2) nears the
    # bottom of the double range (subnormal from 37.6, zero from 38.6),
    # each entry is checked against its mantissa times e^(-x^2/2) 2^(400 j)
    # in mpmath, from the exact -x^2/2
    far = np.flatnonzero(np.abs(x) > 37.0).tolist()
    for nmax in (0, 1, 2, 3, 401, 5000):
        got = phi_table(x, nmax)
        assert np.array_equal(got, stacked_rows(x, nmax)), nmax
        if not far:
            continue
        mantissas, logs = loop_rows(x, nmax)
        for k in sorted({min(k, nmax) for k in (1, 2, nmax)} | set(range(0, nmax, 97))):
            for i in far:
                j = round((logs[k, i] + 0.5 * x[i] * x[i]) / RESCALE_LOG)
                scale = -mpmath.mpf(x[i]) ** 2 / 2 + 400 * j * mpmath.log(2)
                want = mpmath.mpf(mantissas[k, i]) * mpmath.exp(scale)
                # one rounding to the double range, after at most 3 ulps
                tol = 4 * 2.0 ** -53 * abs(want) + 2.0 ** -1074
                assert abs(got[k, i] - want) <= tol, (nmax, k, x[i])


@pytest.mark.parametrize("x", [
    np.array([0.0]),
    np.array([-110.0]),
    np.array([0.0, 1e-300, -5e-324, 38.5]),
    np.linspace(36.0, 40.0, 41),
    np.linspace(-110.0, 110.0, 81),
    np.random.default_rng(7).uniform(-110.0, 110.0, 23),
], ids=["origin", "far", "tiny", "subnormal-seed", "wide-81", "random-23"])
def test_column_table_keeps_the_bits_of_the_loop(x):
    # the grids of test_table_on_the_one_loop_keeps_the_bits and points past
    # the Gaussian underflow.  Columns are independent, so the table of
    # each window of the points equals the matching columns of one table
    # on all of them padded past _COLUMN_POINTS, which the loop builds;
    # windows of _COLUMN_POINTS - 1 points are built point by point
    pts = np.concatenate((x, [38.5, 40.0, 60.0, 110.0, 1e20, 1e308, math.nan]))
    wide = np.concatenate((pts, np.linspace(-20.0, 20.0, _COLUMN_POINTS + 1)))
    for nmax in (0, 1, 2, 3, 401, 5000):
        loop = phi_table(wide, nmax)
        for size in (_COLUMN_POINTS - 1, _COLUMN_POINTS, _COLUMN_POINTS + 1):
            for start in range(0, len(pts), size):
                window = np.arange(start, start + size) % len(pts)
                got = phi_table(pts[window], nmax)
                assert np.array_equal(got, loop[:, window], equal_nan=True), (nmax, size, start)


def test_table_within_two_ulps_of_its_mantissas_at_degree_400():
    # phi_table scales each mantissa by e^(-x^2/2) 2^(400 j) from the exact
    # -x^2/2: every entry up to degree 400 is within 2 ulps of that product
    # in 40 digits (0.6 and 1.0 at most), where rounding -x^2/2 first put
    # them up to 50.9 ulps off at 30.3 and 297.6 at 36.1.  Against the
    # recurrence run in 40 digits the double recurrence's own rounding adds
    # to that: degree 400 is 11.1 and 4.6 ulps off there (42.1 and 215.6
    # when -x^2/2 was rounded first)
    for x in (30.3, 36.1):
        xm = mpmath.mpf(x)
        for grid in (np.array([x]), np.concatenate(([x], np.linspace(-3.0, 3.0, _COLUMN_POINTS)))):
            got = phi_table(grid, 400)[:, 0]
            mantissas, logs = loop_rows(grid, 400)
            for k in range(401):
                j = round((logs[k, 0] + 0.5 * x * x) / RESCALE_LOG)
                want = mpmath.mpf(mantissas[k, 0]) * mpmath.exp(-xm * xm / 2 + 400 * j * mpmath.log(2))
                assert abs(got[k] - want) <= 2 * math.ulp(float(want)), (x, len(grid), k)
        with mpmath.workdps(40):
            prev, cur = 0, mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-xm * xm / 2)
            for k in range(400):
                c1, c0 = mpmath.sqrt(mpmath.mpf(2) / (k + 1)), mpmath.sqrt(mpmath.mpf(k) / (k + 1))
                prev, cur = cur, xm * c1 * cur - c0 * prev
            assert abs(got[400] - cur) <= 12 * math.ulp(float(cur)), x


POINT_GRIDS = {
    "origin": np.array([0.0]),
    "far": np.array([60.0]),
    "tiny-and-far": np.array([0.0, 1e-300, 38.5, 40.0, 70.0, 110.0]),
    "random-17": np.random.default_rng(13).uniform(-80.0, 80.0, 17),
    "wide-23": np.linspace(-110.0, 110.0, 23),
    "wide-30": np.linspace(-100.0, 100.0, 30),
}


@pytest.mark.parametrize("tails", [False, True])
@pytest.mark.parametrize("x", POINT_GRIDS.values(), ids=POINT_GRIDS.keys())
def test_point_loop_keeps_the_bits_of_the_vector_loop(monkeypatch, x, tails):
    # _at_degrees runs fewer than _COLUMN_POINTS points in Python floats
    # and more on the numpy loop.  Run through each on the same points, at
    # an int degree and at one degree per point, the two give the same
    # mantissas and tails up to exact powers of two, with exact log scales;
    # the far points are rescaled many times
    x = np.abs(x) if tails else x
    per_point = np.sort(np.random.default_rng(len(x)).choice(
        [0, 1, 2, 3, 401, 1600, 5000], len(x)))[::-1]
    # and the plain floats, e^(-x^2/2) formed point by point or on numpy
    # alike, the same bits
    plain = phi_tail if tails else phi_row
    for degree in (0, 1, 2, 401, 5000, per_point):
        runs, values = [], []
        for size in (0, len(x) + 1):
            monkeypatch.setattr(_accel, "_COLUMN_POINTS", size)
            prev, cur, count, tail = _at_degrees(x, degree, tails)
            runs.append((prev, cur, _log_scale(x, count), tail))
            values.append(plain(x, degree))
        (prev, cur, ls, tail), (*vector, vector_tail) = runs
        assert_power_of_two_apart(prev, ls, vector[0], vector[2])
        assert_power_of_two_apart(cur, ls, vector[1], vector[2])
        assert_exact_log_scales(x, ls, vector[2])
        if tails:
            assert_power_of_two_apart(tail, ls, vector_tail, vector[2])
        else:
            assert tail is None and vector_tail is None
        assert np.array_equal(values[0], values[1])


# phi_n(x) to 40 digits, from the scaled recurrence in 60-digit mpmath with
# exact coefficients and no rescaling
SINGLE_POINTS = {
    (10**4, 50.0): "-0.06893230223493004288360973957696458059987",
    (10**4, 100.3): "-0.06316050660812269611365438309822588874156",
    (10**4, 141.0): "-0.1595847140630700591676160810710938083295",
    (10**4, 141.4): "0.219163613116594958069009991198497150151",
    (10**4, 160.0): "1.770650254431607582687534342825454885445e-399",
    (10**4, 200.0): "4.192050892663102719718732170083409753757e-2316",
    (10**5, 100.5): "-0.03559245012073280922201204252406722585852",
    (10**5, 300.25): "0.04382347886359785878930130844587202390004",
    (10**5, 447.0): "0.08381200963785022003702072716018433184062",
    (10**5, 447.2): "0.178389929132107052041760794800848239626",
    (10**5, 470.0): "3.796592658853468359169136684991242883235e-951",
    (10**5, 600.0): "4.335214003816845160969380269547333024401e-17169",
}


@pytest.mark.parametrize("n,x", SINGLE_POINTS.keys())
def test_single_points_at_high_degree(n, x):
    # eval_phi_1d and phi_row on one point run the recurrence in Python
    # floats: in the oscillatory region, near the turning point
    # sqrt(2n + 1) and deep in the tail.  The bound covers the recurrence's
    # rounding (at most 2.4e-13 here, as from the numpy loop) and, in the
    # tail, the log scale's, |ln phi| 2^-52
    want = mpmath.mpf(SINGLE_POINTS[n, x])
    tol = 3e-13 + abs(float(mpmath.log(abs(want)))) * 2.0 ** -52
    _, vals, logs = pair_logs(np.array([x]), n)
    row = mpmath.mpf(float(vals[0])) * mpmath.exp(float(logs[0]))
    for got in (as_mpf(eval_phi_1d(n, x)), row):
        assert abs(got / want - 1) <= tol, (n, x)
    # in the double range, the plain float too
    if abs(want) > 2.0 ** -1022:
        assert abs(phi_row(np.array([x]), n)[0] / want - 1) <= 3e-13, (n, x)


def test_table_past_the_gaussian_underflow():
    # e^(-x^2/2) is zero in doubles at these points, phi_k(x) is not
    for x in (39.0, 40.0):
        T = phi_table(np.array([x]), 1500)
        for k in (0, 1, 2, 100, 799, 800, 1000, 1500):
            _, v, count = phi_pair(np.array([x]), k)
            scale = -mpmath.mpf(x) ** 2 / 2 + 400 * int(count[0]) * mpmath.log(2)
            want = float(mpmath.mpf(v[0]) * mpmath.exp(scale))
            assert abs(T[k, 0] - want) <= 1e-13 * abs(want) + 2.0 ** -1074, (x, k)
    assert phi_table(np.array([40.0]), 1500)[800, 0] == pytest.approx(0.2513631, rel=1e-6)


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
    for ai, got in zip(a.tolist(), phi_tail(a, degree).tolist()):
        want = tail_oracle(degree, ai)
        assert abs(got - want) <= 1e-14 * max(abs(want), mpmath.mpf("1e-300")), (degree, ai)


def test_tail_integrals_far_out_stay_in_range():
    # J_0(40) = pi^-1/4 sqrt(pi/2) erfc(40/sqrt 2) is about e^-803.7, below
    # the double range: its mantissa is in range, and its plain float is 0
    mantissa, logs = tail_logs(np.array([40.0]), 0)
    want = mpmath.pi ** -0.25 * mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(40 / mpmath.sqrt(2))
    got = mpmath.mpf(mantissa[0]) * mpmath.exp(logs[0])
    assert abs(got - want) <= 1e-13 * want
    assert phi_tail(np.array([40.0]), 0)[0] == 0.0


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


@pytest.mark.parametrize("x", [1e120, 1e150, -1e150, 1e200, 1e308])
def test_eval_phi_1d_at_huge_points_is_zero(x):
    # one step of the recurrence would outgrow its rescaling; the value is
    # below the double range, and no numpy warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (0, 1, 2, 10, 1000):
            assert eval_phi_1d(n, x) == HermiteValue(0.0, None), n


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
