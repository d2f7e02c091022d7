"""Numeric kernels: the scaled Hermite recurrence and weighted power sums.

Every kernel is vectorized with numpy over the grid points and follows the
scaled three-term recurrence

    phi_{k+1}(x) = x*sqrt(2/(k+1))*phi_k(x) - sqrt(k/(k+1))*phi_{k-1}(x)

seeded with phi_0(x) = pi^(-1/4) * exp(-x^2/2).  Values are carried as
``mantissa * exp(log_scale)`` so the seed and the tails survive far
outside the range of plain doubles.  Rescaling multiplies by an exact
power of two, so it adds no rounding of its own.  Every kernel runs on the
one loop of ``_recurrence``: ``phi_tail`` carries the tail integrals
int_x^inf phi_k along it on the same scale, and ``phi_table`` turns its
rows into plain floats.

A point is rescaled when its pair maximum max(|phi_{k-1}|, |phi_k|), in
mantissas, leaves [2^-400, 2^400].  With a = max |x| over the grid,
c1 = sqrt(2/(k+1)) and c0 = sqrt(k/(k+1)), step k maps a pair maximum mk
to at most mk * max(1, a c1 + c0) and to at least mk * c0 / (1 + a c1).
The range test runs only on steps where these two growth bounds allow a
crossing; on the others it could not fire, so every rescaling, and every
bit, is that of a test at every step.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

_PI_QUARTER = math.pi ** (-0.25)

# Rescale by 2^400 so mantissa adjustments are exact.
_RESCALE = 2.0 ** 400
_RESCALE_INV = 2.0 ** -400
_RESCALE_LOG = 400.0 * math.log(2.0)

# The range test is skipped on steps where the growth bounds keep every pair
# maximum inside [2^-_LIMIT, 2^_LIMIT]; the bit to 400 covers their rounding.
_LIMIT = 399.0

# On a grid with max |x| below this, one step grows a value by less than
# 2^399, so after the range test every value is at most 2^400.
_BOUNDED_BELOW = 2.0 ** 398

# Steps whose coefficients and bounds are built at once (0.5 MB of lists).
_CHUNK = 1 << 14

# ln of a bound on |phi| below which the value is a zero double: e^-745.13
# is half the smallest subnormal, and the rest covers rounding.
_VANISH_BELOW = -750.0

# Below this largest exponent every term of a power sum is factored by it.
_SHIFT_BELOW = -700.0

# erfc(t) e^(t^2) is summed as a series from here on; math.erfc(26) is
# 5.7e-296, near the bottom of the double range.
_ERFCX_SERIES_FROM = 26.0

# Values in one block of phi_rows: 1 MB per array.
_BLOCK_POINTS = 1 << 17


def _erfcx(t):
    """erfc(t) * e^(t^2) for an array t >= 0, to a few units in the last place.

    Below _ERFCX_SERIES_FROM the product is formed from math.erfc and
    e^(t^2), with t^2 split into two doubles so that its rounding, up to
    t^2 * 2^-53 relative, does not reach the exponential.  From there on
    erfc(t) nears the bottom of the double range and the asymptotic series
    sum_k (-1)^k (2k - 1)!! / (2 t^2)^k / (t sqrt(pi)) takes over, summed
    for k <= 8; the first term left out is below 3e-21 there.
    """
    out = np.empty(t.shape)
    near = t < _ERFCX_SERIES_FROM
    tn = t[near]
    # t^2 = hi + lo exactly (Dekker's product)
    hi = tn * tn
    c = 134217729.0 * tn
    th = c - (c - tn)
    tl = tn - th
    lo = ((th * th - hi) + 2.0 * th * tl) + tl * tl
    erfc = np.fromiter(map(math.erfc, tn.tolist()), float, len(tn))
    out[near] = erfc * np.exp(hi) * (1.0 + lo)
    tf = t[~near]
    r = 0.5 / (tf * tf)
    s = np.ones(tf.shape)
    for k in range(8, 0, -1):
        s = 1.0 - (2 * k - 1) * r * s
    out[~near] = s / (math.sqrt(math.pi) * tf)
    return out


def _range_test(v0, v1, ls, j0, j1, m, buf, down):
    """Rescale the points whose pair maximum max(|v0|, |v1|) left [2^-400, 2^400].

    The upper bound is always tested, the lower one when down is set.
    Without down, every |v0| must be known to be at most 2^400, so that
    |v1| alone decides the upper test.  Returns the new (v0, v1, ls, j0,
    j1), the largest of the values tested (|v1|, or the pair maxima with
    down) and the smallest pair maximum (None without down), both taken
    after the rescaling, and whether any point was rescaled.
    """
    np.abs(v1, out=m)
    if down:
        np.abs(v0, out=buf)
        np.maximum(m, buf, out=m)
    top = m.max()
    bottom = m.min() if down else None
    rescaled = False
    # the masks are formed only when a bound is crossed (or m holds a nan)
    if not top <= _RESCALE:
        big = m > _RESCALE
        if big.any():
            rescaled = True
            v0 = np.where(big, v0 * _RESCALE_INV, v0)
            v1 = np.where(big, v1 * _RESCALE_INV, v1)
            ls = np.where(big, ls + _RESCALE_LOG, ls)
            if j0 is not None:
                j0 = np.where(big, j0 * _RESCALE_INV, j0)
                j1 = np.where(big, j1 * _RESCALE_INV, j1)
    if down and not bottom >= _RESCALE_INV:
        small = (m > 0.0) & (m < _RESCALE_INV)
        if small.any():
            rescaled = True
            v0 = np.where(small, v0 * _RESCALE, v0)
            v1 = np.where(small, v1 * _RESCALE, v1)
            ls = np.where(small, ls - _RESCALE_LOG, ls)
            if j0 is not None:
                j0 = np.where(small, j0 * _RESCALE, j0)
                j1 = np.where(small, j1 * _RESCALE, j1)
    if rescaled:
        np.abs(v1, out=m)
        if down:
            np.abs(v0, out=buf)
            np.maximum(m, buf, out=m)
            bottom = m.min()
        top = m.max()
    return v0, v1, ls, j0, j1, top, bottom, rescaled


def _recurrence(x, degree, lowest, tails=False):
    """Yield (previous, current, log_scale, tail) for current = phi_lowest, ..., phi_degree.

    The represented values are previous * exp(log_scale) and
    current * exp(log_scale), and phi_{-1} = 0.  tail is None unless
    tails is set; then it is the mantissa, on the same log scale, of the
    tail integral J_current(x) = int_x^inf phi_current for x >= 0.
    Integrating phi_k' = sqrt(k/2) phi_{k-1} - sqrt((k+1)/2) phi_{k+1}
    over [x, inf) gives

        J_{k+1} = sqrt(k/(k+1)) J_{k-1} + sqrt(2/(k+1)) phi_k(x),

    with the coefficients of the phi recurrence, from
    J_0 = pi^(-1/4) sqrt(pi/2) erfc(x/sqrt(2)) and J_1 = sqrt(2) phi_0(x).
    sqrt(k/(k+1)) < 1, so the tail recurrence is stable, and it is
    rescaled with phi, so it shares phi's range.

    The range test (``_range_test``) runs at the first step of each chunk
    of _CHUNK steps and then only where the growth bounds of the module
    docstring allow a crossing: after each test, cumulative sums of log2
    of the bounds give the first step at which the largest pair maximum
    could pass 2^_LIMIT or the smallest fall below 2^-_LIMIT, and the
    steps before it skip the test.  The upper and lower tests keep their
    own next step.  While only the upper one is due, every |phi_k| is
    known to be at most 2^400, so |phi_{k+1}| alone decides it.  A grid
    with a non-finite point or max |x| >= _BOUNDED_BELOW is tested at
    every step, and so, from the moment it appears, is a grid where some
    pair maximum is 0.

    The loop works in place: a yielded tuple is valid until the next step.
    """
    ls = -0.5 * x * x
    v0 = np.full(x.shape, _PI_QUARTER)
    j0 = j1 = None
    if tails:
        j0 = (_PI_QUARTER * math.sqrt(0.5 * math.pi)) * _erfcx(math.sqrt(0.5) * x)
        j1 = math.sqrt(2.0) * v0
    if lowest == 0:
        yield np.zeros(x.shape), v0, ls, j0
    if degree == 0:
        return
    v1 = x * math.sqrt(2.0) * v0
    if lowest <= 1:
        yield v0, v1, ls, j1
    buf = np.empty(x.shape)
    m = np.empty(x.shape)
    a = float(np.max(np.abs(x))) if x.size else 0.0
    # False for a non-finite point, and for points so large that one step
    # could carry a value past the test's reach (then every step is tested)
    bounded = a < _BOUNDED_BELOW
    for start in range(1, degree, _CHUNK):
        ks = np.arange(start, min(start + _CHUNK, degree), dtype=float)
        c1s = np.sqrt(2.0 / (ks + 1.0))
        c0s = np.sqrt(ks / (ks + 1.0))
        # the range test of the chunk's first step always runs
        up_at = down_at = start if x.size else degree
        if bounded:
            # bits a pair maximum can gain (grow) or lose (shrink) by the
            # end of each step of the chunk
            grow = np.cumsum(np.log2(np.maximum(1.0, a * c1s + c0s))).tolist()
            shrink = np.cumsum(np.log2((1.0 + a * c1s) / c0s)).tolist()
        for k, c1, c0 in zip(range(start, degree), c1s.tolist(), c0s.tolist()):
            # phi_{k+1} = x c1 phi_k - c0 phi_{k-1}, written over phi_{k-1}
            np.multiply(x, c1, out=buf)
            buf *= v1
            v0 *= c0
            np.subtract(buf, v0, out=v0)
            if tails:
                j0 *= c0
                np.multiply(v1, c1, out=buf)
                j0 += buf
                j0, j1 = j1, j0
            v0, v1 = v1, v0
            if k >= up_at or k >= down_at:
                down = k >= down_at or not bounded
                v0, v1, ls, j0, j1, top, bottom, rescaled = _range_test(
                    v0, v1, ls, j0, j1, m, buf, down)
                if bounded:
                    i = k - start
                    # log2 of the largest |phi_{k+1}| (pair maximum with down)
                    top = math.log2(top) if top > 0.0 else -math.inf
                    # log2 bound on the largest pair maximum: without down,
                    # |phi_k| is bounded by the last step's test or else by
                    # the growth bound on the pair maxima of the last step
                    high = top
                    if not down:
                        high = max(top, last_top if last_at == k - 1 else high_base + grow[i - 1])
                    last_top, last_at = top, k
                    # bound at step k + j: high_base + grow[i + j]
                    high_base = high - grow[i]
                    up_at = max(k + 1, start + bisect_right(grow, _LIMIT - high_base))
                    if down:
                        # a pair maximum of 0 stays 0; low_base is nan then,
                        # and the lower test runs at every step
                        low = math.log2(bottom) if bottom > 0.0 else math.nan
                        low_base = low + shrink[i]
                    elif rescaled:
                        # a point rescaled down keeps a pair maximum above 1
                        low_base = min(low_base, shrink[i])
                    if down or rescaled:
                        # bound at step k + j: low_base - shrink[i + j]
                        down_at = k + 1
                        if not math.isnan(low_base):
                            down_at = max(k + 1, start + bisect_right(shrink, low_base + _LIMIT))
            if k >= lowest - 1:
                yield v0, v1, ls, j1


def phi_pair(x, degree):
    """phi_{degree-1} and phi_degree on the grid x, on one log scale.

    Returns (previous, current, log_scale) arrays; the represented values
    are previous * exp(log_scale) and current * exp(log_scale), and
    phi_{-1} = 0.
    """
    ((prev, cur, ls, _),) = _recurrence(x, degree, degree)
    return prev, cur, ls


def phi_tail(x, degree):
    """Tail integrals J_degree(x) = int_x^inf phi_degree on the grid x >= 0.

    Returns (mantissa, log_scale) arrays; the represented value is
    mantissa * exp(log_scale).
    """
    ((_, _, ls, tail),) = _recurrence(x, degree, degree, tails=True)
    return tail, ls


def phi_rows(x, degree, lowest=0):
    """Rows phi_lowest, ..., phi_degree on the grid x, in blocks.

    Yields (mantissas, log_scales) arrays of shape (rows, len(x)), one row
    per degree in increasing order, with at most _BLOCK_POINTS values per
    block (one row when a row is longer), so memory stays bounded whatever
    the degree.  The block arrays are reused: consume each before asking
    for the next.
    """
    rows = min(max(1, _BLOCK_POINTS // max(len(x), 1)), degree - lowest + 1)
    vals = np.empty((rows, len(x)))
    logs = np.empty((rows, len(x)))
    i = 0
    for u, (_, v, ls, _) in enumerate(_recurrence(x, degree, lowest), lowest):
        vals[i] = v
        logs[i] = ls
        i += 1
        if i == rows or u == degree:
            yield vals[:i], logs[:i]
            i = 0


def phi_row(x, degree):
    """Scaled Hermite-function row: values of phi_degree on the grid x.

    Returns (mantissa, log_scale) arrays; the represented value is
    mantissa * exp(log_scale).
    """
    _, v, ls = phi_pair(x, degree)
    return v, ls


def _vanishing(x, nmax):
    """Mask of the points where |phi_k(x)| is below the double range for every k <= nmax.

    A step of the recurrence multiplies max(|phi_{k-1}|, |phi_k|) by at
    most max(1, |x| c1 + c0), with c1 = sqrt(2/(k+1)) and
    c0 = sqrt(k/(k+1)), and the first step (c1 = sqrt(2), c0 = 0) starts
    from phi_0 = pi^(-1/4) e^(-x^2/2).  The bound grows with k, so a point
    is marked when its log at k = nmax is below _VANISH_BELOW.  e^(-x^2/2)
    alone is above e^-722 for |x| <= 38, so only larger points are summed.
    """
    ax = np.abs(x)
    out = ax > 38.0
    if out.any():
        i = np.arange(nmax, dtype=float)
        c1 = np.sqrt(2.0 / (i + 1.0))
        c0 = np.sqrt(i / (i + 1.0))
        for j in np.flatnonzero(out).tolist():
            t = float(ax[j])
            # ln(t c1 + c0) as ln t + ln(c1 + c0/t), finite for every finite t
            growth = float(np.maximum(0.0, np.log(c1 + c0 / t) + math.log(t)).sum())
            out[j] = -0.5 * t * t + math.log(_PI_QUARTER) + growth < _VANISH_BELOW
    return out


def phi_table(x, nmax):
    """Plain-float table out[k, i] = phi_k(x_i) for k = 0..nmax.

    Each row is the mantissa times exp(log_scale) as a plain float.  The
    loop only ever rescales by 2^(+-400), so that factor is exactly
    e^(-x^2/2) * 2^(400 j) with j the net count of rescalings, rebuilt when
    the loop rebinds log_scale, which it does only on a rescale.  From
    degree 2 on, points whose log_scale is at most -700 take the log form
    instead, where that factor would have left the double range.  Entries
    whose true magnitude is below the double range come out as exact zeros,
    and so do the columns of the points that _vanishing finds, which never
    enter the loop.
    """
    gone = _vanishing(x, nmax)
    if gone.any():
        # each point is rescaled alone, so the other columns keep their bits
        out = np.zeros((nmax + 1, x.shape[0]))
        out[:, ~gone] = phi_table(x[~gone], nmax)
        return out
    out = np.empty((nmax + 1, x.shape[0]))
    ls0 = -0.5 * x * x
    e0 = np.exp(ls0)
    scale_of = es = deep = None
    for k, (_, v, ls, _) in enumerate(_recurrence(x, nmax, 0)):
        if ls is not scale_of:
            scale_of = ls
            with np.errstate(invalid="ignore"):
                j = np.rint((ls - ls0) / _RESCALE_LOG)
            # a non-finite point has a nan row whatever its scale
            j = np.where(np.isfinite(j), j, 0.0).astype(np.int64)
            es = np.ldexp(e0, 400 * j)
            deep = ls <= -700.0
            if not deep.any():
                deep = None
        row = out[k]
        np.multiply(v, es, out=row)
        if k >= 2 and deep is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.log(np.abs(v)) + ls
                alt = np.where(t > -745.0, np.copysign(np.exp(np.maximum(t, -745.0)), v), 0.0)
            alt = np.where(v == 0.0, 0.0, alt)
            np.copyto(row, alt, where=deep)
    return out


def weighted_abs_power_sum(vals, logs, weights, p):
    """Sums of weights[i] * |vals[..., i] * exp(logs[..., i])|^p as (total, shift).

    The sums run over the last axis; a 1-d input gives floats, a block of
    rows (one per degree) arrays with one entry per row.  A sum is
    total * exp(shift).  shift is 0.0 unless the row's largest exponent
    p * ln|value| is below -700, where every term would underflow; then
    that exponent is factored out of the row's terms, so a p-th root taken
    as total^(1/p) * exp(shift/p) stays in range.  Terms more than 745
    below the shift are dropped.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.log(np.abs(vals))
        t += logs
        t *= p
    top = np.max(t, axis=-1, keepdims=True)
    shift = np.where((top > -math.inf) & (top < _SHIFT_BELOW), top, 0.0)
    if shift.any():
        t -= shift
    # e^-inf = 0 drops a term exactly; zeros of vals are at -inf already
    np.copyto(t, -math.inf, where=~(t >= -745.0))
    np.exp(t, out=t)
    t *= weights
    total = np.sum(t, axis=-1)
    if t.ndim == 1:
        return float(total), float(shift[0])
    return total, shift[:, 0]
