"""Numeric kernels: the scaled Hermite recurrence and weighted power sums.

Every kernel follows the scaled three-term recurrence

    phi_{k+1}(x) = x*sqrt(2/(k+1))*phi_k(x) - sqrt(k/(k+1))*phi_{k-1}(x)

seeded with phi_0(x) = pi^(-1/4) * exp(-x^2/2).  The recurrence runs on
mantissas seeded with pi^(-1/4), one loop (``_recurrence``) vectorized
with numpy over the grid points, and keeps an integer rescale count j per
point: a rescaling multiplies the point's mantissas by 2^-400 (j + 1) or
by 2^400 (j - 1), which is exact.  A mantissa m stands for
m e^(-x^2/2) 2^(400 j), so the seed and the tails survive far outside
the range of plain doubles, and m is the same number, up to an exact
power of two, whichever step rescales it.  The loop can carry the tail
integrals int_x^inf phi_k on the same scale, which ``phi_pair`` gives
beside phi for the Halley passes of the p = 1 norms; ``phi_pair`` and
``phi_row`` read each point at its own degree (``_at_degrees``).  On
fewer than _COLUMN_POINTS points, where numpy's
fixed cost per step outweighs its per-point speed, they and ``phi_table``
run the same steps point by point in Python floats instead
(``_column_loop``), with the same mantissas up to exact powers of two;
``phi_rows`` always takes the numpy loop, and ``phi_table`` on more
points is one block of it that holds every row.

One stage turns mantissas into plain floats (``_to_floats``).
e^(-x^2/2) = frac 2^E is formed once per grid from -x^2/2 in two doubles
(``_gauss``), and a mantissa of count j becomes m ldexp(frac, E + 400 j),
or ldexp(m frac, E + 400 j) where that factor is not a normal double.
The stage is exact in j, so a value does not depend on which step
rescaled its point.  ``phi_table``, ``phi_rows`` and ``phi_row`` give
plain floats through it.  ``phi_pair`` gives the mantissas and counts
themselves, for the Halley and Newton steps and for ``eval_phi_1d``; the
derivatives, tails, maxima and values formed from them leave through the
stage too.

The range test rescales the points whose pair maximum
max(|phi_{k-1}|, |phi_k|), in mantissas, has left [2^-400, 2^400].  With
a = max |x| over the grid, c1 = sqrt(2/(k+1)) and c0 = sqrt(k/(k+1)),
step k maps a pair maximum mk to at most mk * max(1, a c1 + c0) and to at
least mk * c0 / (1 + a c1).  After a test, these growth bounds put the
next one on the last step before a pair maximum could leave the wide
window [2^-800, 2^800], about 400 bits of headroom; inside it no pair
maximum overflows or turns subnormal, and one rescaling brings it back
into [2^-400, 2^400].  The node pass of roots_hermite(3177) runs the test
on 17 of its 3176 steps.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import islice

import numpy as np

_PI_QUARTER = math.pi ** (-0.25)

# Rescale by 2^400 so mantissa adjustments are exact.
_RESCALE_BITS = 400
_RESCALE = 2.0 ** _RESCALE_BITS
_RESCALE_INV = 2.0 ** -_RESCALE_BITS

# ln 2 = _LN2_HI + _LN2_LO to 2^-82; _LN2_HI has 26 significant bits, so
# its product with an integer below 2^27 is exact.
_LN2 = math.log(2.0)
_LN2_HI = 0.6931471824645996
_LN2_LO = -1.904654299957768e-09

# _gauss forms e^(-x^2/2) = frac 2^E from -x^2/2 down to this, where E,
# below 2^27 in size, times _LN2_HI is exact.  Past it (|x| > 11,585)
# phi_k(x) is below the double range for every k up to 6e6, since a step
# grows a value by at most 1.42 |x| + 1, and e^(-x^2/2) is taken as 0.
_GAUSS_FLOOR = -2.0 ** 26

# e^h is a normal double from h = -708 on (e^-708 is 3.3e-308).
_NORMAL_FROM = -708.0

# Between range tests the growth bounds keep every pair maximum inside
# [2^-_WIDE, 2^_WIDE]; the bit to 800 covers their rounding.
_WIDE = 799.0

# On a grid with max |x| below this, one step grows a value by less than
# 2^399, so the step after a range test stays inside the window.  Other
# grids, and grids with a non-finite point, are tested at every step.
_BOUNDED_BELOW = 2.0 ** 398

# Steps whose coefficients and bounds are built at once (0.5 MB of lists).
_CHUNK = 1 << 14

# ln of a bound on |phi| below which the value is a zero double: e^-745.13
# is half the smallest subnormal, and the rest covers rounding.
_VANISH_BELOW = -750.0

# erfc(t) e^(t^2) is summed as a series from here on; math.erfc(26) is
# 5.7e-296, near the bottom of the double range.
_ERFCX_SERIES_FROM = 26.0

# Values in one block of phi_rows: 1 MB per array.
_BLOCK_POINTS = 1 << 17

# phi_row runs a larger grid in pieces of this many points, so the loop's
# arrays stay in cache: lp_norms_1d(400, 3) took 0.65 s in runs of these
# and 1.2 s in runs of 2^18, and lp_norm_1d(2201, 1000), 444,756 points,
# 2.8 s in one run and 1.2-1.4 s in pieces (2 vCPUs).
_RUN_POINTS = 1 << 14

# _at_degrees cuts the passed points off the loop once those left are at
# most this share of the points it carries (shares from 0.5 to 1 ran within
# 10% of each other on sweeps of N = 30 to 692, 2 vCPUs).
_CUT_SHARE = 0.75

# The smallest normal double.
_TINY = 2.0 ** -1022

# _at_degrees and phi_table run fewer points than this point by point
# (_column_loop).  Measured on 2 vCPUs, that loop costs as much as the
# numpy one at about 18 points for phi_pair at degree 2 P (the Halley
# passes of a P-node half-rule), 20-24 for phi_pair at degrees 100-400
# and for phi_table, and 22-28 for phi_pair with tails.
_COLUMN_POINTS = 20


def _square(t):
    """t^2 as two doubles (hi, lo), hi = t * t rounded (Dekker's product).

    hi + lo is exact while t^2 and the parts of the split are normal
    doubles.
    """
    hi = t * t
    c = 134217729.0 * t
    th = c - (c - t)
    tl = t - th
    return hi, ((th * th - hi) + 2.0 * th * tl) + tl * tl


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
    hi, lo = _square(tn)
    erfc = np.fromiter(map(math.erfc, tn.tolist()), float, len(tn))
    out[near] = erfc * np.exp(hi) * (1.0 + lo)
    tf = t[~near]
    r = 0.5 / (tf * tf)
    s = np.ones(tf.shape)
    for k in range(8, 0, -1):
        s = 1.0 - (2 * k - 1) * r * s
    out[~near] = s / (math.sqrt(math.pi) * tf)
    return out


def _coefficients(start, stop):
    """The step coefficients c1 = sqrt(2/(k+1)) and c0 = sqrt(k/(k+1)) for
    k = start, ..., stop - 1, as two arrays."""
    ks = np.arange(start, stop, dtype=float)
    return np.sqrt(2.0 / (ks + 1.0)), np.sqrt(ks / (ks + 1.0))


def _range_test(v0, v1, count, t0, t1, m, buf):
    """Rescale the points whose pair maximum max(|v0|, |v1|) left [2^-400, 2^400].

    A pair maximum above 2^400 is multiplied by 2^-400 and one below
    2^-400 (but not 0) by 2^400, with v0, v1 and the tails t0, t1 (None
    unless tails are carried), in place.  Returns the rescale count (a new
    array when some point was rescaled, else count itself) and the largest
    and the smallest pair maximum after the rescaling.
    """
    np.abs(v0, out=m)
    np.abs(v1, out=buf)
    np.maximum(m, buf, out=m)
    top, bottom = m.max(), m.min()
    # the masks are formed only when a bound is crossed (or m holds a nan)
    if top <= _RESCALE and bottom >= _RESCALE_INV:
        return count, top, bottom
    up = m > _RESCALE
    down = (m > 0.0) & (m < _RESCALE_INV)
    if up.any() or down.any():
        factor = np.where(up, _RESCALE_INV, np.where(down, _RESCALE, 1.0))
        for arr in (v0, v1, m) if t0 is None else (v0, v1, m, t0, t1):
            arr *= factor
        count = count + up - down
    return count, m.max(), m.min()


def _recurrence(x, degree, lowest, tails=False, cuts=()):
    """Yield (previous, current, count, tail) for current = phi_lowest, ..., phi_degree.

    previous and current are mantissas, with phi_{-1} = 0, and count is
    the rescale count j of the module docstring, whole numbers held as
    doubles: a mantissa m stands for m e^(-x^2/2) 2^(400 j).  tail is None
    unless tails is set; then it is the mantissa, on the same scale, of the
    tail integral J_current(x) = int_x^inf phi_current for x >= 0.  Integrating
    phi_k' = sqrt(k/2) phi_{k-1} - sqrt((k+1)/2) phi_{k+1} over [x, inf)
    gives

        J_{k+1} = sqrt(k/(k+1)) J_{k-1} + sqrt(2/(k+1)) phi_k(x),

    with the coefficients of the phi recurrence, from
    J_0 = pi^(-1/4) sqrt(pi/2) erfc(x/sqrt(2)) and J_1 = sqrt(2) phi_0(x).
    sqrt(k/(k+1)) < 1, so the tail recurrence is stable, and it is
    rescaled with phi, so it shares phi's range.

    The range test (``_range_test``) runs at the first step of each chunk
    of _CHUNK steps.  After each test, cumulative sums of log2 of the
    growth bounds of the module docstring give the last step before the
    largest pair maximum could pass 2^_WIDE or the smallest fall below
    2^-_WIDE, and the next test runs there.  A grid with a non-finite
    point or max |x| >= _BOUNDED_BELOW is tested at every step.

    cuts, (step, n) pairs, drop points whose degree has passed: the loop
    step that forms phi_{step+1} and every later one carry only the first
    n points, and the yielded arrays have n entries.  A cut slices the
    loop's arrays between two steps and leaves the range tests where they
    were; without cuts each chunk's steps run as one run.

    The loop works in place: a yielded tuple is valid until the next step.
    """
    count = np.zeros(x.shape)
    v0 = np.full(x.shape, _PI_QUARTER)
    t0 = t1 = None
    if tails:
        t0 = (_PI_QUARTER * math.sqrt(0.5 * math.pi)) * _erfcx(math.sqrt(0.5) * x)
        t1 = math.sqrt(2.0) * v0
    if lowest == 0:
        yield np.zeros(x.shape), v0, count, t0
    if degree == 0:
        return
    v1 = x * math.sqrt(2.0) * v0
    if lowest <= 1:
        yield v0, v1, count, t1
    buf = np.empty(x.shape)
    m = np.empty(x.shape)
    a = float(np.max(np.abs(x))) if x.size else 0.0
    # False for a non-finite point, and for points so large that one step
    # could carry a value past the window
    bounded = a < _BOUNDED_BELOW
    sizes = dict(cuts)
    for start in range(1, degree, _CHUNK):
        stop = min(start + _CHUNK, degree)
        c1s, c0s = _coefficients(start, stop)
        test_at = start if x.size else degree
        if bounded:
            # bits a pair maximum can gain (grow) or lose (shrink) by the
            # end of each step of the chunk
            grow = np.cumsum(np.log2(np.maximum(1.0, a * c1s + c0s))).tolist()
            shrink = np.cumsum(np.log2((1.0 + a * c1s) / c0s)).tolist()
        c1s, c0s = c1s.tolist(), c0s.tolist()
        # the chunk's steps in runs between cuts, one run without them
        bounds = (start, stop)
        if sizes:
            bounds = (start, *sorted(k for k in sizes if start < k < stop), stop)
        for lo, hi in zip(bounds, bounds[1:]):
            if lo in sizes:
                n = sizes[lo]
                x, v0, v1, buf, m = x[:n], v0[:n], v1[:n], buf[:n], m[:n]
                count = count[:n]
                if tails:
                    t0, t1 = t0[:n], t1[:n]
            run = slice(lo - start, hi - start)
            for k, c1, c0 in zip(range(lo, hi), c1s[run], c0s[run]):
                # phi_{k+1} = x c1 phi_k - c0 phi_{k-1}, written over phi_{k-1}
                np.multiply(x, c1, out=buf)
                buf *= v1
                v0 *= c0
                np.subtract(buf, v0, out=v0)
                if tails:
                    t0 *= c0
                    np.multiply(v1, c1, out=buf)
                    t0 += buf
                    t0, t1 = t1, t0
                v0, v1 = v1, v0
                if k == test_at:
                    count, top, bottom = _range_test(v0, v1, count, t0, t1, m, buf)
                    test_at = k + 1
                    if bounded and bottom > 0.0:
                        # log2 bounds at chunk step s: high + grow[s] on the
                        # largest pair maximum, low - shrink[s] on the smallest;
                        # a grid with a pair maximum of 0 is tested at every step
                        i = k - start
                        high = math.log2(top) - grow[i]
                        low = math.log2(bottom) + shrink[i]
                        leave = min(bisect_right(grow, _WIDE - high),
                                    bisect_right(shrink, low + _WIDE))
                        test_at = max(k + 1, start + leave - 1) if leave < len(grow) else degree
                if k >= lowest - 1:
                    yield v0, v1, count, t1


def _at_degrees(x, degree, tails=False):
    """(previous, current, count, tail) arrays of each point at its own degree.

    degree is an int, the degree of every point, or an int ndarray with one
    degree per point, nonincreasing; previous and current are the
    mantissas of phi_{d-1}(x) and phi_d(x) at the point's degree d, count
    its rescale count, and tail is J_d(x) as ``_recurrence`` carries it
    (None unless tails is set).  Fewer than _COLUMN_POINTS points run
    point by point (_column_loop).  Otherwise one run of the loop serves
    every degree: it reads each degree's points at its own step and cuts
    the points whose degree has passed, the last ones, once they are a
    quarter of those it carries.  A point's values depend on its own x and
    degree alone, up to the rescalings, so the two loops give the same
    bits wherever no point is rescaled.
    """
    degree = np.broadcast_to(degree, x.shape)
    if (np.diff(degree) > 0).any():
        raise ValueError("the degrees of the points must not increase")
    if x.size < _COLUMN_POINTS:
        degrees = degree.tolist()
        state = _column_loop(x, degrees, tails=tails)[0]
        # at degree 0 the seeds phi_0 and J_0 are current, and phi_{-1} = 0
        rows = [(0.0, s[0], s[2], 0.0, s[3]) if d == 0 else s for s, d in zip(state, degrees)]
        prev, cur, count, _, tail = np.array(rows).reshape(-1, 5).T
        return prev, cur, count, tail if tails else None
    outs = [np.empty(x.shape) for _ in range(3)] + [np.empty(x.shape) if tails else None]
    steps = np.diff(degree)
    bounds = [0, *(np.flatnonzero(steps) + 1).tolist(), len(x)]
    # each degree's points [lo, hi), from the lowest degree up
    blocks = {int(degree[lo]): (lo, hi) for lo, hi in reversed(list(zip(bounds, bounds[1:])))}
    cuts, carried = {}, len(x)
    for u, (lo, _) in blocks.items():
        # phi_0 and phi_1 are read before the loop's first step
        if lo <= _CUT_SHARE * carried:
            cuts[max(u, 1)] = carried = lo
    rows = _recurrence(x, int(degree[0]), int(degree[-1]), tails, cuts.items())
    for u, row in enumerate(rows, int(degree[-1])):
        if u in blocks:
            lo, hi = blocks[u]
            for out, part in zip(outs, row):
                if out is not None:
                    out[lo:hi] = part[lo:hi]
    return tuple(outs)


def _gauss(x):
    """e^(-x^2/2) on the grid x as (frac, expo), the value frac * 2^expo.

    -x^2/2 = hi + lo in two doubles, hi = -0.5 x x and lo the rest from
    _square (0 where x^2 overflows or x is not finite), and frac 2^expo is
    e^hi (1 + lo).  Where e^hi is a normal double (hi >= _NORMAL_FROM), it
    is split by frexp; below, down to _GAUSS_FLOOR, it is e^r 2^expo with
    expo = floor(hi / ln 2) and r = hi - expo ln 2 formed from the split
    ln 2.  Past _GAUSS_FLOOR, and where hi is not finite, frac = e^hi (0,
    or nan at a nan point) and expo = 0.  Fewer than _COLUMN_POINTS points
    take the same steps in Python floats, with one np.exp for them all,
    which costs less than numpy's fixed cost per call and gives the same
    bits.
    """
    if x.size < _COLUMN_POINTS:
        pts, his, args, expos = x.tolist(), [], [], []
        for t in pts:
            hi = -0.5 * t * t
            e = float(math.floor(hi / _LN2)) if _GAUSS_FLOOR <= hi < _NORMAL_FROM else 0.0
            his.append(hi)
            args.append((hi - e * _LN2_HI) - e * _LN2_LO)
            expos.append(e)
        frac, expo = [], []
        for t, hi, v, e in zip(pts, his, np.exp(args).tolist(), expos):
            if hi >= _NORMAL_FROM:
                v, e = math.frexp(v)
            if hi >= _GAUSS_FLOOR:
                # the low part of -t^2/2, from Dekker's product as in _square
                c = 134217729.0 * t
                th = c - (c - t)
                tl = t - th
                v += v * (-0.5 * (((th * th - t * t) + 2.0 * th * tl) + tl * tl))
            frac.append(v)
            expo.append(e)
        return np.array(frac), np.array(expo)
    with np.errstate(over="ignore", invalid="ignore"):
        hi = -0.5 * x * x
        lo = -0.5 * _square(x)[1]
    lo[~np.isfinite(lo)] = 0.0
    frac, expo = np.frexp(np.exp(hi))
    deep = np.flatnonzero(hi < _NORMAL_FROM)
    if len(deep):
        h = hi[deep]
        e = np.where(h >= _GAUSS_FLOOR, np.floor(h / _LN2), 0.0)
        frac[deep] = np.exp((h - e * _LN2_HI) - e * _LN2_LO)
        expo[deep] = e
    frac += frac * lo
    return frac, expo


def _to_floats(vals, gauss, count):
    """Turn mantissas into plain floats in place, and return them.

    vals holds one mantissa per grid point, or rows of them; gauss is the
    grid's e^(-x^2/2) (_gauss) and count the points' rescale counts j.
    With s = expo + 400 j, a mantissa becomes mantissa * ldexp(frac, s),
    an exact factor; where that factor is not a normal double, it becomes
    ldexp(mantissa * frac, s), so the power of two is applied last and a
    value is rounded to the double range once.  Values below the double
    range are exact zeros.
    """
    frac, expo = gauss
    shift = (expo + _RESCALE_BITS * count).astype(np.int64)
    factor = np.ldexp(frac, shift)
    deep = np.flatnonzero(factor < _TINY)
    if len(deep):
        low = np.ldexp(vals[..., deep] * frac[deep], shift[deep])
    vals *= factor
    if len(deep):
        vals[..., deep] = low
    return vals


def phi_pair(x, degree, tails=False):
    """phi_{d-1} and phi_d on the grid x at the degree d of each point:
    degree is an int, or one int per point, nonincreasing (_at_degrees).

    Returns (previous, current, count) arrays: the mantissas and the
    points' rescale counts j, the values being previous and current times
    e^(-x^2/2) 2^(400 j), and phi_{-1} = 0.  With tails, on a grid x >= 0,
    a fourth array follows from the same run: the mantissas of the tail
    integrals J_d(x) = int_x^inf phi_d on the same scale.  _to_floats
    gives the plain floats.
    """
    prev, cur, count, tail = _at_degrees(x, degree, tails)
    return (prev, cur, count, tail) if tails else (prev, cur, count)


def phi_row(x, degree):
    """phi_d on the grid x as plain floats, at the degree d of each point:
    degree is an int, or one int per point, nonincreasing.

    A grid of more than _RUN_POINTS points runs in pieces of at most that
    many, so the loop's arrays stay in cache; the values are scaled
    exactly in the rescale counts, so they are those of one run.
    """
    if x.size > _RUN_POINTS:
        per_point = isinstance(degree, np.ndarray)
        return np.concatenate([
            phi_row(x[lo:lo + _RUN_POINTS], degree[lo:lo + _RUN_POINTS] if per_point else degree)
            for lo in range(0, x.size, _RUN_POINTS)])
    _, cur, count, _ = _at_degrees(x, degree)
    return _to_floats(cur, _gauss(x), count)


def phi_rows(x, degree, lowest=0):
    """Rows phi_lowest, ..., phi_degree on the grid x as plain floats, in blocks.

    Yields arrays of shape (rows, len(x)), one row per degree in increasing
    order, with at most _BLOCK_POINTS values per block (one row when a row
    is longer), so memory stays bounded whatever the degree.  Each run of
    rows that shares the loop's rescale counts is turned into plain floats
    at once (_to_floats); values below the double range are exact zeros.
    The block array is reused, and its consumer may overwrite it: consume
    each block before asking for the next.
    """
    rows = min(max(1, _BLOCK_POINTS // max(len(x), 1)), degree - lowest + 1)
    return _row_blocks(x, degree, lowest, np.empty((rows, len(x))))


def _row_blocks(x, degree, lowest, vals):
    """phi_rows' blocks, filled in the array vals, whose first axis is the
    rows of a block: phi_table passes one that holds them all."""
    rows = len(vals)
    gauss = _gauss(x)
    i = start = 0
    count = None
    for u, (_, v, c, _) in enumerate(_recurrence(x, degree, lowest), lowest):
        if c is not count:
            if i > start:
                _to_floats(vals[start:i], gauss, count)
            count, start = c, i
        vals[i] = v
        i += 1
        if i == rows or u == degree:
            _to_floats(vals[start:i], gauss, count)
            yield vals[:i]
            i = start = 0


def _vanishing(x, nmax):
    """Mask of the points where |phi_k(x)| is below the double range for every k <= nmax.

    A step of the recurrence multiplies max(|phi_{k-1}|, |phi_k|) by at
    most max(1, |x| c1 + c0), with c1 = sqrt(2/(k+1)) and
    c0 = sqrt(k/(k+1)), and the first step (c1 = sqrt(2), c0 = 0) starts
    from phi_0 = pi^(-1/4) e^(-x^2/2).  The bound grows with k, so a point
    is marked when its log at k = nmax is below _VANISH_BELOW.  e^(-x^2/2)
    alone is above e^-722 for |x| <= 38, so only larger points are summed.
    An infinite point is marked, since every phi_k tends to 0 there; a nan
    point is not.
    """
    ax = np.abs(x)
    out = ax > 38.0
    if out.any():
        c1, c0 = _coefficients(0, nmax)
        for j in np.flatnonzero(out & (ax < math.inf)).tolist():
            t = float(ax[j])
            # ln(t c1 + c0) as ln t + ln(c1 + c0/t), finite for every finite t
            growth = float(np.maximum(0.0, np.log(c1 + c0 / t) + math.log(t)).sum())
            out[j] = -0.5 * t * t + math.log(_PI_QUARTER) + growth < _VANISH_BELOW
    return out


def _rescaling(a, b):
    """The range test's factor for a pair (a, b): 2^-400 when its maximum
    max(|a|, |b|) is above 2^400, 2^400 when it is below 2^-400 but not 0,
    else 0.0 (also for a nan)."""
    m = max(abs(a), abs(b))
    return _RESCALE_INV if m > _RESCALE else _RESCALE if 0.0 < m < _RESCALE_INV else 0.0


def _column_loop(x, degrees, table=None, tails=False):
    """Run the loop's steps point by point in Python floats, each point to its own degree.

    degrees holds one int per point of x.  Returns (state, events): state[i]
    is (phi_{d-1}, phi_d, j, J_{d-1}, J_d) at the point's degree d, in
    mantissas (phi_{-1} = J_{-1} = 0), with j its rescale count; the tails
    J are 0.0 unless tails is set.  table, when given (without tails),
    receives the mantissa of phi_k(x_i) in table[k, i] for k up to the
    point's degree, and then events lists (k, i, j) for each rescaling of
    point i at row k to the count j.

    Each step is the loop's (x c1) phi_k - c0 phi_{k-1}, and the tail's
    c0 J_{k-1} + c1 phi_k, with the loop's coefficients and seeds, and a
    point is rescaled by the range test's rule whenever its pair maximum is
    outside [2^-400, 2^400], here at every step (_rescaling).  A mantissa
    is the loop's up to an exact power of two, and its count says which
    one.  The coefficients are built _CHUNK steps at a time; a table column
    is filled through a memoryview.  The tails' update and the table's
    writes each have their own copy of the step, so the other runs pay for
    neither.
    """
    pts = x.tolist()
    root2 = math.sqrt(2.0)
    seeds = [0.0] * len(pts)
    if tails:
        seeds = ((_PI_QUARTER * math.sqrt(0.5 * math.pi)) * _erfcx(math.sqrt(0.5) * x)).tolist()
    state = [(_PI_QUARTER, t * root2 * _PI_QUARTER, 0, j0, root2 * _PI_QUARTER if tails else 0.0)
             for t, j0 in zip(pts, seeds)]
    if table is not None:
        table[0] = _PI_QUARTER
        if len(table) > 1:
            table[1] = [s[1] for s in state]
    events = []
    top = max(degrees, default=0)
    for start in range(1, top, _CHUNK):
        stop = min(start + _CHUNK, top)
        c1s, c0s = _coefficients(start, stop)
        # the chunk's steps (row, c1, c0): one point takes them as they are
        # formed, several share them as a list
        steps = zip(range(start + 1, stop + 1), c1s.tolist(), c0s.tolist())
        if len(pts) > 1:
            steps = list(steps)
        for i, (t, d) in enumerate(zip(pts, degrees)):
            if d <= start:
                continue
            a, b, j, ta, tb = state[i]
            # rows start + 1, ..., up to the point's degree.  |a| <= 2^400
            # after a step, so the pair maximum can have left the range only
            # if |b| has
            run = steps if d >= stop else islice(steps, d - start)
            if tails:
                for k, c1, c0 in run:
                    a, b, ta, tb = b, t * c1 * b - c0 * a, tb, c0 * ta + c1 * b
                    if not _RESCALE_INV <= abs(b) <= _RESCALE and (f := _rescaling(a, b)):
                        a, b, ta, tb, j = a * f, b * f, ta * f, tb * f, j + (f < 1.0) - (f > 1.0)
            elif table is None:
                for k, c1, c0 in run:
                    a, b = b, t * c1 * b - c0 * a
                    if not _RESCALE_INV <= abs(b) <= _RESCALE and (f := _rescaling(a, b)):
                        a, b, j = a * f, b * f, j + (f < 1.0) - (f > 1.0)
            else:
                col = memoryview(table[:, i])
                for k, c1, c0 in run:
                    a, b = b, t * c1 * b - c0 * a
                    if not _RESCALE_INV <= abs(b) <= _RESCALE and (f := _rescaling(a, b)):
                        a, b, j = a * f, b * f, j + (f < 1.0) - (f > 1.0)
                        events.append((k, i, j))
                    col[k] = b
            state[i] = a, b, j, ta, tb
    return state, events


def _column_table(x, nmax):
    """phi_table on few points: the mantissas from _column_loop, each run of
    rows that shares the points' rescale counts turned into plain floats
    at once (_to_floats).  A mantissa is the loop's up to an exact power of
    two, and its count says which one, so the table is the loop's."""
    table = np.empty((nmax + 1, x.shape[0]))
    events = _column_loop(x, [nmax] * x.shape[0], table)[1]
    gauss = _gauss(x)
    count, start = np.zeros(x.shape[0]), 0
    for k, i, j in sorted(events):
        if k != start:
            _to_floats(table[start:k], gauss, count)
            count, start = count.copy(), k
        count[i] = j
    _to_floats(table[start:], gauss, count)
    return table


def phi_table(x, nmax):
    """Plain-float table out[k, i] = phi_k(x_i) for k = 0..nmax.

    The table is one block of phi_rows' loop that holds all nmax + 1 rows,
    or, on grids of fewer than _COLUMN_POINTS points, where numpy's fixed
    cost per call outweighs its per-point speed, the same recurrence run
    point by point in Python floats (_column_table); both are scaled
    exactly in the rescale counts, so they give the same bits.  Entries
    whose true magnitude is below the double range come out as exact
    zeros, and so do the columns of the points that _vanishing finds,
    which never enter a recurrence: huge points and +-inf, where the zero
    column is the limit.
    """
    gone = _vanishing(x, nmax)
    if gone.any():
        # each point is rescaled alone, so the other columns keep their bits
        out = np.zeros((nmax + 1, x.shape[0]))
        out[:, ~gone] = phi_table(x[~gone], nmax)
        return out
    if x.shape[0] < _COLUMN_POINTS:
        return _column_table(x, nmax)
    (table,) = _row_blocks(x, nmax, 0, np.empty((nmax + 1, x.shape[0])))
    return table


def weighted_abs_power_sum(vals, weights, p):
    """(sums, tops) over rows of plain floats, the last axis of vals, which
    it overwrites: each row's largest |value| top and the sum of
    weights |value / top|^p, so that the row's weighted p-th power sum is
    sum * top^p and no power overflows.

    Even p takes the squares, scaled by the reciprocal of the largest one
    and raised to p / 2 by repeated squaring; any other p takes
    |value| / top, raised by np.power.
    """
    if p % 2.0 == 0.0:
        acc = np.square(vals, out=vals)
        top = acc.max(axis=-1, keepdims=True)
        acc *= 1.0 / top
        # left to right over the bits of p / 2 after the leading one
        bits = bin(int(p) // 2)[3:]
        squares = acc.copy() if "1" in bits else None
        for bit in bits:
            np.square(acc, out=acc)
            if bit == "1":
                acc *= squares
        top = np.sqrt(top)
    else:
        acc = np.abs(vals, out=vals)
        top = acc.max(axis=-1, keepdims=True)
        acc /= top
        np.power(acc, p, out=acc)
    acc *= weights
    return acc.sum(axis=-1), top[..., 0]
