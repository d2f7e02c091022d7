"""Numeric kernels: the scaled Hermite recurrence and weighted power sums.

Every kernel follows the scaled three-term recurrence

    phi_{k+1}(x) = x*sqrt(2/(k+1))*phi_k(x) - sqrt(k/(k+1))*phi_{k-1}(x)

seeded with phi_0(x) = pi^(-1/4) * exp(-x^2/2).  Values are carried as
``mantissa * exp(log_scale)`` so the seed and the tails survive far
outside the range of plain doubles.  The kernels run on the one loop of
``_recurrence``, vectorized with numpy over the grid points:
``phi_tail`` carries the tail integrals int_x^inf phi_k along it on the
same scale, ``phi_pair`` and ``phi_tail`` read each point at its own
degree (``_at_degrees``), and ``phi_table`` and ``phi_rows`` turn its rows
into plain floats: ``phi_table`` by e^(-x^2/2) 2^(400 j) from
exp(-0.5 x x), ``phi_rows`` from the exact log scale below.  On fewer than
_COLUMN_POINTS points, where numpy's fixed cost per step outweighs its
per-point speed, ``phi_pair``, ``phi_row``, ``phi_tail`` and ``phi_table``
run the same steps point by point in Python floats instead
(``_column_loop``), each point to its own degree, with the same mantissas
up to exact powers of two; ``phi_rows`` always takes the numpy loop.

The loop keeps an integer rescale count j per point: a rescaling
multiplies the point's mantissas by 2^-400 (j + 1) or by 2^400 (j - 1),
which is exact, and its log scale is formed from j alone, as
-x^2/2 + 400 j ln 2 rounded once (-x^2/2 and ln 2 are each held as two
doubles).  So a mantissa is the same number, up to an exact power of two,
whichever step rescales it, and the log scale does not drift with the
number of rescalings.

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
_LN2_HI = 0.6931471824645996
_LN2_LO = -1.904654299957768e-09

# Between range tests the growth bounds keep every pair maximum inside
# [2^-_WIDE, 2^_WIDE], and at the last step inside [2^-_LAST, 2^_LAST];
# the bit to 800 and to 400 covers their rounding.
_WIDE = 799.0
_LAST = 399.0

# On a grid with max |x| below this, one step grows a value by less than
# 2^399, so the step after a range test stays inside the window.  Other
# grids, and grids with a non-finite point, are tested at every step.
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
# and for phi_table, and 22-28 for phi_tail.
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


def _half_square(x):
    """-x^2/2 as two doubles (hi, lo): hi = -0.5 x x, the log scale of a
    point never rescaled, and lo the rest (0 where x^2 overflows or x is
    not finite)."""
    with np.errstate(over="ignore", invalid="ignore"):
        hi = -0.5 * x * x
        lo = -0.5 * _square(x)[1]
    lo[~np.isfinite(lo)] = 0.0
    return hi, lo


def _log_scale(x, count):
    """-x^2/2 + 400 count ln 2 as (ls, rest): ls the sum rounded once, from
    -x^2/2 = hi + lo (_half_square), and rest that rounding's residual.

    400 count _LN2_HI is exact, and Knuth's two-sum carries the rounding
    of its sum with hi into the low parts, so ls + rest is the sum to about
    400 |count| 2^-82.  A point with count 0 keeps hi, and rest = lo; a
    non-finite one keeps hi + 400 count _LN2_HI, and rest = 0.
    """
    hi, lo = _half_square(x)
    if not count.any():
        return hi, lo
    n = _RESCALE_BITS * count
    a = n * _LN2_HI
    with np.errstate(invalid="ignore"):
        s = hi + a
        b = s - hi
        low = ((hi - (s - b)) + (a - b)) + (lo + n * _LN2_LO)
        finite = np.isfinite(s)
        ls = np.where(count == 0, hi, np.where(finite, s + low, s))
        rest = np.where(finite, (s - ls) + low, 0.0)
    return ls, rest


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
    """Yield (previous, current, log_scale, count, tail) for current = phi_lowest, ..., phi_degree.

    The represented values are previous * exp(log_scale) and
    current * exp(log_scale), and phi_{-1} = 0; count is the rescale
    count j of the module docstring, whole numbers held as doubles, and
    log_scale is formed from it.  tail is None unless tails is set; then it is the mantissa, on the
    same log scale, of the tail integral J_current(x) = int_x^inf
    phi_current for x >= 0.  Integrating
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
    2^-_WIDE, and the next test runs there.  The last step is tested too
    where the bounds do not keep its pair maxima in [2^-400, 2^400], so
    the last pair leaves the loop with them there, where an exp of its
    log scale loses the fewest bits.  A grid with a non-finite point or
    max |x| >= _BOUNDED_BELOW is tested at every step.

    cuts, (step, n) pairs, drop points whose degree has passed: the loop
    step that forms phi_{step+1} and every later one carry only the first
    n points, and the yielded arrays have n entries.  A cut slices the
    loop's arrays between two steps and leaves the range tests where they
    were; without cuts each chunk's steps run as one run.

    The loop works in place: a yielded tuple is valid until the next step.
    """
    ls = -0.5 * x * x
    count = np.zeros(x.shape)
    v0 = np.full(x.shape, _PI_QUARTER)
    t0 = t1 = None
    if tails:
        t0 = (_PI_QUARTER * math.sqrt(0.5 * math.pi)) * _erfcx(math.sqrt(0.5) * x)
        t1 = math.sqrt(2.0) * v0
    if lowest == 0:
        yield np.zeros(x.shape), v0, ls, count, t0
    if degree == 0:
        return
    v1 = x * math.sqrt(2.0) * v0
    if lowest <= 1:
        yield v0, v1, ls, count, t1
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
                count, ls = count[:n], ls[:n]
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
                    before = count
                    count, top, bottom = _range_test(v0, v1, count, t0, t1, m, buf)
                    if count is not before:
                        ls = _log_scale(x, count)[0]
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
                        last = degree - 1 - start
                        if test_at >= degree - 1 and last < len(grow):
                            # the last step is tested where the bounds let a
                            # pair maximum end outside [2^-_LAST, 2^_LAST]
                            out = high + grow[last] > _LAST or low - shrink[last] < -_LAST
                            test_at = degree - 1 if out else degree
                if k >= lowest - 1:
                    yield v0, v1, ls, count, t1


def _at_degrees(x, degree, tails=False):
    """(previous, current, log_scale, tail) arrays of each point at its own degree.

    degree is an int, the degree of every point, or an int ndarray with one
    degree per point, nonincreasing; previous and current are the
    mantissas of phi_{d-1}(x) and phi_d(x) at the point's degree d, on one
    log scale, and tail is J_d(x) as ``_recurrence`` carries it (None
    unless tails is set).  Fewer than _COLUMN_POINTS points run point by
    point (_column_loop).  Otherwise one run of the loop serves every
    degree: it reads each degree's points at its own step and cuts the
    points whose degree has passed, the last ones, once they are a quarter
    of those it carries.  A point's values depend on its own x and degree
    alone, up to the rescalings, so an int degree and an array of it, or
    the two loops, give the same bits wherever no point is rescaled.
    """
    if isinstance(degree, np.ndarray) and (np.diff(degree) > 0).any():
        raise ValueError("the degrees of the points must not increase")
    if x.size < _COLUMN_POINTS:
        degrees = degree.tolist() if isinstance(degree, np.ndarray) else [degree] * x.size
        state = _column_loop(x, degrees, tails=tails)[0]
        # at degree 0 the seeds phi_0 and J_0 are current, and phi_{-1} = 0
        rows = [(0.0, s[0], s[2], 0.0, s[3]) if d == 0 else s for s, d in zip(state, degrees)]
        prev, cur, counts, _, tail = np.array(rows).reshape(-1, 5).T
        return prev, cur, _log_scale(x, counts)[0], tail if tails else None
    if not isinstance(degree, np.ndarray):
        ((prev, cur, ls, _, tail),) = _recurrence(x, degree, degree, tails)
        return prev, cur, ls, tail
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
    for u, (prev, cur, ls, _, tail) in enumerate(rows, int(degree[-1])):
        if u in blocks:
            lo, hi = blocks[u]
            for out, row in zip(outs, (prev, cur, ls, tail)):
                if out is not None:
                    out[lo:hi] = row[lo:hi]
    return tuple(outs)


def phi_pair(x, degree):
    """phi_{d-1} and phi_d on the grid x, on one log scale, at the degree d
    of each point: degree is an int, or one int per point, nonincreasing
    (_at_degrees).

    Returns (previous, current, log_scale) arrays; the represented values
    are previous * exp(log_scale) and current * exp(log_scale), and
    phi_{-1} = 0.
    """
    prev, cur, ls, _ = _at_degrees(x, degree)
    return prev, cur, ls


def phi_tail(x, degree):
    """Tail integrals J_d(x) = int_x^inf phi_d on the grid x >= 0, at the
    degree d of each point: degree is an int, or one int per point,
    nonincreasing.

    Returns (mantissa, log_scale) arrays; the represented value is
    mantissa * exp(log_scale).
    """
    _, _, ls, tail = _at_degrees(x, degree, tails=True)
    return tail, ls


def _exp_parts(ls, rest):
    """e^ls (1 + rest) as (frac, expo), the value frac * 2^expo with
    frac = e^r (1 + rest) in [1, 2) and r = ls - expo ln 2 formed from the
    split ln 2, for finite arrays ls and rest (rest a rounding's residual);
    exact in expo while |ls| < 2^26."""
    expo = np.floor(ls / math.log(2.0))
    frac = np.exp((ls - expo * _LN2_HI) - expo * _LN2_LO)
    return frac + frac * rest, expo


def _row_factor(x, count):
    """e^(-x^2/2 + 400 count ln 2) from the exact log scale (_log_scale),
    as (scale, cols, shift): the factor of a point is scale * 2^shift.

    The factor is exp(ls) (1 + rest), (ls, rest) the log scale and its
    rounding's residual, with one rounding after the exp, and shift 0.
    At the points where that is not a normal double (deep), it is
    frac * 2^expo (_exp_parts).  shift, 0 at the other points, is kept
    over the slice cols from the first deep point to the last, so _scale
    works on the rows in place (both None where no point is deep).
    """
    ls, rest = _log_scale(x, count)
    with np.errstate(under="ignore", invalid="ignore"):
        scale = np.exp(ls)
        scale += scale * rest
    # |phi| <= 1 and the loop keeps a pair maximum above 2^-800, so ls
    # stays below 555 and the factor finite
    deep = np.flatnonzero((scale < _TINY) & np.isfinite(ls))
    if not len(deep):
        return scale, None, None
    scale[deep], expo = _exp_parts(ls[deep], rest[deep])
    cols = slice(int(deep[0]), int(deep[-1]) + 1)
    shift = np.zeros(cols.stop - cols.start, dtype=np.int64)
    shift[deep - cols.start] = expo
    return scale, cols, shift


def _scale(rows, factor):
    """Turn rows of mantissas into plain floats in place, by their factor
    (_row_factor): times scale first, then times 2^shift, so each value
    is rounded to the double range once."""
    scale, cols, shift = factor
    rows *= scale
    if cols is not None:
        part = rows[:, cols]
        np.ldexp(part, shift, out=part)


def phi_rows(x, degree, lowest=0):
    """Rows phi_lowest, ..., phi_degree on the grid x as plain floats, in blocks.

    Yields arrays of shape (rows, len(x)), one row per degree in increasing
    order, with at most _BLOCK_POINTS values per block (one row when a row
    is longer), so memory stays bounded whatever the degree.  The loop's
    mantissas are scaled by e^(log scale), a factor built from the exact
    log scale (_row_factor) only when the loop's rescale count changes and
    applied to each run of rows that shares it (_scale); values below the
    double range are exact zeros.  The block array is reused, and its
    consumer may overwrite it: consume each block before asking for the
    next.
    """
    rows = min(max(1, _BLOCK_POINTS // max(len(x), 1)), degree - lowest + 1)
    vals = np.empty((rows, len(x)))
    i = start = 0
    count = factor = None
    for u, (_, v, _, c, _) in enumerate(_recurrence(x, degree, lowest), lowest):
        if c is not count:
            if factor is not None:
                _scale(vals[start:i], factor)
            count, factor, start = c, _row_factor(x, c), i
        vals[i] = v
        i += 1
        if i == rows or u == degree:
            _scale(vals[start:i], factor)
            yield vals[:i]
            i = start = 0


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


def _gauss_factor(x):
    """e^(-x^2/2) as (frac, expo) with frac * 2^expo equal to it, frac in [0.5, 1).

    Where exp(-0.5 x x) is a normal double, frac and expo are its own
    parts, exactly; elsewhere e^(-x^2/2) has left the double range and is
    formed from -x^2/2 in two doubles (_half_square) as 2^E e^r, with
    r = -x^2/2 - E ln 2 in [0, ln 2) from the split ln 2.  A non-finite
    -x^2/2 keeps exp(-0.5 x x).
    """
    hi = -0.5 * x * x
    e0 = np.exp(hi)
    frac, expo = np.frexp(e0)
    far = e0 < _TINY
    if far.any():
        far &= np.isfinite(hi)
        h, lo = _half_square(x[far])
        big = np.floor(h / math.log(2.0))
        frac[far], e = np.frexp(np.exp((h - big * _LN2_HI) + (lo - big * _LN2_LO)))
        expo[far] = e + big.astype(e.dtype)
    return frac, expo


def _vector_mantissas(x, nmax):
    """Mantissas of phi_0..phi_nmax on the grid x from the one loop.

    Returns (table, changes): table[k, i] is the mantissa of phi_k(x_i),
    and changes lists (k, count), the rescale counts of every point from
    row k up to the next entry's row.
    """
    table = np.empty((nmax + 1, x.shape[0]))
    changes = []
    for k, (_, v, _, count, _) in enumerate(_recurrence(x, nmax, 0)):
        if not changes or count is not changes[-1][1]:
            changes.append((k, count))
        table[k] = v
    return table, changes


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


def _column_mantissas(x, nmax):
    """(table, changes) as from _vector_mantissas, built point by point in
    Python floats (_column_loop); a mantissa is the loop's up to an exact
    power of two, and its count says which one, so the table built from
    both is the same."""
    table = np.empty((nmax + 1, x.shape[0]))
    events = _column_loop(x, [nmax] * x.shape[0], table)[1]
    changes = [(0, np.zeros(x.shape[0]))]
    for k, i, j in sorted(events):
        if k != changes[-1][0]:
            changes.append((k, changes[-1][1].copy()))
        changes[-1][1][i] = j
    return table, changes


def _scale_rows(table, x, changes):
    """Turn the mantissas of a table into plain floats, in place.

    Each entry is multiplied by e^(-x^2/2) 2^(400 j), j its point's
    rescale count, with the factor built once for each entry of changes
    (row k, counts) and applied to the rows up to the next entry.  Where
    the factor is a normal double it is exact and multiplies the mantissa;
    elsewhere (deep) the mantissa is multiplied by the fraction of
    e^(-x^2/2) first and the power of two is applied last, so each entry
    is rounded to the double range once.
    """
    frac, expo = _gauss_factor(x)
    ends = [k for k, _ in changes[1:]] + [len(table)]
    for (k, count), end in zip(changes, ends):
        shift = expo + _RESCALE_BITS * count
        # the factor is below the normal range there
        deep = np.flatnonzero(shift < -1021.0)
        shift = shift.astype(np.int64)
        rows = table[k:end]
        if len(deep):
            low = np.ldexp(rows[:, deep] * frac[deep], shift[deep])
        rows *= np.ldexp(frac, shift)
        if len(deep):
            rows[:, deep] = low


def phi_table(x, nmax):
    """Plain-float table out[k, i] = phi_k(x_i) for k = 0..nmax.

    The mantissas come from the one loop, or, on grids of fewer than
    _COLUMN_POINTS points, from the same recurrence run point by point in
    Python floats (_column_mantissas), where numpy's fixed cost per call
    outweighs its per-point speed; _scale_rows turns either into plain
    floats, with the same bits.  Entries whose true magnitude is below the
    double range come out as exact zeros, and so do the columns of the
    points that _vanishing finds, which never enter a recurrence: huge
    points and +-inf, where the zero column is the limit.
    """
    gone = _vanishing(x, nmax)
    if gone.any():
        # each point is rescaled alone, so the other columns keep their bits
        out = np.zeros((nmax + 1, x.shape[0]))
        out[:, ~gone] = phi_table(x[~gone], nmax)
        return out
    produce = _column_mantissas if x.shape[0] < _COLUMN_POINTS else _vector_mantissas
    table, changes = produce(x, nmax)
    _scale_rows(table, x, changes)
    return table


def weighted_abs_power_sum(vals, logs, weights, p):
    """The sum of weights[i] * |vals[i] * exp(logs[i])|^p as (total, shift).

    The sum is total * exp(shift).  shift is 0.0 unless the largest
    exponent p * ln|value| is below -700, where every term would
    underflow; then that exponent is factored out of the terms, so a p-th
    root taken as total^(1/p) * exp(shift/p) stays in range.  Terms more
    than 745 below the shift are dropped.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.log(np.abs(vals))
        t += logs
        t *= p
    top = float(np.max(t))
    shift = top if -math.inf < top < _SHIFT_BELOW else 0.0
    if shift:
        t -= shift
    # e^-inf = 0 drops a term exactly; zeros of vals are at -inf already
    np.copyto(t, -math.inf, where=~(t >= -745.0))
    np.exp(t, out=t)
    t *= weights
    return float(np.sum(t)), shift
