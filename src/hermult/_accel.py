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
"""

from __future__ import annotations

import math

import numpy as np

_PI_QUARTER = math.pi ** (-0.25)

# Rescale by 2^400 so mantissa adjustments are exact.
_RESCALE = 2.0 ** 400
_RESCALE_INV = 2.0 ** -400
_RESCALE_LOG = 400.0 * math.log(2.0)

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
    for k in range(1, degree):
        c1 = math.sqrt(2.0 / (k + 1.0))
        c0 = math.sqrt(k / (k + 1.0))
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
        np.abs(v1, out=m)
        np.abs(v0, out=buf)
        np.maximum(m, buf, out=m)
        # the masks are formed only when a bound is crossed (or m holds a nan)
        if m.size and not m.max() <= _RESCALE:
            big = m > _RESCALE
            if big.any():
                v0 = np.where(big, v0 * _RESCALE_INV, v0)
                v1 = np.where(big, v1 * _RESCALE_INV, v1)
                ls = np.where(big, ls + _RESCALE_LOG, ls)
                if tails:
                    j0 = np.where(big, j0 * _RESCALE_INV, j0)
                    j1 = np.where(big, j1 * _RESCALE_INV, j1)
        if m.size and not m.min() >= _RESCALE_INV:
            small = (m > 0.0) & (m < _RESCALE_INV)
            if small.any():
                v0 = np.where(small, v0 * _RESCALE, v0)
                v1 = np.where(small, v1 * _RESCALE, v1)
                ls = np.where(small, ls - _RESCALE_LOG, ls)
                if tails:
                    j0 = np.where(small, j0 * _RESCALE, j0)
                    j1 = np.where(small, j1 * _RESCALE, j1)
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


def phi_table(x, nmax):
    """Plain-float table out[k, i] = phi_k(x_i) for k = 0..nmax.

    Each row is the mantissa times exp(log_scale) as a plain float.  The
    loop only ever rescales by 2^(+-400), so that factor is exactly
    e^(-x^2/2) * 2^(400 j) with j the net count of rescalings, rebuilt when
    the loop rebinds log_scale, which it does only on a rescale.  From
    degree 2 on, points whose log_scale is at most -700 take the log form
    instead, where that factor would have left the double range.  Entries
    whose true magnitude is below the double range come out as exact zeros.
    """
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
