"""Numeric kernels: the scaled Hermite recurrence and weighted power sums.

Every kernel is vectorized with numpy over the grid points and follows the
scaled three-term recurrence

    phi_{k+1}(x) = x*sqrt(2/(k+1))*phi_k(x) - sqrt(k/(k+1))*phi_{k-1}(x)

seeded with phi_0(x) = pi^(-1/4) * exp(-x^2/2).  Values are carried as
``mantissa * exp(log_scale)`` so the seed and the tails survive far
outside the range of plain doubles.  Rescaling multiplies by an exact
power of two, so it adds no rounding of its own.
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


def phi_row(x, degree):
    """Scaled Hermite-function row: values of phi_degree on the grid x.

    Returns (mantissa, log_scale) arrays; the represented value is
    mantissa * exp(log_scale).
    """
    ls = -0.5 * x * x
    v0 = np.full(x.shape, _PI_QUARTER)
    if degree == 0:
        return v0, ls
    v1 = x * math.sqrt(2.0) * v0
    for k in range(1, degree):
        c1 = math.sqrt(2.0 / (k + 1.0))
        c0 = math.sqrt(k / (k + 1.0))
        v2 = x * c1 * v1 - c0 * v0
        v0 = v1
        v1 = v2
        m = np.maximum(np.abs(v1), np.abs(v0))
        big = m > _RESCALE
        if big.any():
            v0 = np.where(big, v0 * _RESCALE_INV, v0)
            v1 = np.where(big, v1 * _RESCALE_INV, v1)
            ls = np.where(big, ls + _RESCALE_LOG, ls)
        small = (m > 0.0) & (m < _RESCALE_INV)
        if small.any():
            v0 = np.where(small, v0 * _RESCALE, v0)
            v1 = np.where(small, v1 * _RESCALE, v1)
            ls = np.where(small, ls - _RESCALE_LOG, ls)
    return v1, ls


def phi_table(x, nmax):
    """Plain-float table out[k, i] = phi_k(x_i) for k = 0..nmax.

    Entries whose true magnitude is below the double range come out as
    exact zeros.
    """
    npts = x.shape[0]
    out = np.empty((nmax + 1, npts))
    ls = -0.5 * x * x
    es = np.exp(ls)
    v0 = np.full(npts, _PI_QUARTER)
    out[0] = v0 * es
    if nmax == 0:
        return out
    v1 = x * math.sqrt(2.0) * v0
    out[1] = v1 * es
    for k in range(1, nmax):
        c1 = math.sqrt(2.0 / (k + 1.0))
        c0 = math.sqrt(k / (k + 1.0))
        v2 = x * c1 * v1 - c0 * v0
        v0 = v1
        v1 = v2
        m = np.maximum(np.abs(v1), np.abs(v0))
        big = m > _RESCALE
        if big.any():
            v0 = np.where(big, v0 * _RESCALE_INV, v0)
            v1 = np.where(big, v1 * _RESCALE_INV, v1)
            ls = np.where(big, ls + _RESCALE_LOG, ls)
            es = np.where(big, es * _RESCALE, es)
        small = (m > 0.0) & (m < _RESCALE_INV)
        if small.any():
            v0 = np.where(small, v0 * _RESCALE, v0)
            v1 = np.where(small, v1 * _RESCALE, v1)
            ls = np.where(small, ls - _RESCALE_LOG, ls)
            es = np.where(small, es * _RESCALE_INV, es)
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


def weighted_abs_power_sum(vals, logs, weights, p):
    """Sum of weights[i] * |vals[i] * exp(logs[i])|^p as (total, shift).

    The sum is total * exp(shift).  shift is 0.0 unless the largest
    exponent p * ln|value| is below -700, where every term would underflow;
    then that exponent is factored out of all terms, so a p-th root taken
    as total^(1/p) * exp(shift/p) stays in range.  Terms more than 745
    below the shift are dropped.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t = p * (np.log(np.abs(vals)) + logs)
    top = float(np.max(t))
    shift = top if -math.inf < top < _SHIFT_BELOW else 0.0
    t = t - shift
    ok = (vals != 0.0) & (t >= -745.0)
    terms = np.where(ok, weights * np.exp(np.where(ok, t, 0.0)), 0.0)
    return float(np.sum(terms)), shift
