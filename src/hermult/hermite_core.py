"""Hermite functions and the multi-index lattice.

The one-dimensional Hermite functions are

    phi_k(x) = (2^k k! sqrt(pi))^(-1/2) * H_k(x) * exp(-x^2/2),

an orthonormal basis of L^2(R); products over coordinates give the
n-dimensional basis indexed by multi-indices nu in N_0^n, with
harmonic-oscillator eigenvalue 2|nu| + n.  Evaluation runs through the
scaled recurrence in ``_accel`` so degrees and arguments far past the
naive overflow/underflow limits stay meaningful.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._accel import (
    _BOUNDED_BELOW, _LN2_HI, _LN2_LO, _RESCALE_BITS, _gauss, _square, _to_floats, _vanishing,
    phi_pair,
)
# phi_row stays a module attribute for code that looks it up here.
from ._accel import phi_row  # noqa: F401
from .errors import CapabilityError, DomainError

MAX_DEGREE_DEFAULT = 1_000_000

# Refuse to materialize lattice slices larger than this.
_ENUMERATION_CAP = 50_000_000

# eval_phi_1d gives values below this in log form (_pack's range).
_PLAIN_FROM = math.exp(-690.0)


@dataclass(frozen=True)
class MultiIndex:
    """Element of N_0^n."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise DomainError("multi-index needs at least one entry")
        for e in self.entries:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise DomainError(f"multi-index entries must be nonnegative ints, got {e!r}")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def order(self) -> int:
        """|nu| = sum of entries."""
        return sum(self.entries)

    def eigenvalue(self) -> int:
        """Oscillator eigenvalue 2|nu| + n."""
        return 2 * self.order + self.dimension

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


def as_entries(nu) -> tuple[int, ...]:
    """Coerce a MultiIndex, int sequence, or single int to an entry tuple."""
    if isinstance(nu, MultiIndex):
        return nu.entries
    if isinstance(nu, (int, np.integer)) and not isinstance(nu, bool):
        nu = (int(nu),)
    entries = tuple(int(e) for e in nu)
    if len(entries) == 0:
        raise DomainError("multi-index needs at least one entry")
    for e in entries:
        if e < 0:
            raise DomainError(f"multi-index entries must be nonnegative, got {e}")
    return entries


@dataclass(frozen=True)
class HermiteValue:
    """A Hermite-function value, optionally carried in scaled form.

    The represented number is ``value * exp(log_scale)``; ``log_scale``
    is None whenever the plain double is exact enough on its own.
    """

    value: float
    log_scale: float | None = None

    def to_float(self) -> float:
        """Collapse to a plain double (0.0 on deep underflow)."""
        if self.log_scale is None:
            return self.value
        if self.value == 0.0:
            return 0.0
        t = math.log(abs(self.value)) + self.log_scale
        if t < -745.0:
            return 0.0
        if t > 709.0:
            return math.copysign(math.inf, self.value)
        return math.copysign(math.exp(t), self.value)

    def log_magnitude(self) -> float:
        """ln |value * exp(log_scale)|; -inf for exact zero."""
        if self.value == 0.0:
            return -math.inf
        return math.log(abs(self.value)) + (self.log_scale or 0.0)

    @property
    def sign(self) -> float:
        return math.copysign(1.0, self.value) if self.value != 0.0 else 0.0

    def scaled_by(self, other: "HermiteValue") -> "HermiteValue":
        """Product of two values: mantissas multiply, log_scales add."""
        v = self.value * other.value
        ls = (self.log_scale or 0.0) + (other.log_scale or 0.0)
        return _pack(v, ls)


def _pack(value: float, log_scale: float) -> HermiteValue:
    """Normalize (value, log_scale) into the public representation."""
    if value == 0.0:
        return HermiteValue(0.0, None)
    t = math.log(abs(value)) + log_scale
    if -690.0 < t < 690.0:
        return HermiteValue(math.copysign(math.exp(t), value), None)
    k = float(round(t))
    return HermiteValue(math.copysign(math.exp(t - k), value), k)


def eval_phi_1d(degree: int, x: float, max_degree: int = MAX_DEGREE_DEFAULT) -> HermiteValue:
    """Evaluate phi_degree(x) via the stable normalized recurrence.

    A value from e^-690 up is the plain float of the scaling stage
    (_accel._to_floats), so it equals phi_table's entry bit for bit.  A
    smaller one keeps its log form: the mantissa m of rescale count j
    stands for m e^(-x^2/2 + 400 j ln 2), that log scale formed from
    x^2 in two doubles and the split ln 2.
    """
    degree = _check_order(degree, 0, "degree")
    if degree > max_degree:
        raise CapabilityError(f"degree {degree} exceeds the configured maximum {max_degree}")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    point = np.array([x])
    # one step of the recurrence can outgrow its rescaling out there, and
    # the value is below the double range at every degree it serves
    if abs(x) >= _BOUNDED_BELOW and _vanishing(point, int(degree))[0]:
        return HermiteValue(0.0, None)
    _, vals, count = phi_pair(point, int(degree))
    mantissa = float(vals[0])
    value = float(_to_floats(vals, _gauss(point), count)[0])
    if abs(value) >= _PLAIN_FROM or mantissa == 0.0:
        return HermiteValue(value, None)
    hi, lo = _square(x)
    n = _RESCALE_BITS * float(count[0])
    return _pack(mantissa, (n * _LN2_HI - 0.5 * hi) + (n * _LN2_LO - 0.5 * lo))


def eval_phi_nd(nu, x: Sequence[float], max_degree: int = MAX_DEGREE_DEFAULT) -> HermiteValue:
    """Evaluate the tensor-product function phi_nu at the point x."""
    entries = as_entries(nu)
    xs = [float(c) for c in np.atleast_1d(np.asarray(x, dtype=float))]
    if len(xs) != len(entries):
        raise DomainError(f"point has dimension {len(xs)}, index has dimension {len(entries)}")
    v = 1.0
    ls = 0.0
    for e, c in zip(entries, xs):
        f = eval_phi_1d(e, c, max_degree=max_degree)
        v *= f.value
        ls += f.log_scale or 0.0
        if v == 0.0:
            return HermiteValue(0.0, None)
        # keep the running mantissa in range
        if not 2.0 ** -500 < abs(v) < 2.0 ** 500:
            ls += math.log(abs(v))
            v = math.copysign(1.0, v)
    return _pack(v, ls)


def _level_count(n: int, k: int) -> int:
    return math.comb(k + n - 1, n - 1)


def _check_order(N, floor: int = 0, name: str = "truncation order") -> int:
    """An integer argument (an order, a dimension, a count) as an int;
    anything but an integer >= floor, bool included, is refused."""
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < floor:
        raise DomainError(f"{name} must be an integer >= {floor}, got {N!r}")
    return int(N)


def _check_dims(n: int, order: int):
    _check_order(n, 1, "dimension")
    _check_order(order, 0, "order")


def _level_tuples(n: int, k: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (k,)
        return
    for head in range(k + 1):
        for rest in _level_tuples(n - 1, k - head):
            yield (head,) + rest


def enumerate_level(n: int, k: int) -> list[MultiIndex]:
    """All nu in N_0^n with |nu| = k, in lexicographic order."""
    _check_dims(n, k)
    count = _level_count(n, k)
    if count > _ENUMERATION_CAP:
        raise CapabilityError(f"level has {count} indices, above the cap {_ENUMERATION_CAP}")
    out = [MultiIndex(t) for t in _level_tuples(n, k)]
    assert len(out) == count
    return out


def enumerate_up_to(n: int, order: int) -> Iterator[MultiIndex]:
    """Yield all nu in N_0^n with |nu| <= order, level by level.

    Within each level the order is lexicographic; the total count is
    C(order + n, n).
    """
    _check_dims(n, order)
    total = math.comb(order + n, n)
    if total > _ENUMERATION_CAP:
        raise CapabilityError(f"ball has {total} indices, above the cap {_ENUMERATION_CAP}")
    for k in range(order + 1):
        for t in _level_tuples(n, k):
            yield MultiIndex(t)


def count_level(n: int, k: int) -> int:
    """Number of multi-indices with |nu| = k, i.e. C(k+n-1, n-1)."""
    _check_dims(n, k)
    return _level_count(n, k)


def count_up_to(n: int, order: int) -> int:
    """Number of multi-indices with |nu| <= order, i.e. C(order+n, n)."""
    _check_dims(n, order)
    return math.comb(order + n, n)
