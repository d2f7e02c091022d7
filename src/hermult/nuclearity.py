"""Summability criteria for Hermite multipliers.

Two sums decide r-summability of a symbol m over exponent pairs
(p1, p2): the direct sum s_r built from quadrature Lp norms, and an
asymptotic surrogate built from closed-form weight laws.  The direct sum
weighs an index by (||phi_nu||_{p2} ||phi_nu||_{p1'})^r, so the surrogate's
weight law is the sum of two per-exponent norm laws ``quadrature.norm_law``:
alpha = r (e(p2) + e(p1')) and lambda = r (lam(p2) + lam(p1')).  Each law
changes form at 4, so the cases are where p2 and p1' fall relative to 4
(p1' against 4 is p1 against 4/3): nine in all.  Every weight factors
over the entries of nu, with entries <= k contributing a constant
k-factor and entries > k contributing u^alpha (ln u)^lambda.

Verdicts are three-valued: "finite" requires a certified or exact tail
bound below the tolerance, "divergent" requires a certified lower bound
with a divergent comparison series, anything else is "inconclusive".

With no truncation order given, the order comes from the tail bounds
alone, before any factor or norm is built (``_default_order``): the least
one, at or above the criterion's floor, whose tail is below the tolerance
and below the sum's last bit, 2^-53 times the sum's first term (the terms
are nonnegative).  So the partial sum is within one ulp of that at any
larger order.  It is never past the first of the doubled orders 200 n,
400 n, ... whose tail is below the tolerance, and where no order below
that one qualifies, that doubling stands.

The direct sum's tail is certified from per-entry norm bounds that hold
for every degree u (``_norm_bound``): Indritz's sup bound
|phi_u| <= pi^(-1/4) (Proc. AMS 12 (1961)), ||phi_u||_1 <= sqrt(pi (u + 3/2))
(Cauchy-Schwarz against the weight 1 + x^2, with the integral of
x^2 phi_u^2 equal to u + 1/2) and ||phi_u||_2 = 1, interpolated by the
convexity of 1/p -> ln ||phi_u||_p.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .errors import DomainError, UnsupportedRegimeError
from .hermite_core import _check_order, as_entries
from .quadrature import (
    _exact_exponent, _float_exponent, _norm_case, check_budget, lp_norm_1d, lp_norms_1d,
)
from .spectral_ops import Symbol, _exp_polylog_tail, lattice_sum

_MAX_DOUBLINGS = 6
# the unit roundoff of a double: a tail below this share of a sum is below its last bit
_UNIT_ROUNDOFF = 2.0 ** -53
_P1_HYPOTHESIS = "1 < p1 < infinity"
# p1' against 4 is p1 against 4/3, the other way round
_P1_BRANCH = {"sub4": "gt43", "eq4": "eq43", "super4": "lt43"}


def _as_fraction(value, name: str, allow_inf: bool = False):
    """Exact rational view of an exponent, read as the norm laws read it
    (``quadrature._exact_exponent``): a float is the small rational it rounds
    from, or else its exact value."""
    if value == math.inf:
        if allow_inf:
            return math.inf
        raise DomainError(f"{name} must be finite")
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    if isinstance(value, (numbers.Rational, float)):
        return _exact_exponent(value)
    raise DomainError(f"{name} has unsupported type {type(value).__name__}")


def _exponent_str(p) -> str:
    return "inf" if p == math.inf else str(p)


@dataclass(frozen=True)
class RegimeCase:
    """One of the nine weight-law cases, with its exponents resolved."""

    p1: Fraction
    p2: object  # Fraction or math.inf
    r: Fraction
    p2_regime: str
    p1_branch: str
    k: int
    alpha: Fraction
    log_power: Fraction
    p1_conj: Fraction
    # float views of alpha, log_power and r, formed once per case
    alpha_float: float = field(init=False, repr=False, compare=False)
    log_power_float: float = field(init=False, repr=False, compare=False)
    r_float: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("alpha", "log_power", "r"):
            object.__setattr__(self, f"{name}_float", float(getattr(self, name)))

    def entry_factors(self, us) -> list[float]:
        """Per-entry weight factors: constant below the cutoff, u^a (ln u)^l above."""
        a = self.alpha_float
        lam = self.log_power_float
        k = self.k
        return [v ** a * math.log(v) ** lam for v in (u if u > k else k for u in us)]


def _p2_and_r(p2, r):
    """p2 in [1, inf] and r in (0, 1], as exact values."""
    p2f = _as_fraction(p2, "p2", allow_inf=True)
    if p2f != math.inf and p2f < 1:
        raise DomainError(f"p2 must lie in [1, inf], got {p2f}")
    rf = _as_fraction(r, "r")
    if not 0 < rf <= 1:
        raise DomainError(f"r must lie in (0, 1], got {rf}")
    return p2f, rf


@functools.lru_cache(maxsize=256, typed=True)
def classify_regime(p1, p2, r, k: int = 10) -> RegimeCase:
    """Resolve (p1, p2, r) to its weight-law case with exact arithmetic:
    the sum of the norm laws at p2 and at the conjugate p1'.

    Cached per argument types as well as values: a float and the Fraction
    equal to its binary value can stand for different rationals
    (``quadrature._exact_exponent``)."""
    if p1 == math.inf:
        raise UnsupportedRegimeError(
            "p1 = infinity is outside the supported range",
            hypothesis=_P1_HYPOTHESIS,
        )
    p1f = _as_fraction(p1, "p1")
    if p1f <= 1:
        raise UnsupportedRegimeError(
            f"p1 = {p1f} is outside the supported range",
            hypothesis=_P1_HYPOTHESIS,
        )
    p2f, rf = _p2_and_r(p2, r)
    k = _check_order(k, 2, "cutoff k")
    p1_conj = p1f / (p1f - 1)
    (regime2, e2, lam2), (regime1, e1, lam1) = _norm_case(p2f), _norm_case(p1_conj)
    return RegimeCase(
        p1=p1f, p2=p2f, r=rf, p2_regime=regime2, p1_branch=_P1_BRANCH[regime1], k=k,
        alpha=rf * (e2 + e1), log_power=rf * (lam2 + lam1), p1_conj=p1_conj,
    )


@dataclass(frozen=True)
class PartitionCell:
    """Indices with exactly s entries <= k (the rest > k)."""

    s: int
    k: int
    dimension: int

    def __post_init__(self):
        if not 0 <= self.s <= self.dimension:
            raise DomainError("cell index s must lie in [0, n]")

    def contains(self, nu) -> bool:
        entries = as_entries(nu)
        if len(entries) != self.dimension:
            raise DomainError("index has the wrong dimension for this cell")
        return partition_cell_of(entries, self.k) == self.s


def partition_cell_of(nu, k: int) -> int:
    """Number of entries <= k."""
    k = _check_order(k, 2, "cutoff k")
    entries = as_entries(nu)
    return sum(1 for u in entries if u <= k)


def partition_cells(dimension: int, k: int):
    return [PartitionCell(s=s, k=k, dimension=dimension) for s in range(dimension + 1)]


def kappa_weight(case: RegimeCase, nu) -> float:
    """Product of per-entry factors; strictly positive."""
    return math.prod(case.entry_factors(as_entries(nu)))


def _kappa_tail(m: Symbol, case: RegimeCase, N: int):
    """(tail_bound, "certified") under an exponential envelope."""
    env = m.envelope
    n = m.dimension
    r = case.r_float
    alpha = case.alpha_float
    lam = case.log_power_float
    k = case.k
    crate = r * env.rate
    coeff = env.C ** r
    kfac = k ** alpha * math.log(k) ** lam
    if alpha > 0.0 or (alpha == 0.0 and lam > 0.0):
        # each entry factor <= (1+K)^alpha ln(2+K)^lam at level K
        coeff *= max(1.0, kfac) ** n
        return _exp_polylog_tail(coeff, crate, n, n * alpha, n * lam, N), "certified"
    # alpha <= 0: per-entry factors above the cutoff are uniformly bounded
    if lam == 0.0:
        above = (k + 1) ** alpha if alpha < 0.0 else 1.0
    else:
        candidates = [k + 1]
        if alpha < 0.0:
            u_star = math.exp(-lam / alpha)
            candidates += [max(k + 1, math.floor(u_star)), max(k + 1, math.ceil(u_star))]
        above = max(u ** alpha * math.log(u) ** lam for u in candidates)
    coeff *= max(1.0, kfac, above) ** n
    return _exp_polylog_tail(coeff, crate, n, 0.0, 0.0, N), "certified"


def _divergence_certified(m: Symbol, case: RegimeCase) -> bool:
    """Diverges along the diagonal subfamily nu = (j,...,j), j > k, when the
    comparison exponent n*alpha - beta*r is >= -1 (lower envelope required)."""
    low = m.lower_envelope
    if low is None:
        return False
    q = m.dimension * case.alpha_float - float(low.beta) * case.r_float
    return q >= -1.0


class _Report:
    """JSON view of a report dataclass: {"schema": 1}, then each field in
    declaration order, a nested report as its own view and a dict sorted
    by key."""

    def to_json_obj(self):
        obj = {"schema": 1}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, _Report):
                value = value.to_json_obj()
            elif isinstance(value, dict):
                value = dict(sorted(value.items()))
            obj[f.name] = value
        return obj


@dataclass(frozen=True)
class CriterionReport(_Report):
    """Outcome of one summability criterion evaluation."""

    criterion: str
    partial_sum: float
    tail_bound: float | None
    tail_kind: str | None
    truncation_order: int
    verdict: str
    p1: str
    p2: str
    r: str
    k: int | None
    p2_regime: str | None
    p1_branch: str | None
    alpha: float | None
    log_power: float | None
    symbol: str
    tolerance: float

    def __post_init__(self):
        if self.verdict not in ("finite", "divergent", "inconclusive"):
            raise DomainError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "finite":
            if self.tail_bound is None or not self.tail_bound < self.tolerance:
                raise DomainError("finite verdict requires a tail bound below tolerance")
            if self.tail_kind not in ("certified", "exact"):
                raise DomainError("finite verdict requires a certified or exact tail, "
                                  f"got {self.tail_kind!r}")
        if self.partial_sum < 0:
            raise DomainError("partial sum must be nonnegative")

    @classmethod
    def from_json_obj(cls, obj) -> "CriterionReport":
        if obj.get("schema") != 1:
            raise DomainError("unsupported report schema")
        return cls(**{f.name: obj[f.name] for f in fields(cls)})


def _check_tol(tol) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be finite and positive, got {tol}")


def _criterion_tail(m: Symbol, N: int, r: float, weight, exp_tail):
    """(tail_bound, kind) beyond order N, or (None, None) when there is none.

    A table's tail is its exact weighted sum; a finite envelope's is zero
    once N covers its support; a zero envelope constant certifies zero;
    an exponential envelope goes to the criterion's own ``exp_tail``.
    """
    if m.table is not None:
        return math.fsum(
            weight(key) * abs(v) ** r
            for key, v in m.support_items()
            if sum(key) > N and v != 0.0
        ), "exact"
    env = m.envelope
    if env is None:
        return None, None
    if env.kind == "finite":
        return (0.0, "exact") if N >= env.support_order else (None, None)
    if env.C == 0.0:
        return 0.0, "certified"
    if env.kind != "exponential":
        return None, None
    return exp_tail(N)


def _memo(f):
    """f keeping its values, for the few orders one call evaluates twice."""
    seen = {}

    def g(order):
        if order not in seen:
            seen[order] = f(order)
        return seen[order]
    return g


def _default_order(env, tail, orders, floor: int, tol: float, lower, r: float = 1.0) -> int:
    """The truncation order of a sum given no order, from its tail bounds alone.

    The least N >= floor with tail(N) below tol and at most _UNIT_ROUNDOFF
    times ``lower()``, a lower bound on the sum, so that what any larger
    order adds is below the sum's last bit.  ``orders`` are the doubled
    orders: the result is never past the first of them whose tail is below
    tol or None, nor past the last, and where no smaller order qualifies,
    that doubling stands.

    Under an exponential envelope the terms of the tail bound (C^r e^{-r rate K}
    times level counts and factor bounds that do not decrease in K) shrink
    by at most e^{-r rate} a level, so the bound does too: from a bound t
    above the target, the next ln(t / target) / (r rate) orders are all
    above it, and the search jumps past them.  A finite
    envelope's tail vanishes from its support order on, where the sum is
    that of every larger order bit for bit.
    """
    best = None
    if env is not None and env.kind == "finite":
        best = max(floor, env.support_order)
    elif env is not None and env.kind == "exponential":
        bound = _UNIT_ROUNDOFF * lower()
        target = min(tol, bound)
        N = floor
        while N <= orders[-1]:
            t = tail(N)
            if t < tol and t <= bound:
                best = N
                break
            if not (target > 0.0 and t < math.inf):
                break
            # less 1e-6: the bound may exceed the true tail by a relative 1e-9
            N += max(1, math.ceil((math.log(t / target) - 1e-6) / (r * env.rate)))
    for order in orders:
        if best is not None and order >= best:
            return best
        t = tail(order)
        if t is None or t < tol:
            return order
    return orders[-1]


def _criterion(criterion: str, m: Symbol, N: int | None, floor: int, tol: float,
               exponents, case: RegimeCase | None, column, weight, exp_tail,
               first: float, divergent: bool = False) -> CriterionReport:
    """The truncation order, sum, verdict and report both criteria share.

    The order is N (an integer >= floor), or else max(200 n, floor) when
    divergence is certified, or else ``_default_order`` over that order
    doubled up to _MAX_DOUBLINGS times, from ``floor`` up, with the sum's
    first term |m(0)|^r first^n as its lower bound.  ``column(top)`` gives
    the factors of entries 0..top, built once; ``weight`` and ``exp_tail``
    are the criterion's table weight and exponential tail
    (``_criterion_tail``).  ``exponents`` is (p1, p2, r); ``case`` the
    weight-law case, or None.
    """
    _check_tol(tol)
    p1, p2, r = exponents
    rfl = case.r_float if case else float(r)
    if N is not None:
        N = _check_order(N, floor)
    tail = _memo(lambda order: _criterion_tail(m, order, rfl, weight, exp_tail))
    if N is None:
        n = m.dimension
        orders = [max(200 * n, floor) * 2 ** i for i in range(_MAX_DOUBLINGS + 1)]
        N = orders[0] if divergent else _default_order(
            m.envelope, lambda order: tail(order)[0], orders, floor, tol,
            lambda: abs(m((0,) * n)) ** rfl * first ** n, rfl)
    # a table's terms stop at its largest order, and so do the factors they use
    top = N if m.table is None else min(N, max(map(sum, m.table), default=0))
    col = column(top)
    bound, kind = tail(N)
    partial = lattice_sum(m, top, term=lambda v: abs(v) ** rfl, factors=col)
    finite = bound is not None and bound < tol
    verdict = "divergent" if divergent else "finite" if finite else "inconclusive"
    return CriterionReport(
        criterion=criterion,
        partial_sum=partial,
        tail_bound=bound,
        tail_kind=kind,
        truncation_order=N,
        verdict=verdict,
        p1=str(p1),
        p2=_exponent_str(p2),
        r=str(r),
        k=case.k if case else None,
        p2_regime=case.p2_regime if case else None,
        p1_branch=case.p1_branch if case else None,
        alpha=case.alpha_float if case else None,
        log_power=case.log_power_float if case else None,
        symbol=m.label,
        tolerance=tol,
    )


def kappa_sum(m: Symbol, case: RegimeCase, N: int | None = None,
              tol: float = 1e-8) -> CriterionReport:
    """Weighted partial sum of |m|^r with the case's weight law, plus verdict."""
    return _criterion(
        "kappa", m, N, case.k * m.dimension, tol, (case.p1, case.p2, case.r), case,
        column=lambda top: case.entry_factors(range(top + 1)),
        weight=lambda entries: kappa_weight(case, entries),
        exp_tail=lambda N_used: _kappa_tail(m, case, N_used),
        first=case.entry_factors((0,))[0],
        divergent=_divergence_certified(m, case),
    )


def _sr_factors(p2, p1_conj, r: float, top: int) -> np.ndarray:
    """(||phi_u||_{p2} ||phi_u||_{p1'})^r for u = 0..top, from one lp_norms_1d
    array per exponent; refused before any norm is computed when either
    array is over the work budget."""
    ps = (_float_exponent(p2), _float_exponent(p1_conj))
    for p in ps:
        check_budget(top, p, top + 1)
    a, b = (lp_norms_1d(top, p).tolist() for p in ps)
    return np.array([(x * y) ** r for x, y in zip(a, b)])


def _norm_bound(p) -> tuple[float, Fraction]:
    """(c, g) with ||phi_u||_p <= c (u + 3/2)^g at every degree u.

    For p >= 2, from ||phi_u||_2 = 1 and |phi_u| <= pi^(-1/4):
    c = pi^(-(1 - 2/p)/4), g = 0.  For 1 <= p <= 2, from ||phi_u||_2 = 1
    and ||phi_u||_1 <= sqrt(pi (u + 3/2)): c = pi^g, g = 1/p - 1/2.
    """
    inv = Fraction(0) if p == math.inf else 1 / Fraction(p)
    g = inv - Fraction(1, 2)
    if g <= 0:
        return math.pi ** float(g / 2), Fraction(0)
    return math.pi ** float(g), g


def _phi0_norm(p: float) -> float:
    """||phi_0||_p = pi^(-1/4) (2 pi / p)^(1/(2p)), pi^(-1/4) at p = inf."""
    if p == math.inf:
        return math.pi ** -0.25
    return math.pi ** -0.25 * (2.0 * math.pi / p) ** (0.5 / p)


def _sr_tail(m: Symbol, p2, p1_conj, r: float, N: int):
    """Certified tail of the direct sum under an exponential envelope,
    known before any norm is computed.

    By ``_norm_bound`` the factor of nu is at most
    (c(p2) c(p1'))^(r n) prod_j (nu_j + 3/2)^gamma with
    gamma = r (g(p2) + g(p1')), and by AM-GM, on level K,
    prod_j (nu_j + 3/2) <= (K/n + 3/2)^n <= (3/2)^n (1 + K)^n.
    """
    env = m.envelope
    n = m.dimension
    (c2, g2), (c1, g1) = _norm_bound(p2), _norm_bound(p1_conj)
    gamma = r * float(g2 + g1)
    coeff = env.C ** r * ((c2 * c1) ** r * 1.5 ** gamma) ** n
    return _exp_polylog_tail(coeff, r * env.rate, n, n * gamma, 0.0, N), "certified"


def s_r_sum(m: Symbol, p1, p2, r, N: int | None = None,
            tol: float = 1e-8) -> CriterionReport:
    """Direct summability sum with quadrature norms:
    sum over nu of |m(nu)|^r (norm_{p2}(phi_nu) norm_{p1'}(phi_nu))^r.

    The norms of all degrees up to a truncation order come from one
    ``lp_norms_1d`` sweep per (order, p).  A finite table's
    sum stops at its largest order, and so do its norms.  Each order is
    refused with CapabilityError before any of its norms is computed when
    the estimated work of either exponent's norms up to it exceeds the
    work budget.  With no N, the order comes from the certified tail
    (``_sr_tail``) before any norm is computed, and the norms are swept once.
    """
    if p1 == math.inf:
        raise DomainError("p1 must be finite")
    p1f = _as_fraction(p1, "p1")
    if p1f < 1:
        raise DomainError(f"p1 must be >= 1, got {p1f}")
    p2f, rf = _p2_and_r(p2, r)
    p1_conj = math.inf if p1f == 1 else p1f / (p1f - 1)
    rfl = float(rf)
    p2x, p1x = _float_exponent(p2f), _float_exponent(p1_conj)
    try:
        regime = classify_regime(p1f, p2f, rf)
    except (UnsupportedRegimeError, DomainError):
        regime = None
    return _criterion(
        "s_r", m, N, 0, tol, (p1f, p2f, rf), regime,
        column=lambda top: _sr_factors(p2f, p1_conj, rfl, top),
        # a table's tail takes each degree's own norms: the sweep's column
        # can differ from them in the last bits
        weight=lambda entries: math.prod(
            (lp_norm_1d(u, p2x) * lp_norm_1d(u, p1x)) ** rfl for u in entries),
        exp_tail=lambda N_used: _sr_tail(m, p2f, p1_conj, rfl, N_used),
        first=(_phi0_norm(p2x) * _phi0_norm(p1x)) ** rfl,
    )


@dataclass(frozen=True)
class RatioReport(_Report):
    """Empirical two-sided comparison of the direct and asymptotic sums."""

    ratio: float
    ratio_doubled: float
    drift: float
    truncation_order: int
    anomaly: bool
    sr_partial: float
    sr_partial_doubled: float
    kappa_partial: float
    kappa_partial_doubled: float


def _ratio(sr: float, kp: float):
    if sr == 0.0 and kp == 0.0:
        return 1.0, False
    if sr == 0.0 or kp == 0.0:
        return math.nan, True
    return sr / kp, False


def compare_sr_kappa(m: Symbol, case: RegimeCase, N: int | None = None) -> RatioReport:
    """Ratio of partial sums at N and at 2N; the drift between the two is
    the stabilization diagnostic."""
    n = m.dimension
    N0 = _check_order(N if N is not None else max(200 * n, case.k * n), case.k * n)
    results = {}
    for order in (N0, 2 * N0):
        kp = kappa_sum(m, case, N=order).partial_sum
        sr = s_r_sum(m, case.p1, case.p2, case.r, N=order).partial_sum
        results[order] = (sr, kp)
    sr1, kp1 = results[N0]
    sr2, kp2 = results[2 * N0]
    ratio1, bad1 = _ratio(sr1, kp1)
    ratio2, bad2 = _ratio(sr2, kp2)
    anomaly = bad1 or bad2
    if anomaly or ratio1 == 0.0:
        drift = math.nan
    else:
        drift = abs(ratio2 - ratio1) / abs(ratio1)
    return RatioReport(
        ratio=ratio1,
        ratio_doubled=ratio2,
        drift=drift,
        truncation_order=N0,
        anomaly=anomaly,
        sr_partial=sr1,
        sr_partial_doubled=sr2,
        kappa_partial=kp1,
        kappa_partial_doubled=kp2,
    )


def gl_condition(p) -> Fraction:
    """Summability order 1/(1 + |1/p - 1/2|), exact for rational p."""
    if p == math.inf:
        raise DomainError("p must be finite")
    pf = _as_fraction(p, "p")
    if pf < 1:
        raise DomainError(f"p must lie in [1, inf), got {pf}")
    return 1 / (1 + abs(Fraction(1) / pf - Fraction(1, 2)))
