"""Summability criteria for Hermite multipliers.

Two sums decide r-summability of a symbol m over exponent pairs
(p1, p2): the direct sum s_r built from quadrature Lp norms, and an
asymptotic surrogate built from closed-form weight laws.  The weight
law depends on where p2 falls relative to 4 and where p1 falls
relative to 4/3, giving nine cases; every weight factors over the
entries of nu, with entries <= k contributing a constant k-factor and
entries > k contributing u^alpha (ln u)^lambda.

Verdicts are three-valued: "finite" requires a tail bound below the
tolerance, "divergent" requires a certified lower bound with a
divergent comparison series, anything else is "inconclusive".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, UnsupportedRegimeError
from .hermite_core import as_entries
from .quadrature import lp_norm_1d, norm_model_exponent
from .spectral_ops import Symbol, _exp_polylog_tail, lattice_sum

_MAX_DOUBLINGS = 6
_P1_HYPOTHESIS = "1 < p1 < infinity"


def _as_fraction(value, name: str, allow_inf: bool = False):
    """Exact rational view of an exponent; floats snap to small rationals."""
    if value == math.inf:
        if allow_inf:
            return math.inf
        raise DomainError(f"{name} must be finite")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
        return Fraction(value).limit_denominator(1_000_000)
    raise DomainError(f"{name} has unsupported type {type(value).__name__}")


def _inv(p) -> Fraction:
    """1/p as a Fraction, with 1/inf = 0."""
    return Fraction(0) if p == math.inf else Fraction(1) / p


def _exponent_str(p) -> str:
    return "inf" if p == math.inf else str(p)


def _parse_exponent(text: str):
    if text == "inf":
        return math.inf
    return Fraction(text)


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

    def entry_factors(self, us) -> list[float]:
        """Per-entry weight factors: constant below the cutoff, u^a (ln u)^l above."""
        a = float(self.alpha)
        lam = float(self.log_power)
        k = self.k
        return [v ** a * math.log(v) ** lam for v in (u if u > k else k for u in us)]


def _weight_law(p2_regime: str, p1_branch: str, p1: Fraction, p2, r: Fraction):
    """(alpha, log_power) for the nine cases."""
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)
    p1inv = _inv(p1)
    p2inv = _inv(p2)
    if p2_regime == "sub4":
        if p1_branch == "gt43":
            return r * half * (p2inv - p1inv), Fraction(0)
        if p1_branch == "eq43":
            return r * half * (p2inv - Fraction(3, 4)), r
        return r * half * (p2inv + p1inv / 3 - 1), Fraction(0)
    if p2_regime == "eq4":
        if p1_branch == "gt43":
            return r * half * (Fraction(1, 4) - p1inv), r
        if p1_branch == "eq43":
            return -r / 4, 2 * r
        return r * sixth * (p1inv - Fraction(9, 4)), r
    # super4; 1/p2' = 1 - 1/p2
    if p1_branch == "gt43":
        return r * half * ((1 - p2inv) / 3 - p1inv), Fraction(0)
    if p1_branch == "eq43":
        return -r * sixth * (p2inv + Fraction(5, 4)), r
    return r * sixth * (p1inv - p2inv - 2), Fraction(0)


def classify_regime(p1, p2, r, k: int = 10) -> RegimeCase:
    """Resolve (p1, p2, r) to its weight-law case with exact arithmetic."""
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
    p2f = _as_fraction(p2, "p2", allow_inf=True)
    if p2f != math.inf and p2f < 1:
        raise DomainError(f"p2 must lie in [1, inf], got {p2f}")
    rf = _as_fraction(r, "r")
    if not 0 < rf <= 1:
        raise DomainError(f"r must lie in (0, 1], got {rf}")
    if not isinstance(k, int) or k < 2:
        raise DomainError(f"cutoff k must be an integer >= 2, got {k!r}")

    if p2f == math.inf or p2f > 4:
        p2_regime = "super4"
    elif p2f == 4:
        p2_regime = "eq4"
    else:
        p2_regime = "sub4"
    four_thirds = Fraction(4, 3)
    if p1f > four_thirds:
        p1_branch = "gt43"
    elif p1f == four_thirds:
        p1_branch = "eq43"
    else:
        p1_branch = "lt43"

    alpha, log_power = _weight_law(p2_regime, p1_branch, p1f, p2f, rf)
    return RegimeCase(
        p1=p1f, p2=p2f, r=rf, p2_regime=p2_regime, p1_branch=p1_branch,
        k=k, alpha=alpha, log_power=log_power, p1_conj=p1f / (p1f - 1),
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
    if not isinstance(k, int) or k < 2:
        raise DomainError(f"cutoff k must be an integer >= 2, got {k!r}")
    entries = as_entries(nu)
    return sum(1 for u in entries if u <= k)


def partition_cells(dimension: int, k: int):
    return [PartitionCell(s=s, k=k, dimension=dimension) for s in range(dimension + 1)]


def kappa_weight(case: RegimeCase, nu) -> float:
    """Product of per-entry factors; strictly positive."""
    return math.prod(case.entry_factors(as_entries(nu)))


def _finite_table_tail(m: Symbol, weight_fn, N: int, r: float) -> float:
    return math.fsum(
        weight_fn(key) * abs(v) ** r
        for key, v in m.support_items()
        if sum(key) > N and v != 0.0
    )


def _kappa_tail(m: Symbol, case: RegimeCase, N: int):
    """(tail_bound, kind) with kind in {"exact", "certified"}, or (None, None)."""
    r = float(case.r)
    if m.table is not None:
        return _finite_table_tail(m, lambda e: kappa_weight(case, e), N, r), "exact"
    env = m.envelope
    if env is None:
        return None, None
    if env.kind == "finite":
        return (0.0, "exact") if N >= env.support_order else (None, None)
    if env.C == 0.0:
        return 0.0, "certified"
    if env.kind != "exponential":
        return None, None
    n = m.dimension
    alpha = float(case.alpha)
    lam = float(case.log_power)
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
    q = m.dimension * float(case.alpha) - float(low.beta) * float(case.r)
    return q >= -1.0


@dataclass(frozen=True)
class CriterionReport:
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
        if self.partial_sum < 0:
            raise DomainError("partial sum must be nonnegative")

    def to_json_obj(self):
        return {
            "schema": 1,
            "criterion": self.criterion,
            "partial_sum": self.partial_sum,
            "tail_bound": self.tail_bound,
            "tail_kind": self.tail_kind,
            "truncation_order": self.truncation_order,
            "verdict": self.verdict,
            "p1": self.p1,
            "p2": self.p2,
            "r": self.r,
            "k": self.k,
            "p2_regime": self.p2_regime,
            "p1_branch": self.p1_branch,
            "alpha": self.alpha,
            "log_power": self.log_power,
            "symbol": self.symbol,
            "tolerance": self.tolerance,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "CriterionReport":
        if obj.get("schema") != 1:
            raise DomainError("unsupported report schema")
        fields = {key: obj[key] for key in (
            "criterion", "partial_sum", "tail_bound", "tail_kind",
            "truncation_order", "verdict", "p1", "p2", "r", "k",
            "p2_regime", "p1_branch", "alpha", "log_power", "symbol", "tolerance",
        )}
        return cls(**fields)


def _resolve_verdict(tail, kind, tol, divergent):
    if divergent:
        return "divergent"
    if tail is not None and tail < tol:
        return "finite"
    return "inconclusive"


def kappa_sum(m: Symbol, case: RegimeCase, N: int | None = None,
              tol: float = 1e-8) -> CriterionReport:
    """Weighted partial sum of |m|^r with the case's weight law, plus verdict."""
    n = m.dimension
    floor_N = case.k * n
    if N is not None:
        if N < floor_N:
            raise DomainError(f"truncation order must be >= k*n = {floor_N}")
        orders = [N]
    else:
        start = max(200 * n, floor_N)
        orders = [start * 2 ** i for i in range(_MAX_DOUBLINGS + 1)]

    divergent = _divergence_certified(m, case)
    r = float(case.r)
    tail = kind = None
    N_used = orders[0]
    for N_used in orders:
        tail, kind = _kappa_tail(m, case, N_used)
        if divergent or (tail is not None and tail < tol) or tail is None:
            break
    partial = lattice_sum(m, N_used, term=lambda v: abs(v) ** r,
                          factors=case.entry_factors(range(N_used + 1)))
    return CriterionReport(
        criterion="kappa",
        partial_sum=partial,
        tail_bound=tail,
        tail_kind=kind,
        truncation_order=N_used,
        verdict=_resolve_verdict(tail, kind, tol, divergent),
        p1=str(case.p1),
        p2=_exponent_str(case.p2),
        r=str(case.r),
        k=case.k,
        p2_regime=case.p2_regime,
        p1_branch=case.p1_branch,
        alpha=float(case.alpha),
        log_power=float(case.log_power),
        symbol=m.label,
        tolerance=tol,
    )


def _norm_factor(u: int, p) -> float:
    return lp_norm_1d(u, float(p) if p != math.inf else math.inf)


def _sr_entry_factor(u: int, p2, p1_conj, r: float) -> float:
    return (_norm_factor(u, p2) * _norm_factor(u, p1_conj)) ** r


def _sr_tail(m: Symbol, p2, p1_conj, r: float, N: int, gvec):
    """Tail for the direct sum; growth exponents come from the norm models
    and the constant is fitted on the computed range, so the bound is
    labeled empirical rather than certified."""
    if m.table is not None:
        def wf(entries):
            return math.prod(_sr_entry_factor(u, p2, p1_conj, r) for u in entries)
        return _finite_table_tail(m, wf, N, r), "exact"
    env = m.envelope
    if env is None:
        return None, None
    if env.kind == "finite":
        return (0.0, "exact") if N >= env.support_order else (None, None)
    if env.C == 0.0:
        return 0.0, "certified"
    if env.kind != "exponential":
        return None, None
    n = m.dimension
    e2 = norm_model_exponent(float(p2) if p2 != math.inf else math.inf)
    e1 = norm_model_exponent(float(p1_conj) if p1_conj != math.inf else math.inf)
    gamma = r * (max(0.0, e2) + max(0.0, e1))
    lam = r * ((1.0 if p2 == 4 else 0.0) + (1.0 if p1_conj == 4 else 0.0))
    probe = min(N, 300)
    A = 1.05 * max(
        gvec[u] / ((1.0 + u) ** gamma * math.log(2.0 + u) ** lam)
        for u in range(probe + 1)
    )
    coeff = (max(1.0, A)) ** n * env.C ** r
    crate = r * env.rate
    return _exp_polylog_tail(coeff, crate, n, n * gamma, n * lam, N), "empirical"


def s_r_sum(m: Symbol, p1, p2, r, N: int | None = None,
            tol: float = 1e-8) -> CriterionReport:
    """Direct summability sum with quadrature norms:
    sum over nu of |m(nu)|^r (norm_{p2}(phi_nu) norm_{p1'}(phi_nu))^r."""
    if p1 == math.inf:
        raise DomainError("p1 must be finite")
    p1f = _as_fraction(p1, "p1")
    if p1f < 1:
        raise DomainError(f"p1 must be >= 1, got {p1f}")
    p2f = _as_fraction(p2, "p2", allow_inf=True)
    if p2f != math.inf and p2f < 1:
        raise DomainError(f"p2 must lie in [1, inf], got {p2f}")
    rf = _as_fraction(r, "r")
    if not 0 < rf <= 1:
        raise DomainError(f"r must lie in (0, 1], got {rf}")
    p1_conj = math.inf if p1f == 1 else p1f / (p1f - 1)
    rfl = float(rf)
    n = m.dimension

    if N is not None:
        orders = [N]
    else:
        orders = [200 * n * 2 ** i for i in range(_MAX_DOUBLINGS + 1)]

    tail = kind = None
    N_used = orders[0]
    gvec = None
    for N_used in orders:
        gvec = np.array([_sr_entry_factor(u, p2f, p1_conj, rfl) for u in range(N_used + 1)])
        tail, kind = _sr_tail(m, p2f, p1_conj, rfl, N_used, gvec)
        if tail is None or (tail is not None and tail < tol):
            break

    partial = lattice_sum(m, N_used, term=lambda v: abs(v) ** rfl, factors=gvec)

    regime = None
    try:
        regime = classify_regime(p1f, p2f, rf)
    except (UnsupportedRegimeError, DomainError):
        pass
    return CriterionReport(
        criterion="s_r",
        partial_sum=partial,
        tail_bound=tail,
        tail_kind=kind,
        truncation_order=N_used,
        verdict=_resolve_verdict(tail, kind, tol, False),
        p1=str(p1f),
        p2=_exponent_str(p2f),
        r=str(rf),
        k=regime.k if regime else None,
        p2_regime=regime.p2_regime if regime else None,
        p1_branch=regime.p1_branch if regime else None,
        alpha=float(regime.alpha) if regime else None,
        log_power=float(regime.log_power) if regime else None,
        symbol=m.label,
        tolerance=tol,
    )


@dataclass(frozen=True)
class RatioReport:
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

    def to_json_obj(self):
        return {
            "schema": 1,
            "ratio": self.ratio,
            "ratio_doubled": self.ratio_doubled,
            "drift": self.drift,
            "truncation_order": self.truncation_order,
            "anomaly": self.anomaly,
            "sr_partial": self.sr_partial,
            "sr_partial_doubled": self.sr_partial_doubled,
            "kappa_partial": self.kappa_partial,
            "kappa_partial_doubled": self.kappa_partial_doubled,
        }


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
    N0 = N if N is not None else max(200 * n, case.k * n)
    if N0 < case.k * n:
        raise DomainError(f"truncation order must be >= k*n = {case.k * n}")
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
