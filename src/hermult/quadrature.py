"""Quadrature rules, L^p norms of Hermite functions, and norm models.

``lp_norm_1d`` takes one of three routes, chosen by p and the degree n:

- Even p (2, 4, 6, ...): under x = y*sqrt(2/p), |phi_n(x)|^p is a
  polynomial of degree p*n in y times e^{-y^2}, so the Gauss-Hermite rule
  with M = p*n/2 + 1 nodes integrates it exactly.  Its weights are taken
  from the Christoffel-Darboux identity w_i e^{y_i^2} = 1/(M phi_{M-1}(y_i)^2),
  which stays in the double range where the plain weights underflow.
  There is no refinement, so the tolerance is only validated.
- p = inf: on x > 0, f = phi^2 + phi'^2/(lambda - x^2) with lambda = 2n + 1
  has f' = 2x phi'^2/(lambda - x^2)^2 >= 0, so the relative maxima of |phi_n|
  increase on (0, sqrt(lambda)) (Sonin's argument, Szego, Orthogonal
  Polynomials, 7.6); past sqrt(lambda) |phi_n| is convex and decays.  The
  maximum therefore lies on the last lobe, between the largest zero and
  sqrt(lambda), where a 65-point grid is zoomed in on it.
- Other p (odd, fractional, p = 1): |phi_n|^p is integrated over
  [-R, R] with R = sqrt(2*lambda) + 12, split at the zeros of phi_n so
  each panel sees a smooth lobe, and all panels are refined by bisection
  until two successive global estimates agree to the tolerance.

Even p whose node count M would make the exact rule dearer than the work
budget takes the bisection route.  A norm whose recurrence work exceeds
``NORM_WORK_BUDGET`` is refused with ``CapabilityError``: up front from its
estimated work, and during bisection before the pass that would cross it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_hermite

from ._accel import phi_row, weighted_abs_power_sum
from .errors import CapabilityError, ConvergenceError, DomainError
# eval_phi_1d stays a module attribute for code that looks it up here.
from .hermite_core import MAX_DEGREE_DEFAULT, as_entries, eval_phi_1d  # noqa: F401

_GH_MAX_NODES = 10_000
_GL_ORDER = 16
_MAX_REFINEMENTS = 12
_RHO_TOL = 1e-10

# Recurrence work of a norm is counted in point-steps: a phi_row call over
# P points at degree n costs n * (P + _STEP_POINTS), because each step of
# the numpy backend's recurrence has a fixed cost about that of 4096 point
# updates (19 us against 4.5 ns per point on a 2-vCPU Xeon).
_STEP_POINTS = 4096
# Work above which a norm is refused; on that machine the numpy backend
# takes 4-15 s for it, the most for the bisection route's wide grids.
NORM_WORK_BUDGET = 1e9
# Entries of the norm cache: an s_r_sum at N = 200 computes about 400.
_NORM_CACHE_SIZE = 4096

_SUP_POINTS = 65
# The sup search stops once the grid's best point is within
# lambda * h^2 / 8 <= 2^-53 of the maximum in log magnitude.
_SUP_STOP = 8.0 * 2.0 ** -53


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights, tagged by construction."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    truncation_radius: float | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise DomainError("nodes and weights must be 1d arrays of equal length")
        if len(nodes) > 1 and not np.all(np.diff(nodes) > 0):
            raise DomainError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise DomainError("weights must all be positive")
        if self.kind not in ("gauss_hermite", "truncated_adaptive"):
            raise DomainError(f"unknown rule kind {self.kind!r}")
        has_radius = self.truncation_radius is not None
        if has_radius != (self.kind == "truncated_adaptive"):
            raise DomainError("truncation_radius present iff kind is truncated_adaptive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return len(self.nodes)


def gauss_hermite_rule(M: int) -> QuadratureRule:
    """M-point Gauss-Hermite rule for the weight e^{-x^2}.

    For large M the outermost weights fall below the double range; they
    are floored at the smallest subnormal so positivity holds while the
    numeric effect stays nil.
    """
    if not isinstance(M, (int, np.integer)) or isinstance(M, bool) or not 1 <= M <= _GH_MAX_NODES:
        raise CapabilityError(f"node count must be an int in [1, {_GH_MAX_NODES}], got {M!r}")
    nodes, weights = roots_hermite(int(M))
    weights = np.maximum(weights, np.nextafter(0.0, 1.0))
    return QuadratureRule(nodes=nodes, weights=weights, kind="gauss_hermite")


@functools.lru_cache(maxsize=32)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def truncated_rule(radius: float, panels: int = 64, order: int = _GL_ORDER) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [-radius, radius]."""
    radius = float(radius)
    if not (radius > 0 and math.isfinite(radius)):
        raise DomainError(f"radius must be positive and finite, got {radius}")
    if panels < 1:
        raise DomainError("panels must be >= 1")
    edges = np.linspace(-radius, radius, panels + 1)
    x, w = _leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return QuadratureRule(
        nodes=nodes, weights=weights, kind="truncated_adaptive", truncation_radius=radius
    )


def _panel_nodes(edges: np.ndarray):
    x, w = _leggauss(_GL_ORDER)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _bisect(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(2 * len(edges) - 1)
    out[0::2] = edges
    out[1::2] = mids
    return out


def _initial_edges(degree: int, R: float) -> np.ndarray:
    """Panel edges on [0, R]: Hermite zeros plus a subdivided outer region."""
    if degree == 0:
        interior = np.array([])
    else:
        z = roots_hermite(degree)[0]
        interior = z[z > 1e-12]
    z0 = interior[-1] if len(interior) else 0.0
    tail_panels = 24
    tail = np.linspace(z0, R, tail_panels + 1)[1:]
    head = np.linspace(0.0, interior[0], 3)[1:-1] if len(interior) else np.linspace(0.0, R, 9)[1:-1]
    edges = np.concatenate([[0.0], head, interior, tail])
    return np.unique(edges)


def _half_line_integral(degree: int, p: float, edges: np.ndarray) -> float:
    nodes, weights = _panel_nodes(edges)
    vals, logs = phi_row(nodes, degree)
    return weighted_abs_power_sum(vals, logs, weights, p)


def _phi_row_work(points: int, degree: int) -> float:
    return float(degree) * (points + _STEP_POINTS)


def _panel_work(edges: np.ndarray, degree: int) -> float:
    return _phi_row_work(_GL_ORDER * (len(edges) - 1), degree)


def _lp_integral_1d(degree: int, p: float, tol: float) -> float:
    """Adaptive evaluation of the full-line integral of |phi_degree|^p."""
    lam = 2.0 * degree + 1.0
    R = math.sqrt(2.0 * lam) + 12.0
    edges = _initial_edges(degree, R)
    history = [_half_line_integral(degree, p, edges)]
    spent = _panel_work(edges, degree)
    for _ in range(_MAX_REFINEMENTS):
        edges = _bisect(edges)
        spent += _panel_work(edges, degree)
        if spent > NORM_WORK_BUDGET:
            raise CapabilityError(
                f"L^{p} integral for degree {degree} needs more than {NORM_WORK_BUDGET:.0e} "
                f"point-steps of recurrence work to reach {tol}; half-line estimates so far: "
                f"{history}"
            )
        history.append(_half_line_integral(degree, p, edges))
        if abs(history[-1] - history[-2]) <= tol * abs(history[-1]):
            return 2.0 * history[-1]
    raise ConvergenceError(
        f"L^{p} integral for degree {degree} did not converge to {tol}",
        last_two=(2.0 * history[-2], 2.0 * history[-1]),
    )


def _even_rule_nodes(degree: int, p: float) -> int:
    return int(p) // 2 * degree + 1


def _even_p_integral_1d(degree: int, p: float) -> float:
    """Exact integral of |phi_degree|^p for even p by an M-point Gauss-Hermite rule."""
    M = _even_rule_nodes(degree, p)
    y = roots_hermite(M)[0][M // 2:]
    vals, logs = phi_row(y, M - 1)
    # w_i e^{y_i^2}, doubled for the mirrored node -y_i except at y_i = 0
    weights = 2.0 * np.exp(-math.log(M) - 2.0 * (np.log(np.abs(vals)) + logs))
    if M % 2:
        weights[0] *= 0.5
    scale = math.sqrt(2.0 / p)
    vals, logs = phi_row(scale * y, degree)
    return scale * weighted_abs_power_sum(vals, logs, weights, p)


def _sup_calls(lam: float) -> int:
    """Upper bound on the grid calls of _sup_norm_1d: the last lobe is
    narrower than 2, each call divides the spacing by 32, and the curvature
    of log|phi| is below lambda."""
    h0 = 2.0 / (_SUP_POINTS - 1)
    return 1 + max(0, math.ceil(math.log(h0 * math.sqrt(lam / _SUP_STOP), 32)))


def _sup_norm_1d(degree: int) -> float:
    """max |phi_degree|, searched on the last lobe [largest zero, sqrt(2n+1)].

    Each call evaluates a 65-point grid on the bracket and narrows it to
    the two cells around the best point, which keeps the maximum because
    phi is concave on the lobe.  The curvature of log|phi| there is
    lambda - x^2, at most lambda - a^2 on [a, b].
    """
    if degree == 0:
        return math.pi ** -0.25
    lam = 2.0 * degree + 1.0
    a, b = float(roots_hermite(degree)[0][-1]), math.sqrt(lam)
    best = -math.inf
    while True:
        grid = np.linspace(a, b, _SUP_POINTS)
        vals, logs = phi_row(grid, degree)
        with np.errstate(divide="ignore"):
            logmag = np.log(np.abs(vals)) + logs
        i = int(np.argmax(logmag))
        best = max(best, float(logmag[i]))
        h = grid[1] - grid[0]
        if (lam - a * a) * h * h <= _SUP_STOP:
            return math.exp(best)
        a, b = grid[max(i - 1, 0)], grid[min(i + 1, _SUP_POINTS - 1)]


def _norm_route(degree: int, p: float):
    """(route, estimated point-steps of recurrence work) of one norm.

    The bisection estimate counts its first two passes, the fewest it
    makes; the loop itself stops before a pass that would cross the budget.
    """
    if math.isinf(p):
        return "sup", _sup_calls(2.0 * degree + 1.0) * _phi_row_work(_SUP_POINTS, degree)
    if p.is_integer() and int(p) % 2 == 0:
        M = _even_rule_nodes(degree, p)
        half = M - M // 2
        work = _phi_row_work(half, M - 1) + _phi_row_work(half, degree)
        if work <= NORM_WORK_BUDGET:
            return "even", work
    panels = degree // 2 + 32
    work = sum(_phi_row_work(k * _GL_ORDER * panels, degree) for k in (1, 2))
    return "bisection", work


@functools.lru_cache(maxsize=_NORM_CACHE_SIZE)
def _lp_norm_1d_cached(degree: int, p: float, tol: float) -> float:
    route, work = _norm_route(degree, p)
    if work > NORM_WORK_BUDGET:
        raise CapabilityError(
            f"||phi_{degree}||_{p} needs about {work:.2g} point-steps of recurrence work, "
            f"above the budget {NORM_WORK_BUDGET:.0e}"
        )
    if route == "sup":
        return _sup_norm_1d(degree)
    if route == "even":
        return _even_p_integral_1d(degree, p) ** (1.0 / p)
    return _lp_integral_1d(degree, p, tol) ** (1.0 / p)


def lp_norm_1d(degree: int, p: float, tol: float = 1e-8) -> float:
    """One-dimensional norm ||phi_degree||_p.

    Even p uses the exact Gauss-Hermite rule with p*degree/2 + 1 nodes, so
    ``tol`` is only validated; p = inf searches the last lobe, where
    Sonin's argument places the maximum; other p refine panels split at
    the zeros by bisection until two estimates agree to ``tol``.  Raises
    CapabilityError, before any recurrence work, when the estimated work
    exceeds NORM_WORK_BUDGET point-steps (for example degree 10**6 at
    p = 4, or degree 10**4 at p = 1), and during bisection before a pass
    that would cross it.
    """
    if not isinstance(degree, (int, np.integer)) or isinstance(degree, bool) or degree < 0:
        raise DomainError(f"degree must be a nonnegative int, got {degree!r}")
    if degree > MAX_DEGREE_DEFAULT:
        raise CapabilityError(f"degree {degree} exceeds {MAX_DEGREE_DEFAULT}")
    p = float(p)
    if not (p >= 1.0):
        raise DomainError(f"p must be in [1, inf], got {p}")
    if not 1e-14 < tol < 1e-2:
        raise DomainError(f"tol must be in (1e-14, 1e-2), got {tol}")
    return _lp_norm_1d_cached(int(degree), p, float(tol))


def lp_norm_phi(nu, p: float, tol: float = 1e-8) -> float:
    """||phi_nu||_p for a multi-index, via tensor factorization."""
    entries = as_entries(nu)
    out = 1.0
    for e in entries:
        out *= lp_norm_1d(e, p, tol)
    return out


def norm_regime(p: float) -> str:
    p = float(p)
    if not (p >= 1.0):
        raise DomainError(f"p must be in [1, inf], got {p}")
    if p < 4.0:
        return "sub4"
    if p == 4.0:
        return "eq4"
    return "super4"


def norm_model_exponent(p: float) -> float:
    """The pure-power exponent of the norm model at Lebesgue exponent p."""
    regime = norm_regime(p)
    if regime == "sub4":
        return 1.0 / (2.0 * p) - 0.25
    if regime == "eq4":
        return -0.125
    if math.isinf(p):
        return -1.0 / 12.0
    return -1.0 / (6.0 * p) - 1.0 / 12.0


def norm_model(nu_1d, p: float, k: int = 10) -> float:
    """Model factor for ||phi_nu||_p: frozen at rho_k for nu <= k, power law above.

    The p = 4 branch carries the ln(nu) factor; all models are defined
    up to an absolute constant.
    """
    nu = float(nu_1d)
    if nu < 0 or not math.isfinite(nu):
        raise DomainError(f"degree must be nonnegative and finite, got {nu_1d!r}")
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 2:
        raise DomainError(f"cutoff k must be an int >= 2, got {k!r}")
    p = float(p)
    regime = norm_regime(p)
    if nu <= k:
        return _lp_norm_1d_cached(int(k), p, _RHO_TOL)
    e = norm_model_exponent(p)
    if regime == "eq4":
        return nu ** e * math.log(nu)
    return nu ** e


@dataclass(frozen=True)
class NormEstimate:
    """Computed norm next to its model prediction (constant unknown)."""

    p: float
    degree: object
    computed: float
    predicted: float
    regime: str

    def __post_init__(self):
        if not self.computed > 0:
            raise DomainError("computed norm must be positive")
        if self.regime != norm_regime(self.p):
            raise DomainError(f"regime {self.regime!r} inconsistent with p = {self.p}")


def norm_estimate(nu, p: float, k: int = 10, tol: float = 1e-8) -> NormEstimate:
    """Bundle the quadrature norm of phi_nu with its model value."""
    entries = as_entries(nu)
    computed = lp_norm_phi(entries, p, tol)
    predicted = 1.0
    for e in entries:
        predicted *= norm_model(e, p, k)
    degree = entries[0] if len(entries) == 1 else entries
    return NormEstimate(
        p=float(p), degree=degree, computed=computed, predicted=predicted, regime=norm_regime(p)
    )


def _fit_degrees(lo: int, hi: int, samples: int) -> np.ndarray:
    degrees = np.unique(np.rint(np.geomspace(lo, hi, samples)).astype(int))
    return degrees


def fit_norm_exponent(p: float, degree_range, samples: int = 10, tol: float = 1e-8) -> float:
    """Least-squares slope of log ||phi_nu||_p against log nu.

    At p = 4 the model carries a logarithmic factor, so the fit runs
    jointly in (log nu, log log nu) and the power coefficient is
    returned; fit_norm_exponent_p4 exposes the fitted log power too.
    """
    if float(p) == 4.0:
        return fit_norm_exponent_p4(degree_range, samples, tol)[0]
    slope, _ = _fit(p, degree_range, samples, tol, with_log_term=False)
    return slope


def fit_norm_exponent_p4(degree_range, samples: int = 10, tol: float = 1e-8):
    """(power, log_power) from the joint fit at p = 4."""
    return _fit(4.0, degree_range, samples, tol, with_log_term=True)


def _fit(p, degree_range, samples, tol, with_log_term):
    lo, hi = (int(degree_range[0]), int(degree_range[1]))
    if not (10 <= lo < hi):
        raise DomainError(f"degree range must satisfy 10 <= lo < hi, got [{lo}, {hi}]")
    if samples < 8:
        raise DomainError(f"need at least 8 samples, got {samples}")
    degrees = _fit_degrees(lo, hi, samples)
    if len(degrees) < 2:
        raise DomainError("fewer than 2 distinct degrees in the fit range")
    logs = np.log(degrees.astype(float))
    ys = np.array([math.log(lp_norm_1d(int(d), p, tol)) for d in degrees])
    cols = [np.ones_like(logs), logs]
    if with_log_term:
        cols.append(np.log(logs))
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    if with_log_term:
        return float(coef[1]), float(coef[2])
    return float(coef[1]), None
