"""Quadrature rules, L^p norms of Hermite functions, and norm models.

``lp_norm_1d`` takes one of six routes (``_route``), at even p from 6 on
by the route rule below.  None refines, so the tolerance is only validated.

- p = 2: the Hermite functions are orthonormal, so ||phi_n||_2 = 1 at
  every degree, with no work.
- p = 4, in closed form: with c_k = C(2k, k) / 4^k,
  ||phi_n||_4^4 = (2 pi)^(-1/2) sum_{b=0}^{n} c_{n-b} c_b^2, a sum of n + 1
  positive terms (``_quartic_norm_1d``, which derives it and bounds its
  rounding).  The c_k come from exact ints, then from the asymptotic series
  of Gamma(k + 1/2) / Gamma(k + 1), each within 2^-52 relative.
- The grid, at even p >= 6: f = |phi_n|^p = phi_n^p is entire and even,
  with a Gaussian tail, so the trapezoidal rule on the grid x_j = j h
  converges faster than geometrically (Trefethen and Weideman, SIAM Rev. 56
  (2014), section 5); f being even, the sum runs over j >= 0 with weight
  h at x_0 and 2h elsewhere.  By Poisson summation the rule on the whole
  line is the sum of F(2 pi k / h) over all integers k, F the Fourier
  transform of f, so its error is 2 sum_{k >= 1} F(2 pi k / h) plus the
  integral past the grid's end R.  The transform of phi_n is
  (-i)^n sqrt(2 pi) phi_n, which decays like an Airy function past the
  turning point sqrt(2n + 1); F, a p-fold convolution of it, is
  negligible past p sqrt(2n + 1).  So h = 2 pi / (p sqrt(2n + 1) + 20)
  puts the first alias 20 past that, and R = sqrt(2n + 1) + 6 reaches 6
  past the turning point, where |phi_n| is below e^-24 of its maximum
  (n = 0 is the widest), so f below e^-48 of its own.  The grid has about
  p (2n + 1) / (2 pi) points and needs no nodes: one run of the
  recurrence over it is the whole norm.  The run gives the row of phi_n
  in plain floats (``phi_rows``); the row is divided by its largest
  |value|, so no power overflows, and raised to p by repeated squaring
  (``weighted_abs_power_sum``).
- p = 1: phi_n keeps its sign between consecutive zeros z_j, so with
  J(a) = int_a^inf phi_n the half-line integral of |phi_n| is
  |J(0) - J(z_1)| + sum_j |J(z_j) - J(z_{j+1})| + |J(z_m)|.  J comes from
  its own recurrence, carried along the scaled one for phi in the Halley
  passes that find the n-node rule's zeros (their tails mode): one run a
  pass serves 0 and the guesses, and J at each zero comes from J at the
  point its last pass evaluated, by the Taylor series of the step, since
  J' = -phi.  A zero's error enters only at second order, since phi_n
  vanishes there.
- p = inf: on x > 0, f = phi^2 + phi'^2/(lambda - x^2) with lambda = 2n + 1
  has f' = 2x phi'^2/(lambda - x^2)^2 >= 0, so the relative maxima of |phi_n|
  increase on (0, sqrt(lambda)) (Sonin's argument, Szego, Orthogonal
  Polynomials, 7.6); past sqrt(lambda) |phi_n| is convex and decays.  The
  maximum is therefore the last critical point, on the last lobe, between
  the largest zero and sqrt(lambda).  One run of the recurrence evaluates
  phi_n and phi_{n-1} at one point, the Airy estimate
  x0 = sqrt(lambda) + a'_1 / (sqrt(2) lambda^(1/6)) of that maximum (a'_1
  the first zero of Ai'), in Python floats; Newton's method on the Taylor
  series that phi'' = (x^2 - lambda) phi gives there finds the critical
  point x*, which is certified as the last one or refused
  (``_sup_polish``).
- Panels, at every p but 1 and inf: one pass of fixed 12-node rules on pieces
  of the half-lobes and the tail of phi_n, cut at its zeros (the n-node
  rule's nodes, as at p = 1); the piece at a zero a takes the
  Gauss-Jacobi rule for the |x - a|^alpha kink of |phi_n|^p there, the
  others Gauss-Legendre (``_panel_rule``).  The values come from runs of
  at most _RUN_POINTS points in plain floats (``phi_row``); each degree's
  are divided by their largest |value| and raised to p.

The Gauss-Hermite rules are built here, by ``roots_hermite``:

- Guesses: x^2 for a positive zero of H_M is a zero of a Laguerre
  polynomial L_m^(+-1/2), m = M // 2.  Tricomi's expansion guesses the bulk
  and Gatteschi's, through the zeros of Ai (a short DLMF table, then the
  asymptotic series), the largest ones; each is used where its error is
  the smaller (Townsend, Trogdon and Olver, IMA J. Numer. Anal. 36 (2016)).
- Refinement: a Halley step per zero from one run of the scaled
  recurrence, which returns phi_M and phi_{M-1} on one scale:
  phi_M' = sqrt(2M) phi_{M-1} - x phi_M, and phi'' = (x^2 - 2M - 1) phi
  gives the second derivative at no cost.
- Stop rule: after a Halley step h the error is |x^2 - 2M - 1| |h|^3 / 6
  to leading order.  A zero is final once that bound is below 2^-53 of
  it; only the others take another pass.  Every rule of 49 nodes or more
  is final after one pass, smaller ones after two.
- Weights: w e^{y^2} = 2 / phi_M'(y)^2, with phi_M' carried from the
  evaluated point to the refined zero by its Taylor series from the same
  equation.  Its mantissa becomes a plain float once per rule, through
  the scaling stage (``_accel._to_floats``), exactly in the evaluated
  point's rescale count.  This stays in the double range where w
  underflows.

Every zero comes from one batched Halley pass, each guess with its own
M, which gives a rule's nodes bit for bit whatever rules share it.  Only
Gauss-Hermite half-rules (y >= 0) are cached, per M: the zeros of the
p = 1 and panel routes, single norms or sweeps, fill no cache.

``lp_norms_1d(N, p)`` gives ||phi_u||_p for every u <= N, as the direct
summability sum needs them.  At p = 4 each row is its own closed-form sum,
on the one table of c_k for k <= N, by the call a single norm makes, so
every entry is ``lp_norm_1d(u, 4)`` bit for bit.  For the other even p
one grid serves all degrees: that
of degree N has a finer step and a longer reach than that of any u <= N.
One run of the recurrence at its points passes through every degree
0..N, and each row's weighted p-th power sum is one of the integrals, so
all N + 1 norms cost one run and N + 1 row power sums, each a few
multiplications a value; rows come in plain-float blocks of at most 2^17
values, so memory stays bounded whatever N is, and each row is summed on
its own, whatever its block.
A single norm on the grid is the same sweep without the lower rows, so
where both take the grid ``lp_norms_1d(N, p)[N]`` is ``lp_norm_1d(N, p)``
bit for bit.
The other routes sweep as well: the zeros of every degree take their
Halley passes together, and the points of all the degrees (0 and the
guesses at p = 1, whose Halley passes carry the tails, one point per
degree at p = inf, the panel points in runs of at most _RUN_POINTS)
share a run of the recurrence, which reads each degree's points at its
own step (the kernels take a degree per point).  A
single norm is the sweep of one degree.  Every value is scaled exactly in
its point's rescale count j (``_accel``), so a point rescaled at another
step than in its own degree's run keeps its value, and these sweeps keep
the per-degree bits at every N.  Norms are cached per (n, p) and sweeps
per (N, p), 16 of them; each sweep depends on N alone, so no result
depends on what was computed before.

A norm and a sweep are charged by one estimate (``_route``), in
point-steps: the kernel calls the route makes, each its top degree times
(its points + _STEP_POINTS), _POWER_POINTS a value of each row power
sum, and at p = 4 the u + 1 terms of each row's sum.  A request whose
estimate exceeds ``NORM_WORK_BUDGET`` is refused with ``CapabilityError``
before any recurrence work.  The route rule: p = 2 and p = 4 take their
exact routes, at every degree up to MAX_DEGREE_DEFAULT (a p = 4 sweep to
N = 44,719); at other even p a norm or a sweep takes the grid when its
estimate is within the budget and no larger than the panels', each with
its row power sums (N + 1 rows, one for a norm); ties go to the grid.

The norm law ``norm_law(p)`` gives ||phi_n||_p of order n^e(p) (ln n)^lam(p)
(Koch and Tataru, Duke Math. J. 128 (2005); Thangavelu, Lectures on
Hermite and Laguerre expansions, 1993), exactly in Fractions:
e(p) = 1/(2p) - 1/4 for p < 4, e(4) = -1/8 and e(p) = -1/(6p) - 1/12 for
p > 4 (-1/12 at p = inf); lam(4) = 1 and lam(p) = 0 elsewhere.  The norm
models and the weight laws of ``nuclearity`` derive from it, and all
read an exponent through ``_exact_exponent``: a float is
the small rational it rounds from, or else its exact value.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._accel import (
    _RUN_POINTS, _gauss, _square, _to_floats, phi_pair, phi_row, phi_rows, weighted_abs_power_sum,
)
from .errors import CapabilityError, ConvergenceError, DomainError
# eval_phi_1d stays a module attribute for code that looks it up here.
from .hermite_core import MAX_DEGREE_DEFAULT, _check_order, as_entries, eval_phi_1d  # noqa: F401

_GH_MAX_NODES = 10_000

# Recurrence work is counted in point-steps: a kernel call over P points
# whose top degree is n costs n * (P + _STEP_POINTS), for the fixed cost
# of a step, once that of 4096 point updates (2-vCPU Xeon).  On 2 vCPUs of
# a shared host at degree 2000 a numpy step now costs 3.6-6.2 us at 1
# point, 2.5-4.8 us at 400 and 25-31 us at 20,000; fewer than
# _COLUMN_POINTS points run in Python floats, at 175-255 ns a point-step.
_STEP_POINTS = 4096
# Work above which a request is refused, set when the recurrence took
# 4-15 s for it.  The largest degree served at p = 1, 40,812, takes
# 1.5-1.6 s, and the sweep at p = 1 to 1,582 3.6-3.7 s; at p = 4 the
# closed form serves every degree up to MAX_DEGREE_DEFAULT (10^6 in 0.07 s)
# and the sweep to 44,719 (about 1 s).
NORM_WORK_BUDGET = 1e9
# Nodes of the panel route's rule on each piece, the fewest that reach
# rounding: 10 left 2.5e-13 at p = 100 (CHANGES.md has the table).
_PANEL_NODES = 12
# The even route's trapezoid grid (_even_grid): its first alias lies
# _ALIAS_MARGIN past p sqrt(2n + 1), and it reaches _TAIL_MARGIN past the
# turning point sqrt(2n + 1).
_ALIAS_MARGIN = 20.0
_TAIL_MARGIN = 6.0
# Points of a panel rule or even grid above which a route is refused, for
# its memory (180 MB at the peak), whatever its work: the budget would admit
# 6e7 panel points at degree 0 and p = 1e12.  Served edges stay below it.
_MAX_POINTS = 1 << 21
# A weighted power sum over a row is charged four point-steps a value,
# what the panels' log-and-exp sum cost when this was set; the repeated
# squaring costs 4 to 16, the most on small sweeps and at large p.
_POWER_POINTS = 4
# Entries of the norm cache: an s_r_sum at N = 200 computes about 400.
_NORM_CACHE_SIZE = 4096
# Arrays kept by lp_norms_1d; the one of order N holds 8 (N + 1) bytes.
_SWEEP_CACHE_SIZE = 16

# A zero is final once Halley's cubic error bound is below 2^-53 relative.
_NODE_STOP = 6.0 * 2.0 ** -53

# A float exponent reads as the rational of denominator at most this whose
# nearest double it is (_exact_exponent).
_EXPONENT_DENOMINATOR = 1_000_000

# a'_1, the first zero of Ai' (DLMF Table 9.9.1).
_AIRY_PRIME_A1 = -1.0187929716474710
# Caps on the sup polish: at every degree up to 3000 and on a ladder to
# 10^6 its Taylor series stops at 28 to 30 coefficients and Newton's method
# settles in 5 steps.
_SUP_TERMS = 40
_SUP_NEWTON = 8

# c_k = C(2k, k) / 4^k (_central) from exact ints below this k, from the
# asymptotic series of Gamma(k + 1/2) / Gamma(k + 1) from it on.
_CENTRAL_EXACT = 64
# sqrt(pi k) c_k = 1 + sum_j g_j k^-j: g_1..g_9, exact in binary, from
# ln Gamma(k + 1/2) - ln Gamma(k + 1) (DLMF 5.11.8, Bernoulli polynomials
# at 1/2 and 1); the next term is below 3e-6 ulp from k = 64 on.
_CENTRAL_SERIES = (-1 / 8, 1 / 128, 5 / 1024, -21 / 32768, -399 / 262144, 869 / 4194304,
                   39325 / 33554432, -334477 / 2147483648, -28717403 / 17179869184)
# 1 / sqrt(pi) and 1 / sqrt(2 pi), each as two doubles.
_INV_SQRT_PI = (0.5641895835477563, 7.66772980658294e-18)
_INV_SQRT_TWO_PI = (0.3989422804014327, -2.49232720227773e-17)


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
    y, w = roots_hermite(int(M))
    half = np.maximum(w * np.exp(-y * y), np.nextafter(0.0, 1.0))
    return QuadratureRule(nodes=_full_line(y, M, -1.0), weights=_full_line(half, M),
                          kind="gauss_hermite")


def _full_line(half: np.ndarray, M: int, sign: float = 1.0) -> np.ndarray:
    """Values of the M-point rule's half (y >= 0) on all M nodes: sign times
    the values at the mirrored nodes -y (y = 0 taken once), then the values
    at y."""
    return np.concatenate([sign * half[M % 2:][::-1], half])


# Zeros a_1, ..., a_10 of the Airy function Ai (DLMF Table 9.9.1); later
# zeros come from the asymptotic series DLMF 9.9.6 and 9.9.18.
_AIRY_ZEROS = np.array([
    -2.338107410459767, -4.0879494441309706, -5.5205598280955511,
    -6.786708090071759, -7.9441335871208531, -9.0226508533409804,
    -10.040174341558086, -11.008524303733263, -11.936015563236263,
    -12.828776752865757,
])
_AIRY_A1, _AIRY_A2 = _AIRY_ZEROS[:2].tolist()
# Half-rules kept by roots_hermite; the M-node one holds about 8 M bytes.
_RULE_CACHE_SIZE = 128
# A node still missing the stop rule after this many passes is an error.
_MAX_NODE_PASSES = 8
# Rules of fewer nodes take two passes, rules of this many or more one
# (checked for every M up to 3300 and on a ladder to 34500).
_ONE_PASS_NODES = 49


def _airy_zeros(j: np.ndarray) -> np.ndarray:
    """The zeros a_j of Ai for j = 1, 2, ... (given as floats)."""
    t = 0.375 * math.pi * (4.0 * j - 1.0)
    r = t ** -2.0
    series = 1.0 + r * (5.0 / 48.0 + r * (-5.0 / 36.0 + r * (
        77125.0 / 82944.0 + r * (-108056875.0 / 6967296.0 + r * 162375596875.0 / 334430208.0))))
    a = -t ** (2.0 / 3.0) * series
    listed = j <= len(_AIRY_ZEROS)
    a[listed] = _AIRY_ZEROS[j[listed].astype(int) - 1]
    return a


def _edge_count(m: int) -> int:
    """How many of the largest zeros take Gatteschi's guess rather than
    Tricomi's: the errors of the two cross near 0.77 m^0.45 (measured on
    rules of 8 to 32001 nodes)."""
    return max(1, int(0.77 * m ** 0.45))


def _rule_constants(M: np.ndarray):
    """(nu, nu^(1/3), nu^(-1/3), nu^(-5/3), nu^(-7/3), edge count) of the
    rule of M nodes, nu = 2M + 1, for an int array of M: one array per
    constant with an entry per M, each formed once per rule in Python
    floats."""
    # one rule per run of equal M
    starts = np.flatnonzero(np.diff(M, prepend=-1))
    nus = [(m, 2.0 * m + 1.0) for m in M[starts].tolist()]
    rules = [(nu, nu ** (1.0 / 3.0), nu ** (-1.0 / 3.0), nu ** (-5.0 / 3.0),
              nu ** (-7.0 / 3.0), _edge_count(m // 2)) for m, nu in nus]
    return np.repeat(np.array(rules).reshape(-1, 6), np.diff(starts, append=len(M)), axis=0).T


def _zero_guesses(M: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Asymptotic guesses for the positive zeros of H_M, j = 1, 2, ... counting
    down from the largest; M is an int array with one M per entry of j.

    x^2 is a zero of the Laguerre polynomial L_m^(alpha), m = M // 2,
    alpha = -1/2 for even M and 1/2 for odd M, whose zeros Gatteschi (near
    the largest, through the Airy zeros) and Tricomi (elsewhere) expand in
    nu = 4m + 2 alpha + 2 = 2M + 1 (Gatteschi, J. Comput. Appl. Math. 144
    (2002) 7-27).  The powers of nu come from _rule_constants, so an entry
    gets the same bits whichever rules share the call.
    """
    constants = _rule_constants(M)
    x2 = np.empty(len(j))
    edge = j <= constants[5]
    nu, nu13, nu_13, nu_53, nu_73, _ = (c[edge] for c in constants)
    a = _airy_zeros(j[edge])
    c = 2.0 ** (1.0 / 3.0)
    x2[edge] = (
        nu + c * c * a * nu13 + 0.2 * c ** 4 * a * a * nu_13
        + (11.0 / 35.0 - 0.25 - 12.0 / 175.0 * a ** 3) / nu
        + (16.0 / 1575.0 * a + 92.0 / 7875.0 * a ** 4) * c * c * nu_53
        - (15152.0 / 3031875.0 * a ** 5 + 1088.0 / 121275.0 * a * a) * c * nu_73
    )
    if edge.all():
        return np.sqrt(x2)
    # theta - sin(theta) = pi (4j - 1) / nu by Newton's method from below,
    # where theta^3 / 6 >= theta - sin(theta) puts the start
    nu = constants[0][~edge]
    rhs = math.pi * (4.0 * j[~edge] - 1.0) / nu
    theta = np.cbrt(6.0 * rhs)
    for _ in range(8):
        theta -= (theta - np.sin(theta) - rhs) / (1.0 - np.cos(theta))
    t = np.cos(0.5 * theta) ** 2
    x2[~edge] = nu * t - (1.25 / (1.0 - t) ** 2 - 1.0 / (1.0 - t) - 0.25) / (3.0 * nu)
    return np.sqrt(x2)


def _rule_guesses(rules):
    """Guesses for the positive zeros of H_M, increasing, rule after rule for
    M in rules, as (guesses, M of each guess)."""
    rules = np.asarray(rules, dtype=np.int64)
    half = rules // 2
    M = np.repeat(rules, half)
    # j counts down from M // 2 to 1 within each rule
    j = np.repeat(np.cumsum(half), half) - np.arange(len(M))
    return _zero_guesses(M, j.astype(float)), M


def _halley_nodes(y: np.ndarray, M: np.ndarray, held=None):
    """Zeros of phi_M refined from the guesses y >= 0 by Halley passes; M is
    an int array with one M per guess, and all the rules take each pass
    together.

    Returns (nodes, d, at, count): at is the point each node's last pass
    evaluated and count that point's rescale count, and d is the mantissa
    of phi_M'(nodes) on that point's scale, so _to_floats(d, _gauss(at),
    count) is phi_M' in plain floats.  A pass runs the scaled recurrence
    once for the mantissas of phi_M and phi_{M-1};
    phi_M' = sqrt(2M) phi_{M-1} - x phi_M, and phi'' = (x^2 - 2M - 1) phi
    gives the higher derivatives.  The step's cubic error bound decides
    which nodes are final; only the others take another pass, and with no
    guesses there is no pass.  phi_M' is carried from the evaluated point
    to the refined node by the Taylor series the same equation supplies.
    A node depends on its guess and M alone: a rescaling multiplies phi_M
    and phi_{M-1} by one power of two, which leaves the step unchanged.

    The tails mode, for the p = 1 norms: held, a mask of points kept
    where they are (they take no step and are final after the first pass),
    makes each pass's run carry the tail integrals J_M(x) = int_x^inf phi_M
    too, and a fifth array follows, J_M at each returned point in plain
    floats.  Since J' = -phi, the same series carries J from the evaluated
    point x to the node x + h,

        J(x + h) = J(x) - h (phi + h/2 (phi' + h/3 (phi'' + h/4 phi'''))),

    on the point's scale, so the tails become plain floats once, with d.
    """
    y = np.array(y, dtype=float)
    d, at, counts = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    tails = None if held is None else np.empty_like(y)
    todo = np.arange(len(y))
    for _ in range(_MAX_NODE_PASSES):
        if not len(todo):
            break
        x, m = y[todo], M[todo]
        prev, cur, count, *tail = phi_pair(x, m, tails=held is not None)
        dx = np.sqrt(2.0 * m) * prev - x * cur
        q = x * x - (2.0 * m + 1.0)
        # a held point's step is 0, whatever its phi_M'
        ratio = cur / (dx if held is None else np.where(held[todo], math.inf, dx))
        h = -ratio / (1.0 - 0.5 * q * ratio * ratio)
        y[todo] = x + h
        # phi'' and phi''' at x
        d2, d3 = q * cur, 2.0 * x * cur + q * dx
        d[todo] = dx + h * (d2 + 0.5 * h * (d3 + h / 3.0 * (4.0 * x * dx + (2.0 + q * q) * cur)))
        if tail:
            tails[todo] = tail[0] - h * (cur + 0.5 * h * (dx + h / 3.0 * (d2 + 0.25 * h * d3)))
        at[todo], counts[todo] = x, count
        # Halley's error after the step is |q| / 6 * |h|^3 to leading order
        todo = todo[~(np.abs(q) * np.abs(h) ** 3 <= _NODE_STOP * y[todo])]
    if len(todo):
        missed = sorted(set(M[todo].tolist()))
        raise ConvergenceError(
            f"{len(todo)} zeros of phi_M, M in {missed}, missed the stop rule after "
            f"{_MAX_NODE_PASSES} passes"
        )
    if tails is None:
        return y, d, at, counts
    return y, d, at, counts, _to_floats(tails, _gauss(at), counts)


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def roots_hermite(M: int):
    """Nonnegative half of the M-point Gauss-Hermite rule.

    Returns read-only arrays (nodes, weights): the zeros y >= 0 of H_M in
    increasing order (y = 0 first when M is odd) and w e^{y^2}, where w is
    the weight of y for e^{-x^2}; the rule's other nodes are -y.  The
    scaled weights are 2 / phi_M'(y)^2, in range where w underflows.
    """
    y, degrees = _rule_guesses([M])
    if M % 2:
        y, degrees = np.concatenate([[0.0], y]), np.append(M, degrees)
    y, d, at, count = _halley_nodes(y, degrees)
    w = 2.0 / np.square(_to_floats(d, _gauss(at), count))
    y.flags.writeable = False
    w.flags.writeable = False
    return y, w


# Caps of truncated_rule: numpy's leggauss grows with the cube of the
# order (0.012 s at 256, 0.13 s at 1000), and a rule of 2^20 nodes takes
# 0.02 s and 8 MB an array (2-vCPU host).
_TRUNCATED_MAX_ORDER = 256
_TRUNCATED_MAX_NODES = 1 << 20


@functools.lru_cache(maxsize=32)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def truncated_rule(radius: float, panels: int = 64, order: int = 16) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [-radius, radius]."""
    radius = float(radius)
    if not (radius > 0 and math.isfinite(radius)):
        raise DomainError(f"radius must be positive and finite, got {radius}")
    panels, order = _check_order(panels, 1, "panels"), _check_order(order, 1, "order")
    if order > _TRUNCATED_MAX_ORDER or panels * order > _TRUNCATED_MAX_NODES:
        raise CapabilityError(
            f"a rule of {panels} panels of order {order} exceeds order {_TRUNCATED_MAX_ORDER} "
            f"or {_TRUNCATED_MAX_NODES} nodes"
        )
    x, w = _leggauss(int(order))
    edges = np.linspace(-radius, radius, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return QuadratureRule(
        nodes=(mid[:, None] + half[:, None] * x[None, :]).ravel(),
        weights=(half[:, None] * w[None, :]).ravel(),
        kind="truncated_adaptive", truncation_radius=radius,
    )


def _phi_row_work(points: int, degree: int) -> float:
    return float(degree) * (points + _STEP_POINTS)


def _pieces(p: float) -> int:
    """Pieces of a half-lobe at exponent p: near a maximum |phi|^p falls off
    like a Gaussian of width L / (pi sqrt(p)) on a lobe of width L, so each
    piece spans about pi of those widths (sqrt(p) / 3 left 1.1e-11 at p = 8)."""
    return math.ceil(math.sqrt(p) / 2.0)


@functools.lru_cache(maxsize=32)
def _kink_rule(alpha: float):
    """The _PANEL_NODES-point Gauss rule for the weight t^alpha on [0, 1],
    alpha >= 0, as read-only (nodes, weights), by Golub and Welsch
    (Math. Comp. 23 (1969)): the eigenvalues of the recurrence matrix of
    P^(0, alpha)(2t - 1), and 1 / (alpha + 1) times the squared first
    components of the unit eigenvectors."""
    k = np.arange(1.0, _PANEL_NODES)
    j = 2.0 * k + alpha
    # recurrence coefficients on [-1, 1], mapped to [0, 1] by t = (1 + x) / 2
    diag = np.concatenate([[alpha / (alpha + 2.0)], alpha * alpha / (j * (j + 2.0))])
    off = k * (k + alpha) / (j * np.sqrt((j + 1.0) * (j - 1.0)))
    t, v = np.linalg.eigh(np.diag(0.5 + 0.5 * diag) + np.diag(off, 1) + np.diag(off, -1))
    w = v[0] * v[0] / (alpha + 1.0)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _tail_pieces(degree: int, s: int) -> int:
    """Pieces of the tail [z, R] past the largest zero z of phi_degree,
    ceil(s (R - z) / w), w the last lobe's width, at the leading order of
    the zeros near the turning point, sqrt(nu) + a_j (2 sqrt(nu))^(-1/3)
    with nu = 2 degree + 1 and a_j those of Ai: the estimate needs no zeros."""
    root = math.sqrt(2.0 * degree + 1.0)
    scale = (2.0 * root) ** (-1.0 / 3.0)
    top = root + _AIRY_A1 * scale
    return math.ceil(s * (math.sqrt(2.0) * root + 12.0 - top) / ((_AIRY_A1 - _AIRY_A2) * scale))


def _panel_rule(degree: int, zeros: np.ndarray, p: float):
    """(points, weights) of the panel rule for the integral of
    |phi_degree|^p over [0, sqrt(2 (2 degree + 1)) + 12], from the positive
    zeros of phi_degree.  Runs of pieces start at a zero: each half-lobe,
    to the middle of its lobe or to 0, in _pieces(p), and the tail in
    _tail_pieces.  Across a zero a, |phi|^p = |x - a|^alpha g(x), g smooth,
    alpha = p - 2 floor(p / 2), so the piece at a zero takes the kink rule,
    its weights taking in |x - a|^-alpha, and the others Gauss-Legendre.
    """
    s = _pieces(p)
    alpha = p - 2.0 * math.floor(0.5 * p)
    x, w = _leggauss(_PANEL_NODES)
    t, kink_w = _kink_rule(alpha)
    # the zeros on [0, R], 0 among them for odd degrees; phi_0's tail starts at 0
    at = np.concatenate([[0.0], zeros]) if degree % 2 else np.asarray(zeros)
    mids = 0.5 * (at[:-1] + at[1:])
    a = np.concatenate([at[:-1], at[1:], at[:1] if degree % 2 == 0 else [],
                        at[-1:] if degree else [0.0]])
    far = np.concatenate([mids, mids, np.zeros(len(a) - 2 * len(mids) - 1),
                          [math.sqrt(2.0 * (2.0 * degree + 1.0)) + 12.0]])
    counts = np.append(np.full(len(a) - 1, s), _tail_pieces(degree, s))
    h = np.repeat((far - a) / counts, counts)
    # piece i of a run starts at a + i h, signed: half-lobes may run down
    i = np.arange(len(h)) - np.repeat(np.cumsum(counts) - counts, counts)
    kink = (i == 0)[:, None] & (degree > 0)
    nodes = np.where(kink, t, 0.5 * (x + 1.0))
    weights = np.where(kink, kink_w * t ** -alpha, 0.5 * w)
    points = np.repeat(a, counts)[:, None] + h[:, None] * (i[:, None] + nodes)
    return points.ravel(), (np.abs(h)[:, None] * weights).ravel()


def _even_grid(degree: int, p: float):
    """(h, J + 1) of the even route's grid j h, j = 0..J, for |phi_degree|^p:
    h = 2 pi / (p sqrt(2 degree + 1) + _ALIAS_MARGIN) and the least J with
    J h >= sqrt(2 degree + 1) + _TAIL_MARGIN."""
    root = math.sqrt(2.0 * degree + 1.0)
    h = 2.0 * math.pi / (p * root + _ALIAS_MARGIN)
    return h, math.ceil((root + _TAIL_MARGIN) / h) + 1


def _even_work(degree: int, p: float, rows: int = 0) -> float:
    """Point-steps of the even route at degree: its run over the grid, and
    the weighted power sums of `rows` rows; inf past _MAX_POINTS, which
    holds p first, as p near 1e308 would overflow the grid's step."""
    if p > _MAX_POINTS or (points := _even_grid(degree, p)[1]) > _MAX_POINTS:
        return math.inf
    return _phi_row_work(points, degree) + _POWER_POINTS * rows * points


def _even_norm_1d(degrees, p: float) -> list[float]:
    """||phi_u||_p for each u in degrees, nonincreasing, and even p, by the
    trapezoidal rule on the top degree's grid, from the rows
    u = smallest..largest of one run over it.

    Each row is summed on its own, whatever its block, scaled by its
    largest |value| T so that no power overflows (weighted_abs_power_sum,
    which overwrites the block): the norm is T S^(1/p).
    """
    top, low = degrees[0], degrees[-1]
    h, points = _even_grid(top, p)
    # doubled for the mirrored point -x_j except at x_0 = 0
    weights = np.full(points, 2.0 * h)
    weights[0] = h
    norms = []
    for rows in phi_rows(h * np.arange(points), top, low):
        sums, tops = weighted_abs_power_sum(rows, weights, p)
        norms += [t * s ** (1.0 / p) for s, t in zip(sums.tolist(), tops.tolist())]
    return [norms[u - low] for u in degrees]


def _degree_arg(per_point: np.ndarray):
    """The degree argument of a kernel call whose points take these
    degrees, nonincreasing: the int itself where they are all one, else
    the array."""
    return int(per_point[0]) if per_point[0] == per_point[-1] else per_point


def _l1_norm_1d(degrees) -> list[float]:
    """||phi_u||_1 for each u in degrees, from the tail integrals
    J(a) = int_a^inf phi_u at 0 and the positive zeros: phi keeps its sign
    between consecutive points, so the half-line integral of |phi| is the
    sum of |J(a_j) - J(a_{j+1})| and of |J| at the largest zero.

    The zeros and their tails come from one set of Halley passes in the
    tails mode (_halley_nodes) over a block of u // 2 + 1 points per
    degree, its guesses led by 0, which is held there: one run of the
    recurrence a pass.
    """
    degrees = [int(u) for u in degrees]
    sizes = [u // 2 + 1 for u in degrees]
    ends = np.cumsum(sizes)
    # 0 leads each block
    held = np.zeros(int(ends[-1]), dtype=bool)
    held[ends - sizes] = True
    points = np.zeros(len(held))
    points[~held] = _rule_guesses(degrees)[0]
    tails = _halley_nodes(points, np.repeat(degrees, sizes), held)[4]
    after = np.append(tails[1:], 0.0)
    after[ends - 1] = 0.0
    gaps = np.abs(tails - after).tolist()
    return [2.0 * math.fsum(gaps[end - size:end]) for size, end in zip(sizes, ends.tolist())]


def _panel_norm_1d(degrees, p: float) -> list[float]:
    """||phi_u||_p for each u in degrees, nonincreasing, by _panel_rule.

    Consecutive degrees share a phi_row call of _RUN_POINTS points or more
    (the last ones fewer), which runs them in pieces of at most that many.
    Each degree's values are summed on their own, scaled by their largest
    |value| T (weighted_abs_power_sum), and the norm is T (2 S)^(1/p)."""
    degrees = [int(u) for u in degrees]
    # the u // 2 positive zeros of each phi_u from one set of Halley passes
    # over all the rules, each rule's nodes bit for bit, the rule cache
    # (roots_hermite) left alone
    zeros = np.split(_halley_nodes(*_rule_guesses(degrees))[0],
                     np.cumsum([u // 2 for u in degrees])[:-1])
    norms, rules, size = [], [], 0
    for i, (u, z) in enumerate(zip(degrees, zeros)):
        rules.append((u, *_panel_rule(u, z, p)))
        size += len(rules[-1][1])
        if size < _RUN_POINTS and i + 1 < len(degrees):
            continue
        sizes = [len(x) for _, x, _ in rules]
        vals = phi_row(np.concatenate([x for _, x, _ in rules]),
                       _degree_arg(np.repeat([v for v, _, _ in rules], sizes)))
        ends = np.cumsum(sizes).tolist()
        for (_, _, w), lo, hi in zip(rules, [0, *ends], ends):
            total, top = weighted_abs_power_sum(vals[lo:hi], w, p)
            norms.append(float(top) * (2.0 * float(total)) ** (1.0 / p))
        rules, size = [], 0
    return norms


def _product(a, b):
    """a * b as two doubles (hi, lo), hi = a * b rounded and hi + lo exact
    (Dekker's product), for normal doubles well inside the range."""
    hi = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


@functools.cache
def _exact_central() -> np.ndarray:
    """c_k = C(2k, k) / 4^k for k < _CENTRAL_EXACT, each the correctly
    rounded quotient of two ints, as a read-only array built on first use."""
    c = np.array([math.comb(2 * k, k) / 4 ** k for k in range(_CENTRAL_EXACT)])
    c.flags.writeable = False
    return c


def _central(top: int) -> np.ndarray:
    """c_k = C(2k, k) / 4^k = Gamma(k + 1/2) / (sqrt(pi) Gamma(k + 1)) for
    k = 0..top, each within 2^-52 relative and the same whatever top.

    Below _CENTRAL_EXACT from exact ints; from it on c_k = K (1 + x) / sqrt(k)
    with K = 1 / sqrt(pi) and x = sum_j g_j k^-j (_CENTRAL_SERIES).  The
    quotient q of K (1 + x) by r = sqrt(k) is corrected by its residual,
    found exactly from Dekker's products q r and r^2 (the latter giving
    sqrt(k) - r to second order), so c_k is within half an ulp and about
    0.02 2^-53 (x's own rounding) of its value.
    """
    exact = _exact_central()[:top + 1]
    if top < _CENTRAL_EXACT:
        return exact
    k = np.arange(_CENTRAL_EXACT, top + 1, dtype=float)
    t = 1.0 / k
    x = np.full_like(t, _CENTRAL_SERIES[-1])
    for g in _CENTRAL_SERIES[-2::-1]:
        x = x * t + g
    x *= t
    # K (1 + x) = hi + lo with hi = K's leading double
    hi, lo = _INV_SQRT_PI
    lo = hi * x + lo
    r = np.sqrt(k)
    q = (hi + lo) / r
    qr, qr_lo = _product(q, r)
    rr, rr_lo = _square(r)
    # sqrt(k) = r + d, and hi + lo - q (r + d) from exact differences
    d = ((k - rr) - rr_lo) / (2.0 * r)
    return np.concatenate([exact, q + ((((hi - qr) + lo) - qr_lo) - q * d) / r])


def _binomial_sum(c: np.ndarray, squares: np.ndarray, u: int) -> float:
    """S_u = sum_{b <= u} c_{u-b} c_b^2 by one pairwise np.add.reduce over
    the u + 1 products, given c_0..c_top and their squares, top >= u."""
    return float(np.add.reduce(c[u::-1] * squares[:u + 1]))


def _quartic_norm_1d(degrees) -> list[float]:
    """||phi_u||_4 for each u in degrees, nonincreasing, in closed form:
    ||phi_u||_4^4 = (2 pi)^(-1/2) S_u, S_u = sum_{b=0}^{u} c_{u-b} c_b^2,
    c_k = C(2k, k) / 4^k (_central, _binomial_sum).

    The 45-degree rotation of phi_u(x) phi_u(y), on the diagonal, gives
    phi_u(x)^2 = sum_a beta_2a phi_2a(sqrt(2) x) with
    beta_2a^2 = pi^(-1/2) c_a c_{u-a}^2, and orthonormality then the sum.
    Every degree's sum is the same call on the same values, whatever the
    other degrees, so a sweep keeps the single norms' bits.

    Rounding, with eps = 2^-53 and to first order in it: the terms are
    positive.  With each c_k within 2 eps and the two products rounded, a
    term is within 8 eps; numpy's pairwise sum passes a term through at
    most d = ceil(log2(u + 1)) + 17 additions (eight running sums on
    blocks of at most 128 terms, blocks halved above), so S_u is within
    (d + 8) eps.  The norm, (2 pi)^(-1/4) S_u^(1/4) (_norm_from_sum), is
    within a quarter of that and eps more: (d + 12) eps / 4
    (_quartic_error).
    """
    degrees = [int(u) for u in degrees]
    c = _central(degrees[0])
    squares = c * c
    return [_norm_from_sum(_binomial_sum(c, squares, u)) for u in degrees]


def _norm_from_sum(s: float) -> float:
    """(K s)^(1/4), K = (2 pi)^(-1/2), within half an ulp and O(2^-106)
    relative: K s = y + y_lo from Dekker's product and K's second double;
    the root r of y by two square roots is corrected by Newton's step
    r - (r^4 - y - y_lo) / (4 r^3), r^4 - y formed exactly from Dekker's
    squares."""
    k, k_lo = _INV_SQRT_TWO_PI
    y, y_lo = _product(k, s)
    y_lo += k_lo * s
    r = math.sqrt(math.sqrt(y))
    r2, r2_lo = _square(r)
    r4, r4_lo = _square(r2)
    return r - ((((r4 - y) + r4_lo) + 2.0 * r2 * r2_lo) - y_lo) / (4.0 * r * r2)


def _quartic_error(degree: int) -> float:
    """The relative rounding bound of _quartic_norm_1d at degree, to first
    order in 2^-53 (the second-order terms are below 2^-90): (d + 12) 2^-55
    with d = ceil(log2(degree + 1)) + 17."""
    return (degree.bit_length() + 29) * 2.0 ** -55


def _sup_start(degree: int) -> float:
    """The start of the sup polish, sqrt(lambda) + a'_1 / (sqrt(2) lambda^(1/6))
    with lambda = 2 degree + 1, which lies within 0.16 lobe widths
    lambda^(-1/6) of the last maximum of |phi_degree| (0.1 from degree 46
    on).  The Plancherel-Rotach asymptotics (Szego, Orthogonal Polynomials,
    Thm 8.22.9) put that maximum at sqrt(lambda) + a'_1 / (sqrt(2) n^(1/6))
    to leading order; Newton's method covers the difference."""
    lam = 2.0 * degree + 1.0
    return math.sqrt(lam) + _AIRY_PRIME_A1 / (math.sqrt(2.0) * lam ** (1.0 / 6.0))


def _sup_norm_1d(degrees) -> list[float]:
    """max |phi_u| for each u in degrees, nonincreasing, from one run of the
    recurrence over one point per degree, _sup_start(u).

    Each degree takes its maximum from its own point (_sup_polish), in the
    units of the point's mantissas, and the scaling stage (_to_floats)
    turns it into a plain float, exactly in the point's rescale count.
    """
    degrees = [int(u) for u in degrees]
    us = [u for u in degrees if u]
    if not us:
        return [math.pi ** -0.25] * len(degrees)
    x = np.array([_sup_start(u) for u in us])
    prev, cur, count = phi_pair(x, _degree_arg(np.array(us)))
    tops = np.array([_sup_polish(u, x0, a, b)[1]
                     for u, x0, a, b in zip(us, x.tolist(), prev.tolist(), cur.tolist())])
    sups = iter(_to_floats(tops, _gauss(x), count).tolist())
    return [next(sups) if u else math.pi ** -0.25 for u in degrees]


def _horner(coefficients, t: float) -> float:
    """The polynomial sum_k coefficients[k] t^k at t, by Horner's rule."""
    value = 0.0
    for c in reversed(coefficients):
        value = value * t + c
    return value


def _sup_polish(degree: int, x0: float, prev: float, cur: float):
    """(x*, |phi_degree(x*)|) at the last maximum x* of |phi_degree|, from the
    mantissas prev and cur of phi_{degree-1}(x0) and phi_degree(x0), in
    their units; raises ConvergenceError unless x* is certified.

    With x = x0 + t, phi'' = (x^2 - lambda) phi gives the Taylor
    coefficients of P(t) = phi(x0 + t) from a_0 = phi(x0) and
    a_1 = phi'(x0) = sqrt(2n) phi_{n-1}(x0) - x0 phi(x0):

        (k + 2)(k + 1) a_{k+2} = (x0^2 - lambda) a_k + 2 x0 a_{k-1} + a_{k-2},

    summed until two consecutive terms over the lobe width
    w = lambda^(-1/6) are below 2^-53 of a_0.  Newton's method on P'(t) = 0
    from t = 0, with t kept within w of x0, settles at t*, and x* = x0 + t*.

    The certificate: by Sonin's argument (the module docstring) the maximum
    is the last critical point of phi_n, and it lies below sqrt(lambda).
    In x^2 < lambda every critical point is a maximum of |phi|, and two of
    them have a zero between them, so x* is the last one if phi has no
    zero on [x*, sqrt(lambda)].  x* is accepted only if it lies below
    sqrt(lambda), P(t*) and P(sqrt(lambda) - x0) have one sign, and
    (sqrt(lambda) - x*) sqrt(lambda - x*^2) < pi.  On that interval
    lambda - x^2 <= lambda - x*^2, so by Sturm comparison two zeros of phi
    there lie more than pi / sqrt(lambda - x*^2) apart, farther than the
    interval is long: with one sign at both ends, phi has no zero on it.
    """
    lam = 2.0 * degree + 1.0
    root = math.sqrt(lam)
    w = lam ** (-1.0 / 6.0)
    sq, sq_lo = _square(x0)
    # x0^2 - lambda without the cancellation of x0 * x0 - lambda
    q = (sq - lam) + sq_lo
    a = [cur, math.sqrt(2.0 * degree) * prev - x0 * cur]
    small = 2.0 ** -53 * abs(a[0])
    for k in range(_SUP_TERMS):
        nxt = q * a[k] + (2.0 * x0 * a[k - 1] if k else 0.0) + (a[k - 2] if k > 1 else 0.0)
        a.append(nxt / ((k + 2.0) * (k + 1.0)))
        if k and (abs(a[-1]) * w + abs(a[-2])) * w ** (k + 1) <= small:
            break
    else:
        raise ConvergenceError(f"the Taylor series of phi_{degree} at {x0!r} did not converge")
    # the coefficients of P' and P''
    d1 = [j * c for j, c in enumerate(a[1:], 1)]
    d2 = [j * c for j, c in enumerate(d1[1:], 1)]
    t = 0.0
    for _ in range(_SUP_NEWTON):
        t_next = min(max(t - _horner(d1, t) / _horner(d2, t), -w), w)
        # the last steps may swing by an ulp of t
        settled = abs(t_next - t) <= 2.0 ** -52 * w
        t = t_next
        if settled:
            break
    else:
        raise ConvergenceError(f"Newton's method for the maximum of phi_{degree} did not settle")
    top, edge, x_star = _horner(a, t), _horner(a, root - x0), x0 + t
    if not (abs(t) < w and x_star < root and top * edge > 0.0
            and (root - x_star) * math.sqrt(lam - x_star * x_star) < math.pi):
        raise ConvergenceError(
            f"the maximum of |phi_{degree}| near {x0!r} is not certified: the critical "
            f"point {x_star!r} is not shown to be the last one below sqrt({lam!r}) = {root!r}"
        )
    return x_star, abs(top)


def _half_sum(n: int, up: bool = False) -> int:
    """The sum of u // 2 over u = 0..n, or of u - u // 2 if up; 0 for n < 0."""
    return ((n + up) // 2) * ((n + 1 + up) // 2)


def _halley_work(top: int, low: int, tails: bool = False) -> float:
    """Point-steps of the Halley calls for the zeros of phi_u, u = low..top:
    one over every rule and one over those below _ONE_PASS_NODES, each one
    step short of its largest M and charged u - u // 2 points a rule; in
    the tails mode (p = 1) the first call is charged the u // 2 + 1 points
    of each degree's block, its zeros and 0."""
    below = _half_sum(low - 1, True)
    if tails:
        first = _half_sum(top) - _half_sum(low - 1) + top - low + 1
    else:
        first = _half_sum(top, True) - below
    work = _phi_row_work(first, top - 1 if top else 0)
    if (hi := top if top < _ONE_PASS_NODES else _ONE_PASS_NODES - 1) >= low:
        work += _phi_row_work(_half_sum(hi, True) - below, hi - 1 if hi else 0)
    return work


def _panel_work(top: int, low: int, p: float, limit: float) -> float:
    """Point-steps of the panel route for u = low..top: the Halley calls,
    the phi_row calls as _panel_norm_1d groups the degrees, and the power
    sums; inf past _MAX_POINTS.  Once past limit, with the pending call's
    points so far, the sum stops."""
    s = _pieces(p)
    work, size, lead = _halley_work(top, low), 0, top
    for u in range(top, low - 1, -1):
        if work + (_phi_row_work(size, lead) if size else 0.0) > limit:
            break
        # u - 1 half-lobes of s pieces, and the tail
        points = _PANEL_NODES * (s * max(u - 1, 0) + _tail_pieces(u, s))
        if points > _MAX_POINTS:
            return math.inf
        work, size = work + _POWER_POINTS * points, size + points
        if size >= _RUN_POINTS or u == low:
            work, size, lead = work + _phi_row_work(size, lead), 0, u - 1
    return work + (_phi_row_work(size, lead) if size else 0.0)


@functools.lru_cache(maxsize=_SWEEP_CACHE_SIZE)
def _route(top: int, p: float, rows: int = 1):
    """(route, point-steps of the kernel calls it makes) for the norms of
    phi_u, u from top down `rows` degrees: one for lp_norm_1d, top + 1 for
    lp_norms_1d; by the route rule of the module docstring.  The sup makes
    one call at one point per nonzero degree, p = 1 its Halley calls in the
    tails mode, the grid one run; p = 4 makes none, and each row is charged
    its sum's u + 1 terms.  Cached: s_r_sum's check and lp_norms_1d's cost
    one estimate."""
    low = top - rows + 1
    if p == 2.0:
        return "unit", 0.0
    if p == 4.0:
        # u + 1 terms a row
        return "quartic", ((top + 1) * (top + 2) - low * (low + 1)) / 2
    if math.isinf(p):
        return "sup", _phi_row_work(rows - (low == 0), top)
    if p == 1.0:
        return "zeros", _halley_work(top, low, tails=True)
    grid = _even_work(top, p, rows) if p % 2.0 == 0.0 else math.inf
    panels = _panel_work(top, low, p, grid if grid < NORM_WORK_BUDGET else NORM_WORK_BUDGET)
    if grid <= panels and grid <= NORM_WORK_BUDGET:
        return "even", grid
    return "panels", panels


def check_budget(top: int, p: float, rows: int = 1) -> str:
    """The route of the norms of phi_u for the `rows` degrees u from top
    down (_route); raises CapabilityError when their estimated recurrence
    work exceeds NORM_WORK_BUDGET."""
    route, work = _route(top, p, rows)
    if work > NORM_WORK_BUDGET:
        what = f"||phi_{top}||_{p}" if rows == 1 else f"||phi_u||_{p} for u <= {top}"
        raise CapabilityError(
            f"{what} needs at least {work:.2g} point-steps of recurrence work, "
            f"above the budget {NORM_WORK_BUDGET:.0e}"
        )
    return route


# The norms of each route, for a list of degrees in nonincreasing order.
_ROUTES = {"unit": lambda degrees, p: [1.0] * len(degrees),
           "sup": lambda degrees, p: _sup_norm_1d(degrees),
           "zeros": lambda degrees, p: _l1_norm_1d(degrees),
           "quartic": lambda degrees, p: _quartic_norm_1d(degrees),
           "even": _even_norm_1d, "panels": _panel_norm_1d}


@functools.lru_cache(maxsize=_NORM_CACHE_SIZE)
def _lp_norm_1d_cached(degree: int, p: float) -> float:
    return _ROUTES[check_budget(degree, p)]([degree], p)[0]


@functools.lru_cache(maxsize=_SWEEP_CACHE_SIZE)
def _lp_norms_1d_cached(degree: int, p: float) -> np.ndarray:
    norms = np.array(_ROUTES[check_budget(degree, p, degree + 1)](range(degree, -1, -1), p)[::-1])
    norms.flags.writeable = False
    return norms


def _float_exponent(p) -> float:
    """p as a float; an exponent past the double range is refused."""
    try:
        return float(p)
    except OverflowError:
        raise CapabilityError("the exponent p is past the double range") from None


def _norm_args(degree, p, tol):
    degree = _check_order(degree, 0, "degree")
    if degree > MAX_DEGREE_DEFAULT:
        raise CapabilityError(f"degree {degree} exceeds {MAX_DEGREE_DEFAULT}")
    if not isinstance(p, numbers.Real) or isinstance(p, bool):
        raise DomainError(f"p must be a real number, got {p!r}")
    p = _float_exponent(p)
    if not (p >= 1.0):
        raise DomainError(f"p must be in [1, inf], got {p}")
    if not 1e-14 < tol < 1e-2:
        raise DomainError(f"tol must be in (1e-14, 1e-2), got {tol}")
    return degree, p


def lp_norm_1d(degree: int, p: float, tol: float = 1e-8) -> float:
    """One-dimensional norm ||phi_degree||_p.

    By the routes and the route rule of the module docstring; none
    refines, so ``tol`` is only validated.  Raises CapabilityError, before
    any recurrence work, when the kernel calls of the route (check_budget)
    exceed NORM_WORK_BUDGET point-steps (for example degree 10**5 at p = 6,
    degree 10**5 at p = 1, or degree 10**4 at p = 5/2; p = 2 and p = 4 are
    served at every degree), or when p is past the double range.
    """
    return _lp_norm_1d_cached(*_norm_args(degree, p, tol))


def lp_norms_1d(N: int, p: float, tol: float = 1e-8) -> np.ndarray:
    """The read-only array of ||phi_u||_p for u = 0..N.

    All ones at p = 2, and lp_norm_1d's closed forms bit for bit at p = 4.
    At other even p, by the route rule, one recurrence run over the grid
    of degree N (entry N is lp_norm_1d(N, p) bit for bit where that takes
    the grid too) or the panels.  The other routes share recurrence runs
    over the points of all degrees, and give lp_norm_1d's norms bit for
    bit.
    Raises CapabilityError, before any recurrence work, when the kernel
    calls the sweep makes for all N + 1 norms and its N + 1 row power sums
    (check_budget(N, p, N + 1)) exceed NORM_WORK_BUDGET, or when p is past
    the double range.
    """
    return _lp_norms_1d_cached(*_norm_args(N, p, tol))


def lp_norm_phi(nu, p: float, tol: float = 1e-8) -> float:
    """||phi_nu||_p for a multi-index, via tensor factorization."""
    entries = as_entries(nu)
    out = 1.0
    for e in entries:
        out *= lp_norm_1d(e, p, tol)
    return out


def _exact_exponent(p) -> Fraction:
    """The rational a finite exponent p stands for, the one reading of an
    exponent that every law and regime uses.

    Integers and rationals are taken as they are.  A float stands for the
    rational of denominator at most 10^6 whose nearest double it is, where
    there is one (4 / 3 reads as 4/3 and 1.2 as 6/5), and else for its
    exact binary value (4.000000000000001 is not 4).
    """
    if isinstance(p, numbers.Rational):
        return Fraction(int(p.numerator), int(p.denominator))
    exact = Fraction(p)
    near = exact.limit_denominator(_EXPONENT_DENOMINATOR)
    return near if float(near) == p else exact


@functools.lru_cache(maxsize=256, typed=True)
def _norm_case(p) -> tuple[str, Fraction, Fraction]:
    """(regime, e, lam) of the norm law at p in [1, inf], decided exactly
    on the rational p stands for (_exact_exponent); cached per type of p,
    since a float and the Fraction of its binary value can stand for
    different rationals."""
    if p == math.inf:
        inv = Fraction(0)
    elif p >= 1:
        inv = 1 / _exact_exponent(p)
    else:
        raise DomainError(f"p must be in [1, inf], got {p}")
    quarter = Fraction(1, 4)
    if inv > quarter:
        return "sub4", inv / 2 - quarter, Fraction(0)
    if inv == quarter:
        return "eq4", Fraction(-1, 8), Fraction(1)
    return "super4", -inv / 6 - Fraction(1, 12), Fraction(0)


def norm_regime(p) -> str:
    """Where p lies against 4: "sub4", "eq4" or "super4"."""
    return _norm_case(p)[0]


def norm_law(p) -> tuple[Fraction, Fraction]:
    """(e, lam) with ||phi_n||_p of order n^e (ln n)^lam, exactly.

    e = 1/(2p) - 1/4 below p = 4, -1/8 at 4 and -1/(6p) - 1/12 above it
    (-1/12 at p = inf); lam is 1 at p = 4 and 0 elsewhere.
    """
    return _norm_case(p)[1:]


def norm_model_exponent(p) -> float:
    """The power exponent e(p) of the norm law, as a float."""
    return float(norm_law(p)[0])


def norm_model(nu_1d, p: float, k: int = 10) -> float:
    """Model factor for ||phi_nu||_p: frozen at rho_k for nu <= k, and
    nu^e (ln nu)^lam from ``norm_law`` above; all models are defined up to
    an absolute constant.
    """
    nu = float(nu_1d)
    if nu < 0 or not math.isfinite(nu):
        raise DomainError(f"degree must be nonnegative and finite, got {nu_1d!r}")
    _check_order(k, 2, "cutoff k")
    e, lam = norm_law(p)
    if nu <= k:
        return _lp_norm_1d_cached(int(k), float(p))
    return nu ** float(e) * math.log(nu) ** float(lam)


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
    """Bundle the quadrature norm of phi_nu with its model value, both at
    the float p the norm is computed at; the model reads that float as the
    laws do (_exact_exponent), so float(4/3) models with e(4/3) = 1/8."""
    p = _float_exponent(p)
    entries = as_entries(nu)
    computed = lp_norm_phi(entries, p, tol)
    predicted = 1.0
    for e in entries:
        predicted *= norm_model(e, p, k)
    degree = entries[0] if len(entries) == 1 else entries
    return NormEstimate(
        p=p, degree=degree, computed=computed, predicted=predicted, regime=norm_regime(p)
    )


def fit_norm_exponent(p: float, degree_range, samples: int = 10, tol: float = 1e-8) -> float:
    """Least-squares slope of log ||phi_nu||_p against log nu.

    Where the norm law carries a logarithmic factor (p = 4), the fit runs
    jointly in (log nu, log log nu) and the power coefficient is
    returned; fit_norm_exponent_p4 exposes the fitted log power too.
    """
    slope, _ = _fit(p, degree_range, samples, tol, with_log_term=norm_law(p)[1] != 0)
    return slope


def fit_norm_exponent_p4(degree_range, samples: int = 10, tol: float = 1e-8):
    """(power, log_power) from the joint fit at p = 4."""
    return _fit(4.0, degree_range, samples, tol, with_log_term=True)


def _fit(p, degree_range, samples, tol, with_log_term):
    lo, hi = (int(degree_range[0]), int(degree_range[1]))
    if not (10 <= lo < hi):
        raise DomainError(f"degree range must satisfy 10 <= lo < hi, got [{lo}, {hi}]")
    samples = _check_order(samples, 8, "samples")
    degrees = np.unique(np.rint(np.geomspace(lo, hi, samples)).astype(int))
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
