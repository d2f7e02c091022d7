"""Symbols, Hermite-Fourier transforms, multiplier application, kernels.

A multiplier acts diagonally on the Hermite basis: analysis produces
coefficients c(nu) = integral of f * phi_nu, the symbol scales them, and
synthesis sums c(nu) phi_nu(x).  Kernels come in two forms: the
truncated series sum over |nu| <= N with a certified tail bound, and
the closed-form heat kernel for comparison.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._accel import phi_table
from .errors import CapabilityError, DomainError
from .hermite_core import MAX_DEGREE_DEFAULT, _check_order, as_entries, count_up_to, enumerate_up_to
from .quadrature import QuadratureRule, _full_line, roots_hermite

# Indritz's uniform bound sup_x |phi_k(x)| <= pi^(-1/4) (Proc. Amer. Math.
# Soc. 12 (1961)), an equality at k = 0, used as the per-factor constant in
# certified series tails; Cramer's classical 1.086435 pi^(-1/4) is weaker.
PHI_SUP_BOUND = math.pi ** -0.25

_SNAP = 1e-14
_LATTICE_CAP = 2_000_000
# Products of the level-column convolutions above which kernel_series
# refuses a radial symbol, (n - 1) (N + 1)^2: in dimension 2 order 10^5,
# which took 1.3 s (6.2 s at 2 * 10^5), and in dimension 3 order 70,710
# (0.7 s at 5 * 10^4; 2 vCPUs).
_CONVOLUTION_CAP = 10**10


def _scaled_power(C: float, x: float, e: float) -> float:
    """C * x**e for C >= 0 and x > 0, inf where x**e alone would overflow
    and the product does too (x < 1 and e very negative)."""
    try:
        return C * x ** e
    except OverflowError:
        if C == 0.0:
            return 0.0
        L = math.log(C) + e * math.log(x)
        return math.exp(L) if L < 709.0 else math.inf


@dataclass(frozen=True)
class Envelope:
    """Certified upper bound on |m(nu)| as a function of K = |nu|.

    kinds: "exponential" (C e^{-rate K}), "polynomial" (C (shift+K)^{-rate}),
    "finite" (zero beyond level support_order).  C and rate must be finite,
    C >= 0, rate > 0 for "exponential" and rate >= 0 for "polynomial";
    shift must be finite and > 0.
    """

    kind: str
    C: float = 1.0
    rate: float = 0.0
    support_order: int = -1
    shift: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exponential", "polynomial", "finite"):
            raise DomainError(f"unknown envelope kind {self.kind!r}")
        if not (math.isfinite(self.C) and math.isfinite(self.rate)):
            raise DomainError(f"envelope constant and rate must be finite, got "
                              f"C = {self.C!r}, rate = {self.rate!r}")
        if self.C < 0:
            raise DomainError("envelope constant must be nonnegative")
        if self.kind == "exponential" and self.rate <= 0:
            raise DomainError("exponential envelope needs rate > 0")
        if self.kind == "polynomial" and self.rate < 0:
            raise DomainError("polynomial envelope needs rate >= 0")
        if not (self.shift > 0 and math.isfinite(self.shift)):
            raise DomainError(f"envelope shift must be positive and finite, got {self.shift!r}")

    def level_bound(self, K: int) -> float:
        if self.kind == "exponential":
            t = -self.rate * K
            return self.C * math.exp(t) if t > -745.0 else 0.0
        if self.kind == "polynomial":
            return _scaled_power(self.C, self.shift + K, -self.rate)
        return self.C if K <= self.support_order else 0.0


@dataclass(frozen=True)
class LowerEnvelope:
    """Certified lower bound |m(nu)| >= c * (1+|nu|)^{-beta}."""

    c: float
    beta: float

    def __post_init__(self):
        if self.c <= 0:
            raise DomainError("lower envelope constant must be positive")


@dataclass(frozen=True)
class Symbol:
    """Multiplier symbol m: N_0^n -> R with optional certified envelopes."""

    kind: str
    dimension: int
    evaluator: Callable[[tuple[int, ...]], float]
    envelope: Envelope | None = None
    lower_envelope: LowerEnvelope | None = None
    level_evaluator: Callable[[int], float] | None = None
    table: dict | None = field(default=None, repr=False)
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("heat", "power", "table", "custom"):
            raise DomainError(f"unknown symbol kind {self.kind!r}")
        _check_order(self.dimension, 1, "symbol dimension")

    def __call__(self, nu) -> float:
        entries = as_entries(nu)
        if len(entries) != self.dimension:
            raise DomainError(
                f"index has dimension {len(entries)}, symbol has {self.dimension}"
            )
        return float(self.evaluator(entries))

    @property
    def is_radial(self) -> bool:
        """True when m(nu) depends on |nu| only."""
        return self.level_evaluator is not None

    def level_value(self, K: int) -> float:
        if self.level_evaluator is None:
            raise DomainError("symbol is not level-radial")
        return float(self.level_evaluator(int(K)))

    def support_items(self):
        """Sorted (entries, value) pairs; finite-support symbols only."""
        if self.table is None:
            raise DomainError("symbol has no finite table")
        return sorted(self.table.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def heat_symbol(t: float, n: int = 1) -> Symbol:
    """Heat semigroup symbol e^{-t(2|nu|+n)}."""
    t = float(t)
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    n = _check_order(n, 1, "dimension")

    def ev(entries):
        return math.exp(-t * (2 * sum(entries) + n))

    def lev(K):
        return math.exp(-t * (2 * K + n))

    env = Envelope(kind="exponential", C=math.exp(-t * n), rate=2.0 * t)
    return Symbol(
        kind="heat", dimension=n, evaluator=ev, envelope=env,
        level_evaluator=lev, label=f"heat:{t:g}",
    )


def power_symbol(a: float, n: int = 1) -> Symbol:
    """Symbol (2|nu|+n)^{-a} with a > 0.

    Its lower envelope (n+2)^{-a} (1+|nu|)^{-a} is left out (None) where
    (n+2)^{-a} underflows to 0.0, from a > 677.9 at n = 1 (a > 462.8 at
    n = 3), so divergence is never certified there; the symbol is summable
    for every such a anyway.  a >= 1075, where 2^{-a} is 0.0, is refused:
    its envelope constant would certify a zero tail.
    """
    a = float(a)
    if not (a > 0 and math.isfinite(a)):
        raise DomainError(f"a must be positive and finite, got {a}")
    n = _check_order(n, 1, "dimension")
    if 2.0 ** -a == 0.0:
        raise DomainError(f"a = {a:g} is too large: the envelope constant 2^-a underflows to 0")

    def ev(entries):
        return (2.0 * sum(entries) + n) ** -a

    def lev(K):
        return (2.0 * K + n) ** -a

    # the envelope is the symbol itself, 2^{-a} (n/2+|nu|)^{-a}, so the
    # tail it certifies is the integral of the level sum (level_tail_bound);
    # below, 2|nu|+n <= (n+2)(1+|nu|)
    env = Envelope(kind="polynomial", C=2.0 ** -a, rate=a, shift=n / 2.0)
    c = (n + 2.0) ** -a
    low = LowerEnvelope(c=c, beta=a) if c > 0.0 else None
    return Symbol(
        kind="power", dimension=n, evaluator=ev, envelope=env,
        lower_envelope=low, level_evaluator=lev, label=f"power:{a:g}",
    )


def table_symbol(mapping: dict, n: int = 1) -> Symbol:
    """Finite-support symbol; zero outside the given map."""
    n = _check_order(n, 1, "dimension")
    clean = {}
    maxlevel = -1
    maxval = 0.0
    for key, val in mapping.items():
        entries = as_entries(key)
        if len(entries) != n:
            raise DomainError(f"table key {key!r} has wrong dimension (expected {n})")
        v = float(val)
        if not math.isfinite(v):
            raise DomainError(f"table value at {entries!r} is not finite: {val!r}")
        clean[entries] = v
        maxlevel = max(maxlevel, sum(entries))
        maxval = max(maxval, abs(v))

    def ev(entries):
        return clean.get(entries, 0.0)

    env = Envelope(kind="finite", C=maxval, support_order=maxlevel)
    return Symbol(kind="table", dimension=n, evaluator=ev, envelope=env,
                  table=clean, label="table")


def constant_symbol(value: float, n: int = 1) -> Symbol:
    """Constant symbol m(nu) = value; carries tight two-sided envelopes."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"constant symbol value must be finite, got {value}")
    n = _check_order(n, 1, "dimension")
    env = Envelope(kind="polynomial", C=abs(value), rate=0.0)
    low = LowerEnvelope(c=abs(value), beta=0.0) if value != 0.0 else None
    return Symbol(
        kind="custom", dimension=n, evaluator=lambda entries: value,
        envelope=env, lower_envelope=low, level_evaluator=lambda K: value,
        label=f"const:{value:g}",
    )


def custom_symbol(fn, n: int = 1, envelope: Envelope | None = None,
                  lower_envelope: LowerEnvelope | None = None,
                  level_fn=None, label: str = "custom") -> Symbol:
    """Wrap a user evaluator; envelopes are trusted as certified."""
    n = _check_order(n, 1, "dimension")
    return Symbol(kind="custom", dimension=n, evaluator=fn, envelope=envelope,
                  lower_envelope=lower_envelope, level_evaluator=level_fn, label=label)


def _exp_polylog_tail(coeff: float, crate: float, n: int,
                      a_pow: float, l_pow: float, N: int) -> float:
    """Certified sum over K > N of
    coeff * C(K+n-1, n-1) * (1+K)^a_pow * ln(2+K)^l_pow * e^{-crate*K}.

    The term ratio is bounded by a quantity decreasing to e^{-crate} < 1,
    so once it drops below 1 a geometric remainder closes the sum.
    """
    if coeff == 0.0:
        return 0.0
    total = 0.0
    K = N + 1
    base_ratio = math.exp(-crate)
    while True:
        t = -crate * K
        if t <= -745.0:
            return total
        term = coeff * math.comb(K + n - 1, n - 1) * math.exp(t)
        if a_pow != 0.0:
            term *= (1.0 + K) ** a_pow
        if l_pow != 0.0:
            term *= math.log(2.0 + K) ** l_pow
        if term == 0.0:
            return total
        q = base_ratio * (K + n) / (K + 1)
        if a_pow > 0.0:
            q *= ((K + 2) / (K + 1)) ** a_pow
        if l_pow > 0.0:
            q *= (math.log(3.0 + K) / math.log(2.0 + K)) ** l_pow
        if q < 1.0:
            remainder = term * q / (1.0 - q)
            if remainder <= 1e-9 * (total + term) or K - N > 200_000:
                return total + term + remainder
        total += term
        K += 1


def level_tail_bound(m: Symbol, N: int) -> float | None:
    """Certified bound on sum_{|nu| > N} |m(nu)|, or None if unavailable.

    Exponential envelopes sum the level majorant mult(K)*C*e^{-cK} with a
    geometric remainder once the term ratio drops below 1; finite tables
    are summed exactly.  A polynomial envelope C (s+K)^{-beta} converges
    iff beta > n, and its level sum is bounded by the integral from N of
    a decreasing majorant (the integral test).  AM-GM gives
    mult(K) = C(K+n-1, n-1) <= (K+n/2)^(n-1)/(n-1)!, and for K > N
    (K+n/2)/(K+s) <= q = max(1, (N+1+n/2)/(N+1+s)), so the tail is at most
    C q^(n-1) (N+s)^(n-beta) / ((n-1)! (beta-n)).  The power symbol's
    envelope is the symbol itself (s = n/2, q = 1), which makes this the
    integral of its own level sum.
    """
    n = m.dimension
    if m.table is not None:
        return math.fsum(abs(v) for key, v in m.table.items() if sum(key) > N)
    env = m.envelope
    if env is None:
        return None
    if env.kind == "finite":
        return 0.0 if N >= env.support_order else None
    if env.kind == "exponential":
        return _exp_polylog_tail(env.C, env.rate, n, 0.0, 0.0, N)
    beta, s = env.rate, env.shift
    if beta <= n:
        return None
    q = max(1.0, (N + 1 + n / 2) / (N + 1 + s))
    C = env.C * q ** (n - 1)
    return _scaled_power(C, N + s, n - beta) / (math.factorial(n - 1) * (beta - n))


def _check_lattice(n: int, N: int):
    """Refuse with CapabilityError a sum over every index of |nu| <= N in
    dimension n, as a non-radial custom symbol takes, past _LATTICE_CAP
    indices."""
    size = count_up_to(n, N)
    if size > _LATTICE_CAP:
        raise CapabilityError(
            f"lattice of {size} indices is too large for a non-radial custom symbol"
        )


def lattice_sum(m: Symbol, N: int, term=float, factors=None) -> float:
    """fsum over |nu| <= N of term(m(nu)) * prod_j factors[nu_j, j].

    ``factors`` has N + 1 rows and one column per coordinate, or a single
    column shared by all of them; None makes every factor 1.  Radial
    symbols are summed level by level, with level weights from the
    convolution of the columns (the binomial level counts when ``factors``
    is None); finite tables over their support; other symbols over the
    whole lattice, refused above _LATTICE_CAP indices.
    """
    n = m.dimension
    F = None
    if factors is not None:
        F = np.broadcast_to(np.asarray(factors, dtype=float).reshape(N + 1, -1), (N + 1, n))
    if m.is_radial:
        # levels stream into fsum: a list of them would cost 32 bytes a level
        levels = map(float, map(m.level_evaluator, range(N + 1)))
        if term is not float:
            levels = map(term, levels)
        if F is None:
            # C(K + n - 1, n - 1) indices at level K
            g = map(math.comb, range(n - 1, N + n), itertools.repeat(n - 1))
        else:
            g = F[:, 0]
            for j in range(1, n):
                g = np.convolve(g, F[:, j])[: N + 1]
        return math.fsum(map(operator.mul, levels, g))
    if m.table is not None:
        items = [(key, v) for key, v in m.support_items() if sum(key) <= N]
    else:
        _check_lattice(n, N)
        items = ((nu.entries, m(nu)) for nu in enumerate_up_to(n, N))
    if F is None:
        return math.fsum(term(v) for _, v in items)
    cols = F.T.tolist()
    return math.fsum(
        term(v) * math.prod(cols[j][u] for j, u in enumerate(key)) for key, v in items
    )


@dataclass(frozen=True)
class CoefficientVector:
    """Finitely supported Hermite coefficients up to order max_order."""

    dimension: int
    max_order: int
    values: dict

    def __post_init__(self):
        if self.dimension < 1 or self.max_order < 0:
            raise DomainError("need dimension >= 1 and max_order >= 0")
        clean = {}
        for key, val in self.values.items():
            entries = as_entries(key)
            if len(entries) != self.dimension:
                raise DomainError(f"coefficient key {key!r} has wrong dimension")
            if sum(entries) > self.max_order:
                raise DomainError(f"coefficient key {key!r} exceeds max order {self.max_order}")
            v = float(val)
            if not math.isfinite(v):
                raise DomainError(f"coefficient at {key!r} is not finite")
            clean[entries] = v
        object.__setattr__(self, "values", clean)

    def get(self, nu) -> float:
        return self.values.get(as_entries(nu), 0.0)

    def items(self):
        """Deterministic (level-major, lexicographic) nonzero items."""
        return sorted(self.values.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def l2_sq(self) -> float:
        """Parseval partial sum of squared coefficients."""
        return math.fsum(v * v for _, v in self.items())

    def support(self):
        return [k for k, _ in self.items()]

    def to_csv_rows(self):
        """Header plus rows; magnitudes below 1e-14 snap to exact zero."""
        header = [f"nu{j + 1}" for j in range(self.dimension)] + ["value"]
        rows = [header]
        for key, val in self.items():
            snapped = 0.0 if abs(val) < _SNAP else val
            rows.append([str(e) for e in key] + [repr(snapped)])
        return rows

    def to_json_obj(self):
        return {
            "schema": 1,
            "dimension": self.dimension,
            "max_order": self.max_order,
            "entries": [
                {"nu": list(key), "value": (0.0 if abs(val) < _SNAP else val)}
                for key, val in self.items()
            ],
        }


def effective_weights(rule: QuadratureRule) -> np.ndarray:
    """Weights for integrating plain functions (no e^{-x^2} factor).

    For Gauss-Hermite rules this is w_i e^{x_i^2}, mirrored from the
    half-rule of ``roots_hermite``, which computes it as 2 / phi_M'(x_i)^2
    and so stays in range for every rule size.  Truncated rules already
    integrate plain functions.
    """
    if rule.kind == "gauss_hermite":
        M = len(rule)
        y, w = roots_hermite(M)
        if not np.array_equal(rule.nodes, _full_line(y, M, -1.0)):
            raise DomainError(f"rule nodes are not those of the {M}-point Gauss-Hermite rule")
        return _full_line(w, M)
    return rule.weights.copy()


def _grid_values(f, nodes, n):
    M = len(nodes)
    if M ** n > _LATTICE_CAP:
        raise CapabilityError(f"tensor grid {M}^{n} too large")
    if n == 1:
        vals = np.array([float(f(float(x))) for x in nodes])
    else:
        vals = np.empty((M,) * n)
        for idx in np.ndindex(*vals.shape):
            point = np.array([nodes[i] for i in idx])
            vals[idx] = float(f(point))
    if not np.all(np.isfinite(vals)):
        raise DomainError("integrand produced a non-finite sample")
    return vals


def analyze(f, N: int, rule: QuadratureRule, dimension: int = 1) -> CoefficientVector:
    """Hermite-Fourier coefficients of f up to order N via the given rule."""
    N, dimension = _check_order(N), _check_order(dimension, 1, "dimension")
    ew = effective_weights(rule)
    T = phi_table(rule.nodes, N)
    fvals = _grid_values(f, rule.nodes, dimension)
    if dimension == 1:
        coef = T @ (ew * fvals)
        values = {(u,): float(coef[u]) for u in range(N + 1)}
    else:
        weighted = fvals
        for axis in range(dimension):
            weighted = np.moveaxis(np.moveaxis(weighted, axis, -1) * ew, -1, axis)
        letters = "abcdefgh"[:dimension]
        subs = ",".join(f"{ax.upper()}{ax}" for ax in letters)
        contraction = f"{subs},{letters}->{letters.upper()}"
        coef = np.einsum(contraction, *([T] * dimension), weighted)
        values = {}
        for nu in enumerate_up_to(dimension, N):
            values[nu.entries] = float(coef[nu.entries])
    return CoefficientVector(dimension=dimension, max_order=N, values=values)


def apply_multiplier(m: Symbol, c: CoefficientVector) -> CoefficientVector:
    """Componentwise product m(nu) * c(nu); support never grows."""
    if m.dimension != c.dimension:
        raise DomainError("symbol and coefficients have different dimensions")
    values = {key: m(key) * val for key, val in c.items()}
    return CoefficientVector(dimension=c.dimension, max_order=c.max_order, values=values)


def synthesize(c: CoefficientVector, x) -> float:
    """Pointwise sum of c(nu) * phi_nu(x)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if len(xs) != c.dimension:
        raise DomainError(f"point has dimension {len(xs)}, expected {c.dimension}")
    if not np.all(np.isfinite(xs)):
        raise DomainError("points must be finite")
    items = c.items()
    if not items:
        return 0.0
    T = phi_table(xs, c.max_order)
    terms = []
    for key, val in items:
        prod = val
        for j, u in enumerate(key):
            prod *= T[u, j]
        terms.append(prod)
    return math.fsum(terms)


def project_level(c: CoefficientVector, k: int) -> CoefficientVector:
    """Keep exactly the coefficients with |nu| = k."""
    if not 0 <= k <= c.max_order:
        raise DomainError(f"level {k} outside [0, {c.max_order}]")
    values = {key: val for key, val in c.items() if sum(key) == k}
    return CoefficientVector(dimension=c.dimension, max_order=c.max_order, values=values)


@dataclass(frozen=True)
class KernelValue:
    """Truncated kernel sum plus (when certifiable) a rigorous tail bound."""

    value: float
    tail_bound: float | None
    truncation_order: int


def kernel_series(m: Symbol, x, y, N: int) -> KernelValue:
    """Truncated kernel sum_{|nu| <= N} m(nu) phi_nu(x) phi_nu(y).

    A radial symbol sums its levels with weights from n - 1 convolutions
    of the order-N columns.  Refused with CapabilityError before any work,
    phi_table's included: an order above MAX_DEGREE_DEFAULT, a radial
    symbol past _CONVOLUTION_CAP products of the columns, and a non-radial
    custom symbol past _LATTICE_CAP indices, as lattice_sum refuses it."""
    N = _check_order(N)
    n = m.dimension
    if N > MAX_DEGREE_DEFAULT:
        raise CapabilityError(f"order {N} exceeds {MAX_DEGREE_DEFAULT}")
    if m.is_radial:
        if (n - 1) * (N + 1) ** 2 > _CONVOLUTION_CAP:
            raise CapabilityError(
                f"order {N} in dimension {n} needs {(n - 1) * (N + 1) ** 2:.2g} convolution "
                f"products, above {_CONVOLUTION_CAP:.0e}"
            )
    elif m.table is None:
        _check_lattice(n, N)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if len(xs) != n or len(ys) != n:
        raise DomainError(f"points must have dimension {n}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DomainError("points must be finite")
    # one table on all 2n points: the rescalings act on each point alone,
    # so its columns are those of separate tables on x and on y
    T = phi_table(np.concatenate((xs, ys)), N)
    # phi_u(x_j) phi_u(y_j), one column per coordinate
    value = lattice_sum(m, N, factors=T[:, :n] * T[:, n:])
    tail = level_tail_bound(m, N)
    if tail is not None:
        tail *= PHI_SUP_BOUND ** (2 * n)
    return KernelValue(value=value, tail_bound=tail, truncation_order=N)


def _log_sinh(z: float) -> float:
    """ln(sinh z) for z > 0, stable for both tiny and huge z.

    expm1 keeps full relative accuracy near zero, where exp followed by
    log1p loses the low bits of 1 - e^{-2z}.
    """
    if z < 1e-8:
        return math.log(z) + z * z / 6.0
    return z + math.log(-math.expm1(-2.0 * z)) - math.log(2.0)


def mehler_kernel(t: float, x, y) -> float:
    """Closed-form heat kernel at time t.

    K_t(x,y) = (2 pi)^{-n/2} sinh(2t)^{-n/2}
               * exp(-(|x|^2+|y|^2)/2 * coth(2t) + <x,y> csch(2t)).

    The exponent is evaluated in the equivalent cancellation-free form
    -(|x|^2+|y|^2)/2 * tanh(t) - |x-y|^2/2 * csch(2t), which reduces to
    -|x|^2 tanh(t) on the diagonal.  The result is strictly positive
    mathematically; values beyond the double range underflow to 0.0.
    """
    t = float(t)
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if xs.shape != ys.shape:
        raise DomainError("x and y must have the same dimension")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DomainError("points must be finite")
    n = len(xs)
    z = 2.0 * t
    # squares past the double range are inf, which gives the value 0.0
    with np.errstate(over="ignore"):
        sq = float(xs @ xs + ys @ ys)
        d = xs - ys
        diffsq = float(d @ d)
    L = -0.5 * n * (math.log(2.0 * math.pi) + _log_sinh(z))
    L -= 0.5 * sq * math.tanh(t)
    if diffsq != 0.0:
        # csch may overflow to inf at subnormal t; L becomes -inf then
        csch = 1.0 / math.sinh(z) if z < 700.0 else 0.0
        L -= 0.5 * diffsq * csch
    if L > 709.0:
        raise CapabilityError(
            f"kernel value overflows: log-value {L:.6g} exceeds the exp threshold 709.78"
        )
    return math.exp(L) if L > -745.0 else 0.0
