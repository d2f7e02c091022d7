"""Independent reference values for the benchmark's correctness checks.

Everything here is computed with mpmath at raised precision, from the
physicists' Hermite polynomials H_n as mpmath evaluates them, without
hermult's scaled recurrence or its adaptive quadrature:

- ||phi_n||_p for n = 0..MAX_DEGREE and p in {1, 4, inf};
- the partial sum of s_r_sum(heat:1, p1=1, p2=1, r=2/3), built from
  those norms (its terms beyond degree 30 are below 1e-18);
- the power-symbol traces sum_nu (2|nu|+n)^{-a} in closed form through
  the Dirichlet lambda function lambda(s) = (1 - 2^{-s}) zeta(s).

Regenerate the stored table with

    python3 perfbench/references.py

which rewrites perfbench/references.json (about a minute).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

MAX_DEGREE = 40
DPS = 40
OUT = Path(__file__).with_name("references.json")

# (dimension, exponent a) of the power symbols whose traces are checked
POWER_CASES = ((1, 3), (2, 5), (3, 6))


def _phi(n: int, x):
    """phi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi))."""
    norm = mp.sqrt(mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi))
    return mp.hermite(n, x) * mp.exp(-x * x / 2) / norm


def _positive_zeros(n: int) -> list:
    """Zeros of phi_n in (0, inf), polished by Newton from numpy's Gauss nodes."""
    if n == 0:
        return []
    guesses = np.polynomial.hermite.hermgauss(n)[0]
    return [mp.findroot(lambda x: _phi(n, x), mp.mpf(float(g))) for g in guesses if g > 1e-9]


def _critical_points(n: int, zeros: list) -> list:
    """Nonnegative zeros of phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}.

    Between consecutive zeros of phi_n there is exactly one; one more lies
    beyond the largest zero, where phi_n' changes sign.  For odd n the
    first lobe starts at the zero x = 0.
    """
    if n == 0:
        return [mp.mpf(0)]

    def g(x):
        return mp.sqrt(mp.mpf(n) / 2) * _phi(n - 1, x) - mp.sqrt(mp.mpf(n + 1) / 2) * _phi(n + 1, x)

    edges = ([mp.mpf(0)] if n % 2 == 1 else []) + zeros
    points = [] if n % 2 == 1 else [mp.mpf(0)]
    brackets = list(zip(edges, edges[1:])) + [(edges[-1], edges[-1] + 4)]
    return points + [_bracketed_root(g, a, b) for a, b in brackets]


def _bracketed_root(f, a, b):
    """Root of f in [a, b], where f changes sign: bisection, then secant."""
    fa = f(a)
    for _ in range(40):
        mid = (a + b) / 2
        fm = f(mid)
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return mp.findroot(f, (a + b) / 2)


def norms(n: int) -> dict:
    """{p: ||phi_n||_p} for p in 1, 2, 4, inf; integrals split at the zeros."""
    zeros = _positive_zeros(n)
    panels = [mp.mpf(0)] + zeros + [mp.inf]
    l1 = 2 * mp.quad(lambda x: abs(_phi(n, x)), panels)
    l2sq = 2 * mp.quad(lambda x: _phi(n, x) ** 2, panels)
    l4 = 2 * mp.quad(lambda x: _phi(n, x) ** 4, panels)
    sup = max(abs(_phi(n, x)) for x in _critical_points(n, zeros))
    return {"1": l1, "2": mp.sqrt(l2sq), "4": mp.root(l4, 4), "inf": sup}


def dirichlet_lambda(s):
    """sum over odd j >= 1 of j^{-s}."""
    return (1 - mp.mpf(2) ** -s) * mp.zeta(s)


def power_trace(n: int, a: int):
    """sum over nu in N_0^n of (2|nu| + n)^{-a}, for n in 1..3."""
    a = mp.mpf(a)
    if n == 1:
        return dirichlet_lambda(a)
    if n == 2:
        # level K has K+1 indices and eigenvalue 2(K+1)
        return mp.mpf(2) ** -a * mp.zeta(a - 1)
    if n == 3:
        # level K has (K+1)(K+2)/2 = (j^2-1)/8 indices, j = 2K+3 odd
        return (dirichlet_lambda(a - 2) - dirichlet_lambda(a)) / 8
    raise ValueError(f"no closed form for dimension {n}")


def build() -> dict:
    mp.mp.dps = DPS
    table = {p: [] for p in ("1", "2", "4", "inf")}
    for n in range(MAX_DEGREE + 1):
        for p, v in norms(n).items():
            table[p].append(v)
    bad = max(abs(v - 1) for v in table["2"])
    if bad > mp.mpf(10) ** (-DPS + 10):
        raise SystemExit(f"reference L2 norms are off by {mp.nstr(bad, 5)}")
    r = mp.mpf(2) / 3
    sr = mp.fsum(
        mp.exp(-(2 * u + 1) * r) * (table["1"][u] * table["inf"][u]) ** r
        for u in range(MAX_DEGREE + 1)
    )
    return {
        "generator": "perfbench/references.py",
        "mpmath_dps": DPS,
        "max_degree": MAX_DEGREE,
        "norms": {p: [float(v) for v in table[p]] for p in ("1", "4", "inf")},
        "s_r_heat1_p1_1_p2_1_r_2_3": float(sr),
        "power_trace": {f"{n}:{a}": float(power_trace(n, a)) for n, a in POWER_CASES},
    }


if __name__ == "__main__":
    OUT.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {OUT}\n")
