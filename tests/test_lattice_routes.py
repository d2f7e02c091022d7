"""One symbol in its radial, custom and table forms gives the same lattice sums.

Every partial sum over |nu| <= N (kernel series, criterion sums, traces)
goes through spectral_ops.lattice_sum, which sums a radial symbol by
level, a table over its support and a custom symbol over the lattice.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hermult.errors import CapabilityError
from hermult.hermite_core import enumerate_up_to
from hermult.nuclearity import classify_regime, kappa_sum, s_r_sum
from hermult.spectral_ops import (
    Envelope,
    custom_symbol,
    heat_symbol,
    kernel_series,
    lattice_sum,
    power_symbol,
    table_symbol,
)
from hermult.trace_lab import trace_diagonal_quadrature, trace_symbol_sum

CASE = (Fraction(4, 3), 2, 1)

ROUTES = {
    "kernel_series": lambda m, N: kernel_series(
        m, np.linspace(0.3, -0.4, m.dimension), np.linspace(0.2, 0.1, m.dimension), N).value,
    "kappa_sum": lambda m, N: kappa_sum(m, classify_regime(*CASE), N=N).partial_sum,
    "s_r_sum": lambda m, N: s_r_sum(m, *CASE, N=N).partial_sum,
    "trace_symbol_sum": lambda m, N: trace_symbol_sum(m, N=N).value,
    "trace_diagonal_quadrature": lambda m, N: trace_diagonal_quadrature(m, N=N),
}


def three_forms(t, n, N):
    """heat_symbol(t, n), a custom symbol with its evaluator and envelope,
    and the table of its values up to level N."""
    radial = heat_symbol(t, n)
    custom = custom_symbol(radial.evaluator, n=n, envelope=radial.envelope)
    table = table_symbol({nu.entries: radial(nu) for nu in enumerate_up_to(n, N)}, n=n)
    return radial, custom, table


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("n,N", [(1, 30), (2, 24), (3, 30)])
def test_routes_agree(route, n, N):
    radial, custom, table = three_forms(0.7, n, N)
    want = ROUTES[route](radial, N)
    assert want != 0.0
    for m in (custom, table):
        assert ROUTES[route](m, N) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("route", ROUTES)
def test_custom_lattice_above_cap_is_refused(route):
    # C(66, 6) = 90,858,768 indices with |nu| <= 60 in dimension 6
    m = custom_symbol(lambda e: math.exp(-sum(e)), n=6,
                      envelope=Envelope(kind="exponential", C=1.0, rate=1.0))
    with pytest.raises(CapabilityError, match="lattice"):
        ROUTES[route](m, 60)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radial_sum_streams_its_levels(n):
    # a list of the 102,401 levels would hold at least 3.2 MB
    m = power_symbol(3.0, n=n)
    N = 102_400
    tracemalloc.start()
    try:
        got = lattice_sum(m, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    want = math.fsum(m.level_value(K) * math.comb(K + n - 1, n - 1) for K in range(N + 1))
    assert got == want


def test_power_trace_evaluates_each_level_once():
    calls = []
    base = power_symbol(3.0)

    def counted(K):
        calls.append(K)
        return base.level_evaluator(K)

    got = trace_symbol_sum(dataclasses.replace(base, level_evaluator=counted))
    assert got.truncation_order == 25_600
    assert calls == list(range(25_601))
