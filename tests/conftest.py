"""Shared oracles for the test suite.

Everything here is computed independently of the package internals:
closed-form Black-Scholes via the error function, and Asian prices by
direct itertools enumeration of paths. Both exist so the fast library
implementations have something honest to be compared against.
"""

import itertools
import math

import numpy as np
import pytest

from mpspricer import AsianSpec


def black_scholes_price(
    spot: float, strike: float, rate: float, vol: float, expiry: float, right: str
) -> float:
    """European option under lognormal dynamics, closed form."""

    def ncdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    d1 = (math.log(spot / strike) + (rate + 0.5 * vol**2) * expiry) / (
        vol * math.sqrt(expiry)
    )
    d2 = d1 - vol * math.sqrt(expiry)
    if right == "call":
        return spot * ncdf(d1) - strike * math.exp(-rate * expiry) * ncdf(d2)
    return strike * math.exp(-rate * expiry) * ncdf(-d2) - spot * ncdf(-d1)


def loop_path_sum(spot: float, params, moves) -> float:
    """Sum of one path's post-step prices by a plain loop; truthy moves go up."""
    price = spot
    running = 0.0
    for b in moves:
        price *= params.up if b else params.down
        running += price
    return running


def enumerate_asian_price(spec: AsianSpec) -> float:
    """Asian price by plain per-path Python loops; only sane for N <= 16."""
    p = spec.params()
    total = 0.0
    for bits in itertools.product((0, 1), repeat=spec.steps):
        n_up = sum(bits)
        avg = loop_path_sum(spec.spot, p, bits) / spec.steps
        payoff = max(avg - spec.strike, 0.0) if spec.right == "call" else max(
            spec.strike - avg, 0.0
        )
        total += p.p_up**n_up * (1.0 - p.p_up) ** (spec.steps - n_up) * payoff
    return math.exp(-spec.rate * spec.expiry) * total


@pytest.fixture
def standard_asian() -> AsianSpec:
    """The recurring at-the-money call used across method comparisons."""
    return AsianSpec(
        spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0, steps=12
    )


def all_bitstrings(n: int) -> np.ndarray:
    """All 2^n binary index tuples, shape (2^n, n), lowest bit first."""
    ids = np.arange(2**n, dtype=np.uint64)[:, None]
    return ((ids >> np.arange(n, dtype=np.uint64)[None, :]) & 1).astype(np.int64)
