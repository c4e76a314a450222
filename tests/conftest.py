"""Shared oracles for the test suite.

Everything here is computed independently of the package internals:
closed-form Black-Scholes via the error function, Asian integrands and
prices by per-path loops, and MPS values by multiplying the picked site
matrices one row at a time or contracting every bond. They exist so the
fast library implementations have something honest to be compared against.
"""

import itertools
import math

import numpy as np
import pytest

from mpspricer import MPS, AsianSpec, GridFunction


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


def path_integrand(spec: AsianSpec, moves, floor: bool = True) -> float:
    """p(x) times one path's Asian payoff by a plain loop; truthy moves go up.

    p(x) is p_up^k (1 - p_up)^(N - k) for k up moves. ``floor=False`` drops
    the max(., 0), leaving the bond-2 integrand of the exact payoff MPS.
    """
    p = spec.params()
    n_up = sum(bool(b) for b in moves)
    avg = loop_path_sum(spec.spot, p, moves) / spec.steps
    excess = avg - spec.strike if spec.right == "call" else spec.strike - avg
    payoff = max(excess, 0.0) if floor else excess
    return p.p_up**n_up * (1.0 - p.p_up) ** (spec.steps - n_up) * payoff


def path_integrands(spec: AsianSpec, bits, floor: bool = True) -> np.ndarray:
    """:func:`path_integrand` of every row of ``bits``."""
    return np.array([path_integrand(spec, row, floor) for row in bits])


def enumerate_asian_price(spec: AsianSpec) -> float:
    """Asian price by plain per-path Python loops; only sane for N <= 16."""
    total = 0.0
    for bits in itertools.product((0, 1), repeat=spec.steps):
        total += path_integrand(spec, bits)
    return math.exp(-spec.rate * spec.expiry) * total


def mps_values(mps: MPS, indices) -> np.ndarray:
    """Each index row's product of the site matrices it picks, row by row."""
    out = []
    for row in np.asarray(indices):
        vec = np.ones((1, 1))
        for t, x in zip(mps.tensors, row):
            vec = vec @ t[:, int(x), :]
        out.append(vec[0, 0])
    return np.array(out)


def mps_dense(mps: MPS) -> np.ndarray:
    """The full tensor an MPS encodes, shape ``physical_dims``, bond by bond."""
    out = mps.tensors[0][0]
    for t in mps.tensors[1:]:
        out = np.tensordot(out, t, axes=([-1], [0]))
    return out[..., 0]


def mps_grid_function(mps: MPS) -> GridFunction:
    """An MPS as a black-box grid function, its blocks joined environments."""

    def block(rows, cols):
        return mps.left_environments(rows) @ mps.right_environments(cols).T

    return GridFunction(dims=mps.physical_dims, evaluate=mps.evaluate_batch, block=block)


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
