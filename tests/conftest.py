"""Shared oracles for the test suite.

Everything here is computed independently of the package internals:
closed-form Black-Scholes via the error function, Asian integrands and
prices by per-path loops, and MPS values by multiplying the picked site
matrices one row at a time or contracting every bond. They exist so the
fast library implementations have something honest to be compared against.
Two references are exceptions. The dense basket reference walks the
package's own step-function blocks for its payoff grids, and checks only the
backward induction, by the textbook product with the one-step probability
matrix. The walked Asian price sums the package's own integrand blocks: it
is the brute force that the sorted-tail join replaced. The geometric-average
twin of the Asian integrand has an exact price at any N, so it checks the
cross where no enumeration reaches.
"""

import itertools
import math

import numpy as np
import pytest

from mpspricer import MPS, AsianSpec, GridFunction, basket, conditional_prob_matrix, decouple
from mpspricer.asian import asian_integrand
from mpspricer.ttcross import grid_blocks

# The standard CRR call (spot = strike = 100, r = 0.1, vol = 0.5, T = 1) at
# N = 32: the sorted-tail brute force with its step cap raised, which
# test_variational pins. It lies inside the two-sided automaton bracket
# [13.5862351, 13.5862685].
ASIAN_N32_CALL = 13.586235976205941


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


def walked_grid(f: GridFunction) -> np.ndarray:
    """f's whole grid, shape ``f.dims``, joined from the blocks grid_blocks walks."""
    return np.concatenate([b.ravel() for b in grid_blocks(f)]).reshape(f.dims)


def tensordot_basket_price(spec) -> float:
    """Dense basket price: every axis of every step's grid times the one-step matrix.

    Each step's payoff grid is the step function's walked blocks, so the
    dense oracle must match this bit for bit.
    """
    model = decouple(spec)
    disc = math.exp(-spec.rate * spec.dt)
    values = walked_grid(basket._step_function(spec, model, spec.steps))
    for k in range(spec.steps, 0, -1):
        pk = conditional_prob_matrix(k)
        for _ in range(spec.n_assets):
            values = np.tensordot(values, pk, axes=([0], [0]))
        values = disc * values
        if spec.style == "american":
            values = np.maximum(values, walked_grid(basket._step_function(spec, model, k - 1)))
    return float(values.reshape(-1)[0])


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


def _log_paths(log_start: float, params, bits) -> tuple[np.ndarray, np.ndarray]:
    """Log-price sum and last log-price of each row of moves from ``log_start``.

    A path of no moves sums to 0 and ends at ``log_start``.
    """
    steps = np.where(np.asarray(bits) != 0, math.log(params.up), math.log(params.down))
    logs = log_start + np.cumsum(steps, axis=-1)
    last = logs[:, -1] if logs.shape[1] else np.full(logs.shape[0], log_start)
    return logs.sum(axis=-1), last


def _geometric_payoff(spec: AsianSpec, means: np.ndarray) -> np.ndarray:
    excess = means - spec.strike if spec.right == "call" else spec.strike - means
    return np.maximum(excess, 0.0)


def _path_probabilities(params, bits) -> np.ndarray:
    ups = (np.asarray(bits) != 0).sum(axis=-1)
    return params.p_up**ups * (1.0 - params.p_up) ** (np.shape(bits)[-1] - ups)


def geometric_integrand(spec: AsianSpec) -> GridFunction:
    """p(x) times the payoff on the geometric mean of the N post-step prices.

    The geometric-average twin of :func:`~mpspricer.asian.asian_integrand`,
    with the same block shape: rows are heads of k moves priced from the
    spot, columns tails of N - k moves priced from 1.0. A joined path's
    log-price sum is head_logsum + (N - k) * head_last_log + tail_logsum.
    """
    params = spec.params()

    def block(rows, cols):
        head_sum, head_last = _log_paths(math.log(spec.spot), params, rows)
        tail_sum, _ = _log_paths(0.0, params, cols)
        logs = np.add.outer(head_sum + (spec.steps - rows.shape[1]) * head_last, tail_sum)
        out = np.multiply.outer(_path_probabilities(params, rows), _path_probabilities(params, cols))
        out *= _geometric_payoff(spec, np.exp(logs / spec.steps))
        return out

    return GridFunction(
        dims=(2,) * spec.steps,
        evaluate=lambda bits: block(bits, np.zeros((1, 0), np.int64))[:, 0],
        block=block,
    )


def geometric_asian_price(spec: AsianSpec) -> float:
    """Exact geometric-average Asian price at any N, as one dot product.

    Move k (of N) sets the log of the next N - k + 1 prices, so the log of
    the geometric mean is log S0 + (N(N+1)/2 * log d + W * log(u/d)) / N
    with W = sum_k (N - k + 1) * x_k. W's distribution is the coefficient
    list of prod_k (q + p * z^(N-k+1)).
    """
    params = spec.params()
    n = spec.steps
    p, q = params.p_up, 1.0 - params.p_up
    dist = np.zeros(n * (n + 1) // 2 + 1)
    dist[0] = 1.0
    for weight in range(1, n + 1):
        moved = q * dist
        moved[weight:] += p * dist[:-weight]
        dist = moved
    log_d, log_ud = math.log(params.down), math.log(params.up / params.down)
    w = np.arange(dist.size)
    means = np.exp(math.log(spec.spot) + (n * (n + 1) / 2 * log_d + w * log_ud) / n)
    return math.exp(-spec.rate * spec.expiry) * float(np.dot(dist, _geometric_payoff(spec, means)))


def walked_asian_price(spec: AsianSpec) -> float:
    """Asian price as the ``math.fsum`` of the integrand blocks grid_blocks walks.

    This was the brute-force oracle before the sorted-tail join: every
    path's payoff, one block of heads by tails at a time.
    """
    total = math.fsum(block.sum() for block in grid_blocks(asian_integrand(spec)))
    return math.exp(-spec.rate * spec.expiry) * total


def mp_asian_price(spec: AsianSpec) -> float:
    """Asian price over every path in 50-digit mpmath arithmetic.

    The lattice's float up, down and p_up are taken exactly, so what is
    left is the rounding of the float pricer's own sums.
    """
    import mpmath

    p = spec.params()
    with mpmath.workdps(50):
        up, down, p_up = mpmath.mpf(p.up), mpmath.mpf(p.down), mpmath.mpf(p.p_up)
        # (running sum, last price, probability) of every path so far.
        paths = [(mpmath.mpf(0), mpmath.mpf(spec.spot), mpmath.mpf(1))]
        for _ in range(spec.steps):
            paths = [
                (run + last * f, last * f, prob * q)
                for run, last, prob in paths
                for f, q in ((up, p_up), (down, 1 - p_up))
            ]
        strike = mpmath.mpf(spec.strike)
        sign = 1 if spec.right == "call" else -1
        total = mpmath.fsum(
            prob * max(sign * (run / spec.steps - strike), 0) for run, _, prob in paths
        )
        return float(mpmath.exp(-mpmath.mpf(spec.rate) * spec.expiry) * total)
