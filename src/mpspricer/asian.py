"""Arithmetic-average (Asian) option pricing on the full binomial path space.

A path is a bit string x in {0,1}^N; the option pays on the arithmetic
mean of the N post-step prices. The discounted expectation runs over all
2^N paths, which brute force enumerates directly and the tensor methods
compress.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .binomial import SchemeParams, SingleAssetSpec, check_int, path_prices, path_probability
from .reports import PriceReport
from .ttcross import CrossConfig, GridFunction, ttcross_approximate

BRUTEFORCE_MAX_STEPS = 25
_ENUM_CHUNK = 1 << 16
# Monte Carlo paths per block. The uniforms fill row-major, so the block
# size only regroups the sums. 2^12 paths of 64 steps are 2 MiB of prices,
# one core's L2 on a 2-core Xeon, where 10^6 paths ran 2x faster than in
# blocks of 2^17.
_MC_CHUNK = 1 << 12

# An Asian option takes exactly the single-asset inputs; the second name
# keeps call sites reading as the product they price.
AsianSpec = SingleAssetSpec


def _signed_excess(spec: AsianSpec, means: np.ndarray) -> np.ndarray:
    """Path mean minus strike, sign-flipped for puts: the unfloored payoff."""
    signed = means - spec.strike
    return signed if spec.right == "call" else -signed


def asian_linear_payoff(spec: AsianSpec, bits: np.ndarray) -> np.ndarray:
    """Payoff with the floor at zero dropped (mean - K, sign-flipped for puts)."""
    means = path_prices(spec.spot, spec.params(), bits).mean(axis=-1)
    return _signed_excess(spec, means)


def asian_path_payoff(spec: AsianSpec, bits: np.ndarray) -> np.ndarray:
    """Undiscounted payoff of each path: the mean-price payoff at expiry."""
    return np.maximum(asian_linear_payoff(spec, bits), 0.0)


def _partial_paths(
    spot: float, params: SchemeParams, bits: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Running-price sum, last price and probability of paths started at ``spot``.

    A path of no moves sums to 0, ends at ``spot`` and has probability 1.
    """
    prices = path_prices(spot, params, bits)
    last = prices[:, -1] if prices.shape[1] else np.full(prices.shape[0], spot)
    return prices.sum(axis=-1), last, path_probability(params, bits)


def _path_means(head_sum, head_last, tail_sum, n: int) -> np.ndarray:
    """Means of every head joined with every tail, shape (tails, heads).

    Tails are priced from 1.0, so a tail's prices scale by its head's last
    price: the mean of a joined path of n moves is
    (head_sum + head_last * tail_sum) / n.
    """
    return (head_sum + np.multiply.outer(tail_sum, head_last)) / n


def _integrand(spec: AsianSpec, floored: bool) -> GridFunction:
    """p(x) times the payoff on {0,1}^N, with the floor at zero or without.

    Its block prices the row prefixes from the spot and the column
    suffixes from 1.0, and joins them by :func:`_path_means`.
    """
    params = spec.params()
    payoff = asian_path_payoff if floored else asian_linear_payoff

    def evaluate(bits: np.ndarray) -> np.ndarray:
        return path_probability(params, bits) * payoff(spec, bits)

    def block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        head_sum, head_last, p_head = _partial_paths(spec.spot, params, rows)
        tail_sum, _, p_tail = _partial_paths(1.0, params, cols)
        means = _path_means(head_sum, head_last, tail_sum, spec.steps).T
        excess = _signed_excess(spec, means)
        if floored:
            np.maximum(excess, 0.0, out=excess)
        return np.multiply.outer(p_head, p_tail) * excess

    return GridFunction(dims=(2,) * spec.steps, evaluate=evaluate, block=block)


def asian_integrand(spec: AsianSpec) -> GridFunction:
    """Probability-weighted payoff p(x) * v(x) as a grid function on {0,1}^N."""
    return _integrand(spec, floored=True)


def asian_linear_integrand(spec: AsianSpec) -> GridFunction:
    """p(x) times the unfloored payoff; exactly bond dimension 2 as an MPS."""
    return _integrand(spec, floored=False)


def _enumerate_bits(n: int) -> np.ndarray:
    """Bit rows of all 2^n paths of n moves; bit i is the step-i move."""
    ids = np.arange(1 << n, dtype=np.uint64)
    shifts = np.arange(n, dtype=np.uint64)
    return ((ids[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)


def price_asian_bruteforce(spec: AsianSpec) -> PriceReport:
    """Exact price by summing all 2^N paths; refuses N > BRUTEFORCE_MAX_STEPS.

    Each path is a head of the first N//2 moves and a tail of the rest,
    priced from the spot and from 1.0: its mean is :func:`_path_means` and
    its probability p_head * p_tail. The 2^N payoffs are evaluated in
    blocks of tails against every head, from O(2^(N/2) N) path-price work.
    """
    n = spec.steps
    if n > BRUTEFORCE_MAX_STEPS:
        raise ValueError(
            f"brute force over 2^{n} = {1 << n} paths exceeds the "
            f"2^{BRUTEFORCE_MAX_STEPS} cap; use a tensor method or Monte Carlo"
        )
    params = spec.params()
    start_time = time.perf_counter()
    head_sum, head_last, p_head = _partial_paths(
        spec.spot, params, _enumerate_bits(n // 2)
    )
    tail_sum, _, p_tail = _partial_paths(1.0, params, _enumerate_bits(n - n // 2))
    rows = max(1, _ENUM_CHUNK // len(head_sum))
    acc = 0.0
    for start in range(0, len(tail_sum), rows):
        block = slice(start, start + rows)
        means = _path_means(head_sum, head_last, tail_sum[block], n)
        payoff = np.maximum(_signed_excess(spec, means), 0.0)
        acc += float(p_tail[block] @ (payoff @ p_head))
    price = math.exp(-spec.rate * spec.expiry) * acc
    return PriceReport(
        price=price,
        method="bruteforce",
        wall_time_s=time.perf_counter() - start_time,
        diagnostics={"n_paths": 1 << n},
    )


def price_asian_ttcross(
    spec: AsianSpec,
    bond_dim: int = 32,
    seed: int = 0,
    n_sweeps: int = 8,
    tol: float = 1e-10,
) -> PriceReport:
    """Cross-approximate p(x)*v(x), then sum the MPS over all paths."""
    cfg = CrossConfig(max_bond=bond_dim, n_sweeps=n_sweeps, tol=tol, seed=seed)
    start_time = time.perf_counter()
    result = ttcross_approximate(asian_integrand(spec), cfg)
    price = math.exp(-spec.rate * spec.expiry) * result.mps.sum_all()
    return PriceReport(
        price=price,
        method="ttcross",
        seed=seed,
        bond_dim=bond_dim,
        n_sweeps=result.n_sweeps_run,
        wall_time_s=time.perf_counter() - start_time,
        warnings=list(result.warnings),
        diagnostics={
            "n_evals": result.n_evals,
            "converged": result.converged,
            "max_bond_used": result.mps.max_bond,
            "stop_reason": result.stop_reason,
            "probe_changes": list(result.probe_changes),
            "heldout_residual": result.heldout_residual,
        },
        mps=result.mps,
    )


def price_asian_montecarlo(
    spec: AsianSpec, n_samples: int = 100_000, seed: int = 0
) -> PriceReport:
    """Plain Monte Carlo over i.i.d. Bernoulli(p_up) step indicators."""
    n_samples = check_int("n_samples", n_samples, 2)
    check_int("seed", seed, 0)
    params = spec.params()
    rng = np.random.default_rng(seed)
    disc = math.exp(-spec.rate * spec.expiry)
    start_time = time.perf_counter()
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        count = min(_MC_CHUNK, n_samples - done)
        bits = rng.random((count, spec.steps)) < params.p_up
        vals = disc * asian_path_payoff(spec, bits)
        total += float(vals.sum())
        total_sq += float(np.dot(vals, vals))
        done += count
    mean = total / n_samples
    var = max(total_sq - n_samples * mean * mean, 0.0) / (n_samples - 1)
    return PriceReport(
        price=mean,
        method="montecarlo",
        seed=seed,
        n_samples=n_samples,
        wall_time_s=time.perf_counter() - start_time,
        std_error=math.sqrt(var / n_samples),
    )
