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
from .ttcross import _NO_AXES, CrossConfig, GridFunction, grid_blocks, ttcross_approximate

BRUTEFORCE_MAX_STEPS = 25
# Monte Carlo uniforms per block (2 MiB), so a block's memory does not grow
# with the steps. They fill row-major, so the block size only regroups the
# sums. Any block of 2^16 to 2^20 uniforms priced 10^6 paths in 0.13-0.19 s
# at N=32 and 0.25-0.28 s at N=64 (best of 5, 2-core host), of which drawing
# the uniforms took 0.09-0.15 s and 0.17-0.19 s.
_MC_BLOCK_VALUES = 1 << 18

# An Asian option takes exactly the single-asset inputs; the second name
# keeps call sites reading as the product they price.
AsianSpec = SingleAssetSpec


def _signed_excess(spec: AsianSpec, means: np.ndarray) -> np.ndarray:
    """Path mean minus strike, sign-flipped for puts: the unfloored payoff."""
    return means - spec.strike if spec.right == "call" else spec.strike - means


def _partial_paths(
    spot: float, params: SchemeParams, bits: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Running-price sum, last price and probability of paths started at ``spot``.

    A path of no moves sums to 0, ends at ``spot`` and has probability 1.
    """
    prices = path_prices(spot, params, bits)
    last = prices[:, -1] if prices.shape[1] else np.full(prices.shape[0], spot)
    return prices.sum(axis=-1), last, path_probability(params, bits)


def asian_integrand(spec: AsianSpec) -> GridFunction:
    """Probability-weighted payoff p(x) * v(x) as a grid function on {0,1}^N.

    The block is its one definition: it prices the row prefixes from the
    spot and the column suffixes from 1.0. A suffix's prices scale by its
    prefix's last price, so the mean of a joined path of N moves is
    (head_sum + head_last * tail_sum) / N, and its probability
    p_head * p_tail. A path alone is a row joined with the empty suffix.
    """
    params = spec.params()

    def block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        head_sum, head_last, p_head = _partial_paths(spec.spot, params, rows)
        tail_sum, _, p_tail = _partial_paths(1.0, params, cols)
        means = np.multiply.outer(head_last, tail_sum)
        means += head_sum[:, None]
        means /= spec.steps
        excess = _signed_excess(spec, means)
        np.maximum(excess, 0.0, out=excess)
        out = np.multiply.outer(p_head, p_tail)
        out *= excess
        return out

    return GridFunction(
        dims=(2,) * spec.steps,
        evaluate=lambda bits: block(bits, _NO_AXES)[:, 0],
        block=block,
    )


def price_asian_bruteforce(spec: AsianSpec) -> PriceReport:
    """Exact price by summing all 2^N paths; refuses N > BRUTEFORCE_MAX_STEPS.

    The sum is ``math.fsum`` over the blocks of :func:`asian_integrand`
    that :func:`~mpspricer.ttcross.grid_blocks` walks. Each block joins a
    run of heads (the first N - min(N, 8) moves, priced from the spot)
    with every tail (the rest, priced from 1.0), so path prices are
    computed per head and per tail, not per path.
    """
    n = spec.steps
    if n > BRUTEFORCE_MAX_STEPS:
        raise ValueError(
            f"brute force over 2^{n} = {1 << n} paths exceeds the "
            f"2^{BRUTEFORCE_MAX_STEPS} cap; use a tensor method or Monte Carlo"
        )
    start_time = time.perf_counter()
    total = math.fsum(block.sum() for block in grid_blocks(asian_integrand(spec)))
    price = math.exp(-spec.rate * spec.expiry) * total
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


def _path_sum_kernel(spot: float, params: SchemeParams, steps: int):
    """Function giving each bit row's sum of its ``steps`` post-step prices.

    ``np.packbits`` turns every 8 moves (nonzero is up) into a byte code c.
    256-entry tables hold each code's price sum sum_{l<=8} prod_{i<=l} f_i
    from 1.0 and its product prod f_i, and the last ``steps`` mod 8 moves'
    sums; Horner's rule h = sum[c] + prod[c] * h from the last code gives
    the path sum spot * h.
    """
    moves = (np.arange(256)[:, None] >> np.arange(8)) & 1
    prefix = np.cumprod(np.where(moves, params.up, params.down), axis=1)
    sums, prods = prefix.sum(axis=1), prefix[:, -1]
    last_sums = prefix[:, : (steps - 1) % 8 + 1].sum(axis=1)

    def path_sums(bits: np.ndarray) -> np.ndarray:
        codes = np.packbits(bits, axis=-1, bitorder="little")
        h = last_sums[codes[:, -1]]
        for c in codes[:, -2::-1].T:
            h = sums[c] + prods[c] * h
        return spot * h

    return path_sums


def price_asian_montecarlo(
    spec: AsianSpec, n_samples: int = 100_000, seed: int = 0
) -> PriceReport:
    """Plain Monte Carlo over i.i.d. Bernoulli(p_up) step indicators.

    Paths are drawn row by row, ``_MC_BLOCK_VALUES`` uniforms at a time, and
    summed by the 8-step lookup tables of :func:`_path_sum_kernel`.
    """
    n_samples = check_int("n_samples", n_samples, 2)
    check_int("seed", seed, 0)
    params = spec.params()
    rng = np.random.default_rng(seed)
    disc = math.exp(-spec.rate * spec.expiry)
    start_time = time.perf_counter()
    path_sums = _path_sum_kernel(spec.spot, params, spec.steps)
    rows = max(1, _MC_BLOCK_VALUES // spec.steps)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        count = min(rows, n_samples - done)
        bits = rng.random((count, spec.steps)) < params.p_up
        excess = _signed_excess(spec, path_sums(bits) / spec.steps)
        vals = disc * np.maximum(excess, 0.0)
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
