"""Arithmetic-average (Asian) option pricing on the full binomial path space.

A path is a bit string x in {0,1}^N; the option pays on the arithmetic
mean of the N post-step prices. The discounted expectation runs over all
2^N paths, which brute force sums exactly by joining sorted halves and the
tensor methods compress.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .binomial import (
    SchemeParams, SingleAssetSpec, check_int, exercise_value, path_prices, path_probability
)
from .reports import PriceReport
from .ttcross import _NO_AXES, CrossConfig, GridFunction, _labels, ttcross_approximate

BRUTEFORCE_MAX_STEPS = 25
# Monte Carlo random words per block (256 KiB), so a block's memory does not
# grow with the steps. A path takes ceil(steps / 8) consecutive words, so the
# block size only regroups the sums. Any block of 2^13 to 2^17 words priced
# 10^6 paths in 0.07-0.11 s at N=32 and 0.14-0.19 s at N=64 (best of 5,
# 2-core host), of which drawing the words took 0.01 s and 0.03 s.
_MC_BLOCK_WORDS = 1 << 15
# The moves of each byte code: bit i of code c is move i, set for up.
_CODE_MOVES = (np.arange(256)[:, None] >> np.arange(8)) & 1

# An Asian option takes exactly the single-asset inputs; the second name
# keeps call sites reading as the product they price.
AsianSpec = SingleAssetSpec


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

    This is what the cross compresses. The block is its one definition: it
    prices the row prefixes from the spot and the column suffixes from 1.0.
    A suffix's prices scale by its prefix's last price, so the mean of a
    joined path of N moves is (head_sum + head_last * tail_sum) / N, and its
    probability p_head * p_tail. A path alone is a row joined with the empty
    suffix. :func:`price_asian_bruteforce` joins the same halves, from the
    same :func:`_partial_paths`, but sums over sorted tails, not blocks.
    """
    params = spec.params()

    def block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        head_sum, head_last, p_head = _partial_paths(spec.spot, params, rows)
        tail_sum, _, p_tail = _partial_paths(1.0, params, cols)
        means = np.multiply.outer(head_last, tail_sum)
        means += head_sum[:, None]
        means /= spec.steps
        out = np.multiply.outer(p_head, p_tail)
        out *= exercise_value(means, spec.strike, spec.right)
        return out

    return GridFunction(
        dims=(2,) * spec.steps,
        evaluate=lambda bits: block(bits, _NO_AXES)[:, 0],
        block=block,
    )


def price_asian_bruteforce(spec: AsianSpec) -> PriceReport:
    """Exact price over all 2^N paths, in O(2^(N/2) N); refuses N > BRUTEFORCE_MAX_STEPS.

    Each path joins a head of the first N - floor(N/2) moves, priced from
    the spot, with a tail of the last floor(N/2), priced from 1.0, as in
    :func:`asian_integrand`. A head with running sum a and last price L pays
    (L/N) * max(s - thr, 0) on a tail of sum s for a call, with threshold
    thr = (N*K - a)/L; a put is the call on -s and -thr. So the tails are
    sorted by sum once, and each head finds its first paying tail i with one
    ``np.searchsorted`` (Horowitz & Sahni's meet in the middle). Over the
    sorted tails the head's payoff sum is D_i + (s_i - thr) * P_i, where
    P_i is the probability of tails i and up and the gap sum
    D_i = sum_{j>i} (s_j - s_{j-1}) * P_j adds only non-negative terms, so
    no large sums cancel. The heads' terms are summed with ``math.fsum``.
    """
    n = spec.steps
    if n > BRUTEFORCE_MAX_STEPS:
        raise ValueError(
            f"brute force over 2^{n} = {1 << n} paths exceeds the "
            f"2^{BRUTEFORCE_MAX_STEPS} cap; use a tensor method or Monte Carlo"
        )
    start_time = time.perf_counter()
    params = spec.params()
    n_tail = n // 2
    heads = _labels((2,) * (n - n_tail), 0, 1 << (n - n_tail))
    head_sum, head_last, p_head = _partial_paths(spec.spot, params, heads)
    tail_sum, _, p_tail = _partial_paths(1.0, params, _labels((2,) * n_tail, 0, 1 << n_tail))
    sign = 1.0 if spec.right == "call" else -1.0
    order = np.argsort(sign * tail_sum)
    sums = sign * tail_sum[order]
    # P_i and D_i: suffix sums over the sorted tails.
    mass = np.cumsum(p_tail[order][::-1])[::-1]
    gap_sums = np.append(np.cumsum((np.diff(sums) * mass[1:])[::-1])[::-1], 0.0)
    thr = sign * (n * spec.strike - head_sum) / head_last
    first = np.searchsorted(sums, thr, side="right")
    # A sentinel past the last tail pays nothing: no mass and no gap.
    sums, mass, gap_sums = (np.append(x, 0.0) for x in (sums, mass, gap_sums))
    paid = gap_sums[first] + (sums[first] - thr) * mass[first]
    total = math.fsum(p_head * (head_last / n) * paid)
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


def _alias_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias table that draws one of 256 byte codes from one 64-bit word.

    ``probs`` holds each code's probability, ``path_probability`` of its
    row of ``_CODE_MOVES``. Each code gets that share of the 2^64 words
    rounded to an integer, with the rounding remainder on the likeliest
    code. A word's top 8 bits pick one of 256 columns of 2^56 words each;
    a word below the column's bound draws the column's own code and any
    other word its alias, so ``pick[2 * col + (word < bounds[col])]`` is
    the code, and every code is drawn with exactly its integer share. A
    full column aliases itself, so the top column's bound is clamped to
    2^64 - 1 without changing a draw. Returns ``(bounds, pick)``.
    """
    width = 1 << 56
    share = [round(x) for x in np.ldexp(probs, 64).tolist()]
    share[int(np.argmax(probs))] += (1 << 64) - sum(share)
    keep, alias = [width] * 256, list(range(256))
    small = [c for c in range(256) if share[c] < width]
    large = [c for c in range(256) if share[c] >= width]
    # Integer shares sum to 2^64, so the columns left over are exactly full.
    while small and large:
        lo, hi = small.pop(), large.pop()
        keep[lo], alias[lo] = share[lo], hi
        share[hi] -= width - share[lo]
        (small if share[hi] < width else large).append(hi)
    bounds = [min(c * width + keep[c], (1 << 64) - 1) for c in range(256)]
    pick = np.column_stack([alias, range(256)]).ravel().astype(np.uint8)
    return np.array(bounds, dtype=np.uint64), pick


def _alias_codes(words: np.ndarray, table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The code that each word draws from an :func:`_alias_table`."""
    bounds, pick = table
    cols = (words >> np.uint64(56)).view(np.int64)
    hit = words < bounds.take(cols)
    cols <<= 1
    cols += hit
    return pick.take(cols)


def _path_sum_kernel(spot: float, params: SchemeParams, steps: int):
    """Function giving each code row's sum of its ``steps`` post-step prices.

    A row holds ceil(steps / 8) byte codes of 8 moves each, as in
    ``_CODE_MOVES``; only the first (steps - 1) % 8 + 1 moves of the last
    code count, and the rest are ignored. 256-entry tables hold each
    code's price sum sum_{l<=8} prod_{i<=l} f_i from 1.0 and its product
    prod f_i, and the last code's sums over its counted moves; Horner's
    rule h = sum[c] + prod[c] * h from the last code gives the path sum
    spot * h.
    """
    prefix = np.cumprod(np.where(_CODE_MOVES, params.up, params.down), axis=1)
    sums, prods = prefix.sum(axis=1), prefix[:, -1]
    last_sums = prefix[:, : (steps - 1) % 8 + 1].sum(axis=1)

    def path_sums(codes: np.ndarray) -> np.ndarray:
        h = last_sums.take(codes[:, -1])
        for c in codes[:, -2::-1].T:
            h = sums.take(c) + prods.take(c) * h
        return spot * h

    return path_sums


def price_asian_montecarlo(
    spec: AsianSpec, n_samples: int = 100_000, seed: int = 0
) -> PriceReport:
    """Plain Monte Carlo over i.i.d. Bernoulli(p_up) step indicators.

    Each path takes ceil(N / 8) random 64-bit words, and each word draws
    the byte code of 8 moves from one exact :func:`_alias_table`; the last
    code's moves past N are drawn but ignored. Paths are drawn
    ``_MC_BLOCK_WORDS`` words at a time and summed by the lookup tables of
    :func:`_path_sum_kernel`. The standard error combines each block's mean
    and centred sum of squares (Chan, Golub & LeVeque), so it does not
    cancel when payoffs barely vary.
    """
    n_samples = check_int("n_samples", n_samples, 2)
    check_int("seed", seed, 0)
    params = spec.params()
    rng = np.random.default_rng(seed)
    disc = math.exp(-spec.rate * spec.expiry)
    start_time = time.perf_counter()
    path_sums = _path_sum_kernel(spec.spot, params, spec.steps)
    table = _alias_table(path_probability(params, _CODE_MOVES))
    n_codes = -(-spec.steps // 8)
    rows = min(max(1, _MC_BLOCK_WORDS // n_codes), n_samples)
    total = 0.0
    sq_dev = 0.0
    done = 0
    while done < n_samples:
        count = min(rows, n_samples - done)
        words = rng.integers(
            0, 2**64 - 1, size=(count, n_codes), dtype=np.uint64, endpoint=True
        )
        means = path_sums(_alias_codes(words, table)) / spec.steps
        vals = disc * exercise_value(means, spec.strike, spec.right)
        block_sum = float(vals.sum())
        vals -= block_sum / count
        sq_dev += float(np.dot(vals, vals))
        if done:
            delta = block_sum / count - total / done
            sq_dev += delta * delta * done * count / (done + count)
        total += block_sum
        done += count
    return PriceReport(
        price=total / n_samples,
        method="montecarlo",
        seed=seed,
        n_samples=n_samples,
        wall_time_s=time.perf_counter() - start_time,
        std_error=math.sqrt(sq_dev / (n_samples - 1) / n_samples),
    )
