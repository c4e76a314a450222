"""Variational binary path filters for lower-bound Asian prices.

The probability-weighted payoff without its floor, p(x) * (mean - K), is
exactly a bond-2 MPS (built here tensor by tensor). Multiplying it by a
binary filter psi(x) in {0,1} and summing recovers the true price when
psi selects exactly the in-the-money paths; any valid filter gives a
lower bound. The filter is optimized site by site under a structural
constraint that keeps every psi(x) binary: sites left of the center have
at most a single 1 per (bit, left-bond) row, the center is free binary.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .asian import AsianSpec
from .binomial import check_int
from .mps import MPS
from .reports import PriceReport


def build_exact_payoff_mps(spec: AsianSpec) -> MPS:
    """Bond-2 MPS evaluating to p(x) * (mean(x) - K) at every path x.

    For puts the sign is flipped so the value is p(x) * (K - mean(x)).
    The upper bond channel carries the running price sum, the lower one
    the accumulated path probability that multiplies the strike.
    """
    params = spec.params()
    u, d, p = params.up, params.down, params.p_up
    q = 1.0 - p
    fu, fd = u * p, d * q
    n = spec.steps
    s0, strike = spec.spot, spec.strike
    sign = 1.0 if spec.right == "call" else -1.0
    if n == 1:
        core = sign * np.array(
            [[[q * (s0 * d - strike)], [p * (s0 * u - strike)]]]
        )
        return MPS([core])
    first = sign * np.array(
        [
            [
                [s0 / n * fd, (s0 / n * d - strike) * q],
                [s0 / n * fu, (s0 / n * u - strike) * p],
            ]
        ]
    )
    mid = np.zeros((2, 2, 2))
    mid[:, 0, :] = [[fd, fd], [0.0, q]]
    mid[:, 1, :] = [[fu, fu], [0.0, p]]
    last = np.zeros((2, 2, 1))
    last[:, 0, 0] = [fd, q]
    last[:, 1, 0] = [fu, p]
    return MPS([first] + [mid] * (n - 2) + [last])


def greedy_binary_decompose(
    a: np.ndarray, target_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Compress rows of a real matrix into at most ``target_rows`` groups.

    Rows are greedily merged (profiles added) or dropped, whichever
    forfeits less positive mass, until at most ``target_rows`` remain.
    Returns ``(l, m)``: ``l`` is the binary assignment of original rows
    to surviving groups (at most one 1 per row; dropped rows are zero)
    and ``m == l.T @ a`` holds the merged group profiles.
    """
    mat = np.array(a, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {mat.shape}")
    target_rows = check_int("target_rows", target_rows, 1)
    n_rows = mat.shape[0]
    membership = np.eye(n_rows, dtype=bool)
    active = np.ones(n_rows, dtype=bool)
    if n_rows > target_rows:
        profiles = mat.copy()
        rowvals = np.maximum(profiles, 0.0).sum(axis=1)
        # mergevals[i, j] = positive mass of the merged row minus the two
        # separate positive masses; always <= 0.
        pair_pos = np.maximum(profiles[:, None, :] + profiles[None, :, :], 0.0).sum(
            axis=2
        )
        mergevals = pair_pos - rowvals[:, None] - rowvals[None, :]
        np.fill_diagonal(mergevals, -np.inf)
        while int(active.sum()) > target_rows:
            pair_ok = active[:, None] & active[None, :]
            masked = np.where(pair_ok, mergevals, -np.inf)
            i, j = np.unravel_index(np.argmax(masked), masked.shape)
            merge_loss = -masked[i, j]
            drop_idx = int(np.argmin(np.where(active, rowvals, np.inf)))
            drop_loss = rowvals[drop_idx]
            if merge_loss < drop_loss:
                keep, gone = (i, j) if i < j else (j, i)
                profiles[keep] += profiles[gone]
                membership[:, keep] |= membership[:, gone]
                active[gone] = False
                rowvals[keep] = np.maximum(profiles[keep], 0.0).sum()
                pos = np.maximum(profiles + profiles[keep], 0.0).sum(axis=1)
                mergevals[keep, :] = pos - rowvals[keep] - rowvals
                mergevals[:, keep] = mergevals[keep, :]
                mergevals[keep, keep] = -np.inf
            else:
                active[drop_idx] = False
        m = profiles[active].copy()
    else:
        m = mat.copy()
    l = membership[:, active].astype(np.float64)
    return l, m


def center_gradient(
    left_env: np.ndarray, right_env: np.ndarray, b_site: np.ndarray
) -> np.ndarray:
    """G[l, x, r] = sum_ab left_env[l, a] B^x[a, b] right_env[r, b].

    The cost is linear in the center; its best binary value is G > 0.
    """
    return np.einsum(
        "la,axb,rb->lxr", left_env, b_site, right_env, optimize=True
    )


def _random_filter_sites(
    n_sites: int, bond_dim: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Seeded random start: binary tensors, columns thinned to single 1s.

    Sites after the first act as the fixed right part of the first sweep,
    so they get the column constraint (at most one 1 per (bit, right-bond)
    column); the first site is the initial center and stays free.
    """
    sites = []
    for k in range(n_sites):
        dl = 1 if k == 0 else bond_dim
        dr = 1 if k == n_sites - 1 else bond_dim
        t = rng.integers(0, 2, size=(dl, 2, dr)).astype(np.float64)
        if k > 0:
            for x in range(2):
                for c in range(dr):
                    col = t[:, x, c]
                    ones = np.flatnonzero(col)
                    if ones.size > 1:
                        keep = ones[rng.integers(0, ones.size)]
                        col[:] = 0.0
                        col[keep] = 1.0
        sites.append(t)
    return sites


def _sweep_pass(
    psi: list[np.ndarray], b_sites: tuple[np.ndarray, ...], bond_dim: int
) -> tuple[list[np.ndarray], float]:
    """One left-to-right rebuild of every site against fixed right parts.

    Returns the new sites and sum_x psi(x) * b(x) over them, the left
    environment the rebuild carries past the last site.
    """
    n = len(psi)
    renv: list[np.ndarray | None] = [None] * (n + 1)
    renv[n] = np.ones((1, 1))
    for k in range(n - 1, 0, -1):
        renv[k] = np.einsum(
            "lxr,axb,rb->la", psi[k], b_sites[k], renv[k + 1], optimize=True
        )
    lenv = np.ones((1, 1))
    new_sites: list[np.ndarray] = []
    for c in range(n):
        grad = center_gradient(lenv, renv[c + 1], b_sites[c])
        if c == n - 1:
            site = (grad > 0.0).astype(np.float64)
        else:
            dl, _, dr = grad.shape
            l, _ = greedy_binary_decompose(
                grad.transpose(1, 0, 2).reshape(2 * dl, dr), bond_dim
            )
            site = l.reshape(2, dl, -1).transpose(1, 0, 2)
        new_sites.append(site)
        lenv = np.einsum("la,lxr,axb->rb", lenv, site, b_sites[c], optimize=True)
    return new_sites, float(lenv[0, 0])


def price_asian_variational(
    spec: AsianSpec, bond_dim: int = 32, seed: int = 0, n_sweeps: int = 2
) -> PriceReport:
    """Lower-bound Asian price from an optimized binary path filter.

    Runs ``n_sweeps`` full left-to-right passes; every completed pass
    yields a valid filter, and the best pass is reported. The result
    never exceeds the exact discounted expectation.
    """
    check_int("bond_dim", bond_dim, 1)
    check_int("n_sweeps", n_sweeps, 1)
    check_int("seed", seed, 0)
    start_time = time.perf_counter()
    b_sites = build_exact_payoff_mps(spec).tensors
    rng = np.random.default_rng(seed)
    psi = _random_filter_sites(spec.steps, bond_dim, rng)
    disc = math.exp(-spec.rate * spec.expiry)
    best_price = -math.inf
    best_sites = None
    pass_prices = []
    for _ in range(n_sweeps):
        psi, total = _sweep_pass(psi, b_sites, bond_dim)
        price = disc * total
        pass_prices.append(price)
        if price > best_price:
            best_price = price
            best_sites = psi
    return PriceReport(
        price=best_price,
        method="variational",
        seed=seed,
        bond_dim=bond_dim,
        n_sweeps=n_sweeps,
        wall_time_s=time.perf_counter() - start_time,
        diagnostics={"pass_prices": pass_prices},
        mps=MPS(best_sites),
    )
