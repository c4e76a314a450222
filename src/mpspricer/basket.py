"""Multi-asset basket puts on decoupled binomial trees.

Correlated lognormal assets are rotated into independent coordinates via
the Cholesky factor of the covariance; each coordinate follows an
additive p = 1/2 binomial walk, so its expiry label is Binomial(N, 1/2).
A value function on the step-k outcome grid is an MPS with one site per
asset, built by cross interpolation. A European price contracts the
expiry payoff MPS once with the label distribution. American backward
induction multiplies each physical leg by the transposed one-step
conditional probability matrix and re-approximates the early-exercise
max per step. The dense oracle builds its grids from the cross's blocks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .binomial import check_int, check_lattice_inputs
from .mps import MPS
from .reports import PriceReport
from .ttcross import CrossConfig, GridFunction, grid_blocks, ttcross_approximate

PAYOFF_KINDS = ("min", "max", "avg")
BASKET_STYLES = ("european", "american")
# Most values the dense oracle's terminal grid may hold (128 MiB of floats).
DENSE_ELEMENT_CAP = 2**24


@dataclass(frozen=True)
class BasketSpec:
    """Basket put on m correlated assets over an N-step lattice."""

    spots: tuple[float, ...]
    strike: float
    rate: float
    vols: tuple[float, ...]
    corr: tuple[tuple[float, ...], ...]
    expiry: float
    steps: int
    payoff_kind: str = "min"
    style: str = "european"

    def __post_init__(self):
        spots = tuple(float(s) for s in self.spots)
        vols = tuple(float(v) for v in self.vols)
        corr = tuple(tuple(float(c) for c in row) for row in self.corr)
        object.__setattr__(self, "spots", spots)
        object.__setattr__(self, "vols", vols)
        object.__setattr__(self, "corr", corr)
        m = len(spots)
        if m < 1:
            raise ValueError("need at least one asset")
        if len(vols) != m:
            raise ValueError(f"got {len(vols)} vols for {m} assets")
        check_lattice_inputs(spots, vols, self.strike, self.rate, self.expiry, self.steps)
        if any(v <= 0 for v in vols):
            raise ValueError("vols must be positive")
        cm = np.array(corr)
        if cm.shape != (m, m):
            raise ValueError(f"corr must be {m}x{m}, got {cm.shape}")
        if not np.all(np.isfinite(cm)):
            raise ValueError("corr entries must be finite")
        if not np.allclose(cm, cm.T, atol=1e-12):
            raise ValueError("corr must be symmetric")
        if not np.allclose(np.diag(cm), 1.0, atol=1e-12):
            raise ValueError("corr must have unit diagonal")
        cov = np.outer(vols, vols) * cm
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError(
                f"covariance is not positive definite: leading minor of order "
                f"{_first_bad_minor(cov)} is non-positive"
            ) from None
        if self.payoff_kind not in PAYOFF_KINDS:
            raise ValueError(
                f"payoff_kind must be one of {PAYOFF_KINDS}, got {self.payoff_kind!r}"
            )
        if self.style not in BASKET_STYLES:
            raise ValueError(
                f"style must be one of {BASKET_STYLES}, got {self.style!r}"
            )

    @property
    def n_assets(self) -> int:
        return len(self.spots)

    @property
    def dt(self) -> float:
        return self.expiry / self.steps


def uniform_basket_spec(
    n_assets: int = 3,
    spot: float = 100.0,
    strike: float = 100.0,
    rate: float = 0.1,
    vol: float = 0.5,
    rho: float = 1.0 / 3.0,
    expiry: float = 1.0,
    steps: int = 10,
    payoff_kind: str = "min",
    style: str = "european",
) -> BasketSpec:
    """Equal-parameter basket with constant off-diagonal correlation."""
    n_assets = check_int("n_assets", n_assets, 1)
    corr = tuple(
        tuple(1.0 if i == j else rho for j in range(n_assets))
        for i in range(n_assets)
    )
    return BasketSpec(
        spots=(spot,) * n_assets,
        strike=strike,
        rate=rate,
        vols=(vol,) * n_assets,
        corr=corr,
        expiry=expiry,
        steps=steps,
        payoff_kind=payoff_kind,
        style=style,
    )


@dataclass
class DecoupledModel:
    """Independent-coordinate walk data derived from a BasketSpec.

    ``g`` is the lower Cholesky factor of the covariance; log-prices are
    ``g @ y``. Each y coordinate moves by ``up`` or ``down`` per step with
    probability 1/2 each; their mean is dt times the drift g^-1 (r - vol^2/2).
    """

    g: np.ndarray
    y0: np.ndarray
    up: np.ndarray
    down: np.ndarray

    @property
    def n_assets(self) -> int:
        return self.g.shape[0]


def decouple(spec: BasketSpec) -> DecoupledModel:
    """Rotate the correlated model into independent binomial coordinates."""
    vols = np.array(spec.vols)
    g = np.linalg.cholesky(np.outer(vols, vols) * np.array(spec.corr))
    dt = spec.dt
    alpha = scipy.linalg.solve_triangular(
        g, spec.rate - 0.5 * vols**2, lower=True
    )
    y0 = scipy.linalg.solve_triangular(g, np.log(spec.spots), lower=True)
    sqdt = math.sqrt(dt)
    return DecoupledModel(
        g=g, y0=y0, up=alpha * dt + sqdt, down=alpha * dt - sqdt
    )


def _first_bad_minor(cov: np.ndarray) -> int:
    for k in range(1, cov.shape[0] + 1):
        if np.linalg.det(cov[:k, :k]) <= 0:
            return k
    return cov.shape[0]


def outcome_values(model: DecoupledModel, step: int) -> np.ndarray:
    """Per-asset y values on the step grid, shape (m, step+1).

    Label j counts up moves: y = y0 + j*up + (step-j)*down.
    """
    j = np.arange(step + 1)
    return (
        model.y0[:, None]
        + model.up[:, None] * j[None, :]
        + model.down[:, None] * (step - j)[None, :]
    )


def _put(spec: BasketSpec, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Put payoff, shape (H, T), on prices head[h, i] * tail[t, i] folded over assets i."""
    fold = {"min": np.minimum, "max": np.maximum, "avg": np.add}[spec.payoff_kind]
    agg = np.multiply.outer(head[:, 0], tail[:, 0])
    price = np.empty_like(agg)
    for i in range(1, head.shape[1]):
        fold(agg, np.multiply.outer(head[:, i], tail[:, i], out=price), out=agg)
    if spec.payoff_kind == "avg":
        agg /= head.shape[1]
    return np.maximum(np.subtract(spec.strike, agg, out=agg), 0.0, out=agg)


def basket_payoff(
    spec: BasketSpec, model: DecoupledModel, labels: np.ndarray, step: int
) -> np.ndarray:
    """Put payoff on the aggregated basket at grid label rows, shape (B,).

    The pointwise form of :func:`_step_function`'s block: asset i is priced
    exp(sum_k g[i, k] y_k) at each coordinate's step value y_k.
    """
    m = model.n_assets
    prices = np.exp(outcome_values(model, step)[np.arange(m), labels] @ model.g.T)
    return _put(spec, prices, np.ones((1, m)))[:, 0]


def conditional_prob_matrix(step: int) -> np.ndarray:
    """One-step transition P[y_k, y_{k-1}], shape (step+1, step).

    Column j has probability 1/2 on rows j (down move) and j+1 (up move);
    columns sum to one.
    """
    step = check_int("step", step, 1)
    p = np.zeros((step + 1, step))
    idx = np.arange(step)
    p[idx, idx] = 0.5
    p[idx + 1, idx] = 0.5
    return p


def terminal_label_pmf(n_steps: int) -> np.ndarray:
    """Marginal label distribution at expiry: chained one-step matrices."""
    n_steps = check_int("n_steps", n_steps, 0)
    v = np.ones((1, 1))
    for k in range(1, n_steps + 1):
        v = conditional_prob_matrix(k) @ v
    return v[:, 0]


def _step_function(
    spec: BasketSpec,
    model: DecoupledModel,
    step: int,
    continuation: MPS | None = None,
    disc: float = 1.0,
) -> GridFunction:
    """The step-grid payoff, or max(disc * continuation, payoff), as a grid function.

    Both separate across every cut of the asset axes, so a block of prefixes
    by suffixes is built from per-side factors: ``log S = g @ y`` is the sum
    of the prefix labels' and the suffix labels' terms, which :func:`_put`
    takes as two price factors, and the continuation is a product of left
    and right environments. :func:`_payoff_grid` walks this block.
    """
    yv = outcome_values(model, step)
    m = model.n_assets

    def evaluate(lab: np.ndarray) -> np.ndarray:
        if continuation is None:
            return basket_payoff(spec, model, lab, step)
        held = disc * continuation.evaluate_batch(lab)
        return np.maximum(held, basket_payoff(spec, model, lab, step))

    def block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        k = rows.shape[1]
        head = np.exp(yv[np.arange(k), rows] @ model.g[:, :k].T)
        tail = np.exp(yv[np.arange(k, m), cols] @ model.g[:, k:].T)
        pay = _put(spec, head, tail)
        if continuation is None:
            return pay
        left = continuation.left_environments(rows)
        held = left @ continuation.right_environments(cols).T
        return np.maximum(disc * held, pay)

    return GridFunction(dims=(step + 1,) * m, evaluate=evaluate, block=block)


def _price_tensor(
    spec: BasketSpec,
    style: str,
    bond_dim: int,
    seed: int,
    n_sweeps: int,
    tol: float,
) -> PriceReport:
    """Price from the expiry payoff MPS, crossed with seed ``seed + steps``.

    European style contracts that MPS once with the label distribution.
    American style applies the transposed conditional matrices to every
    site and rebuilds max(discounted continuation, payoff) on each earlier
    grid by a cross seeded with ``seed + step``, exercise at the root included.
    """
    if spec.style != style:
        raise ValueError(f"spec style is {spec.style!r}, expected {style!r}")
    model = decouple(spec)
    n, m = spec.steps, spec.n_assets
    start_time = time.perf_counter()
    # Every step's config is built, and so checked, before any cross runs.
    cfgs = [
        CrossConfig(max_bond=bond_dim, n_sweeps=n_sweeps, tol=tol, seed=seed + step)
        for step in range(n + 1)
    ]
    crosses = {n: ttcross_approximate(_step_function(spec, model, n), cfgs[n])}
    value = crosses[n].mps
    if style == "american":
        disc = math.exp(-spec.rate * spec.dt)
        for k in range(n, 0, -1):
            held = value.apply_site_matrices([conditional_prob_matrix(k).T] * m)
            f = _step_function(spec, model, k - 1, held, disc)
            crosses[k - 1] = ttcross_approximate(f, cfgs[k - 1])
            value = crosses[k - 1].mps
        price = value.sum_all()
    else:
        weights = [terminal_label_pmf(n)[None, :]] * m
        price = math.exp(-spec.rate * spec.expiry) * value.apply_site_matrices(weights).sum_all()
    return PriceReport(
        price=price,
        method="ttcross",
        seed=seed,
        bond_dim=bond_dim,
        n_sweeps=sum(c.n_sweeps_run for c in crosses.values()),
        wall_time_s=time.perf_counter() - start_time,
        warnings=[f"step {k}: {w}" for k, c in crosses.items() for w in c.warnings],
        diagnostics={
            "n_evals": sum(c.n_evals for c in crosses.values()),
            "converged": all(c.converged for c in crosses.values()),
            "heldout_residual": max(c.heldout_residual for c in crosses.values()),
        },
        mps=value,
    )


def price_european_basket(
    spec: BasketSpec,
    bond_dim: int = 16,
    seed: int = 0,
    n_sweeps: int = 8,
    tol: float = 1e-10,
) -> PriceReport:
    """European basket put: one contraction of the expiry payoff MPS.

    The expiry payoff is crossed into an MPS with seed ``seed + steps``, every
    site is contracted with the Binomial(steps, 1/2) label distribution and
    the sum is discounted over the expiry. The payoff MPS is reported.
    """
    return _price_tensor(spec, "european", bond_dim, seed, n_sweeps, tol)


def price_american_basket(
    spec: BasketSpec,
    bond_dim: int = 16,
    seed: int = 0,
    n_sweeps: int = 8,
    tol: float = 1e-10,
) -> PriceReport:
    """American basket put by backward induction over value-function MPSs.

    Each step's max(discounted continuation, payoff) is rebuilt by cross
    approximation seeded with ``seed + step``; the root MPS is reported.
    """
    return _price_tensor(spec, "american", bond_dim, seed, n_sweeps, tol)


def _payoff_grid(spec: BasketSpec, model: DecoupledModel, step: int) -> np.ndarray:
    """Dense payoff over the full step grid, shape (step+1,)^m.

    The grid is filled in place from the cross's :func:`_step_function`
    block, walked by :func:`~mpspricer.ttcross.grid_blocks`.
    """
    f = _step_function(spec, model, step)
    out = np.empty(math.prod(f.dims))
    done = 0
    for block in grid_blocks(f):
        out[done : done + block.size] = block.ravel()
        done += block.size
    return out.reshape(f.dims)


def price_basket_bruteforce(spec: BasketSpec) -> PriceReport:
    """Exact backward induction on the dense outcome grid.

    Each step's payoff grid is :func:`_payoff_grid`: the cross's own
    step-function block, walked by :func:`~mpspricer.ttcross.grid_blocks`.
    Refuses when the terminal grid (steps+1)^m exceeds ``DENSE_ELEMENT_CAP``.
    """
    model = decouple(spec)
    n, m = spec.steps, spec.n_assets
    grid_size = (n + 1) ** m
    if grid_size > DENSE_ELEMENT_CAP:
        raise ValueError(
            f"dense grid needs ({n}+1)^{m} = {grid_size} values, "
            f"cap is {DENSE_ELEMENT_CAP}"
        )
    start_time = time.perf_counter()
    disc = math.exp(-spec.rate * spec.dt)
    values = _payoff_grid(spec, model, n)
    for k in range(n, 0, -1):
        pk = conditional_prob_matrix(k)
        for _ in range(m):
            values = np.tensordot(values, pk, axes=([0], [0]))
        if spec.style == "american":
            values = np.maximum(disc * values, _payoff_grid(spec, model, k - 1))
        else:
            values = disc * values
    return PriceReport(
        price=float(values.reshape(-1)[0]),
        method="bruteforce",
        wall_time_s=time.perf_counter() - start_time,
        diagnostics={"grid_size": grid_size},
    )
