"""Multi-asset basket puts on decoupled binomial trees.

Correlated lognormal assets are rotated into independent coordinates via
the Cholesky factor of the covariance; each coordinate follows an
additive p = 1/2 binomial walk. A value function on the step-k outcome
grid is an MPS with one site per asset; backward induction multiplies
each physical leg by the transposed one-step conditional probability
matrix, and the American early-exercise max is re-approximated per step
by cross interpolation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .mps import MPS, DENSE_ELEMENT_CAP
from .reports import PriceReport
from .ttcross import CrossConfig, CrossResult, GridFunction, ttcross_approximate

PAYOFF_KINDS = ("min", "max", "avg")
BASKET_STYLES = ("european", "american")
_GRID_CHUNK = 1 << 16


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
        if any(s <= 0 for s in spots):
            raise ValueError("spots must be positive")
        if any(v <= 0 for v in vols):
            raise ValueError("vols must be positive")
        if self.strike <= 0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if self.expiry <= 0:
            raise ValueError(f"expiry must be positive, got {self.expiry}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        cm = np.array(corr)
        if cm.shape != (m, m):
            raise ValueError(f"corr must be {m}x{m}, got {cm.shape}")
        if not np.allclose(cm, cm.T, atol=1e-12):
            raise ValueError("corr must be symmetric")
        if not np.allclose(np.diag(cm), 1.0, atol=1e-12):
            raise ValueError("corr must have unit diagonal")
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
    n_assets: int,
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
    probability 1/2 each.
    """

    g: np.ndarray
    alpha: np.ndarray
    y0: np.ndarray
    up: np.ndarray
    down: np.ndarray
    dt: float
    n_steps: int

    @property
    def n_assets(self) -> int:
        return self.g.shape[0]


def decouple(spec: BasketSpec) -> DecoupledModel:
    """Rotate the correlated model into independent binomial coordinates."""
    vols = np.array(spec.vols)
    cov = np.outer(vols, vols) * np.array(spec.corr)
    try:
        g = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        order = _first_bad_minor(cov)
        raise ValueError(
            f"covariance is not positive definite: leading minor of order "
            f"{order} is non-positive"
        ) from None
    dt = spec.dt
    alpha = scipy.linalg.solve_triangular(
        g, spec.rate - 0.5 * vols**2, lower=True
    )
    y0 = scipy.linalg.solve_triangular(g, np.log(spec.spots), lower=True)
    sqdt = math.sqrt(dt)
    return DecoupledModel(
        g=g,
        alpha=alpha,
        y0=y0,
        up=alpha * dt + sqdt,
        down=alpha * dt - sqdt,
        dt=dt,
        n_steps=spec.steps,
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


def asset_prices_at(
    model: DecoupledModel, labels: np.ndarray, step: int
) -> np.ndarray:
    """Asset prices for label rows, shape (B, m)."""
    lab = np.asarray(labels)
    yv = outcome_values(model, step)  # (m, step+1)
    y = yv[np.arange(model.n_assets)[None, :], lab]  # (B, m)
    return np.exp(y @ model.g.T)


def basket_payoff(
    spec: BasketSpec, model: DecoupledModel, labels: np.ndarray, step: int
) -> np.ndarray:
    """Put payoff on the aggregated basket at the given grid labels."""
    prices = asset_prices_at(model, labels, step)
    if spec.payoff_kind == "min":
        agg = prices.min(axis=1)
    elif spec.payoff_kind == "max":
        agg = prices.max(axis=1)
    else:
        agg = prices.mean(axis=1)
    return np.maximum(spec.strike - agg, 0.0)


def conditional_prob_matrix(step: int) -> np.ndarray:
    """One-step transition P[y_k, y_{k-1}], shape (step+1, step).

    Column j has probability 1/2 on rows j (down move) and j+1 (up move);
    columns sum to one.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    p = np.zeros((step + 1, step))
    idx = np.arange(step)
    p[idx, idx] = 0.5
    p[idx + 1, idx] = 0.5
    return p


def terminal_label_pmf(n_steps: int) -> np.ndarray:
    """Marginal label distribution at expiry: chained one-step matrices."""
    v = np.ones((1, 1))
    for k in range(1, n_steps + 1):
        v = conditional_prob_matrix(k) @ v
    return v[:, 0]


def payoff_to_mps(
    spec: BasketSpec,
    model: DecoupledModel,
    step: int,
    cfg: CrossConfig,
) -> tuple[MPS, CrossResult]:
    """Payoff on the step grid as an MPS, one site per asset, by cross."""
    f = GridFunction(
        dims=(step + 1,) * model.n_assets,
        evaluate=lambda lab: basket_payoff(spec, model, lab, step),
    )
    result = ttcross_approximate(f, cfg)
    return result.mps, result


def _reapproximate(
    spec: BasketSpec,
    model: DecoupledModel,
    continuation: MPS,
    step: int,
    disc: float,
    cfg: CrossConfig,
) -> tuple[MPS, CrossResult]:
    """Step-k-1 value function max(disc*continuation, payoff) as an MPS."""
    f = GridFunction(
        dims=(step + 1,) * model.n_assets,
        evaluate=lambda lab: np.maximum(
            disc * continuation.evaluate_batch(lab),
            basket_payoff(spec, model, lab, step),
        ),
    )
    result = ttcross_approximate(f, cfg)
    return result.mps, result


def _price_tensor(
    spec: BasketSpec,
    style: str,
    bond_dim: int,
    seed: int,
    n_sweeps: int,
    tol: float,
) -> PriceReport:
    """Backward induction over value-function MPSs from the terminal payoff.

    Each step applies the transposed conditional matrices to every site.
    American style then rebuilds max(discounted continuation, payoff) on
    the earlier grid by cross approximation (seeded per step), exercise at
    the root included. European style discounts once at the end and checks
    the result against contracting the terminal MPS with the label
    distribution, flagging a disagreement beyond 1e-9.
    """
    if spec.style != style:
        raise ValueError(f"spec style is {spec.style!r}, expected {style!r}")
    american = style == "american"
    model = decouple(spec)
    n, m = spec.steps, spec.n_assets
    disc = math.exp(-spec.rate * spec.dt)
    start_time = time.perf_counter()

    def step_cfg(step: int) -> CrossConfig:
        return CrossConfig(
            max_bond=bond_dim, n_sweeps=n_sweeps, tol=tol, seed=seed + step
        )

    terminal, cross = payoff_to_mps(spec, model, n, step_cfg(n))
    crosses = {n: cross}
    value = terminal
    for k in range(n, 0, -1):
        pk_t = conditional_prob_matrix(k).T
        value = value.apply_site_matrices([pk_t] * m)
        if american:
            value, crosses[k - 1] = _reapproximate(
                spec, model, value, k - 1, disc, step_cfg(k - 1)
            )
    warnings = [f"step {k}: {w}" for k, c in crosses.items() for w in c.warnings]
    diagnostics = {
        "n_evals": sum(c.n_evals for c in crosses.values()),
        "converged": all(c.converged for c in crosses.values()),
        "heldout_residual": max(c.heldout_residual for c in crosses.values()),
    }
    mps = value
    if american:
        price = value.sum_all()
    else:
        disc_total = math.exp(-spec.rate * spec.expiry)
        price = disc_total * value.sum_all()
        pmf = terminal_label_pmf(n)
        alt = disc_total * terminal.apply_site_matrices([pmf[None, :]] * m).sum_all()
        if abs(price - alt) > 1e-9 * max(1.0, abs(price)):
            warnings.append(
                f"recursion and terminal contraction disagree: {price} vs {alt}"
            )
        diagnostics = {"terminal_contraction_price": alt, **diagnostics}
        mps = terminal
    return PriceReport(
        price=price,
        method="ttcross",
        seed=seed,
        bond_dim=bond_dim,
        n_sweeps=sum(c.n_sweeps_run for c in crosses.values()),
        wall_time_s=time.perf_counter() - start_time,
        warnings=warnings,
        diagnostics=diagnostics,
        mps=mps,
    )


def price_european_basket(
    spec: BasketSpec,
    bond_dim: int = 32,
    seed: int = 0,
    n_sweeps: int = 8,
    tol: float = 1e-10,
) -> PriceReport:
    """European basket put via the terminal payoff MPS.

    Prices two ways: chaining transposed conditional matrices down to the
    root, and contracting the terminal MPS against the label distribution.
    The first is reported with the terminal MPS; a disagreement beyond
    1e-9 is flagged.
    """
    return _price_tensor(spec, "european", bond_dim, seed, n_sweeps, tol)


def price_american_basket(
    spec: BasketSpec,
    bond_dim: int = 32,
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

    Labels go through :func:`basket_payoff` in chunks: one label block
    over the trailing axes, at most ``_GRID_CHUNK`` rows unless one axis
    alone is longer, reused under every prefix of the leading axes in
    row-major order.
    """
    m, d = model.n_assets, step + 1
    tail = 1
    while tail < m and d ** (tail + 1) <= _GRID_CHUNK:
        tail += 1
    lead, rows = m - tail, d**tail
    labels = np.empty((rows, m), dtype=np.int64)
    labels[:, lead:] = np.indices((d,) * tail).reshape(tail, -1).T
    out = np.empty(d**m)
    for i, prefix in enumerate(np.ndindex((d,) * lead)):
        labels[:, :lead] = prefix
        out[i * rows : (i + 1) * rows] = basket_payoff(spec, model, labels, step)
    return out.reshape((d,) * m)


def price_basket_bruteforce(spec: BasketSpec) -> PriceReport:
    """Exact backward induction on the dense outcome grid.

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
