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

import functools
import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .binomial import STYLES, check_int, check_lattice_inputs
from .mps import MPS
from .reports import PriceReport
from .ttcross import (
    _CHUNK, _NO_AXES, CrossConfig, GridFunction, grid_blocks, ttcross_approximate
)

PAYOFF_KINDS = ("min", "max", "avg")
# Each payoff kind's fold over the assets' prices, and that fold's identity.
_FOLDS = {"min": (np.minimum, np.inf), "max": (np.maximum, -np.inf), "avg": (np.add, 0.0)}
# Most values the dense oracle's terminal grid may hold (128 MiB of floats).
# The oracle streams that grid and steps back in a buffer of steps^m floats.
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
        spots, vols = _reals("spots", self.spots), _reals("vols", self.vols)
        corr = tuple(_reals("corr", row) for row in self.corr)
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
            bad = next((k for k in range(1, m + 1) if np.linalg.det(cov[:k, :k]) <= 0), m)
            raise ValueError(
                f"covariance is not positive definite: leading minor of order "
                f"{bad} is non-positive"
            ) from None
        if self.payoff_kind not in PAYOFF_KINDS:
            raise ValueError(
                f"payoff_kind must be one of {PAYOFF_KINDS}, got {self.payoff_kind!r}"
            )
        if self.style not in STYLES:
            raise ValueError(f"style must be one of {STYLES}, got {self.style!r}")

    @property
    def n_assets(self) -> int:
        return len(self.spots)

    @property
    def dt(self) -> float:
        return self.expiry / self.steps


def _reals(name: str, values) -> tuple[float, ...]:
    """``values`` as floats; a ValueError names ``name`` unless each is a real number."""
    try:
        if all(isinstance(v, numbers.Real) for v in values):
            return tuple(float(v) for v in values)
    except TypeError:
        pass
    raise ValueError(f"{name} must hold only real numbers, got {values!r}")


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
    corr = np.full((n_assets, n_assets), rho)
    np.fill_diagonal(corr, 1.0)
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


def decouple(spec: BasketSpec) -> DecoupledModel:
    """Rotate the correlated model into independent binomial coordinates.

    The start ``g^-1 log S0`` and the drift ``g^-1 (r - vol^2/2)`` come from
    ``np.linalg.solve``: g is m x m, so a general solve in place of a
    triangular one costs nothing, and keeps scipy off the import path.
    """
    vols = np.array(spec.vols)
    g = np.linalg.cholesky(np.outer(vols, vols) * np.array(spec.corr))
    dt = spec.dt
    alpha = np.linalg.solve(g, spec.rate - 0.5 * vols**2)
    y0 = np.linalg.solve(g, np.log(spec.spots))
    sqdt = math.sqrt(dt)
    return DecoupledModel(
        g=g, y0=y0, up=alpha * dt + sqdt, down=alpha * dt - sqdt
    )


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
    """Put payoff, shape (H, T), on prices head[h, i] * tail[t, i - j], folded in asset order.

    ``head`` holds all m assets' factors and ``tail`` only the last m - j
    assets'; the first j assets' prices are their head factors alone. Those
    are folded once per row, from the fold's identity, and only the other
    assets pay an (H, T) product each. As a tail factor of exactly 1.0
    would leave each product as its head factor, and the identity leaves
    the first fold as its operand, every price is bitwise the fold of all
    m per-point products.
    """
    fold, identity = _FOLDS[spec.payoff_kind]
    m, n_head = head.shape[1], head.shape[1] - tail.shape[1]
    agg = np.reshape(functools.reduce(fold, head.T[:n_head], identity), (-1, 1))
    shape = (head.shape[0], tail.shape[0])
    out, price = np.empty(shape), np.empty(shape)
    for i in range(n_head, m):
        np.multiply.outer(head[:, i], tail[:, i - n_head], out=price)
        agg = fold(agg, price, out=out)
    if spec.payoff_kind == "avg":
        agg = np.divide(agg, m, out=out)
    np.subtract(spec.strike, agg, out=out)
    return np.maximum(out, 0.0, out=out)


def basket_payoff(
    spec: BasketSpec, model: DecoupledModel, labels: np.ndarray, step: int
) -> np.ndarray:
    """Put payoff on the aggregated basket at grid label rows, shape (B,).

    It is :func:`_step_function`'s payoff block at zero suffix axes.
    """
    return _step_function(spec, model, step).block(labels, _NO_AXES)[:, 0]


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
    and right environments. The dense oracle walks this block, and so does
    every cross superblock.

    An asset whose row of g is zero on the suffix axes has a suffix term of
    exactly 0 and a tail factor of exactly 1.0, so :func:`_put` takes no
    tail for the leading run of such assets and folds them once per row.
    The run is read from g's zeros at each cut k, not assumed: with the
    lower Cholesky factor it is the first k assets, and with a dense
    factor it is empty.
    """
    yv = outcome_values(model, step)
    m = spec.n_assets
    g_rows = model.g.tolist()
    n_head = [next((i for i, row in enumerate(g_rows) if any(row[k:])), m) for k in range(m + 1)]

    def evaluate(lab: np.ndarray) -> np.ndarray:
        if continuation is None:
            return basket_payoff(spec, model, lab, step)
        held = disc * continuation.evaluate_batch(lab)
        return np.maximum(held, basket_payoff(spec, model, lab, step))

    def block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        k = rows.shape[1]
        head = np.exp(yv[np.arange(k), rows] @ model.g[:, :k].T)
        # The product keeps all m columns, so each kept one is computed as
        # it always was; numpy may take a different BLAS kernel for fewer.
        tail = np.exp((yv[np.arange(k, m), cols] @ model.g[:, k:].T)[:, n_head[k] :])
        pay = _put(spec, head, tail)
        if continuation is None:
            return pay
        left = continuation.left_environments(rows)
        held = left @ continuation.right_environments(cols).T
        return np.maximum(disc * held, pay)

    return GridFunction(dims=(step + 1,) * m, evaluate=evaluate, block=block)


def _price_tensor(spec: BasketSpec, style: str, bond_dim: int, seed: int) -> PriceReport:
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
    # Checked before any cross runs; step k's cross is seeded seed + k.
    cfg = CrossConfig(max_bond=bond_dim, seed=seed)
    f = _step_function(spec, model, n)
    crosses = {n: ttcross_approximate(f, replace(cfg, seed=seed + n))}
    value = crosses[n].mps
    if style == "american":
        disc = math.exp(-spec.rate * spec.dt)
        for k in range(n, 0, -1):
            held = value.apply_site_matrices([conditional_prob_matrix(k).T] * m)
            f = _step_function(spec, model, k - 1, held, disc)
            crosses[k - 1] = ttcross_approximate(f, replace(cfg, seed=seed + k - 1))
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


def price_european_basket(spec: BasketSpec, bond_dim: int = 16, seed: int = 0) -> PriceReport:
    """European basket put: one contraction of the expiry payoff MPS.

    The expiry payoff is crossed into an MPS with seed ``seed + steps``, every
    site is contracted with the Binomial(steps, 1/2) label distribution and
    the sum is discounted over the expiry. The payoff MPS is reported.
    ``bond_dim`` is the one accuracy knob; the cross stops by its own rule.
    """
    return _price_tensor(spec, "european", bond_dim, seed)


def price_american_basket(spec: BasketSpec, bond_dim: int = 16, seed: int = 0) -> PriceReport:
    """American basket put by backward induction over value-function MPSs.

    Each step's max(discounted continuation, payoff) is rebuilt by cross
    approximation seeded with ``seed + step``; the root MPS is reported.
    ``bond_dim`` is the one accuracy knob; each cross stops by its own rule.
    """
    return _price_tensor(spec, "american", bond_dim, seed)


def _grid_segments(buf: np.ndarray, f: GridFunction):
    """(segment of flat ``buf``, block values) pairs walking f's grid in row-major order."""
    done = 0
    for block in grid_blocks(f):
        yield buf[done : done + block.size], block.ravel()
        done += block.size


def _runs(n_rows: int, row_len: int):
    """Row-major runs (r0, r1, c0, c1) of at most ``_CHUNK`` values over (n_rows, row_len):
    groups of whole rows while a row fits, else parts of one row."""
    group, width = max(1, _CHUNK // row_len), min(row_len, _CHUNK)
    for r0 in range(0, n_rows, group):
        for c0 in range(0, row_len, width):
            yield r0, min(r0 + group, n_rows), c0, min(c0 + width, row_len)


def _add_neighbours(values: np.ndarray, n_rows: int, k: int, stride: int) -> None:
    """Step one axis back in place: (n_rows, k + 1, stride) to (n_rows, k, stride).

    Both grids sit at the front of flat ``values``; label j becomes
    ``v[j] + v[j+1]``. Runs of at most ``_CHUNK`` values go in ascending
    order, so no write lands on a value a later run reads, and numpy
    copies at most a run.
    """
    grid = values[: n_rows * (k + 1) * stride].reshape(n_rows, -1)
    kept = values[: n_rows * k * stride].reshape(n_rows, -1)
    for r0, r1, c0, c1 in _runs(n_rows, k * stride):
        np.add(
            grid[r0:r1, c0:c1],
            grid[r0:r1, c0 + stride : c1 + stride],
            out=kept[r0:r1, c0:c1],
        )


def _first_step_back(f: GridFunction, out: np.ndarray, scale: float) -> None:
    """Write the terminal grid of f stepped back once, times ``scale``, into flat ``out``.

    The grid arrives from :func:`~mpspricer.ttcross.grid_blocks` into a
    window of w + 1 axis-0 slabs of (N+1)^(m-1) values each, with
    w = max(1, _CHUNK // slab). A full window adds its neighbouring slabs,
    steps the w sums back along axes 1..m-1 and writes them, scaled, as
    the next w rows of ``out``; its last slab starts the next window. The
    additions and the scaling are those of the in-place steps, in the same
    order.
    """
    m, n = len(f.dims), f.dims[0] - 1
    slab, row = (n + 1) ** (m - 1), n ** (m - 1)
    window = np.empty((min(max(1, _CHUNK // slab), n) + 1) * slab)
    filled = seen = done = 0  # values in the window, values read, rows written
    for block in grid_blocks(f):
        pay = block.ravel()
        while pay.size:
            take = min(pay.size, window.size - filled)
            window[filled : filled + take] = pay[:take]
            filled, seen, pay = filled + take, seen + take, pay[take:]
            if filled < window.size and seen < (n + 1) * slab:
                continue
            sums = filled // slab - 1
            _add_neighbours(window, 1, sums, slab)
            for a in range(1, m):
                _add_neighbours(window, sums * n ** (a - 1), n, (n + 1) ** (m - 1 - a))
            np.multiply(window[: sums * row], scale, out=out[done * row : (done + sums) * row])
            window[:slab] = window[sums * slab : filled]
            filled, done = slab, done + sums


def price_basket_bruteforce(spec: BasketSpec) -> PriceReport:
    """Exact backward induction on the dense outcome grid, in one buffer.

    Each step's payoff grid is the cross's own :func:`_step_function` block,
    walked by :func:`~mpspricer.ttcross.grid_blocks`. The terminal grid is
    never held: :func:`_first_step_back` steps it back as it arrives, into
    one buffer of steps^m floats. Each later step k writes ``v[j] + v[j+1]``
    on each axis in turn, compacted to j < k at the buffer's front, by
    :func:`_add_neighbours`. Each axis's 1/2 goes into the step's scale
    ``disc * 2^-m``; as every sum has two terms, added axis 0 first, prices
    equal the conditional-matrix products bit for bit. Peak memory is
    steps^m + (w + 1) * (steps+1)^(m-1) floats plus a run, with w =
    max(1, _CHUNK // (steps+1)^(m-1)): 25.4 MiB at m=8/N=6, where the
    terminal grid alone is 44.0. Refuses when the terminal grid exceeds
    ``DENSE_ELEMENT_CAP``.
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
    scale = math.exp(-spec.rate * spec.dt) * 0.5**m
    values = np.empty(n**m)
    for k in range(n, 0, -1):
        live = values[: k**m]
        if k == n:
            _first_step_back(_step_function(spec, model, n), values, scale)
        else:
            for a in range(m):
                # Grid (k,)^a x (k+1,)^(m-a) as k^a rows; axis a is the row's slowest.
                _add_neighbours(values, k**a, k, (k + 1) ** (m - 1 - a))
            live *= scale
        if spec.style == "american":
            for seg, pay in _grid_segments(live, _step_function(spec, model, k - 1)):
                np.maximum(seg, pay, out=seg)
    return PriceReport(
        price=float(values[0]),
        method="bruteforce",
        wall_time_s=time.perf_counter() - start_time,
        diagnostics={"grid_size": grid_size},
    )
