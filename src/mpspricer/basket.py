"""Multi-asset basket puts on decoupled binomial trees.

Correlated lognormal assets are rotated into independent coordinates via
the Cholesky factor of the covariance; each coordinate follows an
additive p = 1/2 binomial walk, so its expiry label is Binomial(N, 1/2).
A value function on the step-k outcome grid is an MPS with one site per
asset, built by cross interpolation. A European price contracts the
expiry payoff MPS once with the label distribution, n neighbour averages
of a point mass. American backward induction steps each site of the value
MPS back by the neighbour average (v[j] + v[j+1]) / 2 and re-approximates
the early-exercise max per step. The dense oracle builds its grids from
the cross's blocks.
"""

from __future__ import annotations

import functools
import itertools
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
# Most values the dense oracle's terminal grid may hold. The oracle streams
# every step's grid and keeps about steps^(m-1) floats a step, so the cap
# bounds its time, one pass over each step's grid, not its memory.
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
        steps = check_lattice_inputs(spots, vols, self.strike, self.rate, self.expiry, self.steps)
        object.__setattr__(self, "steps", steps)
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


def terminal_label_pmf(n_steps: int) -> np.ndarray:
    """Marginal label distribution at expiry, Binomial(n_steps, 1/2).

    It is n_steps neighbour averages of the point mass at label 0, each
    taken on the zero-padded labels: step k's label j has the mean of step
    k-1's probabilities at labels j-1 and j.
    """
    n_steps = check_int("n_steps", n_steps, 0)
    v = np.zeros(n_steps + 2)  # v[1 + j] holds label j; v[0] is the pad, always 0
    v[1] = 1.0
    for k in range(1, n_steps + 1):
        v[1 : k + 2] = 0.5 * (v[: k + 1] + v[1 : k + 2])
    return v[1:]


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
    American style steps every site back by the neighbour average and
    rebuilds max(discounted continuation, payoff) on each earlier grid by a
    cross seeded with ``seed + step``, exercise at the root included.
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
            held = MPS(0.5 * (t[:, :-1] + t[:, 1:]) for t in value.tensors)
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


def _slab_axes(dim: int, m: int) -> int:
    """Most trailing axes, 1 to m, of ``dim`` labels each whose values fit in ``_CHUNK``."""
    return next((n for n in range(m, 1, -1) if dim**n <= _CHUNK), 1)


def _payoff(f: GridFunction, start: int, size: int) -> np.ndarray:
    """f's grid values number start..start+size-1, flat, from :func:`grid_blocks`'s blocks."""
    blocks = [b.ravel() for b in grid_blocks(f, start, start + size)]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _step_slab(x: np.ndarray, scratch: np.ndarray, k: int, n: int) -> np.ndarray:
    """Flat slab x over n axes of k + 1 labels, each stepped back to k: the k^n sums.

    Innermost axis first, each one flat add at its stride from x into
    ``scratch`` and back, overwriting both; sums that run into the next
    label are never read. One strided copy gathers the valid corner (at
    n = 1 a view, valid until the next call).
    """
    scratch, valid = scratch[: x.size], x.size
    for i in range(n):
        s = (k + 1) ** i
        np.add(x[: valid - s], x[s:valid], out=scratch[: valid - s])
        x, scratch, valid = scratch, x, valid - s
    return x.reshape((k + 1,) * n)[(slice(k),) * n].reshape(-1)


class _Stage:
    """Step k's grid stepped back to step k-1's, one row-major slab at a time.

    A slab over the last ``n`` axes is stepped by :func:`_step_slab`. Each
    leading axis j carries the stepped sub-grid over axes j+1.. of its
    previous label: a later label sends carry + v one axis up, an earlier
    one stores v. Pieces leaving axis 0, times ``scale``, fill step k-1's
    next slab, which is maxed with ``payoff``, if any, once whole.
    """

    def __init__(self, k: int, m: int, scale: float, payoff: GridFunction | None):
        self.k, self.scale, self.payoff, self.n = k, scale, payoff, _slab_axes(k + 1, m)
        self.slab_size, self.out_size, self.out = (k + 1) ** self.n, k ** _slab_axes(k, m), None
        self.slabs = itertools.product(range(k + 1), repeat=m - self.n)
        self.carries = [np.empty(k ** (m - 1 - j)) for j in range(m - self.n)]

    def send(self, slab: np.ndarray, scratch: np.ndarray) -> np.ndarray | None:
        """Step k's next slab, overwritten, in; step k-1's next slab out once whole, else None."""
        k, labels = self.k, next(self.slabs)
        v, at = _step_slab(slab, scratch, k, self.n), 0
        for label, carry in zip(reversed(labels), reversed(self.carries)):
            part = carry[at : at + v.size]
            held = part + v if label else None
            if label < k:
                part[...] = v
            if not label:
                return None
            v, at = held, at + (label - 1) * carry.size
        pos = at % self.out_size
        if pos == 0:
            self.out = np.empty(self.out_size)
        np.multiply(v, self.scale, out=self.out[pos : pos + v.size])
        if pos + v.size < self.out_size:
            return None
        if self.payoff is not None:
            pay = _payoff(self.payoff, at + v.size - self.out_size, self.out_size)
            np.maximum(self.out, pay, out=self.out)
        out, self.out = self.out, None
        return out


def price_basket_bruteforce(spec: BasketSpec) -> PriceReport:
    """Exact backward induction on the dense outcome grid, streamed slab by slab.

    Each step is one :class:`_Stage`, all running at once, so no step's
    grid is held whole. Payoffs are the cross's :func:`_step_function`
    blocks over :func:`~mpspricer.ttcross.grid_blocks`'s rows, each value
    made once. A step adds ``v[j] + v[j+1]`` on each axis, innermost first,
    with each axis's 1/2 folded into its scale ``disc * 2^-m``, so prices
    equal the neighbour averages taken last axis first bit for bit. Memory
    is about the carried rows, the sum over k of k^(m-1) floats, plus a
    slab of at most ``_CHUNK`` values per stage: 6.1 MiB under tracemalloc
    at m=8/N=6, whose terminal grid alone is 44.0. Refuses when the
    terminal grid exceeds ``DENSE_ELEMENT_CAP``.
    """
    model = decouple(spec)
    n, m = spec.steps, spec.n_assets
    grid_size = (n + 1) ** m
    if grid_size > DENSE_ELEMENT_CAP:
        raise ValueError(
            f"dense grid needs ({n}+1)^{m} = {grid_size} values, cap is {DENSE_ELEMENT_CAP}"
        )
    start_time = time.perf_counter()
    scale = math.exp(-spec.rate * spec.dt) * 0.5**m
    american = spec.style == "american"
    payoffs = [_step_function(spec, model, k - 1) if american else None for k in range(n, 0, -1)]
    stages = [_Stage(k, m, scale, f) for k, f in zip(range(n, 0, -1), payoffs)]
    scratch = np.empty(max(stage.slab_size for stage in stages))
    # The terminal payoff comes in windows of as many whole slabs as fit in _CHUNK.
    terminal, size = _step_function(spec, model, n), stages[0].slab_size
    window = size * max(1, _CHUNK // size)
    for start in range(0, grid_size, window):
        for slab in _payoff(terminal, start, min(window, grid_size - start)).reshape(-1, size):
            for stage in stages:
                slab = stage.send(slab, scratch)
                if slab is None:
                    break
    return PriceReport(
        price=float(slab[0]),
        method="bruteforce",
        wall_time_s=time.perf_counter() - start_time,
        diagnostics={"grid_size": grid_size},
    )
