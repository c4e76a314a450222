"""Binomial lattice parameterizations and the reference tree pricer.

Two single-asset schemes are supported. Cox-Ross-Rubinstein matches the
volatility through the up/down factors and carries the drift in the up
probability; Rendleman-Bartter fixes the up probability at one half and
carries the drift in the factors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

SCHEMES = ("crr", "rb")
RIGHTS = ("call", "put")
STYLES = ("european", "american")


@dataclass(frozen=True)
class SchemeParams:
    """One-step move factors and up probability of a binomial scheme."""

    up: float
    down: float
    p_up: float
    dt: float
    scheme: str


def crr_params(rate: float, vol: float, dt: float) -> SchemeParams:
    """Cox-Ross-Rubinstein factors: u = exp(vol*sqrt(dt)), d = 1/u.

    Requires vol > 0 (u = d degenerates the tree) and an up probability
    inside [0, 1], i.e. |rate| small enough for the step size.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if vol <= 0:
        raise ValueError("CRR scheme is degenerate at vol <= 0")
    up = math.exp(vol * math.sqrt(dt))
    down = 1.0 / up
    p_up = (math.exp(rate * dt) - down) / (up - down)
    if not 0.0 <= p_up <= 1.0:
        raise ValueError(
            f"CRR up probability {p_up:.6f} outside [0, 1]; "
            "reduce the step size or the rate/vol imbalance"
        )
    return SchemeParams(up=up, down=down, p_up=p_up, dt=dt, scheme="crr")


def rb_params(rate: float, vol: float, dt: float) -> SchemeParams:
    """Rendleman-Bartter factors at p_up = 1/2.

    u = exp((rate - vol^2/2) dt + vol sqrt(dt)), d with the minus sign.
    vol = 0 is allowed and collapses both factors to exp(rate*dt).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if vol < 0:
        raise ValueError(f"vol must be non-negative, got {vol}")
    drift = (rate - 0.5 * vol * vol) * dt
    spread = vol * math.sqrt(dt)
    return SchemeParams(
        up=math.exp(drift + spread),
        down=math.exp(drift - spread),
        p_up=0.5,
        dt=dt,
        scheme="rb",
    )


def make_scheme_params(scheme: str, rate: float, vol: float, dt: float) -> SchemeParams:
    if scheme == "crr":
        return crr_params(rate, vol, dt)
    if scheme == "rb":
        return rb_params(rate, vol, dt)
    raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")


def check_lattice_inputs(
    spots: tuple, vols: tuple, strike: float, rate: float, expiry: float, steps: int
) -> int:
    """The checks every spec shares; returns ``steps`` as an int.

    Every number must be finite, spots, strike and expiry positive, and
    steps an integer (TypeError otherwise) of at least 1.
    """
    named = [("spot", s) for s in spots] + [("vol", v) for v in vols]
    named += [("strike", strike), ("rate", rate), ("expiry", expiry)]
    for name, value in named:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if value <= 0 and name in ("spot", "strike", "expiry"):
            raise ValueError(f"{name} must be positive, got {value}")
    return check_int("steps", steps, 1)


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as an int: TypeError unless a non-bool integer, ValueError below ``minimum``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        ) from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class SingleAssetSpec:
    """Contract and model inputs for one underlying on a binomial lattice.

    It is also the spec of an arithmetic Asian option (``AsianSpec``). The
    exercise style is an argument of :func:`tree_price`, not a field.
    """

    spot: float = 100.0
    strike: float = 100.0
    rate: float = 0.1
    vol: float = 0.5
    expiry: float = 1.0
    steps: int = 20
    scheme: str = "crr"
    right: str = "call"

    def __post_init__(self):
        steps = check_lattice_inputs(
            (self.spot,), (self.vol,), self.strike, self.rate, self.expiry, self.steps
        )
        object.__setattr__(self, "steps", steps)
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.right not in RIGHTS:
            raise ValueError(f"right must be one of {RIGHTS}, got {self.right!r}")
        # Every pricer needs the scheme parameters: fail here if they do not exist.
        self.params()

    @property
    def dt(self) -> float:
        return self.expiry / self.steps

    def params(self) -> SchemeParams:
        return make_scheme_params(self.scheme, self.rate, self.vol, self.dt)


def exercise_value(prices: np.ndarray, strike: float, right: str) -> np.ndarray:
    """Every pricer's call or put payoff floor, in a fresh array; the spec checks ``right``."""
    value = prices - strike if right == "call" else strike - prices
    return np.maximum(value, 0.0, out=value)


def path_prices(spot: float, params: SchemeParams, bits: np.ndarray) -> np.ndarray:
    """Running asset prices along explicit up/down paths.

    ``bits`` is a (B, N) array of step indicators, any nonzero value an up
    move; entry (b, i) of the result is the price after step i+1 of path b.
    """
    factors = np.take(np.array([params.down, params.up]), np.asarray(bits) != 0)
    np.cumprod(factors, axis=-1, out=factors)
    factors *= spot
    return factors


def path_probability(params: SchemeParams, bits: np.ndarray) -> np.ndarray:
    """Probability of each explicit path: p_up^(#ups) * (1-p_up)^(#downs)."""
    b = np.asarray(bits)
    ups = (b != 0).sum(axis=-1)
    n = b.shape[-1]
    return params.p_up**ups * (1.0 - params.p_up) ** (n - ups)


def tree_price(spec: SingleAssetSpec, style: str = "european") -> float:
    """Backward induction on the recombining tree.

    Terminal payoffs roll back one step at a time under the risk-neutral
    probability; American style takes the max against immediate exercise
    at every node, including the root.
    """
    if style not in STYLES:
        raise ValueError(f"style must be one of {STYLES}, got {style!r}")
    params = spec.params()
    n = spec.steps
    disc = math.exp(-spec.rate * params.dt)
    j = np.arange(n + 1)
    prices = spec.spot * params.up**j * params.down ** (n - j)
    values = exercise_value(prices, spec.strike, spec.right)
    for i in range(n - 1, -1, -1):
        values = disc * (
            params.p_up * values[1:] + (1.0 - params.p_up) * values[:-1]
        )
        if style == "american":
            j = np.arange(i + 1)
            prices = spec.spot * params.up**j * params.down ** (i - j)
            values = np.maximum(values, exercise_value(prices, spec.strike, spec.right))
    return float(values[0])
