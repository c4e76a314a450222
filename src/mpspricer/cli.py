"""Command-line interface: one price per run, as a JSON report.

Subcommands:
  price-asian    single Asian-option price
  price-basket   single basket-put price

Both take ``--method bruteforce`` for the exact oracle; the benchmark is
``perfbench/run.py``. Flags may also be supplied through a JSON config
file (--config) whose keys are the subcommand's flags; explicit flags
override file values. Relative --output-path values resolve against
$MPSPRICER_OUTPUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .asian import (
    AsianSpec,
    price_asian_bruteforce,
    price_asian_montecarlo,
    price_asian_ttcross,
)
from .basket import (
    BasketSpec,
    price_american_basket,
    price_basket_bruteforce,
    price_european_basket,
    uniform_basket_spec,
)
from .reports import PriceReport
from .variational import price_asian_variational

ASIAN_METHODS = ("ttcross", "variational", "montecarlo", "bruteforce")
BASKET_METHODS = ("ttcross", "bruteforce")

# Values the library leaves to the caller; every other default is the
# library's own, so only flags that were set are passed on.
_ASIAN_SPEC_DEFAULTS = {
    "spot": 100.0,
    "strike": 100.0,
    "rate": 0.1,
    "vol": 0.5,
    "expiry": 1.0,
    "steps": 20,
}
# Config-file keys of price-basket that may hold per-asset values.
_BASKET_LISTS = ("spots", "vols", "corr")
_DEFAULTS = {
    "assets": 3,
    "method": "ttcross",
    "bond_dim": 32,
    "basket_bond_dim": 16,
    "samples": 100_000,
}

# Library keyword -> (flag, conversion) for flags passed on only when set.
_FLAG_PARAMS = {
    "spot": ("s0", float),
    "strike": ("strike", float),
    "rate": ("rate", float),
    "vol": ("vol", float),
    "rho": ("corr", float),
    "expiry": ("expiry", float),
    "steps": ("steps", int),
    "scheme": ("scheme", str),
    "right": ("right", str),
    "payoff_kind": ("payoff", str),
    "style": ("style", str),
    "seed": ("seed", int),
    "n_sweeps": ("sweeps", int),
    "tol": ("tol", float),
}


@dataclass
class RunConfig:
    """Resolved invocation: subcommand plus effective option mapping."""

    command: str
    options: dict = field(default_factory=dict)

    def get(self, key: str, fallback=None):
        v = self.options.get(key)
        return fallback if v is None else v


def _int_like(text: str) -> int:
    """Integer flag that accepts scientific notation like 1e5."""
    v = float(text)
    if not math.isfinite(v) or v != int(v) or v < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(v)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of flag values; flags override it")
    p.add_argument("--output-path", help="write the document here instead of stdout")
    p.add_argument("--dump-mps", help="write the final MPS as JSON to this path")
    p.add_argument(
        "--omit-timing",
        action="store_const",
        const=True,
        help="report wall_time_s as 0.0 for reproducible documents",
    )
    p.add_argument("--seed", type=int, help="base random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpspricer",
        description="Tensor-network binomial pricing of Asian and basket options.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Without prefix matching, a flag such as --output is rejected instead
    # of being read as --output-path.
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    pa = add("price-asian", help="price one Asian option")
    pa.add_argument("--s0", type=float, help="initial asset price")
    pa.add_argument("--strike", type=float, help="strike price")
    pa.add_argument("--rate", type=float, help="risk-free rate")
    pa.add_argument("--vol", type=float, help="volatility")
    pa.add_argument("--expiry", type=float, help="time to expiry in years")
    pa.add_argument("--steps", type=int, help="binomial steps")
    pa.add_argument("--scheme", choices=["crr", "rb"], help="binomial scheme")
    pa.add_argument("--right", choices=["call", "put"], help="option right")
    pa.add_argument("--method", choices=list(ASIAN_METHODS), help="pricing method")
    pa.add_argument("--bond-dim", type=int, help="MPS bond dimension")
    pa.add_argument("--samples", type=_int_like, help="Monte Carlo sample count")
    pa.add_argument("--sweeps", type=int, help="sweep count")
    pa.add_argument("--tol", type=float, help="cross convergence tolerance")
    _add_output_flags(pa)

    pb = add("price-basket", help="price one basket put")
    pb.add_argument("--assets", type=int, help="number of assets")
    pb.add_argument("--s0", type=float, help="initial price, shared by all assets")
    pb.add_argument("--strike", type=float, help="strike price")
    pb.add_argument("--rate", type=float, help="risk-free rate")
    pb.add_argument("--vol", type=float, help="volatility, shared by all assets")
    pb.add_argument("--corr", type=float, help="off-diagonal correlation")
    pb.add_argument("--expiry", type=float, help="time to expiry in years")
    pb.add_argument("--steps", type=int, help="binomial steps")
    pb.add_argument("--payoff", choices=["min", "max", "avg"], help="basket aggregation")
    pb.add_argument("--style", choices=["european", "american"], help="exercise style")
    pb.add_argument("--method", choices=list(BASKET_METHODS), help="pricing method")
    pb.add_argument("--bond-dim", type=int, help="MPS bond dimension")
    pb.add_argument("--sweeps", type=int, help="cross sweep count")
    pb.add_argument("--tol", type=float, help="cross convergence tolerance")
    _add_output_flags(pb)

    return parser


def _load_config_file(path: str, allowed: set[str]) -> dict:
    """The file's JSON object, keys spelled as flag destinations.

    A key outside ``allowed`` or a non-finite number is an error.
    """
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    data = {key.replace("-", "_"): value for key, value in data.items()}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"config file {path}: unknown keys {unknown}")
    for key, value in data.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"config file {path}: {key} must be finite, got {value}")
    return data


def parse_args(argv: list[str] | None = None) -> RunConfig:
    """Parse flags, fold in the config file, and return the merged RunConfig.

    Every flag defaults to None so absent flags fall through to the config
    file and then to the built-in defaults at use time. The namespace thus
    names every flag of the subcommand, and those are the keys the file
    may set.
    """
    args = build_parser().parse_args(argv)
    options = {k: v for k, v in vars(args).items() if k != "command"}
    if options.get("config"):
        allowed = set(options)
        if args.command == "price-basket":
            allowed.update(_BASKET_LISTS)
        file_values = _load_config_file(options["config"], allowed)
        for key, value in file_values.items():
            if options.get(key) is None:
                options[key] = value
        # A shared flag on the command line beats the file's per-asset list,
        # whose length still gives the asset count.
        for key, flag in (("spots", "s0"), ("vols", "vol")):
            if getattr(args, flag) is not None and isinstance(options.get(key), list):
                n_assets = len(options.pop(key))
                if options.get("assets") is None:
                    options["assets"] = n_assets
    return RunConfig(command=args.command, options=options)


def _given(cfg: RunConfig, *params: str) -> dict:
    """Library keyword arguments for those of ``params`` whose flag was set."""
    kwargs = {}
    for param in params:
        flag, convert = _FLAG_PARAMS[param]
        value = cfg.options.get(flag)
        if value is not None:
            kwargs[param] = convert(value)
    return kwargs


def _asian_spec_from(cfg: RunConfig) -> AsianSpec:
    given = _given(cfg, *_ASIAN_SPEC_DEFAULTS, "scheme", "right")
    return AsianSpec(**_ASIAN_SPEC_DEFAULTS | given)


def _basket_spec_from(cfg: RunConfig) -> BasketSpec:
    """Build the basket spec; config-file lists allow heterogeneous assets.

    Config keys `spots` and `vols` (lists) and a nested-list `corr` replace
    the uniform values of the scalar flags, unless the flag itself was
    given on the command line (see :func:`parse_args`).
    """
    opts = cfg.options
    lists = {key: opts[key] for key in _BASKET_LISTS if isinstance(opts.get(key), list)}
    n = opts.get("assets")
    if n is None:
        n = next(
            (len(lists[key]) for key in ("spots", "vols") if key in lists),
            _DEFAULTS["assets"],
        )
    params = ["spot", "strike", "rate", "vol", "expiry", "steps", "payoff_kind", "style"]
    if "corr" not in lists:
        params.append("rho")
    spec = uniform_basket_spec(int(n), **_given(cfg, *params))
    return dataclasses.replace(spec, **lists) if lists else spec


def _price_asian(cfg: RunConfig) -> PriceReport:
    spec = _asian_spec_from(cfg)
    method = cfg.get("method", _DEFAULTS["method"])
    if method == "bruteforce":
        return price_asian_bruteforce(spec)
    if method == "montecarlo":
        n_samples = int(cfg.get("samples", _DEFAULTS["samples"]))
        return price_asian_montecarlo(spec, n_samples, **_given(cfg, "seed"))
    bond_dim = int(cfg.get("bond_dim", _DEFAULTS["bond_dim"]))
    if method == "ttcross":
        knobs = _given(cfg, "seed", "n_sweeps", "tol")
        return price_asian_ttcross(spec, bond_dim, **knobs)
    if method == "variational":
        knobs = _given(cfg, "seed", "n_sweeps")
        return price_asian_variational(spec, bond_dim, **knobs)
    raise ValueError(f"unknown Asian method {method!r}")


def _price_basket(cfg: RunConfig) -> PriceReport:
    spec = _basket_spec_from(cfg)
    method = cfg.get("method", _DEFAULTS["method"])
    if method == "bruteforce":
        return price_basket_bruteforce(spec)
    if method != "ttcross":
        raise ValueError(f"unknown basket method {method!r}")
    bond_dim = int(cfg.get("bond_dim", _DEFAULTS["basket_bond_dim"]))
    knobs = _given(cfg, "seed", "n_sweeps", "tol")
    if spec.style == "american":
        return price_american_basket(spec, bond_dim, **knobs)
    return price_european_basket(spec, bond_dim, **knobs)


def _resolve_output_path(path: str | None) -> str | None:
    if path is None:
        return None
    if not os.path.isabs(path):
        base = os.environ.get("MPSPRICER_OUTPUT_DIR")
        if base:
            return os.path.join(base, path)
    return path


def _emit(cfg: RunConfig, report: PriceReport) -> None:
    """Write the report as JSON to --output-path, or else to stdout."""
    doc = report.to_dict(omit_timing=bool(cfg.options.get("omit_timing")))
    text = json.dumps(doc, indent=2) + "\n"
    path = _resolve_output_path(cfg.options.get("output_path"))
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _dump_mps(cfg: RunConfig, report: PriceReport) -> None:
    path = cfg.options.get("dump_mps")
    if path is None:
        return
    if report.mps is None:
        raise ValueError(
            f"--dump-mps requires an MPS-producing method, not {report.method!r}"
        )
    with open(_resolve_output_path(path), "w", encoding="utf-8", newline="") as f:
        json.dump(report.mps.to_document(), f, indent=2)
        f.write("\n")


def main(argv: list[str] | None = None) -> int:
    """Price one invocation; returns the process exit status."""
    try:
        cfg = parse_args(argv)
        price = {"price-asian": _price_asian, "price-basket": _price_basket}
        report = price[cfg.command](cfg)
        _dump_mps(cfg, report)
        _emit(cfg, report)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
