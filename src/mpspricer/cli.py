"""Command-line interface: one price per run, as a JSON report.

Subcommands:
  price-asian    single Asian-option price
  price-basket   single basket-put price

Both take ``--method bruteforce`` for the exact oracle; the benchmark is
``perfbench/run.py``. The CLI holds no defaults: each set flag becomes
the keyword of the spec or pricer that names it, a set flag that
neither names is an error, and everything left unset is the library's
default. A JSON config file (--config) is read as ``--key=value`` flags
ahead of the command line, so its values are parsed by the same flags
and explicit flags override them. Relative --output-path values resolve
against $MPSPRICER_OUTPUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
import sys

from .asian import (
    AsianSpec,
    price_asian_bruteforce,
    price_asian_montecarlo,
    price_asian_ttcross,
)
from .basket import (
    price_american_basket,
    price_basket_bruteforce,
    price_european_basket,
    uniform_basket_spec,
)
from .reports import PriceReport
from .variational import price_asian_variational

ASIAN_PRICERS = {
    "ttcross": price_asian_ttcross,
    "variational": price_asian_variational,
    "montecarlo": price_asian_montecarlo,
    "bruteforce": price_asian_bruteforce,
}
# Basket method -> exercise style -> pricer.
BASKET_PRICERS = {
    "ttcross": {"european": price_european_basket, "american": price_american_basket},
    "bruteforce": {"european": price_basket_bruteforce, "american": price_basket_bruteforce},
}
# Flag destination -> library keyword, where the two differ.
_KEYWORDS = {
    "s0": "spot",
    "corr": "rho",
    "payoff": "payoff_kind",
    "sweeps": "n_sweeps",
    "samples": "n_samples",
    "assets": "n_assets",
}
# Flags the CLI itself reads; every other set flag must be taken by the
# spec or the pricer.
_CLI_FLAGS = {"command", "method", "config", "output_path", "dump_mps", "omit_timing"}
# Config-file keys of price-basket that may hold per-asset lists, each
# with the shared flag that replaces it.
_BASKET_LISTS = {"spots": "s0", "vols": "vol", "corr": "corr"}


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
        action="store_true",
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
    pa.add_argument(
        "--method", choices=list(ASIAN_PRICERS), default="ttcross", help="pricing method"
    )
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
    pb.add_argument(
        "--method", choices=list(BASKET_PRICERS), default="ttcross", help="pricing method"
    )
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


def parse_args(argv: list[str] | None = None) -> tuple[argparse.Namespace, dict]:
    """Parse the flags, config file first, and set aside its basket lists.

    Each file key is read as the token ``--key=value`` ahead of the
    command line; a switch such as ``omit_timing`` takes a JSON boolean.
    The file may set any flag of its subcommand but --config. Returns the
    namespace and the file's ``spots``/``vols``/matrix ``corr`` lists that
    no command-line flag replaced.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args, {}
    allowed = set(vars(args)) - {"command", "config"}
    if args.command == "price-basket":
        allowed.update(_BASKET_LISTS)
    data = _load_config_file(args.config, allowed)
    lists = {key: data.pop(key) for key in _BASKET_LISTS if isinstance(data.get(key), list)}
    switches = {key for key, value in vars(args).items() if isinstance(value, bool)}
    tokens = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        if key not in switches or not isinstance(value, bool):
            tokens.append(f"{flag}={value}")
        elif value:
            tokens.append(flag)
    rest = argv[argv.index(args.command) + 1 :]
    merged = parser.parse_args([args.command, *tokens, *rest])
    # Unless --assets is set, the spots or vols list gives the asset count,
    # even where a command-line flag replaces its values.
    n_assets = next((len(lists[key]) for key in ("spots", "vols") if key in lists), None)
    if n_assets is not None and merged.assets is None:
        merged.assets = n_assets
    lists = {k: v for k, v in lists.items() if getattr(args, _BASKET_LISTS[k]) is None}
    return merged, lists


def _call(fn, options: dict, *args):
    """``fn(*args, ...)`` with those of ``options`` that its signature names."""
    names = inspect.signature(fn).parameters
    return fn(*args, **{key: value for key, value in options.items() if key in names})


def _price(args: argparse.Namespace, lists: dict) -> PriceReport:
    """Price with the set flags as keywords; the library fills in the rest.

    A set flag that neither the spec nor the chosen pricer takes is an
    error, not a value silently dropped.
    """
    flags = {k: v for k, v in vars(args).items() if v is not None and k not in _CLI_FLAGS}
    options = {_KEYWORDS.get(k, k): v for k, v in flags.items()}
    if args.command == "price-asian":
        build = AsianSpec
        spec = _call(build, options)
        pricer = ASIAN_PRICERS[args.method]
    else:
        build = uniform_basket_spec
        spec = dataclasses.replace(_call(build, options), **lists)
        pricer = BASKET_PRICERS[args.method][spec.style]
    taken = {*inspect.signature(build).parameters, *inspect.signature(pricer).parameters}
    unused = ["--" + k.replace("_", "-") for k in flags if _KEYWORDS.get(k, k) not in taken]
    if unused:
        raise ValueError(
            f"{args.command} --method {args.method} does not take {', '.join(unused)}"
        )
    return _call(pricer, options, spec)


def _write(path: str | None, text: str) -> None:
    """Write to ``path``, under $MPSPRICER_OUTPUT_DIR if relative, or to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    base = os.environ.get("MPSPRICER_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def main(argv: list[str] | None = None) -> int:
    """Price one invocation; returns the process exit status."""
    try:
        args, lists = parse_args(argv)
        report = _price(args, lists)
        # A non-finite price is an error, not a NaN token in the document.
        doc = report.to_dict(omit_timing=args.omit_timing)
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
        if args.dump_mps is not None:
            if report.mps is None:
                raise ValueError(
                    f"--dump-mps requires an MPS-producing method, not {report.method!r}"
                )
            _write(args.dump_mps, json.dumps(report.mps.to_document(), indent=2) + "\n")
        _write(args.output_path, text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
