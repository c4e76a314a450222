"""Command-line interface and benchmark harness.

Subcommands:
  price-asian    single Asian-option price, JSON report
  price-basket   single basket-put price, JSON report
  bench-asian    error-vs-parameter sweep over repeated seeded runs, CSV
  bench-basket   bond-dimension sweep for basket puts, CSV
  oracle         brute-force reference price, JSON report

Flags may also be supplied through a JSON config file (--config);
explicit flags override file values. Relative --output-path values
resolve against $MPSPRICER_OUTPUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
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

CSV_HEADER = [
    "method",
    "param_name",
    "param_value",
    "run_index",
    "price",
    "abs_error",
    "wall_time_s",
    "seed",
]

ASIAN_METHODS = ("ttcross", "variational", "montecarlo", "bruteforce")
BASKET_METHODS = ("ttcross", "bruteforce")
BENCH_ASIAN_METHODS = ("ttcross", "variational", "montecarlo")
BENCH_BASKET_METHODS = ("ttcross",)

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
_DEFAULTS = {
    "assets": 3,
    "method": "ttcross",
    "bond_dim": 32,
    "basket_bond_dim": 16,
    "samples": 100_000,
    "repeats": 10,
    "bond_dims": [8, 16, 32, 64],
    "samples_list": [10_000, 100_000, 1_000_000],
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
    if v != int(v) or v < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(v)


def _int_list(text: str) -> list[int]:
    return [_int_like(part) for part in text.split(",") if part]


def _str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _add_asian_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s0", type=float, help="initial asset price")
    p.add_argument("--strike", type=float, help="strike price")
    p.add_argument("--rate", type=float, help="risk-free rate")
    p.add_argument("--vol", type=float, help="volatility")
    p.add_argument("--expiry", type=float, help="time to expiry in years")
    p.add_argument("--steps", type=int, help="binomial steps")
    p.add_argument("--scheme", choices=["crr", "rb"], help="binomial scheme")
    p.add_argument("--right", choices=["call", "put"], help="option right")


def _add_basket_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--assets", type=int, help="number of assets")
    p.add_argument("--s0", type=float, help="initial price, shared by all assets")
    p.add_argument("--strike", type=float, help="strike price")
    p.add_argument("--rate", type=float, help="risk-free rate")
    p.add_argument("--vol", type=float, help="volatility, shared by all assets")
    p.add_argument("--corr", type=float, help="off-diagonal correlation")
    p.add_argument("--expiry", type=float, help="time to expiry in years")
    p.add_argument("--steps", type=int, help="binomial steps")
    p.add_argument("--payoff", choices=["min", "max", "avg"], help="basket aggregation")
    p.add_argument("--style", choices=["european", "american"], help="exercise style")


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
    _add_asian_spec_flags(pa)
    pa.add_argument("--method", choices=list(ASIAN_METHODS), help="pricing method")
    pa.add_argument("--bond-dim", type=int, help="MPS bond dimension")
    pa.add_argument("--samples", type=_int_like, help="Monte Carlo sample count")
    pa.add_argument("--sweeps", type=int, help="sweep count")
    pa.add_argument("--tol", type=float, help="cross convergence tolerance")
    _add_output_flags(pa)

    pb = add("price-basket", help="price one basket put")
    _add_basket_spec_flags(pb)
    pb.add_argument("--method", choices=list(BASKET_METHODS), help="pricing method")
    pb.add_argument("--bond-dim", type=int, help="MPS bond dimension")
    pb.add_argument("--sweeps", type=int, help="cross sweep count")
    pb.add_argument("--tol", type=float, help="cross convergence tolerance")
    _add_output_flags(pb)

    ba = add("bench-asian", help="repeat Asian pricers over parameter grids")
    _add_asian_spec_flags(ba)
    ba.add_argument("--methods", type=_str_list, help="comma-separated methods")
    ba.add_argument("--bond-dims", type=_int_list, help="comma-separated bond dimensions")
    ba.add_argument("--samples", type=_int_list, help="comma-separated sample counts")
    ba.add_argument("--sweeps", type=int, help="sweep count")
    ba.add_argument("--tol", type=float, help="cross convergence tolerance")
    ba.add_argument("--repeats", type=int, help="runs per parameter value")
    _add_output_flags(ba)

    bb = add("bench-basket", help="repeat basket pricers over bond dimensions")
    _add_basket_spec_flags(bb)
    bb.add_argument("--methods", type=_str_list, help="comma-separated methods")
    bb.add_argument("--bond-dims", type=_int_list, help="comma-separated bond dimensions")
    bb.add_argument("--sweeps", type=int, help="cross sweep count")
    bb.add_argument("--tol", type=float, help="cross convergence tolerance")
    bb.add_argument("--repeats", type=int, help="runs per parameter value")
    _add_output_flags(bb)

    orc = add("oracle", help="brute-force reference price")
    orc.add_argument("--kind", choices=["asian", "basket"], help="spec family")
    _add_asian_spec_flags(orc)
    orc.add_argument("--assets", type=int, help="number of assets (basket)")
    orc.add_argument("--corr", type=float, help="off-diagonal correlation (basket)")
    orc.add_argument("--payoff", choices=["min", "max", "avg"], help="basket aggregation")
    orc.add_argument("--style", choices=["european", "american"], help="exercise style")
    _add_output_flags(orc)

    return parser


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def parse_args(argv: list[str] | None = None) -> RunConfig:
    """Parse flags, fold in the config file, and return the merged RunConfig.

    Every flag defaults to None so absent flags fall through to the config
    file and then to the built-in defaults at use time.
    """
    args = build_parser().parse_args(argv)
    options = {k: v for k, v in vars(args).items() if k != "command"}
    if options.get("config"):
        file_values = _load_config_file(options["config"])
        for key, value in file_values.items():
            key = key.replace("-", "_")
            if options.get(key) is None:
                options[key] = value
        # A shared flag on the command line beats the file's per-asset list,
        # whose length still gives the asset count.
        for key, flag in (("spots", "s0"), ("vols", "vol")):
            if getattr(args, flag, None) is not None and isinstance(options.get(key), list):
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
    lists = {
        key: opts[key]
        for key in ("spots", "vols", "corr")
        if isinstance(opts.get(key), list)
    }
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


def _price_asian(cfg: RunConfig, method: str) -> PriceReport:
    spec = _asian_spec_from(cfg)
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


def _price_basket(cfg: RunConfig, method: str) -> PriceReport:
    spec = _basket_spec_from(cfg)
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


def _emit(cfg: RunConfig, text: str) -> None:
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


def _report_json(report: PriceReport, cfg: RunConfig) -> str:
    omit = bool(cfg.options.get("omit_timing"))
    return json.dumps(report.to_dict(omit_timing=omit), indent=2) + "\n"


def _bench_rows(cfg: RunConfig, family: str) -> list[dict]:
    if family == "asian":
        allowed = BENCH_ASIAN_METHODS
        spec = _asian_spec_from(cfg)
        oracle, price_one = price_asian_bruteforce, _price_asian
    else:
        allowed = BENCH_BASKET_METHODS
        spec = _basket_spec_from(cfg)
        oracle, price_one = price_basket_bruteforce, _price_basket
    methods = cfg.get("methods", allowed)
    for m in methods:
        if m not in allowed:
            raise ValueError(
                f"method {m!r} is not benchable here; choose from {allowed}"
            )
    try:
        reference = oracle(spec).price
    except ValueError as exc:
        print(f"warning: no brute-force reference ({exc})", file=sys.stderr)
        reference = None
    repeats = int(cfg.get("repeats", _DEFAULTS["repeats"]))
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    base_seed = int(cfg.get("seed", 0))
    omit = bool(cfg.options.get("omit_timing"))
    rows = []
    for method in methods:
        if method == "montecarlo":
            param_name, option = "n_samples", "samples"
            values = cfg.get("samples", _DEFAULTS["samples_list"])
        else:
            param_name, option = "bond_dim", "bond_dim"
            values = cfg.get("bond_dims", _DEFAULTS["bond_dims"])
        for param_value in values:
            for run_index in range(repeats):
                seed = base_seed + run_index
                options = cfg.options | {"seed": seed, option: param_value}
                report = price_one(RunConfig(cfg.command, options), method)
                rows.append(
                    {
                        "method": method,
                        "param_name": param_name,
                        "param_value": int(param_value),
                        "run_index": run_index,
                        "price": report.price,
                        "abs_error": (
                            abs(report.price - reference)
                            if reference is not None
                            else None
                        ),
                        "wall_time_s": 0.0 if omit else report.wall_time_s,
                        "seed": seed,
                    }
                )
    rows.sort(key=lambda r: (r["method"], r["param_value"], r["run_index"]))
    return rows


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(
            [
                r["method"],
                r["param_name"],
                str(r["param_value"]),
                str(r["run_index"]),
                repr(float(r["price"])),
                "" if r["abs_error"] is None else repr(float(r["abs_error"])),
                repr(float(r["wall_time_s"])),
                str(r["seed"]),
            ]
        )
    return buf.getvalue()


def run(cfg: RunConfig) -> int:
    """Execute one resolved invocation; returns the process exit status."""
    if cfg.command == "price-asian":
        report = _price_asian(cfg, cfg.get("method", _DEFAULTS["method"]))
        _dump_mps(cfg, report)
        _emit(cfg, _report_json(report, cfg))
        return 0
    if cfg.command == "price-basket":
        report = _price_basket(cfg, cfg.get("method", _DEFAULTS["method"]))
        _dump_mps(cfg, report)
        _emit(cfg, _report_json(report, cfg))
        return 0
    if cfg.command in ("bench-asian", "bench-basket"):
        rows = _bench_rows(cfg, "asian" if cfg.command == "bench-asian" else "basket")
        _emit(cfg, _rows_to_csv(rows))
        return 0
    if cfg.command == "oracle":
        if cfg.get("kind", "asian") == "asian":
            report = price_asian_bruteforce(_asian_spec_from(cfg))
        else:
            report = price_basket_bruteforce(_basket_spec_from(cfg))
        _emit(cfg, _report_json(report, cfg))
        return 0
    raise ValueError(f"unknown command {cfg.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_args(argv)
        return run(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
