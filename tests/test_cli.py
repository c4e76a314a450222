"""CLI: flag parsing, config merging, document emission, determinism."""

import json
import math

import pytest

from mpspricer import (
    AsianSpec,
    PriceReport,
    price_american_basket,
    price_asian_bruteforce,
    price_asian_montecarlo,
    price_asian_ttcross,
    price_asian_variational,
    price_basket_bruteforce,
    price_european_basket,
    uniform_basket_spec,
)
from mpspricer import cli
from mpspricer.cli import main, parse_args


def run_cli(args, tmp_path, name="out"):
    path = tmp_path / name
    code = main([*args, "--output-path", str(path)])
    return code, path.read_bytes() if path.exists() else b""


def test_parse_merges_config_with_flag_priority(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"steps": 9, "strike": 123.0}))
    args, lists = parse_args(
        ["price-asian", "--config", str(cfg_file), "--strike", "50"]
    )
    assert args.command == "price-asian"
    assert args.steps == 9
    assert args.strike == 50.0
    assert lists == {}


def _document(report):
    return (json.dumps(report.to_dict(omit_timing=True), indent=2) + "\n").encode()


@pytest.mark.parametrize(
    "args, expected",
    [
        pytest.param(
            ["price-asian", "--method", "ttcross"],
            lambda: price_asian_ttcross(AsianSpec()), id="asian-ttcross",
        ),
        pytest.param(
            ["price-asian", "--method", "variational"],
            lambda: price_asian_variational(AsianSpec()), id="asian-variational",
        ),
        pytest.param(
            ["price-asian", "--method", "montecarlo"],
            lambda: price_asian_montecarlo(AsianSpec()), id="asian-montecarlo",
        ),
        pytest.param(
            ["price-asian", "--method", "bruteforce"],
            lambda: price_asian_bruteforce(AsianSpec()), id="asian-bruteforce",
        ),
        pytest.param(
            ["price-basket", "--method", "ttcross"],
            lambda: price_european_basket(uniform_basket_spec()),
            id="basket-ttcross-european",
        ),
        pytest.param(
            ["price-basket", "--method", "ttcross", "--style", "american"],
            lambda: price_american_basket(uniform_basket_spec(style="american")),
            id="basket-ttcross-american",
        ),
        pytest.param(
            ["price-basket", "--method", "bruteforce"],
            lambda: price_basket_bruteforce(uniform_basket_spec()),
            id="basket-bruteforce-european",
        ),
        pytest.param(
            ["price-basket", "--method", "bruteforce", "--style", "american"],
            lambda: price_basket_bruteforce(uniform_basket_spec(style="american")),
            id="basket-bruteforce-american",
        ),
    ],
)
def test_defaults_are_library_defaults(args, expected, tmp_path):
    # Every value the flags leave unset is the spec's or the pricer's own.
    code, raw = run_cli([*args, "--omit-timing"], tmp_path)
    assert code == 0
    assert raw == _document(expected())


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "command, values",
    [
        pytest.param("price-asian", {"steps": 12.7}, id="fractional-steps"),
        pytest.param("price-asian", {"steps": True}, id="boolean-steps"),
        pytest.param("price-asian", {"bond_dim": 8.9}, id="fractional-bond-dim"),
        pytest.param("price-asian", {"seed": 1.5}, id="fractional-seed"),
        pytest.param("price-basket", {"assets": 2.5}, id="fractional-assets"),
        pytest.param("price-asian", {"omit_timing": "no"}, id="string-switch"),
        pytest.param("price-asian", {"config": "x.json"}, id="nested-config"),
    ],
)
def test_config_file_values_use_flag_types(command, values, tmp_path):
    # Each of these once priced a converted value, or ignored the key.
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"method": "bruteforce", "steps": 4} | values))
    out = tmp_path / "c.out"
    code = _exit_code([command, "--config", str(cfg_file), "--output-path", str(out)])
    assert code != 0
    assert not out.exists()


def test_config_file_switch_takes_json_boolean(tmp_path):
    cfg_file = tmp_path / "c.json"
    for omit in (True, False):
        cfg_file.write_text(json.dumps({"method": "bruteforce", "omit_timing": omit}))
        code, raw = run_cli(["price-asian", "--config", str(cfg_file)], tmp_path)
        assert code == 0
        assert (json.loads(raw)["wall_time_s"] == 0.0) is omit


def test_non_finite_price_is_error(monkeypatch, tmp_path, capsys):
    def nan_pricer(spec):
        return PriceReport(price=math.nan, method="bruteforce")

    monkeypatch.setitem(cli.ASIAN_PRICERS, "bruteforce", nan_pricer)
    code, raw = run_cli(["price-asian", "--method", "bruteforce"], tmp_path)
    assert code == 1
    assert raw == b""
    assert capsys.readouterr().err.startswith("error:")


def test_non_finite_spec_flag_is_error(tmp_path, capsys):
    args = ["price-asian", "--method", "bruteforce", "--steps", "6", "--strike", "nan"]
    code, raw = run_cli(args, tmp_path)
    assert code == 1
    assert raw == b""
    assert "strike must be finite" in capsys.readouterr().err


def test_price_asian_bruteforce_passthrough(tmp_path):
    args = [
        "price-asian", "--method", "bruteforce", "--steps", "12",
        "--s0", "100", "--strike", "100", "--rate", "0.1", "--vol", "0.5",
        "--expiry", "1", "--scheme", "crr",
    ]
    code, raw = run_cli(args, tmp_path, "p.json")
    assert code == 0
    doc = json.loads(raw)
    spec = AsianSpec(
        spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=12
    )
    assert doc["price"] == price_asian_bruteforce(spec).price
    assert doc["method"] == "bruteforce"


def test_price_asian_montecarlo_fields(tmp_path):
    args = [
        "price-asian", "--method", "montecarlo", "--steps", "8",
        "--samples", "1e4", "--seed", "3", "--omit-timing",
    ]
    code, raw = run_cli(args, tmp_path, "mc.json")
    assert code == 0
    doc = json.loads(raw)
    assert doc["n_samples"] == 10000
    assert doc["seed"] == 3
    assert doc["wall_time_s"] == 0.0
    assert doc["std_error"] > 0


@pytest.mark.parametrize("method", ["montecarlo", "variational"])
def test_negative_seed_is_error(method, tmp_path, capsys):
    args = ["price-asian", "--method", method, "--steps", "8", "--seed", "-1"]
    code, raw = run_cli(args, tmp_path)
    assert code == 1
    assert raw == b""
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "args, method",
    [
        pytest.param(
            ["price-asian", "--method", "ttcross", "--steps", "10",
             "--bond-dim", "4", "--seed", "1"],
            "ttcross", id="asian-ttcross",
        ),
        pytest.param(
            ["price-asian", "--method", "variational", "--steps", "10",
             "--bond-dim", "4", "--seed", "1"],
            "variational", id="asian-variational",
        ),
        pytest.param(
            ["price-asian", "--method", "montecarlo", "--steps", "10",
             "--samples", "1e4", "--seed", "7"],
            "montecarlo", id="asian-montecarlo",
        ),
        pytest.param(
            ["price-asian", "--method", "bruteforce", "--steps", "13",
             "--strike", "103"],
            "bruteforce", id="asian-bruteforce",
        ),
        pytest.param(
            ["price-basket", "--style", "american", "--payoff", "min",
             "--assets", "2", "--steps", "5", "--corr", "0.3333333333",
             "--bond-dim", "8"],
            "ttcross", id="basket-ttcross",
        ),
    ],
)
def test_price_reruns_byte_identical(args, method, tmp_path):
    code, first = run_cli([*args, "--omit-timing"], tmp_path, "a.json")
    assert code == 0
    _, second = run_cli([*args, "--omit-timing"], tmp_path, "b.json")
    assert first == second
    assert json.loads(first)["method"] == method


def test_dump_mps_roundtrip(tmp_path):
    from mpspricer import MPS

    mps_path = tmp_path / "dump.json"
    args = [
        "price-asian", "--method", "ttcross", "--steps", "8",
        "--bond-dim", "8", "--dump-mps", str(mps_path),
    ]
    code, _ = run_cli(args, tmp_path, "p.json")
    assert code == 0
    m = MPS.from_document(json.loads(mps_path.read_text()))
    assert m.n_sites == 8


def test_dump_mps_rejected_without_mps(tmp_path, capsys):
    args = [
        "price-asian", "--method", "montecarlo", "--samples", "100",
        "--steps", "5", "--dump-mps", str(tmp_path / "x.json"),
    ]
    code = main(args)
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MPSPRICER_OUTPUT_DIR", str(tmp_path))
    code = main(
        ["price-asian", "--method", "bruteforce", "--steps", "6",
         "--output-path", "nested.json", "--omit-timing"]
    )
    assert code == 0
    assert (tmp_path / "nested.json").exists()


def test_absolute_path_ignores_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MPSPRICER_OUTPUT_DIR", str(tmp_path / "elsewhere"))
    target = tmp_path / "direct.json"
    code = main(
        ["price-asian", "--method", "bruteforce", "--steps", "6",
         "--output-path", str(target)]
    )
    assert code == 0
    assert target.exists()


def test_config_file_heterogeneous_basket(tmp_path):
    cfg_file = tmp_path / "b.json"
    cfg_file.write_text(
        json.dumps(
            {
                "spots": [100.0, 110.0],
                "vols": [0.5, 0.4],
                "corr": [[1.0, 0.25], [0.25, 1.0]],
                "strike": 105.0,
                "steps": 5,
                "method": "bruteforce",
            }
        )
    )
    code, raw = run_cli(
        ["price-basket", "--config", str(cfg_file), "--omit-timing"],
        tmp_path, "hb.json",
    )
    assert code == 0
    doc = json.loads(raw)
    from mpspricer import BasketSpec, price_basket_bruteforce

    spec = BasketSpec(
        spots=(100.0, 110.0), strike=105.0, rate=0.1, vols=(0.5, 0.4),
        corr=((1.0, 0.25), (0.25, 1.0)), expiry=1.0, steps=5,
        payoff_kind="min", style="european",
    )
    assert doc["price"] == price_basket_bruteforce(spec).price


def test_price_rejects_json_output(capsys):
    # There is no --output flag, and it is not read as --output-path:
    # price commands always write JSON.
    with pytest.raises(SystemExit) as exc:
        main(["price-asian", "--method", "bruteforce", "--steps", "6",
              "--output", "json"])
    assert exc.value.code != 0
    assert "--output" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench-asian", "bench-basket", "oracle"])
def test_removed_commands_exit_nonzero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--steps", "6"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["price-asian", "--frobnicate", "1"])
    assert exc.value.code != 0


def test_stdout_emission(capsys):
    code = main(
        ["price-asian", "--method", "bruteforce", "--steps", "5",
         "--omit-timing"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["wall_time_s"] == 0.0


def test_shared_flag_beats_config_file_list(tmp_path):
    cfg_file = tmp_path / "b.json"
    cfg_file.write_text(
        json.dumps({"spots": [90.0, 110.0], "steps": 5, "method": "bruteforce"})
    )
    code, raw = run_cli(
        ["price-basket", "--config", str(cfg_file), "--s0", "50"], tmp_path, "s.json"
    )
    assert code == 0
    from mpspricer import price_basket_bruteforce, uniform_basket_spec

    # The list still sets the asset count.
    spec = uniform_basket_spec(2, spot=50.0, steps=5)
    assert json.loads(raw)["price"] == price_basket_bruteforce(spec).price


@pytest.mark.parametrize(
    "command, values",
    [
        pytest.param("price-asian", {"stepz": 5, "strikee": 150}, id="misspelled"),
        pytest.param("price-asian", {"spots": [90.0, 110.0]}, id="asian-spots"),
        pytest.param("price-basket", {"kind": "basket", "steps": 5}, id="basket-kind"),
    ],
)
def test_config_file_rejects_unknown_keys(command, values, tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(values))
    code, raw = run_cli([command, "--config", str(cfg_file)], tmp_path, "c.out")
    assert code == 1
    assert raw == b""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown keys" in err
    assert repr(next(iter(values))) in err


@pytest.mark.parametrize("samples", ["inf", "1e400", "nan"])
def test_non_finite_sample_flag_is_usage_error(samples, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price-asian", "--method", "montecarlo", "--samples", samples])
    assert exc.value.code == 2
    assert "expected a nonnegative integer" in capsys.readouterr().err


def test_non_finite_config_value_is_error(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text('{"method": "montecarlo", "samples": 1e400}')
    code = main(["price-asian", "--config", str(cfg_file)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "samples must be finite" in err


@pytest.mark.parametrize("data", [[{"steps": 4}], "steps=4"], ids=["array", "string"])
def test_config_file_must_hold_an_object(data, tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(data))
    code, raw = run_cli(["price-asian", "--config", str(cfg_file)], tmp_path, "c.out")
    assert code == 1
    assert raw == b""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must hold a JSON object" in err


def test_non_finite_tol_flag_is_error(tmp_path, capsys):
    # An infinite tol once stopped the first probe comparison as converged.
    args = ["price-asian", "--steps", "30", "--bond-dim", "4", "--tol", "inf"]
    code, raw = run_cli(args, tmp_path)
    assert code == 1
    assert raw == b""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tol must be positive and finite" in err


@pytest.mark.parametrize(
    "values, field",
    [
        pytest.param({"corr": [[1, None], [None, 1]]}, "corr", id="null-corr"),
        pytest.param({"spots": [[100], [100]]}, "spots", id="nested-spots"),
        pytest.param({"vols": [0.3, "0.4"]}, "vols", id="string-vol"),
    ],
)
def test_config_file_basket_lists_must_hold_numbers(values, field, tmp_path, capsys):
    # Each of these once ended in a TypeError traceback.
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"steps": 4} | values))
    args = ["price-basket", "--method", "bruteforce", "--config", str(cfg_file)]
    code, raw = run_cli(args, tmp_path, "c.out")
    assert code == 1
    assert raw == b""
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{field} must hold only real numbers" in err


@pytest.mark.parametrize(
    "args, unused",
    [
        pytest.param(
            ["price-asian", "--method", "ttcross", "--samples", "100"],
            "--samples", id="asian-ttcross",
        ),
        pytest.param(
            ["price-asian", "--method", "variational", "--sweeps", "3"],
            "--sweeps", id="asian-variational",
        ),
        pytest.param(
            ["price-asian", "--method", "montecarlo", "--steps", "8", "--samples",
             "1000", "--tol", "inf", "--bond-dim", "0"],
            "--bond-dim, --tol", id="asian-montecarlo",
        ),
        pytest.param(
            ["price-asian", "--method", "bruteforce", "--seed", "3"],
            "--seed", id="asian-bruteforce",
        ),
        pytest.param(
            ["price-basket", "--method", "bruteforce", "--bond-dim", "8"],
            "--bond-dim", id="basket-bruteforce",
        ),
    ],
)
def test_flag_the_method_does_not_take_is_error(args, unused, tmp_path, capsys):
    # Each of these once priced without a word about the ignored flag.
    code, raw = run_cli(args, tmp_path)
    assert code == 1
    assert raw == b""
    command, method = args[0], args[2]
    assert capsys.readouterr().err == (
        f"error: {command} --method {method} does not take {unused}\n"
    )


def test_config_file_flag_the_method_does_not_take_is_error(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"method": "montecarlo", "sweeps": 2}))
    code, raw = run_cli(["price-asian", "--config", str(cfg_file)], tmp_path)
    assert code == 1
    assert raw == b""
    assert "does not take --sweeps" in capsys.readouterr().err


def test_every_basket_ttcross_flag_is_taken(tmp_path):
    # The basket cross takes each flag price-basket offers, in both styles.
    for style in ("european", "american"):
        args = [
            "price-basket", "--style", style, "--assets", "2", "--s0", "90",
            "--strike", "95", "--rate", "0.05", "--vol", "0.3", "--corr", "0.2",
            "--expiry", "0.5", "--steps", "4", "--payoff", "max",
            "--bond-dim", "4", "--sweeps", "2", "--tol", "1e-3", "--seed", "1",
        ]
        assert run_cli(args, tmp_path)[0] == 0
