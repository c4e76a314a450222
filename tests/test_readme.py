"""The README's examples run and print what it shows, from the exported names."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import mpspricer
from mpspricer.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_documented_prices():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().split()
    assert printed == ["14.225630416482268", "14.225630416482321", "28.063240453797686"]
    # The comments in the block show the same numbers.
    assert re.findall(r"#\s*(.+)", code) == [
        "14.225630416482268 14.225630416482321",
        "28.063240453797686",
    ]


def test_command_examples_print_documented_bytes():
    """Each `mpspricer ...` block and the output block after it."""
    text = README.read_text(encoding="utf-8")
    examples = re.findall(
        r"```sh\n(mpspricer .*?)```\s*```(?:json|csv)\n(.*?)```", text, re.S
    )
    runs = [(shlex.split(cmd.replace("\\\n", " "))[1:], shown) for cmd, shown in examples]
    assert [argv[0] for argv, _ in runs] == ["price-asian"]
    for argv, shown in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == shown


def test_public_names_are_the_pricers_and_their_pieces():
    """The export list is pinned, and every name on it imports."""
    assert mpspricer.__all__ == [
        "MPS",
        "DENSE_ELEMENT_CAP",
        "PriceReport",
        "GridFunction",
        "CrossConfig",
        "CrossResult",
        "ttcross_approximate",
        "SchemeParams",
        "SingleAssetSpec",
        "crr_params",
        "rb_params",
        "make_scheme_params",
        "path_prices",
        "path_probability",
        "tree_price",
        "AsianSpec",
        "asian_integrand",
        "price_asian_bruteforce",
        "price_asian_montecarlo",
        "price_asian_ttcross",
        "BRUTEFORCE_MAX_STEPS",
        "build_exact_payoff_mps",
        "price_asian_variational",
        "BasketSpec",
        "DecoupledModel",
        "decouple",
        "uniform_basket_spec",
        "basket_payoff",
        "terminal_label_pmf",
        "price_european_basket",
        "price_american_basket",
        "price_basket_bruteforce",
        "__version__",
    ]
    namespace: dict = {}
    exec("from mpspricer import *", namespace)
    assert set(mpspricer.__all__) <= set(namespace)
