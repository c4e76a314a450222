"""Import footprint: scipy loads only when a cross runs maxvol.

The check runs in a fresh interpreter, because this test process may
already have loaded scipy through other tests or pytest plugins.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import mpspricer
from mpspricer import cli

spec = mpspricer.AsianSpec(steps=10)
mpspricer.price_asian_bruteforce(spec)
mpspricer.price_asian_montecarlo(spec, n_samples=1000)
mpspricer.price_asian_variational(spec, bond_dim=4)
mpspricer.tree_price(mpspricer.SingleAssetSpec(steps=10), style="american")
mpspricer.price_basket_bruteforce(mpspricer.uniform_basket_spec(3, steps=6))
out = sys.argv[1]
for argv in (
    ["price-asian", "--method", "bruteforce", "--steps", "10"],
    ["price-asian", "--method", "montecarlo", "--steps", "10", "--samples", "1000"],
    ["price-asian", "--method", "variational", "--steps", "10", "--bond-dim", "4"],
    ["price-basket", "--method", "bruteforce", "--assets", "3", "--steps", "6"],
):
    assert cli.main([*argv, "--output-path", out]) == 0, argv
assert "scipy" not in sys.modules

report = mpspricer.price_asian_ttcross(mpspricer.AsianSpec(steps=16), bond_dim=4)
assert report.n_sweeps > 0
assert "scipy.linalg" in sys.modules
print("ok")
"""


def test_scipy_loads_only_with_a_sweeping_cross(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "doc.json")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "ok\n"
