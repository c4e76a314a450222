"""Regenerate ``references.json``: the pinned prices every case is checked against.

Run from the repository root:

    python3 perfbench/pin.py

Within the brute-force cap the pin is the exact oracle price
(``price_asian_bruteforce`` or ``price_basket_bruteforce``). Beyond it the
pin is a variational lower bound and a high-sample Monte Carlo price with
its standard error. Each pin stores its spec and the call that produced
it; the file header records the commit, library versions and thread
counts. Takes a few minutes, dominated by the Monte Carlo references.
"""

from __future__ import annotations

import datetime
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import book  # noqa: E402
import environment  # noqa: E402
import mpspricer  # noqa: E402

PIN_MC_SAMPLES = 10**8
PIN_MC_SEED = 987654321
PIN_VARIATIONAL_SEED = 0


def _pin(case: book.Case) -> dict:
    spec = case.spec
    entry = {"spec": book.spec_document(spec)}
    if isinstance(spec, mpspricer.BasketSpec):
        report = mpspricer.price_basket_bruteforce(spec)
        entry.update(exact=report.price, method="price_basket_bruteforce(spec)")
    elif spec.steps <= mpspricer.BRUTEFORCE_MAX_STEPS:
        report = mpspricer.price_asian_bruteforce(spec)
        entry.update(exact=report.price, method="price_asian_bruteforce(spec)")
    else:
        lower = mpspricer.price_asian_variational(
            spec, bond_dim=book.VARIATIONAL_BOND, seed=PIN_VARIATIONAL_SEED
        )
        mc = mpspricer.price_asian_montecarlo(
            spec, n_samples=PIN_MC_SAMPLES, seed=PIN_MC_SEED
        )
        entry.update(
            lower_bound=lower.price,
            lower_bound_method=(
                f"price_asian_variational(spec, bond_dim={book.VARIATIONAL_BOND}, "
                f"seed={PIN_VARIATIONAL_SEED})"
            ),
            mc_price=mc.price,
            mc_std_error=mc.std_error,
            mc_method=(
                f"price_asian_montecarlo(spec, n_samples={PIN_MC_SAMPLES}, "
                f"seed={PIN_MC_SEED})"
            ),
        )
    return entry


def main() -> None:
    refs: dict[str, dict] = {}
    for name in book.WORKLOADS:
        for case in book.build_workload(name, seed=0):
            if case.ref not in refs:
                start = time.perf_counter()
                refs[case.ref] = _pin(case)
                print(f"{case.ref}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    doc = {
        "provenance": {
            "generated_by": "python3 perfbench/pin.py",
            "date": datetime.date.today().isoformat(),
            **environment.describe(ROOT),
        },
        "references": dict(sorted(refs.items())),
    }
    book.REFERENCES_PATH.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
