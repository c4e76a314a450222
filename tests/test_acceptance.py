"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them). These
are the slow, integration-level checks; the per-module suites cover the
fine-grained behavior.
"""

import json
import math

import numpy as np
import pytest

import mpspricer as mp
from mpspricer.cli import main as cli_main

from conftest import mps_grid_function

STANDARD = dict(spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0)


def report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {text}")


def test_criterion_01_payoff_mps_sum_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        # vol >> rate*sqrt(expiry) keeps the CRR up probability inside [0, 1]
        # for every draw, including single-step trees.
        spec = mp.AsianSpec(
            spot=float(rng.uniform(50, 150)),
            strike=float(rng.uniform(50, 150)),
            rate=float(rng.uniform(0.01, 0.15)),
            vol=float(rng.uniform(0.3, 0.9)),
            expiry=float(rng.uniform(0.5, 1.5)),
            steps=int(rng.integers(1, 65)),
        )
        b = mp.build_exact_payoff_mps(spec)
        want = (spec.spot / spec.steps) * sum(
            math.exp(spec.rate * spec.dt * i) for i in range(1, spec.steps + 1)
        ) - spec.strike
        err = abs(b.sum_all() - want) / max(1.0, abs(want))
        worst = max(worst, err)
    ok = worst <= 1e-9
    report(1, ok, f"payoff-MPS sum identity, 20 random specs, worst rel err {worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_02_cross_recovers_hidden_rank_two():
    spec = mp.AsianSpec(steps=20, **STANDARD)
    exact = mp.build_exact_payoff_mps(spec)
    res = mp.ttcross_approximate(
        mps_grid_function(exact),
        mp.CrossConfig(max_bond=2, seed=5),
    )
    probes = np.random.default_rng(11).integers(0, 2, size=(1000, 20))
    want = exact.evaluate_batch(probes)
    err = np.max(np.abs(res.mps.evaluate_batch(probes) - want)) / np.max(
        np.abs(want)
    )
    ok = err <= 1e-8
    report(2, ok, f"bond-2 integrand recovered at max_bond=2, probe rel err {err:.2e} (tol 1e-8)")
    assert ok


def test_criterion_03_asian_cross_price_accuracy():
    spec = mp.AsianSpec(steps=20, **STANDARD)
    bf = mp.price_asian_bruteforce(spec).price
    errs = [
        abs(mp.price_asian_ttcross(spec, bond_dim=64, seed=s).price - bf) / bf
        for s in range(10)
    ]
    med = float(np.median(errs))
    ok = med <= 0.01
    report(3, ok, f"Asian cross pricing N=20 bond 64, median rel err {med:.2e} over 10 seeds (tol 1%)")
    assert ok


def test_criterion_04_variational_lower_bound_and_accuracy():
    spec = mp.AsianSpec(steps=20, **STANDARD)
    bf = mp.price_asian_bruteforce(spec).price
    bond_dims = (4, 8, 16, 32, 64)
    violations = 0
    best_at_max = -math.inf
    for bond_dim in bond_dims:
        for seed in range(12):
            price = mp.price_asian_variational(spec, bond_dim=bond_dim, seed=seed).price
            if price > bf + 1e-9:
                violations += 1
            if bond_dim == bond_dims[-1]:
                best_at_max = max(best_at_max, price)
    gap = (bf - best_at_max) / bf
    ok = violations == 0 and gap <= 0.01
    report(4, ok, f"variational: 0 bound violations required (got {violations}) over 60 runs, best bond-64 gap {gap:.2%} (tol 1%)")
    assert ok


def test_criterion_05_monte_carlo_calibration():
    spec = mp.AsianSpec(steps=20, **STANDARD)
    bf = mp.price_asian_bruteforce(spec).price
    hits = 0
    for seed in range(200):
        r = mp.price_asian_montecarlo(spec, 100_000, seed=seed)
        if abs(r.price - bf) <= 2.0 * r.std_error:
            hits += 1
    ok = hits >= 190
    report(5, ok, f"Monte Carlo calibration: {hits}/200 runs within 2 SE (need 190)")
    assert ok


def test_monte_carlo_z_scores_are_standard_normal():
    # Criterion 05 counts runs within 2 SE, which 190.9 +- 2.9 of 200 are
    # for a calibrated estimator. The z-scores' mean and sd say more: over
    # 200 seeds their standard errors are about 0.071 and 0.050.
    spec = mp.AsianSpec(steps=20, **STANDARD)
    bf = mp.price_asian_bruteforce(spec).price
    z = []
    for seed in range(200):
        r = mp.price_asian_montecarlo(spec, 100_000, seed=seed)
        z.append((r.price - bf) / r.std_error)
    assert abs(np.mean(z)) < 0.3
    assert abs(np.std(z, ddof=1) - 1.0) < 0.2


def test_criterion_06_single_asset_basket_reductions():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        spot = float(rng.uniform(80, 120))
        strike = float(rng.uniform(80, 120))
        rate = float(rng.uniform(0.02, 0.12))
        vol = float(rng.uniform(0.2, 0.7))
        steps = int(rng.integers(4, 17))
        for style in ("european", "american"):
            bspec = mp.BasketSpec(
                spots=(spot,), strike=strike, rate=rate, vols=(vol,),
                corr=((1.0,),), expiry=1.0, steps=steps,
                payoff_kind="min", style=style,
            )
            if style == "european":
                got = mp.price_european_basket(bspec, bond_dim=4, seed=0).price
            else:
                got = mp.price_american_basket(bspec, bond_dim=4, seed=0).price
            want = mp.tree_price(
                mp.SingleAssetSpec(
                    spot=spot, strike=strike, rate=rate, vol=vol,
                    expiry=1.0, steps=steps, right="put", scheme="rb",
                ),
                style=style,
            )
            worst = max(worst, abs(got - want))
    ok = worst <= 1e-10
    report(6, ok, f"m=1 basket equals RB tree, 10 specs x 2 styles, worst abs err {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_07_american_basket_convergence():
    spec = mp.uniform_basket_spec(
        3, rho=1.0 / 3.0, steps=10, payoff_kind="min", style="american"
    )
    bf = mp.price_basket_bruteforce(spec).price
    medians = []
    for bond_dim in (4, 8, 16):
        errs = [
            abs(mp.price_american_basket(spec, bond_dim=bond_dim, seed=s).price - bf)
            / bf
            for s in range(10)
        ]
        medians.append(float(np.median(errs)))
    non_increasing = all(
        medians[i + 1] <= medians[i] + 1e-12 for i in range(len(medians) - 1)
    )
    ok = non_increasing and medians[-1] <= 0.005
    report(7, ok, f"American basket m=3: median rel errs {[f'{m:.1e}' for m in medians]} non-increasing, final <= 0.5%")
    assert ok


def test_criterion_08_path_count_matrices():
    worst = 0.0
    for n in range(1, 21):
        pmf = mp.terminal_label_pmf(n)
        want = np.array([math.comb(n, y) / 2.0**n for y in range(n + 1)])
        worst = max(worst, float(np.max(np.abs(pmf - want))))
    ok = worst <= 1e-12
    report(8, ok, f"chained transition matrices reproduce C(N,y)/2^N up to N=20, worst abs err {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_09_tree_converges_to_closed_form():
    # Closed-form reference computed independently at 50-digit precision.
    bs_put = 14.410486632357301
    spec = mp.SingleAssetSpec(
        steps=2048, right="put", scheme="crr", **STANDARD
    )
    err = abs(mp.tree_price(spec, style="european") - bs_put)
    ok = err < 0.01
    report(9, ok, f"CRR European put N=2048 vs closed form, abs err {err:.2e} (tol 0.01)")
    assert ok


def test_criterion_10_cli_determinism_and_schema(tmp_path):
    json_paths = [tmp_path / "a.json", tmp_path / "b.json"]
    jargs = [
        "price-asian", "--method", "ttcross", "--steps", "12",
        "--bond-dim", "8", "--seed", "3", "--omit-timing",
    ]
    for p in json_paths:
        assert cli_main([*jargs, "--output-path", str(p)]) == 0
    jfirst, jsecond = (p.read_bytes() for p in json_paths)
    ok = bool(jfirst == jsecond and json.loads(jfirst))
    report(10, ok, "CLI: byte-identical JSON reruns")
    assert ok
