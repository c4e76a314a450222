"""Exact linear-payoff MPS and the binary-filter lower-bound pricer."""

import math

import numpy as np
import pytest

from mpspricer import (
    AsianSpec,
    MPS,
    build_exact_payoff_mps,
    crr_params,
    path_prices,
    path_probability,
    price_asian_bruteforce,
    price_asian_variational,
)
from mpspricer import asian, variational
from mpspricer.variational import greedy_binary_decompose

from conftest import ASIAN_N32_CALL, all_bitstrings

ASIAN_N1_CALL = 28.084640724297127


def expected_linear_sum(spec: AsianSpec) -> float:
    # sum_x p(x) (mean(x) - K) = (S0/N) sum_i e^{r i dt} - K; each step's
    # expected factor is p*u + (1-p)*d = e^{r dt}.
    acc = sum(
        math.exp(spec.rate * spec.dt * i) for i in range(1, spec.steps + 1)
    )
    signed = spec.spot / spec.steps * acc - spec.strike
    return signed if spec.right == "call" else -signed


def test_payoff_mps_sum_identity():
    for right in ("call", "put"):
        for steps in (1, 2, 3, 17, 40):
            spec = AsianSpec(
                spot=120.0, strike=90.0, rate=0.07, vol=0.35, expiry=1.5,
                steps=steps, right=right,
            )
            b = build_exact_payoff_mps(spec)
            want = expected_linear_sum(spec)
            assert b.sum_all() == pytest.approx(want, rel=1e-11)


def test_payoff_mps_pointwise():
    spec = AsianSpec(spot=100, strike=95, rate=0.1, vol=0.5, expiry=1.0, steps=9)
    b = build_exact_payoff_mps(spec)
    params = spec.params()
    bits = all_bitstrings(9)
    means = path_prices(spec.spot, params, bits).mean(axis=1)
    want = path_probability(params, bits) * (means - spec.strike)
    np.testing.assert_allclose(b.evaluate_batch(bits), want, rtol=1e-11, atol=1e-14)


def test_payoff_mps_bond_dimension_two():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=30)
    b = build_exact_payoff_mps(spec)
    assert b.max_bond == 2
    assert b.n_sites == 30


def test_greedy_identity_when_it_fits():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 6))
    l, m = greedy_binary_decompose(a, target_rows=4)
    np.testing.assert_array_equal(l, np.eye(4))
    np.testing.assert_array_equal(m, a)


def test_greedy_group_profile_invariant():
    # Surviving profiles are exact sums of their member rows: m == l.T @ a.
    rng = np.random.default_rng(1)
    for trial in range(10):
        a = rng.normal(size=(12, 5))
        l, m = greedy_binary_decompose(a, target_rows=3)
        assert l.shape[0] == 12
        assert l.shape[1] <= 3
        assert m.shape == (l.shape[1], 5)
        np.testing.assert_allclose(m, l.T @ a, rtol=1e-12, atol=1e-12)


def test_greedy_rows_join_at_most_one_group():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(20, 4))
    l, _ = greedy_binary_decompose(a, target_rows=5)
    assert set(np.unique(l)) <= {0.0, 1.0}
    assert np.all(l.sum(axis=1) <= 1.0)


def test_greedy_never_creates_positive_mass():
    # Group profiles are sums of member rows, and max(x + y, 0) never
    # exceeds max(x, 0) + max(y, 0), so merging and dropping can only
    # shrink the total positive mass held in the profiles.
    rng = np.random.default_rng(3)
    for trial in range(10):
        a = rng.normal(size=(16, 6))
        l, m = greedy_binary_decompose(a, target_rows=4)
        before = np.maximum(a, 0.0).sum()
        after = np.maximum(m, 0.0).sum()
        assert after <= before + 1e-12


def test_greedy_merges_identical_rows_losslessly():
    # Two equal rows share their sign pattern, so merging them keeps the
    # full positive mass; dropping any row would lose some. The greedy
    # must therefore group rows 0 and 1 and keep row 2 alone.
    row = np.array([1.0, -2.0, 3.0])
    a = np.vstack([row, row, -row])
    l, m = greedy_binary_decompose(a, target_rows=2)
    np.testing.assert_array_equal(l[0], l[1])
    assert not np.array_equal(l[0], l[2])
    assert np.maximum(m, 0.0).sum() == pytest.approx(
        np.maximum(a, 0.0).sum(), rel=1e-12
    )


def masked_greedy(a: np.ndarray, target_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The greedy as first written: every step masks out removed rows afresh."""
    profiles = np.array(a, dtype=np.float64)
    n_rows = profiles.shape[0]
    membership = np.eye(n_rows, dtype=bool)
    active = np.ones(n_rows, dtype=bool)
    if n_rows <= target_rows:
        return membership.astype(np.float64), profiles
    rowvals = np.maximum(profiles, 0.0).sum(axis=1)
    pair_pos = np.maximum(profiles[:, None, :] + profiles[None, :, :], 0.0).sum(axis=2)
    mergevals = pair_pos - rowvals[:, None] - rowvals[None, :]
    np.fill_diagonal(mergevals, -np.inf)
    while int(active.sum()) > target_rows:
        masked = np.where(active[:, None] & active[None, :], mergevals, -np.inf)
        i, j = np.unravel_index(np.argmax(masked), masked.shape)
        drop_idx = int(np.argmin(np.where(active, rowvals, np.inf)))
        if -masked[i, j] < rowvals[drop_idx]:
            keep, gone = (i, j) if i < j else (j, i)
            profiles[keep] += profiles[gone]
            membership[:, keep] |= membership[:, gone]
            active[gone] = False
            rowvals[keep] = np.maximum(profiles[keep], 0.0).sum()
            pos = np.maximum(profiles + profiles[keep], 0.0).sum(axis=1)
            mergevals[keep, :] = pos - rowvals[keep] - rowvals
            mergevals[:, keep] = mergevals[keep, :]
            mergevals[keep, keep] = -np.inf
        else:
            active[drop_idx] = False
    return membership[:, active].astype(np.float64), profiles[active].copy()


def test_greedy_equals_the_masked_loop_bitwise():
    # Integer-valued rows tie often, so argmax and argmin must break ties
    # exactly as the masked loop does.
    rng = np.random.default_rng(5)
    for trial in range(400):
        n_rows, n_cols = rng.integers(2, 24), rng.integers(1, 9)
        if trial % 2:
            a = rng.integers(-3, 4, size=(n_rows, n_cols)).astype(np.float64)
        else:
            a = rng.normal(size=(n_rows, n_cols))
        target = int(rng.integers(1, n_rows + 1))
        got, want = greedy_binary_decompose(a, target), masked_greedy(a, target)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_greedy_validation():
    with pytest.raises(ValueError):
        greedy_binary_decompose(np.ones(3), 2)
    with pytest.raises(ValueError):
        greedy_binary_decompose(np.ones((2, 2)), 0)


def test_greedy_rejects_a_non_integer_target():
    with pytest.raises(TypeError, match="target_rows must be an integer"):
        greedy_binary_decompose(np.ones((3, 2)), 1.5)


def filter_environment(filter_sites, b_sites):
    """sum_x psi(x) b(x) over the leading sites, as a (filter, payoff) bond matrix."""
    env = np.ones((1, 1))
    for site, b_site in zip(filter_sites, b_sites):
        env = np.einsum("la,lxr,axb->rb", env, site, b_site)
    return env


def test_center_update_is_sign_of_gradient():
    """The free last site is 1 exactly where its gradient is positive."""
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=10)
    r = price_asian_variational(spec, bond_dim=4)
    sites, b = r.mps.tensors, build_exact_payoff_mps(spec).tensors
    lenv = filter_environment(sites[:-1], b[:-1])
    grad = variational.center_gradient(lenv, np.ones((1, 1)), b[-1])
    assert 0 < np.count_nonzero(grad > 0) < grad.size
    np.testing.assert_array_equal(sites[-1], (grad > 0).astype(float))
    disc = math.exp(-spec.rate * spec.expiry)
    assert r.price == pytest.approx(disc * np.maximum(grad, 0.0).sum(), rel=1e-12)


def test_variational_single_step_is_exact():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=1)
    r = price_asian_variational(spec, bond_dim=2, seed=0)
    assert r.price == pytest.approx(ASIAN_N1_CALL, rel=1e-12)


def test_variational_is_lower_bound_everywhere():
    for steps in range(1, 23):
        for scheme in ("crr", "rb"):
            for right in ("call", "put"):
                spec = AsianSpec(steps=steps, scheme=scheme, right=right)
                bf = price_asian_bruteforce(spec).price
                for bond_dim in range(1, 65):
                    price = price_asian_variational(spec, bond_dim=bond_dim).price
                    assert price <= bf * (1.0 + 1e-12), (steps, scheme, right, bond_dim)


@pytest.mark.parametrize("steps", [26, 29, 32, 36])
def test_variational_is_lower_bound_past_the_bruteforce_cap(monkeypatch, steps):
    # The sorted-tail brute force runs to N=36 in under 0.5 s; the cap is
    # raised for this test only.
    monkeypatch.setattr(asian, "BRUTEFORCE_MAX_STEPS", steps)
    for scheme in ("crr", "rb"):
        for right in ("call", "put"):
            spec = AsianSpec(steps=steps, scheme=scheme, right=right)
            bf = price_asian_bruteforce(spec).price
            for bond_dim in (1, 8, 32, 64):
                price = price_asian_variational(spec, bond_dim=bond_dim).price
                assert price <= bf * (1.0 + 1e-12), (steps, scheme, right, bond_dim)


def test_bruteforce_past_its_cap_pins_the_n32_call(monkeypatch):
    monkeypatch.setattr(asian, "BRUTEFORCE_MAX_STEPS", 32)
    price = price_asian_bruteforce(AsianSpec(steps=32)).price
    assert price == pytest.approx(ASIAN_N32_CALL, rel=1e-12)
    assert 13.5862351 <= price <= 13.5862685


def test_variational_put_lower_bound():
    spec = AsianSpec(
        spot=100, strike=110, rate=0.05, vol=0.4, expiry=1.0, steps=10, right="put"
    )
    bf = price_asian_bruteforce(spec).price
    r = price_asian_variational(spec, bond_dim=16, seed=2)
    assert r.price <= bf + 1e-9
    assert r.price > 0


def test_variational_filter_is_binary_valued():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=10)
    r = price_asian_variational(spec, bond_dim=8, seed=1)
    bits = all_bitstrings(10)
    vals = r.mps.evaluate_batch(bits)
    assert set(np.round(vals, 12).tolist()) <= {0.0, 1.0}
    # Reported price must equal the filter contracted against the linear
    # payoff by brute force.
    b = build_exact_payoff_mps(spec)
    direct = math.exp(-spec.rate * spec.expiry) * float(
        np.dot(vals, b.evaluate_batch(bits))
    )
    assert r.price == pytest.approx(direct, rel=1e-11)


@pytest.mark.parametrize("right", ["call", "put"])
@pytest.mark.parametrize("steps, bond_dim", [(1, 1), (12, 5), (32, 32), (64, 32)])
def test_variational_filter_sites_keep_psi_binary(steps, bond_dim, right):
    # Every site but the last is one-hot in each (bit, left-bond) row, and
    # the last is free binary, so psi(x) is 0 or 1 at every path.
    spec = AsianSpec(steps=steps, right=right)
    sites = price_asian_variational(spec, bond_dim=bond_dim).mps.tensors
    for site in sites:
        assert set(np.unique(site)) <= {0.0, 1.0}
        assert site.shape[0] <= bond_dim and site.shape[2] <= bond_dim
    for site in sites[:-1]:
        np.testing.assert_array_equal(site.sum(axis=2), 1.0)


@pytest.mark.parametrize("right", ["call", "put"])
@pytest.mark.parametrize("steps", [2, 20, 32, 64])
def test_variational_filter_contracts_to_its_price(steps, right):
    # The reported MPS certifies the reported price.
    spec = AsianSpec(steps=steps, right=right)
    r = price_asian_variational(spec, bond_dim=32)
    env = filter_environment(r.mps.tensors, build_exact_payoff_mps(spec).tensors)
    disc = math.exp(-spec.rate * spec.expiry)
    assert disc * env[0, 0] == pytest.approx(r.price, rel=1e-12)


def test_variational_report_records_seed_without_sweeps():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=8)
    r = price_asian_variational(spec, bond_dim=4, seed=7)
    assert (r.seed, r.bond_dim, r.n_sweeps, r.diagnostics) == (7, 4, None, {})
    assert "n_sweeps" not in r.to_dict()


def test_variational_deterministic():
    # Nothing is drawn: the seed is recorded and moves no bit of the price.
    spec = AsianSpec(steps=32)
    prices = {price_asian_variational(spec, bond_dim=8, seed=s).price for s in range(5)}
    assert len(prices) == 1


def test_variational_improves_with_bond_dimension():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=14)
    bf = price_asian_bruteforce(spec).price
    best_small = max(
        price_asian_variational(spec, bond_dim=2, seed=s).price for s in range(4)
    )
    best_big = max(
        price_asian_variational(spec, bond_dim=32, seed=s).price for s in range(4)
    )
    assert best_big >= best_small - 1e-12
    assert (bf - best_big) / bf < 0.01


@pytest.mark.parametrize(
    "steps, floor, ceiling",
    [
        # References from ROADMAP's Baseline: the exact N=32 price (sorted
        # tail sums, item 12) and the N=128 two-sided bracket (item 3).
        (32, 0.99 * 13.5862360, 13.5862360),
        (128, 0.96 * 13.30094, 13.30132),
    ],
    ids=["N32", "N128"],
)
def test_variational_bond_32_is_near_the_price(steps, floor, ceiling):
    price = price_asian_variational(AsianSpec(steps=steps), bond_dim=32).price
    assert floor <= price <= ceiling


def test_variational_validation():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=5)
    with pytest.raises(ValueError):
        price_asian_variational(spec, bond_dim=0)
