"""Asian pricers: brute force, cross approximation, Monte Carlo."""

import dataclasses
import math

import numpy as np
import pytest

from mpspricer import (
    AsianSpec,
    asian_path_payoff,
    crr_params,
    price_asian_bruteforce,
    price_asian_montecarlo,
    price_asian_ttcross,
)

from conftest import enumerate_asian_price

# mpmath: e^{-r} * (p_u * (S0*u - K) + (1-p_u) * 0) at S0=K=100, r=0.1,
# vol=0.5, T=1, N=1 (down path average 60.65 is out of the money).
ASIAN_N1_CALL = 28.084640724297127


def test_spec_validation():
    good = dict(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=4)
    AsianSpec(**good)
    for bad in (
        dict(good, spot=0),
        dict(good, strike=-5),
        dict(good, steps=0),
        dict(good, expiry=0),
        dict(good, scheme="x"),
        dict(good, right="x"),
    ):
        with pytest.raises(ValueError):
            AsianSpec(**bad)


def test_spec_fields_are_the_pinned_keys():
    # Benchmark pins compare dataclasses.asdict(spec); a new field breaks them.
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=4)
    assert dataclasses.asdict(spec) == dict(
        spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=4,
        scheme="crr", right="call",
    )


def test_path_payoff_by_hand():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=2.0, steps=2)
    p = crr_params(0.1, 0.5, 1.0)
    avg_up_down = (100 * p.up + 100 * p.up * p.down) / 2
    got = asian_path_payoff(spec, np.array([[1, 0]]))
    assert got[0] == pytest.approx(max(avg_up_down - 100, 0.0), rel=1e-14)


def test_bruteforce_single_step_frozen():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=1)
    assert price_asian_bruteforce(spec).price == pytest.approx(
        ASIAN_N1_CALL, rel=1e-13
    )


def test_bruteforce_matches_itertools_oracle():
    for right in ("call", "put"):
        spec = AsianSpec(
            spot=100, strike=95, rate=0.07, vol=0.4, expiry=1.0, steps=11,
            right=right,
        )
        got = price_asian_bruteforce(spec)
        assert got.price == pytest.approx(enumerate_asian_price(spec), rel=1e-12)
        assert got.diagnostics["n_paths"] == 2**11


def test_bruteforce_chunking_crosses_boundary():
    # 2^18 paths forces several 2^16-sized chunks.
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=18)
    r = price_asian_bruteforce(spec)
    assert r.diagnostics["n_paths"] == 2**18
    assert r.price > 0


def test_bruteforce_refuses_beyond_cap():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=26)
    with pytest.raises(ValueError, match="cap"):
        price_asian_bruteforce(spec)


def test_ttcross_close_to_bruteforce():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=14)
    bf = price_asian_bruteforce(spec).price
    # bond 32 truncates the integrand (numerical rank ~45), so only a
    # small residual error is promised; bond 128 covers the full rank
    # and the price must match enumeration to rounding.
    truncated = price_asian_ttcross(spec, bond_dim=32, seed=0)
    assert truncated.price == pytest.approx(bf, rel=1e-3)
    exact = price_asian_ttcross(spec, bond_dim=128, seed=0)
    assert exact.price == pytest.approx(bf, rel=1e-10)
    assert exact.method == "ttcross"
    assert exact.diagnostics["n_evals"] > 0
    assert exact.mps is not None


def test_ttcross_deterministic():
    spec = AsianSpec(spot=100, strike=110, rate=0.05, vol=0.3, expiry=1.0, steps=10)
    a = price_asian_ttcross(spec, bond_dim=8, seed=4)
    b = price_asian_ttcross(spec, bond_dim=8, seed=4)
    assert a.price == b.price


def test_ttcross_price_and_warnings_pinned_bitwise():
    """Exact bits of a cross price whose run hits singular cross matrices."""
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=16)
    report = price_asian_ttcross(spec, bond_dim=16, seed=1)
    assert report.price.hex() == "0x1.bfaee65c602fap+3"
    assert len(report.warnings) == 6


def test_ttcross_put():
    spec = AsianSpec(
        spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=12, right="put"
    )
    bf = price_asian_bruteforce(spec).price
    tt = price_asian_ttcross(spec, bond_dim=32, seed=0)
    assert tt.price == pytest.approx(bf, rel=1e-7)


def test_rb_scheme_prices_too():
    spec = AsianSpec(
        spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=10, scheme="rb"
    )
    bf = price_asian_bruteforce(spec).price
    # bond 32 exceeds the integrand's numerical rank (about 20) at ten
    # steps, so the cross result is exact up to rounding.
    tt = price_asian_ttcross(spec, bond_dim=32, seed=1)
    assert bf == pytest.approx(enumerate_asian_price(spec), rel=1e-12)
    assert tt.price == pytest.approx(bf, rel=1e-10)


def test_montecarlo_reproducible_and_calibrated():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=10)
    bf = price_asian_bruteforce(spec).price
    a = price_asian_montecarlo(spec, 50_000, seed=9)
    b = price_asian_montecarlo(spec, 50_000, seed=9)
    assert a.price == b.price
    assert a.std_error == b.std_error
    assert a.std_error > 0
    # 4 standard errors: a false alarm here is a ~6e-5 event.
    assert abs(a.price - bf) < 4 * a.std_error


def test_montecarlo_sample_counts_above_chunk_size():
    # 200k samples spans two internal chunks; the estimate must still be
    # one coherent mean with a smaller standard error than a short run.
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=5)
    small = price_asian_montecarlo(spec, 1000, seed=3)
    big = price_asian_montecarlo(spec, 200_000, seed=3)
    assert small.n_samples == 1000
    assert big.n_samples == 200_000
    assert big.std_error < small.std_error


def test_montecarlo_rejects_tiny_sample_counts():
    spec = AsianSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=5)
    with pytest.raises(ValueError, match="n_samples"):
        price_asian_montecarlo(spec, 1, seed=0)


def test_call_put_difference_is_discounted_forward():
    # call(x) - put(x) = mean(x) - K pathwise, so the price gap equals the
    # discounted expected average minus strike: (S0/N) sum e^{r i dt} - K.
    kw = dict(spot=100, strike=95, rate=0.08, vol=0.45, expiry=1.0, steps=10)
    call = price_asian_bruteforce(AsianSpec(right="call", **kw)).price
    put = price_asian_bruteforce(AsianSpec(right="put", **kw)).price
    dt = kw["expiry"] / kw["steps"]
    fwd = (kw["spot"] / kw["steps"]) * sum(
        math.exp(kw["rate"] * dt * i) for i in range(1, kw["steps"] + 1)
    ) - kw["strike"]
    assert call - put == pytest.approx(
        math.exp(-kw["rate"] * kw["expiry"]) * fwd, rel=1e-12
    )
