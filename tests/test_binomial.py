"""Scheme parameters and the reference tree pricer.

Frozen constants below were computed independently with 50-digit
arithmetic (mpmath) and pasted in; the library must hit them at double
precision."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpspricer import (
    SingleAssetSpec,
    crr_params,
    make_scheme_params,
    path_prices,
    path_probability,
    rb_params,
    tree_price,
)

from conftest import black_scholes_price

# crr_params(rate=0.1, vol=0.5, dt=1.0)
CRR_U = 1.6487212707001282
CRR_D = 0.6065306597126334
CRR_P_UP = 0.47845399210662953
# rb_params(rate=0.1, vol=0.5, dt=0.04)
RB_U = 1.104066299558882
RB_D = 0.9039330328858641
# CRR_P_UP**3 * (1 - CRR_P_UP)**2
PATH_PROB_3UP_2DOWN = 0.029792421160745073
# Black-Scholes put, S0=K=100, r=0.1, vol=0.5, T=1
BS_PUT = 14.410486632357301


def test_crr_frozen_values():
    p = crr_params(0.1, 0.5, 1.0)
    assert p.up == pytest.approx(CRR_U, rel=1e-15)
    assert p.down == pytest.approx(CRR_D, rel=1e-15)
    assert p.p_up == pytest.approx(CRR_P_UP, rel=1e-14)
    assert p.scheme == "crr"


def test_crr_up_down_reciprocal():
    p = crr_params(0.03, 0.2, 0.25)
    assert p.up * p.down == pytest.approx(1.0, rel=1e-15)


def test_crr_martingale_step():
    # One risk-neutral step must grow the spot at the risk-free rate.
    p = crr_params(0.07, 0.3, 0.1)
    assert p.p_up * p.up + (1 - p.p_up) * p.down == pytest.approx(
        math.exp(0.07 * 0.1), rel=1e-14
    )


def test_crr_rejects_degenerate_vol():
    with pytest.raises(ValueError, match="degenerate"):
        crr_params(0.1, 0.0, 1.0)
    with pytest.raises(ValueError, match="degenerate"):
        crr_params(0.1, -0.2, 1.0)


def test_crr_rejects_probability_outside_unit_interval():
    # exp(r*dt) above u forces p_up > 1.
    with pytest.raises(ValueError, match="outside"):
        crr_params(2.0, 0.1, 1.0)


def test_rb_frozen_values():
    p = rb_params(0.1, 0.5, 0.04)
    assert p.up == pytest.approx(RB_U, rel=1e-15)
    assert p.down == pytest.approx(RB_D, rel=1e-15)
    assert p.p_up == 0.5


def test_rb_allows_zero_vol():
    p = rb_params(0.1, 0.0, 0.5)
    assert p.up == pytest.approx(math.exp(0.05), rel=1e-15)
    assert p.up == p.down


def test_scheme_dispatch():
    assert make_scheme_params("crr", 0.1, 0.5, 1.0).scheme == "crr"
    assert make_scheme_params("rb", 0.1, 0.5, 1.0).scheme == "rb"
    with pytest.raises(ValueError, match="unknown scheme"):
        make_scheme_params("jr", 0.1, 0.5, 1.0)
    with pytest.raises(ValueError, match="dt"):
        rb_params(0.1, 0.5, 0.0)


def test_spec_validation():
    good = dict(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=4)
    SingleAssetSpec(**good)
    for bad in (
        dict(good, spot=-1),
        dict(good, strike=0),
        dict(good, expiry=0),
        dict(good, steps=0),
        dict(good, right="straddle"),
        dict(good, scheme="trinomial"),
    ):
        with pytest.raises(ValueError):
            SingleAssetSpec(**bad)


def test_tree_price_rejects_unknown_style():
    spec = SingleAssetSpec(spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0, steps=4)
    with pytest.raises(ValueError, match="style"):
        tree_price(spec, style="bermudan")


def test_path_prices_single_path():
    p = crr_params(0.1, 0.5, 1.0)
    prices = path_prices(100.0, p, np.array([1, 0, 1]))
    want = [100 * CRR_U, 100 * CRR_U * CRR_D, 100 * CRR_U * CRR_D * CRR_U]
    np.testing.assert_allclose(prices, want, rtol=1e-14)


def test_path_prices_bitwise_equal_to_where_cumprod():
    """Any nonzero step indicator is an up move, for every input dtype."""
    p = crr_params(0.1, 0.5, 0.05)
    raw = np.random.default_rng(4).integers(-2, 3, size=(257, 20))
    for bits in (raw != 0, (raw != 0).astype(np.uint8), raw.astype(np.uint8), raw):
        want = 100.0 * np.cumprod(np.where(bits != 0, p.up, p.down), axis=-1)
        assert path_prices(100.0, p, bits).tobytes() == want.tobytes()


def test_path_probability_frozen():
    p = crr_params(0.1, 0.5, 1.0)
    prob = path_probability(p, np.array([1, 0, 1, 1, 0]))
    assert prob == pytest.approx(PATH_PROB_3UP_2DOWN, rel=1e-13)


def test_path_probabilities_sum_to_one():
    p = crr_params(0.1, 0.5, 0.2)
    ids = np.arange(2**10, dtype=np.uint64)[:, None]
    bits = ((ids >> np.arange(10, dtype=np.uint64)[None, :]) & 1).astype(int)
    assert path_probability(p, bits).sum() == pytest.approx(1.0, rel=1e-12)


def test_tree_matches_black_scholes_at_large_n():
    spec = SingleAssetSpec(
        spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0,
        steps=2048, right="put", scheme="crr",
    )
    assert abs(tree_price(spec, style="european") - BS_PUT) < 0.01


def test_rb_tree_also_converges():
    spec = SingleAssetSpec(
        spot=100, strike=100, rate=0.1, vol=0.5, expiry=1.0,
        steps=2048, right="put", scheme="rb",
    )
    assert abs(tree_price(spec, style="european") - BS_PUT) < 0.01


def test_put_call_parity_on_tree():
    # The CRR tree reprices the forward exactly, so parity is exact too.
    kw = dict(spot=95.0, strike=105.0, rate=0.06, vol=0.35, expiry=2.0, steps=50)
    call = tree_price(SingleAssetSpec(right="call", **kw))
    put = tree_price(SingleAssetSpec(right="put", **kw))
    forward = 95.0 - 105.0 * math.exp(-0.06 * 2.0)
    assert call - put == pytest.approx(forward, abs=1e-10)


def test_two_step_tree_by_hand():
    spec = SingleAssetSpec(
        spot=100, strike=100, rate=0.1, vol=0.5, expiry=2.0, steps=2,
        right="call", scheme="crr",
    )
    p = crr_params(0.1, 0.5, 1.0)
    disc = math.exp(-0.1)
    pay = [
        max(100 * CRR_D * CRR_D - 100, 0.0),
        max(100 - 100, 0.0),
        max(100 * CRR_U * CRR_U - 100, 0.0),
    ]
    lvl1 = [
        disc * (p.p_up * pay[1] + (1 - p.p_up) * pay[0]),
        disc * (p.p_up * pay[2] + (1 - p.p_up) * pay[1]),
    ]
    want = disc * (p.p_up * lvl1[1] + (1 - p.p_up) * lvl1[0])
    assert tree_price(spec, style="european") == pytest.approx(want, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    spot=st.floats(min_value=50, max_value=150),
    strike=st.floats(min_value=50, max_value=150),
    vol=st.floats(min_value=0.1, max_value=0.8),
    steps=st.integers(min_value=1, max_value=40),
    right=st.sampled_from(["call", "put"]),
)
def test_american_dominates_european(spot, strike, vol, steps, right):
    kw = dict(
        spot=spot, strike=strike, rate=0.05, vol=vol, expiry=1.0,
        steps=steps, right=right, scheme="crr",
    )
    eur = tree_price(SingleAssetSpec(**kw), style="european")
    amer = tree_price(SingleAssetSpec(**kw), style="american")
    intrinsic = max(spot - strike, 0) if right == "call" else max(strike - spot, 0)
    assert eur >= -1e-12
    assert amer >= eur - 1e-10
    assert amer >= intrinsic - 1e-10
