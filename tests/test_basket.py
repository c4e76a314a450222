"""Decoupled basket trees, their MPS backward induction, and the grid oracle."""

import math

import numpy as np
import pytest

from mpspricer import (
    BasketSpec,
    SingleAssetSpec,
    basket_payoff,
    conditional_prob_matrix,
    decouple,
    price_american_basket,
    price_basket_bruteforce,
    price_european_basket,
    rb_params,
    terminal_label_pmf,
    tree_price,
    uniform_basket_spec,
    CrossConfig,
    GridFunction,
    ttcross_approximate,
)
from mpspricer import basket, ttcross
from mpspricer.basket import (
    PAYOFF_KINDS, _payoff_grid, _put, _step_function, outcome_values,
)


def two_asset_spec(style="european", steps=6, rho=0.25):
    return BasketSpec(
        spots=(100.0, 110.0),
        strike=105.0,
        rate=0.1,
        vols=(0.5, 0.4),
        corr=((1.0, rho), (rho, 1.0)),
        expiry=1.0,
        steps=steps,
        payoff_kind="min",
        style=style,
    )


def test_spec_validation():
    good = dict(
        spots=(100.0,), strike=100.0, rate=0.1, vols=(0.5,),
        corr=((1.0,),), expiry=1.0, steps=4,
    )
    BasketSpec(**good)
    for bad in (
        dict(good, spots=()),
        dict(good, spots=(100.0, 90.0)),
        dict(good, vols=(-0.5,)),
        dict(good, strike=0.0),
        dict(good, steps=0),
        dict(good, corr=((1.0, 0.5),)),
        dict(good, payoff_kind="median"),
        dict(good, style="bermudan"),
    ):
        with pytest.raises(ValueError):
            BasketSpec(**bad)
    asym = dict(
        good,
        spots=(100.0, 100.0), vols=(0.5, 0.5),
        corr=((1.0, 0.3), (0.2, 1.0)),
    )
    with pytest.raises(ValueError, match="symmetric"):
        BasketSpec(**asym)
    offdiag = dict(
        good,
        spots=(100.0, 100.0), vols=(0.5, 0.5),
        corr=((1.2, 0.3), (0.3, 1.0)),
    )
    with pytest.raises(ValueError, match="diagonal"):
        BasketSpec(**offdiag)


def test_uniform_builder():
    spec = uniform_basket_spec(4, rho=0.2, steps=8)
    assert spec.n_assets == 4
    assert spec.corr[0][1] == 0.2
    assert spec.corr[2][2] == 1.0
    assert spec.spots == (100.0,) * 4


def test_uniform_builder_names_n_assets():
    with pytest.raises(TypeError, match="n_assets must be an integer, got float 2.5"):
        uniform_basket_spec(2.5)
    with pytest.raises(ValueError, match="n_assets must be >= 1, got 0"):
        uniform_basket_spec(0)


def test_decouple_reproduces_covariance():
    spec = two_asset_spec()
    model = decouple(spec)
    vols = np.array(spec.vols)
    cov = np.outer(vols, vols) * np.array(spec.corr)
    np.testing.assert_allclose(model.g @ model.g.T, cov, rtol=1e-12, atol=1e-14)
    assert np.allclose(model.g, np.tril(model.g))
    drift = (model.up + model.down) / (2.0 * spec.dt)
    np.testing.assert_allclose(
        model.g @ drift, spec.rate - 0.5 * vols**2, rtol=1e-12
    )
    np.testing.assert_allclose(
        model.g @ model.y0, np.log(spec.spots), rtol=1e-12
    )
    np.testing.assert_allclose(
        model.up - model.down, 2.0 * math.sqrt(spec.dt), rtol=1e-12
    )


def test_decouple_rejects_indefinite_correlation():
    # The spec itself refuses, so no pricer ever sees it.
    with pytest.raises(ValueError, match="leading minor of order 3 is non-positive"):
        uniform_basket_spec(3, rho=-0.9, steps=4)


def test_conditional_matrix_structure():
    p = conditional_prob_matrix(3)
    want = np.array(
        [
            [0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5],
        ]
    )
    np.testing.assert_array_equal(p, want)
    for k in (1, 4, 9):
        np.testing.assert_allclose(conditional_prob_matrix(k).sum(axis=0), 1.0)
    with pytest.raises(ValueError, match="^step must be >= 1, got 0$"):
        conditional_prob_matrix(0)


def test_conditional_prob_matrix_names_a_non_integer_step():
    with pytest.raises(TypeError, match="^step must be an integer, got float 2.5$"):
        conditional_prob_matrix(2.5)


def test_chained_matrices_give_binomial_pmf():
    for n in (1, 2, 5, 12, 20):
        pmf = terminal_label_pmf(n)
        want = np.array([math.comb(n, y) / 2.0**n for y in range(n + 1)])
        np.testing.assert_allclose(pmf, want, atol=1e-15)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-14)


def test_terminal_pmf_names_n_steps():
    np.testing.assert_array_equal(terminal_label_pmf(0), [1.0])
    with pytest.raises(ValueError, match="n_steps must be >= 0, got -1"):
        terminal_label_pmf(-1)
    with pytest.raises(TypeError, match="n_steps must be an integer"):
        terminal_label_pmf(2.0)


def test_single_asset_grid_is_rb_lattice():
    spec = BasketSpec(
        spots=(100.0,), strike=100.0, rate=0.1, vols=(0.5,), corr=((1.0,),),
        expiry=1.0, steps=5, payoff_kind="min", style="european",
    )
    model = decouple(spec)
    p = rb_params(0.1, 0.5, spec.dt)
    prices = np.exp(model.g[0, 0] * outcome_values(model, 5)[0])
    j = np.arange(6)
    want = 100.0 * p.up**j * p.down ** (5 - j)
    np.testing.assert_allclose(prices, want, rtol=1e-11)


def test_basket_payoff_kinds():
    spec = two_asset_spec()
    model = decouple(spec)
    labels = np.array([[0, 3], [2, 1]])
    y = outcome_values(model, 3)
    prices = np.exp(np.stack([y[0, labels[:, 0]], y[1, labels[:, 1]]], axis=1) @ model.g.T)
    for kind in ("min", "max", "avg"):
        k_spec = BasketSpec(
            spots=spec.spots, strike=spec.strike, rate=spec.rate,
            vols=spec.vols, corr=spec.corr, expiry=spec.expiry,
            steps=spec.steps, payoff_kind=kind, style="european",
        )
        agg = {
            "min": prices.min(axis=1),
            "max": prices.max(axis=1),
            "avg": prices.mean(axis=1),
        }[kind]
        want = np.maximum(spec.strike - agg, 0.0)
        np.testing.assert_allclose(
            basket_payoff(k_spec, model, labels, 3), want, rtol=1e-12
        )


def test_payoff_mps_single_asset_exact():
    spec = BasketSpec(
        spots=(100.0,), strike=100.0, rate=0.1, vols=(0.5,), corr=((1.0,),),
        expiry=1.0, steps=6, payoff_kind="min", style="european",
    )
    model = decouple(spec)
    cross = ttcross_approximate(_step_function(spec, model, 6), CrossConfig(max_bond=4))
    mps = cross.mps
    # The 7 grid values, then the 1024 held-out probes.
    assert cross.n_evals == 7 + 1024
    labels = np.arange(7)[:, None]
    np.testing.assert_array_equal(
        mps.evaluate_batch(labels), basket_payoff(spec, model, labels, 6)
    )


def test_payoff_mps_two_assets_via_cross():
    spec = two_asset_spec(steps=5)
    model = decouple(spec)
    cfg = CrossConfig(max_bond=6, seed=0)
    mps = ttcross_approximate(_step_function(spec, model, 5), cfg).mps
    grid = np.stack(np.meshgrid(np.arange(6), np.arange(6), indexing="ij"), -1)
    labels = grid.reshape(-1, 2)
    np.testing.assert_allclose(
        mps.evaluate_batch(labels),
        basket_payoff(spec, model, labels, 5),
        rtol=1e-9, atol=1e-9,
    )


def _tree_put(style, steps):
    return tree_price(
        SingleAssetSpec(
            spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0,
            steps=steps, right="put", scheme="rb",
        ),
        style=style,
    )


def test_single_asset_european_equals_tree():
    spec = BasketSpec(
        spots=(100.0,), strike=100.0, rate=0.1, vols=(0.5,), corr=((1.0,),),
        expiry=1.0, steps=12, payoff_kind="min", style="european",
    )
    r = price_european_basket(spec, bond_dim=4, seed=0)
    assert r.price == pytest.approx(_tree_put("european", 12), abs=1e-10)


def test_single_asset_american_equals_tree():
    spec = BasketSpec(
        spots=(100.0,), strike=100.0, rate=0.1, vols=(0.5,), corr=((1.0,),),
        expiry=1.0, steps=12, payoff_kind="min", style="american",
    )
    r = price_american_basket(spec, bond_dim=4, seed=0)
    assert r.price == pytest.approx(_tree_put("american", 12), abs=1e-10)


def test_bruteforce_single_asset_matches_tree():
    for style in ("european", "american"):
        spec = BasketSpec(
            spots=(100.0,), strike=100.0, rate=0.1, vols=(0.5,), corr=((1.0,),),
            expiry=1.0, steps=9, payoff_kind="min", style=style,
        )
        r = price_basket_bruteforce(spec)
        assert r.price == pytest.approx(_tree_put(style, 9), abs=1e-11)


def test_bruteforce_european_matches_pmf_contraction():
    spec = two_asset_spec(steps=6)
    model = decouple(spec)
    pmf = terminal_label_pmf(6)
    grid = np.stack(np.meshgrid(np.arange(7), np.arange(7), indexing="ij"), -1)
    labels = grid.reshape(-1, 2)
    pay = basket_payoff(spec, model, labels, 6)
    weights = pmf[labels[:, 0]] * pmf[labels[:, 1]]
    want = math.exp(-spec.rate * spec.expiry) * float(np.dot(weights, pay))
    assert price_basket_bruteforce(spec).price == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind", PAYOFF_KINDS)
@pytest.mark.parametrize("m", range(1, 9))
def test_put_folds_the_assets_as_the_price_cube_does(kind, m):
    """Bitwise, but for numpy's pairwise sum over 8 or more assets."""
    rng = np.random.default_rng(m)
    head = rng.lognormal(math.log(100.0), 0.3, size=(30, m))
    tail = rng.lognormal(0.0, 0.2, size=(20, m))
    cube = head[:, None, :] * tail[None, :, :]
    agg = {"min": cube.min(axis=-1), "max": cube.max(axis=-1), "avg": cube.mean(axis=-1)}[kind]
    want = np.maximum(100.0 - agg, 0.0)
    got = _put(uniform_basket_spec(m, strike=100.0, payoff_kind=kind), head, tail)
    assert got.shape == (30, 20)
    assert np.count_nonzero(want) > 0
    if kind == "avg" and m >= 8:
        assert np.max(np.abs(got - want) / agg) <= 1e-15
    else:
        np.testing.assert_array_equal(got, want)


def _recorded_blocks(monkeypatch):
    """Record every (rows, cols) that a step function's block is asked for."""
    calls = []
    step_function = basket._step_function

    def recording(*args, **kwargs):
        f = step_function(*args, **kwargs)

        def block(rows, cols):
            calls.append((rows, cols))
            return f.block(rows, cols)

        return GridFunction(f.dims, f.evaluate, block)

    monkeypatch.setattr(basket, "_step_function", recording)
    return calls


def _all_labels(m, step):
    return np.indices((step + 1,) * m).reshape(m, -1).T


def test_dense_payoff_grid_across_chunks(monkeypatch):
    """The chunked grid is one whole-grid block, and the payoff to round-off."""
    # 41^3 = 68,921 points: more than one block call.
    spec = BasketSpec(
        spots=(95.0, 100.0, 110.0), strike=105.0, rate=0.1,
        vols=(0.5, 0.4, 0.3),
        corr=((1.0, 0.25, 0.1), (0.25, 1.0, 0.2), (0.1, 0.2, 1.0)),
        expiry=1.0, steps=40, payoff_kind="avg", style="european",
    )
    model = decouple(spec)
    calls = _recorded_blocks(monkeypatch)
    grid = _payoff_grid(spec, model, 40)
    assert len(calls) > 1
    assert max(len(rows) * len(cols) for rows, cols in calls) <= ttcross._CHUNK
    rows = np.concatenate([rows for rows, _ in calls])
    whole = _step_function(spec, model, 40).block(rows, calls[0][1])
    np.testing.assert_array_equal(grid.reshape(whole.shape), whole)
    want = basket_payoff(spec, model, _all_labels(3, 40), 40)
    assert np.max(np.abs(grid.reshape(-1) - want)) <= 1e-13 * np.max(want)


@pytest.mark.parametrize(
    "m, steps, row_axes, col_axes", [(2, 5, 0, 2), (1, 300, 1, 0)],
    ids=["no-leading-axes", "no-trailing-axes"],
)
def test_dense_payoff_grid_with_no_axes_on_one_side(monkeypatch, m, steps, row_axes, col_axes):
    spec = two_asset_spec(steps=steps) if m == 2 else uniform_basket_spec(1, steps=steps)
    model = decouple(spec)
    calls = _recorded_blocks(monkeypatch)
    grid = _payoff_grid(spec, model, steps)
    assert {(rows.shape[1], cols.shape[1]) for rows, cols in calls} == {(row_axes, col_axes)}
    assert grid.shape == (steps + 1,) * m
    want = basket_payoff(spec, model, _all_labels(m, steps), steps)
    assert np.max(np.abs(grid.reshape(-1) - want)) <= 1e-13 * np.max(want)


@pytest.mark.parametrize(
    "m, n, want", [(8, 6, 38.80087356225202), (6, 8, 35.95569009701281)]
)
def test_bruteforce_american_min_pinned(monkeypatch, m, n, want):
    """Every grid of these oracles takes more than one bounded block call."""
    calls = _recorded_blocks(monkeypatch)
    spec = uniform_basket_spec(m, steps=n, payoff_kind="min", style="american")
    assert price_basket_bruteforce(spec).price == pytest.approx(want, rel=1e-12, abs=0)
    assert max(len(rows) * len(cols) for rows, cols in calls) <= ttcross._CHUNK
    grids = [(len(rows), len(cols)) for rows, cols in calls]
    assert sum(r * c for r, c in grids) == sum((k + 1) ** m for k in range(n + 1))
    assert len(calls) > n + 1


def test_bruteforce_refuses_huge_grids():
    spec = uniform_basket_spec(9, steps=10, style="european")
    with pytest.raises(ValueError, match="cap"):
        price_basket_bruteforce(spec)


def test_european_two_assets_matches_bruteforce():
    spec = two_asset_spec(steps=8)
    bf = price_basket_bruteforce(spec).price
    r = price_european_basket(spec, bond_dim=9, seed=0)
    assert r.price == pytest.approx(bf, rel=1e-9)
    assert r.mps is not None


@pytest.mark.parametrize("m,n", [(2, 8), (3, 6), (4, 5), (5, 4)])
def test_european_price_is_one_pmf_contraction(monkeypatch, m, n):
    """The price contracts the reported expiry MPS with the label pmf, once."""
    calls = []
    apply = basket.MPS.apply_site_matrices

    def counted(self, mats):
        calls.append(len(mats))
        return apply(self, mats)

    monkeypatch.setattr(basket.MPS, "apply_site_matrices", counted)
    spec = uniform_basket_spec(m, steps=n, payoff_kind="avg")
    r = price_european_basket(spec, bond_dim=64, seed=0)
    assert calls == [m]
    weights = [terminal_label_pmf(n)[None, :]] * m
    contracted = r.mps.apply_site_matrices(weights).sum_all()
    assert r.price == math.exp(-spec.rate * spec.expiry) * contracted
    assert r.price == pytest.approx(price_basket_bruteforce(spec).price, rel=1e-9)
    assert set(r.diagnostics) == {"n_evals", "converged", "heldout_residual"}


def test_price_far_from_bruteforce_is_flagged():
    """European min m=3/N=6 at bond 1 reads 55.99 against 27.03, converged.

    Its probes stopped moving, so only the held-out residual shows it.
    """
    spec = uniform_basket_spec(3, steps=6)
    r = price_european_basket(spec, bond_dim=1, seed=0)
    want = price_basket_bruteforce(spec).price
    off = abs(r.price - want) > 0.01 * want
    assert not off or r.warnings or not r.diagnostics["converged"]
    assert off and r.diagnostics["converged"]
    residual = r.diagnostics["heldout_residual"]
    assert r.warnings == [f"step 6: held-out residual {residual:.3e} exceeds 0.1"]


def test_american_two_assets_matches_bruteforce_at_full_rank():
    spec = two_asset_spec(style="american", steps=8)
    bf = price_basket_bruteforce(spec).price
    r = price_american_basket(spec, bond_dim=9, seed=0)
    assert r.price == pytest.approx(bf, rel=1e-9)


@pytest.mark.parametrize("seed, want", [(0, 38.96691089109196), (1, 38.99004646467652)])
def test_american_beyond_dense_cap_pinned(seed, want):
    """American min m=8/N=10: 11^8 grid points, past any dense oracle.

    The prices are those of the pointwise cross with a grid memo; blocks
    built from per-side factors must not move them beyond round-off.
    """
    spec = uniform_basket_spec(8, steps=10, style="american")
    r = price_american_basket(spec, bond_dim=16, seed=seed)
    assert r.price == pytest.approx(want, rel=1e-9)


def test_american_exceeds_european():
    spec_e = two_asset_spec(style="european", steps=8)
    spec_a = two_asset_spec(style="american", steps=8)
    eu = price_basket_bruteforce(spec_e).price
    am = price_basket_bruteforce(spec_a).price
    assert am >= eu - 1e-12


def test_three_assets_heterogeneous_close_to_bruteforce():
    spec = BasketSpec(
        spots=(95.0, 105.0, 120.0),
        strike=110.0,
        rate=0.05,
        vols=(0.3, 0.5, 0.4),
        corr=(
            (1.0, 0.2, 0.1),
            (0.2, 1.0, 0.3),
            (0.1, 0.3, 1.0),
        ),
        expiry=1.0,
        steps=7,
        payoff_kind="avg",
        style="american",
    )
    bf = price_basket_bruteforce(spec).price
    r = price_american_basket(spec, bond_dim=8, seed=0)
    assert r.price == pytest.approx(bf, rel=1e-8)


def test_style_mismatch_rejected():
    spec = two_asset_spec(style="american")
    with pytest.raises(ValueError, match="style"):
        price_european_basket(spec, bond_dim=4)
    with pytest.raises(ValueError, match="style"):
        price_american_basket(two_asset_spec(style="european"), bond_dim=4)


@pytest.mark.parametrize("style", ["european", "american"])
def test_negative_seed_rejected_before_any_cross(monkeypatch, style):
    calls = []
    monkeypatch.setattr(basket, "ttcross_approximate", lambda *args: calls.append(args))
    pricer = price_european_basket if style == "european" else price_american_basket
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        pricer(two_asset_spec(style=style), bond_dim=4, seed=-1)
    assert calls == []


def test_european_deterministic():
    spec = two_asset_spec(steps=7)
    a = price_european_basket(spec, bond_dim=5, seed=3)
    b = price_european_basket(spec, bond_dim=5, seed=3)
    assert a.price == b.price


def test_cross_prices_pinned_bitwise():
    """Exact bits of two cross prices, so engine changes cannot drift them.

    The European grid is small enough for TT-SVD; the American one is
    crossed at expiry and compressed by TT-SVD at every earlier step.
    """
    eu_spec = uniform_basket_spec(4, steps=12, payoff_kind="avg")
    eu = price_european_basket(eu_spec, bond_dim=16, seed=0)
    assert eu.price.hex() == "0x1.28b831ad3d9bap+3"
    assert eu.n_sweeps == 0
    am_spec = uniform_basket_spec(3, steps=8, style="american")
    am = price_american_basket(am_spec, bond_dim=8, seed=0)
    assert am.price.hex() == "0x1.c0942cfc8e474p+4"
    # Only the expiry grid is crossed; every other step is TT-SVD.
    assert am.n_sweeps == 3
    for report, spec in [(eu, eu_spec), (am, am_spec)]:
        want = price_basket_bruteforce(spec).price
        assert report.price == pytest.approx(want, rel=1e-4)
        assert 0.0 < report.diagnostics["heldout_residual"] < 0.01


@pytest.mark.parametrize("style", ["european", "american"])
def test_worthless_basket_prices_zero_without_warnings(style):
    """An all-zero payoff grid is exact, not a singular cross to warn about."""
    spec = uniform_basket_spec(2, strike=10, steps=5, style=style)
    pricer = price_american_basket if style == "american" else price_european_basket
    report = pricer(spec, bond_dim=4)
    assert report.price == 0.0
    assert report.warnings == []
