"""Decoupled basket trees, their MPS backward induction, and the grid oracle."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mpspricer import (
    BasketSpec,
    SingleAssetSpec,
    basket_payoff,
    decouple,
    price_american_basket,
    price_basket_bruteforce,
    price_european_basket,
    rb_params,
    terminal_label_pmf,
    tree_price,
    uniform_basket_spec,
    MPS,
    CrossConfig,
    GridFunction,
    ttcross_approximate,
)
from mpspricer import basket, ttcross
from mpspricer.ttcross import _NO_AXES
from mpspricer.basket import (
    PAYOFF_KINDS, _put, _step_function, outcome_values,
)

from conftest import tensordot_basket_price, walked_grid


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("spots", (100.0, None)),
        ("spots", ([100.0], [100.0])),
        ("vols", (0.5, "0.5")),
        ("corr", ((1.0, None), (None, 1.0))),
        ("corr", (1.0, 0.3)),
    ],
)
def test_spec_names_a_list_that_is_not_of_numbers(field, value):
    good = dict(
        spots=(100.0, 100.0), strike=100.0, rate=0.1, vols=(0.5, 0.5),
        corr=((1.0, 0.3), (0.3, 1.0)), expiry=1.0, steps=4,
    )
    with pytest.raises(ValueError, match=f"{field} must hold only real numbers"):
        BasketSpec(**(good | {field: value}))


def test_uniform_builder():
    spec = uniform_basket_spec(4, rho=0.2, steps=8)
    assert spec.n_assets == 4
    assert spec.corr[0][1] == 0.2
    assert spec.corr[2][2] == 1.0
    assert spec.spots == (100.0,) * 4
    assert {type(c) for row in spec.corr for c in row} == {float}


def test_uniform_builder_names_n_assets():
    with pytest.raises(TypeError, match="n_assets must be an integer, got float 2.5"):
        uniform_basket_spec(2.5)
    with pytest.raises(ValueError, match="n_assets must be >= 1, got 0"):
        uniform_basket_spec(0)


def _steep_cholesky_spec():
    """Two assets whose Cholesky factor has g[1, 0] = 0.72 > g[0, 0] = 0.3.

    The sub-diagonal entry outgrows the diagonal above it, so a solve with
    row pivoting swaps rows where forward substitution would not.
    """
    return BasketSpec(
        spots=(100.0, 90.0),
        strike=95.0,
        rate=0.1,
        vols=(0.3, 0.9),
        corr=((1.0, 0.8), (0.8, 1.0)),
        expiry=1.0,
        steps=6,
    )


@pytest.mark.parametrize(
    "spec",
    [two_asset_spec(), _steep_cholesky_spec()]
    + [uniform_basket_spec(m) for m in range(1, 11)],
    ids=["two-asset", "steep-cholesky"] + [f"uniform-{m}" for m in range(1, 11)],
)
def test_decouple_reproduces_covariance(spec):
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


def test_terminal_pmf_is_the_binomial_pmf():
    """Exact to the last bit up to n = 57, to 1e-15 relative up to n = 63."""
    for n in range(64):
        pmf = terminal_label_pmf(n)
        want = np.array([math.comb(n, j) / 2**n for j in range(n + 1)])
        if n <= 57:
            np.testing.assert_array_equal(pmf, want)
        else:
            np.testing.assert_allclose(pmf, want, rtol=1e-15, atol=0)


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
    # The 7 grid values; the held-out probes are read from the grid.
    assert cross.n_evals == 7
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


def _outer_put(spec, head, tail):
    """The put fold before head-only assets: every asset by an (H, T) outer product."""
    fold = {"min": np.minimum, "max": np.maximum, "avg": np.add}[spec.payoff_kind]
    agg = np.multiply.outer(head[:, 0], tail[:, 0])
    price = np.empty_like(agg)
    for i in range(1, head.shape[1]):
        fold(agg, np.multiply.outer(head[:, i], tail[:, i], out=price), out=agg)
    if spec.payoff_kind == "avg":
        agg /= head.shape[1]
    return np.maximum(np.subtract(spec.strike, agg, out=agg), 0.0, out=agg)


def _outer_block(spec, model, step, rows, cols, continuation, disc):
    """The step-function block with every asset's tail factor, 1.0 or not."""
    yv = outcome_values(model, step)
    m, k = spec.n_assets, rows.shape[1]
    head = np.exp(yv[np.arange(k), rows] @ model.g[:, :k].T)
    tail = np.exp(yv[np.arange(k, m), cols] @ model.g[:, k:].T)
    pay = _outer_put(spec, head, tail)
    if continuation is None:
        return pay
    held = continuation.left_environments(rows) @ continuation.right_environments(cols).T
    return np.maximum(disc * held, pay)


def _continuation(m, step, seed):
    """A positive bond-2 MPS on the step grid."""
    rng = np.random.default_rng(seed)
    bonds = (1,) + (2,) * (m - 1) + (1,)
    return MPS([rng.uniform(0.2, 0.8, size=(bonds[i], step + 1, bonds[i + 1])) for i in range(m)])


def _cut_blocks(m, step, seed):
    """Random (rows, cols) at every cut k = 0..m; a side over no axes has one row."""
    rng = np.random.default_rng(seed)
    for k in range(m + 1):
        rows = rng.integers(0, step + 1, size=(17 if k else 1, k))
        cols = rng.integers(0, step + 1, size=(13 if k < m else 1, m - k))
        yield rows, cols


@pytest.mark.parametrize("held", [False, True], ids=["payoff", "held"])
@pytest.mark.parametrize("kind", PAYOFF_KINDS)
@pytest.mark.parametrize("m", range(1, 9))
def test_step_block_is_bitwise_the_every_asset_fold(m, kind, held):
    """Head-only assets folded once on the head columns change no bit."""
    step = 4
    spec = uniform_basket_spec(m, strike=110.0, steps=step, payoff_kind=kind)
    model = decouple(spec)
    cont = _continuation(m, step, m) if held else None
    # Scale the continuation to the payoff, so the max takes either side.
    disc = 15.0 / float(np.median(cont.evaluate_batch(_all_labels(m, 1)))) if held else 1.0
    f = _step_function(spec, model, step, cont, disc)
    nonzero = 0
    for rows, cols in _cut_blocks(m, step, m):
        got = f.block(rows, cols)
        np.testing.assert_array_equal(
            got, _outer_block(spec, model, step, rows, cols, cont, disc)
        )
        nonzero += np.count_nonzero(got)
    assert nonzero > 0


def test_step_block_takes_no_factor_to_be_triangular(monkeypatch):
    """A dense factor with the same g g^T: blocks still join to their points."""
    spec = BasketSpec(
        spots=(95.0, 100.0, 110.0, 105.0), strike=105.0, rate=0.1,
        vols=(0.5, 0.4, 0.3, 0.45),
        corr=(
            (1.0, 0.25, 0.1, 0.3), (0.25, 1.0, 0.2, 0.1),
            (0.1, 0.2, 1.0, 0.15), (0.3, 0.1, 0.15, 1.0),
        ),
        expiry=1.0, steps=5, payoff_kind="avg", style="european",
    )
    cholesky = decouple(spec)
    rotation, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))
    monkeypatch.setattr(
        basket, "decouple", lambda s: dataclasses.replace(cholesky, g=cholesky.g @ rotation)
    )
    model = basket.decouple(spec)
    assert np.all(model.g != 0)
    np.testing.assert_allclose(model.g @ model.g.T, cholesky.g @ cholesky.g.T, rtol=1e-14)
    for cont in (None, _continuation(4, 5, 0)):
        f = _step_function(spec, model, 5, cont, 30.0)
        for rows, cols in _cut_blocks(4, 5, 1):
            got = f.block(rows, cols)
            joined = ttcross._cross_indices(rows, cols)
            want = f.block(joined, _NO_AXES).reshape(got.shape)
            assert np.count_nonzero(want) > 0
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


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
    grid = walked_grid(basket._step_function(spec, model, 40))
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
    grid = walked_grid(basket._step_function(spec, model, steps))
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


@pytest.mark.parametrize("style", ["european", "american"])
@pytest.mark.parametrize("kind", PAYOFF_KINDS)
@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_bruteforce_equals_tensordot_induction_bitwise(m, n, kind, style):
    spec = uniform_basket_spec(m, steps=n, payoff_kind=kind, style=style)
    assert price_basket_bruteforce(spec).price == tensordot_basket_price(spec)


def _recorded_stages(monkeypatch):
    """Every stage the dense oracle builds, one per step, from the last step back."""
    stages = []

    class Recording(basket._Stage):
        def __init__(self, *args):
            super().__init__(*args)
            stages.append(self)

    monkeypatch.setattr(basket, "_Stage", Recording)
    return stages


def _streamed(monkeypatch, spec, chunk):
    """The dense oracle's price at ``_CHUNK`` = chunk, its stages and its payoff block sizes.

    Every payoff value is made once, in blocks of at most ``chunk``, and
    the price is bitwise the tensordot reference's.
    """
    monkeypatch.setattr(basket, "_CHUNK", chunk)
    monkeypatch.setattr(ttcross, "_CHUNK", chunk)
    stages, calls = _recorded_stages(monkeypatch), _recorded_blocks(monkeypatch)
    price = price_basket_bruteforce(spec).price
    sizes = [len(rows) * len(cols) for rows, cols in calls]
    paid = range(spec.steps + 1) if spec.style == "american" else [spec.steps]
    assert sum(sizes) == sum((k + 1) ** spec.n_assets for k in paid)
    assert max(sizes) <= chunk
    assert price == tensordot_basket_price(spec)
    return stages, sizes


@pytest.mark.parametrize("style", ["european", "american"])
@pytest.mark.parametrize("m, n, kind", [(1, 300, "min"), (2, 100, "avg"), (5, 4, "max")])
def test_bruteforce_bitwise_across_runs(monkeypatch, m, n, kind, style):
    """At 64 values a chunk, slabs of 5^2 values leave m=5 three axes to carry."""
    spec = uniform_basket_spec(m, steps=n, payoff_kind=kind, style=style)
    stages, _ = _streamed(monkeypatch, spec, 64)
    assert max(len(stage.carries) for stage in stages) == {1: 0, 2: 1, 5: 3}[m]


def test_bruteforce_streams_below_one_terminal_grid():
    """m=4/N=31 once stepped back in its 8 MiB terminal grid, peaking at 9.6 MiB; it streams in 5.0."""
    spec = uniform_basket_spec(4, steps=31, payoff_kind="min", style="american")
    tracemalloc.start()
    try:
        got = price_basket_bruteforce(spec).price
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6.3 * 2**20
    assert got == tensordot_basket_price(spec)


@pytest.mark.parametrize(
    "m, n, want",
    [
        (8, 6, "0x1.36683065f0d40p+5"),
        (6, 8, "0x1.1fa540d97e3fbp+5"),
        (8, 7, "0x1.3780a441e21d5p+5"),
    ],
)
def test_bruteforce_never_holds_the_terminal_grid(m, n, want):
    """m=8/N=6's 44.0 MiB terminal grid once peaked at 45.8 MiB and its slab windows at 27.2.

    The stream peaks at 6.1 MiB there, 2.9 at m=6/N=8 and 13.7 at m=8/N=7,
    whose 2^24 values are exactly the cap; the bounds are those plus 25%.
    """
    spec = uniform_basket_spec(m, steps=n, payoff_kind="min", style="american")
    tracemalloc.start()
    try:
        got = price_basket_bruteforce(spec).price
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == float.fromhex(want)
    assert peak <= {(8, 6): 7.6, (6, 8): 3.6, (8, 7): 17.1}[m, n] * 2**20


@pytest.mark.parametrize("style", ["european", "american"])
@pytest.mark.parametrize("kind", PAYOFF_KINDS)
def test_bruteforce_windows_straddle_grid_blocks(monkeypatch, kind, style):
    """Terminal windows of two 121-value slabs straddle the walk's blocks of 297 values.

    At step 6 each payoff block, a slab of 6^3 values, takes six stepped
    pieces of 6^2.
    """
    spec = uniform_basket_spec(3, steps=10, payoff_kind=kind, style=style)
    stages, sizes = _streamed(monkeypatch, spec, 300)
    walk = ttcross.grid_blocks(_step_function(spec, decouple(spec), 10))
    assert sizes[0] == 2 * 11**2 and [b.size for b in walk] == [297] * 4 + [143]
    assert (stages[4].k ** stages[4].n, stages[4].out_size) == (6**2, 6**3)


@pytest.mark.parametrize("chunk, windows", [(64, [64] * 4 + [45]), (ttcross._CHUNK, [301])])
def test_bruteforce_steps_one_asset_back_in_windows(monkeypatch, chunk, windows):
    """One asset: each step is one slab, the whole axis, and one flat add, carrying nothing;
    the terminal window of 301 values comes in blocks of at most _CHUNK."""
    spec = uniform_basket_spec(1, steps=300, style="european")
    stages, sizes = _streamed(monkeypatch, spec, chunk)
    assert sizes == windows
    got = [(s.n, s.slab_size, s.carries) for s in stages]
    assert got == [(1, k + 1, []) for k in range(300, 0, -1)]


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
    """European min m=3/N=64 at bond 1 reads 86.98 against 27.03, converged.

    Its 65^3 grid is above the TT-SVD limit, so it is swept. Its probes
    stopped moving, so only the held-out residual shows it.
    """
    spec = uniform_basket_spec(3, steps=64)
    r = price_european_basket(spec, bond_dim=1, seed=0)
    assert r.n_sweeps > 0
    want = price_basket_bruteforce(spec).price
    off = abs(r.price - want) > 0.01 * want
    assert not off or r.warnings or not r.diagnostics["converged"]
    assert off and r.diagnostics["converged"]
    residual = r.diagnostics["heldout_residual"]
    assert r.warnings == [f"step 64: held-out residual {residual:.3e} exceeds 0.1"]


@pytest.mark.parametrize(
    "m, n, bond, stop, sweeps",
    [(2, 512, 4, "tt-svd", 0), (3, 64, 65, "tt-svd", 0), (3, 64, 64, "tol", 4)],
    ids=["m2-N512-D4", "m3-N64-D65", "m3-N64-D64"],
)
def test_grids_over_2_18_values_take_tt_svd_when_one_superblock_spans_them(
    monkeypatch, m, n, bond, stop, sweeps
):
    """(N+1)^m = 263,169 and 274,625 values, both over the TT-SVD limit.

    Any 2-asset grid is one superblock. The 65^3 grid is one at bond 65,
    so it is compressed from its 274,625 values; at bond 64 no superblock
    spans it, and it is swept.
    """
    crosses = []
    cross = basket.ttcross_approximate
    monkeypatch.setattr(
        basket, "ttcross_approximate", lambda f, cfg: crosses.append(cross(f, cfg)) or crosses[-1]
    )
    spec = uniform_basket_spec(m, steps=n)
    r = price_european_basket(spec, bond_dim=bond, seed=0)
    (c,) = crosses
    assert (n + 1) ** m > ttcross._TT_SVD_MAX
    assert (c.stop_reason, c.n_sweeps_run, r.n_sweeps) == (stop, sweeps, sweeps)
    if stop == "tt-svd":
        assert c.n_evals == r.diagnostics["n_evals"] == (n + 1) ** m
    if m == 3:
        want = price_basket_bruteforce(spec).price
        assert r.price == pytest.approx(want, rel=1e-13, abs=0)


def test_american_two_assets_matches_bruteforce_at_full_rank():
    spec = two_asset_spec(style="american", steps=8)
    bf = price_basket_bruteforce(spec).price
    r = price_american_basket(spec, bond_dim=9, seed=0)
    assert r.price == pytest.approx(bf, rel=1e-9)


@pytest.mark.parametrize("seed, want", [(0, 38.96690131151888), (1, 38.990046181940315)])
def test_american_beyond_dense_cap_pinned(seed, want):
    """American min m=8/N=10: 11^8 grid points, past any dense oracle.

    Steps 4 to 10 are swept and steps 0 to 3, of at most 4^8 grid points,
    are compressed by TT-SVD. That rule moved the sweeping pins by -2.5e-7
    and -7.3e-9 relative, where bonds 16, 24 and 32 spread by 4.0e-4 and
    5.9e-4. No other engine change may move them beyond round-off.
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


# Each bitwise pin prices in a fresh interpreter on one BLAS thread, which
# numpy fixes when it loads: OpenBLAS gives a large Gram product other last
# bits on one thread than on two, so a pin taken in this process would hold
# on some hosts only. Every cross of a case is recorded, step by step.
PINNED_SCRIPT = """
import json

import mpspricer
from mpspricer import basket

crosses = []
real_cross = basket.ttcross_approximate
basket.ttcross_approximate = lambda f, cfg: crosses.append(real_cross(f, cfg)) or crosses[-1]
out = {}
for m, n, payoff, style, bond in (
    (4, 12, "avg", "european", 16),
    (3, 8, "min", "american", 8),
    (6, 10, "min", "european", 8),
    (6, 10, "min", "american", 8),
):
    crosses.clear()
    spec = mpspricer.uniform_basket_spec(m, steps=n, payoff_kind=payoff, style=style)
    report = getattr(mpspricer, f"price_{style}_basket")(spec, bond_dim=bond, seed=0)
    out[f"m{m}.N{n}.{payoff}.{style}.D{bond}"] = {
        "price": report.price.hex(),
        "sweeps": [c.n_sweeps_run for c in crosses],
        "stops": [c.stop_reason for c in crosses],
        "warnings": report.warnings,
        "heldout_residual": report.diagnostics["heldout_residual"],
    }
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def pinned_runs():
    """The pinned cases, priced by :data:`PINNED_SCRIPT` on one BLAS thread."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, "-c", PINNED_SCRIPT], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_cross_prices_pinned_bitwise(pinned_runs):
    """Exact bits of two TT-SVD prices, so engine changes cannot drift them.

    Every grid of both is at most 2^18 values, so none is swept. The Asian
    N=20 pin of test_asian pins a swept price, as does
    test_swept_prices_pinned_bitwise.
    """
    cases = [
        (
            "m4.N12.avg.european.D16",
            uniform_basket_spec(4, steps=12, payoff_kind="avg"),
            "0x1.28b831ad3d9c1p+3",
            [0],
        ),
        (
            "m3.N8.min.american.D8",
            uniform_basket_spec(3, steps=8, style="american"),
            "0x1.c097f1641944dp+4",
            [0] * 9,
        ),
    ]
    for name, spec, bits, sweeps in cases:
        run = pinned_runs[name]
        assert (run["price"], run["sweeps"]) == (bits, sweeps)
        want = price_basket_bruteforce(spec).price
        assert float.fromhex(run["price"]) == pytest.approx(want, rel=1e-4)
        assert 0.0 < run["heldout_residual"] < 0.01


def test_swept_prices_pinned_bitwise(pinned_runs):
    """Exact bits, sweeps, stops and warnings of two swept m=6/N=10 prices.

    Every grid above 2^18 values (9^6 and up: steps 8 to 10) is swept. The
    European cross and the American steps 10 and 8 stop on tol, so their
    last sweep only confirms pivots that no longer move.
    """
    eu = pinned_runs["m6.N10.min.european.D8"]
    assert (eu["price"], eu["sweeps"], eu["stops"], eu["warnings"]) == (
        "0x1.190aa089714a1p+5", [4], ["tol"], []
    )
    am = pinned_runs["m6.N10.min.american.D8"]
    assert am["price"] == "0x1.1f34a081a3b2bp+5"
    assert am["sweeps"] == [4, 3, 4] + [0] * 8
    assert am["stops"] == ["tol", "plateau", "tol"] + ["tt-svd"] * 8
    assert am["warnings"] == ["step 9: probe change plateaued at 6.702e-03"]


@pytest.mark.parametrize("style", ["european", "american"])
def test_worthless_basket_prices_zero_without_warnings(style):
    """An all-zero payoff grid is exact, not a singular cross to warn about."""
    spec = uniform_basket_spec(2, strike=10, steps=5, style=style)
    pricer = price_american_basket if style == "american" else price_european_basket
    report = pricer(spec, bond_dim=4)
    assert report.price == 0.0
    assert report.warnings == []
