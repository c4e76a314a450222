"""Decoupled basket trees, their MPS backward induction, and the grid oracle."""

import dataclasses
import math
import tracemalloc

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


@pytest.mark.parametrize("style", ["european", "american"])
@pytest.mark.parametrize("m, n, kind", [(1, 300, "min"), (2, 100, "avg")])
def test_bruteforce_bitwise_across_runs(monkeypatch, m, n, kind, style):
    """Runs of 64 values split each late step's axes into parts of rows and groups of rows."""
    runs = []
    real_runs = basket._runs

    def recording(n_rows, row_len):
        for run in real_runs(n_rows, row_len):
            runs.append(run)
            yield run

    monkeypatch.setattr(basket, "_CHUNK", 64)
    monkeypatch.setattr(basket, "_runs", recording)
    spec = uniform_basket_spec(m, steps=n, payoff_kind=kind, style=style)
    assert price_basket_bruteforce(spec).price == tensordot_basket_price(spec)
    assert max((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in runs) <= 64
    assert any(c0 > 0 for _, _, c0, _ in runs)
    if m > 1:
        assert any(r1 - r0 > 1 for r0, r1, _, _ in runs)


def test_bruteforce_peaks_near_one_terminal_grid():
    """m=4/N=31 steps back in its 8 MiB grid; matrix products peaked at 28 MiB."""
    spec = uniform_basket_spec(4, steps=31, payoff_kind="min", style="american")
    tracemalloc.start()
    try:
        got = price_basket_bruteforce(spec).price
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    assert got == tensordot_basket_price(spec)


@pytest.mark.parametrize(
    "m, n, want", [(8, 6, "0x1.36683065f0d40p+5"), (6, 8, "0x1.1fa540d97e3fcp+5")]
)
def test_bruteforce_never_holds_the_terminal_grid(m, n, want):
    """At m=8/N=6 the 44.0 MiB terminal grid peaked at 45.8 MiB; the buffers now take 25.4."""
    spec = uniform_basket_spec(m, steps=n, payoff_kind="min", style="american")
    tracemalloc.start()
    try:
        got = price_basket_bruteforce(spec).price
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == float.fromhex(want)
    if m == 8:
        assert peak <= 28 * 2**20


def _recorded_steps(monkeypatch):
    """Every (n_rows, k, stride) that the dense oracle steps back, in order."""
    steps = []
    real = basket._add_neighbours

    def recording(values, n_rows, k, stride):
        steps.append((n_rows, k, stride))
        real(values, n_rows, k, stride)

    monkeypatch.setattr(basket, "_add_neighbours", recording)
    return steps


@pytest.mark.parametrize("style", ["european", "american"])
@pytest.mark.parametrize("kind", PAYOFF_KINDS)
def test_bruteforce_windows_straddle_grid_blocks(monkeypatch, kind, style):
    """Blocks of 297 values and windows of 3 slabs of 121: neither aligns with the other."""
    monkeypatch.setattr(basket, "_CHUNK", 300)
    monkeypatch.setattr(ttcross, "_CHUNK", 300)
    calls, steps = _recorded_blocks(monkeypatch), _recorded_steps(monkeypatch)
    spec = uniform_basket_spec(3, steps=10, payoff_kind=kind, style=style)
    assert price_basket_bruteforce(spec).price == tensordot_basket_price(spec)
    ends = np.cumsum([len(rows) * len(cols) for rows, cols in calls])
    assert any(ends[ends < 11**3] % 121)
    # Window sums are the axis-0 steps over whole slabs: 2 per full window.
    assert [k for n_rows, k, stride in steps if stride == 121] == [2] * 5


@pytest.mark.parametrize("chunk, windows", [(64, [64] * 4 + [44]), (ttcross._CHUNK, [300])])
def test_bruteforce_steps_one_asset_back_in_windows(monkeypatch, chunk, windows):
    """One value per slab: a window of w slabs is one pass, not w of them."""
    monkeypatch.setattr(basket, "_CHUNK", chunk)
    steps = _recorded_steps(monkeypatch)
    spec = uniform_basket_spec(1, steps=300, style="european")
    assert price_basket_bruteforce(spec).price == tensordot_basket_price(spec)
    assert steps == [(1, k, 1) for k in windows] + [(1, k, 1) for k in range(299, 0, -1)]


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
    assert eu.price.hex() == "0x1.28b831ad3d9bcp+3"
    assert eu.n_sweeps == 0
    am_spec = uniform_basket_spec(3, steps=8, style="american")
    am = price_american_basket(am_spec, bond_dim=8, seed=0)
    assert am.price.hex() == "0x1.c0942cfc8e464p+4"
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
