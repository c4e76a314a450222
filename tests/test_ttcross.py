"""Cross approximation: maxvol row selection and full sweeps."""

import re

import numpy as np
import pytest

from mpspricer import (
    MPS,
    AsianSpec,
    CrossConfig,
    GridFunction,
    asian_integrand,
    build_exact_payoff_mps,
    decouple,
    price_american_basket,
    price_asian_ttcross,
    price_asian_variational,
    price_european_basket,
    ttcross_approximate,
    uniform_basket_spec,
)
from mpspricer import asian, basket, ttcross
from mpspricer.ttcross import _CHUNK, _NO_AXES, _cross_indices, _maxvol_iter, grid_blocks

from conftest import all_bitstrings, mps_dense, mps_grid_function, path_integrands, walked_grid


def test_maxvol_square_is_identity_selection():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4))
    rows, coeffs, converged = _maxvol_iter(m)
    np.testing.assert_array_equal(np.sort(rows), np.arange(4))
    np.testing.assert_array_equal(coeffs, np.eye(4))
    assert converged


def test_maxvol_dominance_property():
    rng = np.random.default_rng(1)
    for trial in range(5):
        m = rng.normal(size=(60, 7))
        rows, coeffs, converged = _maxvol_iter(m)
        assert converged
        assert len(set(rows.tolist())) == 7
        b = m @ np.linalg.inv(m[rows])
        assert np.max(np.abs(b)) <= 1.01 + 1e-9
        np.testing.assert_allclose(coeffs, b, atol=1e-9)


@pytest.mark.usefixtures("swept")
def test_maxvol_iteration_cap_warns(monkeypatch):
    """With no swaps allowed, the cross reports each capped maxvol."""
    monkeypatch.setattr(ttcross, "_MAXVOL_ITERS", 0)
    report = price_asian_ttcross(AsianSpec(steps=14), bond_dim=4)
    # Every non-square pivot basis of the 3 sweeps, then the stop note.
    *capped, stop = report.warnings
    assert len(capped) == 56
    assert all(re.fullmatch(r"maxvol hit iteration cap at bond \d+", w) for w in capped)
    assert stop.startswith("probe change plateaued")


def test_config_validation():
    with pytest.raises(ValueError):
        CrossConfig(max_bond=0)


@pytest.mark.parametrize(
    "price, kwargs, match",
    [
        (price_asian_ttcross, {"bond_dim": 8.5}, "max_bond must be an integer, got float 8.5"),
        (price_asian_ttcross, {"seed": 1.5}, "seed must be an integer, got float 1.5"),
        (price_asian_ttcross, {"bond_dim": True}, "max_bond must be an integer, got bool True"),
        (price_asian_variational, {"bond_dim": 4.5}, "bond_dim must be an integer"),
        (price_asian_variational, {"seed": 1.5}, "seed must be an integer"),
        (price_european_basket, {"bond_dim": 4.5}, "max_bond must be an integer"),
    ],
    ids=["ttcross-bond", "ttcross-seed", "ttcross-bool", "var-bond", "var-seed", "basket-bond"],
)
def test_integer_knobs_reject_non_integers(price, kwargs, match):
    # Each of these once failed deep in the run with a numpy or range error.
    spec = (
        uniform_basket_spec(2, steps=4)
        if price is price_european_basket
        else AsianSpec(spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0, steps=8)
    )
    with pytest.raises(TypeError, match=match):
        price(spec, **kwargs)


def test_single_axis_is_exact():
    vals = np.array([3.0, -1.0, 4.0, 1.0, -5.0])
    f = GridFunction(dims=(5,), evaluate=lambda idx: vals[idx[:, 0]])
    res = ttcross_approximate(f, CrossConfig(max_bond=3, seed=0))
    assert res.converged
    assert res.n_sweeps_run == 0
    np.testing.assert_allclose(mps_dense(res.mps), vals)


@pytest.mark.usefixtures("swept")
def test_rank_one_product_recovered_at_bond_one():
    weights = [np.array([1.0, 0.3, -0.7, 2.0]) + k for k in range(5)]

    def f(idx):
        out = np.ones(idx.shape[0])
        for k in range(5):
            out *= weights[k][idx[:, k]]
        return out

    res = ttcross_approximate(
        GridFunction(dims=(4,) * 5, evaluate=f),
        CrossConfig(max_bond=1, seed=2),
    )
    dense = mps_dense(res.mps)
    grid = np.stack(
        np.meshgrid(*[np.arange(4)] * 5, indexing="ij"), axis=-1
    ).reshape(-1, 5)
    np.testing.assert_allclose(dense.reshape(-1), f(grid), rtol=1e-10)


@pytest.mark.usefixtures("swept")
def test_hidden_rank_two_integrand_recovered():
    """The unfloored Asian integrand has exact bond dimension 2."""
    spec = AsianSpec(
        spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0, steps=14
    )
    exact = build_exact_payoff_mps(spec)
    res = ttcross_approximate(
        mps_grid_function(exact),
        CrossConfig(max_bond=2, seed=3),
    )
    idx = all_bitstrings(14)
    want = exact.evaluate_batch(idx)
    got = res.mps.evaluate_batch(idx)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) / scale < 1e-10
    assert res.mps.max_bond == 2


@pytest.mark.usefixtures("swept")
def test_interpolation_at_retained_pivots():
    """Bounded interpolation cores, and exact values at the last pivots.

    Under truncation the MPS need not match f at every (I_k, J_k) cross;
    it does at every (last-bond left pivot, x), bit for bit the values the
    run computes there (the Asian integrand's from its block). The Asian
    case is one whose cores, solved against raw cross matrices, were singular.
    """
    hidden = np.random.default_rng(7).normal(size=(3, 4, 3, 4))
    spec = AsianSpec(spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0, steps=16)
    cases = [
        (
            GridFunction(dims=hidden.shape, evaluate=lambda idx: hidden[tuple(idx.T)]),
            CrossConfig(max_bond=3, seed=5),
        ),
        (asian_integrand(spec), CrossConfig(max_bond=16, seed=1)),
    ]
    for f, cfg in cases:
        res = ttcross_approximate(f, cfg)
        assert not any("maxvol" in w for w in res.warnings)
        for core in res.mps.tensors[:-1]:
            assert np.max(np.abs(core)) <= 1.01
        n = len(f.dims)
        assert len(res.left_pivots) == len(res.right_pivots) == n - 1
        assert all(res.left_pivots) and all(res.right_pivots)
        lefts = np.array(res.left_pivots[-1])
        last = np.arange(f.dims[-1])[:, None]
        want = ttcross._CrossRun(f, cfg)._eval(lefts, last).ravel()
        got = res.mps.evaluate_batch(_cross_indices(lefts, last))
        np.testing.assert_array_equal(got, want)


@pytest.mark.usefixtures("swept")
def test_deterministic_given_seed():
    spec = AsianSpec(
        spot=100.0, strike=90.0, rate=0.05, vol=0.4, expiry=1.0, steps=10
    )
    f = mps_grid_function(build_exact_payoff_mps(spec))
    cfg = CrossConfig(max_bond=4, seed=11)
    a = ttcross_approximate(f, cfg)
    b = ttcross_approximate(f, cfg)
    assert a.n_evals == b.n_evals
    for ta, tb in zip(a.mps.tensors, b.mps.tensors):
        np.testing.assert_array_equal(ta, tb)


@pytest.mark.usefixtures("swept")
def test_monotone_bond_budget():
    """Doubling the budget never hurts on the rank-2 family (median view)."""
    spec = AsianSpec(
        spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0, steps=12
    )
    exact = build_exact_payoff_mps(spec)
    f = mps_grid_function(exact)
    probes = np.random.default_rng(0).integers(0, 2, size=(1000, 12))
    want = exact.evaluate_batch(probes)
    scale = np.max(np.abs(want))

    def median_err(bond):
        errs = []
        for seed in range(20):
            cfg = CrossConfig(max_bond=bond, seed=seed)
            mps = ttcross_approximate(f, cfg).mps
            errs.append(np.max(np.abs(mps.evaluate_batch(probes) - want)) / scale)
        return float(np.median(errs))

    assert median_err(2) <= median_err(1) + 1e-12


@pytest.mark.usefixtures("swept")
def test_sweep_cap_flagged(monkeypatch):
    monkeypatch.setattr(ttcross, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(13)
    hidden = rng.normal(size=(2,) * 8)

    def f(idx):
        return hidden[tuple(idx.T)]

    res = ttcross_approximate(
        GridFunction(dims=(2,) * 8, evaluate=f),
        CrossConfig(max_bond=2, seed=0),
    )
    assert not res.converged
    assert any("sweep cap" in w for w in res.warnings)
    assert res.n_sweeps_run == 1
    assert (res.stop_reason, res.probe_changes) == ("cap", [])


@pytest.mark.usefixtures("swept")
def test_stops_when_probe_changes_stop_halving(monkeypatch):
    """A truncated Asian integrand settles above tol; the run stops, flagged."""
    monkeypatch.setattr(ttcross, "_MAX_SWEEPS", 20)
    spec = AsianSpec(
        spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0, steps=12
    )
    res = ttcross_approximate(
        asian_integrand(spec), CrossConfig(max_bond=4, seed=0)
    )
    changes = res.probe_changes
    assert (res.stop_reason, res.converged) == ("plateau", False)
    assert len(changes) == res.n_sweeps_run - 1 < 19
    assert all(b <= 0.5 * a for a, b in zip(changes[:-2], changes[1:-1]))
    assert changes[-1] > 0.5 * changes[-2]
    assert res.warnings == [f"probe change plateaued at {changes[-1]:.3e}"]


@pytest.mark.usefixtures("swept")
def test_exact_rank_converges_on_tol():
    weights = np.random.default_rng(3).normal(size=10)
    res = ttcross_approximate(
        GridFunction(dims=(2,) * 10, evaluate=lambda idx: 1.0 + idx @ weights),
        CrossConfig(max_bond=2, seed=0),
    )
    assert (res.stop_reason, res.converged, res.warnings) == ("tol", True, [])
    assert res.probe_changes[-1] <= 1e-10
    assert res.heldout_residual < 1e-12


@pytest.mark.usefixtures("swept")
def test_heldout_residual_is_relative_max_error_off_the_stopping_probes():
    """1024 held-out draws over 64 points hit the worst one: a global residual."""
    hidden = np.random.default_rng(2).normal(size=(2,) * 6)
    f = GridFunction(dims=(2,) * 6, evaluate=lambda idx: hidden[tuple(idx.T)])
    res = ttcross_approximate(f, CrossConfig(max_bond=2, seed=0))
    err = np.abs(mps_dense(res.mps) - hidden)
    assert res.heldout_residual == pytest.approx(
        err.max() / np.abs(hidden).max(), rel=1e-12
    )
    assert res.heldout_residual > 0.0
    # Every value computed counts, the 1024 held-out probes included.
    assert res.n_evals == 80 + 1024


@pytest.mark.usefixtures("swept")
def test_mixed_axis_sizes():
    def f(idx):
        return (1.0 + idx[:, 0]) * np.cos(idx[:, 1]) + 0.5 * idx[:, 2]

    res = ttcross_approximate(
        GridFunction(dims=(4, 6, 5), evaluate=f),
        CrossConfig(max_bond=4, seed=1),
    )
    grid = np.stack(
        np.meshgrid(np.arange(4), np.arange(6), np.arange(5), indexing="ij"),
        axis=-1,
    ).reshape(-1, 3)
    np.testing.assert_allclose(
        res.mps.evaluate_batch(grid), f(grid), rtol=1e-9, atol=1e-9
    )


@pytest.mark.usefixtures("swept")
def test_eval_counting_and_batch_cap(monkeypatch):
    calls = []

    def f(idx):
        calls.append(idx.shape[0])
        return np.ones(idx.shape[0])

    monkeypatch.setattr(ttcross, "_CHUNK", 16)
    monkeypatch.setattr(ttcross, "_MAX_SWEEPS", 1)
    cfg = CrossConfig(max_bond=2, seed=0)
    res = ttcross_approximate(GridFunction(dims=(2,) * 6, evaluate=f), cfg)
    assert max(calls) <= 16
    assert res.n_evals == sum(calls)


def test_rejects_bad_dims():
    f = GridFunction(dims=(), evaluate=lambda idx: np.ones(idx.shape[0]))
    with pytest.raises(ValueError):
        ttcross_approximate(f, CrossConfig(max_bond=2))
    g = GridFunction(dims=(2, 0), evaluate=lambda idx: np.ones(idx.shape[0]))
    with pytest.raises(ValueError):
        ttcross_approximate(g, CrossConfig(max_bond=2))


@pytest.mark.usefixtures("swept")
def test_n_evals_counts_every_value_computed():
    """A point asked for twice is computed and counted twice, block or not."""
    seen = []

    def f(idx):
        seen.extend(map(tuple, idx.tolist()))
        return np.cos(idx @ np.arange(1.0, 7.0))

    dims = (3, 4, 2, 5, 3, 2)
    cfg = CrossConfig(max_bond=4, seed=0)
    res = ttcross_approximate(GridFunction(dims=dims, evaluate=f), cfg)
    assert res.n_evals == len(seen) == 1536
    assert len(set(seen)) < len(seen)
    blocks = []

    def block(rows, cols):
        blocks.append(rows.shape[0] * cols.shape[0])
        return f(_cross_indices(rows, cols)).reshape(rows.shape[0], -1)

    res_block = ttcross_approximate(GridFunction(dims, _raises, block), cfg)
    assert res_block.n_evals == sum(blocks) == 1536


def test_grid_beyond_uint64_positions():
    """2^70 points, more than one uint64 can number: no point is ever numbered."""
    weights = np.random.default_rng(4).normal(size=70)

    def f(idx):
        return 1.0 + idx @ weights

    res = ttcross_approximate(
        GridFunction(dims=(2,) * 70, evaluate=f),
        CrossConfig(max_bond=2, seed=0),
    )
    rows = np.random.default_rng(5).integers(0, 2, size=(200, 70))
    np.testing.assert_allclose(res.mps.evaluate_batch(rows), f(rows), rtol=1e-10)


def test_grid_of_exactly_2_64_points():
    """The largest grid whose positions one uint64 can number."""
    weights = np.random.default_rng(6).normal(size=64)

    def f(idx):
        return 1.0 + idx @ weights

    res = ttcross_approximate(
        GridFunction(dims=(2,) * 64, evaluate=f),
        CrossConfig(max_bond=2, seed=0),
    )
    rows = np.random.default_rng(7).integers(0, 2, size=(200, 64))
    np.testing.assert_allclose(res.mps.evaluate_batch(rows), f(rows), rtol=1e-10)


def test_grid_one_superblock_spans_is_tt_svd():
    """A 6x6 grid at bond 2 is its best rank-2 approximation, unswept."""
    hidden = np.random.default_rng(8).normal(size=(6, 6))
    res = ttcross_approximate(
        GridFunction(dims=(6, 6), evaluate=lambda idx: hidden[tuple(idx.T)]),
        CrossConfig(max_bond=2, seed=0),
    )
    u, s, vh = np.linalg.svd(hidden)
    np.testing.assert_allclose(
        mps_dense(res.mps), (u[:, :2] * s[:2]) @ vh[:2], rtol=1e-12, atol=1e-12
    )
    # The 36 grid values; the held-out probes are read from the grid.
    assert (res.n_evals, res.n_sweeps_run, res.converged) == (36, 0, True)
    assert res.left_pivots == res.right_pivots == []
    assert (res.stop_reason, res.probe_changes) == ("tt-svd", [])


def _product(dims):
    """The rank-1 grid prod_k (1 + x_k / 8), its block one factor per row and column."""

    def factor(idx):
        return np.prod(1.0 + idx / 8.0, axis=1)

    return GridFunction(dims, factor, lambda rows, cols: np.outer(factor(rows), factor(cols)))


@pytest.mark.parametrize(
    "dims, stop", [((2,) * 18, "tt-svd"), ((3,) + (2,) * 17, "tol")], ids=["2^18", "3x2^17"]
)
def test_tt_svd_takes_every_grid_up_to_2_18_values(dims, stop):
    """No bond-2 superblock spans either grid; only the one over the limit sweeps."""
    assert ttcross._TT_SVD_MAX == 2**18
    res = ttcross_approximate(_product(dims), CrossConfig(max_bond=2, seed=0))
    assert (res.stop_reason, res.n_sweeps_run > 0) == (stop, stop != "tt-svd")
    assert res.heldout_residual < 1e-12


def _count_factorizations(monkeypatch):
    """Record every superblock request: its key and the factorizations it cost.

    A factorization is one call of the superblock factor, whether it takes
    the Gram eigendecomposition or the SVD.
    """
    factored = []
    real_factor = ttcross._CrossRun._factor
    monkeypatch.setattr(
        ttcross._CrossRun,
        "_factor",
        lambda run, block: factored.append(1) or real_factor(run, block),
    )
    calls = []
    real_superblock = ttcross._CrossRun._superblock

    def superblock(run, p):
        key = (p, run.iset[p].tobytes(), run.jset[p + 2].tobytes())
        before = len(factored)
        out = real_superblock(run, p)
        calls.append((key, len(factored) - before))
        return out

    monkeypatch.setattr(ttcross._CrossRun, "_superblock", superblock)
    return calls, factored


def _sweeps(calls, n_axes):
    """Superblock calls split into the first l2r sweep, then r2l + l2r pairs."""
    m = n_axes - 1
    return [calls[:m]] + [calls[i : i + 2 * m] for i in range(m, len(calls), 2 * m)]


@pytest.mark.usefixtures("swept")
def test_confirming_sweep_factors_nothing(monkeypatch):
    """An exact-rank run stops on tol once the MPS repeats, at no factoring cost.

    The tol is one only a repeated MPS meets, so the last sweep is purely
    a confirmation; every superblock in it was factored before.
    """
    calls, factored = _count_factorizations(monkeypatch)
    monkeypatch.setattr(ttcross, "_TOL", 1e-300)
    res = _linear_cross()
    assert (res.stop_reason, res.n_sweeps_run, res.probe_changes[-1]) == ("tol", 3, 0.0)
    sweeps = _sweeps(calls, 10)
    assert [sum(cost for _, cost in s) for s in sweeps] == [9, 8, 0]
    assert len(factored) == len({key for key, _ in calls}) == 17


def _linear_cross():
    """A bond-2 cross of an exact-rank-2 linear function on 2^10 points."""
    weights = np.random.default_rng(3).normal(size=10)
    return ttcross_approximate(
        GridFunction(dims=(2,) * 10, evaluate=lambda idx: 1.0 + idx @ weights),
        CrossConfig(max_bond=2, seed=0),
    )


@pytest.mark.usefixtures("swept")
def test_capped_maxvol_warns_on_every_use(monkeypatch):
    """Each pivot request runs maxvol once, and each capped maxvol warns.

    With no swaps allowed, every non-square basis is capped. The run asks
    for 45 pivot sets, 5 of them square, runs maxvol on each and gives the
    40 warnings of the capped ones.
    """
    requests, maxvols = [], []
    real_maxvol = ttcross._maxvol_iter
    monkeypatch.setattr(
        ttcross, "_maxvol_iter", lambda mat: maxvols.append(1) or real_maxvol(mat)
    )
    real_pivots = ttcross._CrossRun._pivots
    monkeypatch.setattr(
        ttcross._CrossRun,
        "_pivots",
        lambda run, p, side: requests.append(1) or real_pivots(run, p, side),
    )
    monkeypatch.setattr(ttcross, "_MAXVOL_ITERS", 0)
    monkeypatch.setattr(ttcross, "_TOL", 1e-300)
    res = _linear_cross()
    assert (res.stop_reason, len(requests), len(maxvols)) == ("tol", 45, 45)
    assert len(res.warnings) == 40
    assert all(re.fullmatch(r"maxvol hit iteration cap at bond \d", w) for w in res.warnings)


def _hidden_grid(shape, seed):
    hidden = np.random.default_rng(seed).normal(size=shape)
    return GridFunction(dims=shape, evaluate=lambda idx: hidden[tuple(idx.T)])


@pytest.mark.usefixtures("swept")
@pytest.mark.parametrize(
    "f, cfg",
    [
        (_hidden_grid((3, 4, 3, 4), 7), CrossConfig(max_bond=3, seed=5)),
        (
            asian_integrand(
                AsianSpec(spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0, steps=12)
            ),
            CrossConfig(max_bond=4, seed=0),
        ),
    ],
    ids=["hidden-3x4x3x4", "asian-N12"],
)
def test_each_distinct_superblock_factored_once(monkeypatch, f, cfg):
    """Factorizations equal distinct (p, I_p, J_p+2) superblocks; turnarounds reuse."""
    calls, factored = _count_factorizations(monkeypatch)
    res = ttcross_approximate(f, cfg)
    assert res.n_sweeps_run > 1
    assert len(factored) == len({key for key, _ in calls}) < len(calls)
    n = len(f.dims)
    for r2l_l2r in _sweeps(calls, n)[1:]:
        # The r2l sweep starts at the l2r sweep's last superblock, and the
        # next l2r sweep at the r2l sweep's last.
        assert r2l_l2r[0][0][0] == n - 2 and r2l_l2r[0][1] == 0
        assert r2l_l2r[n - 1][0][0] == 0 and r2l_l2r[n - 1][1] == 0


@pytest.mark.usefixtures("swept")
def test_moved_pivots_refactor_their_superblocks(monkeypatch):
    """A superblock is factored again once I_p or J_p+2 changes, order alone too.

    I_k is read by superblock k and J_k by superblock k-2. A reversed I_k
    that the next l2r sweep puts back in order must not reuse the factors
    of the reversed rows, or core k would not match core k-1's pivots.
    """
    f = _hidden_grid((3, 4, 3, 4, 3), 9)
    run = ttcross._CrossRun(f, CrossConfig(max_bond=3, seed=1))
    run.run()
    calls, factored = _count_factorizations(monkeypatch)
    k = 2
    run._superblock(k)
    assert factored == []
    for sets, p in ((run.iset, k), (run.jset, k - 2)):
        sets[k] = sets[k][::-1].copy()
        rows, cols, u, vh = run._superblock(p)
        assert len(factored) == 1
        np.testing.assert_array_equal(
            rows, _cross_indices(run.iset[p], np.arange(f.dims[p])[:, None])
        )
        np.testing.assert_array_equal(
            cols, _cross_indices(np.arange(f.dims[p + 1])[:, None], run.jset[p + 2])
        )
        phi = f.evaluate(_cross_indices(rows, cols)).reshape(len(rows), len(cols))
        want_u, _, want_vh = np.linalg.svd(phi)
        r = u.shape[1]
        # Sign-free: the projectors onto the leading singular subspaces.
        np.testing.assert_allclose(u @ u.T, want_u[:, :r] @ want_u[:, :r].T, atol=1e-12)
        np.testing.assert_allclose(vh.T @ vh, want_vh[:r].T @ want_vh[:r], atol=1e-12)
        factored.clear()
    # Superblock k-1 puts I_k back in order; the reversed rows' factors are stale.
    calls.clear()
    mps = run._sweep_l2r()
    assert [key[0] for key, cost in calls if cost] == [k]
    last = np.array([tuple(row) + (x,) for row in run.iset[-2] for x in range(3)])
    np.testing.assert_array_equal(mps.evaluate_batch(last), f.evaluate(last))


def _raises(idx):
    raise AssertionError("evaluate called on a grid function with a block")


def _run(max_bond):
    """A cross run at ``max_bond`` over a grid it never evaluates."""
    return ttcross._CrossRun(GridFunction(dims=(2, 2), evaluate=_raises), CrossConfig(max_bond))


def _block_with_spectrum(shape, sv, seed):
    """A block of ``shape`` whose nonzero singular values are ``sv``."""
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.normal(size=(shape[0], len(sv))))
    right, _ = np.linalg.qr(rng.normal(size=(shape[1], len(sv))))
    return (left * sv) @ right.T


def _no_svd(*args, **kwargs):
    raise AssertionError("SVD called on a block the Gram path should factor")


@pytest.mark.parametrize("shape", [(40, 24), (24, 40), (24, 24)], ids=["tall", "wide", "square"])
@pytest.mark.parametrize(
    "max_bond, ratio", [(24, 1e-1), (24, 1e-3), (24, 1e-5), (8, 1e-1), (8, 1e-2), (8, 1e-3)]
)
def test_gram_factor_gives_the_svd_pivots_and_cores(monkeypatch, shape, max_bond, ratio):
    """sigma_r / sigma_1 = ratio; maxvol rows equal and cores within 1e-8.

    At max_bond 24 the block keeps every direction, so both spans are exact
    to round-off. At 8 it drops a tail from sigma_r / 2 down, and the Gram
    side's span is off by about eps lambda_1 / (lambda_r - lambda_r+1):
    3e-10 at ratio 1e-3, but 3e-6 at 1e-5, which is why truncating blocks
    stop at 1e-3 here.
    """
    r = min(max_bond, *shape)
    tail = ratio / 2 * np.geomspace(1.0, 0.1, min(shape) - r)
    block = _block_with_spectrum(shape, np.concatenate([np.geomspace(1.0, ratio, r), tail]), 4)
    u, _, vh = np.linalg.svd(block, full_matrices=False)
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    got_u, _, got_vh = _run(max_bond)._factor(block)
    assert got_u.shape == (shape[0], r) and got_vh.shape == (r, shape[1])
    for want, got in ((u[:, :r], got_u), (vh[:r].T, got_vh.T)):
        rows, core, _ = _maxvol_iter(want)
        got_rows, got_core, _ = _maxvol_iter(got)
        np.testing.assert_array_equal(got_rows, rows)
        np.testing.assert_allclose(got_core, core, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize(
    "shape, sv, max_bond, rank",
    [
        ((6, 10), [], 4, 1),
        ((12, 7), [1.0, 0.5, 0.1], 5, 3),
        # An Asian end block: 44 prefixes by 14 suffixes of rank 13.
        ((44, 14), np.geomspace(1.0, 1e-3, 13), 16, 13),
        # Exact rank r below the smaller side: no tail for the Gram path to drop.
        ((12, 12), [1.0, 0.3, 0.1, 0.05], 4, 4),
        ((10, 16), np.geomspace(1.0, 0.9e-6, 10), 12, 10),
        ((16, 16), np.concatenate([np.geomspace(1.0, 1e-3, 6), [0.9e-6, 0.5e-6]]), 6, 6),
    ],
    ids=[
        "all-zero", "rank-deficient", "asian-end", "exact-rank-r", "sigma-r-under", "sigma-r+1-under"
    ],
)
def test_unclear_blocks_keep_the_svd_and_its_rank(shape, sv, max_bond, rank):
    """A block without clear singular values up to the one after the r kept is the SVD's."""
    sv = np.asarray(sv, dtype=float)
    block = _block_with_spectrum(shape, sv, 5) if sv.size else np.zeros(shape)
    u, s, vh = np.linalg.svd(block, full_matrices=False)
    run = _run(max_bond)
    got_u, got_s, got_vh = run._factor(block)
    assert got_u.shape[1] == rank == run._rank(s)
    np.testing.assert_array_equal(got_u, u[:, :rank])
    np.testing.assert_array_equal(got_s, s[:rank])
    np.testing.assert_array_equal(got_vh, vh[:rank])


@pytest.mark.parametrize(
    "shape, sv",
    [((40, 24), np.geomspace(1.0, 1e-5, 24)), ((24, 40), np.geomspace(1.0, 1e-5, 24))]
    + [((12, 12), [1.0, 0.3, 0.1, 0.05])],
    ids=["gram-tall", "gram-wide", "svd"],
)
def test_factor_s_vh_is_the_block_projected_on_u(shape, sv):
    """s * Vh equals U.T @ block, to round-off, on both Gram paths and the SVD."""
    block = _block_with_spectrum(shape, np.asarray(sv), 7)
    u, s, vh = _run(24)._factor(block)
    np.testing.assert_allclose(s[:, None] * vh, u.T @ block, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(s, np.linalg.svd(block, compute_uv=False)[: s.size], atol=1e-10)


@pytest.mark.parametrize("shape", [(6, 10), (10, 6)], ids=["wide", "tall"])
def test_factor_raises_on_a_nan(shape):
    block = np.random.default_rng(6).normal(size=shape)
    block[2, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _run(4)._factor(block)


def _svd_factor(run, block):
    """The superblock factor with no Gram path: SVD bases at _rank's rank."""
    u, s, vh = np.linalg.svd(block, full_matrices=False)
    r = run._rank(s)
    return u[:, :r].copy(), s[:r], vh[:r].copy()


_BOOK_BASKETS = [
    (m, n, payoff, style)
    for m, n in ((4, 12), (5, 10))
    for payoff in ("min", "avg")
    for style in ("european", "american")
]


@pytest.mark.parametrize(
    "price, spec, bond, rel",
    [
        (price_asian_ttcross, AsianSpec(steps=n, right=right), bond, 1e-9)
        for n in (16, 20)
        for bond in (16, 32)
        for right in ("call", "put")
    ]
    + [
        (
            price_european_basket if style == "european" else price_american_basket,
            uniform_basket_spec(m, steps=n, payoff_kind=payoff, style=style),
            16,
            1e-9,
        )
        for m, n, payoff, style in _BOOK_BASKETS
    ]
    # Moved 4.5e-6 at seed 0, where both factors are 3.6e-3 from brute force.
    + [(price_european_basket, uniform_basket_spec(6, steps=8, payoff_kind="max"), 8, 1e-5)],
    ids=[f"asian-N{n}-D{b}-{r}" for n in (16, 20) for b in (16, 32) for r in ("call", "put")]
    + [f"basket-m{m}-N{n}-{p}-{s}" for m, n, p, s in _BOOK_BASKETS]
    + ["basket-m6-N8-max-european-D8"],
)
def test_gram_factor_prices_as_the_svd_factor_does(monkeypatch, price, spec, bond, rel):
    """Seeds 0-2 price within ``rel`` of the same cross factored by SVD alone."""
    gram = [price(spec, bond_dim=bond, seed=seed).price for seed in range(3)]
    monkeypatch.setattr(ttcross._CrossRun, "_factor", _svd_factor)
    svd = [price(spec, bond_dim=bond, seed=seed).price for seed in range(3)]
    assert gram == pytest.approx(svd, rel=rel)


def _asian_functions():
    """The Asian integrand, and the exact bond-2 MPS of its unfloored payoff.

    Each is checked against the per-path loop, not against its own evaluate.
    """
    for right in ("call", "put"):
        for scheme in ("crr", "rb"):
            spec = AsianSpec(steps=9, right=right, scheme=scheme)
            yield f"asian-{right}-{scheme}-floored", asian_integrand(spec), (
                lambda bits, spec=spec: path_integrands(spec, bits)
            )
            linear = mps_grid_function(build_exact_payoff_mps(spec))
            yield f"asian-{right}-{scheme}-linear", linear, (
                lambda bits, spec=spec: path_integrands(spec, bits, floor=False)
            )


def _basket_functions():
    rng = np.random.default_rng(3)
    # A positive continuation of bond 3 that crosses the payoff somewhere.
    bonds = (1, 3, 3, 3, 1)
    sites = [rng.uniform(0.5, 1.5, size=(bonds[k], 6, bonds[k + 1])) for k in range(4)]
    for kind in ("min", "max", "avg"):
        spec = uniform_basket_spec(4, strike=160.0, steps=5, payoff_kind=kind)
        model = decouple(spec)
        for name, f in (
            (f"basket-{kind}", basket._step_function(spec, model, 5)),
            (f"basket-{kind}-held", basket._step_function(spec, model, 5, MPS(sites), 0.3)),
        ):
            yield name, f, f.evaluate


_BLOCK_CASES = list(_asian_functions()) + list(_basket_functions())


@pytest.mark.parametrize(
    "f, pointwise", [c[1:] for c in _BLOCK_CASES], ids=[c[0] for c in _BLOCK_CASES]
)
def test_block_equals_pointwise(f, pointwise):
    """Every split of the axes, over none of them on either side included."""
    rng = np.random.default_rng(0)
    high = np.array(f.dims)
    n = len(f.dims)
    scales = []
    for k in range(n + 1):
        rows = rng.integers(0, high[:k], size=(5, k))
        cols = rng.integers(0, high[k:], size=(7, n - k))
        got = f.block(rows, cols)
        want = pointwise(_cross_indices(rows, cols)).reshape(5, 7)
        scales.append(np.max(np.abs(want)))
        assert got.shape == (5, 7)
        assert np.max(np.abs(got - want)) <= 1e-13 * scales[-1]
    assert max(scales) > 0.0


@pytest.mark.usefixtures("swept")
def test_cross_with_a_block_never_calls_evaluate():
    f = asian_integrand(AsianSpec(steps=14))
    res = ttcross_approximate(
        GridFunction(f.dims, _raises, f.block), CrossConfig(max_bond=8, seed=0)
    )
    assert res.n_sweeps_run > 1
    assert res.n_evals > 0


def _pointwise(monkeypatch, module):
    """Route ``module``'s crosses through GridFunctions with no block."""

    def cross(f, cfg):
        return ttcross_approximate(GridFunction(dims=f.dims, evaluate=f.evaluate), cfg)

    monkeypatch.setattr(module, "ttcross_approximate", cross)


@pytest.mark.usefixtures("swept")
@pytest.mark.parametrize(
    "module, price, spec, bond",
    [
        (asian, price_asian_ttcross, AsianSpec(steps=16), 8),
        (basket, price_american_basket, uniform_basket_spec(4, steps=8, style="american"), 8),
    ],
    ids=["asian-N16", "american-m4"],
)
def test_pointwise_functions_price_as_blocks_do(monkeypatch, module, price, spec, bond):
    """A GridFunction of dims and evaluate alone takes the pointwise path."""
    by_block = price(spec, bond_dim=bond, seed=0)
    _pointwise(monkeypatch, module)
    by_point = price(spec, bond_dim=bond, seed=0)
    assert by_point.price == pytest.approx(by_block.price, rel=1e-9)
    assert by_point.diagnostics["n_evals"] == by_block.diagnostics["n_evals"]


def _positions(dims, calls):
    """Pointwise and block grid functions valued at each point's row-major position.

    Both append the number of values of every call to ``calls``.
    """
    def position(idx):
        return np.ravel_multi_index(tuple(idx.T), dims).astype(np.float64)

    def evaluate(idx):
        calls.append(len(idx))
        return position(idx)

    def block(rows, cols):
        calls.append(len(rows) * len(cols))
        return position(_cross_indices(rows, cols)).reshape(len(rows), -1)

    return GridFunction(dims, evaluate), GridFunction(dims, _raises, block)


@pytest.mark.parametrize(
    "dims, n_blocks, n_cols",
    [
        ((2, 3, 4), 1, 24),  # every axis on the trailing side
        ((300, 400), 2, 1),  # no axis fits there
        ((3, 4, 2, 5, 3), 1, 120),
        ((5, 7, 11, 3, 4, 2, 5, 3), 3, 120),
        ((2,) * 18, 4, 256),
        ((257,), 1, 1),
        ((256,), 1, 256),
    ],
)
@pytest.mark.parametrize("kind", [0, 1], ids=["evaluate", "block"])
def test_grid_blocks_walk_the_grid_row_major(dims, n_blocks, n_cols, kind):
    calls = []
    blocks = list(grid_blocks(_positions(dims, calls)[kind]))
    assert len(blocks) == n_blocks
    assert all(b.shape[1] == n_cols and b.size <= _CHUNK for b in blocks)
    assert max(calls) <= _CHUNK and sum(calls) == np.prod(dims)
    grid = np.indices(dims).reshape(len(dims), -1).T
    want = _positions(dims, [])[0].evaluate(grid)
    np.testing.assert_array_equal(np.concatenate([b.ravel() for b in blocks]), want)



@pytest.mark.parametrize("kind", [0, 1], ids=["evaluate", "block"])
def test_grid_blocks_walk_a_range_of_whole_rows(kind):
    """Values 120*3 up to 120*1100 of a 5*7*11*3*4*2*5*3 grid: rows 3..1099 of 120 columns."""
    dims, calls = (5, 7, 11, 3, 4, 2, 5, 3), []
    blocks = list(grid_blocks(_positions(dims, calls)[kind], 120 * 3, 120 * 1100))
    assert [b.shape for b in blocks] == [(546, 120), (546, 120), (5, 120)]
    assert max(calls) <= _CHUNK and sum(calls) == 120 * 1097
    got = np.concatenate([b.ravel() for b in blocks])
    np.testing.assert_array_equal(got, np.arange(120 * 3, 120 * 1100))

def test_tt_svd_keeps_exact_ranks_through_the_svd_fallback(monkeypatch):
    """A grid of TT ranks (2, 3, 2) keeps them.

    Every unfolding has rank below its smaller side, so the superblock
    factor takes the SVD and its rank rule for each of the three.
    """
    rng = np.random.default_rng(10)
    shapes = ((1, 3, 2), (2, 4, 3), (3, 3, 2), (2, 4, 1))
    hidden = MPS([rng.normal(size=shape) for shape in shapes])
    svds = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or real_svd(*a, **k))
    res = ttcross_approximate(mps_grid_function(hidden), CrossConfig(max_bond=10, seed=0))
    assert (res.stop_reason, len(svds), res.mps.bond_dims) == ("tt-svd", 3, (2, 3, 2))
    want = mps_dense(hidden)
    np.testing.assert_allclose(mps_dense(res.mps), want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def _full_svd_tt_svd(grid: np.ndarray, max_bond: int) -> MPS:
    """TT-SVD by a full SVD of each unfolding, keeping s > 1e-14 s_1, 1..max_bond."""
    rest, cores = grid.reshape(1, -1), []
    for d in grid.shape[:-1]:
        u, s, vh = np.linalg.svd(rest.reshape(rest.shape[0] * d, -1), full_matrices=False)
        r = max(1, min(max_bond, int(np.count_nonzero(s > 1e-14 * s[0]))))
        cores.append(u[:, :r].reshape(-1, d, r))
        rest = s[:r, None] * vh[:r]
    return MPS(cores + [rest.reshape(-1, grid.shape[-1], 1)])


def _tt_svd_grids():
    spec = AsianSpec(steps=12)
    yield "asian-N12-D32", asian_integrand(spec), 32, 1e-13
    basket_spec = uniform_basket_spec(4, steps=12, payoff_kind="avg")
    step = basket._step_function(basket_spec, decouple(basket_spec), 12)
    yield "basket-m4-N12-avg-D16", step, 16, 1e-12


@pytest.mark.parametrize(
    "f, bond, rel", [g[1:] for g in _tt_svd_grids()], ids=[g[0] for g in _tt_svd_grids()]
)
def test_tt_svd_matches_a_full_svd_tt_svd(f, bond, rel):
    """The superblock factor's TT-SVD is the full-SVD TT-SVD, to round-off.

    The Asian grid's first three unfoldings keep every direction on the
    Gram path and the rest are rank-deficient SVDs; it agrees to 5.8e-15
    of its largest value. The basket grid truncates its 169 x 169
    unfolding to 16 on the Gram path: 1.3e-13. Taking each next unfolding
    as U.T @ unfolding, not s * Vh, they read 2.4e-13 and 1.7e-11.
    """
    res = ttcross_approximate(f, CrossConfig(max_bond=bond, seed=0))
    want = _full_svd_tt_svd(walked_grid(f), bond)
    assert res.stop_reason == "tt-svd"
    assert res.mps.bond_dims == want.bond_dims
    got, dense = mps_dense(res.mps), mps_dense(want)
    np.testing.assert_allclose(got, dense, rtol=0.0, atol=rel * np.abs(dense).max())
    assert res.mps.sum_all() == pytest.approx(want.sum_all(), rel=1e-12)


def test_tt_svd_grid_is_one_walk():
    """The TT-SVD's grid is the walk's, counted once in n_evals and asked for once."""
    hidden = np.random.default_rng(9).normal(size=(3, 4, 2, 5))
    calls = []
    f = GridFunction(
        hidden.shape, lambda idx: calls.append(len(idx)) or hidden[tuple(idx.T)]
    )
    res = ttcross_approximate(f, CrossConfig(max_bond=10, seed=0))
    assert res.stop_reason == "tt-svd"
    assert calls == [hidden.size] and res.n_evals == hidden.size
    np.testing.assert_allclose(mps_dense(res.mps), hidden, rtol=1e-12, atol=1e-12)
