"""Cross approximation: maxvol row selection and full sweeps."""

import re

import numpy as np
import pytest

from mpspricer import (
    AsianSpec,
    CrossConfig,
    GridFunction,
    asian_integrand,
    asian_linear_integrand,
    build_exact_payoff_mps,
    maxvol,
    price_asian_ttcross,
    price_asian_variational,
    price_european_basket,
    ttcross_approximate,
    uniform_basket_spec,
)
from mpspricer import ttcross
from mpspricer.ttcross import _NO_AXES, _block_keys, _cross_indices

from conftest import all_bitstrings


def test_maxvol_square_is_identity_selection():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4))
    np.testing.assert_array_equal(np.sort(maxvol(m)), np.arange(4))


def test_maxvol_dominance_property():
    rng = np.random.default_rng(1)
    for trial in range(5):
        m = rng.normal(size=(60, 7))
        rows = maxvol(m)
        assert len(set(rows.tolist())) == 7
        b = m @ np.linalg.inv(m[rows])
        assert np.max(np.abs(b)) <= 1.01 + 1e-9


def test_maxvol_rejects_rank_deficient():
    col = np.arange(10.0)[:, None]
    with pytest.raises(ValueError, match="rank-deficient"):
        maxvol(np.hstack([col, 2.0 * col]))


def test_maxvol_iteration_cap_warns(monkeypatch):
    """With no swaps allowed, maxvol warns and the cross reports each cap."""
    monkeypatch.setattr(ttcross, "_MAXVOL_ITERS", 0)
    m = np.random.default_rng(2).normal(size=(40, 6))
    with pytest.warns(RuntimeWarning, match="maxvol did not converge within 0"):
        rows = maxvol(m)
    assert len(set(rows.tolist())) == 6
    report = price_asian_ttcross(AsianSpec(steps=14), bond_dim=4)
    # Every non-square pivot basis of the 3 sweeps, then the stop note.
    *capped, stop = report.warnings
    assert len(capped) == 56
    assert all(re.fullmatch(r"maxvol hit iteration cap at bond \d+", w) for w in capped)
    assert stop.startswith("probe change plateaued")


def test_maxvol_rejects_wide_and_non_matrix():
    with pytest.raises(ValueError):
        maxvol(np.ones((2, 5)))
    with pytest.raises(ValueError):
        maxvol(np.ones(3))


def test_config_validation():
    with pytest.raises(ValueError):
        CrossConfig(max_bond=0)
    with pytest.raises(ValueError):
        CrossConfig(max_bond=2, n_sweeps=0)
    with pytest.raises(ValueError):
        CrossConfig(max_bond=2, tol=0.0)


@pytest.mark.parametrize(
    "price, kwargs, match",
    [
        (price_asian_ttcross, {"bond_dim": 8.5}, "max_bond must be an integer, got float 8.5"),
        (price_asian_ttcross, {"n_sweeps": 2.5}, "n_sweeps must be an integer, got float 2.5"),
        (price_asian_ttcross, {"seed": 1.5}, "seed must be an integer, got float 1.5"),
        (price_asian_variational, {"bond_dim": 4.5}, "bond_dim must be an integer"),
        (price_asian_variational, {"n_sweeps": 1.5}, "n_sweeps must be an integer"),
        (price_european_basket, {"bond_dim": 4.5}, "max_bond must be an integer"),
    ],
    ids=["ttcross-bond", "ttcross-sweeps", "ttcross-seed", "var-bond", "var-sweeps", "basket-bond"],
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
    np.testing.assert_allclose(res.mps.to_dense(), vals)


def test_rank_one_product_recovered_at_bond_one():
    weights = [np.array([1.0, 0.3, -0.7, 2.0]) + k for k in range(5)]

    def f(idx):
        out = np.ones(idx.shape[0])
        for k in range(5):
            out *= weights[k][idx[:, k]]
        return out

    res = ttcross_approximate(
        GridFunction(dims=(4,) * 5, evaluate=f),
        CrossConfig(max_bond=1, n_sweeps=6, tol=1e-12, seed=2),
    )
    dense = res.mps.to_dense()
    grid = np.stack(
        np.meshgrid(*[np.arange(4)] * 5, indexing="ij"), axis=-1
    ).reshape(-1, 5)
    np.testing.assert_allclose(dense.reshape(-1), f(grid), rtol=1e-10)


def test_hidden_rank_two_integrand_recovered():
    """The unfloored Asian integrand has exact bond dimension 2."""
    spec = AsianSpec(
        spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0, steps=14
    )
    res = ttcross_approximate(
        asian_linear_integrand(spec),
        CrossConfig(max_bond=2, n_sweeps=8, tol=1e-12, seed=3),
    )
    exact = build_exact_payoff_mps(spec)
    idx = all_bitstrings(14)
    want = exact.evaluate_batch(idx)
    got = res.mps.evaluate_batch(idx)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) / scale < 1e-10
    assert res.mps.max_bond == 2


def test_interpolation_at_retained_pivots():
    """Bounded interpolation cores, and exact values at the last pivots.

    Under truncation the MPS need not match f at every (I_k, J_k) cross;
    it does at every (last-bond left pivot, x). The Asian case is one
    whose cores, solved against raw cross matrices, were singular.
    """
    hidden = np.random.default_rng(7).normal(size=(3, 4, 3, 4))
    spec = AsianSpec(spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0, steps=16)
    cases = [
        (
            GridFunction(dims=hidden.shape, evaluate=lambda idx: hidden[tuple(idx.T)]),
            CrossConfig(max_bond=3, n_sweeps=4, tol=1e-10, seed=5),
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
        rows = np.array(
            [left + (x,) for left in res.left_pivots[-1] for x in range(f.dims[-1])]
        )
        np.testing.assert_array_equal(res.mps.evaluate_batch(rows), f.evaluate(rows))


def test_deterministic_given_seed():
    spec = AsianSpec(
        spot=100.0, strike=90.0, rate=0.05, vol=0.4, expiry=1.0, steps=10
    )
    f = asian_linear_integrand(spec)
    cfg = CrossConfig(max_bond=4, n_sweeps=4, tol=1e-12, seed=11)
    a = ttcross_approximate(f, cfg)
    b = ttcross_approximate(f, cfg)
    assert a.n_evals == b.n_evals
    for ta, tb in zip(a.mps.tensors, b.mps.tensors):
        np.testing.assert_array_equal(ta, tb)


def test_monotone_bond_budget():
    """Doubling the budget never hurts on the rank-2 family (median view)."""
    spec = AsianSpec(
        spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0, steps=12
    )
    f = asian_linear_integrand(spec)
    exact = build_exact_payoff_mps(spec)
    probes = np.random.default_rng(0).integers(0, 2, size=(1000, 12))
    want = exact.evaluate_batch(probes)
    scale = np.max(np.abs(want))

    def median_err(bond):
        errs = []
        for seed in range(20):
            cfg = CrossConfig(max_bond=bond, n_sweeps=4, tol=1e-12, seed=seed)
            mps = ttcross_approximate(f, cfg).mps
            errs.append(np.max(np.abs(mps.evaluate_batch(probes) - want)) / scale)
        return float(np.median(errs))

    assert median_err(2) <= median_err(1) + 1e-12


def test_sweep_cap_flagged():
    rng = np.random.default_rng(13)
    hidden = rng.normal(size=(2,) * 8)

    def f(idx):
        return hidden[tuple(idx.T)]

    res = ttcross_approximate(
        GridFunction(dims=(2,) * 8, evaluate=f),
        CrossConfig(max_bond=2, n_sweeps=1, seed=0),
    )
    assert not res.converged
    assert any("sweep cap" in w for w in res.warnings)
    assert res.n_sweeps_run == 1
    assert (res.stop_reason, res.probe_changes) == ("cap", [])


def test_stops_when_probe_changes_stop_halving():
    """A truncated Asian integrand settles above tol; the run stops, flagged."""
    spec = AsianSpec(
        spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0, steps=12
    )
    res = ttcross_approximate(
        asian_integrand(spec), CrossConfig(max_bond=4, n_sweeps=20, seed=0)
    )
    changes = res.probe_changes
    assert (res.stop_reason, res.converged) == ("plateau", False)
    assert len(changes) == res.n_sweeps_run - 1 < 19
    assert all(b <= 0.5 * a for a, b in zip(changes[:-2], changes[1:-1]))
    assert changes[-1] > 0.5 * changes[-2]
    assert res.warnings == [f"probe change plateaued at {changes[-1]:.3e}"]


def test_exact_rank_converges_on_tol():
    weights = np.random.default_rng(3).normal(size=10)
    res = ttcross_approximate(
        GridFunction(dims=(2,) * 10, evaluate=lambda idx: 1.0 + idx @ weights),
        CrossConfig(max_bond=2, seed=0),
    )
    assert (res.stop_reason, res.converged, res.warnings) == ("tol", True, [])
    assert res.probe_changes[-1] <= 1e-10
    assert res.heldout_residual < 1e-12


def test_heldout_residual_is_relative_max_error_off_the_stopping_probes():
    """1024 held-out draws over 64 points hit the worst one: a global residual."""
    hidden = np.random.default_rng(2).normal(size=(2,) * 6)
    f = GridFunction(dims=(2,) * 6, evaluate=lambda idx: hidden[tuple(idx.T)])
    res = ttcross_approximate(f, CrossConfig(max_bond=2, n_sweeps=3, seed=0))
    err = np.abs(res.mps.to_dense() - hidden)
    assert res.heldout_residual == pytest.approx(
        err.max() / np.abs(hidden).max(), rel=1e-12
    )
    assert res.heldout_residual > 0.0
    assert res.n_evals == 64


def test_mixed_axis_sizes():
    def f(idx):
        return (1.0 + idx[:, 0]) * np.cos(idx[:, 1]) + 0.5 * idx[:, 2]

    res = ttcross_approximate(
        GridFunction(dims=(4, 6, 5), evaluate=f),
        CrossConfig(max_bond=4, n_sweeps=6, tol=1e-12, seed=1),
    )
    grid = np.stack(
        np.meshgrid(np.arange(4), np.arange(6), np.arange(5), indexing="ij"),
        axis=-1,
    ).reshape(-1, 3)
    np.testing.assert_allclose(
        res.mps.evaluate_batch(grid), f(grid), rtol=1e-9, atol=1e-9
    )


def test_eval_counting_and_batch_cap(monkeypatch):
    calls = []

    def f(idx):
        calls.append(idx.shape[0])
        return np.ones(idx.shape[0])

    monkeypatch.setattr(ttcross, "_BATCH_CAP", 16)
    cfg = CrossConfig(max_bond=2, n_sweeps=1, seed=0)
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


def test_each_grid_point_evaluated_once_per_run():
    seen = []

    def f(idx):
        seen.extend(map(tuple, idx.tolist()))
        return np.cos(idx @ np.arange(1.0, 7.0))

    res = ttcross_approximate(
        GridFunction(dims=(3, 4, 2, 5, 3, 2), evaluate=f),
        CrossConfig(max_bond=4, n_sweeps=3, seed=0),
    )
    assert len(seen) == len(set(seen))
    assert res.n_evals == len(set(seen))


def test_grid_beyond_uint64_positions():
    """2^70 points cannot be coded in one uint64; rows are keyed by bytes."""
    weights = np.random.default_rng(4).normal(size=70)

    def f(idx):
        return 1.0 + idx @ weights

    res = ttcross_approximate(
        GridFunction(dims=(2,) * 70, evaluate=f),
        CrossConfig(max_bond=2, n_sweeps=3, seed=0),
    )
    rows = np.random.default_rng(5).integers(0, 2, size=(200, 70))
    np.testing.assert_allclose(res.mps.evaluate_batch(rows), f(rows), rtol=1e-10)


def test_grid_of_exactly_2_64_points():
    """The largest grid whose positions still fit one uint64 key."""
    weights = np.random.default_rng(6).normal(size=64)

    def f(idx):
        return 1.0 + idx @ weights

    res = ttcross_approximate(
        GridFunction(dims=(2,) * 64, evaluate=f),
        CrossConfig(max_bond=2, n_sweeps=3, seed=0),
    )
    rows = np.random.default_rng(7).integers(0, 2, size=(200, 64))
    np.testing.assert_allclose(res.mps.evaluate_batch(rows), f(rows), rtol=1e-10)


@pytest.mark.parametrize(
    "dims", [(3, 1, 4, 2, 5), (1,) + (2,) * 64], ids=["mixed", "stride-2^64"]
)
def test_block_keys_are_keys_of_joined_rows(dims):
    """A block's keys are those of its joined rows, as a block over no axes.

    Every split, empty prefix and empty suffix included.
    """
    rng = np.random.default_rng(0)
    high = np.array(dims, dtype=np.int64)
    n = len(dims)
    for k in range(n + 1):
        rows = rng.integers(0, high[:k], size=(5, k))
        cols = rng.integers(0, high[k:], size=(7, n - k))
        np.testing.assert_array_equal(
            _block_keys(rows, cols, dims),
            _block_keys(_cross_indices(rows, cols), _NO_AXES, dims),
        )


def test_grid_one_superblock_spans_is_tt_svd():
    """A 6x6 grid at bond 2 is its best rank-2 approximation, unswept."""
    hidden = np.random.default_rng(8).normal(size=(6, 6))
    res = ttcross_approximate(
        GridFunction(dims=(6, 6), evaluate=lambda idx: hidden[tuple(idx.T)]),
        CrossConfig(max_bond=2, seed=0),
    )
    u, s, vh = np.linalg.svd(hidden)
    np.testing.assert_allclose(
        res.mps.to_dense(), (u[:, :2] * s[:2]) @ vh[:2], rtol=1e-12, atol=1e-12
    )
    assert (res.n_evals, res.n_sweeps_run, res.converged) == (36, 0, True)
    assert res.left_pivots == res.right_pivots == []
    assert (res.stop_reason, res.probe_changes) == ("tt-svd", [])


def _count_factorizations(monkeypatch):
    """Record every superblock request: its key and the SVDs it cost."""
    svds = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda *a, **kw: svds.append(1) or real_svd(*a, **kw)
    )
    calls = []
    real_superblock = ttcross._CrossRun._superblock

    def superblock(run, p):
        key = (p, run.iset[p].tobytes(), run.jset[p + 2].tobytes())
        before = len(svds)
        out = real_superblock(run, p)
        calls.append((key, len(svds) - before))
        return out

    monkeypatch.setattr(ttcross._CrossRun, "_superblock", superblock)
    return calls, svds


def _sweeps(calls, n_axes):
    """Superblock calls split into the first l2r sweep, then r2l + l2r pairs."""
    m = n_axes - 1
    return [calls[:m]] + [calls[i : i + 2 * m] for i in range(m, len(calls), 2 * m)]


def test_confirming_sweep_factors_nothing(monkeypatch):
    """An exact-rank run stops on tol once the MPS repeats, at no SVD cost.

    The tol is one only a repeated MPS meets, so the last sweep is purely
    a confirmation; every superblock in it was factored before.
    """
    calls, svds = _count_factorizations(monkeypatch)
    weights = np.random.default_rng(3).normal(size=10)
    res = ttcross_approximate(
        GridFunction(dims=(2,) * 10, evaluate=lambda idx: 1.0 + idx @ weights),
        CrossConfig(max_bond=2, tol=1e-300, seed=0),
    )
    assert (res.stop_reason, res.n_sweeps_run, res.probe_changes[-1]) == ("tol", 3, 0.0)
    sweeps = _sweeps(calls, 10)
    assert [sum(cost for _, cost in s) for s in sweeps] == [9, 8, 0]
    assert len(svds) == len({key for key, _ in calls}) == 17


def _hidden_grid(shape, seed):
    hidden = np.random.default_rng(seed).normal(size=shape)
    return GridFunction(dims=shape, evaluate=lambda idx: hidden[tuple(idx.T)])


@pytest.mark.parametrize(
    "f, cfg",
    [
        (_hidden_grid((3, 4, 3, 4), 7), CrossConfig(max_bond=3, n_sweeps=4, seed=5)),
        (
            asian_integrand(
                AsianSpec(spot=100.0, strike=100.0, rate=0.1, vol=0.5, expiry=1.0, steps=12)
            ),
            CrossConfig(max_bond=4, n_sweeps=20, seed=0),
        ),
    ],
    ids=["hidden-3x4x3x4", "asian-N12"],
)
def test_each_distinct_superblock_factored_once(monkeypatch, f, cfg):
    """SVDs equal distinct (p, I_p, J_p+2) superblocks; turnarounds reuse."""
    calls, svds = _count_factorizations(monkeypatch)
    res = ttcross_approximate(f, cfg)
    assert res.n_sweeps_run > 1
    assert len(svds) == len({key for key, _ in calls}) < len(calls)
    n = len(f.dims)
    for r2l_l2r in _sweeps(calls, n)[1:]:
        # The r2l sweep starts at the l2r sweep's last superblock, and the
        # next l2r sweep at the r2l sweep's last.
        assert r2l_l2r[0][0][0] == n - 2 and r2l_l2r[0][1] == 0
        assert r2l_l2r[n - 1][0][0] == 0 and r2l_l2r[n - 1][1] == 0


def test_moved_pivots_refactor_their_superblocks(monkeypatch):
    """A superblock is factored again once I_p or J_p+2 changes, order alone too.

    I_k is read by superblock k and J_k by superblock k-2. A reversed I_k
    that the next l2r sweep puts back in order must not reuse the factors
    of the reversed rows, or core k would not match core k-1's pivots.
    """
    f = _hidden_grid((3, 4, 3, 4, 3), 9)
    run = ttcross._CrossRun(f, CrossConfig(max_bond=3, n_sweeps=4, seed=1))
    run.run()
    calls, svds = _count_factorizations(monkeypatch)
    k = 2
    run._superblock(k)
    assert svds == []
    for sets, p in ((run.iset, k), (run.jset, k - 2)):
        sets[k] = sets[k][::-1].copy()
        rows, cols, u, vh = run._superblock(p)
        assert len(svds) == 1
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
        svds.clear()
    # Superblock k-1 puts I_k back in order; the reversed rows' factors are stale.
    calls.clear()
    mps = run._sweep_l2r()
    assert [key[0] for key, cost in calls if cost] == [k]
    last = np.array([tuple(row) + (x,) for row in run.iset[-2] for x in range(3)])
    np.testing.assert_array_equal(mps.evaluate_batch(last), f.evaluate(last))
