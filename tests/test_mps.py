"""MPS container: construction, contraction, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpspricer import MPS

from conftest import all_bitstrings


def random_mps(n_sites, phys, bonds, seed=0):
    rng = np.random.default_rng(seed)
    full = (1,) + tuple(bonds) + (1,)
    return MPS(
        [
            rng.normal(size=(full[k], phys[k], full[k + 1]))
            for k in range(n_sites)
        ]
    )


def test_shapes_and_properties():
    m = random_mps(4, (2, 3, 2, 4), (2, 5, 3))
    assert m.n_sites == 4
    assert m.physical_dims == (2, 3, 2, 4)
    assert m.bond_dims == (2, 5, 3)
    assert m.max_bond == 5


def test_rejects_bad_ranks():
    with pytest.raises(ValueError, match="rank-3"):
        MPS([np.ones((2, 2))])


def test_rejects_open_boundary():
    with pytest.raises(ValueError, match="boundary"):
        MPS([np.ones((2, 2, 1))])
    with pytest.raises(ValueError, match="boundary"):
        MPS([np.ones((1, 2, 3))])


def test_rejects_bond_mismatch():
    bad = [np.ones((1, 2, 3)), np.ones((2, 2, 1))]
    with pytest.raises(ValueError, match="bond"):
        MPS(bad)


def test_rejects_non_finite():
    t = np.ones((1, 2, 1))
    t[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        MPS([t])


def test_rejects_empty():
    with pytest.raises(ValueError):
        MPS([])


def test_tensors_are_frozen_copies():
    src = np.ones((1, 2, 1))
    m = MPS([src])
    src[0, 0, 0] = 7.0
    assert m.tensors[0][0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        m.tensors[0][0, 0, 0] = 3.0


def test_evaluate_matches_dense():
    m = random_mps(5, (2,) * 5, (3, 4, 4, 3), seed=1)
    dense = m.to_dense()
    for idx in [(0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (0, 1, 0, 1, 0)]:
        assert m.evaluate(idx) == pytest.approx(dense[idx], rel=1e-12)


MIXED = (3, 1, 5, 2)


@pytest.mark.parametrize(
    "phys, idx",
    [
        ((2,) * 6, all_bitstrings(6)),
        (MIXED, np.indices(MIXED).reshape(4, -1).T),
        # No row takes 0 at site 0 or 0 and 4 at site 2.
        (MIXED, np.indices((2, 1, 3, 2)).reshape(4, -1).T + [1, 0, 1, 0]),
        (MIXED, np.array([[2, 0, 4, 1]])),
    ],
    ids=["bits", "mixed-dims", "missing-values", "one-row"],
)
def test_evaluate_batch_matches_pointwise(phys, idx):
    m = random_mps(len(phys), phys, (2, 3, 5, 3, 2)[: len(phys) - 1], seed=2)
    batch = m.evaluate_batch(idx)
    single = np.array([m.evaluate(tuple(row)) for row in idx])
    np.testing.assert_allclose(batch, single, rtol=1e-12)


def test_evaluate_batch_index_dtypes():
    """Bool and unsigned rows index like ints; other dtypes are refused."""
    m = random_mps(3, (2, 2, 2), (2, 2), seed=7)
    rows = np.array([[1, 0, 1], [0, 1, 1]])
    want = [m.evaluate(tuple(row)) for row in rows]
    # NumPy indexing reads bool arrays as masks: with d=2, two rows pick wrong
    # entries and one row raises.
    for idx in (rows.astype(bool), rows[:1].astype(bool), rows.astype(np.uint64)):
        np.testing.assert_allclose(m.evaluate_batch(idx), want[: len(idx)], rtol=1e-12)
    with pytest.raises(ValueError, match="integers"):
        m.evaluate_batch(rows.astype(float))


def test_evaluate_index_types():
    """Ints and bools index a site; a float is refused, not truncated."""
    m = random_mps(3, (2, 2, 2), (2, 2), seed=7)
    want = m.evaluate((1, 1, 0))
    assert m.evaluate((True, 1, 0)) == want
    assert m.evaluate(np.array([1, 1, 0], dtype=np.uint8)) == want
    for bad in ((0.7, 1, 0), np.array([1.0, 1.0, 0.0])):
        with pytest.raises(ValueError, match="integers"):
            m.evaluate(bad)
    with pytest.raises(ValueError, match="shape"):
        m.evaluate((1, 1))


def test_evaluate_rejects_out_of_range():
    m = random_mps(3, (2, 2, 2), (2, 2))
    with pytest.raises(ValueError):
        m.evaluate((0, 2, 0))
    with pytest.raises(ValueError):
        m.evaluate_batch(np.array([[0, 0, -1]]))


def test_sum_all_matches_dense_sum():
    m = random_mps(5, (2, 3, 2, 3, 2), (2, 4, 4, 2), seed=3)
    assert m.sum_all() == pytest.approx(m.to_dense().sum(), rel=1e-12)


def test_apply_site_matrices_matches_dense():
    m = random_mps(3, (3, 3, 3), (2, 2), seed=4)
    rng = np.random.default_rng(5)
    mats = [rng.normal(size=(2, 3)) for _ in range(3)]
    out = m.apply_site_matrices(mats)
    assert out.physical_dims == (2, 2, 2)
    dense = np.einsum("abc,ia,jb,kc->ijk", m.to_dense(), *mats)
    np.testing.assert_allclose(out.to_dense(), dense, rtol=1e-12)


def test_apply_site_matrices_validates():
    m = random_mps(2, (2, 2), (2,))
    with pytest.raises(ValueError):
        m.apply_site_matrices([np.ones((1, 3)), np.ones((1, 2))])
    with pytest.raises(ValueError):
        m.apply_site_matrices([np.ones((1, 2))])


def test_to_dense_cap():
    m = random_mps(30, (2,) * 30, (1,) * 29)
    with pytest.raises(ValueError, match="cap"):
        m.to_dense(max_elements=2**20)


def test_document_roundtrip():
    m = random_mps(4, (2, 3, 2, 2), (3, 2, 4), seed=6)
    doc = m.to_document()
    assert doc["format"] == "mps"
    m2 = MPS.from_document(doc)
    for a, b in zip(m.tensors, m2.tensors):
        np.testing.assert_array_equal(a, b)


def test_from_document_rejects_garbage():
    with pytest.raises(ValueError):
        MPS.from_document({"format": "not-mps", "sites": []})
    with pytest.raises(ValueError):
        MPS.from_document({"format": "mps", "sites": [{"shape": [1, 2, 1], "values": [1.0]}]})


@settings(max_examples=25, deadline=None)
@given(
    n_sites=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_sum_all_equals_batch_total(n_sites, seed):
    rng = np.random.default_rng(seed)
    bonds = tuple(int(b) for b in rng.integers(1, 4, size=n_sites - 1))
    m = random_mps(n_sites, (2,) * n_sites, bonds, seed=seed)
    total = m.evaluate_batch(all_bitstrings(n_sites)).sum()
    assert m.sum_all() == pytest.approx(total, rel=1e-10, abs=1e-12)
