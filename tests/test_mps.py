"""MPS container: construction, contraction, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpspricer import MPS

from conftest import all_bitstrings, mps_dense, mps_values


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
    dense = mps_dense(m)
    idx = np.array([(0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (0, 1, 0, 1, 0)])
    np.testing.assert_allclose(m.evaluate_batch(idx), dense[tuple(idx.T)], rtol=1e-12)


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
    np.testing.assert_allclose(batch, mps_values(m, idx), rtol=1e-12)


def test_evaluate_batch_index_dtypes():
    """Bool and unsigned rows index like ints; other dtypes are refused."""
    m = random_mps(3, (2, 2, 2), (2, 2), seed=7)
    rows = np.array([[1, 0, 1], [0, 1, 1]])
    want = mps_values(m, rows)
    # NumPy indexing reads bool arrays as masks: with d=2, two rows pick wrong
    # entries and one row raises.
    for idx in (rows.astype(bool), rows[:1].astype(bool), rows.astype(np.uint64)):
        np.testing.assert_allclose(m.evaluate_batch(idx), want[: len(idx)], rtol=1e-12)
    with pytest.raises(ValueError, match="integers"):
        m.evaluate_batch(rows.astype(float))


def test_evaluate_index_types():
    """Ints and bools index a site; a float is refused, not truncated."""
    m = random_mps(3, (2, 2, 2), (2, 2), seed=7)
    want = m.evaluate_batch([(1, 1, 0)])
    assert m.evaluate_batch([(True, 1, 0)]) == want
    assert m.evaluate_batch(np.array([[1, 1, 0]], dtype=np.uint8)) == want
    for bad in ([(0.7, 1, 0)], np.array([[1.0, 1.0, 0.0]])):
        with pytest.raises(ValueError, match="integers"):
            m.evaluate_batch(bad)
    with pytest.raises(ValueError, match="shape"):
        m.evaluate_batch([(1, 1)])


def test_evaluate_rejects_out_of_range():
    m = random_mps(3, (2, 2, 2), (2, 2))
    with pytest.raises(ValueError):
        m.evaluate_batch(np.array([[0, 2, 0]]))
    with pytest.raises(ValueError):
        m.evaluate_batch(np.array([[0, 0, -1]]))


def test_sum_all_matches_dense_sum():
    m = random_mps(5, (2, 3, 2, 3, 2), (2, 4, 4, 2), seed=3)
    assert m.sum_all() == pytest.approx(mps_dense(m).sum(), rel=1e-12)


def test_apply_site_matrices_matches_dense():
    m = random_mps(3, (3, 3, 3), (2, 2), seed=4)
    rng = np.random.default_rng(5)
    mats = [rng.normal(size=(2, 3)) for _ in range(3)]
    out = m.apply_site_matrices(mats)
    assert out.physical_dims == (2, 2, 2)
    dense = np.einsum("abc,ia,jb,kc->ijk", mps_dense(m), *mats)
    np.testing.assert_allclose(mps_dense(out), dense, rtol=1e-12)


def test_apply_site_matrices_validates():
    m = random_mps(2, (2, 2), (2,))
    with pytest.raises(ValueError):
        m.apply_site_matrices([np.ones((1, 3)), np.ones((1, 2))])
    with pytest.raises(ValueError):
        m.apply_site_matrices([np.ones((1, 2))])


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


@pytest.mark.parametrize("doc", [[], "mps", None], ids=["list", "str", "none"])
def test_from_document_rejects_a_non_mapping(doc):
    with pytest.raises(ValueError, match="^document is not an MPS dump$"):
        MPS.from_document(doc)


def test_from_document_names_the_site_whose_values_miss_its_shape():
    doc = random_mps(2, (2, 3), (2,), seed=1).to_document()
    doc["sites"][1]["values"].pop()
    with pytest.raises(
        ValueError, match=r"^site 1 of the MPS document has 5 values for shape \(2, 3, 1\)$"
    ):
        MPS.from_document(doc)


@pytest.mark.parametrize("sites", [5, "ab", None, {"0": {}}], ids=repr)
def test_from_document_rejects_sites_that_are_not_a_list(sites):
    with pytest.raises(
        ValueError, match="^the sites of the MPS document are not a list$"
    ):
        MPS.from_document({"format": "mps", "sites": sites})


@pytest.mark.parametrize("site", [5, "ab", None, [[1, 2, 1], [1.0, 2.0]]], ids=repr)
def test_from_document_names_the_site_that_is_not_a_mapping(site):
    doc = random_mps(2, (2, 3), (2,), seed=1).to_document()
    doc["sites"][1] = site
    with pytest.raises(ValueError, match="^site 1 of the MPS document is not a mapping$"):
        MPS.from_document(doc)


@pytest.mark.parametrize(
    "shape",
    ["ab", 6, None, [2, "3", 1], [2, 3.0, 1], [2, True, 1], [-2, 3, -1]],
    ids=repr,
)
def test_from_document_names_the_site_whose_shape_is_not_sizes(shape):
    doc = random_mps(2, (2, 3), (2,), seed=1).to_document()
    doc["sites"][1]["shape"] = shape
    with pytest.raises(
        ValueError, match="^site 1 of the MPS document has shape .*, not a list of sizes$"
    ):
        MPS.from_document(doc)


@pytest.mark.parametrize(
    "values", ["ab", [["x"]] * 6, [{}] * 6, [[1.0, 2.0], [3.0]]], ids=repr
)
def test_from_document_names_the_site_whose_values_are_not_numbers(values):
    doc = random_mps(2, (2, 3), (2,), seed=1).to_document()
    doc["sites"][1]["values"] = values
    with pytest.raises(
        ValueError, match="^site 1 of the MPS document has values that are not numbers$"
    ):
        MPS.from_document(doc)


@pytest.mark.parametrize("key", ["values", "shape"])
def test_from_document_names_the_site_missing_a_key(key):
    doc = random_mps(2, (2, 3), (2,), seed=1).to_document()
    del doc["sites"][1][key]
    with pytest.raises(ValueError, match=f"site 1 of the MPS document has no '{key}'"):
        MPS.from_document(doc)


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


def test_environments_join_to_the_batch_values():
    """Left times right environments over every split of the sites."""
    m = random_mps(4, MIXED, (2, 3, 2), seed=4)
    rows = np.indices(MIXED).reshape(4, -1).T
    want = m.evaluate_batch(rows)
    for k in range(5):
        left = m.left_environments(rows[:, :k])
        right = m.right_environments(rows[:, k:])
        np.testing.assert_allclose(np.sum(left * right, axis=1), want, rtol=1e-12)
    assert m.left_environments(rows[:3, :0]).tolist() == [[1.0]] * 3
    with pytest.raises(ValueError, match="site 3: indices outside physical range 2"):
        m.right_environments(np.array([[0, 2]]))
    with pytest.raises(ValueError, match="shape"):
        m.left_environments(np.zeros((1, 5), dtype=int))
