"""Matrix product state container and contraction primitives.

An MPS here is a chain of order-3 real tensors with shapes
``(D_{k-1}, d_k, D_k)``; the first left bond and the last right bond are 1.
Evaluating the chain at a multi-index picks one matrix per site and
multiplies them; summing over all indices contracts every physical leg
with a vector of ones. Both cost O(N d D^2), never O(d^N). A batch of
multi-indices is contracted by one GEMM per site over chunks of rows, each
GEMM holding at most 2^18 values, so 1024 rows at d D = 208 take one.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

_CHAIN_CHUNK = 1 << 18  # Most values one site's GEMM holds in a batch contraction.


class MPS:
    """Immutable matrix product state over finite discrete axes.

    Parameters
    ----------
    tensors:
        Site tensors, each a real array of shape ``(D_left, d, D_right)``.
        Boundary bonds must be 1 and adjacent bonds must match.
    """

    __slots__ = ("_tensors",)

    def __init__(self, tensors: Iterable[np.ndarray]):
        sites = []
        for k, t in enumerate(tensors):
            arr = np.array(t, dtype=np.float64, copy=True)
            if arr.ndim != 3:
                raise ValueError(
                    f"site {k}: expected a rank-3 tensor, got shape {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"site {k}: tensor contains non-finite entries")
            arr.flags.writeable = False
            sites.append(arr)
        if not sites:
            raise ValueError("an MPS needs at least one site")
        if sites[0].shape[0] != 1:
            raise ValueError(
                f"left boundary bond must be 1, got {sites[0].shape[0]}"
            )
        if sites[-1].shape[2] != 1:
            raise ValueError(
                f"right boundary bond must be 1, got {sites[-1].shape[2]}"
            )
        for k in range(len(sites) - 1):
            if sites[k].shape[2] != sites[k + 1].shape[0]:
                raise ValueError(
                    f"bond {k}: right bond {sites[k].shape[2]} of site {k} does not "
                    f"match left bond {sites[k + 1].shape[0]} of site {k + 1}"
                )
        self._tensors = tuple(sites)

    @property
    def tensors(self) -> tuple[np.ndarray, ...]:
        return self._tensors

    @property
    def n_sites(self) -> int:
        return len(self._tensors)

    @property
    def physical_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self._tensors)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """Internal bond dimensions, length ``n_sites - 1``."""
        return tuple(t.shape[2] for t in self._tensors[:-1])

    @property
    def max_bond(self) -> int:
        return max(self.bond_dims, default=1)

    def __len__(self) -> int:
        return len(self._tensors)

    def evaluate_batch(self, indices: np.ndarray) -> np.ndarray:
        """Evaluate many multi-indices at once.

        Each site is one GEMM of the running row vectors with the whole site
        tensor, over row chunks whose GEMM holds at most 2^18 values.

        Parameters
        ----------
        indices:
            Integer or bool array of shape ``(B, n_sites)``.

        Returns
        -------
        Array of shape ``(B,)`` with one value per row.
        """
        idx = _check_indices(indices, self.physical_dims, "all")
        return _chain(self._tensors, idx)[:, 0]

    def left_environments(self, prefixes: np.ndarray) -> np.ndarray:
        """Row vectors of the first k sites at each prefix, shape ``(B, D_k)``.

        ``prefixes`` has shape ``(B, k)`` for any k from 0 to ``n_sites``;
        at k = 0 every row is ``[1.0]``.
        """
        idx = _check_indices(prefixes, self.physical_dims, "leading")
        return _chain(self._tensors[: idx.shape[1]], idx)

    def right_environments(self, suffixes: np.ndarray) -> np.ndarray:
        """Column vectors of the last k sites at each suffix, as rows ``(B, D)``.

        ``suffixes`` has shape ``(B, k)`` for any k from 0 to ``n_sites``;
        at k = 0 every row is ``[1.0]``. So the MPS at ``prefixes[i]`` joined
        with ``suffixes[j]`` is ``(left_environments(prefixes) @
        right_environments(suffixes).T)[i, j]`` when the two cover every site.
        """
        idx = _check_indices(suffixes, self.physical_dims, "trailing")
        k = idx.shape[1]
        flipped = [t.transpose(2, 1, 0) for t in self._tensors[::-1][:k]]
        return _chain(flipped, idx[:, ::-1])

    def sum_all(self) -> float:
        """Sum of the encoded tensor over every index combination."""
        vec = np.ones((1,))
        for t in self._tensors:
            vec = vec @ t.sum(axis=1)
        return float(vec[0])

    def apply_site_matrices(self, mats: Sequence[np.ndarray]) -> "MPS":
        """Apply one matrix to each physical leg.

        ``mats[k]`` must have column count equal to the site's physical
        dimension; the new physical dimension is its row count.
        """
        if len(mats) != self.n_sites:
            raise ValueError(
                f"got {len(mats)} matrices for {self.n_sites} sites"
            )
        new_sites = []
        for k, (m, t) in enumerate(zip(mats, self._tensors)):
            mat = np.asarray(m, dtype=np.float64)
            if mat.ndim != 2 or mat.shape[1] != t.shape[1]:
                raise ValueError(
                    f"site {k}: matrix shape {mat.shape} does not act on "
                    f"physical dimension {t.shape[1]}"
                )
            new_sites.append(np.einsum("pd,ldr->lpr", mat, t, optimize=True))
        return MPS(new_sites)

    def to_document(self) -> dict:
        """Plain-data description: list of sites with shape and row-major values."""
        return {
            "format": "mps",
            "sites": [
                {"shape": list(t.shape), "values": t.ravel(order="C").tolist()}
                for t in self._tensors
            ],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "MPS":
        """The MPS a :meth:`to_document` dump describes; names the first bad site."""
        if not isinstance(doc, dict) or doc.get("format") != "mps" or "sites" not in doc:
            raise ValueError("document is not an MPS dump")
        if not isinstance(doc["sites"], list):
            raise ValueError("the sites of the MPS document are not a list")
        sites = []
        for i, site in enumerate(doc["sites"]):
            if not isinstance(site, dict):
                raise ValueError(f"site {i} of the MPS document is not a mapping")
            for key in ("shape", "values"):
                if key not in site:
                    raise ValueError(f"site {i} of the MPS document has no {key!r}")
            shape = site["shape"]
            if not isinstance(shape, (list, tuple)) or not all(
                type(d) is int and d >= 0 for d in shape
            ):
                raise ValueError(
                    f"site {i} of the MPS document has shape {shape!r}, "
                    f"not a list of sizes"
                )
            try:
                values = np.array(site["values"], dtype=np.float64)
            except (TypeError, ValueError):
                raise ValueError(
                    f"site {i} of the MPS document has values that are not numbers"
                ) from None
            if values.size != math.prod(shape):
                raise ValueError(
                    f"site {i} of the MPS document has {values.size} values "
                    f"for shape {tuple(shape)}"
                )
            sites.append(values.reshape(shape))
        return cls(sites)

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.physical_dims)
        return f"MPS(n_sites={self.n_sites}, dims={dims}, max_bond={self.max_bond})"


def _check_indices(indices, dims: tuple[int, ...], cover: str) -> np.ndarray:
    """Index rows as intp, checked against the physical ``dims``.

    ``cover`` is "all" (one column per site), or "leading" or "trailing"
    (the first or the last k sites, for any k up to all of them).
    """
    idx = np.asarray(indices)
    if idx.dtype.kind not in "biu":  # bool, signed or unsigned int
        raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
    # A bool column would index as a mask; intp suits every accepted dtype.
    idx = idx.astype(np.intp, copy=False)
    n = len(dims)
    k = idx.shape[1] if idx.ndim == 2 else -1
    if not 0 <= k <= n or (cover == "all" and k != n):
        want = f"(B, {n})" if cover == "all" else f"(B, k) with k <= {n}"
        raise ValueError(f"expected index array of shape {want}, got {idx.shape}")
    first = n - k if cover == "trailing" else 0
    if idx.shape[0]:
        for j in range(k):
            col, d = idx[:, j], dims[first + j]
            if col.min() < 0 or col.max() >= d:
                raise ValueError(f"site {first + j}: indices outside physical range {d}")
    return idx


def _chain(tensors: Sequence[np.ndarray], idx: np.ndarray) -> np.ndarray:
    """Row vectors of the site matrices picked by each index row, multiplied.

    Shape (B, D), with D the right bond of the last tensor (1 if none). Past
    the first site, picked per row, each site is one GEMM with its tensor's
    ``(D_l, d D_r)`` unfolding, and each row keeps its own physical value's
    D_r columns. Rows go in chunks whose GEMM holds at most _CHAIN_CHUNK values.
    """
    if not tensors:
        return np.ones((idx.shape[0], 1))
    step = max(1, _CHAIN_CHUNK // max(t.shape[1] * t.shape[2] for t in tensors))
    chunks = []
    for rows in np.split(idx, range(step, idx.shape[0], step)):
        at = np.arange(rows.shape[0])
        cur = tensors[0][0, rows[:, 0]]
        for t, col in zip(tensors[1:], rows[:, 1:].T):
            cur = (cur @ t.reshape(t.shape[0], -1)).reshape(at.size, *t.shape[1:])[at, col]
        chunks.append(cur)
    return np.concatenate(chunks)
