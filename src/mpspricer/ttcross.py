"""Tensor-train cross approximation of black-box functions on product grids.

The approximation never sees the full tensor. It keeps, per internal bond,
a set of left pivot prefixes and right pivot suffixes, sweeps over bonds
DMRG-style refining them with maxvol, and finally assembles cores in
interpolative (CUR) form ``f(I_k, x, J_{k+1}) @ inv(f(I_{k+1}, J_{k+1}))``.
That form reproduces f exactly at the retained cross tuples even when the
bond budget truncates. A grid small enough that one superblock at the bond
budget would hold all of it is instead evaluated once and compressed by
TT-SVD, which is exact up to the budget's truncation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .mps import MPS

N_PROBE = 1024
_RANK_RTOL = 1e-14
_DEFICIENCY_RTOL = 1e-12
_MEMO_RECENT = 2**15


@dataclass(frozen=True)
class GridFunction:
    """Real function on a product grid, evaluated in batches.

    ``evaluate`` takes an int array of shape (B, n_axes), one grid index
    per row, and returns a float array of shape (B,). It must be pure:
    the sweep logic assumes repeated evaluation gives identical values.
    """

    dims: tuple[int, ...]
    evaluate: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CrossConfig:
    """Budget and stopping knobs for :func:`ttcross_approximate`."""

    max_bond: int
    n_sweeps: int = 8
    tol: float = 1e-10
    seed: int = 0
    batch_cap: int = 2**18

    def __post_init__(self):
        if self.max_bond < 1:
            raise ValueError(f"max_bond must be >= 1, got {self.max_bond}")
        if self.n_sweeps < 1:
            raise ValueError(f"n_sweeps must be >= 1, got {self.n_sweeps}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.batch_cap < 1:
            raise ValueError(f"batch_cap must be >= 1, got {self.batch_cap}")


@dataclass
class CrossResult:
    """Output of a cross run: the MPS plus the pivots that define it.

    ``n_evals`` counts the distinct grid points sent to the grid function;
    a run evaluates each point at most once. When one superblock at the
    bond budget would already hold every grid point, the run evaluates the
    grid once and compresses it by TT-SVD instead of sweeping: the pivot
    lists are then empty, ``n_sweeps_run`` is 0 and ``converged`` is True.
    """

    mps: MPS
    left_pivots: list[list[tuple[int, ...]]]
    right_pivots: list[list[tuple[int, ...]]]
    n_evals: int
    n_sweeps_run: int
    converged: bool
    warnings: list[str] = field(default_factory=list)


def maxvol(
    mat: np.ndarray, dominance_tol: float = 0.01, max_iters: int = 100
) -> np.ndarray:
    """Select rows of a tall matrix with quasi-maximal volume.

    Returns r row indices of the (n, r) input such that every entry of
    ``mat @ inv(mat[rows])`` has magnitude at most ``1 + dominance_tol``.
    Raises on rank-deficient input; warns when the swap loop hits the
    iteration cap and returns the best rows found.
    """
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    n, r = m.shape
    if r < 1 or n < r:
        raise ValueError(f"need n >= r >= 1, got shape {m.shape}")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= _DEFICIENCY_RTOL * sv[0]:
        raise ValueError(
            "rank-deficient input: smallest singular value "
            f"{sv[-1]:.3e} vs largest {sv[0]:.3e}"
        )
    rows, converged = _maxvol_iter(m, dominance_tol, max_iters)
    if not converged:
        warnings.warn(
            f"maxvol did not converge within {max_iters} iterations",
            RuntimeWarning,
            stacklevel=2,
        )
    return rows


def _maxvol_iter(
    mat: np.ndarray, dominance_tol: float, max_iters: int
) -> tuple[np.ndarray, bool]:
    """Swap loop behind :func:`maxvol`; input must have full column rank."""
    n, r = mat.shape
    if n == r:
        return np.arange(n), True
    # Pivoted QR of the transpose ranks rows by leverage for the start set.
    _, _, piv = scipy.linalg.qr(mat.T, mode="economic", pivoting=True)
    rows = np.array(piv[:r], dtype=np.intp)
    sub = mat[rows]
    # numpy's solve keeps the loop on the BLAS its SVDs use; scipy ships its
    # own, and alternating the two thread pools costs more than the solve.
    b = np.linalg.solve(sub.T, mat.T).T  # mat @ inv(sub)
    for _ in range(max_iters):
        i, j = np.unravel_index(np.argmax(np.abs(b)), b.shape)
        if abs(b[i, j]) <= 1.0 + dominance_tol:
            return rows, True
        # Replace pivot j by row i; rank-1 update keeps b = mat @ inv(sub).
        col = b[:, j].copy()
        row = b[i, :].copy()
        row[j] -= 1.0
        b -= np.outer(col, row) / b[i, j]
        rows[j] = i
    return rows, False


def _numrank(s: np.ndarray) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > _RANK_RTOL * s[0]))


def _prefix_times_phys(prefixes: np.ndarray, d: int) -> np.ndarray:
    """All (prefix, x) rows, prefix-major so row a*d + x extends prefix a."""
    r, k = prefixes.shape
    out = np.empty((r * d, k + 1), dtype=np.int64)
    out[:, :k] = np.repeat(prefixes, d, axis=0)
    out[:, k] = np.tile(np.arange(d), r)
    return out


def _phys_times_suffix(d: int, suffixes: np.ndarray) -> np.ndarray:
    """All (x, suffix) columns, x-major so column x*r + j extends suffix j."""
    r, k = suffixes.shape
    out = np.empty((d * r, k + 1), dtype=np.int64)
    out[:, 0] = np.repeat(np.arange(d), r)
    out[:, 1:] = np.tile(suffixes, (d, 1))
    return out


def _key_strides(dims: tuple[int, ...]) -> np.ndarray | None:
    """Mixed-radix strides of the grid as uint64, or None past 2^64 points.

    A stride of exactly 2^64 wraps to 0, which is harmless: only leading
    axes of size 1, whose index is always 0, have one.
    """
    if math.prod(dims) > 2**64:
        return None
    return np.cumprod((dims[1:] + (1,))[::-1], dtype=np.uint64)[::-1]


def _row_keys(idx: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """One sortable key per grid row: its mixed-radix position, else its bytes."""
    strides = _key_strides(dims)
    if strides is not None:
        # Cast first: int64 @ uint64 would promote to float.
        return idx.astype(np.uint64) @ strides
    rows = np.ascontiguousarray(idx, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * len(dims)))).ravel()


def _cross_indices(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    nr, kr = rows.shape
    nc, kc = cols.shape
    out = np.empty((nr * nc, kr + kc), dtype=np.int64)
    out[:, :kr] = np.repeat(rows, nc, axis=0)
    out[:, kr:] = np.tile(cols, (nr, 1))
    return out


def _block_keys(
    rows: np.ndarray, cols: np.ndarray, dims: tuple[int, ...]
) -> np.ndarray:
    """Row keys of every (row, col) pair of a block, row-major.

    Equal to ``_row_keys`` of the joined index rows. A position is a
    prefix's key plus a suffix's key, so the block's keys are an outer
    sum and no joined row is built, except past 2^64 grid points.
    """
    strides = _key_strides(dims)
    if strides is None:
        return _row_keys(_cross_indices(rows, cols), dims)
    k = rows.shape[1]
    return np.add.outer(
        rows.astype(np.uint64) @ strides[:k], cols.astype(np.uint64) @ strides[k:]
    ).ravel()


def _merge(
    run: tuple[np.ndarray, np.ndarray], keys: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A sorted (keys, values) run with sorted keys absent from it added."""
    pos = np.searchsorted(run[0], keys)
    return np.insert(run[0], pos, keys), np.insert(run[1], pos, vals)


class _CrossRun:
    """One seeded cross-approximation run over a fixed grid function."""

    def __init__(self, f: GridFunction, cfg: CrossConfig):
        dims = tuple(int(d) for d in f.dims)
        if len(dims) == 0:
            raise ValueError("grid function needs at least one axis")
        if any(d < 1 for d in dims):
            raise ValueError(f"every axis needs dimension >= 1, got {dims}")
        self.f = f
        self.cfg = cfg
        self.dims = dims
        self.n = len(dims)
        self.n_evals = 0
        self.warnings: list[str] = []
        # Memo of every grid value this run has seen, as sorted runs of
        # (keys, values): a large one, and a small one of recent points.
        # New points go into the small run, which is merged into the large
        # one once it holds more than _MEMO_RECENT, so an insert copies
        # the small run and not the whole memo.
        empty = _row_keys(np.zeros((0, self.n), np.int64), dims)
        self._memo = [(empty, np.zeros(0)), (empty, np.zeros(0))]
        self.rng = np.random.default_rng(cfg.seed)
        self.probes = self.rng.integers(
            0, np.array(dims, dtype=np.int64), size=(N_PROBE, self.n)
        )
        # iset[k]: (r, k) prefixes over axes 0..k-1; jset[k]: (r, n-k) suffixes.
        self.iset: list[np.ndarray] = [np.zeros((1, 0), dtype=np.int64)] + [
            None
        ] * self.n
        self.jset: list[np.ndarray | None] = [None] * self.n + [
            np.zeros((1, 0), dtype=np.int64)
        ]
        for k in range(self.n - 1, 0, -1):
            self.jset[k] = self._sample_suffixes(k)

    def _sample_suffixes(self, k: int) -> np.ndarray:
        """Random nested right pivots for bond k, built on top of jset[k+1]."""
        nxt = self.jset[k + 1]
        total = self.dims[k] * nxt.shape[0]
        size = min(self.cfg.max_bond, total)
        picks = np.sort(self.rng.choice(total, size=size, replace=False))
        out = np.empty((size, self.n - k), dtype=np.int64)
        out[:, 0] = picks // nxt.shape[0]
        out[:, 1:] = nxt[picks % nxt.shape[0]]
        return out

    def _eval(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Grid values on the block of prefixes ``rows`` by suffixes ``cols``.

        Returns shape (len(rows), len(cols)). Both sets hold distinct rows,
        so the block's keys are distinct. Only points new to the run reach
        f, once each, in chunks of at most batch_cap.
        """
        nc = cols.shape[0]
        keys = _block_keys(rows, cols, self.dims)
        order = np.argsort(keys)
        keys = keys[order]
        vals = np.empty(keys.shape[0])
        known = np.zeros(keys.shape[0], dtype=bool)
        for run_keys, run_vals in self._memo:
            pos = np.searchsorted(run_keys, keys)
            hit = pos < run_keys.shape[0]
            hit[hit] = run_keys[pos[hit]] == keys[hit]
            vals[hit] = run_vals[pos[hit]]
            known |= hit
        new = np.flatnonzero(~known)
        if new.size:
            r, c = np.divmod(order[new], nc)
            points = np.concatenate([rows[r], cols[c]], axis=1)
            cap = self.cfg.batch_cap
            vals[new] = np.concatenate(
                [
                    np.asarray(self.f.evaluate(points[i : i + cap]), dtype=np.float64)
                    for i in range(0, points.shape[0], cap)
                ]
            )
            self.n_evals += new.size
            self._remember(keys[new], vals[new])
        out = np.empty(keys.shape[0])
        out[order] = vals
        return out.reshape(rows.shape[0], nc)

    def _remember(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Add sorted keys that are new to the memo, with their values."""
        big, recent = self._memo
        recent = _merge(recent, keys, vals)
        if recent[0].shape[0] > _MEMO_RECENT:
            big = _merge(big, *recent)
            recent = (recent[0][:0], recent[1][:0])
        self._memo = [big, recent]

    def _superblock(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = _prefix_times_phys(self.iset[p], self.dims[p])
        cols = _phys_times_suffix(self.dims[p + 1], self.jset[p + 2])
        return self._eval(rows, cols), rows, cols

    def _sweep_l2r(self) -> None:
        for p in range(self.n - 1):
            phi, rows, _ = self._superblock(p)
            u, s, _ = np.linalg.svd(phi, full_matrices=False)
            r = min(self.cfg.max_bond, _numrank(s))
            if r == 0:
                self.iset[p + 1] = rows[:1]
                continue
            sel, ok = _maxvol_iter(u[:, :r], 0.01, 100)
            if not ok:
                self.warnings.append(f"maxvol hit iteration cap at bond {p + 1}")
            self.iset[p + 1] = rows[sel]

    def _sweep_r2l(self) -> None:
        """Rebuild right pivots; keeps each bond square against the left set."""
        for p in range(self.n - 2, -1, -1):
            phi, rows, cols = self._superblock(p)
            u, s, vh = np.linalg.svd(phi, full_matrices=False)
            r_target = self.iset[p + 1].shape[0]
            r = min(r_target, _numrank(s))
            if r == 0:
                self.iset[p + 1] = rows[:1]
                self.jset[p + 1] = cols[:1]
                continue
            if r < r_target:
                # Numerical rank fell below the left set size; reselect the
                # left pivots at the smaller rank so the cross matrix stays
                # invertible.
                self.warnings.append(
                    f"rank dropped to {r} at bond {p + 1} on the backward pass"
                )
                sel, _ = _maxvol_iter(u[:, :r], 0.01, 100)
                self.iset[p + 1] = rows[sel]
            sel, ok = _maxvol_iter(vh[:r, :].T, 0.01, 100)
            if not ok:
                self.warnings.append(f"maxvol hit iteration cap at bond {p + 1}")
            self.jset[p + 1] = cols[sel]

    def _assemble(self) -> MPS:
        cores = []
        for k in range(self.n):
            left = self.iset[k]
            right = self.jset[k + 1]
            vals = self._eval(_prefix_times_phys(left, self.dims[k]), right)
            if k == self.n - 1:
                core = vals.reshape(left.shape[0], self.dims[k], 1)
            elif not vals.any():
                # A zero block gives a zero core whatever the cross matrix.
                # That matrix is normally rows of this block, so it is zero
                # too, and solving it would only warn of a harmless singularity.
                core = np.zeros((left.shape[0], self.dims[k], right.shape[0]))
            else:
                fmat = self._eval(self.iset[k + 1], right)
                try:
                    core = np.linalg.solve(fmat.T, vals.T).T
                except np.linalg.LinAlgError:
                    self.warnings.append(
                        f"singular cross matrix at bond {k + 1}, used least squares"
                    )
                    core = np.linalg.lstsq(fmat.T, vals.T, rcond=None)[0].T
                core = core.reshape(left.shape[0], self.dims[k], -1)
            cores.append(core)
        return MPS(cores)

    def _spans_grid(self) -> bool:
        """Whether one superblock at the bond budget holds every grid point."""
        cap = self.cfg.max_bond
        dims = self.dims
        return self.n == 1 or any(
            min(cap, math.prod(dims[:p]))
            * dims[p]
            * dims[p + 1]
            * min(cap, math.prod(dims[p + 2 :]))
            >= math.prod(dims)
            for p in range(self.n - 1)
        )

    def _tt_svd(self) -> MPS:
        """Evaluate the whole grid once and compress it by TT-SVD.

        Each bond keeps its numerical rank, at most max_bond and at least 1.
        """
        grid = np.indices(self.dims).reshape(self.n, -1).T
        rest = self._eval(np.zeros((1, 0), dtype=np.int64), grid)
        cores = []
        for d in self.dims[:-1]:
            u, s, vh = np.linalg.svd(
                rest.reshape(rest.shape[0] * d, -1), full_matrices=False
            )
            r = max(1, min(self.cfg.max_bond, _numrank(s)))
            cores.append(u[:, :r].reshape(-1, d, r))
            rest = s[:r, None] * vh[:r]
        cores.append(rest.reshape(-1, self.dims[-1], 1))
        return MPS(cores)

    def run(self) -> CrossResult:
        if self._spans_grid():
            return CrossResult(
                mps=self._tt_svd(),
                left_pivots=[],
                right_pivots=[],
                n_evals=self.n_evals,
                n_sweeps_run=0,
                converged=True,
                warnings=self.warnings,
            )
        prev = None
        mps = None
        converged = False
        sweeps_run = 0
        for _ in range(self.cfg.n_sweeps):
            self._sweep_l2r()
            self._sweep_r2l()
            sweeps_run += 1
            mps = self._assemble()
            vals = mps.evaluate_batch(self.probes)
            if prev is not None:
                scale = max(np.max(np.abs(vals)), np.max(np.abs(prev)))
                if scale == 0.0 or np.max(np.abs(vals - prev)) <= self.cfg.tol * scale:
                    converged = True
                    break
            prev = vals
        if not converged:
            self.warnings.append("sweep cap reached before probe tolerance")
        return CrossResult(
            mps=mps,
            left_pivots=[
                [tuple(row) for row in self.iset[k]] for k in range(1, self.n)
            ],
            right_pivots=[
                [tuple(row) for row in self.jset[k]] for k in range(1, self.n)
            ],
            n_evals=self.n_evals,
            n_sweeps_run=sweeps_run,
            converged=converged,
            warnings=self.warnings,
        )


def ttcross_approximate(f: GridFunction, cfg: CrossConfig) -> CrossResult:
    """Approximate a grid function by an MPS with bond at most cfg.max_bond.

    Sweeps alternate left-to-right (left pivot refinement) and
    right-to-left (right pivot refinement) until values at a fixed seeded
    probe set of 1024 indices change by less than cfg.tol relative, or the
    sweep cap is reached (flagged in the result warnings). A grid that one
    superblock would span is compressed by TT-SVD without sweeping.
    """
    return _CrossRun(f, cfg).run()
