"""Tensor-train cross approximation of black-box functions on product grids.

The approximation never sees the full tensor. It keeps, per internal bond,
left pivot prefixes I_k and right pivot suffixes J_k, and sweeps DMRG-style
(Savostyanov & Oseledets 2011) over superblocks ``f(I_p x, x J_{p+2})``:
maxvol on a basis of each one's leading singular subspaces picks the next
pivots. The left-to-right sweep also builds the MPS: core p is
``U @ inv(U[sel])`` for a basis U of the leading left singular subspace
and its maxvol rows sel, so its entries stay within 1.01 when maxvol
converges, and the last core is the last superblock's rows sel. The MPS
equals f at the last bond's left pivots times the last axis. Cores and
pivots depend on the subspaces, not on the basis, so a superblock is
factored by one eigendecomposition of its smaller Gram matrix where the
singular values it keeps, and the next one, are clear of round-off, and
by SVD elsewhere. A superblock whose pivot sets are unchanged since it
was last factored is neither evaluated nor factored again, so the sweep
turnarounds reuse their end superblocks and a confirming sweep, whose
pivots no longer move, costs no factorization. A grid of at most 2^18
values, or one that one superblock at the bond budget would hold, is
instead evaluated once and compressed by TT-SVD (Oseledets 2011), each
unfolding factored as a superblock is; below that size TT-SVD is both
faster and closer than the sweeps, so only larger grids are swept. Every
superblock is asked of the grid function as one block of row prefixes by
column suffixes. A function that separates across the cut gives a
``block`` that builds it from one factor per row and one per column, and
is then asked for nothing else; any other is evaluated point by point.
No value is remembered between blocks.

:func:`grid_blocks` is the one walk over a whole grid: the TT-SVD and the
dense basket oracle enumerate their grids through it, in blocks of at most
2^16 values.

Everything here runs on numpy except maxvol's pivoted-QR start, which
imports ``scipy.linalg`` on first use, so a TT-SVD grid, every grid of at
most 2^18 values among them, and every engine that sweeps no cross never
load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .binomial import check_int
from .mps import MPS

N_PROBE = 1024
_RANK_RTOL = 1e-14
# Least share of the largest Gram eigenvalue that the one after the r kept
# (the r-th, if none follows) must exceed for _factor to skip the SVD.
_GRAM_RTOL = 1e-12
# A run whose held-out residual exceeds this warns: f was not learned.
_HELDOUT_WARN = 0.1
# A grid of at most this many values (2 MiB of float64) is evaluated once and
# compressed by TT-SVD, which beat the sweeps at every bond from 2 to 64 on
# such grids, and more accurately; only larger grids are swept.
_TT_SVD_MAX = 1 << 18
# Most grid values asked of a grid function in one call: the points of one
# pointwise call, and the values of one block of a whole-grid walk.
_CHUNK = 1 << 16
# A sweeping run stops converged once its probe change is at most _TOL, and
# unconverged once a sweep fails to cut the change by _PLATEAU or after
# _MAX_SWEEPS sweeps. _TOL is a stop rule, not an accuracy target.
_TOL = 1e-10
_PLATEAU = 0.5
_MAX_SWEEPS = 8
# maxvol stops once no entry of mat @ inv(mat[rows]) exceeds 1 + _DOMINANCE
# in magnitude, or after _MAXVOL_ITERS swaps.
_DOMINANCE = 0.01
_MAXVOL_ITERS = 100
# The one index over zero axes: as the columns of a block, its rows alone.
_NO_AXES = np.zeros((1, 0), np.int64)


@dataclass(frozen=True)
class GridFunction:
    """Real function on a product grid, evaluated in blocks or point by point.

    ``block``, when given, takes prefixes (R, k) over the first k axes and
    suffixes (C, n_axes - k) over the rest, either side possibly over no
    axes, and returns the (R, C) values at every prefix joined with every
    suffix; the cross then calls it alone. ``evaluate`` takes an int array
    (B, n_axes), one grid index per row, and returns (B,) values. With a
    block it must agree with ``block(points, _NO_AXES)[:, 0]`` up to
    round-off; the Asian integrand's is exactly that. Both must be pure:
    the sweep logic assumes repeated evaluation gives the same values.
    """

    dims: tuple[int, ...]
    evaluate: Callable[[np.ndarray], np.ndarray]
    block: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class CrossConfig:
    """Bond budget and seed of :func:`ttcross_approximate`.

    The seed draws the probes and the first right pivots. The stop rule is
    fixed, not configured: see :func:`ttcross_approximate`.
    """

    max_bond: int
    seed: int = 0

    def __post_init__(self):
        check_int("max_bond", self.max_bond, 1)
        check_int("seed", self.seed, 0)


@dataclass
class CrossResult:
    """Output of a cross run: the MPS, its pivots and how the run stopped.

    ``n_evals`` counts the grid values computed, a point asked for twice
    counted twice; a sweeping run's held-out probes add 1024, and a TT-SVD
    run reads them from its grid. ``converged`` means the probe values
    stopped moving, not that the MPS matches f: a cross that never sees
    part of f can settle far from it. ``probe_changes`` holds, per sweep
    after the first, the MPS's largest change on the stopping probes
    relative to their largest value. ``stop_reason`` is "tol" (a change at
    most 1e-10, the one ``converged`` stop of a sweeping run), "plateau" (a
    change above half the one before), "cap" (8 sweeps ran out) or
    "tt-svd" (the grid holds at most 2^18 values, or one superblock would
    hold it, so it was compressed by TT-SVD with no pivots and 0 sweeps).
    ``heldout_residual`` is max|f - mps| / max|f| on 1024 probes drawn
    apart from the stopping ones (max|mps| if f is 0 there); above 0.1 it
    adds a warning, whatever the stop reason.
    """

    mps: MPS
    left_pivots: list[list[tuple[int, ...]]]
    right_pivots: list[list[tuple[int, ...]]]
    n_evals: int
    n_sweeps_run: int
    converged: bool
    probe_changes: list[float]
    stop_reason: str
    heldout_residual: float
    warnings: list[str] = field(default_factory=list)


def _maxvol_iter(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Quasi-maximal-volume rows of an (n, r) matrix of full column rank.

    Returns the rows, ``mat @ inv(mat[rows])`` and whether its entries came
    within 1 + _DOMINANCE in magnitude before _MAXVOL_ITERS swaps. Both
    depend on mat's column span alone, given the same start; the start
    ranks rows by their norms, which are leverage scores when mat is
    orthonormal, so round-off in the basis can break exact ties.
    """
    n, r = mat.shape
    if n == r:
        return np.arange(n), np.eye(n), True
    # Pivoted QR of the transpose ranks rows by leverage; only pivots are kept.
    # numpy has no pivoted QR; imported here so only a sweeping cross loads scipy.
    import scipy.linalg

    _, piv = scipy.linalg.qr(mat.T, mode="r", pivoting=True)
    rows = np.array(piv[:r], dtype=np.intp)
    sub = mat[rows]
    # The solve and the SVDs stay on numpy: once a cross has loaded scipy, its
    # BLAS thread pool sits beside numpy's, and alternating calls between the
    # two pools ran ~10x slower than either alone on a 2-core host.
    b = np.linalg.solve(sub.T, mat.T).T  # mat @ inv(sub)
    converged = False
    for _ in range(_MAXVOL_ITERS):
        i, j = np.unravel_index(np.argmax(np.abs(b)), b.shape)
        if abs(b[i, j]) <= 1.0 + _DOMINANCE:
            converged = True
            break
        # Replace pivot j by row i; rank-1 update keeps b = mat @ inv(sub).
        col = b[:, j].copy()
        row = b[i, :].copy()
        row[j] -= 1.0
        b -= np.outer(col, row) / b[i, j]
        rows[j] = i
    # The selected rows interpolate exactly, free of update round-off.
    b[rows] = np.eye(r)
    return rows, b, converged


def _cross_indices(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Every (row, col) pair joined into one grid index, row-major."""
    nr, kr = rows.shape
    nc, kc = cols.shape
    out = np.empty((nr * nc, kr + kc), dtype=np.int64)
    out[:, :kr] = np.repeat(rows, nc, axis=0)
    out[:, kr:] = np.tile(cols, (nr, 1))
    return out


def _block_values(f: GridFunction, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """f on every prefix in ``rows`` joined with every suffix in ``cols``.

    Returns shape (len(rows), len(cols)): ``f.block`` if f has one, else
    ``f.evaluate`` on the joined points, at most _CHUNK of them per call.
    """
    if f.block is not None:
        return np.asarray(f.block(rows, cols), dtype=np.float64)
    points = _cross_indices(rows, cols)
    chunks = range(0, points.shape[0], _CHUNK)
    vals = [f.evaluate(points[i : i + _CHUNK]) for i in chunks]
    return np.concatenate(vals, dtype=np.float64).reshape(rows.shape[0], -1)


def _labels(dims: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """Row-major grid indices number start..stop-1 over axes of sizes ``dims``."""
    strides = [math.prod(dims[i + 1 :]) for i in range(len(dims))]
    radix = np.array(dims, dtype=np.int64)
    return np.arange(start, stop)[:, None] // np.array(strides, dtype=np.int64) % radix


def grid_blocks(f: GridFunction, start: int = 0, stop: int | None = None) -> Iterator[np.ndarray]:
    """f's grid values number start..stop-1 in row-major order, as consecutive (R, C) blocks.

    By default every value. The columns are every suffix over the trailing
    axes that together hold at most isqrt(_CHUNK) points, possibly none of
    them; each block's rows are the next prefixes over the leading axes, at
    most _CHUNK // C of them, so start and stop must be multiples of C. No
    block holds more than _CHUNK values, and a separable block's per-row
    and per-column work stays balanced. Blocks go through
    :func:`_block_values`, so f may be pointwise only.
    """
    dims = tuple(int(d) for d in f.dims)
    cut = len(dims)
    while cut and math.prod(dims[cut - 1 :]) <= math.isqrt(_CHUNK):
        cut -= 1
    cols = _labels(dims[cut:], 0, math.prod(dims[cut:]))
    n_cols = cols.shape[0]
    n_rows = math.prod(dims[:cut]) if stop is None else stop // n_cols
    step = _CHUNK // n_cols
    for first in range(start // n_cols, n_rows, step):
        rows = _labels(dims[:cut], first, min(first + step, n_rows))
        yield _block_values(f, rows, cols)


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
        # iset[k]: (r, k) prefixes over axes 0..k-1; jset[k]: (r, n-k) suffixes,
        # the first right pivots drawn by run() if it sweeps.
        self.iset: list = [_NO_AXES] + [None] * self.n
        self.jset: list = [None] * self.n + [_NO_AXES]
        # Per superblock p: the key (iset[p], jset[p+2]) it was last factored
        # at, and its bases U and Vh from _factor.
        self._slots: list = [(None,)] * (self.n - 1)

    def _sample_suffixes(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Random nested right pivots for bond k, built on top of jset[k+1]."""
        cols = _cross_indices(np.arange(self.dims[k])[:, None], self.jset[k + 1])
        size = min(self.cfg.max_bond, cols.shape[0])
        return cols[np.sort(rng.choice(cols.shape[0], size=size, replace=False))]

    def _eval(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """:func:`_block_values` of f, counted in ``n_evals``."""
        self.n_evals += rows.shape[0] * cols.shape[0]
        return _block_values(self.f, rows, cols)

    def _superblock(self, p: int) -> tuple[np.ndarray, ...]:
        """Rows, columns and :meth:`_factor` bases U, Vh of superblock p.

        The superblock depends only on iset[p] and jset[p+2]. While both hold
        the bytes they had when it was last factored (each set has a fixed
        column count per bond, so equal bytes are equal arrays), the stored
        bases are returned and neither f nor the factorization is called.
        """
        rows = _cross_indices(self.iset[p], np.arange(self.dims[p])[:, None])
        cols = _cross_indices(np.arange(self.dims[p + 1])[:, None], self.jset[p + 2])
        key = (self.iset[p].tobytes(), self.jset[p + 2].tobytes())
        if self._slots[p][0] != key:
            u, _, vh = self._factor(self._eval(rows, cols))
            self._slots[p] = key, (u, vh)
        return rows, cols, *self._slots[p][1]

    def _factor(self, block: np.ndarray) -> tuple[np.ndarray, ...]:
        """Bases U (R, r) and Vh (r, C) of a block's leading singular subspaces,
        with the r singular values s between them, as ``np.linalg.svd`` orders.

        r = min(max_bond, R, C). With B the block, or its transpose if the
        block is tall, the top r eigenvectors V of B @ B.T are one side,
        s = sqrt(lambda) and ``B.T @ V / s`` the other; only their spans
        matter, and V's is off by about eps lambda_1 / (lambda_r - lambda_r+1).
        This is taken when sigma_r+1 (sigma_r if r = min(R, C)) > 1e-6
        sigma_1, so :meth:`_rank` keeps r too and the block is not of exact
        rank r, whose SVD bases are exact to round-off. Any other block, such
        as an all-zero one, is factored by SVD (which raises on a NaN) at
        :meth:`_rank`'s rank. On every path ``s[:, None] * Vh`` is
        ``U.T @ block``, without the round-off of applying a U that is
        orthonormal only to about eps lambda_1 / lambda_r, as U is when the
        block is tall and V is Vh.
        """
        r = min(self.cfg.max_bond, *block.shape)
        wide = block.shape[0] <= block.shape[1]
        b = block if wide else block.T
        lam, vecs = np.linalg.eigh(b @ b.T)
        # Ascending eigenvalues: this is lambda_r+1, or lambda_r if r = b's rows.
        if lam[-min(r + 1, lam.size)] > _GRAM_RTOL * lam[-1]:
            # Leading first, copied so a slot does not hold every eigenvector.
            gram_side = vecs[:, ::-1][:, :r].copy()
            s = np.sqrt(lam[::-1][:r])
            other = b.T @ gram_side / s
            return (gram_side, s, other.T) if wide else (other, s, gram_side.T)
        u, s, vh = np.linalg.svd(block, full_matrices=False)
        r = self._rank(s)
        # Copies, so a slot does not hold the untruncated factors.
        return u[:, :r].copy(), s[:r], vh[:r].copy()

    def _pivots(self, p: int, side: int) -> tuple[np.ndarray, ...]:
        """Superblock p's rows, columns, maxvol rows sel of its U (side 0) or
        Vh.T (side 1) and ``basis @ inv(basis[sel])``.
        """
        rows, cols, u, vh = self._superblock(p)
        sel, coeffs, ok = _maxvol_iter(u if side == 0 else vh.T)
        if not ok:
            self.warnings.append(f"maxvol hit iteration cap at bond {p + 1}")
        return rows, cols, sel, coeffs

    def _rank(self, s: np.ndarray) -> int:
        """Numerical rank of descending singular values, within 1..max_bond."""
        rank = int(np.count_nonzero(s > _RANK_RTOL * s[0]))
        return max(1, min(self.cfg.max_bond, rank))

    def _sweep_l2r(self) -> MPS:
        """Refine the left pivots and build the MPS from the same superblocks."""
        cores = []
        for p in range(self.n - 1):
            rows, cols, sel, core = self._pivots(p, 0)
            cores.append(core.reshape(self.iset[p].shape[0], self.dims[p], -1))
            self.iset[p + 1] = rows[sel]
        cores.append(self._eval(rows[sel], cols).reshape(-1, self.dims[-1], 1))
        return MPS(cores)

    def _sweep_r2l(self) -> None:
        """Refine the right pivots from the leading right singular subspaces."""
        for p in range(self.n - 2, -1, -1):
            _, cols, sel, _ = self._pivots(p, 1)
            self.jset[p + 1] = cols[sel]

    def _spans_grid(self) -> bool:
        """Whether the grid holds at most _TT_SVD_MAX values, or one superblock
        at the bond budget holds every grid point."""
        cap = self.cfg.max_bond
        dims = self.dims
        return self.n == 1 or math.prod(dims) <= _TT_SVD_MAX or any(
            min(cap, math.prod(dims[:p]))
            * dims[p]
            * dims[p + 1]
            * min(cap, math.prod(dims[p + 2 :]))
            >= math.prod(dims)
            for p in range(self.n - 1)
        )

    def _tt_svd(self) -> tuple[MPS, np.ndarray]:
        """Evaluate the whole grid once and compress it by TT-SVD.

        Returns the MPS and the grid, the row-major concatenation of
        :func:`grid_blocks`. Each unfolding's basis U, and so its rank, comes
        from :meth:`_factor`, and what is left to factor is s * Vh.
        """
        grid = np.concatenate([b.ravel() for b in grid_blocks(self.f)])
        self.n_evals += grid.size
        rest, cores = grid[None], []
        for d in self.dims[:-1]:
            u, s, vh = self._factor(rest.reshape(rest.shape[0] * d, -1))
            cores.append(u.reshape(-1, d, u.shape[1]))
            rest = s[:, None] * vh
        cores.append(rest.reshape(-1, self.dims[-1], 1))
        return MPS(cores), grid

    def _heldout_residual(self, mps: MPS, grid: np.ndarray | None) -> float:
        """max|f - mps| / max|f| on probes independent of the stopping ones.

        f is read from ``grid``, the whole row-major grid, when there is one.
        """
        rng = np.random.default_rng(np.random.SeedSequence(self.cfg.seed).spawn(1)[0])
        probes = rng.integers(0, np.array(self.dims), size=(N_PROBE, self.n))
        if grid is None:
            want = self._eval(probes, _NO_AXES)[:, 0]
        else:
            want = grid[np.ravel_multi_index(tuple(probes.T), self.dims)]
        err = float(np.max(np.abs(mps.evaluate_batch(probes) - want)))
        scale = float(np.max(np.abs(want)))
        return err / scale if scale > 0.0 else err

    def _result(
        self, mps: MPS, sweeps: int, changes: list, stop: str, grid: np.ndarray | None = None
    ) -> CrossResult:
        """The run's CrossResult; a TT-SVD run passes its grid and reports no pivots."""
        residual = self._heldout_residual(mps, grid)
        if residual > _HELDOUT_WARN:
            self.warnings.append(
                f"held-out residual {residual:.3e} exceeds {_HELDOUT_WARN}"
            )
        bonds = range(1, self.n) if sweeps else ()
        return CrossResult(
            mps=mps,
            left_pivots=[[tuple(row) for row in self.iset[k]] for k in bonds],
            right_pivots=[[tuple(row) for row in self.jset[k]] for k in bonds],
            n_evals=self.n_evals,
            n_sweeps_run=sweeps,
            converged=stop in ("tol", "tt-svd"),
            probe_changes=changes,
            stop_reason=stop,
            heldout_residual=residual,
            warnings=self.warnings,
        )

    def run(self) -> CrossResult:
        if self._spans_grid():
            mps, grid = self._tt_svd()
            return self._result(mps, 0, [], "tt-svd", grid)
        rng = np.random.default_rng(self.cfg.seed)
        probes = rng.integers(0, np.array(self.dims, dtype=np.int64), size=(N_PROBE, self.n))
        for k in range(self.n - 1, 0, -1):
            self.jset[k] = self._sample_suffixes(k, rng)
        changes: list[float] = []
        stop = "cap"
        prev = None
        for sweeps in range(1, _MAX_SWEEPS + 1):
            if sweeps > 1:
                self._sweep_r2l()
            mps = self._sweep_l2r()
            vals = mps.evaluate_batch(probes)
            if prev is not None:
                scale = float(max(np.max(np.abs(vals)), np.max(np.abs(prev))))
                diff = float(np.max(np.abs(vals - prev)))
                changes.append(diff / scale if scale > 0.0 else 0.0)
                if changes[-1] <= _TOL:
                    stop = "tol"
                    break
                if len(changes) > 1 and changes[-1] > _PLATEAU * changes[-2]:
                    stop = "plateau"
                    self.warnings.append(f"probe change plateaued at {changes[-1]:.3e}")
                    break
            prev = vals
        if stop == "cap":
            self.warnings.append("sweep cap reached before probe tolerance")
        return self._result(mps, sweeps, changes, stop)


def ttcross_approximate(f: GridFunction, cfg: CrossConfig) -> CrossResult:
    """Approximate a grid function by an MPS with bond at most cfg.max_bond.

    Each sweep refines the right pivots right to left (from the second
    sweep on), then the left pivots left to right, which builds the MPS.
    Its values at a fixed seeded set of 1024 probe indices decide the stop:
    converged once they change by at most 1e-10 relative; unconverged,
    with a warning, once a change fails to halve the one before or after
    8 sweeps. The bond budget is the one accuracy knob; the probe change
    is a stop rule, not an accuracy target. A superblock whose pivot sets
    are unchanged is neither evaluated nor factored again. A grid of at
    most 2^18 values, or one that one superblock would span, is compressed
    by TT-SVD without sweeping; only larger grids are swept.
    """
    return _CrossRun(f, cfg).run()
