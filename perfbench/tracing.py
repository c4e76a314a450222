"""Per-layer spans recorded from outside the engines.

``installed(tracer)`` replaces, for the duration of a ``with`` block, the
module attributes through which ``asian``, ``basket`` and ``variational``
reach the layers below them, plus the ``MPS`` methods. Each replacement
records a span (name, start, end, parent, rows) around the original call.
``ttcross_approximate`` is wrapped together with the ``GridFunction`` it is
given, so integrand calls and the share of unique grid points they ask
for are measured where the cross engine makes them. No source file of the
package is edited; spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from mpspricer import asian, basket, variational
from mpspricer.mps import MPS
from mpspricer.ttcross import GridFunction

BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    rows: int = 0


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cross_runs: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, rows: int = 0):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, 0, 0, parent, rows))
        self._open.append(idx)
        self.spans[idx].start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn, rows=None):
        """``fn`` inside a span; ``rows(*args)`` gives the span's row count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, rows(*args) if rows else 0):
                return fn(*args, **kwargs)

        return traced

    def wrap_cross(self, fn):
        """``ttcross_approximate`` with its grid function traced as ``integrand``."""

        @functools.wraps(fn)
        def traced(f: GridFunction, cfg):
            codes: list[np.ndarray] = []

            def evaluate(idx):
                with self.span("integrand", len(idx)):
                    out = f.evaluate(idx)
                with self.span(BOOKKEEPING):
                    codes.append(_row_codes(idx, f.dims))
                return out

            with self.span("ttcross"):
                result = fn(GridFunction(dims=f.dims, evaluate=evaluate), cfg)
            with self.span(BOOKKEEPING):
                all_codes = np.concatenate(codes) if codes else np.zeros(0, np.int64)
                self.cross_runs.append(
                    {
                        "evals": result.n_evals,
                        "sweeps": result.n_sweeps_run,
                        "converged": bool(result.converged),
                        "warnings": len(result.warnings),
                        "rows": len(all_codes),
                        "unique": len(np.unique(all_codes)),
                    }
                )
            return result

        return traced


def _row_codes(idx: np.ndarray, dims) -> np.ndarray:
    """One integer per grid row, its mixed-radix position in the grid."""
    if math.prod(int(d) for d in dims) >= 2**63:
        raise ValueError(f"grid {dims} has too many points to code in int64")
    weights = np.cumprod([1] + [int(d) for d in dims[:-1]]).astype(np.int64)
    return np.asarray(idx, dtype=np.int64) @ weights


def _rows_last(*args) -> int:
    return len(args[-1])


def _rows_labels(spec, model, labels, step) -> int:
    return len(labels)


@contextmanager
def installed(tracer: Tracer):
    """Route the layers' public functions through ``tracer`` inside the block."""
    cross = tracer.wrap_cross(asian.ttcross_approximate)
    patches = [
        (asian, "ttcross_approximate", cross),
        (basket, "ttcross_approximate", cross),
        (asian, "path_prices", tracer.wrap("binomial.path_prices", asian.path_prices, _rows_last)),
        (
            asian,
            "path_probability",
            tracer.wrap("binomial.path_probability", asian.path_probability, _rows_last),
        ),
        (
            basket,
            "basket_payoff",
            tracer.wrap("basket.basket_payoff", basket.basket_payoff, _rows_labels),
        ),
        (
            variational,
            "greedy_binary_decompose",
            tracer.wrap(
                "variational.greedy_binary_decompose", variational.greedy_binary_decompose
            ),
        ),
        (
            variational,
            "center_gradient",
            tracer.wrap("variational.center_gradient", variational.center_gradient),
        ),
        (MPS, "evaluate_batch", tracer.wrap("mps.evaluate_batch", MPS.evaluate_batch, _rows_last)),
        (
            MPS,
            "apply_site_matrices",
            tracer.wrap("mps.apply_site_matrices", MPS.apply_site_matrices),
        ),
        (MPS, "sum_all", tracer.wrap("mps.sum_all", MPS.sum_all)),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def span_cost_ns(calls: int = 20_000, repeats: int = 5) -> float:
    """Cost of one traced call over a plain one, in ns: least over ``repeats``."""

    def noop(*args):
        return None

    traced = Tracer().wrap("calibration", noop, _rows_last)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(calls):
            traced(())
        middle = time.perf_counter_ns()
        for _ in range(calls):
            noop(())
        costs.append(((middle - start) - (time.perf_counter_ns() - middle)) / calls)
    return max(0.0, min(costs))


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children, in ns."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(tracer: Tracer, span_cost: float) -> dict[str, float]:
    """Per-layer counts and seconds of one traced book.

    ``trace.overhead_s`` is what tracing added to the book: the time of the
    tracer's own bookkeeping spans plus ``span_cost`` ns (``span_cost_ns``)
    per recorded span.
    """
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    for span, self_ns in zip(tracer.spans, self_times(tracer.spans)):
        calls[span.name] = calls.get(span.name, 0) + 1
        rows[span.name] = rows.get(span.name, 0) + span.rows
        total[span.name] = total.get(span.name, 0) + span.end - span.start
        own[span.name] = own.get(span.name, 0) + self_ns
    runs = tracer.cross_runs
    cross_rows = sum(r["rows"] for r in runs)

    def secs(name: str, table=total) -> float:
        return table.get(name, 0) / 1e9

    return {
        "ttcross.calls": calls.get("ttcross", 0),
        "ttcross.s": secs("ttcross"),
        "ttcross.self_s": secs("ttcross", own),
        "ttcross.evals": sum(r["evals"] for r in runs),
        "ttcross.unique_share": (
            sum(r["unique"] for r in runs) / cross_rows if cross_rows else 0.0
        ),
        "ttcross.sweeps": sum(r["sweeps"] for r in runs),
        "ttcross.unconverged": sum(not r["converged"] for r in runs),
        "ttcross.warnings": sum(r["warnings"] for r in runs),
        "integrand.calls": calls.get("integrand", 0),
        "integrand.rows": rows.get("integrand", 0),
        "integrand.s": secs("integrand"),
        "binomial.path_prices.rows": rows.get("binomial.path_prices", 0),
        "binomial.path_prices.s": secs("binomial.path_prices"),
        "binomial.path_probability.s": secs("binomial.path_probability"),
        "mps.evaluate_batch.calls": calls.get("mps.evaluate_batch", 0),
        "mps.evaluate_batch.rows": rows.get("mps.evaluate_batch", 0),
        "mps.evaluate_batch.s": secs("mps.evaluate_batch"),
        "mps.apply_site_matrices.calls": calls.get("mps.apply_site_matrices", 0),
        "mps.apply_site_matrices.s": secs("mps.apply_site_matrices"),
        "mps.sum_all.s": secs("mps.sum_all"),
        "basket.basket_payoff.rows": rows.get("basket.basket_payoff", 0),
        "basket.basket_payoff.s": secs("basket.basket_payoff"),
        "variational.greedy_binary_decompose.calls": calls.get(
            "variational.greedy_binary_decompose", 0
        ),
        "variational.greedy_binary_decompose.s": secs("variational.greedy_binary_decompose"),
        "variational.center_gradient.s": secs("variational.center_gradient"),
        "trace.overhead_s": secs(BOOKKEEPING) + len(tracer.spans) * span_cost / 1e9,
    }
