"""Tests of the benchmark harness itself, on books small enough to run in seconds.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import book  # noqa: E402
import mpspricer  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from mpspricer import asian, basket  # noqa: E402
from mpspricer.mps import MPS  # noqa: E402


def _small_book(seed: int):
    """Three tiny cases (Asian cross, basket cross, Monte Carlo) with exact pins."""
    a_spec = book.asian_spec(10)
    b_spec = book.basket_spec(2, 4, "min", "european")
    cases = [
        book.Case(
            "asian.ttcross.N10.D8", "asian.N10", "ttcross", a_spec,
            mpspricer.price_asian_ttcross, {"bond_dim": 8, "seed": seed},
        ),
        book.Case(
            "basket.ttcross.m2.N4", "basket.m2.N4", "ttcross", b_spec,
            mpspricer.price_european_basket, {"bond_dim": 4, "seed": seed},
        ),
        book.Case(
            "asian.montecarlo.N10", "asian.N10.mc", "montecarlo", a_spec,
            mpspricer.price_asian_montecarlo, {"n_samples": 4000, "seed": seed},
        ),
    ]
    exact = mpspricer.price_asian_bruteforce(a_spec).price
    refs = {
        "asian.N10": {"spec": book.spec_document(a_spec), "exact": exact},
        "basket.m2.N4": {
            "spec": book.spec_document(b_spec),
            "exact": mpspricer.price_basket_bruteforce(b_spec).price,
        },
        "asian.N10.mc": {
            "spec": book.spec_document(a_spec),
            "lower_bound": 0.0,
            "mc_price": exact,
            "mc_std_error": 1e-6,
        },
    }
    return cases, refs


def _traced_book(cases, refs):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, results = book.run_book(cases, refs, tracer)
    return tracer, results


def _constant_pricer(price):
    def pricer(spec, **kwargs):
        return mpspricer.PriceReport(price=price, method="fixed")

    return pricer


def test_perturbed_price_is_counted_as_failed():
    cases, refs = _small_book(seed=0)
    exact = refs["asian.N10"]["exact"]
    spec = cases[0].spec
    good = book.Case("good", "asian.N10", "ttcross", spec, _constant_pricer(exact), {})
    bad = dataclasses.replace(good, id="bad", pricer=_constant_pricer(exact * 1.02))
    nan = dataclasses.replace(good, id="nan", pricer=_constant_pricer(float("nan")))
    _, results = book.run_book([good, bad, nan], refs)
    assert [r.passed for r in results] == [True, False, False]
    assert results[0].digits == book.MAX_DIGITS
    assert results[1].digits == 0.0 and results[1].rel_err == pytest.approx(0.02)
    assert results[2].error == "non-finite price"


def test_exception_is_a_failed_case_and_the_book_goes_on():
    cases, refs = _small_book(seed=0)

    def broken(spec, **kwargs):
        raise RuntimeError("engine blew up")

    boom = dataclasses.replace(cases[0], id="boom", pricer=broken)
    _, results = book.run_book([boom] + cases, refs)
    assert not results[0].passed
    assert results[0].error == "RuntimeError: engine blew up"
    assert results[0].seconds >= 0.0
    assert [r.id for r in results[1:]] == [c.id for c in cases]
    assert all(r.passed for r in results[1:])


def test_beyond_cap_certificates():
    spec = book.asian_spec(32)
    pin = {"lower_bound": 12.5, "mc_price": 13.58, "mc_std_error": 0.002}
    cross = book.Case("c", "r", "ttcross", spec, None, {})
    assert book.judge(cross, pin, 13.581)[0]
    assert not book.judge(cross, pin, 13.60)[0]
    assert not book.judge(cross, pin, 12.4)[0]
    lower = dataclasses.replace(cross, engine="variational")
    assert book.judge(lower, pin, 12.4)[0]
    assert not book.judge(lower, pin, 13.7)[0]
    assert not book.judge(lower, pin, 11.0)[0]
    mc = dataclasses.replace(cross, engine="montecarlo")
    assert book.judge(mc, pin, 13.62, std_error=0.02)[0]
    assert not book.judge(mc, pin, 13.7, std_error=0.02)[0]


def test_deterministic_metrics_repeat_exactly():
    cases, refs = _small_book(seed=3)
    first_tracer, first = _traced_book(cases, refs)
    second_tracer, second = _traced_book(cases, refs)
    assert [(r.passed, r.digits, r.price, r.n_evals) for r in first] == [
        (r.passed, r.digits, r.price, r.n_evals) for r in second
    ]
    counts = [
        "ttcross.calls", "ttcross.evals", "ttcross.unique_share", "ttcross.sweeps",
        "integrand.rows", "binomial.path_prices.rows", "mps.evaluate_batch.rows",
        "basket.basket_payoff.rows",
    ]
    a = tracing.layer_metrics(first_tracer, 1000.0)
    b = tracing.layer_metrics(second_tracer, 1000.0)
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["ttcross.calls"] == 2
    assert a["ttcross.evals"] == a["integrand.rows"] > 0
    assert 0.0 < a["ttcross.unique_share"] <= 1.0
    assert a["trace.overhead_s"] >= len(first_tracer.spans) * 1e-6
    assert tracing.span_cost_ns(calls=1000, repeats=2) >= 0.0


def test_span_self_time_at_most_inclusive():
    cases, refs = _small_book(seed=1)
    tracer, _ = _traced_book(cases, refs)
    own = tracing.self_times(tracer.spans)
    assert len(tracer.spans) > 10
    for span, self_ns in zip(tracer.spans, own):
        assert 0 <= self_ns <= span.end - span.start
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    names = {s.name for s in tracer.spans}
    assert {"ttcross", "integrand", "mps.evaluate_batch", "basket.basket_payoff"} <= names


def test_tracing_restores_the_patched_functions():
    originals = (
        asian.ttcross_approximate, asian.path_prices, basket.basket_payoff,
        MPS.evaluate_batch, MPS.sum_all,
    )
    with tracing.installed(tracing.Tracer()):
        assert asian.path_prices is not originals[1]
    assert (
        asian.ttcross_approximate, asian.path_prices, basket.basket_payoff,
        MPS.evaluate_batch, MPS.sum_all,
    ) == originals


@pytest.mark.parametrize("workload", sorted(book.WORKLOADS))
def test_seed_changes_engine_seeds_not_specs(workload):
    a = book.build_workload(workload, 0)
    b = book.build_workload(workload, 7)
    assert [c.id for c in a] == [c.id for c in b]
    assert [c.spec for c in a] == [c.spec for c in b]
    seeded = [(x.kwargs["seed"], y.kwargs["seed"]) for x, y in zip(a, b) if "seed" in x.kwargs]
    assert seeded and all(x == 0 and y == 7 for x, y in seeded)


def test_round_zero_uses_the_workload_seed_and_later_rounds_a_shared_panel():
    assert book.round_seed(5, 0) == 5
    assert [book.round_seed(5, j) for j in range(1, 4)] == [
        book.round_seed(9, j) for j in range(1, 4)
    ]
    assert len({book.round_seed(5, j) for j in range(4)}) == 4


def test_every_case_has_a_matching_pin():
    refs = book.load_references()
    for workload in book.WORKLOADS:
        assert book.check_pins(book.build_workload(workload, 0), refs) == []


def test_workloads_match_benchmark_json():
    assert run.WORKLOADS == list(book.WORKLOADS) == list(run.TIMED_ROUNDS)
    assert all(n >= 2 for n in run.TIMED_ROUNDS.values())


def test_a_broken_engine_makes_the_run_incorrect():
    cases, refs = _small_book(seed=0)

    def broken(spec, **kwargs):
        raise RuntimeError("cross blew up")

    _, results = book.run_book(cases, refs)
    assert book.results_correct(cases, results)
    raising = [dataclasses.replace(cases[0], pricer=broken)] + cases[1:]
    _, results = book.run_book(raising, refs)
    assert not book.results_correct(raising, results)
    infinite = [dataclasses.replace(cases[0], pricer=_constant_pricer(float("inf")))] + cases[1:]
    _, results = book.run_book(infinite, refs)
    assert not book.results_correct(infinite, results)
    # A finite wrong tensor price is a failed case, not an incorrect run ...
    wrong = [dataclasses.replace(cases[0], pricer=_constant_pricer(-8.4e20))] + cases[1:]
    _, results = book.run_book(wrong, refs)
    assert not results[0].passed and book.results_correct(wrong, results)
    # ... but a reference engine that misses its pin is.
    off = cases[:2] + [dataclasses.replace(cases[2], pricer=_constant_pricer(1.0))]
    _, results = book.run_book(off, refs)
    assert not book.results_correct(off, results)
