"""Workloads, pinned references and per-case checks of the pricing benchmark.

A workload is a fixed "book" of pricing cases. Every case prices one
spec with one public pricer of ``mpspricer`` and is judged against a
pinned reference from ``references.json``:

- within the brute-force cap the price must lie within 1% of the exact
  oracle price;
- beyond it a tensor price must pass two certificates that need no
  enumeration: it is at least the pinned variational lower bound, and it
  lies within ``CERT_SIGMAS`` standard errors of a pinned high-sample
  Monte Carlo price;
- the reference engines beyond the cap are judged against the same pins:
  a variational bound must stay below the Monte Carlo price and near the
  pinned bound, a Monte Carlo price must agree with the pinned one.

A case fails when its pricer raises, returns a non-finite price, or
misses its check. The workload seed sets every engine seed (cross
pivots, variational start, Monte Carlo draws) and never changes a spec.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mpspricer

SPOT = 100.0
STRIKE = 100.0
RATE = 0.1
VOL = 0.5
EXPIRY = 1.0
RHO = 1.0 / 3.0

ORACLE_REL_TOL = 0.01
CERT_SIGMAS = 4.0
LOWER_BOUND_SLACK = 0.05
MAX_DIGITS = 12.0
ROUND_SEED_STRIDE = 1_000_003

REFERENCES_PATH = Path(__file__).with_name("references.json")

ASIAN_CROSS = ((20, 64), (22, 32), (32, 32))
BASKET_SIZES = ((4, 12), (5, 10))
BASKET_PAYOFFS = ("min", "avg")
BASKET_STYLES = ("european", "american")
BASKET_PRICERS = {
    "european": mpspricer.price_european_basket,
    "american": mpspricer.price_american_basket,
}
BASKET_BOND = 16
EXTRA_BRUTEFORCE_BASKETS = ((6, 8), (8, 6))
VARIATIONAL_BOND = 32
MC_SAMPLES = 10**6
BEYOND_CAP_STEPS = (32, 64)
REFERENCE_ENGINES = ("bruteforce", "variational", "montecarlo")


def asian_spec(steps: int) -> mpspricer.AsianSpec:
    return mpspricer.AsianSpec(
        spot=SPOT,
        strike=STRIKE,
        rate=RATE,
        vol=VOL,
        expiry=EXPIRY,
        steps=steps,
        scheme="crr",
        right="call",
    )


def basket_spec(n_assets: int, steps: int, payoff: str, style: str):
    return mpspricer.uniform_basket_spec(
        n_assets,
        spot=SPOT,
        strike=STRIKE,
        rate=RATE,
        vol=VOL,
        rho=RHO,
        expiry=EXPIRY,
        steps=steps,
        payoff_kind=payoff,
        style=style,
    )


def asian_ref(steps: int) -> str:
    return f"asian.N{steps}"


def basket_ref(n_assets: int, steps: int, payoff: str, style: str) -> str:
    return f"basket.m{n_assets}.N{steps}.{payoff}.{style}"


@dataclass(frozen=True)
class Case:
    """One pricing call: ``pricer(spec, **kwargs)`` judged against ``ref``."""

    id: str
    ref: str
    engine: str
    spec: object
    pricer: Callable
    kwargs: dict

    def price(self):
        return self.pricer(self.spec, **self.kwargs)


@dataclass
class CaseResult:
    """Outcome and detail of one priced case."""

    id: str
    seconds: float
    reference: float
    price: float | None = None
    rel_err: float | None = None
    passed: bool = False
    digits: float = 0.0
    warnings: int = 0
    converged: bool | None = None
    n_evals: int | None = None
    error: str | None = None


def _asian_cross_book(seed: int) -> list[Case]:
    return [
        Case(
            id=f"asian.ttcross.N{n}.D{d}",
            ref=asian_ref(n),
            engine="ttcross",
            spec=asian_spec(n),
            pricer=mpspricer.price_asian_ttcross,
            kwargs={"bond_dim": d, "seed": seed},
        )
        for n, d in ASIAN_CROSS
    ]


def _basket_book(seed: int) -> list[Case]:
    return [
        Case(
            id=f"basket.ttcross.m{m}.N{n}.{payoff}.{style}.D{BASKET_BOND}",
            ref=basket_ref(m, n, payoff, style),
            engine="ttcross",
            spec=basket_spec(m, n, payoff, style),
            pricer=BASKET_PRICERS[style],
            kwargs={"bond_dim": BASKET_BOND, "seed": seed},
        )
        for m, n in BASKET_SIZES
        for payoff in BASKET_PAYOFFS
        for style in BASKET_STYLES
    ]


def _reference_book(seed: int) -> list[Case]:
    cases = [
        Case(
            id=f"asian.bruteforce.N{n}",
            ref=asian_ref(n),
            engine="bruteforce",
            spec=asian_spec(n),
            pricer=mpspricer.price_asian_bruteforce,
            kwargs={},
        )
        for n, _ in ASIAN_CROSS
        if n <= mpspricer.BRUTEFORCE_MAX_STEPS
    ]
    baskets = [
        (m, n, payoff, style)
        for m, n in BASKET_SIZES
        for payoff in BASKET_PAYOFFS
        for style in BASKET_STYLES
    ] + [(m, n, "min", "american") for m, n in EXTRA_BRUTEFORCE_BASKETS]
    cases += [
        Case(
            id=f"basket.bruteforce.m{m}.N{n}.{payoff}.{style}",
            ref=basket_ref(m, n, payoff, style),
            engine="bruteforce",
            spec=basket_spec(m, n, payoff, style),
            pricer=mpspricer.price_basket_bruteforce,
            kwargs={},
        )
        for m, n, payoff, style in baskets
    ]
    for n in BEYOND_CAP_STEPS:
        cases.append(
            Case(
                id=f"asian.variational.N{n}.D{VARIATIONAL_BOND}",
                ref=asian_ref(n),
                engine="variational",
                spec=asian_spec(n),
                pricer=mpspricer.price_asian_variational,
                kwargs={"bond_dim": VARIATIONAL_BOND, "seed": seed},
            )
        )
        cases.append(
            Case(
                id=f"asian.montecarlo.N{n}",
                ref=asian_ref(n),
                engine="montecarlo",
                spec=asian_spec(n),
                pricer=mpspricer.price_asian_montecarlo,
                kwargs={"n_samples": MC_SAMPLES, "seed": seed},
            )
        )
    return cases


WORKLOADS: dict[str, Callable[[int], list[Case]]] = {
    "asian-cross": _asian_cross_book,
    "basket": _basket_book,
    "reference-engines": _reference_book,
}


def build_workload(name: str, seed: int) -> list[Case]:
    """The workload's cases with every engine seed set to ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}, expected one of {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed)


def round_seed(seed: int, round_index: int) -> int:
    """Engine seed of a run's n-th round: the workload seed, then a fixed panel.

    Round 0 prices at the workload seed. Later rounds price at panel seeds
    that every run shares, because the book's time depends on the pivot
    draw by up to a third; with most rounds on the same draws, each case's
    median over rounds compares like with like from run to run and commit
    to commit.
    """
    return seed if round_index == 0 else round_index * ROUND_SEED_STRIDE


def spec_document(spec) -> dict:
    """Plain-data form of a spec, as stored beside its pinned reference."""
    return json.loads(json.dumps(dataclasses.asdict(spec)))


def load_references(path: Path = REFERENCES_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["references"]


def check_pins(cases: list[Case], refs: dict) -> list[str]:
    """Problems with the pins of ``cases``: a missing pin or a drifted spec."""
    problems = []
    for case in cases:
        pin = refs.get(case.ref)
        if pin is None:
            problems.append(f"{case.id}: no pinned reference {case.ref!r}")
        elif pin["spec"] != spec_document(case.spec):
            problems.append(f"{case.id}: spec differs from the one pinned as {case.ref!r}")
    return problems


def _digits(rel_err: float, resolution: float) -> float:
    """Correct significant digits, no finer than the comparison can resolve."""
    floor = max(rel_err, resolution, 10.0**-MAX_DIGITS)
    return min(MAX_DIGITS, max(0.0, -math.log10(floor)))


def judge(case: Case, pin: dict, price: float, std_error: float | None = None):
    """(passed, rel_err, digits) of a finite price against its pin."""
    ref = reference_value(pin)
    rel_err = abs(price - ref) / abs(ref)
    if "exact" in pin:
        return rel_err <= ORACLE_REL_TOL, rel_err, _digits(rel_err, 0.0)
    ref_se = pin["mc_std_error"]
    resolution = ref_se / abs(ref)
    if case.engine == "variational":
        passed = (1.0 - LOWER_BOUND_SLACK) * pin["lower_bound"] <= price
        passed = passed and price <= ref + CERT_SIGMAS * ref_se
    elif case.engine == "montecarlo":
        se = math.hypot(ref_se, std_error or 0.0)
        passed = abs(price - ref) <= CERT_SIGMAS * se
        resolution = max(ref_se, std_error or 0.0) / abs(ref)
    else:
        passed = price >= pin["lower_bound"] and abs(price - ref) <= CERT_SIGMAS * ref_se
    return passed, rel_err, _digits(rel_err, resolution)


def reference_value(pin: dict) -> float:
    """The price a case is compared with: exact, or the pinned Monte Carlo price."""
    return pin["exact"] if "exact" in pin else pin["mc_price"]


def price_case(case: Case, refs: dict) -> CaseResult:
    """Price one case and check it; an exception becomes a failed result."""
    pin = refs[case.ref]
    start = time.perf_counter()
    try:
        report = case.price()
    except Exception as exc:  # one bad case must not abort the book
        seconds = time.perf_counter() - start
        error = f"{type(exc).__name__}: {exc}"
        return CaseResult(case.id, seconds, reference_value(pin), error=error)
    result = CaseResult(
        case.id,
        time.perf_counter() - start,
        reference_value(pin),
        price=float(report.price),
        warnings=len(report.warnings),
        converged=report.diagnostics.get("converged"),
        n_evals=report.diagnostics.get("n_evals"),
    )
    if not math.isfinite(result.price):
        result.error = "non-finite price"
        return result
    result.passed, result.rel_err, digits = judge(case, pin, result.price, report.std_error)
    result.digits = digits if result.passed else 0.0
    return result


def results_correct(cases: list[Case], results: list[CaseResult]) -> bool:
    """Whether the engines behaved: a benchmark run's ``correct`` verdict.

    False when any case raised or returned a non-finite price, or when a
    reference-engine case (an oracle the checks rest on) missed its check.
    A finite tensor price that misses its check is a known accuracy defect
    of the engine; it is counted as failed but does not make the run wrong.
    """
    engines = {c.id: c.engine for c in cases}
    return all(
        res.price is not None
        and math.isfinite(res.price)
        and (res.passed or engines[res.id] not in REFERENCE_ENGINES)
        for res in results
    )


def run_book(
    cases: list[Case], refs: dict, tracer=None
) -> tuple[float, list[CaseResult]]:
    """Price every case once, one at a time; returns (wall seconds, results).

    With a tracer, each case runs inside a root span named after it.
    """
    start = time.perf_counter()
    results = []
    for case in cases:
        if tracer is None:
            results.append(price_case(case, refs))
        else:
            with tracer.span(f"case.{case.id}"):
                results.append(price_case(case, refs))
    return time.perf_counter() - start, results


def warm_up() -> None:
    """Price one tiny case per engine so lazy imports and pools start untimed."""
    spec = asian_spec(6)
    mpspricer.price_asian_ttcross(spec, bond_dim=4)
    mpspricer.price_asian_bruteforce(spec)
    mpspricer.price_asian_montecarlo(spec, n_samples=1000)
    mpspricer.price_asian_variational(spec, bond_dim=4)
    for style in BASKET_STYLES:
        small = basket_spec(2, 3, "min", style)
        mpspricer.price_basket_bruteforce(small)
        BASKET_PRICERS[style](small, bond_dim=4)
