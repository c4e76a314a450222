"""Pricing benchmark: time to price a fixed book of cases, and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload asian-cross --seed 0 --seconds 30 --trace 0

Workloads (see ``book.py``): ``asian-cross``, ``basket`` and
``reference-engines``. One process prices one case at a time in a closed
loop with a single client and the library's default threading; no thread
variable is set. Metric names and units are read from ``BENCHMARK.json``.

A run first measures set-up (import, building the workload's specs and
pins) in ``SETUP_SAMPLES`` fresh processes and takes the median. It then
warms every engine up on tiny cases, untimed, and prices the whole book in
rounds: always ``TIMED_ROUNDS[workload]`` of them, then more while the
next would end within ``--seconds``. Round 0 uses the workload seed as
every engine seed, later rounds a fixed panel of engine seeds
(``book.round_seed``). ``book_s`` is the time to price every case once:
the sum over cases of each case's median seconds across the first
``TIMED_ROUNDS`` rounds, so every run and every commit times the same
engine seeds, and neither one pivot draw nor one stalled case sets it.
Every case's price in every round is checked against its pin.
``failed_share``, ``digits`` and the per-case detail come from round 0
and repeat exactly for a seed.

With ``--trace 0`` the result holds the end-to-end metrics, measured with
tracing off. With ``--trace 1`` every pass is traced, and the result holds
the per-layer metrics of round 0 (see ``tracing.layer_metrics``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` and
``failed`` count priced cases over all rounds; a case fails when it
raises, returns a non-finite price or misses its check. ``correct`` is
``book.results_correct``: no case raised or returned a non-finite price,
and every reference-engine case passed. Per-case detail, the run
environment and, for traced runs, every span go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
# Rounds that every run prices and that book_s is taken over. Each count is
# what this benchmark's first commit prices in about --seconds (30 s) on a
# 2-core host; fixing it keeps the set of engine seeds behind book_s the
# same however fast the code is.
TIMED_ROUNDS = {"asian-cross": 3, "basket": 3, "reference-engines": 5}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _import_book():
    """Import the benchmark modules against the package in this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import book
    import mpspricer

    if Path(mpspricer.__file__).resolve().parent != SRC / "mpspricer":
        raise SystemExit(f"mpspricer imported from {mpspricer.__file__}, not from {SRC}")
    return book


def _prepare(workload: str, seed: int):
    """Import, build the workload and check its pins; the timed set-up."""
    book = _import_book()
    cases = book.build_workload(workload, seed)
    refs = book.load_references()
    problems = book.check_pins(cases, refs)
    if problems:
        raise SystemExit("pinned references do not match the workload:\n" + "\n".join(problems))
    return book, cases, refs


def _setup_probe(workload: str, seed: int) -> None:
    start = time.perf_counter()
    _prepare(workload, seed)
    print(repr(time.perf_counter() - start))


def _measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


@dataclass
class Round:
    """One pass over the book at one engine seed; traced when ``tracer`` is set."""

    engine_seed: int
    book_s: float = 0.0
    results: list = field(default_factory=list)
    tracer: object = None


def _rounds(book, workload: str, seed: int, refs, seconds: float, trace: bool) -> list[Round]:
    """TIMED_ROUNDS rounds, then more while the next would end within ``seconds``."""
    import tracing

    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rnd = Round(book.round_seed(seed, len(rounds)))
        cases = book.build_workload(workload, rnd.engine_seed)
        if trace:
            rnd.tracer = tracing.Tracer()
            with tracing.installed(rnd.tracer):
                rnd.book_s, rnd.results = book.run_book(cases, refs, rnd.tracer)
        else:
            rnd.book_s, rnd.results = book.run_book(cases, refs)
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        done = len(rounds) >= TIMED_ROUNDS[workload]
        if done and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def _case_details(timed: list[Round]) -> list[dict]:
    """One record per case: round 0's outcome, median seconds over ``timed``."""
    details = []
    for i, first in enumerate(timed[0].results):
        record = dict(vars(first))
        record["seconds"] = statistics.median(r.results[i].seconds for r in timed)
        details.append(record)
    return details


def _write_spans(path: Path, rounds: list[Round]) -> None:
    with open(path, "w") as fh:
        for n, rnd in enumerate(rounds):
            spans = rnd.tracer.spans
            origin = spans[0].start if spans else 0
            for i, s in enumerate(spans):
                fh.write(
                    json.dumps(
                        {
                            "round": n,
                            "id": i,
                            "name": s.name,
                            "start_ns": s.start - origin,
                            "end_ns": s.end - origin,
                            "parent": s.parent,
                            "rows": s.rows,
                        }
                    )
                    + "\n"
                )


def _print_summary(args, env, details, values, failed_share, digits) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for d in details:
        verdict = "ok" if d["passed"] else "FAILED" + (f" ({d['error']})" if d["error"] else "")
        rel = "-" if d["rel_err"] is None else f"{d['rel_err']:.2e}"
        print(
            f"case {d['id']:<44} {d['seconds']:8.3f} s  price {d['price']!s:<24} "
            f"ref {d['reference']:<20.12g} rel_err {rel:<9} warnings {d['warnings']:<3} "
            f"converged {d['converged']!s:<5} n_evals {d['n_evals']!s:<8} {verdict}"
        )
    values = {"failed_share": failed_share, "digits": digits, **values}
    for name, value in values.items():
        print(f"{name} {value:.6g} {PER_LAYER_UNITS.get(name) or END_TO_END_UNITS[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    setup_samples = _measure_setup(args.workload, args.seed)
    book, cases, refs = _prepare(args.workload, args.seed)
    book.warm_up()
    import environment
    import tracing

    env = environment.describe(ROOT)
    rounds = _rounds(book, args.workload, args.seed, refs, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = [res for rnd in rounds for res in rnd.results]
    attempted = len(every)
    failed = sum(not res.passed for res in every)
    correct = book.results_correct(cases, every)
    # Accuracy comes from the first round, priced at the workload seed itself,
    # so that it repeats exactly however many rounds fit in the time.
    first = rounds[0].results
    failed_share = sum(not res.passed for res in first) / len(first)
    digits = statistics.fmean(res.digits for res in first)

    details = _case_details(rounds[: TIMED_ROUNDS[args.workload]])
    if args.trace:
        units = PER_LAYER_UNITS
        layers = tracing.layer_metrics(rounds[0].tracer, tracing.span_cost_ns())
        values = {"failed_share": failed_share, "digits": digits, **layers}
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(setup_samples),
            "book_s": sum(d["seconds"] for d in details),
            "peak_rss_mb": peak_rss_mb,
        }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_samples_s": setup_samples,
        "engine_seeds": [r.engine_seed for r in rounds],
        "round_book_s": [r.book_s for r in rounds],
        "timed_rounds": TIMED_ROUNDS[args.workload],
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed_share,
        "digits": digits,
        "correct": correct,
        "metrics": values,
        "cases": details,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        _write_spans(RESULTS / f"{stem}-spans.jsonl", rounds)

    _print_summary(args, env, details, values, failed_share, digits)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
