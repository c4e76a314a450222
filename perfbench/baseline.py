"""Record the benchmark's baseline: ten seeds per workload plus one traced run.

Run from the repository root (takes about twenty-five minutes):

    python3 perfbench/baseline.py [--seeds 10] [--workloads asian-cross,basket]

For every workload it runs ``run.py`` untraced on seeds 0..n-1 and traced
on seed 0, then writes ``baseline.json``: each end-to-end metric's median,
quartiles and spread (quartile distance over median, the figure the
bounds in BENCHMARK.json are set against), the per-layer metrics and
per-case outcomes at seed 0, and the run environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    out = HERE / "baseline.json"
    doc = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    doc.update(run_seconds=seconds, seeds=list(range(args.seeds)))
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.seeds):
            result, detail = _run(workload, seed, seconds, 0)
            runs.append(result)
            print(workload, seed, json.dumps(result), file=sys.stderr)
        traced, traced_detail = _run(workload, 0, seconds, 1)
        doc["environment"] = traced_detail["environment"]
        doc["workloads"][workload] = {
            "end_to_end": {
                m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": [r["correct"] for r in runs],
            "seed0": {
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                "cases": [
                    {k: c[k] for k in ("id", "seconds", "price", "reference", "rel_err", "passed")}
                    for c in traced_detail["cases"]
                ],
            },
        }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
