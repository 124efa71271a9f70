"""Repeat the benchmark over several seeds and summarise the spread.

    python3 bench/baseline.py --runs 10          # print medians and spreads
    python3 bench/baseline.py --runs 10 --write  # also record bench/baseline.json

Each run is ``run.py --workload W --seed S --seconds <run_seconds from
BENCHMARK.json> --trace 0`` in a fresh process, with seeds 1..N.  The
spread of a metric is (Q3 - Q1) / median over the runs, quartiles as
``statistics.quantiles(values, n=4)`` gives them.  ``--write`` adds one
``--trace 1`` run per workload at the default seed for the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE_FILE = run.BENCH_DIR / "baseline.json"


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=900, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{proc.stdout}")
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    parser.add_argument("--write", action="store_true", help=f"write {BASELINE_FILE.name}")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    doc = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": SPEC["run_seconds"],
        "seeds": list(range(1, args.runs + 1)),
        "end_to_end": {},
        "per_layer_seed": run.DEFAULT_SEED,
        "per_layer": {},
    }
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in doc["seeds"]:
            for name, metric in run_once(workload, seed, 0)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        doc["end_to_end"][workload] = {name: summarise(v) for name, v in values.items()}
        for name, stats in doc["end_to_end"][workload].items():
            print(
                f"{workload:<18} {name:<12} median {stats['median']:<10.4g} "
                f"spread {stats['spread']:.3f} (bound {bounds[name]}) "
                f"values {[round(v, 4) for v in stats['values']]}",
                flush=True,
            )
        if args.write:
            traced = run_once(workload, run.DEFAULT_SEED, 1)["metrics"]
            doc["per_layer"][workload] = {name: m["value"] for name, m in traced.items()}
    if args.write:
        BASELINE_FILE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
