#!/usr/bin/env python3
"""Run the benchmark once per seed and give each metric's median and spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads screen,sweep --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --workloads all --seeds 1-10 --baseline perfbench/baseline.json

The spread of a metric is (Q3 - Q1) / median over the seeds, with the
quartiles from ``statistics.quantiles(values, n=4)``.  Each end-to-end
metric's spread should stay below a third of its bound in BENCHMARK.json.
The runs go one after another.  With ``--baseline`` the figures are written
there as JSON, with one traced run (seed 1) per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "runs": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args()
    definition = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or definition["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    workloads = inputs.WORKLOADS if args.workloads == "all" else tuple(args.workloads.split(","))
    seeds = seeds_from(args.seeds)
    table: dict[str, dict] = {}
    counts: dict[str, dict] = {}
    for w in workloads:
        runs = [run_once(w, s, seconds, 0) for s in seeds]
        counts[w] = {"attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
                     "correct": all(r["correct"] for r in runs)}
        table[w] = {name: stats([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        for name, st in table[w].items():
            flag = "" if st["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{w:<7} {name:<14} median {st['median']:<12.6g} spread {st['spread']:.3f}"
                  f" (bound {bounds[name]}){flag}", flush=True)
        print(f"{w:<7} correct {counts[w]['correct']} attempted {counts[w]['attempted']}"
              f" failed {counts[w]['failed']}", flush=True)
    if args.baseline:
        traced = {w: run_once(w, seeds[0], seconds, 1)["metrics"] for w in workloads}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        args.baseline.write_text(json.dumps({
            "commit": commit or "unknown",
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {platform.system()}, {os.cpu_count()} CPUs",
            "seeds": seeds,
            "run_seconds": seconds,
            "note": "median and quartiles (statistics.quantiles, n=4) of each end-to-end metric over "
                    f"one run per seed; per-layer values from one traced run with seed {seeds[0]}",
            "end_to_end": table,
            "counts": counts,
            "per_layer": {w: {k: v["value"] for k, v in m.items()} for w, m in traced.items()},
        }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
