#!/usr/bin/env python3
"""The asx benchmark: seeded workloads, checked answers, end-to-end and
per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload screen --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count, every failed operation
with its input and reason, and the run's provenance.

Child processes run one at a time: the reference computation (sympy), half
of the cold-start launches for setup_s, the workload itself (asx, whose peak
RSS is peak_rss_mb), then the other half of the launches or, with
``--trace 1``, the ``-X importtime`` launches.  See perfbench/README.md for
the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_LAUNCHES = 15
IMPORT_LAUNCHES = 5
RUN_LIMIT_S = 170  # every child of one workload run ends within this


class BenchError(Exception):
    pass


def run_child(cmd: list[str], env: dict, deadline: float, log: Path | None = None):
    """Run a child to completion; return (exit code, wall seconds, rusage).
    A child still running at ``deadline`` (a perf_counter time) is killed."""
    out = open(log, "w", encoding="utf-8") if log else subprocess.DEVNULL
    try:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT if log else out)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(deadline - t0, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if log:
            out.close()
    return proc.returncode, wall, usage


def provenance(root: Path, spec: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((root / "src" / "asx").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    generated = {k: spec[k] for k in ("ops", "warmup", "files")}
    return {
        "seed": spec["seed"],
        "inputs_sha256": hashlib.sha256(json.dumps(generated, sort_keys=True).encode()).hexdigest()[:16],
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
    }


def import_times(env: dict, work: Path, deadline: float) -> dict[str, float]:
    """Median self time of each asx module's import, from -X importtime."""
    samples: dict[str, list[float]] = {mod: [] for mod in tracing.IMPORTS}
    log = work / "importtime.log"
    for _ in range(IMPORT_LAUNCHES):
        code, _, _ = run_child([sys.executable, "-X", "importtime", "-c", "import asx.cli"], env, deadline, log)
        if code != 0:
            raise BenchError(f"import asx.cli failed, see {log}")
        for line in log.read_text().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[2].strip().startswith("asx."):
                mod = parts[2].strip()[4:]
                if mod in samples:
                    samples[mod].append(int(parts[0].split(":")[1]) / 1000)
    return {f"import.{mod}_ms": statistics.median(v) for mod, v in samples.items()}


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    work = HERE / "_work" / f"{workload}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rel = work.relative_to(root).as_posix()
    spec = inputs.build(workload, seed, rel)
    for path, text in spec["files"].items():
        (root / path).write_text(text, encoding="utf-8")
    (work / "inputs.json").write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    code, _, _ = run_child([sys.executable, str(HERE / "reference.py"), str(work / "inputs.json"),
                            str(work / "refs.json")], env, deadline, work / "reference.log")
    if code != 0:
        raise BenchError(f"reference computation failed (exit {code}), see {work / 'reference.log'}")
    # cold starts of the CLI on the smallest array, half before and half
    # after the workload, so that they sample more of the machine's drift
    smallest = work / "setup.params"
    smallest.write_text(inputs.params_text(inputs.hamming(2, 2)), encoding="utf-8")
    launch = [sys.executable, "-m", "asx.cli", "check", str(smallest)]

    reference = [sys.executable, *calib.REF_LAUNCH]

    def cold_starts(count: int) -> list[tuple[int, float, float]]:
        """Exit code, calibrated and raw wall time of ``count`` launches,
        each between two reference launches."""
        out = []
        before = run_child(reference, env, deadline)[1]
        for _ in range(count):
            code, wall, _ = run_child(launch, env, deadline)
            after = run_child(reference, env, deadline)[1]
            out.append((code, wall * calib.REF_LAUNCH_S * 2 / (before + after), wall))
            before = after
        return out

    launches = [] if trace else cold_starts(SETUP_LAUNCHES // 2)
    code, _, usage = run_child([sys.executable, str(HERE / "worker.py"), str(work / "refs.json"),
                                str(work / "result.json"), str(seconds), str(int(trace)), str(work)],
                               env, deadline, work / "worker.log")
    if code != 0:
        raise BenchError(f"workload run failed (exit {code}), see {work / 'worker.log'}")
    res = json.loads((work / "result.json").read_text())
    ok = res["wrong"] == 0

    if trace:
        raw = {}
        metrics = dict(res["layers"], **import_times(env, work, deadline))
        samples = {name: res["ops_per_pass"] * res["traced_passes"] for name in metrics}
        samples.update({f"import.{m}_ms": IMPORT_LAUNCHES for m in tracing.IMPORTS})
    else:
        launches += cold_starts(SETUP_LAUNCHES - len(launches))
        ok = ok and all(code == 0 for code, _, _ in launches)  # H(2,2) is feasible
        attempted = res["attempted"]
        raw = {"setup_s": statistics.median(wall for _, _, wall in launches),
               "pass_s": statistics.median(res["raw_pass_times"])}
        metrics = {
            "setup_s": statistics.median(cal for _, cal, _ in launches),
            "pass_s": res["pass_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            "ok_share": 1 - res["failed"] / attempted,
            "decided_share": res["decided"] / attempted,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        samples = {"setup_s": SETUP_LAUNCHES, "pass_s": res["passes"], "op_p50_ms": res["op_samples"],
                   "op_p90_ms": res["op_samples"], "ok_share": attempted, "decided_share": attempted,
                   "peak_rss_mb": 1}
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {
        "workload": workload,
        "provenance": provenance(root, spec),
        "correct": ok,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "samples": samples,
        "raw": raw,
    }


def report(result: dict) -> None:
    """Human-readable lines: provenance, each metric, each failure."""
    w = result["workload"]
    prov = " ".join(f"{k}={v}" for k, v in result["provenance"].items())
    print(f"[{w}] {prov}")
    for name, m in result["metrics"].items():
        print(f"[{w}] {name:<48} {m['value']:>14.6g} {m['unit']:<6} n={result['samples'][name]}")
    for name, value in result["raw"].items():
        print(f"[{w}] {name} uncalibrated {value:.6g} s")
    share = result["failed"] / result["attempted"]
    print(f"[{w}] failed_share {share:.4f} ({result['failed']} of {result['attempted']} operations)")
    for f in result["failures"]:
        arr = f["input"]
        shown = f" input d={arr['d']} c={arr['c']} a={arr['a']} b={arr['b']}" if arr else ""
        print(f"[{w}] FAILED x{f['count']} {f['op']}: {f['reason']}{shown}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "asx" / "__init__.py").is_file():
        print("error: run from the root of an asx checkout (src/asx not found)", file=sys.stderr)
        return 2
    definition = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = definition["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for w in workloads:
            results.append(run_workload(root, w, args.seed, args.seconds, bool(args.trace), units))
            report(results[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
