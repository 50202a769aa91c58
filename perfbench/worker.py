"""Run one workload against asx in a closed loop and check every answer.

Run as a child process: ``python worker.py <refs.json> <result.json>
<seconds> <trace 0|1> <workdir>``, with asx importable.  One client sends
the next operation when the previous one returns; there are no threads.
An operation is one ``asx.cli.run`` call with its output captured, or one
top-level library call, always looked up on its module at call time so
that the tracer's patches apply.

The loop runs whole passes over the operations, starting another while at
least half of one fits in ``seconds``.  With trace 1 the first half of that
time runs untraced and the second half traced, which gives
``trace.overhead_share``.

Every time reported is calibrated (see calib.py): a kernel is timed before
each operation and, without tracing, on a CPU-time timer during it.  The
handler's time is taken out of the operation's wall time.  Without the
timer in traced runs, spans hold no calibration time.

Each operation's inputs are fixed, so its answer is the same in every pass:
``attempted`` counts distinct operations and ``failed`` those that failed in
any pass, which does not depend on how many passes fit in ``seconds``.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import signal
import statistics
import sys
from time import perf_counter

import asx.casev
import asx.cli
import asx.oracles
import asx.scheme
from asx.scalars import QuadraticNumber
from calib import Sampler
from tracing import Tracer


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation exceeds its limit.  A
    BaseException, so that no handler inside asx can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout


class Failure(Exception):
    """An answer that differs from its reference."""


# -- operations ---------------------------------------------------------------


def _cli(op, state):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = asx.cli.run(op["argv"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _lib(op, state):
    call, args = op["call"], op.get("args", [])
    group = state.setdefault(op.get("group"), {})
    if call == "verify_dual_consistency":
        return asx.casev.verify_dual_consistency(asx.casev.casev_spec(None))
    if call == "fused_krein_reference_report":
        return asx.casev.fused_krein_reference_report()
    if call == "fusion_pipeline":
        return asx.casev.fusion_pipeline(*args)
    if call == "scheme_params_casev":
        return asx.scheme.scheme_params(asx.casev.casev_spec(*args).spec)
    if call == "named_scheme":
        group["rels"] = asx.oracles.named_scheme(*args)
        return group["rels"]
    if call == "scheme_from_relations":
        group["counted"] = asx.oracles.scheme_from_relations(group["rels"])
        return group["counted"]
    if call == "tridiagonal_from_tensor":
        group["spec"] = asx.scheme.tridiagonal_from_tensor(group["counted"].kreins)
        return group["spec"]
    if call == "scheme_params":
        group["params"] = asx.scheme.scheme_params(group["spec"])
        return group["params"]
    if call == "intersection_tensor":
        return asx.scheme.intersection_tensor(group["params"])
    raise ValueError(f"unknown call {call!r}")


# -- checks against the references ---------------------------------------------


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Failure(what)


def _strs(xs) -> list[str]:
    return [str(x) for x in xs]


def _check_cli(op, res, state) -> None:
    want = op["expect"]
    _expect(res["exit"] == want["exit"],
            f"exit {res['exit']}, expected {want['exit']}"
            + (f" ({want['why']})" if "why" in want else "") + f": {res['stderr'].strip()[:200]}")
    if not set(want) - {"exit", "why"}:
        return
    report = json.loads(res["stdout"])
    data = report["data"]
    if "verdict" in want:
        _expect(report["verdict"] == want["verdict"], f"verdict {report['verdict']}")
    for key in ("n", "multiplicities", "valencies", "hits", "survivors"):
        if key in want:
            _expect(data.get(key) == want[key], f"{key} {data.get(key)}, expected {want[key]}")
    if "witness" in want:
        name, text = want["witness"]
        witnesses = [c["witness"] or "" for c in report["checks"] if c["name"] == name]
        _expect(any(text in w for w in witnesses), f"no {text} witness in {name}")
    if "orderings" in want:
        got = sorted(o["sigma"] for o in data["orderings"])
        _expect(got == want["orderings"], f"orderings {got}, expected {want['orderings']}")
    for m, text in want.get("rejections", {}).items():
        _expect(text in data["rejections"].get(m, ""), f"rejection of m = {m} lacks {text!r}")
    if "failing_steps" in want:
        steps = report["checks"]
        failing = [int(s["name"].split()[1]) for s in steps if not s["pass"]]
        _expect(len(steps) == want["steps"] and failing == want["failing_steps"],
                f"{len(steps)} steps, failing {failing}")
        _expect(all(s["witness"] for s in steps if not s["pass"]), "failing step without its certified gap")


def _quadratic(x) -> tuple[str, str]:
    if isinstance(x, QuadraticNumber):
        _expect(x.radicand in (None, 21), f"entry {x} outside Q(sqrt 21)")
        return str(x.rational_part), str(x.sqrt_coefficient)
    return str(x), "0"


def _check_lib(op, res, state) -> None:
    want, call = op["expect"], op["call"]
    if call == "verify_dual_consistency":
        got = [res.zero_pattern_checks, res.invariance_checks, res.q_condition_checks]
        _expect(got == want["counts"], f"counts {got}, expected {want['counts']}")
    elif call == "fused_krein_reference_report":
        got = [[j, k] for j, k, _, _ in res.mismatches]
        _expect(res.column_sums_ok and got == want["mismatches"], f"mismatches at {got}")
    elif call == "fusion_pipeline":
        _expect(str(res.delta) == want["delta"] and _strs(res.valencies) == want["valencies"],
                f"delta {res.delta}, valencies {_strs(res.valencies)}")
    elif call == "scheme_params_casev":
        got = sorted([list(_quadratic(x)) for x in res.Q.row(j)] for j in range(res.Q.nrows))
        _expect(got == sorted(want["q_rows"]), "Q differs from the paper's matrix up to row order")
    elif call == "named_scheme":
        _expect((res.n, res.d) == (want["n"], want["d"]), f"n = {res.n}, d = {res.d}")
    elif call == "scheme_from_relations":
        _expect(str(res.n) == str(want["n"]) and _strs(res.valencies) == want["valencies"]
                and _strs(res.multiplicities) == want["multiplicities"],
                f"n {res.n}, valencies {_strs(res.valencies)}, multiplicities {_strs(res.multiplicities)}")
    elif call == "tridiagonal_from_tensor":
        _expect(res.d == state[op["group"]]["counted"].d, f"d = {res.d}")
    elif call == "scheme_params":
        _expect(res.kreins.mats == state[op["group"]]["counted"].kreins.mats,
                "ladder Krein tensor differs from the counted scheme's")
    elif call == "intersection_tensor":
        _expect(res.mats == state[op["group"]]["counted"].intersections.mats,
                "eigenmatrix p^k_ij differ from the counted ones")


# -- the loop -----------------------------------------------------------------


class Run:
    def __init__(self, spec: dict):
        self.spec = spec
        self.limit = spec["op_limit_s"]
        self.state: dict = {}
        self.sampler = Sampler()
        self.timed = False  # sample the kernel during operations too
        self.records: list[list] = []  # [op id, start, end, net wall seconds, pass]
        self.passes_run = 0
        self.outcome: dict[str, dict] = {}  # op id -> failed, wrong, decided in every pass
        self.failures: dict[str, dict] = {}
        self.tracer = None

    def execute(self, op) -> tuple[float, float, float, object, BaseException | None]:
        """Run one operation; return its start, end, wall time without the
        calibration handler's, result and error."""
        run = _cli if op["kind"] == "cli" else _lib
        result, error = None, None
        self.sampler.sample()
        spent = self.sampler.spent
        if self.timed:
            self.sampler.start()
        t0 = perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.limit)
                result = run(op, self.state)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                t1 = perf_counter()
                self.sampler.stop()
        except OpTimeout as exc:
            error = exc
        except Exception as exc:  # an uncaught exception is a failed operation
            error = exc
        return t0, t1, t1 - t0 - (self.sampler.spent - spent), result, error

    def judge(self, op, result, error) -> None:
        """Record the operation's outcome and classify a failure: no answer
        (exception, unexpected exit 3, time limit) or a wrong answer."""
        reason, wrong = None, False
        if isinstance(error, OpTimeout):
            reason = f"over the {self.limit:g} s limit"
        elif error is not None:
            reason = f"uncaught {type(error).__name__}: {str(error)[:200]}"
        else:
            try:
                (_check_cli if op["kind"] == "cli" else _check_lib)(op, result, self.state)
            except Failure as exc:
                reason = str(exc)
                # an unexpected exit 3 (internal verification failure) is no answer
                wrong = not (op["kind"] == "cli" and result["exit"] == 3 != op["expect"]["exit"])
            except (KeyError, ValueError, TypeError, AttributeError) as exc:
                reason, wrong = f"unreadable answer: {type(exc).__name__}: {exc}", True
        decided = error is None and (op["kind"] == "lib" or result["exit"] in (0, 1))
        seen = self.outcome.setdefault(op["id"], {"failed": False, "wrong": False, "decided": True})
        seen["failed"] |= reason is not None
        seen["wrong"] |= wrong
        seen["decided"] &= decided
        if reason is None:
            return
        entry = self.failures.setdefault(
            op["id"], {"op": op["id"], "input": op.get("input"), "reason": reason, "count": 0})
        entry["count"] += 1

    def one_pass(self, number: int) -> float:
        """Run every operation once; return the sum of their wall times."""
        total = 0.0
        for index, op in enumerate(self.spec["ops"]):
            if self.tracer is not None:
                self.tracer.op = index
            t0, t1, dt, result, error = self.execute(op)
            total += dt
            self.records.append([op["id"], t0, t1, dt, number])
            self.judge(op, result, error)
        return total

    def passes(self, seconds: float) -> list[int]:
        """Whole passes, starting another while at least half of one fits in
        ``seconds``; returns the passes' numbers."""
        numbers, last = [], 0.0
        deadline = perf_counter() + seconds
        while not numbers or perf_counter() + last / 2 < deadline:
            numbers.append(self.passes_run)
            self.passes_run += 1
            last = self.one_pass(numbers[-1])
        return numbers

    def calibrated(self, numbers: list[int]) -> tuple[dict[int, float], list[list]]:
        """Calibrated time of each pass and the records of those passes,
        each with its calibration factor and calibrated time appended."""
        wanted = set(numbers)
        recs = []
        for r in self.records:
            if r[4] in wanted:
                scale = self.sampler.scale(r[1], r[2])
                recs.append(r + [scale, r[3] * scale])
        totals = {n: 0.0 for n in numbers}
        for r in recs:
            totals[r[4]] += r[6]
        return totals, recs


def _quantile(values: list[float], p: float, grid: int = 4096) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all the order
    statistics, weighted by a Beta(p(n+1), (1-p)(n+1)) density.  Unlike a
    single order statistic, it moves by a fraction of a gap between
    operations when the seed shifts an operation's rank by one."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    cdf, acc = [0.0], 0.0
    for k in range(grid):  # midpoint rule
        x = (k + 0.5) / grid
        acc += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta) / grid
        cdf.append(acc)
    at = [cdf[round(i * grid / n)] / acc for i in range(n + 1)]
    return sum((at[i + 1] - at[i]) * x for i, x in enumerate(xs))


def main(argv) -> int:
    refs_path, out_path, seconds, trace, workdir = argv[1], argv[2], float(argv[3]), argv[4] == "1", argv[5]
    with open(refs_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    signal.signal(signal.SIGALRM, _alarm)
    run = Run(spec)
    # import and first-call costs only (asx has no caches); its answers are
    # not counted, the passes check the same kinds of operation
    Run(dict(spec, ops=spec["warmup"])).one_pass(0)
    out: dict = {}
    if not trace:
        run.timed = True
        totals, recs = run.calibrated(run.passes(seconds))
        per_op: dict[str, list[float]] = {}
        for r in recs:
            per_op.setdefault(r[0], []).append(r[6] * 1000)
        # each operation's median over the passes, then the quantiles over
        # the operations
        latencies_ms = [statistics.median(v) for v in per_op.values()]
        out.update(
            pass_s=statistics.median(totals.values()),
            passes=len(totals),
            op_p50_ms=_quantile(latencies_ms, 0.5),
            op_p90_ms=_quantile(latencies_ms, 0.9),
            op_samples=len(latencies_ms),
            pass_times=list(totals.values()),
            raw_pass_times=[sum(r[3] for r in recs if r[4] == n) for n in totals],
            calibration_samples=len(run.sampler.times),
            op_latencies_ms=[[r[0], r[3] * 1000, r[6] * 1000] for r in recs],
        )
    else:
        plain = run.passes(seconds / 2)
        run.tracer = Tracer()
        run.tracer.install()
        origin = perf_counter()
        traced = run.passes(seconds / 2)
        run.tracer.uninstall()
        totals, recs = run.calibrated(plain + traced)
        recs = [r for r in recs if r[4] in traced]
        starts = [r[1] for r in recs]

        def scale(t: float) -> float:
            """Calibration factor of the operation running at time t."""
            return recs[max(bisect.bisect_right(starts, t) - 1, 0)][5]

        layers = run.tracer.summary(len(traced), sum(r[3] for r in recs), scale)
        plain_s = statistics.median(totals[n] for n in plain)
        layers["trace.overhead_share"] = (statistics.median(totals[n] for n in traced) - plain_s) / plain_s
        run.tracer.write(f"{workdir}/spans.jsonl", origin)
        out.update(layers=layers, traced_passes=len(traced))
    outcomes = run.outcome.values()
    out.update(
        attempted=len(run.outcome),
        failed=sum(o["failed"] for o in outcomes),
        wrong=sum(o["wrong"] for o in outcomes),
        decided=sum(o["decided"] for o in outcomes),
        failures=sorted(run.failures.values(), key=lambda f: f["op"]),
        ops_per_pass=len(spec["ops"]),
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
