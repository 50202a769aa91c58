"""Command-line front end.

Subcommands:

* ``check <file>``       -- full pipeline, feasibility report
* ``orderings <file>``   -- enumerate second Q-polynomial orderings
* ``fuse <file> --partition "0|1,5|2,3|4"`` -- fused tensor printout
* ``casev --search-max N | --reject | --symbolic`` -- the 5-class runs

Exit codes: 0 success / feasible / verified; 1 infeasible or contradiction
where feasibility was queried, including ``check`` input that is not a
scheme (complex or repeated dual eigenvalues); 2 input error, including a
params file with d > 16 (see :mod:`asx.params`) and a result holding an
integer too long to print; 3 internal verification failure.  All numbers
in reports are exact strings; ``--approx`` adds a decimal hint in text
mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from . import casev
from .errors import (
    AsxError,
    ComplexRoots,
    InvalidParameter,
    InvalidPartition,
    InvariantViolation,
    ParseError,
    RepeatedEigenvalue,
    UnsupportedAlgebraicDegree,
    WellDefinednessViolation,
)
from .scalars import QuadraticNumber
from .scheme import (
    FusionPartition,
    classify_structure_pair,
    enumerate_q_orderings,
    feasibility_report,
    fuse,
    krein_ladder,
    scheme_params,
    tensor_checks,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _fmt(x, approx: bool = False) -> str:
    s = str(x)
    if approx and isinstance(x, QuadraticNumber):
        s += f" (~{float(x):.6g})"
    return s


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.report == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _report_payload(command: str, verdict: str, data: dict, checks=()) -> dict:
    """The JSON report; ``checks`` holds ``(name, pass, witness)`` triples."""
    return {
        "command": command,
        "verdict": verdict,
        "checks": [{"name": n, "pass": p, "witness": w} for n, p, w in checks],
        "data": data,
    }


def _load_spec(path: str):
    from .params import parse_params_file

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ParseError(str(exc)) from exc
    return parse_params_file(text)


def _cmd_check(args) -> int:
    spec = _load_spec(args.file)
    if all(isinstance(x, Fraction) for x in spec.c + spec.a + spec.b):
        try:
            params = scheme_params(spec)
        except (ComplexRoots, RepeatedEigenvalue) as exc:
            print(f"not a scheme: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        report = feasibility_report(params)
        data = {
            "d": spec.d,
            "n": _fmt(params.n),
            "multiplicities": [_fmt(x) for x in params.multiplicities],
            "valencies": [_fmt(x) for x in params.valencies],
        }
    else:
        # quadratic tridiagonal entries: the eigensystem needs factorization
        # beyond the rationals, so only the tensor-level checks run
        tensor = krein_ladder(spec)
        report = tensor_checks(tensor)
        data = {
            "d": spec.d,
            "multiplicities": [_fmt(x) for x in tensor.multiplicities()],
            "note": "quadratic field spec: eigensystem checks skipped",
        }
    verdict = "feasible" if report.feasible else "infeasible"
    lines = [f"feasibility report for {args.file} (d = {spec.d})"]
    lines += ["  " + ln for ln in report.lines()]
    lines.append(f"verdict: {verdict}")
    checks = [(c.name, c.passed, "; ".join(c.witnesses) or None) for c in report.checks]
    _emit(args, _report_payload("check", verdict, data, checks), lines)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _cmd_orderings(args) -> int:
    spec = _load_spec(args.file)
    rows = [
        (str(o), "reference" if o.is_identity() else classify_structure_pair(o).value)
        for o in enumerate_q_orderings(krein_ladder(spec))
    ]
    lines = [f"orderings for {args.file}: {len(rows)} found"]
    lines += [f"  {seq}  type: {kind}" for seq, kind in rows]
    data = {"orderings": [{"sigma": seq, "type": kind} for seq, kind in rows]}
    _emit(args, _report_payload("orderings", f"{len(rows)} orderings", data), lines)
    return EXIT_OK


def _cmd_fuse(args) -> int:
    spec = _load_spec(args.file)
    partition = FusionPartition.from_string(args.partition, spec.d)
    fused = fuse(krein_ladder(spec), partition)
    fused_mults = fused.multiplicities()
    lines = [
        f"fusion of {args.file} along {partition}",
        f"fused multiplicities: {' '.join(_fmt(x, args.approx) for x in fused_mults)}",
    ]
    mats_data = []
    for i, mat in enumerate(fused.mats):
        lines.append(f"fused B{i}*:")
        lines += ["  " + ln for ln in str(mat).splitlines()]
        mats_data.append([[_fmt(mat[j, k]) for k in range(fused.d + 1)] for j in range(fused.d + 1)])
    data = {
        "partition": str(partition),
        "fused_multiplicities": [_fmt(x) for x in fused_mults],
        "fused_matrices": mats_data,
    }
    _emit(args, _report_payload("fuse", "well-defined", data), lines)
    return EXIT_OK


def _cmd_casev(args) -> int:
    if args.search_max is not None and not (args.reject or args.symbolic):
        hits = casev.search_m(args.search_max)
        data = {"search_max": args.search_max, "hits": hits}
        _emit(args, _report_payload("casev", "search complete", data), [" ".join(map(str, hits))])
        return EXIT_OK
    if args.symbolic:
        result = transcript = casev.derive_section32()
        verdict = "verified" if transcript.verified else "step 5 does not verify"
        data = {"steps": [s.claim for s in transcript.steps]}
    elif args.reject:
        result = casev.reject_case_v(10000 if args.search_max is None else args.search_max)
        transcript = result.branch_b
        verdict = (
            "nonexistence verified"
            if result.verified
            else "numeric branch verified; symbolic branch has a documented defect"
        )
        data = {
            "search_max": result.search_max,
            "survivors": result.survivors,
            "rejections": {str(k): v for k, v in result.rejections.items()},
        }
    else:
        print("error: casev needs one of --search-max, --reject, --symbolic", file=sys.stderr)
        return EXIT_INPUT
    checks = [(f"step {s.index}", s.verified, s.discrepancy) for s in transcript.steps]
    _emit(args, _report_payload("casev", verdict, data, checks), result.lines())
    return EXIT_OK if result.verified else EXIT_INTERNAL


@lru_cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`run` and shared by the rest;
    parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="asx",
        description="Exact association-scheme parameter computations.",
    )
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.add_argument("--approx", action="store_true", help="decimal hints in text mode")
    sub = p.add_subparsers(dest="command")

    c = sub.add_parser("check", help="feasibility battery for a params file")
    c.add_argument("file")
    c.set_defaults(func=_cmd_check)

    o = sub.add_parser("orderings", help="second Q-polynomial orderings")
    o.add_argument("file")
    o.set_defaults(func=_cmd_orderings)

    f = sub.add_parser("fuse", help="fuse idempotent classes along a partition")
    f.add_argument("file")
    f.add_argument("--partition", required=True)
    f.set_defaults(func=_cmd_fuse)

    v = sub.add_parser("casev", help="the exceptional 5-class configuration")
    v.add_argument("--search-max", type=int, default=None, dest="search_max")
    v.add_argument("--reject", action="store_true")
    v.add_argument("--symbolic", action="store_true")
    v.set_defaults(func=_cmd_casev)
    return p


def run(argv) -> int:
    """Dispatch; never lets a malformed input crash."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_INPUT
    try:
        return args.func(args)
    except WellDefinednessViolation as exc:
        print(f"fusion is not well-defined: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (
        ParseError,
        InvalidPartition,
        InvalidParameter,
        InvariantViolation,
        UnsupportedAlgebraicDegree,
        ZeroDivisionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        # a result too long to print: every report is built before any of
        # it is printed, so nothing has reached stdout
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: a result has an integer of more than {limit} digits, "
              "too long to print", file=sys.stderr)
        return EXIT_INPUT
    except AsxError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
