"""Seeded inputs and their references for the four asx workloads.

Everything here is standard library only and never imports asx: the inputs
and the expected answers must not come from the code under test.  Answers
that follow from theory or from the paper are filled in here; answers for
the random draws are left for ``reference.py`` to compute with sympy.

An operation is a dict with an ``id``, a ``kind`` (``cli`` or ``lib``), what
to run (``argv`` or ``call`` with ``args``) and an ``expect`` dict that
``worker.py`` checks the result against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F
from math import comb

WORKLOADS = ("screen", "sweep", "proof", "oracle")

# The random draws take their entries from small integers and halves, one in
# RANDOM_NEGATIVE with a minus sign.  Negative entries are what produce the
# complex-root crash and the repeated-eigenvalue exit 3 (ROADMAP item 5), so
# they are kept; the draws are never filtered on their outcome.
RANDOM_VALUES = (F(1), F(2), F(3), F(4), F(1, 2), F(3, 2))
RANDOM_NEGATIVE = 0.3
# Draws per d.  Most known-defect inputs are at d = 2, where a draw is cheap.
# Their battery checks are a block of similar latencies that holds the
# median, away from the gaps between other kinds of operation.  d = 5 loads
# the quadratic-factor search.  There are no d = 4 draws: one costs from
# 30 ms to 0.8 s, so two of them moved pass_s by 15% from seed to seed.
RANDOM_PER_D = {2: 64, 3: 8, 5: 4}

SEARCH_MAX = 200_000  # plus a seeded offset below 1000

# Per-operation limit in seconds; an operation over it fails.  It is far
# above the slowest operation (about 3 s), so that a slow spell of the
# machine cannot make an operation fail in one run and not in another.
OP_LIMIT_S = 60.0

# Second eigenmatrix of the m = 5 candidate, rows as displayed in the paper
# (with the corrected radical, see the README errata); each entry is
# (a, b) for a + b*sqrt(21).
PAPER_Q_M5 = [
    [(1, 0), (5, 0), (10, 0), (10, 0), (25, 0), (5, 0)],
    [(1, 0), (1, 0), (-2, 0), (-2, 0), (1, 0), (1, 0)],
    [(1, 0), (-2, F(1, 3)), (F(2, 3), F(-2, 3)), (F(2, 3), F(2, 3)), (F(5, 3), 0), (-2, F(-1, 3))],
    [(1, 0), (-2, F(-1, 3)), (F(2, 3), F(2, 3)), (F(2, 3), F(-2, 3)), (F(5, 3), 0), (-2, F(1, 3))],
    [(1, 0), (1, F(2, 3)), (F(8, 3), F(2, 3)), (F(8, 3), F(-2, 3)), (F(-25, 3), 0), (1, F(-2, 3))],
    [(1, 0), (1, F(-2, 3)), (F(8, 3), F(-2, 3)), (F(8, 3), F(2, 3)), (F(-25, 3), 0), (1, F(2, 3))],
]


def _s(x) -> str:
    return str(F(x))


def array(name: str, c, a, b, **extra) -> dict:
    """A tridiagonal Krein array (c1..cd, a1..ad, b0..b(d-1)) as strings."""
    return {"name": name, "d": len(c), "c": [_s(x) for x in c],
            "a": [_s(x) for x in a], "b": [_s(x) for x in b], **extra}


def params_text(arr: dict) -> str:
    return (
        "format: asx-params v1\n"
        f"d: {arr['d']}\n"
        "field: Q\n"
        f"c: {' '.join(arr['c'])}\n"
        f"a: {' '.join(arr['a'])}\n"
        f"b: {' '.join(arr['b'])}\n"
    )


def hamming(d: int, q: int) -> dict:
    """H(d, q) is self-dual, so its Krein array is its intersection array:
    c_i = i, a_i = i(q-2), b_i = (d-i)(q-1).  A genuine scheme: feasible,
    n = q^d, multiplicities = valencies = C(d,i)(q-1)^i."""
    mult = [_s(comb(d, i) * (q - 1) ** i) for i in range(d + 1)]
    return array(
        f"hamming-d{d}-q{q}",
        [i for i in range(1, d + 1)],
        [i * (q - 2) for i in range(1, d + 1)],
        [(d - i) * (q - 1) for i in range(d)],
        check={"exit": 0, "verdict": "feasible", "n": _s(q ** d),
               "multiplicities": mult, "valencies": mult},
    )


def casev_array(m) -> dict:
    """The paper's one-parameter 5-class family at numeric m.  At m = 5 the
    paper's answer: infeasible, with the p-number 72/7."""
    m = F(m)
    arr = array(
        f"casev-m{m}",
        [1, (m - 1) / 2, 2 * m / (m + 1), 2 * (m - 1) / (m + 1), m],
        [0, (m - 1) ** 2 / (2 * (m + 1)), 0, (m - 1) ** 2 / (m + 1), 0],
        [m, m - 1, 2 * m / (m + 1), m * (m - 1) / (m + 1), 1],
    )
    if m == 5:
        arr["check"] = {"exit": 1, "verdict": "infeasible", "n": "56",
                        "multiplicities": ["1", "5", "10", "10", "25", "5"],
                        "witness": ("intersection-integrality", "72/7")}
    return arr


def named_arrays() -> list[dict]:
    """Genuine schemes with known parameters, plus the m = 5 candidate."""
    c5 = array(  # the pentagon is self-dual; dual eigenvalues in Q(sqrt 5)
        "pentagon", [1, 1], [0, 1], [2, 1],
        check={"exit": 0, "verdict": "feasible", "n": "5",
               "multiplicities": ["1", "2", "2"], "valencies": ["1", "2", "2"]},
    )
    petersen = array(  # Krein array of the Petersen scheme, E1 of rank 5
        "petersen", [1, F(20, 9)], [F(20, 9), F(25, 9)], [5, F(16, 9)],
        check={"exit": 0, "verdict": "feasible", "n": "10",
               "multiplicities": ["1", "5", "4"], "valencies": ["1", "3", "6"]},
    )
    m5 = casev_array(5)
    m5["orderings"] = {"exit": 0, "orderings": ["(0,1,2,3,4,5)", "(0,5,3,2,4,1)"]}
    return [c5, petersen, m5]


def random_array(rng: random.Random, d: int, k: int) -> dict:
    """Random tridiagonal data whose columns all sum to b0 (so b0 is an
    eigenvalue of B1*), with c1 = 1 and every c_i, b_i nonzero."""

    def value():
        x = rng.choice(RANDOM_VALUES)
        return -x if rng.random() < RANDOM_NEGATIVE else x

    b0 = F(rng.randint(1, 6))
    c = [F(1)] + [value() for _ in range(d - 1)]
    b = [b0] + [value() for _ in range(d - 1)]
    a = [b0 - c[i] - (b[i + 1] if i + 1 < d else 0) for i in range(d)]
    return array(f"random-d{d}-{k}", c, a, b, random=True)


def _cli_op(command: str, arr: dict, path: str) -> dict:
    """``check`` or ``orderings`` on an array; a missing expectation is
    filled in by reference.py."""
    return {"id": f"{command} {arr['name']}", "kind": "cli",
            "argv": ["--report", "json", command, path], "input": arr, "expect": arr.get(command)}


def q_condition_count(d: int) -> int:
    """Triples checked by (Q1)/(Q2): one index at least the sum of the others."""
    return sum(
        1
        for t in itertools.product(range(d + 1), repeat=3)
        if 2 * max(t) >= sum(t)
    )


def build(workload: str, seed: int, workdir: str) -> dict:
    """Operations of one pass, warm-up operations and params files to write."""
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}

    def file_for(arr: dict) -> str:
        path = f"{workdir}/{arr['name']}.params"
        files[path] = params_text(arr)
        return path

    if workload == "screen":
        arrays = [hamming(d, q) for d in range(2, 7) for q in range(2, 6)]
        arrays += [hamming(7, q) for q in (2, 3)]
        arrays += named_arrays()
        ops = []
        for arr in arrays:
            path = file_for(arr)
            ops += [_cli_op("check", arr, path), _cli_op("orderings", arr, path)]
        # Random draws go through check only: their orderings are 2-20 ms
        # scans that add nothing the fixed arrays do not, and they would put
        # the median on the gap between themselves and the battery checks.
        for d, count in RANDOM_PER_D.items():
            ops += [_cli_op("check", arr, file_for(arr)) for arr in (random_array(rng, d, k) for k in range(count))]
        rng.shuffle(ops)
        warm = hamming(2, 2)
        warm["name"] = "warmup"
        wpath = file_for(warm)
        warmup = [_cli_op("check", warm, wpath), _cli_op("orderings", warm, wpath)]
    elif workload == "sweep":
        ops = [_cli_op("check", arr, file_for(arr)) for arr in map(casev_array, range(2, 10))]
        rng.shuffle(ops)
        warmup = [_cli_op("check", casev_array(2), file_for(casev_array(2)))]
    elif workload == "proof":
        search_max = SEARCH_MAX + rng.randrange(1000)
        step5_only = {"failing_steps": [5], "steps": 7}
        ops = [
            {"id": f"casev --search-max {search_max}", "kind": "cli",
             "argv": ["--report", "json", "casev", "--search-max", str(search_max)],
             "expect": {"exit": 0, "hits": [1, 5]}},
            {"id": "casev --reject", "kind": "cli", "argv": ["--report", "json", "casev", "--reject"],
             "expect": {"exit": 3, "survivors": [1, 5], "rejections": {"1": "degenerate", "5": "72/7"},
                        **step5_only}},
            {"id": "casev --symbolic", "kind": "cli", "argv": ["--report", "json", "casev", "--symbolic"],
             "expect": {"exit": 3, **step5_only}},
            {"id": "verify_dual_consistency(casev_spec(None))", "kind": "lib",
             "call": "verify_dual_consistency",
             "expect": {"counts": [6, 216, q_condition_count(5)]}},
            {"id": "fused_krein_reference_report()", "kind": "lib", "call": "fused_krein_reference_report",
             "expect": {"column_sums_ok": True, "mismatches": [[2, 3], [3, 3]]}},
            {"id": "fusion_pipeline(5)", "kind": "lib", "call": "fusion_pipeline", "args": [5],
             "expect": {"delta": "72", "valencies": ["1", "25", "20", "10"]}},
            {"id": "scheme_params(casev_spec(5))", "kind": "lib", "call": "scheme_params_casev",
             "args": [5], "expect": {"q_rows": [[[_s(a), _s(b)] for a, b in row] for row in PAPER_Q_M5]}},
        ]
        rng.shuffle(ops)
        warmup = [{"id": "casev --search-max 10", "kind": "cli",
                   "argv": ["--report", "json", "casev", "--search-max", "10"],
                   "expect": {"exit": 0, "hits": [1, 5]}}]
    elif workload == "oracle":
        schemes = [("hypercube", n) for n in range(2, 7)] + [("petersen", None), ("cycle", 5)]
        schemes += [("complete", n) for n in rng.sample(range(5, 9), 2)]
        rng.shuffle(schemes)
        ops = [op for name, par in schemes for op in oracle_ops(name, par)]
        warmup = oracle_ops("complete", 2)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "ops": ops, "warmup": warmup, "files": files,
            "op_limit_s": OP_LIMIT_S}


def oracle_theory(name: str, par) -> dict:
    """n, d, valencies and multiplicities of the named schemes, from theory."""
    if name == "hypercube":
        v = [_s(comb(par, i)) for i in range(par + 1)]
        return {"n": 2 ** par, "d": par, "valencies": v, "multiplicities": v}
    if name == "petersen":
        return {"n": 10, "d": 2, "valencies": ["1", "3", "6"], "multiplicities": ["1", "5", "4"]}
    if name == "cycle":
        return {"n": par, "d": par // 2, "valencies": ["1"] + ["2"] * (par // 2),
                "multiplicities": ["1"] + ["2"] * (par // 2)}
    if name == "complete":
        return {"n": par, "d": 1, "valencies": ["1", _s(par - 1)], "multiplicities": ["1", _s(par - 1)]}
    raise ValueError(name)


def oracle_ops(name: str, par) -> list[dict]:
    """Count a named scheme, then rebuild it from its Krein array: the
    counted p^k_ij and Krein tensor must equal the ladder/eigenmatrix path."""
    label = name if par is None else f"{name}-{par}"
    theory = oracle_theory(name, par)

    def op(call, expect, args=None):
        return {"id": f"{call} {label}", "kind": "lib", "call": call, "args": args or [],
                "group": label, "expect": expect}

    return [
        op("named_scheme", {"n": theory["n"], "d": theory["d"]}, [name, par]),
        op("scheme_from_relations", theory),
        op("tridiagonal_from_tensor", {}),
        op("scheme_params", {}),
        op("intersection_tensor", {}),
    ]
