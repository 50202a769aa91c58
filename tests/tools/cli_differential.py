"""Compare the ``asx`` command line of two checkouts on seeded params files.

    python tests/tools/cli_differential.py BASE HEAD

BASE and HEAD are checkout roots, each with ``src/asx``.  The script writes
a fixed seeded set of params files to a temporary directory:

* 400 rational arrays with d = 2..4 (half of them d = 2) whose columns all sum
  to b0*;
* the Hamming arrays H(d, q), d = 1..6 and q = 2..5;
* 100 arrays over Q(sqrt D) whose columns all sum to b0*;
* ``demos/casev-m5.params`` from HEAD.

Each checkout then runs, in a process of its own with its own ``src`` first
on ``sys.path``, ``check`` (text and JSON), ``orderings`` and ``fuse`` (along
the singleton partition and along a seeded one) on every file through
``asx.cli.run``.  Every call whose stdout, stderr or exit code differs is
printed; the exit code is 1 if any differs and 0 otherwise.  A call that
raises is recorded as the exception's type and message.  Standard library
only; it is not a pytest module.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

SMALL = [Fraction(n, q) for q in (1, 2, 3) for n in range(1, 7)]
RADICANDS = (2, 3, 5, 6, 7, 10, 21)
SEED, RATIONAL, QUADRATIC = 1, 400, 100


def _params(d: int, field: str, c, a, b) -> str:
    return (f"format: asx-params v1\nd: {d}\nfield: {field}\n"
            + "".join(f"{key}: {' '.join(map(str, xs))}\n" for key, xs in zip("cab", (c, a, b))))


def _rational_array(rng: random.Random) -> str:
    """c1* = 1, small positive c_i* and b_i*, and each a_i* from its column
    sum b0* (so some a_i* are negative).  Half are d = 2, whose eigenvalues
    are rational or quadratic, so their ``check`` reaches the battery unless
    they are complex or repeated."""
    d = rng.choice((2, 2, 3, 4))
    c = [Fraction(1)] + [rng.choice(SMALL) for _ in range(d - 1)]
    b = [Fraction(rng.randint(2, 12))] + [rng.choice(SMALL) for _ in range(d - 1)]
    a = [b[0] - c[i] - (b[i + 1] if i + 1 < d else 0) for i in range(d)]
    return _params(d, "Q", c, a, b)


def _hamming(d: int, q: int) -> str:
    return _params(d, "Q", range(1, d + 1), [i * (q - 2) for i in range(1, d + 1)],
                   [(d - i) * (q - 1) for i in range(d)])


def _quadratic(r: Fraction, s: Fraction, radicand: int) -> str:
    if not s:
        return str(r)
    return f"{r}{'+' if s > 0 else '-'}{abs(s)}*sqrt({radicand})"


def _quadratic_array(rng: random.Random) -> str:
    """As :func:`_rational_array`, with each c_i* (i > 1) and b_i* given a
    sqrt part half the time; a_i* = b0* - c_i* - b_i* in Q(sqrt D)."""
    d, radicand = rng.randint(2, 3), rng.choice(RADICANDS)

    def entry():
        return rng.choice(SMALL), rng.choice([0, *SMALL]) * rng.choice((1, -1))

    c = [(Fraction(1), 0)] + [entry() for _ in range(d - 1)]
    b = [(Fraction(rng.randint(2, 12)), 0)] + [entry() for _ in range(d - 1)]
    a = [tuple(b[0][t] - c[i][t] - (b[i + 1][t] if i + 1 < d else 0) for t in (0, 1))
         for i in range(d)]
    return _params(d, f"Q(sqrt {radicand})", *([_quadratic(*x, radicand) for x in xs]
                                                for xs in (c, a, b)))


def params_files(head: Path) -> dict[str, str]:
    """The params files by name, in a fixed order."""
    rng = random.Random(SEED)
    files = {f"rational-{k}": _rational_array(rng) for k in range(RATIONAL)}
    files |= {f"H({d},{q})": _hamming(d, q) for d in range(1, 7) for q in range(2, 6)}
    files |= {f"quadratic-{k}": _quadratic_array(rng) for k in range(QUADRATIC)}
    files["casev-m5"] = (head / "demos" / "casev-m5.params").read_text()
    return files


def calls(paths: dict[str, Path]) -> list[list[str]]:
    """``check`` in text and JSON, ``orderings`` and two ``fuse`` calls per file."""
    rng = random.Random(SEED)
    out = []
    for name, path in paths.items():
        d = int(next(ln for ln in path.read_text().splitlines() if ln.startswith("d:"))[2:])
        classes = list(range(1, d + 1))
        rng.shuffle(classes)
        cuts = sorted(rng.sample(range(1, d), rng.randint(0, d - 1))) if d > 1 else []
        blocks = [classes[i:j] for i, j in zip([0, *cuts], [*cuts, d])]
        seeded = "|".join(["0", *(",".join(map(str, blk)) for blk in blocks)])
        singletons = "|".join(map(str, range(d + 1)))
        f = str(path)
        out += [["check", f], ["--report", "json", "check", f], ["orderings", f],
                ["fuse", f, "--partition", singletons], ["fuse", f, "--partition", seeded]]
    return out


def run_side(src: str, calls_path: str) -> None:
    """Run every call through ``asx.cli.run`` with ``src`` first on the path
    and print ``[exit, stdout, stderr]`` per call as one JSON list."""
    sys.path.insert(0, src)
    from asx.cli import run

    results = []
    for argv in json.loads(Path(calls_path).read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except Exception as exc:  # a traceback is a difference like any other
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    print(json.dumps(results))


def main(base: Path, head: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {}
        for k, (name, text) in enumerate(params_files(head).items()):
            paths[name] = tmp / f"{k:04d}.params"
            paths[name].write_text(text)
        argvs = calls(paths)
        calls_path = tmp / "calls.json"
        calls_path.write_text(json.dumps(argvs))
        sides = []
        for root in (base, head):
            proc = subprocess.run(
                [sys.executable, __file__, "--side", str(root.resolve() / "src"), str(calls_path)],
                capture_output=True, text=True, check=False)
            if proc.returncode:
                print(f"{root}: the side run failed\n{proc.stderr}", file=sys.stderr)
                return 1
            sides.append(json.loads(proc.stdout))
        names = {str(p): name for name, p in paths.items()}
        differ = 0
        for argv, old, new in zip(argvs, *sides):
            if old != new:
                differ += 1
                path = next(a for a in argv if a in names)
                print(f"DIFF {names[path]}: asx {' '.join(argv)}")
                for label, x, y in zip(("exit", "stdout", "stderr"), old, new):
                    if x != y:
                        print(f"  {label}: {x!r}\n  {' ' * len(label)}  {y!r}")
                print("  file:\n    " + paths[names[path]].read_text().replace("\n", "\n    "))
    print(f"{len(paths)} params files, {len(argvs)} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--side":
        run_side(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 3:
        sys.exit(main(Path(sys.argv[1]), Path(sys.argv[2])))
    else:
        sys.exit(__doc__.split("\n\n")[1])
