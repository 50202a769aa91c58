"""Golden outputs: the six README invocations, the four demo scripts and
every entry of the two symbolic Krein ladders, byte for byte.

Each CLI case runs ``asx`` in-process from the repository root, in both
report formats, and compares stdout and the exit code with the files under
``tests/golden/``.  The exit codes are part of the contract: ``check`` on the
m = 5 candidate is infeasible (1), and ``casev --reject`` and
``casev --symbolic`` end in 3 because step 5 of the symbolic branch does not
verify.  Each demo script runs in-process as ``__main__`` and its stdout is
compared with ``tests/golden/<script>.stdout``.
"""

import runpy
from pathlib import Path

import pytest

from asx.casev import _free_tridiagonal, casev_spec
from asx.cli import run
from asx.scheme import krein_ladder

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("check", ["check", "demos/casev-m5.params"], 1),
    ("orderings", ["orderings", "demos/casev-m5.params"], 0),
    ("fuse", ["fuse", "demos/casev-m5.params", "--partition", "0|1,5|2,3|4"], 0),
    ("casev-search", ["casev", "--search-max", "1000000"], 0),
    ("casev-reject", ["casev", "--reject"], 3),
    ("casev-symbolic", ["casev", "--symbolic"], 3),
]


@pytest.mark.parametrize("report", ["text", "json"])
@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_readme_invocation(name, argv, code, report, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run(["--report", report] + argv) == code
    expected = (GOLDEN / f"{name}.{report}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


DEMOS = ["demo_fusion", "demo_nonexistence", "demo_oracles", "demo_symbolic"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_script(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    expected = (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def _ladder_text(title, tensor):
    """One line per Krein parameter q^k_ij = (Bi*)[j, k], in (i, j, k) order."""
    d = tensor.d
    lines = [f"# {title}"]
    for i in range(d + 1):
        for j in range(d + 1):
            for k in range(d + 1):
                lines.append(f"q^{k}_{{{i},{j}}} = {tensor.q(i, j, k)}")
    return "\n".join(lines) + "\n"


def _casev_ladder():
    return _ladder_text("krein_ladder(casev_spec(None).spec)", krein_ladder(casev_spec(None).spec))


def _section32_ladders():
    # the two ladders derive_section32 reads its steps 2-4 from
    return "".join(
        _ladder_text(f"krein_ladder(_free_tridiagonal({subs}))", krein_ladder(_free_tridiagonal(subs)))
        for subs in ({"b4": 1}, {"b4": 1, "a3": 0})
    )


LADDERS = {"ladder-casev.txt": _casev_ladder, "ladder-section32.txt": _section32_ladders}


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_symbolic_ladder_entries(name):
    # Every entry of the symbolic ladders as printed, not only the handful the
    # transcripts show: pins term order, signs and the normalised form.
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert LADDERS[name]() == expected
