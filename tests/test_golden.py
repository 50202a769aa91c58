"""Golden outputs: the six README invocations, byte for byte.

Each case runs ``asx`` in-process from the repository root, in both report
formats, and compares stdout and the exit code with the files under
``tests/golden/``.  The exit codes are part of the contract: ``check`` on the
m = 5 candidate is infeasible (1), and ``casev --reject`` and
``casev --symbolic`` end in 3 because step 5 of the symbolic branch does not
verify.
"""

from pathlib import Path

import pytest

from asx.cli import run

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
