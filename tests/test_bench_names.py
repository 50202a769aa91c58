"""The benchmark's tracer wraps asx functions by name; every name must resolve.

``perfbench/tracing.py`` lists ``(module, attribute)`` pairs in SPANS and
COUNTERS and patches them from outside.  A rename or deletion in asx would
break ``perfbench/run.py --trace 1`` without failing any other test, so the
lists are loaded here (the file is only read) and resolved on the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _resolves(mod: str, attr: str) -> bool:
    owner = importlib.import_module(f"asx.{mod}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("_asx_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(mod, attr) for mod, attr, _ in tracing.SPANS + tracing.COUNTERS]
    assert len(names) > 20
    assert [f"{m}.{a}" for m, a in names if not _resolves(m, a)] == []
    for mod in tracing.IMPORTS:
        importlib.import_module(f"asx.{mod}")
