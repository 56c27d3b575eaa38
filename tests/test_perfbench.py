"""The benchmark's span table still names functions that lexdist has."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    # perfbench/spans.py rebinds each traced name when it is installed, so a
    # deleted or renamed function would otherwise break only the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attribute, _, _ in spans.TRACED:
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append((module, attribute))
    assert spans.TRACED and missing == []
