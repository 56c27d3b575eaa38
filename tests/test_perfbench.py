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


def test_betti_invariance_block_checks_clean(tmp_path, monkeypatch):
    # the block captures exactly two koszul_betti tables per sample, so a
    # koszul_betti that calls itself through its public name fails here
    monkeypatch.syspath_prepend(str(SPANS.parent))
    import workloads

    block = workloads.BettiInvarianceBlock("betti-invariance", 3, 5, 6, 12345)
    block.prepare(str(tmp_path))
    block.run()
    assert block.rc == 0 and block.check() == []
    assert len(block.capture.tables) == 2 * block.ops == 10
