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


def test_codistra_block_checks_clean(tmp_path, monkeypatch):
    # the block captures one random_distraction per sample
    monkeypatch.syspath_prepend(str(SPANS.parent))
    import workloads

    block = workloads.CodistraBlock("codistra-h0", 5, 6, 12345)
    block.prepare(str(tmp_path))
    block.run()
    assert block.rc == 0 and block.check() == []
    assert len(block.capture.distractions) == block.ops == 5


def test_distraction_hf_block_checks_clean(tmp_path, monkeypatch):
    # the report must count at least one case per sample
    monkeypatch.syspath_prepend(str(SPANS.parent))
    import random

    import workloads

    rows = workloads.seeded_distraction(random.Random(12345), 3, 6)
    block = workloads.SampledShakinBlock("distraction-hf", "distraction-hf",
                                         workloads.X1SQ_X2CU, rows, 12, 5, 12345)
    block.prepare(str(tmp_path))
    block.run()
    assert block.rc == 0 and block.check() == []
    assert block.report()["cases_checked"] >= block.ops == 12
