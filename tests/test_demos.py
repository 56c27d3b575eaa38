"""demos: each script's stdout is pinned byte for byte by its sha256."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMO_DIGESTS = {
    "01_monomial_ideals_and_hilbert_functions.py":
        "e7dea9a9a6eaeccc2e57d5c52d7ae05d66e3cdaa64ab8fc61799314c49c37ae5",
    "02_macaulay_growth_and_lex_ideals.py":
        "05b681412dd9b7ca459a442bdcdf48cd3ea3ccfabc43f371967e5a4c81d384dd",
    "03_shakin_rings_and_lex_embeddings.py":
        "101366605f3ee5e3420fddd5e4e2f2220d4176094b8c2aca6e0f3575a6fae598",
    "04_distractions_and_polarization.py":
        "a03590ae0912ec7229de5c86ed2afff4e6bc3ca8e35d461280a772b49ff33ec0",
    "05_betti_numbers_and_local_cohomology.py":
        "d91e0a6143a1a7799c0928b488f25fc3c218063f6fee89b9121bd8e1f845c3f9",
    "06_verification_harness.py":
        "2a11e51ccacc7b74df572150c6057db0ee19079cce4e9f24114fbcf2d74b0afe",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_DIGESTS) == sorted(
        f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_bytes_pinned(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
