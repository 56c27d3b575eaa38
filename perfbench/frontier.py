"""Scale frontier: the largest size each checker finishes within its budget.

    python3 perfbench/frontier.py

Run from the root of a lexdist checkout.  For each checker the size
parameter (dmax or n) grows from a known-cheap start; each size runs as
one `lexdist` command in a fresh single-threaded process, killed at the
budget of the checker's acceptance criterion (tests/test_acceptance.py)
and limited to 2 GB of address space.  The frontier is the last size that
finished.  Inputs use the acceptance criteria's rings, sample counts and
seeds; the distraction is the benchmark's own, drawn from seed 106.  A
whole sweep takes up to about half an hour.  Prints one JSON line per size and
a summary line.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import single_thread_env  # noqa: E402

MEMORY_LIMIT = 2 * 1024 ** 3
DISTRACTION = {
    "n": 3, "char": workloads.P,
    "rows": [[{"c": list(e)} for e in row]
             for row in workloads.seeded_distraction(random.Random(106), 3, 6)],
}

# sizes above this are not tried; a checker that reaches it reports ">= MAX_SIZE"
MAX_SIZE = 12

# kind: (budget seconds, the criterion it comes from, size name, first size,
#        function of (size, input files) giving the CLI arguments)
CHECKERS = {
    "macaulay-lex": (60, "acceptance 02", "dmax", 4, lambda k, f: [
        "verify", "macaulay-lex", "--shakin", f["ring1"], "--dmax", str(k), "--budget", "10000000"]),
    "betti-extremal": (300, "acceptance 03", "dmax", 3, lambda k, f: [
        "verify", "betti-extremal", "--shakin", f["x1sq"], "--dmax", str(k), "--budget", "10000000"]),
    "betti-invariance": (120, "acceptance 04", "n", 3, lambda k, f: [
        "verify", "betti-invariance", "--n", str(k), "--samples", "100", "--dmax", "6",
        "--seed", "104"]),
    "distraction-hf": (180, "acceptance 06", "dmax", 5, lambda k, f: [
        "verify", "distraction-hf", "--shakin", f["x1sq_x2cu"], "--distraction", f["dist"],
        "--samples", "100", "--dmax", str(k), "--seed", "106"]),
    "codistra-h0": (180, "acceptance 07", "n", 3, lambda k, f: [
        "verify", "codistra-h0", "--n", str(k), "--samples", "100", "--dmax", "6",
        "--seed", "107"]),
}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_size(argv, budget):
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-m", "lexdist.cli", *argv], cwd=ROOT,
                              env=single_thread_env(),
                              capture_output=True, timeout=budget, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return None, "timeout"
    elapsed = time.monotonic() - start
    if proc.returncode not in (0, 1):
        return None, f"exit {proc.returncode}: {proc.stderr[-200:].decode(errors='replace')}"
    return elapsed, "ok"


def main() -> int:
    summary = {}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench"), prefix="frontier-") as tmp:
        files = {}
        for key, data in (("ring1", workloads.SHAKIN_RINGS[1][0]), ("x1sq", workloads.X1SQ),
                          ("x1sq_x2cu", workloads.X1SQ_X2CU), ("dist", DISTRACTION)):
            files[key] = os.path.join(tmp, f"{key}.json")
            with open(files[key], "w") as fh:
                json.dump(data, fh)
        for kind, (budget, source, size_name, size, build) in CHECKERS.items():
            frontier = None
            while True:
                elapsed, status = run_size(build(size, files), budget)
                print(json.dumps({"kind": kind, size_name: size, "seconds": elapsed,
                                  "status": status}), flush=True)
                if elapsed is None:
                    break
                frontier = size
                if size == MAX_SIZE:
                    frontier = f">= {MAX_SIZE}"
                    break
                size += 1
            summary[kind] = {"frontier": {size_name: frontier}, "budget_s": budget,
                             "budget_from": source}
    print(json.dumps({"frontier": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
