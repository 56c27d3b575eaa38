"""One round of a workload in a fresh process; run.py starts it.

    python3 perfbench/round.py --workload NAME --seed N --launched T
                               [--trace | --bracket] [--setup-only]

T is the launcher's time.monotonic() just before it started this process,
so set-up time counts interpreter start, the lexdist/numpy import and
writing the inputs.  The round then times each block (checker time),
checks every output apart from lexdist, and prints one JSON line.  Times
are given in wall seconds and in reference seconds (see speed.py).  A
traced round, and with --bracket an untraced one, samples machine speed
only around each block, so the two compare like with like.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--bracket", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy  # noqa: F401  (part of what every lexdist user imports)
    import lexdist.cli  # noqa: F401

    import speed
    import workloads
    from spans import Tracer

    workdir = os.path.join(ROOT, ".perfbench", f"round-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        blocks = workloads.WORKLOADS[args.workload](args.seed)
        for block in blocks:
            block.prepare(workdir)
        setup_wall_s = time.monotonic() - args.launched
        setup_s = setup_wall_s * speed.REFERENCE_S / statistics.median(
            speed.kernel() for _ in range(3))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        meter = speed.SpeedMeter(inside=not (args.trace or args.bracket))
        times, walls = {}, {}
        for block in blocks:
            if tracer:
                def run(block=block):
                    with tracer.span(f"bench.{block.name}"):
                        block.run()
            else:
                run = block.run
            walls[block.name], times[block.name] = meter.measure(run)
        if tracer:
            tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = []
        for block in blocks:
            problems += block.check()
        digest = hashlib.sha256()
        for block in blocks:
            digest.update(block.output())
        result = {
            "setup_s": setup_s,
            "setup_wall_s": setup_wall_s,
            "checker_s": sum(times.values()),
            "checker_wall_s": sum(walls.values()),
            "block_s": times,
            "attempted": sum(b.ops for b in blocks),
            "failed": sum(b.failed() for b in blocks),
            "problems": problems[:20],
            "peak_rss_mb": rss_mb,
            "digest": digest.hexdigest(),
            "numpy": numpy.__version__,
        }
        if tracer:
            # self times in reference seconds, by the round's mean speed
            factor = result["checker_s"] / result["checker_wall_s"]
            result["layers"] = {k: v * factor if k.endswith("self_s") else v
                                for k, v in tracer.metrics().items()}
            result["rank_histogram"] = tracer.rank_histogram()
            tracer.dump(os.path.join(ROOT, ".perfbench",
                                     f"trace-{args.workload}-seed{args.seed}.json"))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
