"""lexdist benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lexdist checkout.  Every round of the workload runs
in a fresh single-threaded process (perfbench/round.py), with no warm-up,
because every `lexdist` invocation pays the import and cold caches.
Rounds repeat until S seconds have passed (at least two, so the reports
of two processes can be compared byte for byte).  A few extra processes
only set up, so set-up time is a median of several samples.

--trace 0 prints the end-to-end metrics of untraced rounds; --trace 1
alternates untraced and traced rounds and prints the per-layer metrics of
the traced ones plus the tracing overhead.  The last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it
records the rounds, the Python and numpy versions and the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3
# a run ends within 180 s: no round starts that could end past RUN_LIMIT_S,
# and a round still running at DEADLINE_S is killed
RUN_LIMIT_S = 150
DEADLINE_S = 175
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def single_thread_env():
    """The environment of a child process: lexdist from src/, every thread pool at 1."""
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                **{var: "1" for var in THREAD_VARS})


def round_process(workload, seed, deadline, *flags):
    env = single_thread_env()
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += list(flags)
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(deadline - launched, 1))
    except subprocess.TimeoutExpired:
        raise SystemExit("a round process ran past the run's deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"round process exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - launched
    result["traced"] = "--trace" in flags
    return result


def checker_s(rounds):
    """Checker time of one round: the sum over blocks of each block's median time.

    Taking the median block by block keeps a burst of machine noise in one
    block of one round out of the figure.
    """
    return sum(statistics.median(r["block_s"][name] for r in rounds)
               for name in rounds[0]["block_s"])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "lexdist", "__init__.py")):
        sys.stderr.write("no lexdist sources under src/: run from a lexdist checkout\n")
        return 2
    sys.path.insert(0, HERE)
    import selftest
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2

    started = time.monotonic()
    deadline = started + DEADLINE_S
    selftest_problems = selftest.run_all()
    setups = [round_process(args.workload, args.seed, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        if args.trace:
            plain.append(round_process(args.workload, args.seed, deadline, "--bracket"))
            traced.append(round_process(args.workload, args.seed, deadline, "--trace"))
        else:
            plain.append(round_process(args.workload, args.seed, deadline))
        elapsed = time.monotonic() - started
        longest = max(r["wall_s"] for r in plain + traced)
        rounds = len(plain) + len(traced)
        if rounds >= 2 and (elapsed >= args.seconds or elapsed + longest * (1 + args.trace) > RUN_LIMIT_S):
            break
    rounds = plain + traced
    setups += [r["setup_s"] for r in rounds]

    problems = list(selftest_problems)
    for r in rounds:
        problems += r["problems"]
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("CLI reports differ between processes with the same seed")
    if len({(r["attempted"], r["failed"]) for r in rounds}) != 1:
        problems.append("rounds of one seed attempted or failed different operations")

    if args.trace:
        metrics = {}
        for key in traced[0]["layers"]:
            metrics[key] = {"value": statistics.median(r["layers"][key] for r in traced),
                            "unit": spans.unit_of(key)}
        metrics["trace.overhead_s"] = {"value": checker_s(traced) - checker_s(plain),
                                       "unit": "s"}
    else:
        metrics = {
            "cases_per_s": {"value": plain[0]["attempted"] / checker_s(plain), "unit": "cases/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "numpy": rounds[0]["numpy"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "problems": problems[:20],
        "rounds": [{k: r[k] for k in ("setup_s", "setup_wall_s", "checker_s", "checker_wall_s",
                                      "block_s", "peak_rss_mb", "attempted", "failed",
                                      "traced")}
                   for r in rounds],
        "rank_histogram": traced[0]["rank_histogram"] if traced else None,
        "setup_samples": setups,
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
