"""Self-tests of the benchmark's independent checks.

Each check in oracle.py must accept a known right answer and reject a
planted wrong one: a perturbed Betti entry, an off-by-one Hilbert value,
a singular distraction selection and a miscounted enumeration.  run.py
runs these before every benchmark run; `python3 perfbench/selftest.py`
runs them alone and exits 1 if one fails.
"""

from __future__ import annotations

import sys

import oracle

# (n, generators, graded Betti numbers of A/I), worked out by hand
KNOWN_BETTI = [
    (2, [(1, 0), (0, 1)], {(0, 0): 1, (1, 1): 2, (2, 2): 1}),
    (2, [(2, 0), (1, 1), (0, 2)], {(0, 0): 1, (1, 2): 3, (2, 3): 2}),
    (3, [(2, 0, 0), (0, 3, 0)], {(0, 0): 1, (1, 2): 1, (1, 3): 1, (2, 5): 1}),
    (3, [(1, 1, 0), (0, 1, 1)], {(0, 0): 1, (1, 2): 2, (2, 3): 1}),
]


def run_all() -> list:
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(f"self-test: {what}")

    for n, gens, table in KNOWN_BETTI:
        expect(not oracle.check_betti(table, gens, n, 6), f"Betti table of {gens} rejected")
        for key in table:
            bad = dict(table)
            bad[key] += 1
            expect(oracle.check_betti(bad, gens, n, 6), f"perturbed Betti {key} of {gens} accepted")

    gens, n = [(2, 0, 0), (1, 1, 0), (0, 1, 2)], 3
    hf = list(oracle.hilbert(gens, n, 6))
    expect(hf[:4] == [1, 3, 4, 4], f"hand Hilbert function {hf[:4]}")
    expect(not oracle.check_hilbert(gens, n, 6, hf), "right Hilbert function rejected")
    for d in range(len(hf)):
        bad = list(hf)
        bad[d] += 1
        expect(oracle.check_hilbert(gens, n, 6, bad), f"off-by-one Hilbert value at {d} accepted")

    valid = [[(1, 0), (1, 2)], [(0, 1), (3, 1)]]
    singular = [[(1, 0), (1, 1)], [(0, 1), (2, 2)]]
    expect(not oracle.check_distraction(valid, 7), "valid distraction rejected")
    expect(oracle.check_distraction(singular, 7), "singular distraction selection accepted")
    expect(oracle.check_distraction([[(1, 0), (3, 2)], [(0, 1), (5, 1)]], 7),
           "selection singular only mod 7 accepted")

    expect(oracle.count_superideals(1, [], 3) == 5, "ideals of K[x] in degree <= 3")
    expect(oracle.count_superideals(2, [], 1) == 5, "ideals of K[x,y] in degree <= 1")
    expect(oracle.count_superideals(2, [(1, 0)], 1) == 3, "ideals over (x) in degree <= 1")
    return problems


if __name__ == "__main__":
    found = run_all()
    for line in found:
        print(line)
    print("self-tests:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
