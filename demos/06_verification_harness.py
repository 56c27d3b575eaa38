"""Running the statement-verification harness and reading its reports.

Each checker enumerates or samples cases deterministically (the seed is
recorded in the report), and either passes or returns self-contained,
replayable counterexample payloads.

Run:  python3 demos/06_verification_harness.py
"""

import json
import random

from lexdist.distraction import random_distraction
from lexdist.monomials import MonomialIdeal
from lexdist.shakin import make_piecewise_lex, make_shakin
from lexdist.verify import (
    enumerate_monomial_ideals_modulo,
    verify_betti_extremal,
    verify_codistra_h0,
    verify_distraction_hf,
    verify_macaulay_lex,
)

P = 32003

# The exhaustive substrate: all monomial ideals over a base, generated in
# bounded degree, streamed in a canonical order.
base = MonomialIdeal(2, [(2, 0)])
print("ideals over (x^2), gens <= 2:")
for ideal in enumerate_monomial_ideals_modulo(base, 2):
    print("  ", ideal)

# Macaulay-lex verification over a Shakin base: every superideal Hilbert
# function must embed, exhaustively.
a = make_shakin(make_piecewise_lex(3, [(1, MonomialIdeal(1, [(2,)]))]), (2, 3))
report = verify_macaulay_lex(a, 4)
print("macaulay-lex over", a.total, "->", "PASS" if report.passed else "FAIL",
      f"({report.cases_checked} ideals)")

# The same checker doubles as a counterexample finder for non-Shakin bases:
report = verify_macaulay_lex(MonomialIdeal(2, [(0, 2)]), 4)
print("over the non-Shakin (x2^2): failures =", len(report.failures))
print("  first payload:", json.dumps(report.failures[0], sort_keys=True))

# Betti extremality of the embedding, exhaustive at small scale:
small = make_shakin(make_piecewise_lex(2, [(1, MonomialIdeal(1, [(2,)]))]), ())
report = verify_betti_extremal(small, 3)
print("betti extremality:", "PASS" if report.passed else "FAIL",
      f"({report.cases_checked} ideals)")

# Sampled distraction statements, reproducible from the recorded seed:
rng = random.Random(1)
d = random_distraction(rng, 2, P, columns=5)
planar = make_shakin(make_piecewise_lex(2, []), (2, 3))
report = verify_distraction_hf(planar, d, 4, samples=25, seed=11)
print("distracted Hilbert functions embed:", "PASS" if report.passed else "FAIL")

report = verify_codistra_h0(2, samples=25, dmax=5, seed=13)
print("H^0 never drops under distraction:", "PASS" if report.passed else "FAIL")
print("report JSON:", json.dumps(report.to_json(), sort_keys=True)[:120], "...")
