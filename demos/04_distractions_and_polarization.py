"""Distractions of monomial ideals, induced bar-distractions, polarization.

A distraction replaces each power x_i^a by a product of a distinct linear
forms taken from row i of a column-stabilized matrix; every row selection
must span the linear forms.  Distraction preserves Hilbert functions and
graded Betti numbers.

Run:  python3 demos/04_distractions_and_polarization.py
"""

import random

from lexdist.distraction import (
    DistractionMatrix,
    apply_distraction,
    distract_ideal,
    induce_bar,
    polarize,
    random_distraction,
    validate_distraction,
)
from lexdist.groebner import hilbert_function as hf_general
from lexdist.monomials import MonomialIdeal, hilbert_function, series_transform

P = 32003
rng = random.Random(42)

# Rows are lists of linear forms (coefficient vectors); the last entry of
# each row repeats forever.  Row 1: x, x+y, then constantly x+2y.
D = DistractionMatrix([[(1, 0), (1, 1), (1, 2)], [(0, 1)]], P)
print("valid:", validate_distraction(D))

# x^3 maps to the product of the first three entries of row 1:
print("D(x^3) =", apply_distraction(D, (3, 0)))
print("D(x*y) =", apply_distraction(D, (1, 1)))

# Distracting an ideal preserves the quotient Hilbert function exactly:
I = MonomialIdeal(2, [(3, 0), (1, 1)])
DI = distract_ideal(D, I)
print("Hilb(A/I)    :", hilbert_function(I, 7))
print("Hilb(A/D(I)) :", hf_general(DI, 7))

# A generic sparse distraction, resampled until the span condition holds:
G = random_distraction(rng, 3, P, columns=4)
print("sampled distraction rows:", [len(r) for r in G.rows], "columns kept")

# When the last row is constantly x_n, evaluating x_n -> 0 in the other
# rows induces a distraction of the smaller ring:
E = DistractionMatrix([[(1, 0, 0), (1, 0, 1)], [(0, 1, 1)], [(0, 0, 1)]], P)
print("bar rows:", induce_bar(E).rows)

# Polarization: squarefree generators in an extended ring; specializing
# X_ij -> X_i recovers the ideal, and X_ij -> l_ij recovers D(ideal).
result = polarize(I, D)
print("polarized into", result.extended_n, "variables:", result.polarized)
print("back:", result.specialize_to_original())
print("distracted gens:", result.specialize_to_distraction())

# The polarized quotient has Hilbert series Hilb(A/I) / (1-z)^r:
r = sum(result.block_sizes)
print("Hilb(T/P(I)):", hilbert_function(result.polarized, 6))
print("series shift:", series_transform(hilbert_function(I, 6), -r))
