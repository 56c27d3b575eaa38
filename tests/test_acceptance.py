"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Every tolerance is exact (integer equality or
inequality); the stated wall-clock budgets are asserted.
"""

import random
import time

import pytest

from lexdist.distraction import (
    distract_ideal,
    polarize,
    random_distraction,
)
from lexdist.groebner import DEFAULT_CHAR, hilbert_function as hf_general
from lexdist.homology import koszul_betti, local_coh_monomial, taylor_betti_oracle
from lexdist.macaulay import lex_ideal_for_hf
from lexdist.monomials import MonomialIdeal, hilbert_function, series_transform
from lexdist.shakin import make_piecewise_lex, make_shakin
from lexdist.verify import (
    enumerate_monomial_ideals_modulo,
    random_monomial_ideal,
    verify_betti_extremal,
    verify_codistra_h0,
    verify_distraction_hf,
    verify_macaulay_lex,
)

P = DEFAULT_CHAR


def shakin(n, pieces=(), powers=()):
    pl = make_piecewise_lex(n, [(i, MonomialIdeal(i, gens)) for i, gens in pieces])
    return make_shakin(pl, powers)


def report(number, name, started, limit, cases, ok):
    elapsed = time.perf_counter() - started
    line = (f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} "
            f"({cases} cases, {elapsed:.2f}s / limit {limit:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < limit, line
    return elapsed


def test_01_macaulay_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(101)
    cases = 0
    ok = True
    for _ in range(500):
        ideal = random_monomial_ideal(rng, 3, max_degree=6, max_gens=6)
        values = hilbert_function(ideal, 6)
        lex = lex_ideal_for_hf(3, values)
        cases += 1
        if hilbert_function(lex, 6) != values:
            ok = False
            break
    report(1, "macaulay-round-trip", t0, 10, cases, ok)


@pytest.mark.parametrize("label, powers, pieces", [
    ("x1^2+(x2^2,x3^3)", (2, 2, 3), [(1, [(2,)])]),
    ("x1^3-piecewise", (), [(1, [(3,)])]),
    ("clements-lindstrom-2-2-2", (2, 2, 2), []),
])
def test_02_shakin_macaulay_lex(label, powers, pieces):
    t0 = time.perf_counter()
    a = shakin(3, pieces=pieces, powers=powers)
    rep = verify_macaulay_lex(a, 4, budget=10 ** 7)
    report(2, f"shakin-macaulay-lex[{label}]", t0, 60, rep.cases_checked, rep.passed)


def test_03_betti_extremality():
    t0 = time.perf_counter()
    a = shakin(3, pieces=[(1, [(2,)])])
    rep = verify_betti_extremal(a, 4, budget=10 ** 7, p=P)
    report(3, "betti-extremality", t0, 300, rep.cases_checked,
           rep.passed and not rep.findings)


def test_04_betti_invariance_under_distraction():
    t0 = time.perf_counter()
    rng = random.Random(104)
    cases = 0
    ok = True
    for _ in range(100):
        ideal = random_monomial_ideal(rng, 3, max_degree=4, max_gens=5)
        d = random_distraction(rng, 3, P, columns=5)
        cases += 1
        if koszul_betti(ideal, 6, P).as_dict() != \
                koszul_betti(distract_ideal(d, ideal), 6, P).as_dict():
            ok = False
            break
    report(4, "betti-distraction-invariance", t0, 120, cases, ok)


def test_05_hilbert_preservation():
    t0 = time.perf_counter()
    rng = random.Random(105)
    cases = 0
    ok = True
    for _ in range(200):
        ideal = random_monomial_ideal(rng, 3, max_degree=5, max_gens=6)
        d = random_distraction(rng, 3, P, columns=6)
        cases += 1
        if hf_general(distract_ideal(d, ideal), 8) != hilbert_function(ideal, 8):
            ok = False
            break
    report(5, "hilbert-preservation", t0, 60, cases, ok)


def test_06_hf_poset_inclusion_under_distraction():
    t0 = time.perf_counter()
    a = shakin(3, pieces=[(1, [(2,)])], powers=(2, 3))
    assert set(a.total.gens) == {(2, 0, 0), (0, 3, 0)}
    d = random_distraction(random.Random(106), 3, P, columns=6)
    rep = verify_distraction_hf(a, d, 5, samples=100, seed=106)
    report(6, "hf-poset-inclusion", t0, 180, rep.cases_checked, rep.passed)


def test_07_codistra_h0():
    t0 = time.perf_counter()
    rep = verify_codistra_h0(3, samples=100, dmax=6, seed=107, p=P)
    report(7, "codistra-h0", t0, 180, rep.cases_checked, rep.passed)


def test_08_local_cohomology_oracle():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    artinian = [
        [(1, 0), (0, 1)],
        [(2, 0), (1, 1), (0, 2)],
        [(2, 0), (1, 1), (0, 3)],
        [(3, 0), (0, 2)],
        [(2, 0), (0, 4)],
    ]
    for gens in artinian:
        ideal = MonomialIdeal(2, gens)
        table = local_coh_monomial(ideal, window=(0, 8))
        cases += 1
        if table.row(0) != hilbert_function(ideal, 8):
            ok = False
        if any(table[i, j] for i in (1, 2) for j in range(0, 9)):
            ok = False
    line = local_coh_monomial(MonomialIdeal(2, [(1, 0)]), window=(-6, 2))
    cases += 1
    if line.row(1) != (1, 1, 1, 1, 1, 1, 0, 0, 0):
        ok = False
    hyper = local_coh_monomial(MonomialIdeal(2, [(1, 1)]), window=(-6, 2))
    cases += 1
    if hyper.row(1) != (2, 2, 2, 2, 2, 2, 1, 0, 0):
        ok = False
    report(8, "local-cohomology-oracle", t0, 10, cases, ok)


def test_09_betti_oracle_cross_check():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    for ideal in enumerate_monomial_ideals_modulo(MonomialIdeal(2), 4):
        cases += 1
        if koszul_betti(ideal, 8, P).as_dict() != \
                taylor_betti_oracle(ideal, 8, P).as_dict():
            ok = False
            break
    rng = random.Random(109)
    if ok:
        for _ in range(100):
            ideal = random_monomial_ideal(rng, 3, max_degree=4, max_gens=5)
            cases += 1
            if koszul_betti(ideal, 8, P).as_dict() != \
                    taylor_betti_oracle(ideal, 8, P).as_dict():
                ok = False
                break
    report(9, "betti-oracle-cross-check", t0, 120, cases, ok)


def test_10_polarization_series_identity():
    t0 = time.perf_counter()
    rng = random.Random(110)
    cases = 0
    ok = True
    for _ in range(100):
        ideal = random_monomial_ideal(rng, 3, max_degree=4, max_gens=5)
        result = polarize(ideal)
        r = sum(result.block_sizes)
        cases += 1
        left = hilbert_function(result.polarized, 6)
        right = series_transform(hilbert_function(ideal, 6), -r)
        if left != right:
            ok = False
            break
    report(10, "polarization-series-identity", t0, 60, cases, ok)


def test_11_positive_characteristic_experiment():
    # the underlying statement is an open expectation, not a theorem: the
    # run must complete and classify violations as findings; no assertion
    # is made on the mathematical outcome
    t0 = time.perf_counter()
    a = shakin(3, pieces=[(1, [(2,)])], powers=(2, 2))
    cases = 0
    mechanical_ok = True
    outcomes = []
    for p in (2, 3, 5):
        rep = verify_betti_extremal(a, 4, budget=10 ** 7, p=p)
        cases += rep.cases_checked
        mechanical_ok = mechanical_ok and not rep.failures
        outcomes.append(f"p={p}: findings={len(rep.findings)}")
    print("ACCEPTANCE 11 characteristic-sweep outcomes: " + "; ".join(outcomes))
    report(11, "positive-characteristic-experiment", t0, 600, cases, mechanical_ok)
