"""verify module: enumeration, reports, and the theorem checkers."""

import hashlib
import json
import random

import pytest

from lexdist import homology, monomials, verify
from lexdist.distraction import DistractionMatrix, distract_ideal, random_distraction
from lexdist.errors import BudgetExceededError, InvalidInputError
from lexdist.groebner import DEFAULT_CHAR, hilbert_function as hf_general, initial_ideal
from lexdist.monomials import MonomialIdeal, hilbert_function
from lexdist.shakin import lex_embed, make_piecewise_lex, make_shakin, stable_lex_embedding
from lexdist.verify import (
    enumerate_monomial_ideals_modulo,
    random_monomial_ideal,
    verify_betti_distraction_invariance,
    verify_betti_extremal,
    verify_codistra_h0,
    verify_coh_extremal,
    verify_distraction_hf,
    verify_epsilon_d_extremal,
    verify_macaulay_lex,
)

P = DEFAULT_CHAR


def shakin(n, pieces=(), powers=()):
    pl = make_piecewise_lex(n, [(i, MonomialIdeal(i, gens)) for i, gens in pieces])
    return make_shakin(pl, powers)


# --- enumeration -----------------------------------------------------------------

def test_enumerate_one_variable():
    out = [i.gens for i in enumerate_monomial_ideals_modulo(MonomialIdeal(1, [(2,)]), 2)]
    assert out == [((2,),), ((1,),), ((0,),)]


def test_enumerate_over_maximal_ideal():
    m = MonomialIdeal(2, [(1, 0), (0, 1)])
    out = list(enumerate_monomial_ideals_modulo(m, 1))
    assert [i.gens for i in out] == [((0, 1), (1, 0)), ((0, 0),)]


def test_enumerate_zero_base():
    out = [i.gens for i in enumerate_monomial_ideals_modulo(MonomialIdeal(1), 1)]
    assert out == [(), ((1,),), ((0,),)]


def test_enumerate_no_duplicates_and_contains_base():
    # hand count over degree-1 choices: unit ideal, (x,y), three ideals over
    # {x}, one over {y}, eight over the empty choice: 14 in total.  In the
    # second base y^3 lies above dmax and must still be in every ideal.
    for base, dmax in ((MonomialIdeal(2, [(2, 0)]), 3), (MonomialIdeal(2, [(0, 3)]), 2)):
        seen = set()
        for ideal in enumerate_monomial_ideals_modulo(base, dmax):
            assert ideal.gens not in seen
            seen.add(ideal.gens)
            assert all(ideal.contains(g) for g in base.gens)
        assert len(seen) == 14


@pytest.mark.parametrize("base, dmax", [
    (MonomialIdeal(2, [(2, 0)]), 4),
    (MonomialIdeal(3, [(2, 0, 0)]), 3),
    (MonomialIdeal(2, [(2, 0), (0, 3)]), 4),
    (MonomialIdeal(2, [(2, 0), (0, 5)]), 3),  # x2^5 lies above dmax
    (MonomialIdeal(2), 3),
    (MonomialIdeal(2, [(0, 0)]), 3),
    (MonomialIdeal(0), 2),
])
def test_superideals_carry_their_generators_and_hilbert_function(base, dmax):
    count = 0
    for ideal, hf in verify._superideals(base, dmax):
        count += 1
        assert ideal == MonomialIdeal(base.n, ideal.gens)
        assert hf == hilbert_function(ideal, dmax)
        assert base <= ideal
    assert count == len(set(enumerate_monomial_ideals_modulo(base, dmax)))


def test_enumeration_order_is_pinned():
    order = [[list(g) for g in ideal.gens]
             for ideal in enumerate_monomial_ideals_modulo(MonomialIdeal(3, [(3, 0, 0)]), 4,
                                                           budget=None)]
    assert len(order) == 26946
    digest = hashlib.sha256(json.dumps(order).encode()).hexdigest()
    assert digest == "45467085419ef6dc75690298621718ac6cfa594c6aab1ee2308afa33c39ffaf5"


def test_sampled_sources_distract_to_the_sampled_ideal():
    base = MonomialIdeal(2, [(2, 0)])
    d = random_distraction(random.Random(3), 2, P, columns=5)
    rng = random.Random(8)
    sources = 0
    for _ in range(12):
        j, source = verify._sample_ideal_over(rng, base, d, 4, P)
        if source is not None:
            sources += 1
            assert base <= source
            assert hf_general(j, 4) == hilbert_function(source, 4)
    assert 0 < sources < 12


def test_enumerate_budget_error():
    with pytest.raises(BudgetExceededError) as err:
        list(enumerate_monomial_ideals_modulo(MonomialIdeal(3), 3, budget=10))
    assert err.value.budget == 10
    assert err.value.count_estimate >= 10


# --- macaulay-lex ------------------------------------------------------------------

def test_macaulay_lex_shakin_rings_pass():
    for a in (
        shakin(2, pieces=[(1, [(2,)])]),
        shakin(2, powers=(2, 2)),
        shakin(3, pieces=[(1, [(2,)])], powers=(2, 3)),
    ):
        report = verify_macaulay_lex(a, 3)
        assert report.passed
        assert report.cases_checked > 0


def test_macaulay_lex_unit_base_vacuous():
    report = verify_macaulay_lex(MonomialIdeal(2, [(0, 0)]), 3)
    assert report.passed


def test_macaulay_lex_escape_hatch_finds_counterexamples():
    report = verify_macaulay_lex(MonomialIdeal(2, [(0, 2)]), 4)
    assert not report.passed
    assert any(f.get("error") == "ClosureError" for f in report.failures)
    assert any("escape hatch" in note for note in report.notes)


def test_embedded_ideal_occurs_and_passes():
    # sanity anchor: the embedded ideal is in the enumeration and its own row passes
    a = shakin(2, pieces=[(1, [(2,)])])
    witness = MonomialIdeal(2, [(2, 0), (1, 1)])
    embedded = lex_embed(a, hilbert_function(witness, 3), 3)
    stream = list(enumerate_monomial_ideals_modulo(a, 3))
    assert embedded in stream
    report = verify_macaulay_lex(a, 3)
    assert report.passed


# --- extremality -------------------------------------------------------------------

def test_betti_extremal_small():
    report = verify_betti_extremal(shakin(2, pieces=[(1, [(2,)])]), 3)
    assert report.passed
    assert report.cases_checked > 0


def test_betti_extremal_small_characteristic_classifies_findings():
    a = shakin(2, powers=(2, 3))
    report = verify_betti_extremal(a, 3, p=2)
    # run must complete; any violation would be a finding, not a failure
    assert report.failures == []
    assert any("characteristic" in n for n in report.notes)


@pytest.mark.parametrize("check", [verify_betti_extremal, verify_coh_extremal])
def test_extremal_with_base_generator_above_dmax(check):
    # x2^4 lies above dmax 3; every enumerated ideal must still contain it
    report = check(shakin(2, powers=(3, 4)), 3)
    assert report.cases_checked == 28
    assert report.failures == []


def test_memos_stay_bounded_by_distinct_inputs():
    # the homology memo holds complexes and the numerator memo colon
    # sub-ideals; neither may grow with the number of enumerated ideals
    homology._homology.cache_clear()
    monomials._numerator.cache_clear()
    report = verify_betti_extremal(shakin(3, pieces=[(1, [(2,)])]), 4, budget=10 ** 7)
    assert report.passed and report.cases_checked == 3266
    assert homology._homology.cache_info().currsize < 500
    assert monomials._numerator.cache_info().currsize < 500


def test_coh_extremal_small():
    report = verify_coh_extremal(shakin(2, pieces=[(1, [(2,)])]), 3)
    assert report.passed


def test_coh_extremal_three_variables_exhaustive():
    report = verify_coh_extremal(shakin(3, pieces=[(1, [(2,)])]), 3)
    assert report.passed
    assert report.cases_checked == 400


def test_coh_extremal_artinian_equality():
    report = verify_coh_extremal(shakin(2, powers=(2, 2)), 3)
    assert report.passed


# --- distraction statements ---------------------------------------------------------

def test_distraction_hf_identity_tautology():
    a = shakin(2, powers=(2, 2))
    report = verify_distraction_hf(a, DistractionMatrix.identity(2, P), 4,
                                   sample_count=10, seed=7)
    assert report.passed


def test_distraction_hf_generic():
    rng = random.Random(3)
    a = shakin(2, pieces=[(1, [(2,)])])
    d = random_distraction(rng, 2, P, columns=5)
    report = verify_distraction_hf(a, d, 4, sample_count=15, seed=9)
    assert report.passed
    assert report.cases_checked > 0


def test_distracted_base_is_admissible():
    from lexdist.shakin import is_admissible_hf
    rng = random.Random(5)
    a = shakin(2, powers=(2, 3))
    d = random_distraction(rng, 2, P, columns=5)
    h = hf_general(distract_ideal(d, a.total), 4)
    assert is_admissible_hf(a, h, 4)


# epsilon_D(h) is the distraction of the lex-embedded ideal, the target the
# epsilon-d-extremal checker builds for each sampled ideal

def test_epsilon_d_identity_and_base():
    a = shakin(2, powers=(2, 2))
    ident = DistractionMatrix.identity(2, P)
    embedded = lex_embed(a, (1, 1, 0))
    out = distract_ideal(ident, embedded)
    assert [list(g.terms) for g in out.gens] == [[g] for g in embedded.gens]
    out2 = distract_ideal(ident, lex_embed(a, hilbert_function(a.total, 3)))
    assert [list(g.terms) for g in out2.gens] == [[g] for g in a.total.gens]


def test_epsilon_d_generic_matches_hf():
    rng = random.Random(11)
    a = shakin(2, powers=(2, 2))
    d = random_distraction(rng, 2, P, columns=4)
    out = distract_ideal(d, lex_embed(a, (1, 1, 0)))
    assert hf_general(out, 2) == (1, 1, 0)


def test_betti_invariance_run():
    report = verify_betti_distraction_invariance(3, samples=8, dmax=5, seed=13)
    assert report.passed
    assert report.cases_checked == 8


def test_betti_invariance_above_int64_prime_range():
    # primes above 2**32 and above 2**64
    for p in (4294967311, 18446744073709551629):
        report = verify_betti_distraction_invariance(3, samples=20, dmax=6, seed=1, p=p)
        assert report.cases_checked == 20
        assert report.failures == []


def test_codistra_h0_run():
    report = verify_codistra_h0(3, samples=10, dmax=6, seed=17)
    assert report.passed
    assert report.cases_checked == 10


def test_epsilon_d_extremal_run():
    rng = random.Random(19)
    a = shakin(3, pieces=[(1, [(2,)])])
    d = random_distraction(rng, 3, P, columns=5)
    report = verify_epsilon_d_extremal(a, d, 4, samples=6, seed=23)
    assert report.passed
    assert report.cases_checked > 0


def test_epsilon_d_extremal_rejects_an_invalid_distraction():
    bad = DistractionMatrix([[(1, 0), (1, 0), (2, 0)], [(1, 0), (0, 1)]], P)
    with pytest.raises(InvalidInputError, match=r"invalid distraction, witness"):
        verify_epsilon_d_extremal(shakin(2, pieces=[(1, [(2,)])]), bad, 3, samples=5)


def test_epsilon_d_extremal_files_every_non_admissible_sample():
    base = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1)])
    d = DistractionMatrix.identity(3, P)
    report = verify_epsilon_d_extremal(base, d, 3, samples=150, seed=0)
    replay = verify.VerificationReport(theorem="replay", params={})
    witnesses = []
    for j, _source, _h in verify._sampled_cases(replay, base, d, 150, 0, 3, P):
        witness = initial_ideal(j)
        _, err = verify._attempt(stable_lex_embedding, base, witness)
        if err is not None:
            witnesses.append(witness)
    errors = [f for f in report.failures if "error" in f]
    assert len(errors) == len(witnesses) == 10
    assert len(set(witnesses)) < len(witnesses)  # some witness repeats
    assert all(set(f) == {"hilbert_function", "error", "degree", "message"} for f in errors)


def test_epsilon_d_extremal_rejects_betti_with_powers():
    rng = random.Random(29)
    a = shakin(2, powers=(2, 2))
    d = random_distraction(rng, 2, P, columns=4)
    report = verify_epsilon_d_extremal(a, d, 3, samples=3, seed=31)
    assert any("rejected" in note for note in report.notes)


# --- replayability -------------------------------------------------------------------

def test_reports_replay_identically():
    rng = random.Random(37)
    a = shakin(2, pieces=[(1, [(2,)])])
    d = random_distraction(rng, 2, P, columns=4)
    r1 = verify_distraction_hf(a, d, 4, sample_count=12, seed=41)
    r2 = verify_distraction_hf(a, d, 4, sample_count=12, seed=41)
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(r2.to_json(), sort_keys=True)
    r3 = verify_codistra_h0(2, samples=6, dmax=5, seed=43)
    r4 = verify_codistra_h0(2, samples=6, dmax=5, seed=43)
    assert json.dumps(r3.to_json(), sort_keys=True) == json.dumps(r4.to_json(), sort_keys=True)


def test_random_monomial_ideal_is_seeded():
    a = random_monomial_ideal(random.Random(5), 3)
    b = random_monomial_ideal(random.Random(5), 3)
    assert a == b
