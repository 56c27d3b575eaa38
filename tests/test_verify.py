"""verify module: enumeration, reports, and the theorem checkers."""

import dataclasses
import hashlib
import importlib
import inspect
import json
import pkgutil
import random
from collections import Counter

import pytest

import lexdist
from conftest import oracle_embed_series
from lexdist import groebner, monomials, verify
from lexdist import shakin as shakin_module
from lexdist.cli import main
from lexdist.distraction import DistractionMatrix, distract_ideal, random_distraction
from lexdist.errors import BudgetExceededError, InvalidInputError, NotAdmissibleError
from lexdist.groebner import DEFAULT_CHAR, hilbert_function as hf_general, initial_ideal
from lexdist.homology import koszul_betti, local_coh_monomial, taylor_betti_oracle
from lexdist.monomials import MonomialIdeal, degree_monomials, hilbert_function
from lexdist.shakin import (
    embedded_masks,
    lex_embed,
    make_piecewise_lex,
    make_shakin,
    stable_lex_embedding,
)
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
    for ideal, hf, pieces in verify._superideals(base, dmax):
        count += 1
        assert ideal == MonomialIdeal(base.n, ideal.gens)
        assert hf == hilbert_function(ideal, dmax)
        assert list(pieces) == monomials.degree_masks(ideal, dmax)
        assert base <= ideal
    assert count == len(set(enumerate_monomial_ideals_modulo(base, dmax)))


def test_superideals_reject_a_negative_dmax():
    with pytest.raises(InvalidInputError, match="dmax must be nonnegative"):
        next(verify._superideals(MonomialIdeal(2, [(2, 0)]), -1))


@pytest.mark.parametrize("check", [
    lambda base: list(enumerate_monomial_ideals_modulo(base, 2, budget=-1)),
    lambda base: verify_macaulay_lex(base, 2, budget=-1),
    lambda base: verify_betti_extremal(base, 2, budget=-1),
    lambda base: verify_coh_extremal(base, 2, budget=-1),
], ids=["enumerate", "macaulay-lex", "betti-extremal", "coh-extremal"])
def test_exhaustive_kinds_reject_a_negative_budget(check):
    base = MonomialIdeal(3, [(2, 0, 0)])
    with pytest.raises(InvalidInputError, match="budget must be nonnegative, got -1"):
        check(base)


# Enumerations the leaf shortcuts of the extremality checkers are pinned on:
# (x1^2) and the raw base (x2*x3) in three variables, the Shakin ring with
# pure powers (2, 3) (its x2^3 lies above dmax 1 and at dmax + 1 for dmax 2),
# bases in one and two variables, x2^4 at dmax + 1 and x2^5 above it, and
# the zero and unit ideals in no variables.  Every enumeration holds the
# unit ideal.
PINNED_ENUMERATIONS = [
    (MonomialIdeal(3, [(2, 0, 0)]), 4),
    *((MonomialIdeal(3, [(2, 0, 0), (0, 3, 0)]), dmax) for dmax in (1, 2, 3, 4)),
    (MonomialIdeal(3, [(0, 1, 1)]), 3),
    (MonomialIdeal(1, [(3,)]), 4),
    (MonomialIdeal(2, [(2, 0), (0, 4)]), 3),
    (MonomialIdeal(2, [(2, 0), (0, 5)]), 3),
    (MonomialIdeal(0), 2),
    (MonomialIdeal(0, [()]), 2),
]


@pytest.mark.parametrize("base, dmax", PINNED_ENUMERATIONS)
def test_betti_by_pieces_matches_koszul_and_taylor(base, dmax):
    betti = verify._BettiByPieces(base, dmax)
    units = 0
    for ideal, _, pieces in verify._superideals(base, dmax):
        cells, hf = betti.cells(pieces)
        assert hf == hilbert_function(ideal, dmax + 1), ideal.gens
        got = betti.table(cells, hf)
        units += got == {}
        for p in (2, P):
            # also in koszul_betti's (i, j) order, which failure payloads show
            assert list(got.items()) == list(koszul_betti(ideal, dmax + 1, p).as_dict().items()), \
                (ideal.gens, p)
        if len(ideal.gens) <= 10:
            assert got == taylor_betti_oracle(ideal, dmax + 1).as_dict(), ideal.gens
    assert units == 1


@pytest.mark.parametrize("base, dmax", PINNED_ENUMERATIONS)
def test_betti_by_pieces_reads_lex_targets_alone(base, dmax):
    # a target comes with its pieces up to the accepted cutoff and is read
    # off them extended to dmax + 1, where it can have generators that no
    # superideal has; every base in two or three variables has such targets
    report = verify.VerificationReport("targets", {})
    targets = {lex for *_, lex, _ in verify._extremal_cases(
        report, base, dmax, None, lambda values, masks: None)}
    betti = verify._BettiByPieces(base, dmax)
    at_top = 0
    for masks in targets:
        target = monomials.masks_to_ideal(base.n, masks)
        at_top += any(sum(g) == dmax + 1 for g in target.gens)
        cells, hf = betti.cells(masks)
        assert hf == hilbert_function(target, dmax + 1), target.gens
        got = betti.table(cells, hf)
        for p in (2, P):
            assert list(got.items()) == list(koszul_betti(target, dmax + 1, p).as_dict().items()), \
                (target.gens, p)
        if len(target.gens) <= 10:
            assert got == taylor_betti_oracle(target, dmax + 1).as_dict(), target.gens
    assert targets and (at_top or base.n < 2)


def test_betti_extremal_reads_both_sides_off_pieces(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("koszul_betti called")

    monkeypatch.setattr(verify, "koszul_betti", fail)
    report = verify_betti_extremal(shakin(3, pieces=[(1, [(2,)])]), 4)
    assert report.passed and report.cases_checked == 3266


def test_betti_by_pieces_rejects_four_variables():
    with pytest.raises(InvalidInputError):
        verify._BettiByPieces(MonomialIdeal(4, [(2, 0, 0, 0)]), 2)


@pytest.mark.parametrize("base, dmax", PINNED_ENUMERATIONS)
def test_series_key_classes_are_the_numerator_classes(base, dmax):
    table = shakin_module._embedding_table(base)
    by_key, by_numerator = {}, {}
    for ideal, h, pieces in verify._superideals(base, dmax):
        k, num = (h, table.tail(dmax, pieces[-1])), monomials.hilbert_numerator(ideal)
        # the key gives N_I, which the lex targets are embedded from
        assert monomials.numerator_off_tail(base.n, *k) == num, ideal.gens
        by_key.setdefault(k, set()).add(num)
        by_numerator.setdefault(num, set()).add(k)
    assert all(len(nums) == 1 for nums in by_key.values())
    assert all(len(keys) == 1 for keys in by_numerator.values())


def _series_keys(base, dmax):
    """(first ideal, N_I) per distinct series key over base, in enumeration order."""
    table = shakin_module._embedding_table(base)
    keys = {}
    for ideal, h, pieces in verify._superideals(base, dmax):
        keys.setdefault((h, table.tail(dmax, pieces[-1])), ideal)
    return [(ideal, monomials.numerator_off_tail(base.n, *key)) for key, ideal in keys.items()]


def _embedding_or_error(embed, base, ideal, target):
    try:
        return embed(base, ideal, target)
    except NotAdmissibleError as exc:
        return type(exc).__name__, exc.degree, str(exc)


def _embed_series(base, ideal, target):
    """verify's route to an ideal's embedding, which reads only its top
    degree: (embedded ideal, its HF and pieces up to the accepted cutoff)."""
    values, masks = verify._embed_series(base, ideal.max_degree(), target)
    return monomials.masks_to_ideal(base.n, masks), values, masks


# (base, dmax, series keys, failing keys, ClosureErrors above dmax + 1):
# Shakin bases in three and four variables, the zero ideal, and three raw
# bases, whose failing keys all raise ClosureError
EMBEDDING_BASES = [
    (MonomialIdeal(3, [(2, 0, 0)]), 4, 294, 0, 0),
    (MonomialIdeal(3, [(2, 0, 0), (0, 3, 0)]), 4, 150, 0, 0),
    (MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 3)]), 4, 20, 0, 0),
    (MonomialIdeal(4, [(2, 0, 0, 0)]), 2, 66, 0, 0),
    (MonomialIdeal(2), 4, 44, 0, 0),
    (MonomialIdeal(3, [(0, 1, 1)]), 3, 79, 15, 1),
    (MonomialIdeal(3, [(0, 2, 0)]), 3, 80, 15, 1),
    (MonomialIdeal(3, [(1, 0, 1), (0, 2, 0)]), 3, 34, 2, 0),
]


@pytest.mark.parametrize("base, dmax, keys, failing, above", EMBEDDING_BASES)
def test_embed_series_matches_the_cutoff_loop(base, dmax, keys, failing, above):
    # each series key gives the oracle's ideal with its HF and pieces up to
    # the oracle's cutoff, or the oracle's (error class, degree, message);
    # once from a cold table, once with every piece and tail memoised
    cases = _series_keys(base, dmax)
    want = [_embedding_or_error(oracle_embed_series, base, ideal, num) for ideal, num in cases]
    errors = [w for w in want if isinstance(w[0], str)]
    assert (len(cases), len(errors)) == (keys, failing)
    assert {w[0] for w in errors} <= {"ClosureError"}
    assert sum(w[1] > dmax + 1 for w in errors) == above
    shakin_module._embedding_table.cache_clear()
    for _ in range(2):
        for (ideal, num), expected in zip(cases, want):
            got = _embedding_or_error(_embed_series, base, ideal, num)
            if isinstance(expected[0], str):
                assert got == expected, ideal.gens
            else:
                embedded, cutoff = expected
                assert got == (embedded, monomials.hilbert_upto(embedded, cutoff),
                               monomials.degree_masks(embedded, cutoff)), ideal.gens


@pytest.mark.parametrize("base, dmax", [
    *PINNED_ENUMERATIONS,
    (MonomialIdeal(4, [(2, 0, 0, 0), (0, 0, 0, 4)]), 2),  # x4^4 lies above dmax
])
def test_piece_numerators_match_hilbert_numerator(base, dmax):
    # the embedding table's tail(c, piece) is N(J), J generated by the piece
    # and the base generators above c: at dmax for the enumerated last
    # pieces, and for the lex targets at every cutoff the embedding passes
    # (no base generator above).  N(J) grows one colon step per piece from
    # whatever smaller piece is memoised; the reverse order reaches the
    # memo from other pieces, and every piece met on the way must hold its
    # own N(J) too
    n = base.n
    order = [(dmax, pieces[-1]) for _, _, pieces in verify._superideals(base, dmax)]
    for ideal, num in _series_keys(base, dmax):
        try:
            embedded, cutoff = oracle_embed_series(base, ideal, num)
        except NotAdmissibleError:
            continue
        # every cutoff the embedding passes lies between these two
        start = max(ideal.max_degree(), base.max_degree(), 1)
        masks = monomials.degree_masks(embedded, cutoff)
        order += [(c, masks[c]) for c in range(start, cutoff + 1)]
    order = list(dict.fromkeys(order))

    def tail_ideal(c, piece):
        above = [g for g in base.gens if sum(g) > c]
        return MonomialIdeal(n, monomials.mask_to_monomials(n, c, piece) + above)

    for walk in (order, order[::-1]):
        shakin_module._embedding_table.cache_clear()
        table = shakin_module._embedding_table(base)
        for c, piece in walk:
            j = tail_ideal(c, piece)
            assert table.tail(c, piece) == monomials.hilbert_numerator(j), (c, j.gens)
        for c, nums in table.tails.items():
            for piece, num in nums.items():
                assert num == monomials.hilbert_numerator(tail_ideal(c, piece)), (c, piece)


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
        j, source = verify._sample_ideal_over(rng, base, verify._Distractions(d), 4)
        if source is not None:
            sources += 1
            assert base <= source
            assert hf_general(j, 4) == hilbert_function(source, 4)
    assert 0 < sources < 12


@pytest.mark.parametrize("check", [verify_distraction_hf, verify_epsilon_d_extremal])
def test_sampled_kinds_run_buchberger_once_per_distinct_ideal(check, monkeypatch):
    base = MonomialIdeal(2, [(2, 0)])
    d = random_distraction(random.Random(3), 2, P, columns=5)
    replay = verify.VerificationReport(theorem="replay", params={})
    sources = [source for _, source, _ in
               verify._sampled_cases(replay, base, verify._Distractions(d), 30, 5, 3)
               if source is not None]
    assert len(set(sources)) < len(sources)  # the sampled sources repeat
    inputs = []
    buchberger = groebner._buchberger

    def counted(gens, order):
        inputs.append((order, tuple(frozenset(g.terms.items()) for g in gens)))
        return buchberger(gens, order)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    report = check(base, d, 3, samples=30, seed=5)
    assert report.cases_checked >= 30
    assert inputs and len(inputs) == len(set(inputs))


def test_enumerate_budget_error():
    with pytest.raises(BudgetExceededError) as err:
        list(enumerate_monomial_ideals_modulo(MonomialIdeal(3), 3, budget=10))
    assert err.value.budget == 10
    assert err.value.count_estimate >= 10


X1CU = MonomialIdeal(3, [(3, 0, 0)])


@pytest.mark.parametrize("base, dmax", [*PINNED_ENUMERATIONS, (X1CU, 4)])
def test_chain_counts_match_the_enumeration(base, dmax):
    counts = Counter(h for _, h, _ in verify._superideals(base, dmax))
    assert verify._chain_counts(base, dmax) == counts
    if base == X1CU:
        assert (sum(counts.values()), len(counts)) == (26946, 187)


def _count_built(monkeypatch):
    """Record the generators of every ideal MonomialIdeal._trusted builds."""
    built = []
    real = MonomialIdeal._trusted.__func__

    def spy(cls, n, gens):
        built.append(gens)
        return real(cls, n, gens)

    monkeypatch.setattr(MonomialIdeal, "_trusted", classmethod(spy))
    return built


EXHAUSTIVE_CHECKS = [
    lambda base, dmax, budget: list(enumerate_monomial_ideals_modulo(base, dmax, budget)),
    lambda base, dmax, budget: verify_macaulay_lex(base, dmax, budget),
    lambda base, dmax, budget: verify_betti_extremal(base, dmax, budget),
    lambda base, dmax, budget: verify_coh_extremal(base, dmax, budget=budget),
]
EXHAUSTIVE_IDS = ["enumerate", "macaulay-lex", "betti-extremal", "coh-extremal"]


@pytest.mark.parametrize("check", EXHAUSTIVE_CHECKS, ids=EXHAUSTIVE_IDS)
@pytest.mark.parametrize("base, dmax", [
    (MonomialIdeal(3, [(2, 0, 0)]), 2),
    (MonomialIdeal(3, [(2, 0, 0), (0, 3, 0)]), 2),  # x2^3 at dmax + 1
    (MonomialIdeal(2, [(2, 0), (0, 5)]), 3),  # x2^5 above dmax
    (MonomialIdeal(4, [(2, 0, 0, 0)]), 2),  # betti-extremal's per-ideal route
])
def test_exhaustive_budgets_are_exact(check, base, dmax):
    # the estimate exceeds the count, so both budgets go to the exact count
    count = sum(1 for _ in verify._superideals(base, dmax))
    estimate = 1 << sum(monomials.hilbert_function(base, dmax))
    assert estimate > count
    out = check(base, dmax, count)
    assert len(out) == count if isinstance(out, list) else out.cases_checked == count
    with pytest.raises(BudgetExceededError) as err:
        check(base, dmax, count - 1)
    assert (err.value.budget, err.value.count_estimate) == (count - 1, estimate)


def test_enumeration_checks_the_budget_before_the_first_ideal(monkeypatch):
    built = _count_built(monkeypatch)
    with pytest.raises(BudgetExceededError):
        next(enumerate_monomial_ideals_modulo(X1CU, 4, budget=26945))
    assert built == []
    assert sum(1 for _ in enumerate_monomial_ideals_modulo(X1CU, 4, budget=26946)) \
        == len(built) == 26946


@pytest.mark.parametrize("check", EXHAUSTIVE_CHECKS, ids=EXHAUSTIVE_IDS)
def test_over_budget_runs_build_no_ideal(monkeypatch, check):
    # 579 726 ideals at dmax 5: every kind stops on the count alone
    built = _count_built(monkeypatch)
    with pytest.raises(BudgetExceededError) as err:
        check(X1CU, 5, 10 ** 5)
    assert err.value.budget == 10 ** 5
    assert built == []


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


def test_macaulay_lex_builds_no_ideal_on_a_passing_base(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("_superideals called")

    monkeypatch.setattr(verify, "_superideals", fail)
    report = verify_macaulay_lex(shakin(3, pieces=[(1, [(3,)])]), 4)
    assert report.passed and report.cases_checked == 26946
    assert report.notes == ["distinct Hilbert functions: 187"]


def _macaulay_lex_per_ideal(base, dmax):
    """The per-ideal loop verify_macaulay_lex replaced, kept as its oracle:
    (cases, failures, number of distinct Hilbert functions)."""
    n = base.n
    cache, failures, cases = {}, [], 0
    for ideal, h, _pieces in verify._superideals(base, dmax):
        cases += 1
        verdict = cache.get(h)
        if verdict is None:
            try:
                masks = embedded_masks(base, h, dmax)
            except NotAdmissibleError as exc:
                verdict = {"error": type(exc).__name__, "degree": exc.degree,
                           "message": str(exc)}
            else:
                got = tuple(len(degree_monomials(n, d)) - mask.bit_count()
                            for d, mask in enumerate(masks))
                verdict = {} if got == h else {"error": "hf-mismatch", "embedded_hf": got}
            cache[h] = verdict
        if verdict:
            failures.append({"ideal": ideal.to_json(), "hilbert_function": list(h), **verdict})
    return cases, failures, len(cache)


@pytest.mark.parametrize("base, dmax", [
    (MonomialIdeal(2, [(0, 2)]), 4),
    (MonomialIdeal(3, [(0, 1, 1)]), 3),
])
def test_macaulay_lex_failures_match_the_per_ideal_loop(base, dmax):
    cases, failures, distinct = _macaulay_lex_per_ideal(base, dmax)
    report = verify_macaulay_lex(base, dmax)
    assert failures and report.cases_checked == cases
    # the same payloads in the same order, key order included
    assert json.dumps(report.failures) == json.dumps(failures)
    assert report.notes[-1] == f"distinct Hilbert functions: {distinct}"


def test_macaulay_lex_files_an_hf_mismatch(monkeypatch):
    # embedded_masks never returns a wrong piece; one that does must be
    # filed, against every ideal with that Hilbert function
    a = shakin(2, pieces=[(1, [(2,)])])
    base, dmax = a.total, 3
    counts = verify._chain_counts(base, dmax)
    wrong = max(h for h in counts if counts[h] > 1 and h[-1] < dmax + 1)
    real = verify.embedded_masks

    def short(base, values, dmax):
        masks = real(base, values, dmax)
        if values == wrong:
            masks[-1] &= masks[-1] - 1  # drop its lowest monomial
        return masks

    monkeypatch.setattr(verify, "embedded_masks", short)
    report = verify_macaulay_lex(a, dmax)
    embedded_hf = [*wrong[:-1], wrong[-1] + 1]
    ideals = [ideal.to_json() for ideal, h, _ in verify._superideals(base, dmax) if h == wrong]
    assert len(ideals) == counts[wrong] > 1
    assert report.cases_checked == sum(counts.values())
    assert json.loads(json.dumps(report.failures)) == [
        {"ideal": ideal, "hilbert_function": list(wrong), "error": "hf-mismatch",
         "embedded_hf": embedded_hf}
        for ideal in ideals]


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


def _extremal_per_ideal(base, dmax, table, embedded=True):
    """An extremality checker's report, one ideal at a time, with table
    computing an ideal's invariant from scratch: (cases, failure payloads),
    each with the embedded ideal if embedded."""
    cases, failures, wants = 0, [], {}
    for ideal in enumerate_monomial_ideals_modulo(base, dmax):
        cases += 1
        try:
            target = stable_lex_embedding(base, ideal)
        except NotAdmissibleError as exc:
            failures.append({"ideal": ideal.to_json(), "error": type(exc).__name__,
                             "degree": exc.degree, "message": str(exc)})
            continue
        if target not in wants:
            wants[target] = table(target)
        want = wants[target]
        bad = [{"i": i, "j": j, "left": v, "right": want.get((i, j), 0)}
               for (i, j), v in table(ideal).items() if v > want.get((i, j), 0)]
        if bad:
            failures.append({"ideal": ideal.to_json(),
                             **({"embedded": target.to_json()} if embedded else {}),
                             "hilbert_function": list(hilbert_function(ideal, dmax)),
                             "violations": bad})
    return cases, failures


def _betti_extremal_per_ideal(base, dmax, p=P):
    """verify_betti_extremal's report, one ideal at a time: (cases, failures)."""
    return _extremal_per_ideal(base, dmax,
                               lambda ideal: koszul_betti(ideal, dmax + 1, p).as_dict())


def _coh_extremal_per_ideal(base, dmax, p=P):
    """verify_coh_extremal's report over the default window, one ideal at a
    time: (cases, failures)."""
    window = (-(dmax + base.n), dmax)
    return _extremal_per_ideal(
        base, dmax, lambda ideal: local_coh_monomial(ideal, window=window, p=p).as_dict(),
        embedded=False)


@pytest.mark.parametrize("base, cases, failed", [
    (MonomialIdeal(4, [(2, 0, 0, 0)]), 717, 0),
    (MonomialIdeal(4, [(0, 1, 1, 0)]), 758, 16),
], ids=["x1sq", "x2x3"])
def test_betti_extremal_in_four_variables_matches_the_per_ideal_loop(base, cases, failed):
    # above three variables both tables come from koszul_betti, not from
    # the graded pieces; (x2*x3), a raw base and no Shakin ideal, has 16
    # superideals with no lex-embedding
    report = verify_betti_extremal(base, 2)
    assert (report.cases_checked, len(report.failures)) == (cases, failed)
    assert report.passed == (failed == 0)
    assert (cases, report.failures) == _betti_extremal_per_ideal(base, 2)


# (base, dmax, p, cases, ClosureErrors, betti-extremal's violations,
# coh-extremal's violations): Shakin bases that pass, one with x2^4 above
# dmax, and pure powers at p = 2, where a violation would be a finding;
# then the raw bases (x2*x3), (x2^2), (x1*x3, x2^2) and (x3^2), no Shakin
# ideals, whose superideals without a lex-embedding fail with ClosureError
EXTREMAL_ORACLE_CASES = [
    (shakin(3, pieces=[(1, [(2,)])]), 4, P, 3266, 0, 0, 0),
    (shakin(3, pieces=[(1, [(2,)])], powers=(2, 3)), 4, P, 706, 0, 0, 0),
    (shakin(2, powers=(3, 4)), 3, P, 28, 0, 0, 0),
    (shakin(3, pieces=[(1, [(2,)])], powers=(2, 3)), 3, 2, 239, 0, 0, 0),
    (shakin(3, powers=(2, 2, 2)), 3, 2, 20, 0, 0, 0),
    (MonomialIdeal(3, [(0, 1, 1)]), 3, P, 490, 56, 150, 46),
    (MonomialIdeal(3, [(0, 2, 0)]), 3, P, 400, 28, 75, 26),
    (MonomialIdeal(3, [(1, 0, 1), (0, 2, 0)]), 3, P, 98, 4, 14, 0),
    (MonomialIdeal(3, [(0, 0, 2)]), 3, P, 400, 156, 67, 0),
]
EXTREMAL_ORACLE_IDS = ["x1sq", "x1sq-x2cu", "powers-3-4", "x1sq-x2cu-p2", "powers-2-2-2-p2",
                       "x2x3", "x2sq", "x1x3-x2sq", "x3sq"]


@pytest.mark.parametrize("a, dmax, p, cases, errors, betti, coh", EXTREMAL_ORACLE_CASES,
                         ids=EXTREMAL_ORACLE_IDS)
@pytest.mark.parametrize("kind", ["betti", "coh"])
def test_extremal_failures_match_the_per_ideal_loop(kind, a, dmax, p, cases, errors, betti, coh):
    # the piece-state DP decides the run and the per-ideal loop files its
    # failures: the same payloads in the same order, key order included,
    # as an oracle that embeds and tabulates every ideal from scratch
    base = verify.base_ideal(a)
    if kind == "betti":
        report = verify_betti_extremal(a, dmax, p=p)
        want = _betti_extremal_per_ideal(base, dmax, p)
        violations = betti
    else:
        report = verify_coh_extremal(a, dmax, p=p)
        want = _coh_extremal_per_ideal(base, dmax, p)
        violations = coh
    # with pure powers below characteristic 0 a violation is a finding
    findings = kind == "betti" and p < P and a.has_pure_powers
    rows, others = ((report.findings, report.failures) if findings
                    else (report.failures, report.findings))
    assert report.cases_checked == want[0] == cases
    assert json.dumps(rows) == json.dumps(want[1]) and others == []
    assert [row.get("error") for row in rows].count("ClosureError") == errors
    assert sum("violations" in row for row in rows) == violations


@pytest.mark.parametrize("kind", ["betti", "coh"])
def test_extremal_violations_without_embedding_errors_match_the_per_ideal_loop(
        monkeypatch, kind):
    # no small base has violations but no ClosureError, so every lex target
    # is swapped for the base ideal itself, in the checker and in the
    # oracle's stable_lex_embedding alike: then only the DP's comparison of
    # the cells can send the run to the filing walk
    real = shakin_module._embed_series

    def base_pieces(base, top, target):
        masks = monomials.degree_masks(base, len(real(base, top, target)[1]) - 1)
        return monomials.piece_values(base.n, masks), masks

    monkeypatch.setattr(shakin_module, "_embed_series", base_pieces)
    monkeypatch.setattr(verify, "_embed_series", base_pieces)
    a = shakin(3, pieces=[(1, [(2,)])])
    keys = len(_series_keys(a.total, 3))
    # the DP embeds every key before the one filing walk, which embeds none
    embedded = _spy_on(monkeypatch, "_embed_series")
    filed = []
    real_superideals = verify._superideals

    def superideals(*args):
        filed.append(len(embedded))
        return real_superideals(*args)

    monkeypatch.setattr(verify, "_superideals", superideals)
    if kind == "betti":
        report = verify_betti_extremal(a, 3)
    else:
        report = verify_coh_extremal(a, 3)
    assert filed == [keys] and len(embedded) == keys
    want = (_betti_extremal_per_ideal if kind == "betti" else _coh_extremal_per_ideal)(a.total, 3)
    assert report.cases_checked == want[0] == 400
    assert json.dumps(report.failures) == json.dumps(want[1])
    assert len(want[1]) > 100 and all("violations" in row for row in want[1])


def _failing_state_ideals(base, dmax, table):
    """The superideals in failing final states (last piece, HF), one ideal
    at a time, in enumeration order, with table computing an invariant
    from scratch.  A state fails iff one of its ideals has no lex-embedding
    or a table entry above its target's, or the first ideal of its series
    numerator has no lex-embedding."""
    first_failed, states, verdicts = {}, {}, []
    for ideal in enumerate_monomial_ideals_modulo(base, dmax):
        state = monomials.degree_masks(ideal, dmax)[-1], hilbert_function(ideal, dmax)
        try:
            want = table(stable_lex_embedding(base, ideal))
        except NotAdmissibleError:
            bad = failed = True
        else:
            failed = False
            bad = any(v > want.get(cell, 0) for cell, v in table(ideal).items())
        states[state] = states.get(state, False) or bad \
            or first_failed.setdefault(monomials.hilbert_numerator(ideal), failed)
        verdicts.append((ideal, state))
    return [ideal for ideal, state in verdicts if states[state]]


@pytest.mark.parametrize("base", [MonomialIdeal(3, [(0, 1, 1)]), MonomialIdeal(3, [(0, 2, 0)])],
                         ids=["x2x3", "x2sq"])
@pytest.mark.parametrize("kind", ["betti", "coh"])
def test_failing_runs_tabulate_only_the_ideals_in_failing_states(monkeypatch, kind, base):
    # the filing walk hands the checker only the ideals of failing final
    # states, less those it files as having no lex-embedding; betti-extremal
    # builds one table per such ideal and one per distinct (cells, HF) pair
    # of the lex targets among them
    dmax = 3
    received, tables = [], []
    real_cases, real_table = verify._extremal_cases, verify._BettiByPieces.table

    def cases(*args):
        for case in real_cases(*args):
            received.append(case)
            yield case

    def table(self, cells, hf):
        tables.append(cells)
        return real_table(self, cells, hf)

    monkeypatch.setattr(verify, "_extremal_cases", cases)
    monkeypatch.setattr(verify._BettiByPieces, "table", table)
    if kind == "betti":
        report = verify_betti_extremal(base, dmax)
        want = _failing_state_ideals(base, dmax,
                                     lambda ideal: koszul_betti(ideal, dmax + 1, P).as_dict())
    else:
        report = verify_coh_extremal(base, dmax)
        window = (-(dmax + base.n), dmax)
        want = _failing_state_ideals(
            base, dmax, lambda ideal: local_coh_monomial(ideal, window=window, p=P).as_dict())
    unembedded = [MonomialIdeal(base.n, [tuple(g) for g in row["ideal"]["gens"]])
                  for row in report.failures if "error" in row]
    got = [ideal for ideal, *_ in received]
    assert unembedded and got and not set(got) & set(unembedded)
    assert sorted(got + unembedded, key=want.index) == want
    assert got == [ideal for ideal in want if ideal in got]
    assert len(want) < report.cases_checked
    if kind == "betti":
        assert len(tables) == len(got) + len({want for *_, want in received})
    else:
        assert tables == []


def test_betti_extremal_in_four_variables_walks_no_state(monkeypatch):
    # no piece-state DP above three variables: only the count walk
    calls = []
    real = verify._chain_counts

    def counts(*args, **kwargs):
        assert len(args) <= 3 and not kwargs.get("by_last")
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "_chain_counts", counts)
    report = verify_betti_extremal(MonomialIdeal(4, [(2, 0, 0, 0)]), 2)
    assert report.passed and report.cases_checked == 717
    assert len(calls) == 1


@pytest.mark.parametrize("base, dmax", [
    (MonomialIdeal(2, [(0, 2)]), 3),
    (MonomialIdeal(3, [(0, 1, 1)]), 3),
], ids=["y2", "x2x3"])
def test_each_series_key_is_embedded_from_its_first_ideal(monkeypatch, base, dmax):
    # over these raw bases some series keys embed to another cutoff from a
    # later ideal's top degree than from the first one's, where the
    # per-ideal loop embeds and caches; the DP must start there too
    table = shakin_module._embedding_table(base)
    firsts, tops = {}, {}
    for ideal, h, pieces in verify._superideals(base, dmax):
        num = monomials.numerator_off_tail(base.n, h, table.tail(dmax, pieces[-1]))
        firsts.setdefault(num, ideal.max_degree())
        tops.setdefault(num, set()).add(ideal.max_degree())
    real = verify._embed_series
    calls, cutoffs = {}, set()

    def spy(base, top, target):
        calls[target] = top
        for other in tops[target]:
            try:
                cutoffs.add((target, len(real(base, other, target)[1])))
            except NotAdmissibleError:
                cutoffs.add((target, None))
        try:
            return real(base, top, target)
        except NotAdmissibleError:
            return None, []  # go on to the next key

    monkeypatch.setattr(verify, "_embed_series", spy)
    report = verify.VerificationReport("keys", {})
    assert list(verify._extremal_cases(report, base, dmax, None, lambda values, masks: None,
                                       lambda *args: False)) == []
    assert report.cases_checked == sum(1 for _ in verify._superideals(base, dmax))
    assert calls == firsts
    assert len(cutoffs) > len(firsts)


@pytest.mark.parametrize("check", [verify_betti_extremal, verify_coh_extremal])
def test_extremal_passes_walk_no_ideal_and_embed_each_series_key_once(monkeypatch, check):
    def fail(*args, **kwargs):
        raise AssertionError("_superideals called")

    a = shakin(3, pieces=[(1, [(2,)])])
    keys = len(_series_keys(a.total, 4))
    monkeypatch.setattr(verify, "_superideals", fail)
    embedded = _spy_on(monkeypatch, "_embed_series")
    report = check(a, 4)
    assert report.passed and report.cases_checked == 3266
    assert len(embedded) == keys == 294


@pytest.mark.parametrize("base, dmax", [
    *PINNED_ENUMERATIONS,
    (MonomialIdeal(3, [(3, 0, 0)]), 4),
    (MonomialIdeal(2, [(0, 2)]), 3),
    (MonomialIdeal(4, [(2, 0, 0, 0)]), 2),
    (MonomialIdeal(4, [(0, 1, 1, 0)]), 2),
])
def test_last_piece_states_match_the_enumeration(base, dmax):
    # one state per (last piece, HF), in the order _superideals first meets
    # it: its number of ideals, the top generator degree up to dmax of the
    # first of them and, in at most three variables, the componentwise
    # maximum of their Betti cells
    betti = verify._BettiByPieces(base, dmax) if base.n <= 3 else None

    def fields(cells):
        return [cells >> k * betti.width & betti.field for k in range(3 * dmax + 3)]

    want = {}
    for ideal, h, pieces in verify._superideals(base, dmax):
        top = max((sum(g) for g in ideal.gens if sum(g) <= dmax), default=0)
        cells = fields(betti.cells(pieces)[0]) if betti else 0
        got = want.setdefault((pieces[-1], h), [0, top, cells])
        got[0] += 1
        if betti:
            got[2] = list(map(max, got[2], cells))
    states = verify._chain_counts(base, dmax, by_last=True, cells=betti)
    assert [(last, h) for *_, last, h in states] == list(want)
    assert [[count, top, fields(betti.final(last, carry)) if betti else carry]
            for count, top, carry, last, h in states] == list(want.values())


def _module_memos():
    """Every lru_cache of a lexdist module, by qualified name."""
    memos = {}
    for info in pkgutil.iter_modules(lexdist.__path__):
        module = importlib.import_module(f"lexdist.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                memos[f"{module.__name__}.{name}"] = value
    return memos


def _spy_on(monkeypatch, name):
    """Patch verify.name to record every function it makes; returns the list."""
    made = []
    real = getattr(verify, name)

    def spy(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(verify, name, spy)
    return made


def _coh_tails(base, dmax):
    """The distinct (degree, piece) tails coh-extremal meets over base: each
    superideal's (dmax, last piece), and each lex target's piece at its
    cutoff, both found without the checker's route."""
    tails = {(dmax, pieces[-1]) for _, _, pieces in verify._superideals(base, dmax)}
    for ideal, num in _series_keys(base, dmax):
        embedded, cutoff = oracle_embed_series(base, ideal, num)
        tails.add((cutoff, monomials.degree_masks(embedded, cutoff)[cutoff]))
    return tails


def test_memos_stay_bounded_by_distinct_inputs(monkeypatch):
    # the homology memo holds complexes, the numerator memo colon
    # sub-ideals and the rest per-degree tables; none may grow with the
    # number of enumerated ideals.  The base's embedding table holds at
    # most dim S_d + 1 pieces per degree d up to the highest cutoff.  Its
    # tails hold in degree dmax a numerator per distinct last piece and
    # the few smaller pieces that growing them one generator at a time
    # meets, and off dmax, where only the lex targets' cutoffs reach, at
    # most as many entries as the pieces' bound.  coh-extremal's own memo
    # lives per call and holds one entry per distinct tail, and
    # betti-extremal's socle memo one colon per distinct (degree, upper
    # piece) of a transition below dmax, whatever the lower piece.
    memos = _module_memos()
    assert {"lexdist.homology._homology", "lexdist.monomials._numerator",
            "lexdist.shakin._embedding_table"} <= set(memos)
    tables = _spy_on(monkeypatch, "_coh_by_pieces")
    bettis = _spy_on(monkeypatch, "_BettiByPieces")
    a = shakin(3, pieces=[(1, [(2,)])])
    lasts = len({pieces[-1] for _, _, pieces in verify._superideals(a.total, 4)})
    uppers = {(d - 1, pieces[d]) for _, _, pieces in verify._superideals(a.total, 4)
              for d in range(1, 4)}
    for check in (verify_betti_extremal, verify_coh_extremal):
        for memo in memos.values():
            memo.cache_clear()
        report = check(a, 4, budget=10 ** 7)
        assert report.passed and report.cases_checked == 3266
        sizes = {name: memo.cache_info().currsize for name, memo in memos.items()}
        assert all(size < 500 for size in sizes.values()), (check.__name__, sizes)
        embedding = shakin_module._embedding_table(a.total)
        top = max(d for d, _ in embedding.pieces)
        bound = sum(len(monomials.degree_monomials(3, d)) + 1 for d in range(top + 1))
        assert len(embedding.pieces) <= bound, check.__name__
        at_dmax = len(embedding.tails[4])
        slack = len(monomials.degree_monomials(3, 4))
        assert lasts <= at_dmax <= lasts + slack, check.__name__
        assert max(embedding.tails) <= top
        assert sum(map(len, embedding.tails.values())) - at_dmax <= bound, check.__name__
    memo = inspect.getclosurevars(tables.pop()).nonlocals["memo"]
    assert set(memo) == _coh_tails(a.total, 4)
    assert set(bettis.pop().colons) <= uppers and len(uppers) == 168


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


# (base, dmax, window or None for the checker's default, ideals whose
# generators have a gcd > 1).  x3^5 lies above dmax 3; the window (-12, 9)
# is wider than the default (-6, 3) on both sides; the last entry is in
# four variables.
COH_ENUMERATIONS = [
    (MonomialIdeal(3, [(2, 0, 0), (0, 3, 0)]), 4, None, 0),
    (MonomialIdeal(3, [(2, 0, 0), (0, 3, 0)]), 5, None, 0),
    (MonomialIdeal(3, [(2, 0, 0)]), 3, None, 14),
    (MonomialIdeal(3, [(2, 0, 0)]), 4, None, 42),
    (MonomialIdeal(3, [(2, 0, 0)]), 3, (-12, 9), 14),
    (MonomialIdeal(3, [(0, 1, 1)]), 3, None, 27),
    (MonomialIdeal(3), 3, None, 262),
    (MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 5)]), 3, None, 0),
    (MonomialIdeal(2, [(2, 0)]), 5, None, 6),
    (MonomialIdeal(1, [(2,)]), 6, None, 2),
    (MonomialIdeal(4, [(2, 0, 0, 0)]), 2, None, 9),
]


@pytest.mark.parametrize("base, dmax, window, gcds", COH_ENUMERATIONS)
def test_coh_by_pieces_matches_takayama(base, dmax, window, gcds):
    # every superideal, the zero ideal too, against its own Takayama table,
    # though the tables read it off the largest ideal with its tail
    window = window or (-(dmax + base.n), dmax)
    tables = {p: verify._coh_by_pieces(base, window, p) for p in (2, P)}
    units = found = 0
    for ideal, h, pieces in verify._superideals(base, dmax):
        found += bool(ideal.gens) and sum(map(min, zip(*ideal.gens))) > 0
        for p, table in tables.items():
            got = table(h, pieces[-1])
            units += p == P and got == {}
            # also in the (i, j) order that failure payloads show
            want = local_coh_monomial(ideal, window=window, p=p).as_dict()
            assert list(got.items()) == list(want.items()), (ideal.gens, p)
    assert (units, found) == (1, gcds)


@pytest.mark.parametrize("a, dmax, cases, runs", [
    (shakin(4, pieces=[(1, [(2,)])]), 2, 717, 533),  # 512 last pieces, 66 series keys
    (MonomialIdeal(2), 3, 42, 25),  # 16 last pieces, 20 series keys
])
def test_coh_extremal_runs_takayama_once_per_tail(monkeypatch, a, dmax, cases, runs):
    seen = []

    def spy(ideal, **kwargs):
        seen.append(ideal.gens)
        return local_coh_monomial(ideal, **kwargs)

    monkeypatch.setattr(verify, "local_coh_monomial", spy)
    report = verify_coh_extremal(a, dmax)
    assert report.passed and report.cases_checked == cases
    assert len(seen) == len(_coh_tails(verify.base_ideal(a), dmax)) == runs


@pytest.mark.parametrize("base, dmax, window", [
    (MonomialIdeal(3, [(2, 0, 0), (0, 3, 0)]), 4, None),
    (MonomialIdeal(3, [(2, 0, 0)]), 3, (-12, 9)),
    (MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 5)]), 3, None),  # cutoffs reach 5
    (MonomialIdeal(3, [(0, 1, 1)]), 3, None),
    (MonomialIdeal(4, [(2, 0, 0, 0)]), 2, None),
    (MonomialIdeal(2, [(2, 0)]), 5, None),
])
def test_coh_targets_read_off_their_tails_match_takayama(base, dmax, window):
    # the targets share the table with the superideals, in the checker's
    # order; each is read off the largest ideal with its tail
    window = window or (-(dmax + base.n), dmax)
    table = verify._coh_by_pieces(base, window, P)
    targets = {}
    for ideal, h, pieces in verify._superideals(base, dmax):
        table(h, pieces[-1])
        embedding = _embedding_or_error(_embed_series, base, ideal,
                                        monomials.hilbert_numerator(ideal))
        if not isinstance(embedding[0], str):
            target = embedding[0]
            got = table(embedding[1], embedding[2][-1])
            want = local_coh_monomial(target, window=window, p=P).as_dict()
            assert list(got.items()) == list(want.items()), target.gens
            targets[target] = len(embedding[2]) - 1
    assert targets and max(targets.values()) >= base.max_degree()


# --- distraction statements ---------------------------------------------------------

def test_distraction_hf_identity_tautology():
    a = shakin(2, powers=(2, 2))
    report = verify_distraction_hf(a, DistractionMatrix.identity(2, P), 4,
                                   samples=10, seed=7)
    assert report.passed


def test_distraction_hf_generic():
    rng = random.Random(3)
    a = shakin(2, pieces=[(1, [(2,)])])
    d = random_distraction(rng, 2, P, columns=5)
    report = verify_distraction_hf(a, d, 4, samples=15, seed=9)
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


@pytest.mark.parametrize("check", [verify_betti_distraction_invariance, verify_codistra_h0])
def test_sampled_checkers_reject_a_negative_dmax(check):
    for samples in (0, 4):  # raised before any sample is drawn
        with pytest.raises(InvalidInputError, match="dmax must be nonnegative"):
            check(3, samples=samples, dmax=-1)


@pytest.mark.parametrize("check", [verify_distraction_hf, verify_epsilon_d_extremal])
def test_sampled_shakin_checkers_need_a_positive_dmax(check):
    # seed 20201 draws no extra generator in its 5 samples, seed 1 does
    d = DistractionMatrix([[(1, 0), (1, 1)], [(0, 1)]], P)
    for seed in (1, 20201):
        with pytest.raises(InvalidInputError, match="need dmax at least 1, got dmax=0"):
            check(MonomialIdeal(2, [(2, 0)]), d, 0, samples=5, seed=seed)


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
    for j, _source, _h in verify._sampled_cases(replay, base, verify._Distractions(d), 150, 0, 3):
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


# --- failure payloads --------------------------------------------------------------
# Each checker's failure branch, reached by breaking one step it relies on; the
# CLI must then exit 1 with the same report.

def _cli_report(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(["verify", *argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_distraction_hf_reports_a_failed_reverse_inclusion(monkeypatch, tmp_path):
    base = MonomialIdeal(2, [(2, 0)])
    d = random_distraction(random.Random(3), 2, P, columns=5)
    # an "embedding" that returns the base distracts to the base's HF
    monkeypatch.setattr(verify, "lex_embed", lambda a, h, dmax: base)
    report = verify_distraction_hf(base, d, 4, samples=15, seed=9)
    assert report.passed is False
    back = list(hf_general(distract_ideal(d, base), 4))
    assert report.failures and report.cases_checked >= len(report.failures)
    for failure in report.failures:
        assert set(failure) == {"embedded", "expected_hf", "distracted_hf", "error"}
        assert failure["error"] == "reverse-inclusion"
        assert failure["embedded"] == base.to_json()
        assert failure["distracted_hf"] == back != failure["expected_hf"]
    (tmp_path / "base.json").write_text(json.dumps(base.to_json()))
    (tmp_path / "d.json").write_text(json.dumps(d.to_json()))
    code, data = _cli_report(
        tmp_path, "distraction-hf", "--shakin", str(tmp_path / "base.json"),
        "--distraction", str(tmp_path / "d.json"), "--dmax", "4",
        "--samples", "15", "--seed", "9")
    assert code == 1 and data["failures"] == report.failures


def test_betti_invariance_reports_differing_tables(monkeypatch, tmp_path):
    real = verify.koszul_betti

    def koszul_betti_off_by_one(ideal, dmax, p):
        table = real(ideal, dmax, p)
        if isinstance(ideal, MonomialIdeal):
            return table
        rest = tuple(e for e in table.entries if e[0] != (0, 0))
        return dataclasses.replace(table, entries=(((0, 0), table[0, 0] + 1),) + rest)

    monkeypatch.setattr(verify, "koszul_betti", koszul_betti_off_by_one)
    report = verify_betti_distraction_invariance(2, samples=3, dmax=4, seed=13)
    assert report.passed is False and report.cases_checked == 3
    assert len(report.failures) == 3
    for failure in report.failures:
        assert set(failure) == {"ideal", "distraction", "betti_monomial", "betti_distracted"}
        ideal = MonomialIdeal.from_json(failure["ideal"])
        left = real(ideal, 4, P).to_json()
        assert failure["betti_monomial"] == left
        assert failure["betti_distracted"]["entries"] == {**left["entries"], "0,0": 2}
    code, data = _cli_report(tmp_path, "betti-invariance", "--n", "2", "--dmax", "4",
                             "--samples", "3", "--seed", "13")
    assert code == 1 and data["failures"] == report.failures


def test_codistra_h0_reports_a_monomial_value_above_the_distracted(monkeypatch, tmp_path):
    real = groebner.h0_hilbert_function

    def h0_raised_on_monomials(ideal, dmax):
        values = real(ideal, dmax)
        if isinstance(ideal, MonomialIdeal):
            return tuple(v + 1 for v in values)
        return values

    monkeypatch.setattr(groebner, "h0_hilbert_function", h0_raised_on_monomials)
    report = verify_codistra_h0(2, samples=3, dmax=4, seed=17)
    assert report.passed is False and report.cases_checked == 3
    assert len(report.failures) == 3
    for failure in report.failures:
        assert set(failure) == {"ideal", "distraction", "h0_monomial", "h0_distracted",
                                "violations"}
        ideal = MonomialIdeal.from_json(failure["ideal"])
        right = list(real(ideal, 4))
        # the two sides agree on these samples, so every degree exceeds by one
        assert failure["h0_distracted"] == right
        assert failure["h0_monomial"] == [v + 1 for v in right]
        assert failure["violations"] == [{"j": j, "left": v + 1, "right": v}
                                         for j, v in enumerate(right)]
    code, data = _cli_report(tmp_path, "codistra-h0", "--n", "2", "--dmax", "4",
                             "--samples", "3", "--seed", "17")
    assert code == 1 and data["failures"] == report.failures


# --- replayability -------------------------------------------------------------------

def test_reports_replay_identically():
    rng = random.Random(37)
    a = shakin(2, pieces=[(1, [(2,)])])
    d = random_distraction(rng, 2, P, columns=4)
    r1 = verify_distraction_hf(a, d, 4, samples=12, seed=41)
    r2 = verify_distraction_hf(a, d, 4, samples=12, seed=41)
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(r2.to_json(), sort_keys=True)
    r3 = verify_codistra_h0(2, samples=6, dmax=5, seed=43)
    r4 = verify_codistra_h0(2, samples=6, dmax=5, seed=43)
    assert json.dumps(r3.to_json(), sort_keys=True) == json.dumps(r4.to_json(), sort_keys=True)


def test_random_monomial_ideal_is_seeded():
    a = random_monomial_ideal(random.Random(5), 3)
    b = random_monomial_ideal(random.Random(5), 3)
    assert a == b
