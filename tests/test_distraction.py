"""distraction module: validation, application, bar induction, polarization."""

import collections
import random
import re

import pytest

from conftest import LARGE_P, brute_validate_distraction, naive_distract
from lexdist import _modmat, distraction
from lexdist.distraction import (
    DistractionMatrix,
    apply_distraction,
    distract_ideal,
    induce_bar,
    polarize,
    random_distraction,
    validate_distraction,
)
from lexdist.errors import InternalContradictionError, InvalidInputError
from lexdist.groebner import DEFAULT_CHAR, format_poly, hilbert_function as hf_general
from lexdist.monomials import MonomialIdeal, hilbert_function, series_transform

P = DEFAULT_CHAR


def test_identity_is_valid():
    ok, witness = validate_distraction(DistractionMatrix.identity(3, P))
    assert ok and witness is None


def test_rank_deficient_selection_reported():
    d = DistractionMatrix([[(0, 1)], [(0, 1)]], P)
    ok, witness = validate_distraction(d)
    assert not ok
    assert witness == [(0, 0), (1, 0)]


def test_random_matrices_validate(rng):
    for n in (2, 3):
        d = random_distraction(rng, n, P, columns=5)
        ok, _ = validate_distraction(d)
        assert ok


def test_validity_is_characteristic_dependent():
    # rows x, x+2y / y: selections {x, y} and {x+2y, y} are fine over any p,
    # but {x+2y, ...} collapses mod 2 where x+2y = x ... choose a sharper case:
    # the selection (x+y, x-y) is singular exactly in characteristic 2.
    rows = [[(1, 1)], [(1, -1)]]
    ok2, _ = validate_distraction(DistractionMatrix(rows, 2))
    ok3, _ = validate_distraction(DistractionMatrix(rows, 3))
    assert not ok2 and ok3


ORACLE_PRIMES = (2, 3, 5, 32003, 4294967311, 2 ** 64 + 13)


def _oracle_rows(gen, n, p):
    """Rows of 1-4 entries (1-3 at n = 5) with repeated and stabilized entries.

    Half of the matrices draw coefficients from {0, 1, 2, -1}, so many of
    their selections are singular; the rest draw them uniformly mod p.
    """
    small = gen.random() < 0.5
    rows = []
    for _ in range(n):
        row = []
        for _ in range(gen.randint(1, 3 if n == 5 else 4)):
            if row and gen.random() < 0.3:
                row.append(gen.choice(row))
                continue
            entry = (0,) * n
            while not any(entry):
                entry = tuple(gen.choice((0, 0, 1, 2, p - 1)) % p if small else gen.randrange(p)
                              for _ in range(n))
            row.append(entry)
        rows.append(row)
    return rows


def test_validate_matches_brute_force_oracle(monkeypatch):
    def no_rank(*args, **kwargs):
        raise AssertionError("validate_distraction called rank_mod")

    monkeypatch.setattr(_modmat, "rank_mod", no_rank)
    monkeypatch.setattr(distraction, "rank_mod", no_rank, raising=False)
    gen = random.Random(5150)
    verdicts = collections.Counter()
    for _ in range(600):
        n, p = gen.randint(0, 5), gen.choice(ORACLE_PRIMES)
        d = DistractionMatrix(_oracle_rows(gen, n, p), p)
        got = validate_distraction(d)
        assert got == brute_validate_distraction(d.rows, p), (d, got)
        verdicts[got[0]] += 1
    assert min(verdicts.values()) >= 150, verdicts


def test_single_variable_rows_are_valid():
    for p in (2, 3, P):
        for row in ([(1,)], [(1,), (p - 1,)], [(p - 1,), (1,), (p - 1,), (p - 1,)]):
            assert validate_distraction(DistractionMatrix([row], p)) == (True, None)
    assert validate_distraction(DistractionMatrix([], P)) == (True, None)


# --- the sampler's cycle test ------------------------------------------------------

CYCLE_PRIMES = (2, 3, 5, 7, 32003)


def _sampler_rows(gen, n, columns, p):
    """Rows of entries a*x_i + b*x_k (a != 0, k != i), the sampler's form.

    Half of the matrices take a from {1, 2, -1} and b from {0, 1, 2, -1},
    so many of them have a cycle of weight product 1; the rest draw a and b
    uniformly, as random_distraction does.
    """
    small = gen.random() < 0.5
    rows = []
    for i in range(n):
        row = []
        for _ in range(columns):
            coeffs = [0] * n
            coeffs[i] = (gen.choice((1, 2, -1)) % p or 1) if small else gen.randrange(1, p)
            if n > 1:
                k = gen.choice([j for j in range(n) if j != i])
                coeffs[k] = gen.choice((0, 1, 2, -1)) % p if small else gen.randrange(p)
            row.append(tuple(coeffs))
        rows.append(row)
    return rows


def _cycle_verdict(d):
    """The cycle test's verdict, checked against both selection searches."""
    ok = not distraction._has_unit_cycle(d)
    assert ok == validate_distraction(d)[0] == brute_validate_distraction(d.rows, d.p)[0], d
    return ok


def test_cycle_test_matches_selection_search_on_sampler_matrices():
    gen = random.Random(6174)
    verdicts = collections.Counter()
    for _ in range(500):
        n, columns, p = gen.randint(1, 5), gen.randint(1, 4), gen.choice(CYCLE_PRIMES)
        verdicts[n, _cycle_verdict(DistractionMatrix(_sampler_rows(gen, n, columns, p), p))] += 1
    assert verdicts[1, True] and not verdicts[1, False]
    for n in range(2, 6):
        assert min(verdicts[n, True], verdicts[n, False]) >= 15, verdicts


def test_cycle_test_on_hand_built_matrices():
    def form(n, i, a, k=None, b=0):
        coeffs = [0] * n
        coeffs[i] = a
        if k is not None:
            coeffs[k] = b
        return tuple(coeffs)

    # a cycle through all n vertices, x_i + b_i x_{i+1}: weight prod(-b_i)
    for n in (2, 3, 4, 5):
        for p in (3, 7, 32003):
            sign = (-1) ** n
            for last, ok in ((sign, False), (2 * sign, True)):  # prod(-b_i) = 1, 2
                bs = [1] * (n - 1) + [last]
                rows = [[form(n, i, 1, (i + 1) % n, b)] for i, b in enumerate(bs)]
                assert _cycle_verdict(DistractionMatrix(rows, p)) is ok, (n, p, bs)
    p = 7
    # parallel edges 0 -> 1 of weights -1 and -2; 1 -> 0 weighs 3 = -1/2 mod 7,
    # so only the second parallel edge closes a unit cycle
    rows = [[form(2, 0, 1, 1, 1), form(2, 0, 1, 1, 2)], [form(2, 1, 1, 0, -3)]]
    assert _cycle_verdict(DistractionMatrix(rows, p)) is False
    rows[0][1] = form(2, 0, 1, 1, 3)
    assert _cycle_verdict(DistractionMatrix(rows, p)) is True
    # entries with b = 0 add no edge: row 0 (3*x1, x1) has none, so the
    # edge 1 -> 0 of row 1 (x2 + x1) closes no cycle
    rows = [[form(2, 0, 3), form(2, 0, 1, 1, 0)], [form(2, 1, 1, 0, 1)]]
    assert _cycle_verdict(DistractionMatrix(rows, p)) is True
    # the unit 3-cycle 0 -> 1 -> 2 -> 0 uses the second entry of row 1; its
    # first entry only points back at 0, making the 2-cycle of weight 2
    rows = [[form(3, 0, 1, 1, -1)],
            [form(3, 1, 1, 0, -2), form(3, 1, 1, 2, -1)],
            [form(3, 2, 1, 0, -1)]]
    assert _cycle_verdict(DistractionMatrix(rows, p)) is False
    rows[2] = [form(3, 2, 1, 0, -3)]
    assert _cycle_verdict(DistractionMatrix(rows, p)) is True
    # a cycle avoiding the smallest vertex: 1 -> 2 -> 3 -> 1 over a sink 0
    rows = [[form(4, 0, 1)], [form(4, 1, 1, 2, -1)], [form(4, 2, 1, 3, -1)],
            [form(4, 3, 2, 1, -2), form(4, 3, 1, 0, 5)]]
    assert _cycle_verdict(DistractionMatrix(rows, p)) is False


def _resample_until_searched_valid(rng, n, p, columns):
    """random_distraction as a plain loop: redraw until validate_distraction accepts."""
    while True:
        rows = []
        for i in range(n):
            row = []
            for _ in range(columns):
                coeffs = [0] * n
                coeffs[i] = rng.randrange(1, p)
                if n > 1:
                    k = rng.choice([j for j in range(n) if j != i])
                    coeffs[k] = rng.randrange(0, p)
                row.append(tuple(coeffs))
            rows.append(row)
        candidate = DistractionMatrix(rows, p)
        if validate_distraction(candidate)[0]:
            return candidate


def test_sampler_draws_what_resampling_by_the_selection_search_draws():
    for n in range(2, 7):
        for p in (2, 3, 32003):
            for columns in ((2, 3, 5) if n <= 4 else (2, 3)):
                for seed in range(3):
                    new, old = random.Random(seed), random.Random(seed)
                    for _ in range(2):
                        assert random_distraction(new, n, p, columns) == \
                            _resample_until_searched_valid(old, n, p, columns)
                    assert new.random() == old.random()


def test_apply_distraction_examples():
    d = DistractionMatrix([[(1, 0), (1, 1)], [(0, 1)]], P)
    assert apply_distraction(d, (0, 0)).terms == {(0, 0): 1}
    assert format_poly(apply_distraction(d, (2, 0))) == "x1^2 + x1*x2"
    assert format_poly(apply_distraction(d, (1, 1))) == "x1*x2"


@pytest.mark.parametrize("p", [2, 3, P, LARGE_P])
def test_packed_distraction_matches_the_factor_product(p):
    # dense entries, as user files may give them, and rows of one to three
    # listed entries under generators of degree up to 6, so many exponents
    # reach past a row's list into its repeated tail
    rng = random.Random(p)
    for n in range(1, 7):
        for _ in range(6):
            rows = []
            for _ in range(n):
                row = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, 3))]
                rows.append([e if any(e) else [1] + e[1:] for e in row])
            d = DistractionMatrix(rows, p)
            gens = []
            for _ in range(rng.randint(1, 4)):
                exps = [0] * n
                for _ in range(rng.randint(1, 6)):
                    exps[rng.randrange(n)] += 1
                gens.append(tuple(exps))
            ideal = MonomialIdeal(n, gens)
            want = [naive_distract(d, g).terms for g in ideal.gens]
            assert [g.terms for g in distract_ideal(d, ideal).gens] == want
            assert [apply_distraction(d, g).terms for g in ideal.gens] == want
        d = DistractionMatrix(rows, p)
        unit = MonomialIdeal(n, [(0,) * n])
        assert [g.terms for g in distract_ideal(d, unit).gens] == [{(0,) * n: 1}]
        assert distract_ideal(d, MonomialIdeal(n)).gens == ()
    # x1^35 * x2^35 over forms that mix x1 and x2: a term reaches x2^70,
    # so the packed fields must hold the degree, not the largest exponent
    d = DistractionMatrix([[[rng.randrange(1, p), rng.randrange(1, p)] for _ in range(3)]
                           for _ in range(2)], p)
    want = naive_distract(d, (35, 35)).terms
    assert (0, 70) in want
    assert [g.terms for g in distract_ideal(d, MonomialIdeal(2, [(35, 35)])).gens] == [want]
    assert apply_distraction(d, (35, 35)).terms == want


def test_distract_ideal_identity():
    ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
    out = distract_ideal(DistractionMatrix.identity(2, P), ideal)
    assert [g.terms for g in out.gens] == [{g: 1} for g in ideal.gens]


def test_hilbert_preserved_under_distraction(rng):
    for _ in range(8):
        n = rng.choice([2, 3])
        gens = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        ideal = MonomialIdeal(n, [g for g in gens if sum(g)])
        d = random_distraction(rng, n, P, columns=6)
        assert hf_general(distract_ideal(d, ideal), 7) == hilbert_function(ideal, 7)


def test_distraction_preserves_inclusions(rng):
    small = MonomialIdeal(2, [(2, 0), (1, 1)])
    large = MonomialIdeal(2, [(1, 0)])
    d = random_distraction(rng, 2, P, columns=4)
    ds, dl = distract_ideal(d, small), distract_ideal(d, large)
    assert all(dl.contains(g) for g in ds.gens)


# --- bar induction ---------------------------------------------------------------

def test_induce_bar_identity():
    bar = induce_bar(DistractionMatrix.identity(3, P))
    assert bar == DistractionMatrix.identity(2, P)


def test_induce_bar_derived_example():
    rows = [[(1, 0, 0), (1, 0, 1)], [(0, 1, 1)], [(0, 0, 1)]]
    bar = induce_bar(DistractionMatrix(rows, P))
    assert bar.rows == (((1, 0),), ((0, 1),))


def test_induce_bar_requires_constant_last_row():
    rows = [[(0, 1)], [(1, 0)]]  # last row is x1, not x2
    with pytest.raises(InvalidInputError):
        induce_bar(DistractionMatrix(rows, P))


def test_induce_bar_reports_the_first_singular_selection():
    # bar rows x1 / x2, 2*x1 / x3, x1 + x3: the prefix (x1, 2*x1) is
    # dependent, so its witness takes the first entry of the last bar row
    rows = [[(1, 0, 0, 1)], [(0, 1, 0, 0), (2, 0, 0, 1)],
            [(0, 0, 1, 1), (1, 0, 1, 0)], [(0, 0, 0, 1)]]
    message = "induced matrix is not a distraction; witness selection [(0, 0), (1, 1), (2, 0)]"
    with pytest.raises(InternalContradictionError, match=re.escape(message)):
        induce_bar(DistractionMatrix(rows, P))


def test_induced_bar_of_generic_matrices_is_valid(rng):
    for _ in range(10):
        d = random_distraction(rng, 3, P, columns=4)
        rows = list(d.rows[:-1]) + [[(0, 0, 1)]]
        # replacing the last row by x_n keeps validity: any selection
        # completes through x_n
        fixed = DistractionMatrix(rows, P)
        ok, _ = validate_distraction(fixed)
        if not ok:
            continue  # x_n may collide with another row's span choice
        bar = induce_bar(fixed)
        ok, _ = validate_distraction(bar)
        assert ok


# --- polarization ----------------------------------------------------------------

def test_polarize_squarefree_is_renaming():
    ideal = MonomialIdeal(2, [(1, 1)])
    result = polarize(ideal)
    assert result.extended_n == 4
    assert result.polarized.gens == ((0, 0, 1, 1),)
    assert result.specialize_to_original() == ideal


def test_polarize_pure_power():
    result = polarize(MonomialIdeal(1, [(2,)]))
    assert result.extended_n == 3
    assert result.polarized.gens == ((0, 1, 1),)


def test_polarize_derived_example():
    result = polarize(MonomialIdeal(2, [(2, 0), (1, 1)]))
    assert result.extended_n == 5
    assert set(result.polarized.gens) == {(0, 0, 1, 1, 0), (0, 0, 1, 0, 1)}
    assert result.specialize_to_original() == MonomialIdeal(2, [(2, 0), (1, 1)])


def test_polarize_specializations(rng):
    for _ in range(6):
        n = rng.choice([2, 3])
        gens = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        ideal = MonomialIdeal(n, [g for g in gens if sum(g)])
        d = random_distraction(rng, n, P, columns=5)
        result = polarize(ideal, d)
        assert result.specialize_to_original() == ideal
        got = [p.terms for p in result.specialize_to_distraction()]
        want = [p.terms for p in distract_ideal(d, ideal).gens]
        assert got == want
        assert got == [naive_distract(d, g).terms for g in ideal.gens]


def test_specialization_stays_in_the_distractions_field():
    # x1*x2 goes to l_11*l_21 = (x1 + 3*x2)(2*x1 + x2), whose x1*x2
    # coefficient 1 + 6 = 7 vanishes over F_7 and over no other prime field
    d = DistractionMatrix([[[1, 3], [1, 5]], [[2, 1], [0, 1]]], 7)
    ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
    got = polarize(ideal, d).specialize_to_distraction()
    want = distract_ideal(d, ideal).gens
    assert [(p.p, p.terms) for p in got] == [(p.p, p.terms) for p in want]
    naive = [naive_distract(d, g) for g in ideal.gens]
    assert [(p.p, p.terms) for p in got] == [(p.p, p.terms) for p in naive]
    assert format_poly(got[0]) == "2*x1^2 + 3*x2^2"


def test_polarization_series_identity(rng):
    # Hilb of the polarized quotient = Hilb of the original divided by (1-z)^r
    for _ in range(6):
        n = rng.choice([2, 3])
        gens = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        ideal = MonomialIdeal(n, [g for g in gens if sum(g)])
        result = polarize(ideal)
        r = sum(result.block_sizes)
        left = hilbert_function(result.polarized, 6)
        right = series_transform(hilbert_function(ideal, 6), -r)
        assert left == right


def test_polarized_ideal_is_squarefree(rng):
    ideal = MonomialIdeal(2, [(3, 0), (1, 2)])
    result = polarize(ideal)
    assert all(e <= 1 for g in result.polarized.gens for e in g)
