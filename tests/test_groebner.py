"""groebner module: division, bases, initial data, saturation, H^0."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from lexdist._modmat import rank_mod
from lexdist.distraction import distract_ideal, random_distraction
from lexdist.errors import InvalidInputError
from lexdist.groebner import (
    DEFAULT_CHAR,
    Ideal,
    LinearChange,
    Poly,
    apply_linear_change,
    format_poly,
    h0_hilbert_function,
    hilbert_function,
    initial_ideal,
    intersect,
    is_prime,
    normal_form,
    parse_poly,
    saturate_maximal,
    saturate_variable,
)
from lexdist.monomials import (
    DegRevLexOrder,
    LexOrder,
    MonomialIdeal,
)
from lexdist import groebner, monomials
from lexdist.verify import random_monomial_ideal

from conftest import HUGE_P, LARGE_P, brute_rank_mod

P = DEFAULT_CHAR
LEX = LexOrder()
DRL = DegRevLexOrder()


def poly(text, n=2, p=P):
    return parse_poly(text, n, p)


def lex_initial_ideal(n, gens):
    """Leading terms of the reduced lex basis, from the order-generic kernel."""
    return MonomialIdeal(n, [g.leading(LEX)[0] for g in groebner._buchberger(gens, LEX)])


# --- polynomial arithmetic -----------------------------------------------------

def test_parse_and_format():
    f = poly("x1^2 + 3*x1*x2")
    assert f.terms == {(2, 0): 1, (1, 1): 3}
    assert format_poly(f) == "x1^2 + 3*x1*x2"
    assert poly("x1 - x1").is_zero
    assert format_poly(poly("0*x1")) == "0"
    assert poly("2", 2, 5).terms == {(0, 0): 2}


def test_poly_ring_ops():
    f, g = poly("x1 + x2"), poly("x1 - x2")
    assert (f * g).terms == poly("x1^2 - x2^2").terms
    assert (f + g).terms == poly("2*x1").terms
    assert f.power(2).terms == poly("x1^2 + 2*x1*x2 + x2^2").terms


def test_homogeneity_enforced():
    with pytest.raises(InvalidInputError):
        Ideal(2, [poly("x1 + x1^2")], P)
    with pytest.raises(InvalidInputError):
        Ideal(2, [poly("x1")], 4)  # composite characteristic


# --- orders -------------------------------------------------------------------

def test_order_keys():
    assert LEX.key((2, 0)) > LEX.key((1, 1))
    assert DRL.key((2, 0)) > DRL.key((1, 1)) > DRL.key((0, 2))


@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
       st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
       st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)))
def test_orders_multiplicative(u, v, w):
    for order in (LexOrder(), DegRevLexOrder()):
        if order.key(u) < order.key(v):
            uw = monomials.mul(u, w)
            vw = monomials.mul(v, w)
            assert order.key(uw) < order.key(vw)


# --- division and bases ---------------------------------------------------------

def test_normal_form_examples():
    assert normal_form(poly("x1^2"), [poly("x1^2 - x2^2")], LEX).terms == poly("x2^2").terms
    g = [poly("x1^2 - x2^2")]
    assert normal_form(poly("x2"), g, LEX).terms == poly("x2").terms
    # division against a two-element basis, checked by hand
    basis = [poly("x1^2 - x2^2"), poly("x1*x2 - x2^2")]
    r = normal_form(poly("x1^2*x2"), basis, LEX)
    assert r.terms == poly("x2^3").terms


def test_leading_term_follows_each_order():
    # a Poly keeps its leading term between calls; asking under another
    # order in between must not hand back the other order's term
    f = poly("x1*x3^2 + 2*x2^3", 3)
    for order, lead in ((DRL, ((0, 3, 0), 2)), (LEX, ((1, 0, 2), 1)), (DRL, ((0, 3, 0), 2))):
        assert f.leading(order) == lead
    shared = [poly("x1^2 - x2*x3", 3), poly("x1*x2 + x3^2", 3)]
    for order in (LEX, DRL, LEX):
        fresh = [poly("x1^2 - x2*x3", 3), poly("x1*x2 + x3^2", 3)]
        assert [g.terms for g in groebner._buchberger(shared, order)] == \
            [g.terms for g in groebner._buchberger(fresh, order)]


def test_buchberger_monomial_and_principal():
    basis = groebner._buchberger([poly("x1*x2"), poly("x1^2*x2")], LEX)
    assert [format_poly(g, LEX) for g in basis] == ["x1*x2"]
    basis = groebner._buchberger([poly("3*x1^2")], LEX)
    assert [format_poly(g, LEX) for g in basis] == ["x1^2"]


def test_buchberger_derived_example():
    gens = [poly("x1^2 - x2^2"), poly("x1*x2")]
    basis = groebner._buchberger(gens, LEX)
    leads = {g.leading(LEX)[0] for g in basis}
    assert leads == {(2, 0), (1, 1), (0, 3)}
    assert lex_initial_ideal(2, gens).gens == ((1, 1), (2, 0), (0, 3))


def test_buchberger_deterministic():
    gens = [poly("x1^2 - x2^2"), poly("x1*x2 + x2^2"), poly("x2^3")]
    a = Ideal(2, gens, P).groebner_basis()
    b = Ideal(2, list(gens), P).groebner_basis()
    assert [g.terms for g in a] == [g.terms for g in b]
    # the reduced basis is canonical: generator order does not matter
    c = Ideal(2, gens[::-1], P).groebner_basis()
    assert [g.terms for g in a] == [g.terms for g in c]


def test_initial_ideal_examples():
    mono = [poly("x1*x2"), poly("x1^2")]
    assert lex_initial_ideal(2, mono) == MonomialIdeal(2, [(1, 1), (2, 0)])
    assert initial_ideal(Ideal(2, mono, P)) == MonomialIdeal(2, [(1, 1), (2, 0)])
    assert lex_initial_ideal(2, [poly("x1^2 - x2^2")]) == MonomialIdeal(2, [(2, 0)])


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_buchberger_confluence(seed):
    # random combinations of basis elements reduce to zero
    rng = random.Random(seed)
    gens = [poly("x1^2 - x2^2"), poly("x1*x2 - x2^2")]
    ideal = Ideal(2, gens, P)
    basis = ideal.groebner_basis()
    f = Poly.zero(2, P)
    for g in gens:
        c = rng.randrange(P)
        e = (rng.randrange(3), rng.randrange(3))
        f = f + g.mul_term(e, c)
    assert normal_form(f, basis).is_zero


# --- Hilbert functions -----------------------------------------------------------

def test_hilbert_general_examples():
    assert hilbert_function(Ideal(2, [], P), 4) == (1, 2, 3, 4, 5)
    assert hilbert_function(Ideal(2, [poly("x1^2 + x1*x2")], P), 5) == (1, 2, 2, 2, 2, 2)


def test_hilbert_independent_of_order():
    # degrevlex initial ideal vs lex initial ideal give the same HF
    ideal = Ideal(3, [poly("x1^2 - x2*x3", 3), poly("x1*x2 + x3^2", 3)], P)
    via_drl = monomials.hilbert_function(initial_ideal(ideal), 6)
    via_lex = monomials.hilbert_function(lex_initial_ideal(3, ideal.gens), 6)
    assert via_drl == via_lex
    assert via_drl == hilbert_function(ideal, 6)


# --- saturation -------------------------------------------------------------------

def test_saturate_variable_matches_monomial_rule():
    ideal = Ideal(2, [poly("x1^2"), poly("x1*x2")], P)
    sat = saturate_variable(ideal, 1)
    assert {format_poly(g) for g in sat.gens} == {"x1"}
    mono = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert monomials.saturate_variable(mono, 1).gens == ((1, 0),)


def test_saturate_maximal_examples():
    ideal = Ideal(2, [poly("x1^2"), poly("x1*x2")], P)
    assert {format_poly(g) for g in saturate_maximal(ideal).gens} == {"x1"}
    hyper = Ideal(2, [poly("x1*x2")], P)
    assert {format_poly(g) for g in saturate_maximal(hyper).gens} == {"x1*x2"}
    artinian = Ideal(2, [poly("x1^2"), poly("x2^2")], P)
    assert {format_poly(g) for g in saturate_maximal(artinian).gens} == {"1"}


def test_intersection_against_monomial_oracle(rng):
    for _ in range(10):
        gens_a = [tuple(rng.randrange(3) for _ in range(2)) for _ in range(2)]
        gens_b = [tuple(rng.randrange(3) for _ in range(2)) for _ in range(2)]
        a = MonomialIdeal(2, [g for g in gens_a if sum(g)])
        b = MonomialIdeal(2, [g for g in gens_b if sum(g)])
        left = intersect(Ideal.from_monomial_ideal(a, P), Ideal.from_monomial_ideal(b, P))
        expected = monomials.intersect(a, b)
        got = initial_ideal(left)
        assert got == expected


def test_h0_examples():
    ideal = Ideal(2, [poly("x1^2"), poly("x1*x2")], P)
    assert h0_hilbert_function(ideal, 5) == (0, 1, 0, 0, 0, 0)
    assert h0_hilbert_function(MonomialIdeal(2, [(2, 0), (1, 1)]), 5) == (0, 1, 0, 0, 0, 0)
    saturated = Ideal(2, [poly("x1*x2")], P)
    assert h0_hilbert_function(saturated, 4) == (0, 0, 0, 0, 0)
    artinian = MonomialIdeal(2, [(2, 0), (0, 2)])
    assert h0_hilbert_function(artinian, 4) == monomials.hilbert_function(artinian, 4)
    for bad in (ideal, artinian):
        with pytest.raises(InvalidInputError):
            h0_hilbert_function(bad, -1)


def _h0_by_saturate_maximal(ideal, dmax):
    before = hilbert_function(ideal, dmax)
    after = hilbert_function(saturate_maximal(ideal), dmax)
    return tuple(x - y for x, y in zip(before, after))


def _random_form(gen, n, p):
    """A form of degree 1-3 with one to three terms."""
    monos = monomials.degree_monomials(n, gen.randint(1, 3))
    return Poly(n, p, {m: gen.randrange(1, p)
                       for m in gen.sample(monos, gen.randint(1, min(3, len(monos))))})


def test_h0_matches_saturate_maximal_oracle():
    # distracted ideals, the same fattened by random forms, and random forms
    # alone, whose initial ideals often have more H^0 than the ideal
    gen = random.Random(20201)
    nonzero = 0
    for n in (1, 2, 3, 4):
        for p in (2, 3, P, LARGE_P):
            for k in range(9 if n < 4 else 3):
                d = random_distraction(gen, n, p, columns=4)
                gens = list(distract_ideal(d, random_monomial_ideal(gen, n, max_degree=3)).gens)
                if k % 3:
                    forms = [_random_form(gen, n, p) for _ in range(gen.randint(1, 3))]
                    gens = forms if k % 3 == 2 else gens + forms
                ideal = Ideal(n, gens, p)
                expected = _h0_by_saturate_maximal(ideal, 7)
                assert h0_hilbert_function(ideal, 7) == expected, (ideal, expected)
                nonzero += any(expected)
    assert nonzero >= 20


def test_h0_certificate_rejects_a_form_in_an_associated_prime(monkeypatch):
    # I = (x3) cap (x1, x2) is saturated, but I : x3^inf = (x1, x2), and
    # x1 and x2 lie in the other associated prime
    ideal = Ideal(3, [poly(f, 3) for f in ("x1*x3", "x2*x3", "x1*x3^3 + x2*x3^3")], P)
    fallback = []
    monkeypatch.setattr(groebner, "saturate_maximal",
                        lambda i: fallback.append(i) or saturate_maximal(i))
    assert h0_hilbert_function(ideal, 6) == (0,) * 7
    assert fallback == []  # a seeded form certified
    monkeypatch.setattr(groebner, "_H0_RANDOM_FORMS", 0)
    assert groebner._h0_series(ideal) is None  # no variable certifies


def test_h0_of_a_complete_intersection_whose_initial_ideal_has_h0():
    # A/I is Cohen-Macaulay of dimension 1 (the point [1:0:0] four times),
    # so H^0 = 0, though in(I) has H^0 and x3 vanishes at the point
    ideal = Ideal(3, [poly("x2^2", 3, 3), poly("x1*x2 + x2*x3 + x3^2", 3, 3)], 3)
    assert h0_hilbert_function(initial_ideal(ideal), 6) == (0, 1, 1, 0, 0, 0, 0)
    assert h0_hilbert_function(ideal, 6) == _h0_by_saturate_maximal(ideal, 6) == (0,) * 7


def test_h0_falls_back_when_every_form_lies_in_an_associated_prime(monkeypatch):
    # I = f m: the only nonzero linear forms over F_2, x1, x2 and x1 + x2,
    # all divide f, so each lies in an associated prime and none certifies
    f = poly("x1^2*x2 + x1*x2^2", 2, 2)
    ideal = Ideal(2, [f * poly("x1", 2, 2), f * poly("x2", 2, 2)], 2)
    fallback = []
    monkeypatch.setattr(groebner, "saturate_maximal",
                        lambda i: fallback.append(i) or saturate_maximal(i))
    assert h0_hilbert_function(ideal, 6) == (0, 0, 0, 1, 0, 0, 0)
    assert len(fallback) == 1


def test_h0_runs_no_buchberger_beyond_the_cached_basis(monkeypatch):
    # I = (x1 + x2) m: x3 lies in no associated prime but m, so x_n itself
    # certifies and the only basis used is the ideal's own
    ideal = Ideal(3, [poly(f"x1*{v} + x2*{v}", 3) for v in ("x1", "x2", "x3")], P)
    ideal.groebner_basis()
    calls = []
    real = groebner._buchberger
    monkeypatch.setattr(groebner, "_buchberger", lambda *a: calls.append(a) or real(*a))
    assert h0_hilbert_function(ideal, 4) == (0, 1, 0, 0, 0)
    assert calls == []


def test_saturation_idempotent_general():
    ideal = Ideal(3, [poly("x1^2", 3), poly("x1*x2", 3), poly("x2^3 - x1*x3^2", 3)], P)
    sat = saturate_maximal(ideal)
    again = saturate_maximal(sat)
    assert sat.contains_ideal(ideal)
    assert again.contains_ideal(sat) and sat.contains_ideal(again)


# --- linear changes -------------------------------------------------------------

def test_apply_linear_change_examples():
    ideal = Ideal(2, [poly("x1^2")], P)
    ident = LinearChange([[1, 0], [0, 1]], P)
    assert [g.terms for g in apply_linear_change(ident, ideal).gens] == [poly("x1^2").terms]
    swap = LinearChange([[0, 1], [1, 0]], P)
    assert apply_linear_change(swap, ideal).gens[0].terms == poly("x2^2").terms
    shear = LinearChange([[1, 0], [1, 1]], P)  # x->x, y->x+y
    out = apply_linear_change(shear, Ideal(2, [poly("x2^2")], P))
    assert out.gens[0].terms == poly("x1^2 + 2*x1*x2 + x2^2").terms


def test_singular_change_rejected():
    with pytest.raises(InvalidInputError):
        LinearChange([[1, 1], [2, 2]], P)
    for p in (LARGE_P, HUGE_P):
        with pytest.raises(InvalidInputError):
            LinearChange([[1, 2, 3], [p + 2, 4, 6], [0, 0, 1]], p)
        assert LinearChange([[1, 2], [3, 4]], p).matrix == ((1, 2), (3, 4))


def test_zero_variables_change_of_coordinates():
    assert LinearChange([], P).matrix == ()


# --- the prime field -----------------------------------------------------------

def _trial_division(p):
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(p) == _trial_division(p) for p in range(-2, 10 ** 4))


def test_is_prime_rejects_carmichael_numbers():
    for c in (561, 41041, 3215031751):
        assert not is_prime(c)


def test_is_prime_is_fast_on_large_primes():
    t0 = time.perf_counter()
    assert is_prime(2 ** 61 - 1) and is_prime(LARGE_P)
    assert time.perf_counter() - t0 < 1.0  # trial division takes minutes here


def test_is_prime_refuses_beyond_its_exact_range():
    for _ in range(2):  # a refusal is raised again, not cached as an answer
        with pytest.raises(InvalidInputError):
            is_prime(3317044064679887385961981)


def test_rank_mod_exact_above_int64_range():
    for p in (LARGE_P, HUGE_P):
        gen = random.Random(4294967311)
        for _ in range(200):
            k = gen.randint(1, 3)
            left = [[gen.randrange(p) for _ in range(k)] for _ in range(4)]
            right = [[gen.randrange(p) for _ in range(4)] for _ in range(k)]
            m = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                 for row in left]
            assert rank_mod(m, p) == brute_rank_mod(m, p)
    # any integer entries, sparse or dense rows, tiny to huge primes
    entries = (0, 1, -1, 2, -3, 2 ** 64, -2 ** 64 - 5, 2 ** 70, 3 ** 50)
    gen = random.Random(32003)
    for p in (2, 3, 32003, LARGE_P, HUGE_P):
        for _ in range(60):
            rows, cols = gen.randint(0, 7), gen.randint(1, 7)
            dense = [[0] * cols for _ in range(rows)]
            for _ in range(gen.randint(0, rows * cols)):
                value = gen.choice(entries + (p, -p, 5 * p, gen.randrange(-p, p)))
                dense[gen.randrange(rows)][gen.randrange(cols)] = value
            sparse = [{c: x for c, x in enumerate(row) if x} for row in dense]
            expected = brute_rank_mod(dense, p)
            assert rank_mod(dense, p) == rank_mod(sparse, p) == expected, (dense, p)
        assert rank_mod([], p) == rank_mod([{}, {}], p) == rank_mod([[p, 0], [0, -p]], p) == 0
    assert rank_mod([[2 ** 70, 1]], 32003) == 1
