"""groebner module: division, bases, initial data, saturation, H^0."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from lexdist._modmat import rank_mod
from lexdist.distraction import (
    DistractionMatrix,
    distract_ideal,
    random_distraction,
    validate_distraction,
)
from lexdist.errors import InvalidInputError
from lexdist.groebner import (
    DEFAULT_CHAR,
    Ideal,
    Poly,
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

from conftest import HUGE_P, LARGE_P, brute_buchberger, brute_rank_mod, brute_compose_linear

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


@pytest.mark.parametrize("text, expected", [
    ("-x1", "6*x1"),
    ("x1 - x2", "x1 + 6*x2"),
    ("x1 + -x2", "x1 + 6*x2"),
    ("-3*x1^2 - x2^2", "4*x1^2 + 6*x2^2"),
])
def test_parse_poly_reads_signs(text, expected):
    assert format_poly(poly(text, 2, 7)) == expected


@pytest.mark.parametrize("text", [
    "x1*x2 - -x1*x2", "1 - -1", "3*-x1", "x1 -", "*x1", "x1*", "x1**x2", "x1 + + x2", "x1 +",
])
def test_parse_poly_rejects_a_missing_factor(text):
    # each once parsed as a wrong polynomial, an empty factor read as 1
    with pytest.raises(InvalidInputError) as err:
        poly(text, 2, 7)
    assert str(err.value) == f"bad polynomial {text.replace(' ', '')!r}: a factor is missing"


def test_ideal_drops_zero_generators():
    ideal = Ideal(2, [poly("x1 - x1"), poly("x2"), poly("0")], P)
    assert [format_poly(g) for g in ideal.gens] == ["x2"]


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
    # the leading term under each order asked, in any sequence of orders
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
    f = Poly(2, P)
    for g in gens:
        c = rng.randrange(P)
        e = (rng.randrange(3), rng.randrange(3))
        f = f + g.mul_term(e, c)
    assert normal_form(f, basis).is_zero


def test_reduce_basis_of_a_padded_groebner_basis():
    # Buchberger over a Groebner basis plus redundant members (monomial
    # multiples and sums of members), shuffled, as saturate_variable hands
    # it a stripped basis, gives the reduced basis: monic, and no term
    # beyond a lead divisible by any lead
    gen = random.Random(1511)
    for n in (2, 3, 4, 5):
        for p in (2, 3, P):
            for _ in range(3):
                d = random_distraction(gen, n, p, columns=4)
                ideal = distract_ideal(d, random_monomial_ideal(gen, n, max_degree=3))
                basis = groebner._buchberger(ideal.gens, DRL)
                padded = list(basis)
                for _ in range(4):
                    f, g = gen.choice(basis), gen.choice(basis)
                    x = monomials.variable(n, gen.randrange(n))
                    padded += [f.mul_term(x, gen.randrange(1, p)), f + g.scale(gen.randrange(p))]
                gen.shuffle(padded)
                reduced = groebner._buchberger(padded, DRL)
                assert [g.terms for g in reduced] == [g.terms for g in basis], ideal
                leads = [g.leading(DRL)[0] for g in reduced]
                for g, lead in zip(reduced, leads):
                    assert g.terms[lead] == 1, g
                    assert not any(monomials.divides(l, e)
                                   for e in g.terms if e != lead for l in leads), g


def _mixed_distracted_ideal(gen, n, p):
    """Generators of a seeded distracted ideal, each plus multiples of the
    ones before it: the same ideal, but rarely a Groebner basis."""
    mono = []
    for _ in range(n + 2):
        exps = [0] * n
        for _ in range(gen.randint(2, 3)):
            exps[gen.randrange(n)] += 1
        mono.append(tuple(exps))
    ideal = distract_ideal(random_distraction(gen, n, p, columns=3), MonomialIdeal(n, mono))
    gens = []
    for g in ideal.gens:
        for f in gens[:]:
            x = [0] * n
            for _ in range(sum(next(iter(g.terms))) - sum(next(iter(f.terms)))):
                x[gen.randrange(n)] += 1
            g = g + f.mul_term(tuple(x), gen.randrange(p))
        gens.append(g)
    return ideal, gens


def test_initial_ideal_is_the_ideal_of_the_leads():
    # initial_ideal reads each lead off the first term of a reduced basis
    # element; leading() takes the maximum over all terms
    gen = random.Random(2718)
    for p in (2, 3, P):
        for n in (2, 3, 4):
            for _ in range(3):
                j = Ideal(n, _mixed_distracted_ideal(gen, n, p)[1], p)
                leads = [g.leading(DRL)[0] for g in j.groebner_basis()]
                assert initial_ideal(j) == MonomialIdeal(n, leads), j


def test_intersection_basis_is_reduced_as_it_stands():
    # the t-free elements of the elimination basis already are the reduced
    # degrevlex basis: Buchberger returns them unchanged, term for term
    gen = random.Random(4848)
    general = 0
    for p in (2, 3, P):
        for n in (2, 3):
            for _ in range(8):
                a, b = (Ideal(n, _mixed_distracted_ideal(gen, n, p)[1], p) for _ in range(2))
                kept = intersect(a, b).gens
                assert [list(g.terms.items()) for g in groebner._buchberger(kept, DRL)] == \
                    [list(g.terms.items()) for g in kept]
                general += any(len(g.terms) > 1 for g in kept)
    assert general >= 40, general  # 41 of the 48 pairs


def test_packed_kernel_matches_tuple_oracle():
    # the packed kernel's reduced bases against Buchberger on exponent tuples
    gen = random.Random(1717)

    def agree(gens, order):
        got = [g.terms for g in groebner._buchberger(gens, order)]
        assert got == brute_buchberger([g.terms for g in gens], gens[0].p, order), (order, gens)
        return got

    def lift(g, t):
        return Poly(g.n + 1, g.p, {e + (t,): c for e, c in g.terms.items()})

    for p in (2, 3, P, LARGE_P, HUGE_P):
        for n in range(1, 7):
            for _ in range(2 if n <= 4 else 1):
                ideal, gens = _mixed_distracted_ideal(gen, n, p)
                assert agree(gens, DRL) == [g.terms for g in ideal.groebner_basis()]
                if n <= 3:
                    agree(gens, LEX)
                    # intersect's elimination input: t * a and (1 - t) * b
                    other = _mixed_distracted_ideal(gen, n, p)[1]
                    agree([lift(g, 1) for g in gens] + [lift(g, 0) - lift(g, 1) for g in other],
                          groebner._ELIM_LAST)
        # an ideal with a unit, and the ring with no variables
        assert agree([poly("x1^2 - x2^2", 2, p), Poly.constant(2, p, -1)], DRL) == [{(0, 0): 1}]
        assert agree([Poly.constant(0, p, 1)], DRL) == [{(): 1}]
        assert hilbert_function(Ideal(0, [Poly.constant(0, p, 1)], p), 2) == (0, 0, 0)
        assert hilbert_function(Ideal(0, [], p), 2) == (1, 0, 0)


@st.composite
def _packable(draw):
    # an order, a width, and two exponent vectors whose fields fit it
    order = draw(st.sampled_from((LEX, DRL, groebner._ELIM_LAST)))
    n = draw(st.integers(1, 5))
    width = draw(st.integers(1, 6))
    limit = (1 << width) - 1
    summed = order.packing(n)[1]

    def vector():
        exps = [draw(st.integers(0, limit)) for _ in range(n)]
        while sum(exps[i] for i in summed) > limit:
            exps[max(summed, key=lambda i: exps[i])] -= 1
        return tuple(exps)

    return order, n, width, vector(), vector()


@settings(max_examples=300, deadline=None)
@given(_packable())
def test_packing_agrees_with_tuples(case):
    # packed comparison, product, lcm and divisibility against order.key
    # and monomials.mul / lcm / divides, up to the field limit; a product or
    # lcm that outgrows it must set a guard bit instead of wrapping
    order, n, width, u, v = case
    pk = groebner._Packing(order, n, width)
    a, b = pk.pack(u), pk.pack(v)
    assert not (a | b) & pk.guards
    assert pk.unpack(a) == u
    assert ((a ^ pk.mask) < (b ^ pk.mask)) == (order.key(u) < order.key(v))
    assert (a == b) == (u == v)
    assert pk.divides(a, b) == monomials.divides(u, v)
    for packed, exps in ((a + b, monomials.mul(u, v)), (pk.lcm(a, b), monomials.lcm(u, v))):
        fits = all(f < 1 << width for f in (*exps, sum(exps[i] for i in order.packing(n)[1])))
        if fits:
            assert packed == pk.pack(exps)
        else:
            assert packed & pk.guards


def test_overflow_widens_and_restarts():
    # a remainder and a basis whose degrees outgrow the first field width:
    # the kernel repacks at double width and finishes exactly
    assert 40000 >= 1 << max(groebner._MIN_WIDTH, (20000).bit_length())
    f = normal_form(poly("x1^4"), [poly("x1^2 - x2^20000")], LEX)
    assert f.terms == {(0, 40000): 1}
    d = 3000
    assert 2 * d - 1 >= 1 << max(groebner._MIN_WIDTH, (d + 1).bit_length())
    ideal = Ideal(3, [poly(f"x1^{d}", 3), poly(f"x1*x2^{d - 1} - x3^{d}", 3),
                      poly(f"x3^{d + 1}", 3)], P)
    assert [format_poly(g) for g in ideal.groebner_basis()] == [
        f"x1^{d - 1}*x3^{d}", f"x3^{d + 1}", f"x1^{d}", f"x1*x2^{d - 1} + {P - 1}*x3^{d}"]


def test_overflow_from_an_s_polynomial_widens_and_restarts():
    # the generators, their leads x1 and x1*x2^30 and the lcm of those fit
    # the first width, but the S-polynomial x2^30*(x1 + x2^40) - x1*x2^30
    # = x2^70 does not.  For input homogeneous in the summed variables
    # every S-polynomial term has the lcm's degree and fits, so only input
    # that is not homogeneous, which no public ideal is, gets here.
    gens = [poly("x1 + x2^40"), poly("x1*x2^30")]
    assert 70 >= 1 << max(groebner._MIN_WIDTH, (40).bit_length())
    got = [g.terms for g in groebner._buchberger(gens, LEX)]
    assert got == brute_buchberger([g.terms for g in gens], P, LEX)
    assert got == [poly("x1 + x2^40").terms, poly("x2^70").terms]


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
    assert all(sat.contains(g) for g in ideal.gens)
    assert all(again.contains(g) for g in sat.gens)
    assert all(sat.contains(g) for g in again.gens)


# --- the coordinate changes of H^0 -------------------------------------------

def test_swap_and_shear_match_substitution():
    # the x_k <-> x_n swap and the x_n shear of _h0_series, against expanding
    # f(images) product by product
    ideal = Ideal(2, [poly("x2^2")], P)
    assert groebner._permute_last(ideal, 0)(poly("x1^2 + 3*x2")).terms == poly("x2^2 + 3*x1").terms
    assert groebner._shear_last(ideal, (1,))(poly("x2^2")).terms == poly("x1^2 + 2*x1*x2 + x2^2").terms
    gen = random.Random(1308)
    for p in (2, 3, 32003, LARGE_P):
        for n in (2, 3, 4):
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            ring = Ideal(n, [], p)
            for _ in range(6):
                f = _random_form(gen, n, p)
                k = gen.randrange(n - 1)
                images = identity[:]
                images[k], images[-1] = images[-1], images[k]
                assert groebner._permute_last(ring, k)(f).terms == \
                    brute_compose_linear(f.terms, images, p), (f, k)
                head = tuple(gen.randrange(p) for _ in range(n - 1))
                assert groebner._shear_last(ring, head)(f).terms == \
                    brute_compose_linear(f.terms, identity[:-1] + [[*head, 1]], p), (f, head)


def test_singular_change_rejected():
    # one linear form per row makes a distraction a single change of
    # coordinates; validation rejects it exactly when the matrix is singular
    # mod p, and names the whole selection as its witness
    def change(matrix, p):
        return validate_distraction(DistractionMatrix([[row] for row in matrix], p))

    assert change([[1, 1], [2, 2]], P) == (False, [(0, 0), (1, 0)])
    for p in (LARGE_P, HUGE_P):
        # rows 1 and 2 agree mod p only
        assert change([[1, 2, 3], [p + 2, 4, 6], [0, 0, 1]], p) == \
            (False, [(0, 0), (1, 0), (2, 0)])
        assert change([[1, 2], [3, 4]], p) == (True, None)


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


def _dict_rows(dense):
    """The rows of a dense matrix as {column: entry} dicts, zeros kept."""
    return [dict(enumerate(row)) for row in dense]


def test_rank_mod_exact_above_int64_range():
    for p in (LARGE_P, HUGE_P):
        gen = random.Random(4294967311)
        for _ in range(200):
            k = gen.randint(1, 3)
            left = [[gen.randrange(p) for _ in range(k)] for _ in range(4)]
            right = [[gen.randrange(p) for _ in range(4)] for _ in range(k)]
            m = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                 for row in left]
            assert rank_mod(_dict_rows(m), p) == brute_rank_mod(m, p)
        # rows 1 and 2 of the 3x3 matrix agree mod p only, so its rank is 2
        for m, rank in (([[1, 2, 3], [p + 2, 4, 6], [0, 0, 1]], 2), ([[1, 2], [3, 4]], 2),
                        ([[1, 1], [2, 2]], 1)):
            assert rank_mod(_dict_rows(m), p) == brute_rank_mod(m, p) == rank
    # any integer entries, with and without zero entries, tiny to huge primes
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
            assert rank_mod(_dict_rows(dense), p) == rank_mod(sparse, p) == expected, (dense, p)
        assert rank_mod([], p) == rank_mod([{}, {}], p) == rank_mod([{0: p, 1: 0}, {1: -p}], p) == 0
    assert rank_mod([{0: 2 ** 70, 1: 1}], 32003) == 1
