"""monomials module: ideals, Hilbert functions, slices, series transforms."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from lexdist.errors import InvalidInputError
from lexdist.monomials import (
    MonomialIdeal,
    binom,
    colon,
    degree_masks,
    degree_monomials,
    format_monomial,
    hilbert_function,
    hilbert_numerator,
    hilbert_upto,
    intersect,
    mask_to_monomials,
    masks_to_ideal,
    minimalize,
    parse_monomial,
    saturate_maximal,
    series_transform,
    slice_last_variable,
    standard_monomials,
    values_from_numerator,
    _antichain,
    _hilbert_by_masks,
    _minimal_generators,
)
from lexdist.verify import (
    enumerate_monomial_ideals_modulo,
    random_monomial_ideal,
    random_superideal_chain,
)

from conftest import (
    all_monomials,
    brute_divides,
    brute_hilbert,
    brute_in_ideal,
    brute_standard_monomials,
    geometric_inverse_coeffs,
    series_multiply,
)

exps = st.integers(min_value=0, max_value=4)


def small_ideals(n, max_gens=5, max_exp=4):
    gen = st.tuples(*[st.integers(0, max_exp)] * n)
    return st.lists(gen, min_size=0, max_size=max_gens).map(
        lambda gens: MonomialIdeal(n, [g for g in gens if sum(g)])
    )


# --- minimalize -------------------------------------------------------------

def test_minimalize_drops_multiples():
    ideal = minimalize([(2, 0), (2, 1)], 2)
    assert ideal.gens == ((2, 0),)


def test_minimalize_empty_is_zero_ideal():
    assert minimalize([], 3).is_zero


def test_minimalize_keeps_antichain():
    ideal = minimalize([(1, 1), (2, 0), (0, 2)], 2)
    assert set(ideal.gens) == {(1, 1), (2, 0), (0, 2)}


def test_minimalize_rejects_bad_length():
    with pytest.raises(InvalidInputError):
        minimalize([(1, 0, 0)], 2)


@given(small_ideals(3))
def test_minimalize_idempotent(ideal):
    assert MonomialIdeal(ideal.n, ideal.gens) == ideal


# --- containment ------------------------------------------------------------

def test_contains_basic():
    ideal = MonomialIdeal(1, [(2,)])
    assert ideal.contains((3,))
    assert not MonomialIdeal(2, [(2, 0)]).contains((1, 1))
    assert not MonomialIdeal(2).contains((1, 1))


@given(small_ideals(3), st.tuples(exps, exps, exps))
def test_contains_matches_brute_force(ideal, m):
    assert ideal.contains(m) == brute_in_ideal(ideal.gens, m)


# --- colon ------------------------------------------------------------------

def test_colon_examples():
    assert colon(MonomialIdeal(1, [(2,)]), (1,)).gens == ((1,),)
    assert colon(MonomialIdeal(2, [(1, 1), (0, 2)]), (0, 1)).gens == ((0, 1), (1, 0))
    ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert colon(ideal, (0, 0)) == ideal


@given(small_ideals(2), st.tuples(exps, exps), st.tuples(exps, exps))
def test_colon_membership(ideal, m, probe):
    # f in (I : m) iff f*m in I
    quotient = colon(ideal, m)
    prod = tuple(a + b for a, b in zip(probe, m))
    assert quotient.contains(probe) == ideal.contains(prod)


# --- standard monomials and Hilbert functions -------------------------------

def test_standard_monomials_examples():
    square = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    assert standard_monomials(square, 1) == [(1, 0), (0, 1)]
    assert standard_monomials(square, 2) == []
    assert standard_monomials(MonomialIdeal(2, [(2, 0)]), 2) == [(1, 1), (0, 2)]


@given(small_ideals(3), st.integers(0, 5))
def test_standard_monomials_match_brute_force(ideal, d):
    assert standard_monomials(ideal, d) == brute_standard_monomials(ideal.gens, 3, d)


def test_hilbert_zero_ideal():
    assert hilbert_function(MonomialIdeal(3), 3) == (1, 3, 6, 10)


def test_hilbert_maximal_ideal():
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert hilbert_function(MonomialIdeal(3, gens), 4) == (1, 0, 0, 0, 0)


def test_hilbert_derived_example():
    # standard monomials of (x^2, xy): 1, x, y, y^2, y^3, y^4
    ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert hilbert_function(ideal, 4) == (1, 2, 1, 1, 1)


def test_hilbert_unit_ideal():
    assert hilbert_function(MonomialIdeal(2, [(0, 0)]), 3) == (0, 0, 0, 0)


def test_hilbert_skips_generators_above_dmax():
    # only generators of degree <= dmax shape the values up to dmax, so a
    # huge pure power allocates nothing of its size
    ideal = MonomialIdeal(3, [(10 ** 6, 0, 0), (0, 2, 0)])
    tracemalloc.start()
    try:
        values = hilbert_function(ideal, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == (1, 3, 5, 7)
    assert peak < 1 << 20, peak


def test_hilbert_no_variables():
    # A = K: one standard monomial, in degree 0
    assert hilbert_function(MonomialIdeal(0), 3) == (1, 0, 0, 0)
    assert _hilbert_by_masks(MonomialIdeal(0), 3) == (1, 0, 0, 0)


@given(small_ideals(3, max_exp=3), st.integers(0, 5))
def test_hilbert_matches_brute_force(ideal, dmax):
    assert hilbert_function(ideal, dmax) == brute_hilbert(ideal.gens, 3, dmax)


@given(small_ideals(3, max_exp=2), st.integers(0, 6))
def test_hilbert_upto_matches(ideal, dmax):
    assert hilbert_upto(ideal, dmax) == hilbert_function(ideal, dmax)


@pytest.mark.parametrize("upto", [-1, -2, -5])
def test_hilbert_upto_below_zero_is_empty(upto):
    ideal = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 0, 3)])
    assert hilbert_upto(ideal, upto) == ()
    assert values_from_numerator(hilbert_numerator(ideal), 3, upto) == ()


@given(small_ideals(4, max_gens=4, max_exp=1))
def test_squarefree_ideals_match_mask_route(ideal):
    assert hilbert_function(ideal, 5) == _hilbert_by_masks(ideal, 5)


@given(small_ideals(3, max_exp=3), st.integers(0, 3))
def test_numerator_is_series_times_one_minus_t_cubed(ideal, extra):
    num = hilbert_numerator(ideal)
    dmax = len(num) + extra
    values = hilbert_function(ideal, dmax)
    assert values == brute_hilbert(ideal.gens, 3, dmax)
    assert series_transform(values, 3) == num + (0,) * (dmax + 1 - len(num))


def edge_ideal(n, edges):
    return MonomialIdeal(n, [tuple(int(k in e) for k in range(n)) for e in edges])


def test_complete_graph_edge_ideal():
    # 45 generators: a subset-enumerating route would visit 2**45 subsets
    ideal = edge_ideal(10, itertools.combinations(range(10), 2))
    assert len(ideal.gens) == 45
    assert hilbert_function(ideal, 6) == (1,) + (10,) * 6


def test_random_graph_edge_ideal_matches_mask_route():
    edges = random.Random(30).sample(list(itertools.combinations(range(10), 2)), 30)
    ideal = edge_ideal(10, edges)
    assert len(ideal.gens) == 30
    assert hilbert_function(ideal, 6) == _hilbert_by_masks(ideal, 6)


@given(small_ideals(3), st.integers(0, 5))
def test_count_identity(ideal, d):
    # |standard| + |degree-d monomials inside| = C(d+n-1, n-1)
    inside = sum(1 for m in all_monomials(3, d) if brute_in_ideal(ideal.gens, m))
    assert len(standard_monomials(ideal, d)) + inside == binom(d + 2, 2)


# --- intersections and saturation -------------------------------------------

def test_intersect_and_saturate():
    a = MonomialIdeal(2, [(2, 0), (1, 1)])  # x(x, y)
    assert saturate_maximal(a).gens == ((1, 0),)
    xy = MonomialIdeal(2, [(1, 1)])
    assert saturate_maximal(xy) == xy
    assert intersect(MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])).gens == ((1, 1),)


@given(small_ideals(3))
def test_saturation_contains_and_idempotent(ideal):
    sat = saturate_maximal(ideal)
    assert all(sat.contains(g) for g in ideal.gens)
    assert saturate_maximal(sat) == sat


# --- series transform --------------------------------------------------------

def test_series_transform_examples():
    assert series_transform((1, 1, 1, 1), 1) == (1, 0, 0, 0)
    assert series_transform((1, 0, 0), -1) == (1, 1, 1)
    assert series_transform((1, 2, 1), -2) == (1, 4, 8)


def test_series_transform_negative_matches_convolution():
    h = (1, 2, 1)
    expected = series_multiply(h, geometric_inverse_coeffs(2, 2), 2)
    assert series_transform(h, -2) == expected


@given(st.lists(st.integers(0, 9), min_size=1, max_size=8), st.integers(0, 4))
def test_series_round_trip(values, r):
    assert series_transform(series_transform(tuple(values), r), -r) == tuple(values)


# --- slices and stability ----------------------------------------------------

def test_slice_examples():
    assert [s.gens for s in slice_last_variable(MonomialIdeal(2))] == [()]
    two = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert [s.gens for s in slice_last_variable(two)] == [((2,),), ((1,),)]
    pure = MonomialIdeal(2, [(0, 2)])
    assert [s.gens for s in slice_last_variable(pure)] == [(), (), ((0,),)]


@given(small_ideals(3, max_exp=3))
def test_slice_reassembly(ideal):
    # the direct sum of slices times powers of the last variable is the ideal
    slices = slice_last_variable(ideal)
    dmax = 6
    for d in range(dmax + 1):
        for m in all_monomials(3, d):
            piece = slices[min(m[-1], len(slices) - 1)]
            assert ideal.contains(m) == piece.contains(m[:-1])


# --- text and JSON -----------------------------------------------------------

def test_monomial_text_round_trip():
    assert parse_monomial("x1^2*x3", 3) == (2, 0, 1)
    assert parse_monomial("1", 2) == (0, 0)
    assert format_monomial((2, 0, 1)) == "x1^2*x3"
    assert format_monomial((0, 0)) == "1"
    with pytest.raises(InvalidInputError):
        parse_monomial("x9", 3)


def test_ideal_json_round_trip():
    ideal = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0)])
    assert MonomialIdeal.from_json(ideal.to_json()) == ideal


def test_canonical_generator_order():
    ideal = MonomialIdeal(2, [(0, 2), (2, 0), (1, 1)])
    assert ideal.gens == ((0, 2), (1, 1), (2, 0))


def test_degree_monomials_descending_lex():
    monos = degree_monomials(3, 2)
    assert monos[0] == (2, 0, 0)
    assert monos[-1] == (0, 0, 2)
    assert list(monos) == sorted(monos, reverse=True)


def _same_as_public(ideal):
    public = MonomialIdeal(ideal.n, ideal.gens)
    assert ideal.gens == public.gens
    assert ideal == public and public == ideal
    assert hash(ideal) == hash(public)


def test_masks_to_ideal_matches_public_constructor():
    # masks_to_ideal skips minimalising, so its ideals must be canonical
    cases = list(enumerate_monomial_ideals_modulo(MonomialIdeal(3, [(2, 0, 0)]), 3))
    assert len(cases) == 400
    for ideal in cases:
        _same_as_public(ideal)
    rng = random.Random(73)
    for trial in range(90):
        n, dmax = rng.randint(1, 4), rng.randint(0, 5)
        base = random_monomial_ideal(rng, n, max_degree=3, max_gens=3)
        if trial % 3 == 0:  # the base's own pieces: the degrees above it add nothing
            masks = degree_masks(base, dmax)
        elif trial % 3 == 1:
            masks = random_superideal_chain(rng, base, dmax)
        else:  # arbitrary pieces, not closed under multiplication
            masks = [rng.getrandbits(len(degree_monomials(n, d))) for d in range(dmax + 1)]
        ideal = masks_to_ideal(n, masks)
        _same_as_public(ideal)
        pieces = [m for d, mask in enumerate(masks) for m in mask_to_monomials(n, d, mask)]
        assert ideal == MonomialIdeal(n, pieces)


def test_antichain_matches_brute_force_minimal_generators():
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randint(0, 4)
        gens = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randint(0, 8))]
        brute = sorted({m for m in gens
                        if not any(g != m and brute_divides(g, m) for g in gens)},
                       key=lambda m: (sum(m), m))
        assert _antichain(gens) == _minimal_generators(gens, n) == tuple(brute)
