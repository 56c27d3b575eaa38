"""homology module: Betti tables, Taylor oracle, local cohomology."""

import itertools
import random
import tracemalloc

import pytest

from lexdist.distraction import distract_ideal, random_distraction
from lexdist.errors import InvalidInputError
from lexdist.groebner import DEFAULT_CHAR, Ideal, parse_poly
from lexdist.homology import koszul_betti, local_coh_monomial, taylor_betti_oracle
from lexdist.monomials import MonomialIdeal, hilbert_function, series_transform
from lexdist.verify import VerificationReport, _distraction_pairs
from lexdist import groebner, homology

from conftest import (HUGE_P, LARGE_P, brute_divides, brute_local_coh, brute_normal_form,
                      brute_reduced_homology)

P = DEFAULT_CHAR


def seeded_monomial_ideals():
    """(ideal, p): n = 1-4, every other ideal with a pure power of each variable.

    Then the edges of the per-coordinate bitset tables: the zero and unit
    ideals, n = 5, and pure powers x_i^9 above both the Betti cutoff 8 and
    the local-cohomology window (-4, 6).
    """
    gen = random.Random(61)
    for trial in range(80):
        n, p = gen.randint(1, 4), gen.choice([2, 3, 32003, 4294967311])
        gens = [tuple(gen.randrange(4) for _ in range(n)) for _ in range(gen.randint(1, 6))]
        gens = [g for g in gens if sum(g)]
        if trial % 2:
            gens += [tuple(gen.randint(2, 4) * (k == i) for k in range(n)) for i in range(n)]
        yield MonomialIdeal(n, gens), p
    for n in (0, 2, 5):
        yield MonomialIdeal(n), 2
        yield MonomialIdeal(n, [(0,) * n]), P
    for pure in (0, 3):
        gens = [tuple(gen.randrange(2) for _ in range(5)) for _ in range(4)]
        gens += [tuple(pure * (k == i) for k in range(5)) for i in range(5) if pure]
        yield MonomialIdeal(5, [g for g in gens if sum(g)]), 3
    yield MonomialIdeal(2, [(9, 0), (1, 1), (0, 9)]), P
    yield MonomialIdeal(3, [(9, 0, 0), (0, 9, 0), (0, 0, 9), (1, 1, 0), (0, 2, 1)]), 2


# the facets of the 6-vertex RP^2: H~_1 = Z/2 shows only mod 2
RP2_FACETS = {frozenset(int(v) - 1 for v in f) for f in
              ("124", "126", "135", "136", "145", "234", "235", "256", "346", "456")}


def rp2_stanley_reisner_ideal():
    """Stanley-Reisner ideal of the 6-vertex RP^2."""
    return MonomialIdeal(6, [
        tuple(int(k in t) for k in range(6)) for t in itertools.combinations(range(6), 3)
        if frozenset(t) not in RP2_FACETS
    ])


# --- Koszul Betti numbers -------------------------------------------------------

def test_regular_sequence_betti():
    table = koszul_betti(MonomialIdeal(2, [(1, 0), (0, 1)]), 4)
    assert table.as_dict() == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_square_of_maximal_ideal():
    # resolution 0 -> A(-3)^2 -> A(-2)^3 -> A
    table = koszul_betti(MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)]), 4)
    assert table.as_dict() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_zero_ideal_betti():
    assert koszul_betti(MonomialIdeal(3), 4).as_dict() == {(0, 0): 1}


def test_triangle_edges_betti():
    table = koszul_betti(MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]), 5)
    assert table.as_dict() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_general_ideal_betti_via_normal_forms():
    ideal = Ideal(2, [parse_poly("x1^2 + x1*x2", 2, P)], P)
    table = koszul_betti(ideal, 5)
    # principal degree-2 hypersurface: 0 -> A(-2) -> A
    assert table.as_dict() == {(0, 0): 1, (1, 2): 1}


def test_general_ideal_rejects_non_prime_characteristic():
    ideal = Ideal(2, [parse_poly("x1^2 + x1*x2", 2, P)], P)
    with pytest.raises(InvalidInputError, match="not prime"):
        koszul_betti(ideal, 4, p=4)


def test_general_ideal_rejects_other_characteristic():
    ideal = Ideal(2, [parse_poly("x1^2 + x1*x2", 2, P)], P)
    with pytest.raises(InvalidInputError, match="characteristic 32003"):
        koszul_betti(ideal, 4, p=7)
    over_7 = Ideal(2, [parse_poly("x1^2 + x1*x2", 2, 7)], 7)
    with pytest.raises(InvalidInputError):
        koszul_betti(over_7, 4)
    assert koszul_betti(over_7, 4, 7).as_dict() == {(0, 0): 1, (1, 2): 1}


def test_betti_invariance_under_distraction(rng):
    for _ in range(5):
        n = rng.choice([2, 3])
        gens = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        ideal = MonomialIdeal(n, [g for g in gens if sum(g)])
        d = random_distraction(rng, n, P, columns=4)
        left = koszul_betti(ideal, 5, P).as_dict()
        right = koszul_betti(distract_ideal(d, ideal), 5, P).as_dict()
        assert left == right


def test_normal_form_table_matches_normal_form():
    # every standard monomial times every variable, against brute-force
    # division: groebner.normal_form shares the kernel under test
    gen = random.Random(808)
    cases = []
    for n in (2, 3, 4, 5):
        for p in (2, 3, P):
            for _ in range(3):
                gens = [tuple(gen.randrange(3) for _ in range(n)) for _ in range(gen.randint(3, 6))]
                ideal = MonomialIdeal(n, [g for g in gens if sum(g)])
                dmax = 6 if n < 4 else 5
                cases.append((distract_ideal(random_distraction(gen, n, p, columns=4), ideal), dmax))
    # the products reach degree 70, far above the basis: an exponent of 70
    # needs a wider field than the basis degree alone gives
    cases.append((Ideal(2, [parse_poly("x1 - 3*x2", 2, P)], P), 70))
    checked = reduced = 0
    for j, top in cases:
        n, p = j.n, j.p
        basis = [(g.leading(groebner.DEGREVLEX)[0], g.terms) for g in j.groebner_basis()]
        std = [sorted((e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d
                       and not any(brute_divides(lead, e) for lead, _ in basis)), reverse=True)
               for d in range(top + 1)]
        got, images = groebner._variable_action(j, top)
        assert got == std
        assert len(images) == top
        for d in range(top):
            for b, s in enumerate(std[d]):
                for k in range(n):
                    target = s[:k] + (s[k] + 1,) + s[k + 1:]
                    nf = brute_normal_form({target: 1}, basis, p, groebner.DEGREVLEX.key)
                    assert {std[d + 1][t]: c for t, c in images[d][b][k]} == nf
                    checked += 1
                    reduced += nf != {target: 1}
    assert checked > 5000 and reduced > 800, (checked, reduced)


def test_strands_build_at_eight_variables():
    # the strand route at eight variables, whose packed monomials hold
    # nine fields (eight exponents and the degree)
    gens = [(2, 0, 0, 0, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0, 0, 0), (1, 0, 1, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 2, 1, 0, 0), (0, 0, 0, 0, 0, 0, 1, 2), (0, 1, 0, 0, 1, 0, 0, 1),
            (0, 0, 2, 0, 0, 0, 1, 0)]
    ideal = MonomialIdeal(8, gens)
    d = random_distraction(random.Random(8), 8, 3, columns=4)
    assert koszul_betti(distract_ideal(d, ideal), 6, 3) == koszul_betti(ideal, 6, 3)


def test_initial_ideal_certificate_matches_strands():
    # koszul_betti on a general ideal trusts in(J)'s row j unless it has an
    # adjacent nonzero pair there; the full strands are the oracle
    cancelled = 0
    for p in (2, 3, P, LARGE_P):
        for n, dmax, samples in ((3, 6, 25), (4, 6, 8), (5, 5, 5)):
            pairs = list(_distraction_pairs(VerificationReport("certificate", {}), n, samples, 12345, dmax, p))
            for ideal, _, j in pairs:
                strands = homology._koszul_strands(j, range(dmax + 1))
                assert koszul_betti(j, dmax, p).as_dict() == strands, (ideal.gens, n, p)
                cancelled += koszul_betti(groebner.initial_ideal(j), dmax, p).as_dict() != strands
            if (n, p) == (3, P):
                pinned = pairs
    assert cancelled >= 4, cancelled
    # samples that really cancel (n 3, dmax 6, seed 12345 over 32003), with
    # the number of cancelled pairs in each degree
    for sample, cancels in ((1, {4: 2, 5: 1}), (24, {5: 1, 6: 1})):
        ideal, _, j = pinned[sample]
        initial = koszul_betti(groebner.initial_ideal(j), 6, P)
        general = koszul_betti(j, 6, P)
        assert general == koszul_betti(ideal, 6, P)
        for d in range(7):
            drop = sum(initial[i, d] - general[i, d] for i in range(4))
            assert drop == 2 * cancels.get(d, 0), (sample, d)


def test_monomial_kernel_matches_strands():
    # the upper-Koszul kernel against the strand route on the same ideal
    gen = random.Random(2024)
    for _ in range(150):
        n, dmax, p = gen.randint(1, 5), gen.randint(0, 7), gen.choice([2, 32003, LARGE_P, HUGE_P])
        gens = [tuple(gen.randrange(3) for _ in range(n)) for _ in range(gen.randint(1, 4))]
        ideal = MonomialIdeal(n, [g for g in gens if sum(g)])
        strands = homology._koszul_strands(Ideal.from_monomial_ideal(ideal, p), range(dmax + 1))
        assert koszul_betti(ideal, dmax, p).as_dict() == strands, (ideal.gens, dmax, p)
    edges = [MonomialIdeal(3, [(0, 0, 0)]), MonomialIdeal(3), MonomialIdeal(0), MonomialIdeal(0, [()])]
    for ideal in edges:
        for dmax in (-1, 0, 3):
            strands = homology._koszul_strands(Ideal.from_monomial_ideal(ideal, P), range(dmax + 1))
            assert koszul_betti(ideal, dmax, P).as_dict() == strands, (ideal.gens, dmax)
    assert koszul_betti(MonomialIdeal(3, [(1, 0, 0)]), -1).as_dict() == {}


def test_betti_numbers_depend_on_characteristic():
    ideal = rp2_stanley_reisner_ideal()
    odd = {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
    for p, expected in ((2, {**odd, (3, 6): 1, (4, 6): 1}), (3, odd), (32003, odd)):
        assert koszul_betti(ideal, 6, p).as_dict() == expected
        assert taylor_betti_oracle(ideal, 6, p).as_dict() == expected
        if p in (2, 3):  # the strand route, where -1 = 1 at p = 2
            general = Ideal.from_monomial_ideal(ideal, p)
            assert homology._koszul_strands(general, range(7)) == expected


def test_homology_memo_is_keyed_by_characteristic():
    # the memo lives for the whole process: a key without p would hand the
    # p = 2 answers back at p = 3
    ideal = rp2_stanley_reisner_ideal()
    homology._homology.cache_clear()
    window = (-2, 2)
    tables = {}
    for p in (2, 3, 2):
        betti = koszul_betti(ideal, 6, p).as_dict()
        assert betti == taylor_betti_oracle(ideal, 6, p).as_dict()
        table = local_coh_monomial(ideal, window=window, p=p)
        assert table.to_json() == brute_local_coh(ideal.gens, 6, window, p)
        coh = table.as_dict()
        tables.setdefault(p, (betti, coh))
        assert tables[p] == (betti, coh)
    # H^i_m(A/I)_0 = dim H~_{i-1}(RP^2): the two primes must differ there
    assert tables[2][1][2, 0] == tables[2][1][3, 0] == 1
    assert (2, 0) not in tables[3][1] and (3, 0) not in tables[3][1]
    assert tables[2][0] != tables[3][0]


def test_koszul_kernel_matches_taylor_oracle():
    for ideal, p in seeded_monomial_ideals():
        assert koszul_betti(ideal, 8, p).as_dict() == \
            taylor_betti_oracle(ideal, 8, p).as_dict(), (ideal.gens, p)


def test_koszul_tables_stop_at_dmax():
    # the per-coordinate bitset tables reach dmax + 1, not the largest
    # exponent, since no lattice point above dmax is read
    ideal = MonomialIdeal(3, [(10 ** 6, 0, 0), (0, 3, 0)])
    tracemalloc.start()
    try:
        table = koszul_betti(ideal, 3).as_dict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table == {(0, 0): 1, (1, 3): 1}
    assert peak < 1 << 20, peak


# --- Taylor oracle ---------------------------------------------------------------

def test_taylor_principal():
    table = taylor_betti_oracle(MonomialIdeal(2, [(1, 2)]), 5)
    assert table.as_dict() == {(0, 0): 1, (1, 3): 1}


def test_taylor_against_koszul_examples():
    for gens in ([(2, 0), (1, 1), (0, 2)], [(2, 0), (0, 3)], [(3, 0), (1, 1)]):
        ideal = MonomialIdeal(2, gens)
        assert taylor_betti_oracle(ideal, 6).as_dict() == koszul_betti(ideal, 6).as_dict()
    tri = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert taylor_betti_oracle(tri, 5).as_dict() == koszul_betti(tri, 5).as_dict()


def test_taylor_unit_ideal():
    assert taylor_betti_oracle(MonomialIdeal(2, [(0, 0)]), 3).as_dict() == {}


def test_euler_characteristic_matches_series_numerator(rng):
    # alternating Betti sums give the numerator of the Hilbert series
    for _ in range(5):
        gens = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(rng.randint(1, 4))]
        ideal = MonomialIdeal(3, [g for g in gens if sum(g)])
        dmax = 7
        table = koszul_betti(ideal, dmax)
        numerator = series_transform(hilbert_function(ideal, dmax), 3)
        for j in range(dmax + 1):
            alt = sum((-1) ** i * table[i, j] for i in range(4))
            assert alt == numerator[j]


# --- simplicial homology ----------------------------------------------------------

def reduced_homology(facets, p=P):
    """{k: dim H~_k}, nonzero dims only, of the complex with these facets
    (vertex sets), from the kernel shared by Betti numbers and local
    cohomology."""
    masks = frozenset(sum(1 << v for v in f) for f in facets)
    return dict(homology._homology(masks, p))


def test_hollow_triangle():
    h = reduced_homology([{0, 1}, {1, 2}, {0, 2}])
    assert h.get(1) == 1
    assert h.get(0, 0) == 0


def test_point_and_pair():
    assert reduced_homology([{0}]) == {}
    assert reduced_homology([{0}, {1}]) == {0: 1}


def test_empty_face_only_complex():
    # the complex {emptyset}: only the empty face, so H~_{-1} = 1
    assert reduced_homology([set()]) == {-1: 1}


def test_void_complex():
    # no faces at all, not even the empty one
    assert reduced_homology([]) == {}


def test_facets_form_antichain():
    # non-maximal facets add no faces: the complex is that of the antichain
    assert reduced_homology([{0, 1}, {0}, {2}]) == reduced_homology([{0, 1}, {2}]) == {0: 1}


def brute_facet_homology(masks, p):
    """brute_reduced_homology of every subset of every facet bitmask."""
    faces = set()
    for mask in masks:
        facet = [v for v in range(mask.bit_length()) if mask >> v & 1]
        for k in range(len(facet) + 1):
            faces.update(itertools.combinations(facet, k))
    return brute_reduced_homology(faces, p)


def random_facet_sets():
    """Seeded facet bitmasks on at most 7 vertices, non-maximal ones included."""
    gen = random.Random(2012)
    for _ in range(150):
        r = gen.randint(1, 7)
        yield frozenset(gen.randrange(1 << r) for _ in range(gen.randint(1, 7)))


def is_antichain(masks):
    return not any(f != g and f & g == f for f in masks for g in masks)


def antichains(vertices):
    """Every antichain of subsets of range(vertices), as tuples of bitmasks."""
    out = []

    def rec(mask, chosen):
        if mask == 1 << vertices:
            out.append(chosen)
            return
        rec(mask + 1, chosen)
        if all(mask & c != c and mask & c != mask for c in chosen):
            rec(mask + 1, chosen + (mask,))

    rec(0, ())
    return out


def test_complexes_on_five_vertices_have_characteristic_free_homology():
    # the smallest complex with torsion in its homology is the 6-vertex RP^2
    # (the tests above); on at most five vertices every field sees the same
    # reduced homology, so monomial tables in n <= 5 do not depend on p
    every = antichains(5)
    assert len(every) == 7581  # the Dedekind number M(5)
    for facets in random.Random(5).sample(every, 800):
        dims = [homology._reduced_homology(facets, p) for p in (2, 3, 5, 32003)]
        assert all(d == dims[0] for d in dims), facets


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_strong_core_keeps_homology(p):
    homology._homology.cache_clear()
    rp2 = frozenset(sum(1 << v for v in f) for f in RP2_FACETS)
    cone = frozenset(m | 1 << 6 for m in rp2)
    pinned = {rp2: {1: 1, 2: 1} if p == 2 else {}, cone: {},
              frozenset(): {}, frozenset({0}): {-1: 1}}
    for masks in [*pinned, *random_facet_sets()]:
        core = homology._strong_core(masks)
        assert is_antichain(core), masks
        expected = brute_facet_homology(masks, p)
        assert pinned.get(masks, expected) == expected
        assert brute_facet_homology(core, p) == expected, (masks, core)
        assert dict(homology._homology(masks, p)) == expected, (masks, core)


def brute_avoid_homology(r, masks, p):
    """brute_reduced_homology of the subsets of range(r) containing no mask."""
    faces = [tuple(t for t in range(r) if f >> t & 1) for f in range(1 << r)
             if not any(m & f == m for m in masks)]
    return brute_reduced_homology(faces, p)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_alexander_dual_gives_the_degree_complex_homology(p):
    # the complex of subsets of r vertices that contain no mask (a degree
    # complex) has dim H~_k = dim H~_{r-3-k} of its Alexander dual, whose
    # facets are the masks' complements; with no masks the complex is a
    # simplex, and with the empty mask it is void
    gen = random.Random(5)
    cases = [(r, masks) for r in range(1, 6) for masks in (frozenset(), frozenset({0}))]
    for _ in range(300):
        r = gen.randint(1, 5)
        cases.append((r, frozenset(gen.randrange(1 << r) for _ in range(gen.randint(1, 6)))))
    homology._homology.cache_clear()
    for r, masks in cases:
        dual = frozenset(((1 << r) - 1) ^ m for m in masks)
        shifted = {r - 3 - k: h for k, h in homology._homology(dual, p)}
        assert shifted == brute_avoid_homology(r, masks, p), (r, masks)


def test_strong_core_of_a_collapsible_complex_is_a_point(monkeypatch):
    # a path, a tree, a simplex and cones: each collapses to one vertex by
    # deleting dominated vertices one at a time, and a point needs no rank
    def forbidden(*args):
        raise AssertionError("rank_mod called on a complex whose core is a point")

    gen = random.Random(47)
    cones = [frozenset(gen.randrange(1, 1 << 6) | 1 << 6 for _ in range(gen.randint(1, 6)))
             for _ in range(30)]
    path = [{0, 1}, {1, 2}, {2, 3}, {3, 4}]
    tree = [{0, 1}, {1, 2}, {1, 3}, {3, 4}, {3, 5}, {5, 6}]
    complexes = [frozenset(sum(1 << v for v in f) for f in facets)
                 for facets in (path, tree, [{0, 1, 2, 3}], [{0}], [{0, 1, 2}, {2, 3}])]
    homology._homology.cache_clear()
    monkeypatch.setattr(homology, "rank_mod", forbidden)
    for masks in complexes + cones:
        core = homology._strong_core(masks)
        assert len(core) == 1 and next(iter(core)).bit_count() == 1, (masks, core)
        assert homology._homology(masks, 2) == ()


# --- local cohomology --------------------------------------------------------------

def test_local_coh_artinian_rows():
    for gens in ([(2, 0), (1, 1), (0, 3)], [(1, 0), (0, 1)], [(3, 0), (0, 2)]):
        ideal = MonomialIdeal(2, gens)
        table = local_coh_monomial(ideal, window=(0, 6))
        assert table.row(0) == hilbert_function(ideal, 6)
        assert all(table[i, j] == 0 for i in (1, 2) for j in range(0, 7))
        assert not table.window_truncated


def test_local_coh_line():
    # quotient by (x) is a polynomial ring in one variable
    table = local_coh_monomial(MonomialIdeal(2, [(1, 0)]), window=(-5, 3))
    assert table.row(1) == (1, 1, 1, 1, 1, 0, 0, 0, 0)
    assert table.row(0) == (0,) * 9
    assert table.unbounded_below == (1,)
    assert table.window_truncated


def test_local_coh_hypersurface():
    table = local_coh_monomial(MonomialIdeal(2, [(1, 1)]), window=(-5, 3))
    assert table.row(1) == (2, 2, 2, 2, 2, 1, 0, 0, 0)
    assert table.row(0) == (0,) * 9


def test_local_coh_default_window_spans_the_generator_degrees():
    # no window: degrees -s..s, where s sums the generators' degrees
    ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
    table = local_coh_monomial(ideal)
    assert table.window == (-4, 4)
    assert table == local_coh_monomial(ideal, window=(-4, 4))
    assert any(table.row(1))


def test_local_coh_polynomial_ring_top():
    table = local_coh_monomial(MonomialIdeal(3), window=(-6, 0))
    # H^n of the ambient ring: dimension C(-j-1, n-1) in degree j
    assert table.row(3) == (10, 6, 3, 1, 0, 0, 0)


def test_local_coh_h0_consistency(rng):
    for _ in range(6):
        gens = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(rng.randint(1, 4))]
        ideal = MonomialIdeal(3, [g for g in gens if sum(g)])
        dmax = 5
        table = local_coh_monomial(ideal, window=(0, dmax))
        h0 = groebner.h0_hilbert_function(ideal, dmax)
        assert table.row(0) == h0


def test_h0_with_no_variables():
    # with m = (0) the saturation is the unit ideal, so H^0 is all of A/I
    for gens, row in (((), (1, 0, 0, 0)), (((),), (0, 0, 0, 0))):
        ideal = MonomialIdeal(0, gens)
        assert local_coh_monomial(ideal, window=(0, 3)).row(0) == row
        assert groebner.h0_hilbert_function(ideal, 3) == row
        general = Ideal.from_monomial_ideal(ideal, P)
        assert groebner.h0_hilbert_function(general, 3) == row


def test_local_coh_matches_per_subset_route():
    edges = [(MonomialIdeal(n, gens), p) for n in range(4) for gens in ([], [(0,) * n])
             for p in (2, P)]
    for ideal, p in [*seeded_monomial_ideals(), *edges]:
        window = (-4, 6)
        table = local_coh_monomial(ideal, window=window, p=p)
        assert table.to_json() == brute_local_coh(ideal.gens, ideal.n, window, p), \
            (ideal.gens, p)


def test_unit_ideal_local_coh_makes_no_homology_call(monkeypatch):
    # every box of the unit ideal has x^b in I, so each degree complex is
    # void and is skipped before the memo
    def forbidden(*args):
        raise AssertionError("_homology called for the unit ideal")

    monkeypatch.setattr(homology, "_homology", forbidden)
    for n in range(4):
        table = local_coh_monomial(MonomialIdeal(n, [(0,) * n]), window=(-4, 6))
        assert table.entries == () and table.unbounded_below == (), n


def test_local_coh_respects_irange():
    table = local_coh_monomial(MonomialIdeal(2, [(1, 0)]), i_range=(0,), window=(-3, 1))
    assert all(i == 0 for (i, _), _ in table.entries)
