"""shakin module: piecewise-lex data, lex-embedding, gluing."""

import pytest

from lexdist import shakin as shakin_module
from lexdist.errors import (
    ClosureError,
    InternalContradictionError,
    InvalidFamilyError,
    InvalidInputError,
    NotAdmissibleError,
    NotLexSegmentError,
)
from lexdist.macaulay import lex_ideal_for_hf
from lexdist.monomials import MonomialIdeal, hilbert_function, hilbert_numerator, hilbert_upto
from lexdist.shakin import (
    ShakinIdeal,
    glue_ideals,
    is_admissible_hf,
    is_lex_segment,
    lex_embed,
    make_piecewise_lex,
    make_shakin,
    stable_lex_embedding,
)


def shakin(n, pieces=(), powers=()):
    pl = make_piecewise_lex(n, [(i, MonomialIdeal(i, gens)) for i, gens in pieces])
    return make_shakin(pl, powers)


# --- lex segment recognition --------------------------------------------------

def test_is_lex_segment_examples():
    assert is_lex_segment(MonomialIdeal(2, [(1, 0)]))
    assert not is_lex_segment(MonomialIdeal(2, [(0, 1)]))
    assert is_lex_segment(MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)]))
    assert is_lex_segment(MonomialIdeal(2))
    assert is_lex_segment(MonomialIdeal(2, [(0, 0)]))
    assert not is_lex_segment(MonomialIdeal(2, [(2, 0), (0, 2)]))


# --- constructors ---------------------------------------------------------------

def test_piecewise_lex_total():
    assert make_piecewise_lex(2, []).total.is_zero
    pl = make_piecewise_lex(3, [(1, MonomialIdeal(1, [(2,)]))])
    assert pl.total.gens == ((2, 0, 0),)


def test_piecewise_lex_rejects_non_lex_piece():
    with pytest.raises(NotLexSegmentError):
        make_piecewise_lex(2, [(2, MonomialIdeal(2, [(1, 1)]))])


def test_piecewise_lex_mixed_pieces():
    pl = make_piecewise_lex(
        3,
        [(1, MonomialIdeal(1, [(3,)])), (2, MonomialIdeal(2, [(2, 0), (1, 1)]))],
    )
    assert set(pl.total.gens) == {(2, 0, 0), (1, 1, 0)}


def test_make_shakin_examples():
    assert shakin(2, powers=(2, 2)).total.gens == ((0, 2), (2, 0))
    assert shakin(2, pieces=[(1, [(2,)])]).total.gens == ((2, 0),)
    with pytest.raises(InvalidInputError):
        shakin(2, powers=(3, 2))
    with pytest.raises(InvalidInputError):
        shakin(2, powers=(2, 2, 2))


def test_shakin_json_round_trip():
    a = shakin(3, pieces=[(1, [(2,)])], powers=(2, 3))
    back = ShakinIdeal.from_json(a.to_json())
    assert back.total == a.total
    assert back.power_degrees == a.power_degrees


# --- lex embedding ---------------------------------------------------------------

def test_embed_identity():
    a = shakin(2, powers=(2, 2))
    values = hilbert_function(a.total, 3)
    assert lex_embed(a, values) == a.total


def test_embed_derived_example():
    # base (x^2, y^2), target HF (1,1,0): embedded ideal (x, y^2)
    a = shakin(2, powers=(2, 2))
    embedded = lex_embed(a, (1, 1, 0))
    assert embedded.gens == ((1, 0), (0, 2))
    assert hilbert_function(embedded, 2) == (1, 1, 0)


def test_embed_rejects_overlarge_values():
    a = shakin(2, powers=(2, 2))
    with pytest.raises(NotAdmissibleError) as err:
        lex_embed(a, (1, 3, 0))
    assert err.value.degree == 1


def test_embed_rejects_a_negative_dmax():
    a = shakin(2, powers=(2, 2))
    for values, dmax in (((), None), ((1, 2), -1)):
        with pytest.raises(InvalidInputError, match="dmax must be nonnegative"):
            lex_embed(a, values, dmax)
    with pytest.raises(InvalidInputError, match="dmax must be nonnegative"):
        lex_ideal_for_hf(2, ())


def test_embed_closure_error_is_loud_and_precise():
    # (y^2) is not Macaulay-lex: the quotient HF of (y^2, xy) embeds to
    # spans that are not an ideal; the witness degree is reported.
    base = MonomialIdeal(2, [(0, 2)])
    witness = MonomialIdeal(2, [(0, 2), (1, 1)])
    values = hilbert_function(witness, 3)
    with pytest.raises(ClosureError) as err:
        lex_embed(base, values)
    assert err.value.degree == 3
    assert not is_admissible_hf(base, values)


def test_admissibility():
    a = shakin(2, powers=(2, 2))
    assert is_admissible_hf(a, hilbert_function(a.total, 3))
    assert not is_admissible_hf(a, (1, 3, 0))
    assert not is_admissible_hf(MonomialIdeal(2), (1, 2, 4))  # bound(2,1)=3


def test_embed_output_contains_base_and_matches_hf():
    a = shakin(3, pieces=[(1, [(2,)])], powers=(2, 3))
    for witness_gens in ([(2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 0)],
                         [(2, 0, 0), (0, 2, 0), (0, 0, 3), (0, 1, 2)]):
        witness = MonomialIdeal(3, witness_gens)
        values = hilbert_function(witness, 4)
        embedded = lex_embed(a, values, 4)
        assert all(embedded.contains(g) for g in a.total.gens)
        assert hilbert_function(embedded, 4) == values


def test_embed_monotone_on_nested_ideals():
    a = shakin(3, pieces=[(1, [(2,)])])
    small = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0)])
    large = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 1)])
    e_small = lex_embed(a, hilbert_function(small, 5), 5)
    e_large = lex_embed(a, hilbert_function(large, 5), 5)
    assert all(e_large.contains(g) for g in e_small.gens)


def test_embed_idempotent():
    a = shakin(3, pieces=[(1, [(2,)])])
    witness = MonomialIdeal(3, [(2, 0, 0), (1, 1, 1), (0, 3, 0)])
    values = hilbert_function(witness, 5)
    once = lex_embed(a, values, 5)
    twice = lex_embed(a, hilbert_function(once, 5), 5)
    assert once == twice


def test_degree_uniqueness_of_embedded_pieces():
    # equal HF value in a degree forces equal embedded piece in that degree
    from lexdist.monomials import degree_masks
    from lexdist.shakin import embedded_masks

    a = shakin(3, pieces=[(1, [(2,)])])
    i1 = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 0, 3)])
    i2 = MonomialIdeal(3, [(2, 0, 0), (0, 1, 2), (0, 2, 0)])
    h1 = hilbert_function(i1, 4)
    h2 = hilbert_function(i2, 4)
    m1 = embedded_masks(a.total, h1, 4)
    m2 = embedded_masks(a.total, h2, 4)
    for d in range(5):
        if h1[d] == h2[d]:
            assert m1[d] == m2[d]


def test_embedded_masks_are_a_new_list_each_call():
    from lexdist.shakin import embedded_masks

    a = shakin(3, pieces=[(1, [(2,)])])
    values = hilbert_function(MonomialIdeal(3, [(2, 0, 0), (1, 1, 0)]), 4)
    first = embedded_masks(a.total, values, 4)
    want = list(first)
    first[-1] = 0
    first.append(1)
    assert embedded_masks(a.total, values, 4) == want


def test_a_memoised_verdict_raises_a_new_error_each_time():
    from lexdist.shakin import embedded_masks

    base = MonomialIdeal(2, [(1, 0)])
    errors = []
    for _ in range(2):
        with pytest.raises(NotAdmissibleError) as err:
            embedded_masks(base, (1, 2), 1)
        errors.append(err.value)
    assert errors[0] is not errors[1]
    assert [(e.degree, str(e)) for e in errors] == [
        (1, "degree 1: requested codimension 0, base already has 1")] * 2


def test_a_memoised_closure_verdict_raises_a_new_error_each_time():
    # the closure verdict is memoised by (d, H_d, H_{d+1}); each call still
    # raises a ClosureError of its own with the same witness, and a value
    # that no piece reaches comes first, even in a higher degree
    from lexdist.shakin import embedded_masks

    base = MonomialIdeal(2, [(0, 2)])
    values = hilbert_function(MonomialIdeal(2, [(0, 2), (1, 1)]), 3)
    shakin_module._embedding_table.cache_clear()
    errors = []
    for _ in range(2):
        with pytest.raises(ClosureError) as err:
            embedded_masks(base, values, 3)
        errors.append(err.value)
    assert errors[0] is not errors[1]
    assert [(e.degree, e.witness, str(e)) for e in errors] == [
        (3, (2, 1), "embedded spans not an ideal: degree-3 witness (2, 1)")] * 2
    assert shakin_module._embedding_table(base).closures == {
        (0, 1, 2): None, (1, 2, 1): None, (2, 1, 1): (2, 1)}
    with pytest.raises(NotAdmissibleError) as err:
        embedded_masks(base, values + (-1,), 4)
    assert type(err.value) is NotAdmissibleError and err.value.degree == 4


def test_a_cutoff_that_does_not_advance_is_a_typed_error(monkeypatch):
    # a candidate has its target's HF up to its cutoff, so the next cutoff
    # lies above; a wrong numerator must give a typed error, not a loop
    # without end, and must not stay in the embedding table
    base = MonomialIdeal(2, [(1, 0)])
    target = hilbert_numerator(base)
    monkeypatch.setattr(shakin_module, "hilbert_numerator", lambda ideal: (2,))
    shakin_module._embedding_table.cache_clear()
    try:
        with pytest.raises(InternalContradictionError, match="cut off at degree 1"):
            shakin_module._embed_series(base, base.max_degree(), target)
    finally:
        shakin_module._embedding_table.cache_clear()


def test_stable_embedding_adds_late_generators():
    # the degree-3 truncation misses a degree-4 generator of the embedding
    a = shakin(3, pieces=[(1, [(2,)])])
    witness = MonomialIdeal(3, [(2, 0, 0), (1, 0, 2), (1, 2, 0)])
    truncated = lex_embed(a, hilbert_function(witness, 3), 3)
    full = stable_lex_embedding(a, witness)
    assert set(truncated.gens) < set(full.gens)
    assert (1, 0, 3) in full.gens
    horizon = 12
    assert hilbert_upto(full, horizon) == hilbert_upto(witness, horizon)


# --- gluing ------------------------------------------------------------------

def test_glue_constant_family_is_embedding():
    a = shakin(2, pieces=[(1, [(2,)])])
    witness = MonomialIdeal(2, [(2, 0), (1, 1)])
    family = [(d, witness) for d in range(5)]
    assert glue_ideals(a, family, 4) == lex_embed(a, hilbert_function(witness, 4), 4)


def test_glue_two_member_family():
    a = shakin(2, pieces=[(1, [(2,)])])
    one = MonomialIdeal(2, [(2, 0), (1, 1)])
    other = MonomialIdeal(2, [(2, 0), (1, 1), (0, 4)])  # same HF through degree 3
    glued = glue_ideals(a, [(2, one), (3, other)], 4)
    e1 = lex_embed(a, hilbert_function(one, 4), 4)
    assert hilbert_function(glued, 4)[2] == hilbert_function(one, 4)[2]
    assert hilbert_function(glued, 4)[3] == hilbert_function(other, 4)[3]
    from lexdist.monomials import degree_masks
    assert degree_masks(glued, 2)[2] == degree_masks(e1, 2)[2]


def test_glue_rejects_disagreeing_family():
    a = shakin(2, pieces=[(1, [(2,)])])
    one = MonomialIdeal(2, [(2, 0), (1, 1)])
    other = MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])  # differs already at 3
    with pytest.raises(InvalidFamilyError) as err:
        glue_ideals(a, [(2, one), (3, other)], 4)
    assert err.value.degree == 3


def test_embedding_and_gluing_with_no_variables():
    # A = K: one monomial in degree 0, none above
    zero, unit = MonomialIdeal(0), MonomialIdeal(0, [()])
    assert lex_embed(zero, (1, 0)) == zero
    assert lex_embed(zero, (0, 0)) == unit
    assert is_admissible_hf(zero, (1, 0, 0))
    assert not is_admissible_hf(zero, (2,))
    assert not is_admissible_hf(unit, (1,))
    assert glue_ideals(zero, [(0, zero), (1, zero)], 1) == zero
    assert glue_ideals(zero, [(0, unit)], 2) == unit


def test_glue_raises_typed_errors_on_broken_pieces(monkeypatch):
    # neither failure can happen with the real embedded_masks; if one did,
    # the answer must be a typed error that survives python -O
    base = MonomialIdeal(2)
    x1 = MonomialIdeal(2, [(1, 0)])
    monkeypatch.setattr(shakin_module, "embedded_masks",
                        lambda base, values, dmax: [0] * (dmax + 1))
    with pytest.raises(InternalContradictionError, match="Hilbert value"):
        glue_ideals(base, [(1, x1)], 2)
    # pieces of the right sizes, x2 in degree 1 and x1^2, x1*x2 in degree 2,
    # whose product x2^2 is missing
    pieces = {1: 0b10, 2: 0b011}
    monkeypatch.setattr(shakin_module, "embedded_masks",
                        lambda base, values, dmax: [0] * dmax + [pieces[dmax]])
    with pytest.raises(InternalContradictionError, match="closure"):
        glue_ideals(base, [(1, x1), (2, x1)], 2)


def test_glue_rejects_gapped_family():
    a = shakin(2, pieces=[(1, [(2,)])])
    one = MonomialIdeal(2, [(2, 0), (1, 1)])
    with pytest.raises(InvalidInputError):
        glue_ideals(a, [(1, one), (3, one)], 4)
