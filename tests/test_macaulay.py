"""macaulay module: binomial representations, growth bounds, lex ideals."""

import pytest
from hypothesis import given, strategies as st

from lexdist import macaulay
from lexdist.errors import InternalContradictionError, InvalidInputError, NoLexIdealError
from lexdist.macaulay import (
    is_o_sequence,
    lex_ideal_for_hf,
    lex_segment,
    macaulay_bound,
    macaulay_rep,
)
from lexdist.monomials import MonomialIdeal, binom, hilbert_function
from lexdist.shakin import is_lex_segment

from conftest import brute_hilbert


def test_macaulay_rep_zero():
    assert macaulay_rep(0, 3) == []


def test_macaulay_rep_derived():
    # 5 = C(3,2) + C(2,1); 4 = C(3,2) + C(1,1)
    assert macaulay_rep(5, 2) == [(3, 2), (2, 1)]
    assert macaulay_rep(4, 2) == [(3, 2), (1, 1)]


@given(st.integers(0, 400), st.integers(1, 5))
def test_macaulay_rep_reconstructs(a, d):
    rep = macaulay_rep(a, d)
    assert sum(binom(t, i) for t, i in rep) == a
    tops = [t for t, _ in rep]
    assert tops == sorted(tops, reverse=True) and len(set(tops)) == len(tops)
    idx = [i for _, i in rep]
    assert idx == sorted(idx, reverse=True)


def test_macaulay_rep_raises_a_typed_error_on_a_remainder(monkeypatch):
    # the greedy expansion always ends at 0; if it did not, the answer must
    # be a typed error that survives python -O, not an assert
    monkeypatch.setattr(macaulay, "binom", lambda a, b: 2 * binom(a, b))
    with pytest.raises(InternalContradictionError):
        macaulay_rep(1, 1)


def test_macaulay_bound_examples():
    assert macaulay_bound(0, 3) == 0
    assert macaulay_bound(3, 1) == 6  # 3=C(3,1] -> C(4,2)
    assert macaulay_bound(5, 2) == 7  # C(4,3)+C(3,2)


@given(st.integers(0, 120), st.integers(1, 4))
def test_macaulay_bound_monotone(a, d):
    assert macaulay_bound(a, d) <= macaulay_bound(a + 1, d)


def test_is_o_sequence():
    assert is_o_sequence((1, 3, 6), 3)
    assert not is_o_sequence((1, 2, 5), 2)  # bound(2,1)=3
    assert not is_o_sequence((1, 0, 1), 3)
    assert not is_o_sequence((2, 1), 3)
    assert not is_o_sequence((1, 4), 3)
    assert is_o_sequence((0, 0, 0), 3)
    assert not is_o_sequence((0, 1), 3)


def test_lex_segment_examples():
    assert lex_segment(2, 2, 2) == [(2, 0), (1, 1)]
    assert lex_segment(2, 2, 0) == []
    assert lex_segment(3, 1, 2) == [(1, 0, 0), (0, 1, 0)]
    with pytest.raises(InvalidInputError):
        lex_segment(2, 2, 4)


@given(st.integers(1, 4), st.integers(0, 4))
def test_lex_segments_form_prefix_chain(n, d):
    top = binom(d + n - 1, n - 1)
    for k in range(top):
        assert lex_segment(n, d, k) == lex_segment(n, d, k + 1)[:k]


def test_lex_ideal_for_full_ring():
    assert lex_ideal_for_hf(3, (1, 3, 6, 10)).is_zero


def test_lex_ideal_derived_example():
    ideal = lex_ideal_for_hf(2, (1, 2, 2, 0))
    assert set(ideal.gens) == {(2, 0), (1, 2), (0, 3)}
    assert hilbert_function(ideal, 3) == (1, 2, 2, 0)
    assert is_lex_segment(ideal)


def test_lex_ideal_with_no_variables():
    # A = K has the one monomial 1, in degree 0
    assert lex_ideal_for_hf(0, (1,)) == MonomialIdeal(0)
    assert lex_ideal_for_hf(0, (1, 0, 0)) == MonomialIdeal(0)
    assert lex_ideal_for_hf(0, (0,)) == MonomialIdeal(0, [()])
    assert lex_ideal_for_hf(0, (0, 0)) == MonomialIdeal(0, [()])
    with pytest.raises(NoLexIdealError) as err:
        lex_ideal_for_hf(0, (1, 1))
    assert err.value.degree == 1


def test_lex_ideal_error_names_degree():
    with pytest.raises(NoLexIdealError) as err:
        lex_ideal_for_hf(2, (1, 3, 0))
    assert err.value.degree == 1
    with pytest.raises(NoLexIdealError) as err:
        lex_ideal_for_hf(3, (1, 3, 7))
    assert err.value.degree == 2


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
             min_size=0, max_size=4),
)
def test_macaulay_round_trip_on_random_ideals(gens):
    # Macaulay's theorem at desk scale: every attainable Hilbert function
    # is attained by its lex ideal.
    ideal = MonomialIdeal(3, [g for g in gens if sum(g)])
    values = brute_hilbert(ideal.gens, 3, 5)
    lex = lex_ideal_for_hf(3, values)
    assert hilbert_function(lex, 5) == values
    assert is_lex_segment(lex)
