"""Typed input checks of the library API: each bad call raises
InvalidInputError itself, with its own message."""

import pytest

from lexdist import groebner, monomials
from lexdist.distraction import DistractionMatrix, apply_distraction, induce_bar, polarize
from lexdist.errors import InvalidInputError
from lexdist.groebner import Ideal, parse_poly
from lexdist.homology import koszul_betti
from lexdist.macaulay import macaulay_rep
from lexdist.monomials import MonomialIdeal
from lexdist.shakin import PiecewiseLexIdeal, base_ideal, glue_ideals, stable_lex_embedding

X1SQ = MonomialIdeal(2, [(2, 0)])
X1 = Ideal(2, [parse_poly("x1", 2)])

BAD_CALLS = {
    # id: (call, message)
    "glue-empty-family": (lambda: glue_ideals(X1SQ, [], 2), "empty family"),
    "glue-degree-above-dmax": (lambda: glue_ideals(X1SQ, [(3, X1SQ)], 2),
                               "family degrees must lie within 0..dmax"),
    "glue-negative-degree": (lambda: glue_ideals(X1SQ, [(-1, X1SQ)], 2),
                             "family degrees must lie within 0..dmax"),
    "glue-member-other-ring": (lambda: glue_ideals(X1SQ, [(1, MonomialIdeal(3, [(1, 0, 0)]))], 2),
                               "family member in wrong ambient ring"),
    "glue-member-without-base": (lambda: glue_ideals(X1SQ, [(1, MonomialIdeal(2, [(0, 1)]))], 2),
                                 "family member at degree 1 does not contain the base ideal"),
    "piece-n-not-index": (lambda: PiecewiseLexIdeal(2, [(1, MonomialIdeal(2, [(1, 0)]))]),
                          "piece declared in 1 variables but has n=2"),
    "base-of-non-ideal": (lambda: base_ideal(5), "expected an ideal, got int"),
    "embedding-across-rings": (lambda: stable_lex_embedding(X1SQ, MonomialIdeal(3, [(1, 0, 0)])),
                               "ambient mismatch"),
    "ideal-non-poly": (lambda: Ideal(2, ["x1"]), "generators must be Poly values"),
    "ideal-other-n": (lambda: Ideal(2, [parse_poly("x1", 3)]), "generator in wrong ring"),
    "ideal-other-p": (lambda: Ideal(2, [parse_poly("x1", 2, 7)]), "generator in wrong ring"),
    "saturate-index-high": (lambda: groebner.saturate_variable(X1, 2),
                            "variable index out of range"),
    "saturate-index-negative": (lambda: groebner.saturate_variable(X1, -1),
                                "variable index out of range"),
    "intersect-rings": (lambda: groebner.intersect(X1, Ideal(2, [parse_poly("x1", 2, 7)], 7)),
                        "intersection needs matching rings"),
    "contains-length": (lambda: X1SQ.contains((1,)), "monomial (1,) has wrong length for n=2"),
    "colon-length": (lambda: monomials.colon(X1SQ, (1,)), "colon: monomial length mismatch"),
    "monomial-intersect-rings": (lambda: monomials.intersect(X1SQ, MonomialIdeal(3)),
                                 "intersect: ambient mismatch"),
    "standard-negative-degree": (lambda: monomials.standard_monomials(X1SQ, -1),
                                 "degree must be nonnegative"),
    "slice-no-variables": (lambda: monomials.slice_last_variable(MonomialIdeal(0)),
                           "need at least one variable to slice"),
    "macaulay-rep-negative": (lambda: macaulay_rep(-1, 2), "need a >= 0 and d >= 1"),
    "distraction-monomial-length": (lambda: apply_distraction(DistractionMatrix.identity(2), (1,)),
                                    "monomial length mismatch"),
    "distraction-monomial-negative": (lambda: apply_distraction(DistractionMatrix.identity(2), (-1, 2)),
                                      "monomial exponents must be nonnegative"),
    "induce-bar-no-variables": (lambda: induce_bar(DistractionMatrix([])), "nothing to slice off"),
    "specialize-without-distraction": (lambda: polarize(X1SQ).specialize_to_distraction(),
                                       "no distraction was attached to this polarization"),
    "koszul-non-ideal": (lambda: koszul_betti("x1", 2), "expected MonomialIdeal or Ideal"),
}


@pytest.mark.parametrize("case", list(BAD_CALLS))
def test_bad_calls_raise_invalid_input_with_their_message(case):
    call, message = BAD_CALLS[case]
    with pytest.raises(InvalidInputError) as err:
        call()
    assert (type(err.value), str(err.value)) == (InvalidInputError, message)
