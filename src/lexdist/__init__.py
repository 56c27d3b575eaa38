"""Exact computer algebra for lex-embeddings, Shakin ideals and distractions.

Everything is computed over a prime field (default characteristic 32003,
standing in for characteristic zero) and all Hilbert-function statements
are truncated at an explicit degree bound.
"""

from .monomials import (
    MonomialIdeal,
    minimalize,
    colon,
    standard_monomials,
    hilbert_function,
    series_transform,
    slice_last_variable,
)
from .macaulay import (
    macaulay_rep,
    macaulay_bound,
    is_o_sequence,
    lex_segment,
    lex_ideal_for_hf,
)
from .shakin import (
    PiecewiseLexIdeal,
    ShakinIdeal,
    is_lex_segment,
    make_piecewise_lex,
    make_shakin,
    lex_embed,
    stable_lex_embedding,
    is_admissible_hf,
    glue_ideals,
)
from .groebner import DEFAULT_CHAR, Ideal, Poly
from .distraction import DistractionMatrix, distract_ideal, polarize
from .homology import (
    GradedBettiTable,
    LocalCohTable,
    koszul_betti,
    local_coh_monomial,
    taylor_betti_oracle,
)

__all__ = [
    "DEFAULT_CHAR",
    "Ideal",
    "Poly",
    "DistractionMatrix",
    "distract_ideal",
    "polarize",
    "GradedBettiTable",
    "LocalCohTable",
    "koszul_betti",
    "local_coh_monomial",
    "taylor_betti_oracle",
    "stable_lex_embedding",
    "MonomialIdeal",
    "minimalize",
    "colon",
    "standard_monomials",
    "hilbert_function",
    "series_transform",
    "slice_last_variable",
    "macaulay_rep",
    "macaulay_bound",
    "is_o_sequence",
    "lex_segment",
    "lex_ideal_for_hf",
    "PiecewiseLexIdeal",
    "ShakinIdeal",
    "is_lex_segment",
    "make_piecewise_lex",
    "make_shakin",
    "lex_embed",
    "is_admissible_hf",
    "glue_ideals",
]
