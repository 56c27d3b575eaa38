"""Macaulay binomial representations, growth bounds and lex-segment ideals.

The lex ideal of an O-sequence is the lex-embedding over the zero ideal
(Macaulay's theorem is the case a = 0 of the Shakin lex-embedding), so it
is built by shakin.lex_embed.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InternalContradictionError, InvalidInputError, NoLexIdealError
from .monomials import MonomialIdeal, binom, degree_monomials
from .shakin import lex_embed


def macaulay_rep(a: int, d: int):
    """The unique greedy binomial expansion of a in degree d.

    Returns pairs (a_i, i) with a = sum C(a_i, i), a_d > a_{d-1} > ... >= i.
    """
    if a < 0 or d < 1:
        raise InvalidInputError("need a >= 0 and d >= 1")
    rep = []
    rem = a
    i = d
    while rem > 0 and i >= 1:
        t = i
        while binom(t + 1, i) <= rem:
            t += 1
        rep.append((t, i))
        rem -= binom(t, i)
        i -= 1
    if rem:
        raise InternalContradictionError(f"greedy expansion of {a} in degree {d} left {rem}")
    return rep


# memoised: an O-sequence check asks for one bound per degree, and the
# values repeat across the Hilbert functions of one run
@lru_cache(maxsize=1 << 12)
def macaulay_bound(a: int, d: int) -> int:
    """a^<d>: the largest degree-(d+1) value Macaulay's theorem allows after a."""
    return sum(binom(t + 1, i + 1) for t, i in macaulay_rep(a, d))


def first_o_sequence_violation(values, n: int):
    """First degree at which values fails to be an O-sequence in n variables."""
    values = tuple(values)
    if not values:
        return None
    if values[0] > 1 or values[0] < 0:
        return 0
    if values[0] == 0:
        # the zero ring: everything must vanish
        for d, v in enumerate(values):
            if v != 0:
                return d
        return None
    if len(values) > 1 and not 0 <= values[1] <= n:
        return 1
    for d in range(1, len(values) - 1):
        if values[d + 1] < 0 or values[d + 1] > macaulay_bound(values[d], d):
            return d + 1
    return None


def is_o_sequence(values, n: int) -> bool:
    """Macaulay's growth criterion: H_0 <= 1, H_1 <= n and H_{d+1} <= H_d^<d>."""
    return first_o_sequence_violation(values, n) is None


def lex_segment(n: int, d: int, k: int):
    """The k lex-largest monomials of degree d in n variables."""
    monos = degree_monomials(n, d)
    if not 0 <= k <= len(monos):
        raise InvalidInputError(f"segment size {k} out of range 0..{len(monos)}")
    return list(monos[:k])


def lex_ideal_for_hf(n: int, values) -> MonomialIdeal:
    """The lex-segment ideal whose quotient Hilbert function matches values.

    values is read as the Hilbert function of A/L up to dmax = len(values)-1;
    generators of degree <= dmax are produced and agreement is guaranteed up
    to dmax (beyond that the ideal continues by its own growth).  This is
    the lex-embedding of values over the zero ideal; by Macaulay's theorem
    it exists for every O-sequence.
    """
    values = tuple(values)
    bad = first_o_sequence_violation(values, n)
    if bad is not None:
        raise NoLexIdealError(bad)
    return lex_embed(MonomialIdeal(n), values)
