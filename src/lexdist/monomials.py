"""Monomials, monomial orders, monomial ideals and their Hilbert functions.

Monomials are exponent tuples of fixed length n.  Degree-d monomials are
always enumerated in descending lexicographic order (x1 > x2 > ... > xn),
so lex segments are prefixes of the canonical enumeration; most graded
computations run on bitmasks over that enumeration.  Ideals rebuilt from
such graded bitmasks (masks_to_ideal) are canonical by construction and
skip minimalisation.  Hilbert functions are read off the Hilbert-series
numerator, whose recursion memoises the colon sub-ideals it meets by their
minimal generators (never the ideal asked for); those colon generators are
valid by construction and go straight to the antichain routine.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache, reduce

from .errors import InvalidInputError

Monomial = tuple  # exponent vector, length = ambient variable count


def binom(a: int, b: int) -> int:
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def divides(a, b) -> bool:
    """True iff x^a divides x^b."""
    return all(map(operator.le, a, b))


def mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def lcm(a, b):
    return tuple(map(max, a, b))


def variable(n, i):
    """The monomial x_{i+1} in n variables (0-based index i)."""
    e = [0] * n
    e[i] = 1
    return tuple(e)


# ---------------------------------------------------------------------------
# canonical degree-d enumeration and bitmask tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def degree_monomials(n: int, d: int):
    """All degree-d monomials in n variables, descending lex."""
    if n == 0:
        return ((),) if d == 0 else ()
    out = []

    def rec(prefix, rest, k):
        if k == 1:
            out.append(prefix + (rest,))
            return
        for e in range(rest, -1, -1):
            rec(prefix + (e,), rest - e, k - 1)

    rec((), d, n)
    return tuple(out)


@lru_cache(maxsize=None)
def degree_index(n: int, d: int):
    return {m: i for i, m in enumerate(degree_monomials(n, d))}


@lru_cache(maxsize=None)
def mult_table(n: int, d: int):
    """mult_table(n, d)[k][i] = index of x_{i+1} * m_k inside degree d+1."""
    idx = degree_index(n, d + 1)
    table = []
    for m in degree_monomials(n, d):
        table.append(tuple(idx[mul(m, variable(n, i))] for i in range(n)))
    return tuple(table)


@lru_cache(maxsize=None)
def shadow_table(n: int, d: int):
    """shadow_table(n, d)[k] = bitmask of the degree-(d+1) multiples of m_k."""
    table = []
    for row in mult_table(n, d):
        mask = 0
        for j in row:
            mask |= 1 << j
        table.append(mask)
    return tuple(table)


def shadow_mask(n: int, d: int, mask: int) -> int:
    """Bitmask of degree-(d+1) monomials divisible by some set bit of mask."""
    table = shadow_table(n, d)
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def mask_to_monomials(n: int, d: int, mask: int):
    monos = degree_monomials(n, d)
    return [monos[i] for i in range(len(monos)) if mask >> i & 1]


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

class MonomialOrder:
    """Total order on monomials given by a sortable key (bigger key = bigger)."""

    def key(self, exps):
        raise NotImplementedError


class LexOrder(MonomialOrder):
    def key(self, exps):
        return exps

    def __repr__(self):
        return "lex"


class DegRevLexOrder(MonomialOrder):
    def key(self, exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def __repr__(self):
        return "degrevlex"


# ---------------------------------------------------------------------------
# monomial ideals
# ---------------------------------------------------------------------------

def _antichain(gens):
    """The divisibility-minimal members of valid exponent tuples, in canonical
    order.  Sorting by degree first means a generator can only be divided by
    one already kept."""
    out = []
    for _, m in sorted({(sum(m), m) for m in gens}):
        for g in out:
            if all(map(operator.le, g, m)):
                break
        else:
            out.append(m)
    return tuple(out)


def _minimal_generators(gens, n):
    gens = list(map(tuple, gens))
    for m in gens:
        if len(m) != n or any(e < 0 for e in m):
            raise InvalidInputError(f"bad exponent vector {m} for n={n}")
    return _antichain(gens)


class MonomialIdeal:
    """A monomial ideal, stored as its antichain of minimal generators.

    Canonical generator order is (degree, exponent tuple) ascending, so
    equality and hashing are structural.  The zero ideal has no generators;
    the unit ideal is generated by the unit monomial.
    """

    __slots__ = ("n", "gens", "_hash")

    def __init__(self, n, gens=()):
        self.n = int(n)
        if self.n < 0:
            raise InvalidInputError("variable count must be nonnegative")
        self.gens = _minimal_generators(gens, self.n)
        self._hash = hash((self.n, self.gens))

    @classmethod
    def _trusted(cls, n, gens):
        """The ideal whose minimal generators, in canonical order, are gens;
        nothing is checked."""
        ideal = object.__new__(cls)
        ideal.n = n
        ideal.gens = gens
        ideal._hash = hash((n, gens))
        return ideal

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, m) -> bool:
        if len(m) != self.n:
            raise InvalidInputError(f"monomial {m} has wrong length for n={self.n}")
        return any(divides(g, m) for g in self.gens)

    def __contains__(self, m):
        return self.contains(m)

    def max_degree(self) -> int:
        return max((sum(g) for g in self.gens), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self):
        return self._hash

    def __le__(self, other):
        """Ideal inclusion."""
        return all(other.contains(g) for g in self.gens)

    def __repr__(self):
        inside = ", ".join(format_monomial(g) for g in self.gens) or "0"
        return f"MonomialIdeal(n={self.n}; {inside})"

    def to_json(self) -> dict:
        return {"n": self.n, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json(cls, data) -> "MonomialIdeal":
        try:
            return cls(data["n"], [tuple(g) for g in data["gens"]])
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"bad monomial ideal JSON: {exc}") from exc


def minimalize(gens, n) -> MonomialIdeal:
    """The divisibility antichain generating the same ideal."""
    return MonomialIdeal(n, gens)


def colon(ideal: MonomialIdeal, m) -> MonomialIdeal:
    """The quotient ideal (I : m)."""
    if len(m) != ideal.n:
        raise InvalidInputError("colon: monomial length mismatch")
    return MonomialIdeal(
        ideal.n,
        [tuple(max(g - e, 0) for g, e in zip(gen, m)) for gen in ideal.gens],
    )


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection of two monomial ideals (pairwise lcms)."""
    if a.n != b.n:
        raise InvalidInputError("intersect: ambient mismatch")
    if not a.gens or not b.gens:
        return MonomialIdeal(a.n)
    return MonomialIdeal(a.n, [lcm(g, h) for g in a.gens for h in b.gens])


def saturate_variable(ideal: MonomialIdeal, i: int) -> MonomialIdeal:
    """(I : x_{i+1}^infinity) for a monomial ideal: strip coordinate i."""
    return MonomialIdeal(
        ideal.n,
        [g[:i] + (0,) + g[i + 1:] for g in ideal.gens],
    )


def saturate_maximal(ideal: MonomialIdeal) -> MonomialIdeal:
    """Saturation with respect to the maximal ideal: intersect the per-variable ones.

    With no variables m = (0), every element is m-torsion and the
    saturation is the unit ideal.
    """
    if ideal.n == 0:
        return MonomialIdeal(0, [()])
    parts = [saturate_variable(ideal, i) for i in range(ideal.n)]
    return reduce(intersect, parts)


def degree_masks(ideal: MonomialIdeal, dmax: int):
    """Bitmask of the degree-d monomials lying in the ideal, for d = 0..dmax."""
    n = ideal.n
    gens_by_degree = {}
    for g in ideal.gens:
        gens_by_degree.setdefault(sum(g), []).append(g)
    masks = []
    prev = 0
    for d in range(dmax + 1):
        mask = shadow_mask(n, d - 1, prev) if d > 0 else 0
        idx = degree_index(n, d)
        for g in gens_by_degree.get(d, ()):
            mask |= 1 << idx[g]
        masks.append(mask)
        prev = mask
    return masks


def masks_to_ideal(n: int, masks) -> MonomialIdeal:
    """Rebuild the ideal generated by the graded pieces given as bitmasks.

    The shadow of the ideal's degree-(d-1) piece (prev) holds every degree-d
    monomial that a lower-degree generator divides, so the rest of the
    degree-d mask are minimal generators.  Reversing the descending-lex
    enumeration lists them in canonical order, so the ideal is built
    without minimalising again.  The pieces need not be closed under
    multiplication: prev also takes in the shadow.
    """
    gens = []
    prev = 0
    for d, mask in enumerate(masks):
        below = shadow_mask(n, d - 1, prev) if d > 0 else 0
        gens.extend(reversed(mask_to_monomials(n, d, mask & ~below)))
        prev = mask | below
    return MonomialIdeal._trusted(n, tuple(gens))


def standard_monomials(ideal: MonomialIdeal, d: int):
    """Degree-d monomials outside the ideal, descending lex."""
    if d < 0:
        raise InvalidInputError("degree must be nonnegative")
    mask = degree_masks(ideal, d)[d]
    monos = degree_monomials(ideal.n, d)
    return [m for i, m in enumerate(monos) if not mask >> i & 1]


def _hilbert_by_masks(ideal: MonomialIdeal, dmax: int):
    """Hilbert function by counting graded pieces; the tests' oracle."""
    n = ideal.n
    return tuple(
        len(degree_monomials(n, d)) - mask.bit_count()
        for d, mask in enumerate(degree_masks(ideal, dmax))
    )


def hilbert_numerator(ideal: MonomialIdeal):
    """Numerator N(t) of the Hilbert series HS(A/I) = N(t) / (1-t)^n.

    Returned as a coefficient tuple, constant term first and trailing zeros
    dropped (the unit ideal gives ()).  Within one ring, equal numerators
    mean equal Hilbert functions in every degree, and the lowest index where
    two numerators differ is the lowest degree where the Hilbert functions
    do.  A generator coprime to all others splits off as a factor
    (1 - t^deg g); the rest are added one at a time by
    N(J + (m)) = N(J) - t^deg m * N(J : m) (Bayer-Stillman 1992, Bigatti
    1997), which recurses on colon ideals with fewer generators.  Those
    colon ideals go through the memo _numerator, keyed by their minimal
    generators; the ideal itself is never cached, so the memo holds only
    the few colon ideals that many ideals share.
    """
    return _pivot_numerator(ideal.gens)


@lru_cache(maxsize=1 << 12)  # colon sub-ideals; the exhaustive checkers see under a hundred
def _numerator(gens):
    """hilbert_numerator of the colon sub-ideal with these minimal generators."""
    return _pivot_numerator(gens)


def _pivot_numerator(gens):
    users = [len(column) - column.count(0) for column in zip(*gens)]
    coprime, tangled = [], []
    for g in gens:
        alone = all(u == 1 for u, e in zip(users, g) if e)
        (coprime if alone else tangled).append(g)
    num = [1]
    for j, m in enumerate(tangled):
        quotient = _antichain([tuple([a - b if a > b else 0 for a, b in zip(g, m)])
                               for g in tangled[:j]])
        num = _minus_shifted(num, _numerator(quotient), sum(m))
    for g in coprime:
        num = _minus_shifted(num, num, sum(g))
    while num and not num[-1]:
        num.pop()
    return tuple(num)


def _minus_shifted(a, b, shift):
    """Coefficients of a(t) - t^shift * b(t)."""
    out = list(a) + [0] * (shift + len(b) - len(a))
    for k, c in enumerate(b):
        out[shift + k] -= c
    return out


def _values_from_numerator(num, n, upto):
    padded = num[:upto + 1] + (0,) * (upto + 1 - len(num))
    return series_transform(padded, -n)


def hilbert_function(ideal: MonomialIdeal, dmax: int):
    """Hilbert function of A/I, degrees 0..dmax, as a tuple of dimensions.

    Read off the Hilbert-series numerator; monomial data is field
    independent.
    """
    if dmax < 0:
        raise InvalidInputError("dmax must be nonnegative")
    return _values_from_numerator(hilbert_numerator(ideal), ideal.n, dmax)


def hilbert_upto(ideal: MonomialIdeal, upto: int):
    """Quotient Hilbert function in degrees 0..upto, read off the numerator.

    Unlike hilbert_function, a negative upto gives the empty tuple.
    """
    return _values_from_numerator(hilbert_numerator(ideal), ideal.n, upto)


def series_transform(values, r: int):
    """Multiply a truncated series by (1-z)^r (r >= 0) or 1/(1-z)^|r| (r < 0)."""
    values = tuple(values)
    if r >= 0:
        return tuple(
            sum((-1) ** k * binom(r, k) * values[d - k] for k in range(0, min(r, d) + 1))
            for d in range(len(values))
        )
    out = list(values)
    for _ in range(-r):
        for d in range(1, len(out)):
            out[d] += out[d - 1]
    return tuple(out)


# ---------------------------------------------------------------------------
# last-variable slices
# ---------------------------------------------------------------------------

def slice_last_variable(ideal: MonomialIdeal):
    """Slices J_[0], ..., J_[E] of the ideal along its last variable.

    J_[d] is the image of (I : x_n^d) under x_n -> 0, an ideal in n-1
    variables; slices stabilize once d reaches the largest x_n exponent E
    among the generators.
    """
    n = ideal.n
    if n < 1:
        raise InvalidInputError("need at least one variable to slice")
    top = max((g[-1] for g in ideal.gens), default=0)
    slices = []
    for d in range(top + 1):
        gens = [g[:-1] for g in ideal.gens if g[-1] <= d]
        slices.append(MonomialIdeal(n - 1, gens))
    return slices


# ---------------------------------------------------------------------------
# text and JSON forms
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str, n: int):
    """Parse "x1^2*x3" (or "1") into an exponent tuple of length n."""
    text = text.strip().replace(" ", "")
    exps = [0] * n
    if text in ("1", ""):
        return tuple(exps)
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise InvalidInputError(f"bad monomial factor {factor!r}")
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise InvalidInputError(f"variable x{i} out of range for n={n}")
        exps[i - 1] += int(m.group(2) or 1)
    return tuple(exps)


def format_monomial(m) -> str:
    parts = [
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
        for i, e in enumerate(m)
        if e
    ]
    return "*".join(parts) if parts else "1"
