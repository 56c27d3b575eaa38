"""Piecewise-lex and Shakin ideals, the lex-embedding, and Hilbert-function gluing.

Ideals of a quotient ring R = A/a are always represented by their
pre-image in A containing a.  The lex-embedding sends the Hilbert function
H of a quotient R/I to the ideal whose degree-d piece is the monomials of
a plus the shortest descending-lex prefix reaching codimension H_d; on a
Shakin quotient this is an ideal for every attainable H.
"""

from __future__ import annotations

from itertools import zip_longest

from .errors import (
    ClosureError,
    InternalContradictionError,
    InvalidFamilyError,
    InvalidInputError,
    NotAdmissibleError,
    NotLexSegmentError,
)
from .monomials import (
    MonomialIdeal,
    degree_masks,
    degree_monomials,
    hilbert_function,
    hilbert_numerator,
    json_ints,
    json_object,
    mask_to_monomials,
    masks_to_ideal,
    shadow_mask,
    values_from_numerator,
)


def is_lex_segment(ideal: MonomialIdeal) -> bool:
    """True iff every graded piece of the ideal is a descending-lex prefix."""
    dtop = ideal.max_degree() + 1
    for d, mask in enumerate(degree_masks(ideal, dtop)):
        if mask != (1 << mask.bit_count()) - 1:
            return False
    return True


class PiecewiseLexIdeal:
    """A sum of extensions of lex-segment ideals of the subrings K[x1..xi]."""

    __slots__ = ("n", "pieces", "total")

    def __init__(self, n: int, pieces):
        self.n = int(n)
        norm = []
        gens = []
        for i, piece in pieces:
            if not 1 <= i <= self.n:
                raise InvalidInputError(f"piece index {i} out of range 1..{self.n}")
            if piece.n != i:
                raise InvalidInputError(f"piece declared in {i} variables but has n={piece.n}")
            if not is_lex_segment(piece):
                raise NotLexSegmentError(i)
            norm.append((i, piece))
            gens.extend(g + (0,) * (self.n - i) for g in piece.gens)
        self.pieces = tuple(norm)
        self.total = MonomialIdeal(self.n, gens)

    def __repr__(self):
        return f"PiecewiseLexIdeal(n={self.n}, total={self.total!r})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "pieces": [{"i": i, "gens": [list(g) for g in p.gens]} for i, p in self.pieces],
        }


def make_piecewise_lex(n: int, pieces) -> PiecewiseLexIdeal:
    """Validate piece-by-piece lex-segment data; pieces are (i, ideal in i vars)."""
    return PiecewiseLexIdeal(n, pieces)


class ShakinIdeal:
    """A piecewise-lex ideal plus pure powers x_1^{d_1},...,x_r^{d_r}, d_i nondecreasing."""

    __slots__ = ("n", "lex_part", "power_degrees", "total")

    def __init__(self, lex_part: PiecewiseLexIdeal, power_degrees=()):
        self.lex_part = lex_part
        self.n = lex_part.n
        self.power_degrees = tuple(int(d) for d in power_degrees)
        if len(self.power_degrees) > self.n:
            raise InvalidInputError("more pure powers than variables")
        if any(d < 1 for d in self.power_degrees):
            raise InvalidInputError("pure power degrees must be positive")
        if any(a > b for a, b in zip(self.power_degrees, self.power_degrees[1:])):
            raise InvalidInputError("pure power degrees must be nondecreasing")
        gens = list(lex_part.total.gens)
        for i, d in enumerate(self.power_degrees):
            e = [0] * self.n
            e[i] = d
            gens.append(tuple(e))
        self.total = MonomialIdeal(self.n, gens)

    @property
    def has_pure_powers(self) -> bool:
        return bool(self.power_degrees)

    def __repr__(self):
        return f"ShakinIdeal(n={self.n}, powers={self.power_degrees}, total={self.total!r})"

    def to_json(self) -> dict:
        data = self.lex_part.to_json()
        data["powers"] = list(self.power_degrees)
        return data

    @classmethod
    def from_json(cls, data) -> "ShakinIdeal":
        json_object(data, "a Shakin ideal")
        try:
            pieces = []
            for p in data.get("pieces", []):
                i = json_ints([p["i"]], "i")[0]
                gens = [json_ints(g, "exponents") for g in p["gens"]]
                pieces.append((i, MonomialIdeal(i, gens)))
            lex_part = make_piecewise_lex(json_ints([data["n"]], "n")[0], pieces)
            return cls(lex_part, json_ints(data.get("powers", []), "powers"))
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"bad Shakin ideal JSON: {exc}") from exc


def make_shakin(lex_part: PiecewiseLexIdeal, power_degrees=()) -> ShakinIdeal:
    return ShakinIdeal(lex_part, power_degrees)


def base_ideal(a) -> MonomialIdeal:
    """The total monomial ideal of a Shakin/piecewise-lex value (or a raw ideal)."""
    if isinstance(a, (ShakinIdeal, PiecewiseLexIdeal)):
        return a.total
    if isinstance(a, MonomialIdeal):
        return a
    raise InvalidInputError(f"expected an ideal, got {type(a).__name__}")


def embedded_masks(base: MonomialIdeal, values, dmax: int):
    """Graded pieces (as bitmasks) of the embedded ideal for quotient HF values.

    Raises NotAdmissibleError when a degree cannot reach the requested
    codimension, ClosureError when the degreewise spans fail to multiply
    into each other (never silently repaired: on a Shakin base the latter
    contradicts attainability of the Hilbert function).  Raises
    InvalidInputError for dmax < 0: no ideal cut off there contains the
    base.
    """
    n = base.n
    values = tuple(values)
    if dmax < 0:
        raise InvalidInputError("dmax must be nonnegative")
    if len(values) < dmax + 1:
        raise InvalidInputError("Hilbert function shorter than dmax+1")
    amasks = degree_masks(base, dmax)
    masks = []
    for d in range(dmax + 1):
        total = len(degree_monomials(n, d))
        target = total - values[d]
        mask = amasks[d]
        have = mask.bit_count()
        if target < have or target > total or values[d] < 0:
            raise NotAdmissibleError(
                d, f"degree {d}: requested codimension {target}, base already has {have}"
            )
        pos = 0
        while have < target:
            if not mask >> pos & 1:
                have += 1
            pos += 1
        mask |= (1 << pos) - 1
        masks.append(mask)
    for d in range(dmax):
        stray = shadow_mask(n, d, masks[d]) & ~masks[d + 1]
        if stray:
            witness = mask_to_monomials(n, d + 1, stray & -stray)[0]
            raise ClosureError(d + 1, witness)
    return masks


def lex_embed(a, values, dmax: int | None = None) -> MonomialIdeal:
    """Pre-image in A of the lex-embedding of the quotient Hilbert function values.

    a is a ShakinIdeal (or any monomial ideal, at the caller's risk); values
    is the Hilbert function of R/I for R = A/a, truncated at dmax.
    """
    values = tuple(values)
    if dmax is None:
        dmax = len(values) - 1
    base = base_ideal(a)
    return masks_to_ideal(base.n, embedded_masks(base, values, dmax))


def stable_lex_embedding(a, ideal: MonomialIdeal) -> MonomialIdeal:
    """The full lex-embedding of an actual ideal, with all of its generators.

    Degreewise truncation can miss generators the embedded ideal acquires
    above the cutoff, which matters for invariants that look upward
    (saturation, local cohomology).  Starting from the largest generator
    degree, this embeds the Hilbert function up to a cutoff and compares
    Hilbert-series numerators.  Equal numerators mean equal Hilbert
    functions in every degree, so the candidate is the embedding; otherwise
    their lowest differing coefficient is the first degree where the
    Hilbert functions differ, and that degree is the next cutoff.
    """
    base = base_ideal(a)
    if ideal.n != base.n:
        raise InvalidInputError("ambient mismatch")
    return _embed_series(base, ideal, hilbert_numerator(ideal))


def _embed_series(base: MonomialIdeal, ideal: MonomialIdeal, target) -> MonomialIdeal:
    """stable_lex_embedding of an ideal whose series numerator target is known."""
    cutoff = max(ideal.max_degree(), base.max_degree(), 1)
    while True:
        candidate = lex_embed(base, values_from_numerator(target, ideal.n, cutoff), cutoff)
        got = hilbert_numerator(candidate)
        if got == target:
            return candidate
        pairs = zip_longest(got, target, fillvalue=0)
        cutoff = next(d for d, (x, y) in enumerate(pairs) if x != y)


def is_admissible_hf(a, values, dmax: int | None = None) -> bool:
    """Whether the lex-embedding construction succeeds for values over a."""
    try:
        lex_embed(a, values, dmax)
    except NotAdmissibleError:
        return False
    return True


def glue_ideals(a, family, dmax: int) -> MonomialIdeal:
    """Glue embedded degree slices of a family of ideals into one ideal.

    family lists pairs (d, I_d) for consecutive degrees d; each I_d is an
    ideal of R = A/a given by its pre-image containing a.  Consecutive
    members must have quotient Hilbert functions agreeing in degree d+1;
    the result agrees with the embedding of I_d in degree d for every
    family member.
    """
    base = base_ideal(a)
    n = base.n
    fam = sorted((int(d), ideal) for d, ideal in family)
    if not fam:
        raise InvalidInputError("empty family")
    degs = [d for d, _ in fam]
    if any(b - a_ != 1 for a_, b in zip(degs, degs[1:])):
        raise InvalidInputError(f"family degrees {degs} must be consecutive")
    if degs[0] < 0 or degs[-1] > dmax:
        raise InvalidInputError("family degrees must lie within 0..dmax")
    hfs = {}
    for d, ideal in fam:
        if ideal.n != n:
            raise InvalidInputError("family member in wrong ambient ring")
        if not all(ideal.contains(g) for g in base.gens):
            raise InvalidInputError(f"family member at degree {d} does not contain the base ideal")
        hfs[d] = hilbert_function(ideal, min(d + 1, dmax))
    for d in degs[:-1]:
        if d + 1 <= dmax and hfs[d][d + 1] != hfs[d + 1][d + 1]:
            raise InvalidFamilyError(d + 1)

    masks = degree_masks(base, dmax)
    glued = list(masks)
    for d, _ideal in fam:
        h = hfs[d][d]
        glued[d] = embedded_masks(base, hfs[d][: d + 1], d)[d]
        if len(degree_monomials(n, d)) - glued[d].bit_count() != h:
            raise InternalContradictionError(
                f"embedded degree-{d} piece misses its Hilbert value {h}")
    # propagate and check closure; inside the family this is the gluing lemma
    for d in range(dmax):
        grown = shadow_mask(n, d, glued[d])
        if d + 1 in hfs:
            if grown & ~glued[d + 1]:
                raise InternalContradictionError(
                    f"gluing failed closure into degree {d + 1}; this contradicts "
                    "degreewise uniqueness of embedded pieces"
                )
        else:
            glued[d + 1] |= grown
    return masks_to_ideal(n, glued)
