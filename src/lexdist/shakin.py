"""Piecewise-lex and Shakin ideals, the lex-embedding, and Hilbert-function gluing.

Ideals of a quotient ring R = A/a are always represented by their
pre-image in A containing a.  The lex-embedding sends the Hilbert function
H of a quotient R/I to the ideal whose degree-d piece is the monomials of
a plus the shortest descending-lex prefix reaching codimension H_d; on a
Shakin quotient this is an ideal for every attainable H.  The degree-d
piece thus depends only on (d, H_d), and one _embedding_table per base
memoises it, together with whether the pieces of (d, H_d) and
(d + 1, H_{d+1}) close under multiplication, and the Hilbert-series
numerator of each tail, the ideal of a (degree, piece) pair and the base
generators above it.  Off
those numerators the stable embedding tests its cutoffs and the
exhaustive checkers key their ideals' series.  Every route to an
embedding (embedded_masks, lex_embed, stable_lex_embedding, glue_ideals,
macaulay.lex_ideal_for_hf and the checkers) reads that table.
"""

from __future__ import annotations

from functools import lru_cache
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
    _plus_generator,
    _trimmed,
    degree_masks,
    degree_monomials,
    hilbert_function,
    hilbert_numerator,
    json_ints,
    json_object,
    mask_to_monomials,
    masks_to_ideal,
    numerator_off_tail,
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


class _EmbeddingTable:
    """The lex-embedding over one base, memoised by degree and Hilbert value.

    pieces maps (d, H_d) to the embedded degree-d piece (a bitmask over
    degree_monomials), or to the message of its NotAdmissibleError; only
    values 0 <= H_d <= dim S_d are kept, so it holds at most dim S_d + 1
    entries per degree.  closures maps (d, H_d, H_{d+1}), for two pieces
    that exist, to the witness of the ClosureError into degree d + 1, or
    to None.  tails maps a degree c to {piece: the numerator that tail(c,
    piece) returns}, for every piece it has met.
    """

    __slots__ = ("base", "base_masks", "pieces", "closures", "tails")

    def __init__(self, base: MonomialIdeal):
        self.base = base
        self.base_masks = []
        self.pieces = {}
        self.closures = {}
        self.tails = {}

    def piece(self, d: int, h: int) -> int:
        got = self.pieces.get((d, h))
        if got is None:
            n = self.base.n
            total = len(degree_monomials(n, d))
            if d >= len(self.base_masks):
                self.base_masks = degree_masks(self.base, d)
            mask = self.base_masks[d]
            have = mask.bit_count()
            target = total - h
            if target < have or h < 0:
                got = f"degree {d}: requested codimension {target}, base already has {have}"
            else:
                pos = 0
                while have < target:
                    if not mask >> pos & 1:
                        have += 1
                    pos += 1
                got = mask | (1 << pos) - 1
            if 0 <= h <= total:
                self.pieces[d, h] = got
        if type(got) is str:
            raise NotAdmissibleError(d, got)
        return got

    def tail(self, c: int, piece: int):
        """N(J), the Hilbert-series numerator of the tail J generated by a
        degree-c piece (a bitmask) and the base generators above c.

        An ideal over the base with that piece in degree c and no
        generators above c but the base's agrees with J from degree c on,
        so N(J) and its HF up to c give its numerator
        (monomials.numerator_off_tail).  A superideal's tail is (dmax, last
        piece), and a lex target's is (cutoff, piece there), with no base
        generator above, since a cutoff is at least the base's top degree.

        N(J) is grown one generator at a time: with m the monomial of the
        piece's highest bit and J' the tail of the piece without it,
        N(J) = N(J') - t^c N(J' : m) (Bayer-Stillman 1992, Bigatti 1997),
        one colon step through the memo monomials._numerator.  The empty
        piece starts from the generators above c.  Every piece met on the
        way down is memoised in degree c with it.
        """
        tails = self.tails.get(c)
        if tails is None:
            tails = self.tails[c] = {}
        num = tails.get(piece)
        if num is not None:
            return num
        n = self.base.n
        above = [g for g in self.base.gens if sum(g) > c]
        if 0 not in tails:
            tails[0] = hilbert_numerator(MonomialIdeal(n, above))
        grown = []
        while piece not in tails:
            grown.append(piece)
            piece ^= 1 << piece.bit_length() - 1
        num = tails[piece]
        monos = degree_monomials(n, c)
        for piece in reversed(grown):
            k = piece.bit_length() - 1
            num = _plus_generator(num, mask_to_monomials(n, c, piece ^ 1 << k) + above, monos[k])
            num = tails[piece] = _trimmed(num)
        return num

    def masks(self, values, dmax: int):
        """The embedded pieces in degrees 0..dmax, as a new list; see
        embedded_masks."""
        n = self.base.n
        masks = [self.piece(d, values[d]) for d in range(dmax + 1)]
        for d in range(dmax):
            key = d, values[d], values[d + 1]
            if key not in self.closures:
                stray = shadow_mask(n, d, masks[d]) & ~masks[d + 1]
                self.closures[key] = (mask_to_monomials(n, d + 1, stray & -stray)[0]
                                      if stray else None)
            witness = self.closures[key]
            if witness is not None:
                raise ClosureError(d + 1, witness)
        return masks


@lru_cache(maxsize=32)
def _embedding_table(base: MonomialIdeal) -> _EmbeddingTable:
    """The one _EmbeddingTable per base, for the few bases a process meets."""
    return _EmbeddingTable(base)


def embedded_masks(base: MonomialIdeal, values, dmax: int):
    """Graded pieces (as bitmasks) of the embedded ideal for quotient HF values.

    The degree-d piece is the base piece plus the shortest descending-lex
    run of other monomials reaching codimension H_d, so it depends only on
    (d, H_d) and is read off the base's _embedding_table; the list is new
    on every call.  Raises NotAdmissibleError (a new one each time) at the
    first degree that cannot reach the requested codimension, then
    ClosureError when the degreewise spans fail to multiply into each other
    (never silently repaired: on a Shakin base the latter contradicts
    attainability of the Hilbert function).  Raises InvalidInputError for
    dmax < 0: no ideal cut off there contains the base.
    """
    values = tuple(values)
    if dmax < 0:
        raise InvalidInputError("dmax must be nonnegative")
    if len(values) < dmax + 1:
        raise InvalidInputError("Hilbert function shorter than dmax+1")
    return _embedding_table(base).masks(values, dmax)


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
    _values, masks = _embed_series(base, ideal.max_degree(), hilbert_numerator(ideal))
    return masks_to_ideal(base.n, masks)


def _embed_series(base: MonomialIdeal, top: int, target):
    """The quotient HF and graded pieces, up to the accepted cutoff, of the
    stable_lex_embedding of an ideal whose top generator degree top and
    series numerator target are known (nothing else of the ideal is read);
    masks_to_ideal of the pieces is the embedded ideal.

    A cutoff c is tested off its tail: the candidate L, generated by the
    embedded pieces up to c, agrees from degree c on with the ideal of its
    degree-c piece, and c is at least the base's top degree, so N_L is
    monomials.numerator_off_tail of the base's _EmbeddingTable.tail(c,
    piece), and L is never built.  The starting cutoff is the larger of
    top, the base's top degree and 1, and the error order
    (NotAdmissibleError by degree, then ClosureError) is that of
    embedded_masks at each cutoff.  L has the target's HF up to c,
    so the next cutoff lies above c; one that does not raises
    InternalContradictionError instead of looping.
    """
    n = base.n
    table = _embedding_table(base)
    cutoff = max(top, base.max_degree(), 1)
    while True:
        values = values_from_numerator(target, n, cutoff)
        masks = table.masks(values, cutoff)
        got = numerator_off_tail(n, values, table.tail(cutoff, masks[cutoff]))
        if got == target:
            return values, masks
        pairs = zip_longest(got, target, fillvalue=0)
        below, cutoff = cutoff, next(d for d, (x, y) in enumerate(pairs) if x != y)
        if cutoff <= below:
            raise InternalContradictionError(
                f"embedding cut off at degree {below} differs from its target at {cutoff}")


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
