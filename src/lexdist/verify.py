"""Verification harness: enumerators, samplers and per-statement checkers.

The exhaustive kinds are decided on one DP over graded pieces,
_chain_counts, which builds no ideal.  Its states at a degree are the
pairs (piece there, HF prefix), each with the number of chain prefixes
that reach it (macaulay-lex and the budget check) and, for the extremality
checkers, a carry and the top generator degree of its first prefix.  Those
are listed in the enumeration order of their first prefixes: walking each
state in that order and its next pieces ascending meets a state first from
its first parent, so the order holds by induction from degree 0.  It is
the one budget check: every exhaustive kind runs it before anything else,
and it stops at the first degree whose chain prefixes outnumber the
budget.  One enumerator, _superideals, builds every ideal over a base
degree by degree with its Hilbert function and graded pieces.  It serves
enumerate_monomial_ideals_modulo and is the filing path, walked only once
the DP has found a failure, to file the failing ideals with their
payloads in enumeration order: macaulay-lex files the ideals with a
failing HF, and the extremality checkers' one shared loop, _extremal_cases,
hands its checker only the ideals in failing final states (betti-extremal
in more than three variables has no per-state cells, so it takes its
count from the DP's count walk and compares every ideal).  Both step from
a piece to the pieces above it by one submask walk, _pieces.

macaulay-lex's verdict depends only on the Hilbert function, so it checks
each one once.  An extremality verdict depends on an ideal only through
its final state (last piece, HF): its series key, the HF and the numerator
of the ideal's tail, memoised on the base's shakin._EmbeddingTable (the
one tail memo, with which the stable embedding tests its cutoffs too),
whose first ideal in enumeration order, in its first final state, fixes
the lex target; in at most three variables its Betti cells, each a
function of one transition between pieces (_BettiByPieces), of which a
state carries the componentwise maximum: beta_{2,j} is kept as
beta_{1,j} + beta_{3,j}, without its Euler term, a function of the HF
that every prefix of a state and the lex target share, so it cancels
from every maximum and comparison; and in any number of variables
its local cohomology table, computed once per tail (_coh_by_pieces).  A
tail is a (degree, piece) pair from which on the ideal agrees with the
ideal of that piece and the base generators above it: dmax and the last
piece for an enumerated ideal, and for a lex target the cutoff where
shakin._embed_series accepted it and the piece there.  Each checker
replays deterministically from its recorded parameters and seed, counts
the cases it examined and collects self-contained counterexample payloads.
A report passes iff it has no failures; observations that the underlying
statement does not claim (for instance Betti extremality in small
characteristic with pure powers present) are classified as findings
instead.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from . import groebner, monomials
from .distraction import (
    DistractionMatrix,
    distract_ideal,
    random_distraction,
    require_distraction,
)
from .errors import (
    BudgetExceededError,
    InvalidInputError,
    NotAdmissibleError,
)
from .groebner import DEFAULT_CHAR, Ideal, Poly, check_characteristic
from .homology import koszul_betti, local_coh_monomial
from .monomials import (
    MonomialIdeal,
    binom,
    colon_mask,
    degree_monomials,
    mask_to_monomials,
    piece_values,
    shadow_mask,
)
from .shakin import (
    ShakinIdeal,
    _embed_series,
    _embedding_table,
    base_ideal,
    embedded_masks,
    lex_embed,
    stable_lex_embedding,
)

DEFAULT_BUDGET = 10 ** 6
DEFAULT_SEED = 20201
# generator degree bound of the sampled monomial ideals; a distraction
# drawn for them needs one more column than this
SAMPLE_MAX_DEGREE = 4


@dataclass
class VerificationReport:
    """Replayable outcome of one verification run."""

    theorem: str
    params: dict
    cases_checked: int = 0
    failures: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": self.params,
            "cases_checked": self.cases_checked,
            "failures": self.failures,
            "findings": self.findings,
            "notes": self.notes,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _pieces(forced, size):
    """Every degree-d piece (a bitmask over the size degree-d monomials)
    that holds forced: forced plus each submask of the other monomials,
    in ascending order of the submask."""
    free = ((1 << size) - 1) & ~forced
    sub = 0
    while True:
        yield forced | sub
        if sub == free:
            return
        sub = (sub - free) & free  # the next larger submask of free


def _chain_counts(base: MonomialIdeal, dmax: int, budget=None, by_last=False,
                  cells=None) -> dict | list:
    """{Hilbert function up to dmax: number of superideals with it}, over
    the ideals _superideals yields, without building one.  The exhaustive
    kinds' one DP and one budget check; _superideals is only their filing
    path.

    A chain's future depends only on its current piece, so the states at
    degree d are the pairs (piece, HF up to d), kept per piece, each with
    the number of chain prefixes that reach it, and a transition is one of
    its _pieces, as in _superideals.  At dmax only the number k of added
    monomials matters: with f free monomials, a state adds C(f, k) ideals
    to the HF ending in f - k.  Every prefix extends to at least one ideal,
    so the number of prefixes through a degree is a lower bound on the
    total; given a budget, the DP raises BudgetExceededError at the first
    degree whose prefixes outnumber it, before it builds that degree's
    states.  Its count_estimate is 2 to the base's Hilbert values summed up
    to dmax, the number of subsets of the monomials outside the base: at
    least the number of superideals.  A negative dmax or budget is invalid
    input.

    With by_last the DP walks into dmax too and returns its states there,
    one per final state of the extremality checkers, as a list of [count,
    top, carry, last piece, HF up to dmax] in the enumeration order of
    their first ideals.  Each degree's states are listed in the order of
    their first prefixes: the states of degree d - 1 are walked in that
    order and each one's _pieces ascending, so a state is met first from
    the first prefix that reaches it, its first parent's first prefix
    followed by its piece, and by induction from the one state below
    degree 0 the order of first meeting is that of the first prefixes.
    top is the first prefix's top generator degree (0 if it has none), set
    when the state is met first.  carry starts as 0, and given cells,
    cells.step(d, low, high, below, carry) takes it across each
    transition, from piece low in degree d - 1, whose shadow is below, to
    high in degree d; states merge their carries by cells.merge, a
    componentwise maximum.  A carry depends on the transitions alone, not
    on the HF: the Euler term, the one part of a Betti cell that the HF
    fixes, is the same for every prefix of a state and is left out of its
    cells (see _BettiByPieces).  Without cells the carry stays 0.  States
    share one object per distinct piece, HF and carry: over (x1^2) in
    three variables at dmax 6, 48 595 final states have 8 192 last pieces,
    1 094 HFs and 1 582 Betti carries.
    """
    if dmax < 0:
        raise InvalidInputError("dmax must be nonnegative")
    if budget is not None and budget < 0:
        raise InvalidInputError(f"budget must be nonnegative, got {budget}")
    n = base.n
    base_masks = monomials.degree_masks(base, dmax)
    # piece at d - 1 -> {HF up to d - 1: prefixes, or a state [prefixes, top,
    # carry, piece, HF]}; order holds the states in the enumeration order of
    # their first prefixes
    states = {0: {(): [1, 0, 0, 0, ()] if by_last else 1}}
    order = list(states[0].values())
    masks_met, hfs_met, carries_met = {}, {}, {}
    for d in range(dmax + 1):
        size = len(degree_monomials(n, d))
        below = {prev: shadow_mask(n, d - 1, prev) for prev in states}
        if budget is not None:
            prefixes = sum(
                (sum(got[0] for got in hfs.values()) if by_last else sum(hfs.values()))
                << (size - (below[prev] | base_masks[d]).bit_count())
                for prev, hfs in states.items())
            if prefixes > budget:
                raise BudgetExceededError(budget, 1 << sum(piece_values(n, base_masks)))
        if d == dmax and not by_last:
            counts = {}
            for prev, hfs in states.items():
                f = size - (below[prev] | base_masks[d]).bit_count()
                for k in range(f + 1):
                    v, way = (f - k,), binom(f, k)
                    for h, count in hfs.items():
                        key = h + v
                        counts[key] = counts.get(key, 0) + count * way
            return counts
        values = [(size - k,) for k in range(size + 1)]  # at k: a k-monomial piece's HF value
        level, states = states, {}
        if not by_last:
            for prev, hfs in level.items():
                for mask in _pieces(below[prev] | base_masks[d], size):
                    into = states.get(mask)
                    if into is None:
                        into = states[mask] = {}
                    v = values[mask.bit_count()]
                    for h, count in hfs.items():
                        key = h + v
                        into[key] = into.get(key, 0) + count
            continue
        walk, order = order, []
        for count, top, carry, prev, h in walk:
            shadow = below[prev]
            for mask in _pieces(shadow | base_masks[d], size):
                into = states.get(mask)
                if into is None:
                    into = states[mask] = {}
                key = h + values[mask.bit_count()]
                got = carry if cells is None else cells.step(d, prev, mask, shadow, carry)
                state = into.get(key)
                if state is None:
                    key = hfs_met.setdefault(key, key)
                    into[key] = state = [
                        count, d if mask != shadow else top,  # a generator in degree d
                        carries_met.setdefault(got, got), masks_met.setdefault(mask, mask), key]
                    order.append(state)
                    continue
                state[0] += count
                if got != state[2]:
                    got = cells.merge(got, state[2])
                    state[2] = carries_met.setdefault(got, got)
    return order


def _superideals(base: MonomialIdeal, dmax: int):
    """(ideal, Hilbert function up to dmax, graded pieces up to dmax) for
    every ideal generated by the base and monomials of degree <= dmax.

    At degree d a graded piece is one of the _pieces holding the shadow of
    the piece below and the base piece.  Its monomials outside that shadow
    are the ideal's degree-d minimal generators; appended as
    mask_to_monomials lists them, in canonical order, they keep the
    generators canonical.  The degree-d Hilbert value and the piece (as a
    bitmask over degree_monomials) are appended with them, so ideals that
    share their lower pieces share that work.  Base generators above dmax
    lie in no piece and are added to every ideal at the end.  Ideals stream
    in lexicographic order of the per-degree subsets.  A negative dmax is
    invalid input; the callers check their budget on _chain_counts first.
    """
    if dmax < 0:
        raise InvalidInputError("dmax must be nonnegative")
    n = base.n
    base_masks = monomials.degree_masks(base, dmax)
    above = tuple(g for g in base.gens if sum(g) > dmax)

    def rec(d, gens, hf, pieces):
        if d > dmax:
            ideal = MonomialIdeal(n, gens + above) if above else MonomialIdeal._trusted(n, gens)
            yield ideal, hf, pieces
            return
        size = len(degree_monomials(n, d))
        below = shadow_mask(n, d - 1, pieces[-1] if pieces else 0)
        for mask in _pieces(below | base_masks[d], size):
            yield from rec(d + 1, gens + tuple(mask_to_monomials(n, d, mask & ~below)),
                           hf + (size - mask.bit_count(),), pieces + (mask,))

    yield from rec(0, (), (), ())


def enumerate_monomial_ideals_modulo(a, dmax: int, budget: int | None = DEFAULT_BUDGET):
    """All monomial ideals generated by a and monomials of degree <= dmax.

    Base generators above dmax are generators of every emitted ideal, so
    each one contains a.  Emits each ideal exactly once, in the order of
    _superideals.  Given a budget, raises BudgetExceededError before the
    first ideal when more than budget ideals exist, on the prefix counts of
    _chain_counts.
    """
    base = base_ideal(a)
    if budget is not None:
        _chain_counts(base, dmax, budget)
    yield from (ideal for ideal, _hf, _pieces in _superideals(base, dmax))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def random_monomial_ideal(rng, n, max_degree=4, max_gens=6) -> MonomialIdeal:
    """Seeded random monomial ideal (minimalized)."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(1, max_degree)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        gens.append(tuple(exps))
    return MonomialIdeal(n, gens)


def random_superideal_chain(rng, base: MonomialIdeal, dmax: int):
    """Random chain of graded pieces containing the base ideal."""
    n = base.n
    base_masks = monomials.degree_masks(base, dmax)
    chain = []
    prev = 0
    for d in range(dmax + 1):
        forced = shadow_mask(n, d - 1, prev) | base_masks[d]
        mask = forced
        density = rng.random() * 0.6
        for k in range(len(degree_monomials(n, d))):
            if not mask >> k & 1 and rng.random() < density:
                mask |= 1 << k
        chain.append(mask)
        prev = mask
    return chain


def random_homogeneous_poly(rng, n, degree, p=DEFAULT_CHAR) -> Poly:
    monos = degree_monomials(n, degree)
    terms = {}
    for m in monos:
        if rng.random() < 0.5:
            terms[m] = rng.randrange(1, p)
    if not terms:
        terms[monos[rng.randrange(len(monos))]] = rng.randrange(1, p)
    return Poly(n, p, terms)


def _chain_ideal(base: MonomialIdeal, chain) -> MonomialIdeal:
    """The ideal generated by the chain's graded pieces and the base.

    A chain stops at a degree (dmax for a sampled chain), so base
    generators of higher degree lie in none of its pieces; they are added
    here.
    """
    ideal = monomials.masks_to_ideal(base.n, list(chain))
    above = tuple(g for g in base.gens if sum(g) >= len(chain))
    return MonomialIdeal(base.n, ideal.gens + above) if above else ideal


class _Distractions(dict):
    """distract_ideal(d, ideal) memoised by the monomial ideal, for one run.

    A repeated ideal gets the same Ideal back, which carries its cached
    Groebner basis, so it is distracted and run through Buchberger once.
    """

    def __init__(self, d: DistractionMatrix):
        super().__init__()
        self.d = d

    def __missing__(self, ideal):
        self[ideal] = out = distract_ideal(self.d, ideal)
        return out


def _sample_ideal_over(rng, base: MonomialIdeal, distracted: _Distractions, dmax: int):
    """A homogeneous ideal containing the distracted base, plus its source.

    Returns (J, monomial source ideal or None): either the distraction of a
    random monomial ideal over the base, or the distracted base plus up to
    two random homogeneous elements, over the distraction's field.
    """
    if rng.random() < 0.5:
        source = _chain_ideal(base, random_superideal_chain(rng, base, dmax))
        return distracted[source], source
    p = distracted.d.p
    extras = [
        random_homogeneous_poly(rng, base.n, rng.randint(1, dmax), p)
        for _ in range(rng.randint(1, 2))
    ]
    return Ideal(base.n, list(distracted[base].gens) + extras, p), None


# ---------------------------------------------------------------------------
# helpers shared by the checkers
# ---------------------------------------------------------------------------

def _attempt(fn, *args):
    """(fn(*args), None), or (None, error payload) if fn is not admissible."""
    try:
        return fn(*args), None
    except NotAdmissibleError as exc:
        return None, {
            "error": type(exc).__name__,
            "degree": exc.degree,
            "message": str(exc),
        }


def _exceeding(left: dict, right: dict, keys=("i", "j")):
    """Entries of left exceeding right (absent means 0), as payload rows.

    keys names the parts of a dict key: ("i", "j") for (i, j) keys, ("j",)
    for plain degree keys.
    """
    rows = []
    for key, v in left.items():
        bound = right.get(key, 0)
        if v > bound:
            parts = key if isinstance(key, tuple) else (key,)
            rows.append({**dict(zip(keys, parts)), "left": v, "right": bound})
    return rows


class _BettiByPieces:
    """Graded Betti numbers beta_{i,j}(A/I) for j <= dmax + 1 of monomial
    ideals I over one base in at most three variables, read off their
    graded pieces one transition at a time.  A transition goes from piece
    low in degree d - 1, whose shadow is below, to piece high in degree d:

    - beta_{1,d} = |high minus below|, the degree-d minimal generators.
    - For n = 3, beta_{3,j} = dim Soc(A/I)_{j-3}, since
      Tor_n(A/I, K) = (0 :_{A/I} m)(-n): the standard monomials u of
      degree d - 1 with every x_k u in high, the colon of high outside
      low, so the transition into d gives beta_{3,d+2}.  It is 0 for n < 3.
    - beta_{2,d} is what is left of sum_i (-1)^i beta_{i,d} = E_d, the
      Euler term sum_k (-1)^k C(n, k) h_{d-k} of the HF h: E_d plus
      beta_{1,d} plus beta_{3,d}, which is 0 for n < 2 and for d = 1.

    So every cell but E_d depends on one transition alone, and E_d on the
    HF alone.  The prefixes of one piece-state DP state share their HF, so
    the maximum of E_d + x over them is E_d plus the maximum of x; an ideal
    and its lex target share their Hilbert series (_embed_series accepts
    only equal numerators), so E_d + x exceeds E_d + y iff x exceeds y.
    Maxima and comparisons therefore never need E_d, and the cell kept for
    beta_{2,j} is beta_{1,j} + beta_{3,j}; only the table adds E_j back.

    step takes a carry across a transition: one integer of fields `width`
    bits wide, field 0 and 1 the pending socle values beta_{3,d} and
    beta_{3,d+1}, field 3j + i - 2 the cell for beta_{i,j} for j >= 1,
    each below 2^(width - 1), since beta_{1,j} <= dim S_j and
    beta_{3,j} <= dim S_{j-3}.  The top bit of each field stays clear for
    merge, the componentwise maximum that the piece-state DP keeps over
    many prefixes, done on all fields at once: subtracting b from a with
    every top bit set leaves a field's top bit set iff a >= b there.
    cells is the one walk over the pieces of an ideal with graded pieces up
    to a degree c whose generators above c are the base's: a superideal, c
    = dmax, as _superideals yields it, or a lex target, c its accepted
    cutoff, as _embed_series returns it.  For d = 0..dmax + 1 it takes the
    given piece, or above c the shadow of the piece below plus the base
    piece, steps the carry across the transition and reads the Hilbert
    value, taking each shadow once; it returns the pair (cells, HF up to
    dmax + 1).  above gives the shadow and the piece in dmax + 1 after a
    last piece in dmax, for final.  The cells that cells and final return
    hold no pending socle values, field 3j + i - 4 for beta_{i,j}; merge
    takes their maximum too, so cells exceed a bound in some field iff
    merging them into the bound changes it.  table(cells, hf) gives the table
    {(i, j): beta_{i,j}}, beta_{0,0} = 1 and nonzero values only, in
    ascending (i, j), of an ideal with that pair: the cells the DP
    compares, with E_j read off the HF.  The unit ideal, hf[0] = 0, has
    the empty table.

    None of these depends on the characteristic: upper Koszul complexes on
    at most three vertices have no torsion.  The colons behind the socle
    dimensions are memoised by (degree, upper piece) and above by its
    piece, for the life of the object.
    """

    def __init__(self, base, dmax):
        n = base.n
        if n > 3:
            raise InvalidInputError(f"Betti tables by pieces need n <= 3, got n={n}")
        self.n, self.dmax = n, dmax
        self.base_masks = monomials.degree_masks(base, dmax + 1)
        self.width = w = (3 * len(degree_monomials(n, dmax + 1))).bit_length() + 1
        self.field = (1 << w - 1) - 1
        self.tops = sum(1 << k * w for k in range(3 * dmax + 5)) << w - 1
        self.colons = {}
        self.aboves = {}

    def socle(self, d, low, high):
        """dim Soc(A/I)_d for pieces low in degree d and high in d + 1."""
        key = d, high
        colon = self.colons.get(key)
        if colon is None:
            colon = self.colons[key] = colon_mask(self.n, d, high)
        return (colon & ~low).bit_count()

    def step(self, d, low, high, below, carry):
        """carry across the transition into high in degree d."""
        if not d:
            return carry
        w = self.width
        socle = self.socle(d - 1, low, high) if self.n == 3 and d < self.dmax else 0
        pending = carry & self.field
        gens = (high & ~below).bit_count()
        cells = (gens | (gens + pending) << w | pending << 2 * w) << (3 * d - 1) * w
        return carry >> 2 * w << 2 * w | cells | carry >> w & self.field | socle << w

    def merge(self, a, b):
        """The componentwise maximum of two carries, or of two cells."""
        tops = (a | self.tops) - b & self.tops
        keep = tops - (tops >> self.width - 1)
        return a & keep | b & ~keep

    def above(self, piece):
        """(shadow, piece in dmax + 1) after piece in dmax, with no
        generator above dmax but the base's."""
        got = self.aboves.get(piece)
        if got is None:
            below = shadow_mask(self.n, self.dmax, piece)
            got = self.aboves[piece] = below, below | self.base_masks[-1]
        return got

    def final(self, piece, carry):
        """The cells of a superideal with last piece piece and carry there,
        or their componentwise maximum over many."""
        below, high = self.above(piece)
        return self.step(self.dmax + 1, piece, high, below, carry) >> 2 * self.width

    def cells(self, pieces):
        """(cells, HF up to dmax + 1) of an ideal with graded pieces up to a
        degree c and no generator above c but the base's."""
        n, top = self.n, self.dmax + 1
        carry, low, below, hf = 0, 0, 0, []
        for d in range(top + 1):
            high = pieces[d] if d < len(pieces) else below | self.base_masks[d]
            carry = self.step(d, low, high, below, carry)
            hf.append(len(degree_monomials(n, d)) - high.bit_count())
            if d < top:
                low, below = high, shadow_mask(n, d, high)
        return carry >> 2 * self.width, tuple(hf)

    def table(self, cells, hf):
        """The table of an ideal with these cells and HF up to dmax + 1."""
        if not hf[0]:
            return {}
        euler = monomials.series_transform(hf, self.n)
        raw = {(0, 0): 1}
        for i in (1, 2, 3):
            for j in range(1, self.dmax + 2):  # beta_{2,j}'s cell lacks E_j
                if v := (cells >> (3 * j + i - 4) * self.width & self.field) + (i == 2) * euler[j]:
                    raw[i, j] = v
        return raw


def _coh_by_pieces(base, window, p):
    """A function (h, piece) -> {(i, j): dim H^i_m(A/I)_j} over the window,
    nonzero values only in ascending (i, j), for a monomial ideal I over
    base with HF h up to a degree c = len(h) - 1 that agrees from degree c
    on with its tail J, the ideal generated by piece (a bitmask over the
    degree-c monomials) and the base generators above c.  Two kinds of
    ideal come in:

    - a superideal, as _superideals yields it or as the piece-state DP
      reaches it: c = dmax and piece is its last piece;
    - a lex target, as _embed_series returns it: c is the accepted cutoff,
      at least the base's top degree, so J is generated by the piece alone.

    Local cohomology runs on K, the largest ideal that agrees with J from
    degree c on: its degree-d piece for d < c holds the u with u * S_{c-d}
    inside the piece, one colon_mask step per degree down from c.  Every
    such ideal, I among them, lies in K with a quotient of finite length,
    and a module of finite length changes only H^0 (Brodmann-Sharp, ch.
    2): 0 -> K/I -> A/I -> A/K -> 0 gives H^i(A/I) = H^i(A/K) for i >= 1
    and h^0(A/I)_j - h_j = h^0(A/K)_j - HF(A/K)_j for every j.  So
    local_coh_monomial runs once per tail (c, piece), on K over Z/p, whose
    generators lie low, and every ideal with that tail is read off it.  The
    memo keeps per tail the offsets h^0_j - h_j for 0 <= j < c in the
    window and the other nonzero cells in ascending (i, j), for the life of
    the function.  Tails with equal entries share one: over (x1^2) in four
    variables at dmax 3, 65 536 last pieces have 321 distinct ones.
    """
    jmin, jmax = window
    n = base.n
    memo = {}
    shared = {}

    def table(h, piece):
        c = len(h) - 1
        low = range(max(jmin, 0), min(jmax, c - 1) + 1)
        key = c, piece
        got = memo.get(key)
        if got is None:
            pieces = [piece]
            for d in range(c - 1, -1, -1):
                pieces.append(colon_mask(n, d, pieces[-1]))
            pieces.reverse()
            entries = local_coh_monomial(_chain_ideal(base, pieces), window=window, p=p).entries
            coh = dict(entries)
            values = piece_values(n, pieces)
            got = (tuple(coh.get((0, j), 0) - values[j] for j in low),
                   tuple((cell, v) for cell, v in entries if cell[0] or cell[1] not in low))
            got = memo[key] = shared.setdefault(got, got)
        offsets, rest = got
        out = {(0, j): v for j, offset in zip(low, offsets) if (v := h[j] + offset)}
        out.update(rest)
        return out

    return table


def _extremal_cases(report, base, dmax, budget, target, fails=None, cells=None):
    """The one driver of the extremality checkers: every superideal of base
    that a checker must compare, with the lex target of its series key,
    in enumeration order, and the number of superideals on report.

    Yields (ideal, HF up to dmax, graded pieces up to dmax, lex pieces,
    target(HF, lex pieces)), the last two read off the embedding as
    _embed_series returns it, with the pieces up to the accepted cutoff.
    An ideal's embedding depends on it only through its series key (h,
    N_J), the HF and the numerator of its tail J, read off its last piece
    by the base's _EmbeddingTable.tail(dmax, piece) (equal keys mean equal
    series numerators and conversely), and through its top generator
    degree, where the cutoffs start: a key is embedded from its first
    ideal's top degree, and target is read once per key.  An error payload
    also depends on that degree, so a key with no embedding is embedded
    ideal by ideal, from each one's own top degree: a failing ideal is
    filed on report.failures and not yielded, and the first embedding that
    succeeds serves the key's later ideals.

    Given fails, the run is decided on the piece-state DP of _chain_counts
    (given cells, its states carry their ideals' cells), which builds no
    ideal.  The ideals of a final state (last piece, HF h) share one key,
    and the states come in the enumeration order of their first ideals, so
    a key is embedded once, at its first state, from that state's top
    generator degree, its first ideal's.  A state fails iff its key has no
    embedding or fails(last piece, h, carry, target of its key).  Only if
    some state fails is _superideals walked, and it yields only the ideals
    in failing states, each with its key's target from the DP: an ideal in
    a passing state cannot fail, its cells being at most the state's
    maximum and its table the state's.  Without fails, the count comes from
    the count walk of _chain_counts and every ideal is yielded.
    """
    tails = _embedding_table(base)
    targets = {}  # series key -> (lex pieces, target), or None with no embedding

    def embed(key, top):
        embedding, err = _attempt(_embed_series, base, top,
                                  monomials.numerator_off_tail(base.n, *key))
        got = targets[key] = None if err else (tuple(embedding[1]), target(*embedding))
        return got, err

    failing = None
    if fails is None:
        report.cases_checked = sum(_chain_counts(base, dmax, budget).values())
    else:
        failing = {}  # HF -> last pieces of the failing states
        for count, top, carry, last, h in _chain_counts(
                base, dmax, budget, by_last=True, cells=cells):
            report.cases_checked += count
            key = h, tails.tail(dmax, last)
            got = targets[key] if key in targets else embed(key, top)[0]
            if got is None or fails(last, h, carry, got[1]):
                failing.setdefault(h, set()).add(last)
        if not failing:
            return
    for ideal, h, pieces in _superideals(base, dmax):
        if failing is not None and pieces[-1] not in failing.get(h, ()):
            continue
        key = h, tails.tail(dmax, pieces[-1])
        got = targets.get(key)
        if got is None:
            got, err = embed(key, ideal.max_degree())
            if err is not None:
                report.failures.append({"ideal": ideal.to_json(), **err})
                continue
        yield ideal, h, pieces, *got


def _require_samples(samples):
    if samples < 0:
        raise InvalidInputError(f"sample count must be nonnegative, got {samples}")


def _distraction_pairs(report, n, samples, seed, dmax, p):
    """Seeded (monomial ideal, distraction, distracted ideal), counted on report."""
    p = check_characteristic(p)
    if n < 1:
        raise InvalidInputError(f"sampled ideals need at least one variable, got n={n}")
    if dmax < 0:
        raise InvalidInputError("dmax must be nonnegative")
    _require_samples(samples)
    rng = random.Random(seed)
    for _ in range(samples):
        ideal = random_monomial_ideal(rng, n, max_degree=SAMPLE_MAX_DEGREE)
        d = random_distraction(rng, n, p, columns=SAMPLE_MAX_DEGREE + 1)
        report.cases_checked += 1
        yield ideal, d, distract_ideal(d, ideal)


def _sampled_cases(report, base, distracted, samples, seed, dmax):
    """Seeded (J, monomial source ideal or None, HF(J)) over the distracted base.

    distracted is the run's _Distractions memo.  Each sample is counted on
    report; see _sample_ideal_over for J, whose extra generators have
    degrees 1..dmax, so dmax must be at least 1, and draws over the base's
    variables, so it needs at least one.
    """
    if base.n < 1:
        raise InvalidInputError(f"sampled ideals need at least one variable, got n={base.n}")
    if dmax < 1:
        raise InvalidInputError(f"sampled ideals need dmax at least 1, got dmax={dmax}")
    _require_samples(samples)
    rng = random.Random(seed)
    for _ in range(samples):
        j, source = _sample_ideal_over(rng, base, distracted, dmax)
        report.cases_checked += 1
        yield j, source, groebner.hilbert_function(j, dmax)


def _shakin_params(a):
    if isinstance(a, ShakinIdeal):
        return {"shakin": a.to_json(), "pure_powers": list(a.power_degrees)}
    return {"base_ideal": base_ideal(a).to_json(), "pure_powers": None}


# ---------------------------------------------------------------------------
# theorem checkers
# ---------------------------------------------------------------------------

def verify_macaulay_lex(a, dmax: int, budget: int | None = DEFAULT_BUDGET) -> VerificationReport:
    """Every superideal Hilbert function embeds to a lex ideal with equal HF.

    Exhaustive over monomial ideals generated by the base and monomials of
    degree <= dmax.  For a Shakin base a failure would contradict the
    Macaulay-lex property; for an arbitrary base (escape hatch) failures
    are legitimate counterexamples and are recorded.  The verdict depends
    on an ideal only through its HF, so each HF of _chain_counts is
    embedded once and counts its ideals as cases.  No ideal is built unless
    some HF fails; then _superideals is walked again to file every ideal
    with a failing HF, in enumeration order.
    """
    base = base_ideal(a)
    n = base.n
    report = VerificationReport(
        theorem="macaulay-lex",
        params={"n": n, "dmax": dmax, "budget": budget, **_shakin_params(a)},
    )
    if not isinstance(a, ShakinIdeal):
        report.notes.append("base ideal not supplied as Shakin data; escape hatch")
    counts = _chain_counts(base, dmax, budget)
    failing = {}
    for h, count in counts.items():
        report.cases_checked += count
        masks, err = _attempt(embedded_masks, base, h, dmax)
        if err is None:
            got = piece_values(n, masks)
            if got != h:
                err = {"error": "hf-mismatch", "embedded_hf": got}
        if err is not None:
            failing[h] = err
    if failing:
        for ideal, h, _pieces in _superideals(base, dmax):
            if h in failing:
                report.failures.append({
                    "ideal": ideal.to_json(),
                    "hilbert_function": list(h),
                    **failing[h],
                })
    report.notes.append(f"distinct Hilbert functions: {len(counts)}")
    return report


def verify_betti_extremal(a, dmax: int, budget: int | None = DEFAULT_BUDGET,
                          p: int = DEFAULT_CHAR) -> VerificationReport:
    """Graded Betti numbers are maximized by the embedded ideal.

    Exhaustive over the superideals of enumerate_monomial_ideals_modulo;
    tables compared for all homological degrees and j <= dmax + 1.  In at
    most three variables every cell depends on one transition between
    graded pieces (_BettiByPieces, which never sees p, so p is checked
    first), so the run is decided on the piece-state DP without building
    an ideal: each final state carries the componentwise maximum of its
    ideals' cells, compared with the cells of the lex target of its series
    key, whose (cells, HF) pair one walk over the target's pieces gives
    once per key.  Only if some state fails does _extremal_cases walk the
    ideals of the failing states, whose tables are compared with their
    target's, each read off its (cells, HF) pair (the target's once per
    distinct pair); in more variables it yields every ideal, with
    koszul_betti on both sides.
    With pure powers present and small characteristic the statement is an
    open expectation, so violations are classified as findings rather than
    failures.
    """
    p = check_characteristic(p)
    base = base_ideal(a)
    n = base.n
    j_max = dmax + 1
    powers = isinstance(a, ShakinIdeal) and a.has_pure_powers
    report = VerificationReport(
        theorem="betti-extremal",
        params={"n": n, "dmax": dmax, "j_max": j_max, "char": p,
                "budget": budget, **_shakin_params(a)},
    )
    as_finding = powers and p < DEFAULT_CHAR
    if powers:
        report.notes.append(
            f"pure powers present: the statement assumes characteristic 0, "
            f"emulated here by p={p}"
        )

    if n <= 3:
        betti = _BettiByPieces(base, dmax)
        cases = _extremal_cases(
            report, base, dmax, budget, lambda _h, lex: betti.cells(lex),
            lambda last, _h, carry, want: betti.merge(betti.final(last, carry), want[0]) != want[0],
            betti)
        target_table = functools.cache(betti.table)
    else:
        cases = _extremal_cases(
            report, base, dmax, budget, lambda _h, lex: koszul_betti(
                monomials.masks_to_ideal(n, lex), j_max, p).as_dict())
    # failure payloads share one JSON object per lex target and per HF
    embedded_json = functools.cache(lambda lex: monomials.masks_to_ideal(n, lex).to_json())
    hf_json = functools.cache(list)
    for ideal, h, pieces, lex, want in cases:
        if n <= 3:
            mine, want = betti.table(*betti.cells(pieces)), target_table(*want)
        else:
            mine = koszul_betti(ideal, j_max, p).as_dict()
        bad = _exceeding(mine, want)
        if bad:
            payload = {
                "ideal": ideal.to_json(),
                "embedded": embedded_json(lex),
                "hilbert_function": hf_json(h),
                "violations": bad,
            }
            (report.findings if as_finding else report.failures).append(payload)
    return report


def verify_coh_extremal(a, dmax: int, window=None,
                        budget: int | None = DEFAULT_BUDGET,
                        p: int = DEFAULT_CHAR) -> VerificationReport:
    """Local cohomology Hilbert functions are maximized by the embedded ideal.

    Exhaustive over the superideals of enumerate_monomial_ideals_modulo;
    all cohomological degrees are compared on the window.  Both sides go
    through one _coh_by_pieces table, so local_coh_monomial runs once per
    distinct tail: an enumerated ideal's (dmax, last piece), or a lex
    target's (accepted cutoff, piece there) as _embed_series returns it.
    An ideal's table depends only on its final state (last piece, HF), so
    the run is decided on the piece-state DP without building an ideal;
    only if some state fails does _extremal_cases walk the ideals of the
    failing states, to file their failures, which share their state's
    violations.
    """
    p = check_characteristic(p)
    base = base_ideal(a)
    n = base.n
    if window is None:
        window = (-(dmax + n), dmax)
    if window[0] > window[1]:
        raise InvalidInputError("empty degree window")
    report = VerificationReport(
        theorem="cohomology-extremal",
        params={"n": n, "dmax": dmax, "window": list(window), "char": p,
                "budget": budget, **_shakin_params(a)},
    )

    table = _coh_by_pieces(base, window, p)
    hf_json = functools.cache(list)  # failure payloads share one JSON object per HF
    violations = {}  # final state -> its violations
    for ideal, h, pieces, _lex, want in _extremal_cases(
            report, base, dmax, budget, lambda values, lex: table(values, lex[-1]),
            lambda last, h, _carry, want: _exceeding(table(h, last), want)):
        state = h, pieces[-1]
        if state not in violations:
            violations[state] = _exceeding(table(*state), want)
        bad = violations[state]
        if bad:
            report.failures.append({
                "ideal": ideal.to_json(),
                "hilbert_function": hf_json(h),
                "violations": bad,
            })
    return report


def verify_distraction_hf(a, d: DistractionMatrix, dmax: int,
                          samples: int = 100, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Hilbert functions over the distracted ring embed over the original ring.

    Samples ideals containing the distracted base (distractions of monomial
    superideals plus randomly fattened ones) and requires their quotient
    Hilbert functions to be admissible over the base; the reverse inclusion
    is witnessed constructively by distracting embedded ideals.  The
    sampled ideals live over d's field.  Each monomial ideal, sampled
    source or embedded one, is distracted once per run (_Distractions).
    """
    base = base_ideal(a)
    n = base.n
    require_distraction(d)
    report = VerificationReport(
        theorem="distraction-hf-poset",
        params={"n": n, "dmax": dmax, "samples": samples, "seed": seed,
                "char": d.p, "distraction": d.to_json(), **_shakin_params(a)},
    )
    distracted = _Distractions(d)
    for j, source, h in _sampled_cases(report, base, distracted, samples, seed, dmax):
        embedded, err = _attempt(lex_embed, base, h, dmax)
        if err is not None:
            report.failures.append({
                "ideal": j.to_json(),
                "hilbert_function": list(h),
                **err,
            })
            continue
        if source is not None:
            # reverse inclusion: the embedded ideal distracts to the same HF
            back = groebner.hilbert_function(distracted[embedded], dmax)
            report.cases_checked += 1
            if back != h:
                report.failures.append({
                    "embedded": embedded.to_json(),
                    "expected_hf": list(h),
                    "distracted_hf": list(back),
                    "error": "reverse-inclusion",
                })
    return report


def verify_betti_distraction_invariance(n: int, samples: int = 50, dmax: int = 5,
                                        seed: int = DEFAULT_SEED,
                                        p: int = DEFAULT_CHAR) -> VerificationReport:
    """Graded Betti numbers of a monomial ideal match those of any distraction."""
    report = VerificationReport(
        theorem="betti-distraction-invariance",
        params={"n": n, "dmax": dmax, "samples": samples, "seed": seed,
                "char": p, "max_degree": SAMPLE_MAX_DEGREE},
    )
    for ideal, d, distracted in _distraction_pairs(report, n, samples, seed, dmax, p):
        left = koszul_betti(ideal, dmax, p)
        right = koszul_betti(distracted, dmax, p)
        if left.as_dict() != right.as_dict():
            report.failures.append({
                "ideal": ideal.to_json(),
                "distraction": d.to_json(),
                "betti_monomial": left.to_json(),
                "betti_distracted": right.to_json(),
            })
    return report


def verify_codistra_h0(n: int, samples: int = 100, dmax: int = 6,
                       seed: int = DEFAULT_SEED, p: int = DEFAULT_CHAR) -> VerificationReport:
    """H^0 Hilbert functions never drop under distraction (degree 0 slice)."""
    report = VerificationReport(
        theorem="codistra-h0",
        params={"n": n, "dmax": dmax, "samples": samples, "seed": seed,
                "char": p, "max_degree": SAMPLE_MAX_DEGREE},
    )
    for ideal, d, distracted in _distraction_pairs(report, n, samples, seed, dmax, p):
        left = groebner.h0_hilbert_function(ideal, dmax)
        right = groebner.h0_hilbert_function(distracted, dmax)
        bad = _exceeding(dict(enumerate(left)), dict(enumerate(right)), ("j",))
        if bad:
            report.failures.append({
                "ideal": ideal.to_json(),
                "distraction": d.to_json(),
                "h0_monomial": list(left),
                "h0_distracted": list(right),
                "violations": bad,
            })
    return report


def verify_epsilon_d_extremal(a, d: DistractionMatrix, dmax: int,
                              samples: int = 50, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Extremality of the distraction-induced embedding on sampled ideals.

    For sampled ideals J containing the distracted base: Betti numbers are
    bounded by the embedded target (requires no pure powers, the stated
    hypothesis), and degree-0 local cohomology is bounded against both the
    lex-embedded target and its distraction.  The sampled ideals and the
    Betti numbers live over d's field.  Each monomial ideal, sampled source
    or lex target, is distracted once per run (_Distractions).
    """
    base = base_ideal(a)
    n, p = base.n, d.p
    require_distraction(d)
    report = VerificationReport(
        theorem="epsilon-d-extremal",
        params={"n": n, "dmax": dmax, "samples": samples, "seed": seed,
                "char": p, "include_betti": True,
                "distraction": d.to_json(), **_shakin_params(a)},
    )
    betti_mode = not (isinstance(a, ShakinIdeal) and a.has_pure_powers)
    if not betti_mode:
        report.notes.append(
            "betti mode rejected: pure powers present violate the P=0 hypothesis"
        )

    def h0(ideal):
        return dict(enumerate(groebner.h0_hilbert_function(ideal, dmax)))

    distracted = _Distractions(d)
    target_cache = {}
    for j, _source, h in _sampled_cases(report, base, distracted, samples, seed, dmax):
        witness = groebner.initial_ideal(j)
        if witness.gens not in target_cache:
            embedded, err = _attempt(stable_lex_embedding, base, witness)
            target = None if err is not None else {
                "betti": koszul_betti(embedded, dmax, p).as_dict() if betti_mode else None,
                "h0_vs_embedded": h0(embedded),
                "h0_vs_distracted_embedded": h0(distracted[embedded]),
            }
            target_cache[witness.gens] = target, err
        target, err = target_cache[witness.gens]
        if err is not None:
            # every sample with this initial ideal is non-admissible
            report.failures.append({"hilbert_function": list(h), **err})
            continue
        viols = {}
        if betti_mode:
            viols["betti_violations"] = _exceeding(
                koszul_betti(j, dmax, p).as_dict(), target["betti"])
        mine = h0(j)
        for label in ("h0_vs_embedded", "h0_vs_distracted_embedded"):
            viols[label] = _exceeding(mine, target[label], ("j",))
        viols = {label: rows for label, rows in viols.items() if rows}
        if viols:
            report.failures.append(
                {"ideal": j.to_json(), "hilbert_function": list(h), **viols})
    return report
