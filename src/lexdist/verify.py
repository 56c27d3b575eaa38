"""Verification harness: enumerators, samplers and per-statement checkers.

The exhaustive checkers share one enumerator, _superideals, which builds
every ideal over a base degree by degree together with its Hilbert
function and graded pieces, so neither is recomputed per ideal, and one
count of those ideals, _chain_counts, a DP over graded pieces that builds
none of them: per HF prefix for macaulay-lex, per piece alone for the
budget check of the other kinds.  Both step from a piece to the pieces
above it by one submask walk, _pieces.  The count is the one budget check:
every exhaustive kind runs it before the first ideal, and it stops at the
first degree whose chain prefixes outnumber the budget.  macaulay-lex,
whose verdict depends only on the Hilbert function, checks each Hilbert
function once off the same count.  The extremality checkers read their
per-ideal work off the enumeration: the embedding cache key and the
target's series numerator (the numerator of the ideal's tail, memoised on
the base's shakin._EmbeddingTable, the one tail memo that the stable
embedding tests its cutoffs with too), in at most three variables the
Betti tables of the ideal and of its lex target (_betti_by_pieces), and
in any number of variables the local cohomology tables of both, computed
once per tail (_coh_by_pieces).  A tail is a (degree, piece) pair from
which on the ideal agrees with the ideal of that piece and the base
generators above it: dmax and the last piece for an enumerated ideal,
and for a lex target the cutoff where shakin._embed_series accepted it
and the piece there.  Each checker replays deterministically from its
recorded parameters and seed, counts the cases it examined and collects
self-contained counterexample payloads.  A report passes iff it has no failures; observations that the
underlying statement does not claim (for instance Betti extremality in
small characteristic with pure powers present) are classified as findings
instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import groebner, monomials
from .distraction import (
    DistractionMatrix,
    distract_ideal,
    random_distraction,
    validate_distraction,
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
    degree_monomials,
    mask_to_monomials,
    piece_values,
    shadow_mask,
    shadow_table,
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


def _chain_counts(base: MonomialIdeal, dmax: int, budget=None, by_hf=True) -> dict:
    """{Hilbert function up to dmax: number of superideals with it}, over
    the ideals _superideals yields, without building one.  The one budget
    check of the exhaustive kinds.  With by_hf false every HF is read as
    (), so the result is {(): number of superideals} and the DP keeps one
    count per piece instead of one per HF prefix.

    A chain's future depends only on its current piece, so the states at
    degree d are the pieces, each with the number of chain prefixes that
    reach it per HF up to d, and a transition is one of its _pieces, as in
    _superideals.  At dmax only the number k of added monomials matters:
    with f free monomials, a state adds C(f, k) ideals to the HF ending in
    f - k.  Every prefix extends to at least one ideal, so the number of
    prefixes through a degree is a lower bound on the total; given a
    budget, the DP raises BudgetExceededError at the first degree whose
    prefixes outnumber it, before it builds that degree's states.  Its
    count_estimate is 2 to the base's Hilbert values summed up to dmax, the
    number of subsets of the monomials outside the base: at least the
    number of superideals.  A negative dmax or budget is invalid input.
    """
    if dmax < 0:
        raise InvalidInputError("dmax must be nonnegative")
    if budget is not None and budget < 0:
        raise InvalidInputError(f"budget must be nonnegative, got {budget}")
    n = base.n
    base_masks = monomials.degree_masks(base, dmax)
    states = {0: {(): 1}}  # piece at d - 1 -> {HF up to d - 1: prefixes}
    counts = {}
    for d in range(dmax + 1):
        size = len(degree_monomials(n, d))
        level = [(hfs, shadow_mask(n, d - 1, prev) | base_masks[d])
                 for prev, hfs in states.items()]
        if budget is not None:
            prefixes = sum(sum(hfs.values()) << (size - forced.bit_count())
                           for hfs, forced in level)
            if prefixes > budget:
                raise BudgetExceededError(budget, 1 << sum(piece_values(n, base_masks)))
        states = {}
        for hfs, forced in level:
            if d == dmax:
                f = size - forced.bit_count()
                ways = ([((f - k,), binom(f, k)) for k in range(f + 1)] if by_hf
                        else [((), 1 << f)])
                for h, count in hfs.items():
                    for v, way in ways:
                        key = h + v
                        counts[key] = counts.get(key, 0) + count * way
                continue
            for mask in _pieces(forced, size):
                into = states.get(mask)
                if into is None:
                    into = states[mask] = {}
                v = (size - mask.bit_count(),) if by_hf else ()
                for h, count in hfs.items():
                    key = h + v
                    into[key] = into.get(key, 0) + count
    return counts


def _superideals(base: MonomialIdeal, dmax: int, budget=None):
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
    in lexicographic order of the per-degree subsets.  Given a budget, or a
    negative dmax, _chain_counts checks it before any ideal is yielded.
    """
    if budget is not None or dmax < 0:
        _chain_counts(base, dmax, budget, by_hf=False)
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
    _superideals.  Like it, raises BudgetExceededError before the first
    ideal when more than budget ideals exist.
    """
    for ideal, _hf, _pieces in _superideals(base_ideal(a), dmax, budget):
        yield ideal


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

    A chain stops at dmax, so base generators of higher degree lie in none
    of its pieces; they are added here.
    """
    ideal = monomials.masks_to_ideal(base.n, list(chain))
    above = tuple(g for g in base.gens if sum(g) >= len(chain))
    return MonomialIdeal(base.n, ideal.gens + above) if above else ideal


def _sample_ideal_over(rng, base: MonomialIdeal, d: DistractionMatrix, dmax: int):
    """A homogeneous ideal containing the distracted base, plus its source.

    Returns (J, monomial source ideal or None): either the distraction of a
    random monomial ideal over the base, or the distracted base plus up to
    two random homogeneous elements, over d's field.
    """
    if rng.random() < 0.5:
        source = _chain_ideal(base, random_superideal_chain(rng, base, dmax))
        return distract_ideal(d, source), source
    extras = [
        random_homogeneous_poly(rng, base.n, rng.randint(1, dmax), d.p)
        for _ in range(rng.randint(1, 2))
    ]
    da = distract_ideal(d, base)
    return Ideal(base.n, list(da.gens) + extras, d.p), None


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


def _require_valid(d: DistractionMatrix):
    """Raise InvalidInputError, with the witness, unless d is a distraction."""
    ok, witness = validate_distraction(d)
    if not ok:
        raise InvalidInputError(f"invalid distraction, witness {witness}")


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


def _betti_by_pieces(base, dmax):
    """A function (ideal, h=None, pieces=None) -> {(i, j): beta_{i,j}(A/I)}
    for j <= dmax + 1, nonzero values only in ascending (i, j), for a
    monomial ideal I in at most three variables.  A superideal of base
    comes with its HF h and graded pieces up to dmax, as _superideals
    yields it; any other ideal, such as a lex target, which can have
    generators in degree dmax + 1, comes alone and is read off its own
    degree_masks and HF up to dmax + 1.

    - beta_{0,0} = 1, and the unit ideal has the empty table.
    - beta_{1,j} counts the degree-j minimal generators.
    - For n = 3, beta_{3,j} = dim Soc(A/I)_{j-3}, since
      Tor_n(A/I, K) = (0 :_{A/I} m)(-n): the standard monomials u of that
      degree with every x_k u in the next piece.
    - For n >= 2 and j >= 2 (below that it is zero), beta_{2,j} is what
      is left of sum_i (-1)^i beta_{i,j} = sum_k (-1)^k C(n, k) h_{j-k},
      where a superideal's h_{dmax+1} = dim S_{dmax+1} - |shadow(piece
      dmax) | base piece dmax+1|.

    None of these depends on the characteristic: upper Koszul complexes on
    at most three vertices have no torsion.  Socle dimensions are memoised
    by (degree, pair of pieces) and a superideal's h_{dmax+1} by its last
    piece, for the life of the function.
    """
    n = base.n
    if n > 3:
        raise InvalidInputError(f"Betti tables by pieces need n <= 3, got n={n}")
    j_max = dmax + 1
    top = monomials.degree_masks(base, j_max)[j_max]
    size = len(degree_monomials(n, j_max))
    # the coefficients of (1-t)^n, padded to four; c_k multiplies h_{j-k}
    c0, c1, c2, c3 = [(-1) ** k * binom(n, k) for k in range(4)]
    socles = {}
    nexts = {}

    def table(ideal, h=None, pieces=None):
        if pieces is None:
            pieces = monomials.degree_masks(ideal, j_max)
            h = piece_values(n, pieces)
        else:  # a superideal: h_{dmax+1} off its last piece
            last = pieces[-1]
            h_next = nexts.get(last)
            if h_next is None:
                h_next = nexts[last] = size - (shadow_mask(n, dmax, last) | top).bit_count()
            h += (h_next,)
        if pieces[0]:
            return {}
        gens = [0] * (j_max + 1)
        for g in ideal.gens:  # in ascending degree
            j = sum(g)
            if j > j_max:
                break
            gens[j] += 1
        # raw gains its rows in ascending (i, j) order, as koszul_betti's
        # tables list them
        raw = {(0, 0): 1}
        for j, count in enumerate(gens):
            if count:
                raw[1, j] = count
        if n < 2:
            return raw
        socle = [0] * (j_max + 1)  # socle[j] = dim Soc(A/I)_{j-3}
        if n == 3:
            for d in range(dmax - 1):
                low, high = pieces[d], pieces[d + 1]
                dim = socles.get((d, low, high))
                if dim is None:
                    dim = socles[d, low, high] = sum(
                        1 for k, up in enumerate(shadow_table(n, d))
                        if not low >> k & 1 and not up & ~high)
                socle[d + 3] = dim
        h = (0, 0, 0) + h  # h[j + 3] = h_j
        for j in range(2, j_max + 1):
            beta = (c0 * h[j + 3] + c1 * h[j + 2] + c2 * h[j + 1] + c3 * h[j]
                    + gens[j] + socle[j])
            if beta:
                raw[2, j] = beta
        for j in range(3, j_max + 1):
            if socle[j]:
                raw[3, j] = socle[j]
        return raw

    return table


def _coh_by_pieces(window, p):
    """A function (ideal, h, pieces) -> {(i, j): dim H^i_m(A/I)_j} over the
    window, nonzero values only in ascending (i, j), for a monomial ideal I
    with HF h and graded pieces up to a degree c = len(pieces) - 1, keyed by
    its tail (c, pieces[-1]).  The tail J is generated by the degree-c
    piece and I's generators above c, and I agrees with J from degree c on.
    Two kinds of ideal come in, over one base:

    - a superideal, as _superideals yields it: c = dmax, and J is as in
      shakin._EmbeddingTable.tail, with the base generators above dmax;
    - a lex target, as _embed_series returns it: c is the accepted cutoff,
      at least the base's top degree, so J is generated by the piece alone.

    I/J has finite length, and a submodule of finite length changes only
    H^0 (Brodmann-Sharp, ch. 2): 0 -> I/J -> A/J -> A/I -> 0 gives
    H^i(A/I) = H^i(A/J) for i >= 1 and h^0(A/I)_j - h_j = h^0(A/J)_j -
    HF(A/J)_j for every j.  So local_coh_monomial runs on the first ideal
    met with each tail, over Z/p, and every later one is read off it.  The
    memo keeps per tail the offsets h^0_j - h_j for 0 <= j < c in the window
    and the other nonzero cells in ascending (i, j), for the life of the
    function.  Tails with equal entries share one: over (x1^2) in four
    variables at dmax 3, 65 536 last pieces have 321 distinct ones.
    """
    jmin, jmax = window
    memo = {}
    shared = {}

    def table(ideal, h, pieces):
        c = len(pieces) - 1
        low = range(max(jmin, 0), min(jmax, c - 1) + 1)
        key = c, pieces[-1]
        got = memo.get(key)
        if got is None:
            entries = local_coh_monomial(ideal, window=window, p=p).entries
            coh = dict(entries)
            got = (tuple(coh.get((0, j), 0) - h[j] for j in low),
                   tuple((cell, v) for cell, v in entries if cell[0] or cell[1] not in low))
            got = memo[key] = shared.setdefault(got, got)
        offsets, rest = got
        out = {(0, j): v for j, offset in zip(low, offsets) if (v := h[j] + offset)}
        out.update(rest)
        return out

    return table


def _embedded_cases(report, base, dmax, budget, invariant):
    """Every superideal of base with its lex-embedding, counted on report.

    Yields (ideal, HF up to dmax, graded pieces up to dmax, embedded ideal,
    invariant(embedded ideal, its HF and graded pieces up to the accepted
    cutoff)), the last three as _embed_series returns them.  The embedding
    depends on an ideal only through its Hilbert series, so it is cached by
    the series key (h, N_J), the HF and the numerator of the ideal's tail
    J, read off its last piece by the base's _EmbeddingTable.tail(dmax,
    piece); a miss embeds from N_I = monomials.numerator_off_tail(n, h,
    N_J).  Equal keys mean equal series numerators and conversely, so the
    cache hits are those of a cache keyed by the numerator.  An error
    payload also depends on the starting cutoff, so a failing ideal is
    filed on report.failures, uncached, and not yielded.
    """
    table = _embedding_table(base)
    cache = {}
    for ideal, h, pieces in _superideals(base, dmax, budget):
        report.cases_checked += 1
        key = h, table.tail(dmax, pieces[-1])
        if key not in cache:
            target = monomials.numerator_off_tail(base.n, *key)
            embedding, err = _attempt(_embed_series, base, ideal, target)
            if err is not None:
                report.failures.append({"ideal": ideal.to_json(), **err})
                continue
            cache[key] = embedding[0], invariant(*embedding)
        yield (ideal, h, pieces, *cache[key])


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


def _sampled_cases(report, base, d, samples, seed, dmax):
    """Seeded (J, monomial source ideal or None, HF(J)) over the distracted base.

    Each sample is counted on report; see _sample_ideal_over for J, whose
    extra generators have degrees 1..dmax, so dmax must be at least 1, and
    draws over the base's variables, so it needs at least one.
    """
    if base.n < 1:
        raise InvalidInputError(f"sampled ideals need at least one variable, got n={base.n}")
    if dmax < 1:
        raise InvalidInputError(f"sampled ideals need dmax at least 1, got dmax={dmax}")
    _require_samples(samples)
    rng = random.Random(seed)
    for _ in range(samples):
        j, source = _sample_ideal_over(rng, base, d, dmax)
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
    most three variables both the enumerated ideals' and the lex targets'
    tables are read off their graded pieces by _betti_by_pieces, which
    never sees p, so p is checked first; in more, koszul_betti computes
    both.  With pure powers present and small characteristic the
    statement is an open expectation, so violations are classified as
    findings rather than failures.
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
        betti = _betti_by_pieces(base, dmax)
    else:
        def betti(ideal, _h=None, _pieces=None):
            return koszul_betti(ideal, j_max, p).as_dict()

    def target_betti(embedded, _h, _pieces):
        return betti(embedded)

    for ideal, h, pieces, embedded, target in _embedded_cases(
            report, base, dmax, budget, target_betti):
        bad = _exceeding(betti(ideal, h, pieces), target)
        if bad:
            payload = {
                "ideal": ideal.to_json(),
                "embedded": embedded.to_json(),
                "hilbert_function": list(h),
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

    table = _coh_by_pieces(window, p)
    for ideal, h, pieces, _embedded, target in _embedded_cases(
            report, base, dmax, budget, table):
        bad = _exceeding(table(ideal, h, pieces), target)
        if bad:
            report.failures.append({
                "ideal": ideal.to_json(),
                "hilbert_function": list(h),
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
    sampled ideals live over d's field.
    """
    base = base_ideal(a)
    n = base.n
    _require_valid(d)
    report = VerificationReport(
        theorem="distraction-hf-poset",
        params={"n": n, "dmax": dmax, "samples": samples, "seed": seed,
                "char": d.p, "distraction": d.to_json(), **_shakin_params(a)},
    )
    for j, source, h in _sampled_cases(report, base, d, samples, seed, dmax):
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
            back = groebner.hilbert_function(distract_ideal(d, embedded), dmax)
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
    Betti numbers live over d's field.
    """
    base = base_ideal(a)
    n, p = base.n, d.p
    _require_valid(d)
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

    target_cache = {}
    for j, _source, h in _sampled_cases(report, base, d, samples, seed, dmax):
        witness = groebner.initial_ideal(j)
        if witness.gens not in target_cache:
            embedded, err = _attempt(stable_lex_embedding, base, witness)
            target = None if err is not None else {
                "betti": koszul_betti(embedded, dmax, p).as_dict() if betti_mode else None,
                "h0_vs_embedded": h0(embedded),
                "h0_vs_distracted_embedded": h0(distract_ideal(d, embedded)),
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
