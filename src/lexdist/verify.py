"""Verification harness: enumerators, samplers and per-statement checkers.

The exhaustive checkers share one enumerator, _superideals, which builds
every ideal over a base degree by degree together with its Hilbert
function and graded pieces, so neither is recomputed per ideal.  The
extremality checkers read their per-ideal work off those: the embedding
cache key and the target's series numerator (_piece_numerators, grown by
one colon step from the piece with one generator fewer), in at most
three variables the Betti tables of the ideal and of its lex target
(_betti_by_pieces), and in any number of variables the ideal's local
cohomology table, computed once per last piece (_coh_by_pieces).  Each
checker replays deterministically from its recorded parameters and seed,
counts the cases it examined and collects self-contained counterexample
payloads.  A report passes iff it has no failures; observations that the
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
    _minus_shifted,
    binom,
    degree_monomials,
    mask_to_monomials,
    series_transform,
    shadow_mask,
    shadow_table,
)
from .shakin import (
    ShakinIdeal,
    _embed_series,
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

def _count_upper_bound(n, base_masks, dmax) -> int:
    est = 1
    prev = 0
    for d in range(dmax + 1):
        forced = (shadow_mask(n, d - 1, prev) if d else 0) | base_masks[d]
        est <<= len(degree_monomials(n, d)) - forced.bit_count()
        prev = forced
    return est


def _superideals(base: MonomialIdeal, dmax: int, budget=None):
    """(ideal, Hilbert function up to dmax, graded pieces up to dmax) for
    every ideal generated by the base and monomials of degree <= dmax.

    At degree d a graded piece is the shadow of the piece below, the base
    piece and any subset of the other degree-d monomials.  Its monomials
    outside that shadow are the ideal's degree-d minimal generators;
    appended in ascending lex order they keep the generators canonical.
    The degree-d Hilbert value and the piece (as a bitmask over
    degree_monomials) are appended with them, so ideals that share their
    lower pieces share that work.  Base generators above dmax lie in no
    piece and are added to every ideal at the end.  Ideals stream in
    lexicographic order of the per-degree subsets.  Raises
    BudgetExceededError (with an upper-bound count estimate) when more than
    budget ideals would be produced.
    """
    if dmax < 0:
        raise InvalidInputError("dmax must be nonnegative")
    if budget is not None and budget < 0:
        raise InvalidInputError(f"budget must be nonnegative, got {budget}")
    n = base.n
    base_masks = monomials.degree_masks(base, dmax)
    above = tuple(g for g in base.gens if sum(g) > dmax)
    estimate = _count_upper_bound(n, base_masks, dmax)
    counter = [0] if budget is not None and estimate > budget else None

    def rec(d, gens, hf, pieces):
        if d > dmax:
            if counter is not None:
                counter[0] += 1
                if counter[0] > budget:
                    raise BudgetExceededError(budget, estimate)
            ideal = MonomialIdeal(n, gens + above) if above else MonomialIdeal._trusted(n, gens)
            yield ideal, hf, pieces
            return
        monos = degree_monomials(n, d)
        below = shadow_mask(n, d - 1, pieces[-1]) if d else 0
        forced = below | base_masks[d]
        free = ((1 << len(monos)) - 1) & ~forced
        sub = 0
        while True:
            mask = forced | sub
            fresh = []
            new = mask & ~below
            while new:
                k = new.bit_length() - 1
                fresh.append(monos[k])
                new ^= 1 << k
            yield from rec(d + 1, gens + tuple(fresh),
                           hf + (len(monos) - mask.bit_count(),), pieces + (mask,))
            if sub == free:
                break
            sub = (sub - free) & free  # the next larger submask of free

    yield from rec(0, (), (), ())


def enumerate_monomial_ideals_modulo(a, dmax: int, budget: int | None = DEFAULT_BUDGET):
    """All monomial ideals generated by a and monomials of degree <= dmax.

    Base generators above dmax are generators of every emitted ideal, so
    each one contains a.  Emits each ideal exactly once, in the order of
    _superideals, and raises BudgetExceededError as it does.
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
        forced = (shadow_mask(n, d - 1, prev) if d else 0) | base_masks[d]
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


def _sample_ideal_over(rng, base: MonomialIdeal, d: DistractionMatrix,
                       dmax: int, p: int):
    """A homogeneous ideal containing the distracted base, plus its source.

    Returns (J, monomial source ideal or None): either the distraction of a
    random monomial ideal over the base, or the distracted base plus up to
    two random homogeneous elements.
    """
    if rng.random() < 0.5:
        source = _chain_ideal(base, random_superideal_chain(rng, base, dmax))
        return distract_ideal(d, source), source
    extras = [
        random_homogeneous_poly(rng, base.n, rng.randint(1, dmax), p)
        for _ in range(rng.randint(1, 2))
    ]
    da = distract_ideal(d, base)
    return Ideal(base.n, list(da.gens) + extras, p), None


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


def _piece_numerators(base, dmax):
    """A function piece -> the Hilbert-series numerator of J, where J is
    generated by a degree-dmax piece (a bitmask) and the base generators
    above dmax.

    A superideal I of base with HF h up to dmax and that last piece agrees
    with J from degree dmax on, so (h, N_J) is a key of I's Hilbert series
    (see _ideal_numerator).  N_J is grown one generator at a time: with m
    the monomial of the piece's highest bit and J' the ideal of the piece
    without it, N_J = N_J' - t^dmax N(J' : m) (Bayer-Stillman 1992,
    Bigatti 1997), one colon step through the memo monomials._numerator.
    The empty piece starts from the generators above dmax.  Numerators are
    memoised by piece for the life of the function, with every smaller
    piece met on the way down.
    """
    n = base.n
    above = [g for g in base.gens if sum(g) > dmax]
    monos = degree_monomials(n, dmax)
    numerators = {0: monomials.hilbert_numerator(MonomialIdeal(n, above))}

    def numerator(piece):
        num = numerators.get(piece)
        if num is not None:
            return num
        grown = []
        while piece not in numerators:
            grown.append(piece)
            piece ^= 1 << piece.bit_length() - 1
        num = numerators[piece]
        for piece in reversed(grown):
            k = piece.bit_length() - 1
            num = monomials._plus_generator(
                num, mask_to_monomials(n, dmax, piece ^ 1 << k) + above, monos[k])
            while num and not num[-1]:
                num.pop()
            num = numerators[piece] = tuple(num)
        return num

    return numerator


def _ideal_numerator(n, h, num):
    """N_I off the series key (h, N_J) of _piece_numerators.

    J is zero below dmax = len(h) - 1, so
    N_I = N_J - (1-t)^n * sum_{d<dmax} (dim S_d - h_d) t^d; the key
    determines N_I and is determined by it.
    """
    deficit = [len(degree_monomials(n, d)) - v for d, v in enumerate(h[:-1])]
    out = _minus_shifted(num, series_transform(deficit + [0] * n, n), 0)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


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
            h = tuple(len(degree_monomials(n, d)) - mask.bit_count()
                      for d, mask in enumerate(pieces))
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


def _coh_by_pieces(dmax, window, p):
    """A function (ideal, h, pieces) -> {(i, j): dim H^i_m(A/I)_j} over the
    window, nonzero values only in ascending (i, j), for a superideal I of
    a base with HF h and graded pieces up to dmax, as _superideals yields
    it.

    With J as in _piece_numerators, I/J has finite length, and a
    submodule of finite length changes only H^0 (Brodmann-Sharp, ch. 2):
    0 -> I/J -> A/J -> A/I -> 0 gives H^i(A/I) = H^i(A/J) for i >= 1 and
    h^0(A/I)_j - h_j = h^0(A/J)_j - HF(A/J)_j for every j.  So
    local_coh_monomial runs on the first superideal met with each last
    piece, over Z/p, and every later one is read off it.  The memo keeps
    per last piece the offsets h^0_j - h_j for 0 <= j < dmax in the window
    and the other nonzero cells in ascending (i, j), for the life of the
    function.  Last pieces with equal entries share one: over (x1^2) in
    four variables at dmax 3, 65 536 last pieces have 321 distinct ones.
    """
    jmin, jmax = window
    low = range(max(jmin, 0), min(jmax, dmax - 1) + 1)
    heads = [(0, j) for j in low]
    memo = {}
    shared = {}

    def table(ideal, h, pieces):
        got = memo.get(pieces[-1])
        if got is None:
            entries = local_coh_monomial(ideal, window=window, p=p).entries
            coh = dict(entries)
            got = (tuple(coh.get(head, 0) - h[j] for head, j in zip(heads, low)),
                   tuple((key, v) for key, v in entries if key[0] or key[1] not in low))
            got = memo[pieces[-1]] = shared.setdefault(got, got)
        offsets, rest = got
        out = {head: v for head, j, offset in zip(heads, low, offsets)
               if (v := h[j] + offset)}
        out.update(rest)
        return out

    return table


def _embedded_cases(report, base, dmax, budget, invariant, numerator):
    """Every superideal of base with its lex-embedding, counted on report.

    Yields (ideal, HF up to dmax, graded pieces up to dmax, embedded ideal,
    invariant(embedded)).  The embedding depends on an ideal only through
    its Hilbert series, so it is cached by the series key (h, N_J), read
    off the HF and the last piece through numerator, which is
    _piece_numerators(base, dmax); a miss embeds from the N_I that the key
    gives.  Equal keys mean equal series numerators and conversely, so the
    cache hits are those of a cache keyed by the numerator.  An error
    payload also depends on the starting cutoff, so a failing ideal is
    filed on report.failures, uncached, and not yielded.
    """
    cache = {}
    for ideal, h, pieces in _superideals(base, dmax, budget):
        report.cases_checked += 1
        key = h, numerator(pieces[-1])
        if key not in cache:
            embedded, err = _attempt(_embed_series, base, ideal, _ideal_numerator(base.n, *key))
            if err is not None:
                report.failures.append({"ideal": ideal.to_json(), **err})
                continue
            cache[key] = embedded, invariant(embedded)
        yield (ideal, h, pieces, *cache[key])


def _require_samples(samples):
    if samples < 0:
        raise InvalidInputError(f"sample count must be nonnegative, got {samples}")


def _distraction_pairs(report, n, samples, seed, dmax, p):
    """Seeded (monomial ideal, distraction, distracted ideal), counted on report."""
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


def _sampled_cases(report, base, d, samples, seed, dmax, p):
    """Seeded (J, monomial source ideal or None, HF(J)) over the distracted base.

    Each sample is counted on report; see _sample_ideal_over for J, whose
    extra generators have degrees 1..dmax, so dmax must be at least 1.
    """
    if dmax < 1:
        raise InvalidInputError(f"sampled ideals need dmax at least 1, got dmax={dmax}")
    _require_samples(samples)
    rng = random.Random(seed)
    for _ in range(samples):
        j, source = _sample_ideal_over(rng, base, d, dmax, p)
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
    are legitimate counterexamples and are recorded.
    """
    base = base_ideal(a)
    n = base.n
    report = VerificationReport(
        theorem="macaulay-lex",
        params={"n": n, "dmax": dmax, "budget": budget, **_shakin_params(a)},
    )
    if not isinstance(a, ShakinIdeal):
        report.notes.append("base ideal not supplied as Shakin data; escape hatch")
    cache = {}
    for ideal, h, _pieces in _superideals(base, dmax, budget):
        report.cases_checked += 1
        verdict = cache.get(h)
        if verdict is None:
            masks, err = _attempt(embedded_masks, base, h, dmax)
            if err is not None:
                verdict = err
            else:
                got = tuple(len(degree_monomials(n, d)) - mask.bit_count()
                            for d, mask in enumerate(masks))
                verdict = {} if got == h else {"error": "hf-mismatch", "embedded_hf": got}
            cache[h] = verdict
        if verdict:
            report.failures.append({
                "ideal": ideal.to_json(),
                "hilbert_function": list(h),
                **verdict,
            })
    report.notes.append(f"distinct Hilbert functions: {len(cache)}")
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

    numerator = _piece_numerators(base, dmax)
    for ideal, h, pieces, embedded, target in _embedded_cases(
            report, base, dmax, budget, betti, numerator):
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
    all cohomological degrees are compared on the window.  The lex targets
    go through local_coh_monomial, one per series key; the enumerated
    ideals are read off the first superideal with the same last piece by
    _coh_by_pieces.
    """
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

    def coh(ideal):
        return local_coh_monomial(ideal, window=window, p=p).as_dict()

    table = _coh_by_pieces(dmax, window, p)
    for ideal, h, pieces, _embedded, target in _embedded_cases(
            report, base, dmax, budget, coh, _piece_numerators(base, dmax)):
        bad = _exceeding(table(ideal, h, pieces), target)
        if bad:
            report.failures.append({
                "ideal": ideal.to_json(),
                "hilbert_function": list(h),
                "violations": bad,
            })
    return report


def verify_distraction_hf(a, d: DistractionMatrix, dmax: int,
                          samples: int = 100, seed: int = DEFAULT_SEED,
                          p: int = DEFAULT_CHAR) -> VerificationReport:
    """Hilbert functions over the distracted ring embed over the original ring.

    Samples ideals containing the distracted base (distractions of monomial
    superideals plus randomly fattened ones) and requires their quotient
    Hilbert functions to be admissible over the base; the reverse inclusion
    is witnessed constructively by distracting embedded ideals.
    """
    base = base_ideal(a)
    n = base.n
    _require_valid(d)
    report = VerificationReport(
        theorem="distraction-hf-poset",
        params={"n": n, "dmax": dmax, "samples": samples, "seed": seed,
                "char": p, "distraction": d.to_json(), **_shakin_params(a)},
    )
    for j, source, h in _sampled_cases(report, base, d, samples, seed, dmax, p):
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
                              samples: int = 50, seed: int = DEFAULT_SEED,
                              p: int = DEFAULT_CHAR) -> VerificationReport:
    """Extremality of the distraction-induced embedding on sampled ideals.

    For sampled ideals J containing the distracted base: Betti numbers are
    bounded by the embedded target (requires no pure powers, the stated
    hypothesis), and degree-0 local cohomology is bounded against both the
    lex-embedded target and its distraction.
    """
    base = base_ideal(a)
    n = base.n
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
    for j, _source, h in _sampled_cases(report, base, d, samples, seed, dmax, p):
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
