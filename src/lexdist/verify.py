"""Verification harness: enumerators, samplers and per-statement checkers.

The exhaustive checkers share one enumerator, _superideals, which builds
every ideal over a base degree by degree together with its Hilbert
function, so neither is recomputed from the graded pieces.  Each checker
replays deterministically from its recorded parameters and
seed, counts the cases it examined and collects self-contained
counterexample payloads.  A report passes iff it has no failures;
observations that the underlying statement does not claim (for instance
Betti extremality in small characteristic with pure powers present) are
classified as findings instead.
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
from .groebner import DEFAULT_CHAR, Ideal, Poly
from .homology import koszul_betti, local_coh_monomial
from .monomials import MonomialIdeal, degree_monomials, shadow_mask
from .shakin import (
    ShakinIdeal,
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
    """(ideal, Hilbert function up to dmax) for every ideal generated by the
    base and monomials of degree <= dmax.

    At degree d a graded piece is the shadow of the piece below, the base
    piece and any subset of the other degree-d monomials.  Its monomials
    outside that shadow are the ideal's degree-d minimal generators;
    appended in ascending lex order they keep the generators canonical.
    The degree-d Hilbert value is appended with them, so ideals that share
    their lower pieces share that work.  Base generators above dmax lie in
    no piece and are added to every ideal at the end.  Ideals stream in
    lexicographic order of the per-degree subsets.  Raises
    BudgetExceededError (with an upper-bound count estimate) when more than
    budget ideals would be produced.
    """
    n = base.n
    base_masks = monomials.degree_masks(base, dmax)
    above = tuple(g for g in base.gens if sum(g) > dmax)
    estimate = _count_upper_bound(n, base_masks, dmax)
    counter = [0] if budget is not None and estimate > budget else None

    def rec(d, prev, gens, hf):
        if d > dmax:
            if counter is not None:
                counter[0] += 1
                if counter[0] > budget:
                    raise BudgetExceededError(budget, estimate)
            ideal = MonomialIdeal(n, gens + above) if above else MonomialIdeal._trusted(n, gens)
            yield ideal, hf
            return
        monos = degree_monomials(n, d)
        below = shadow_mask(n, d - 1, prev) if d else 0
        forced = below | base_masks[d]
        free = [k for k in range(len(monos)) if not forced >> k & 1]
        for sub in range(1 << len(free)):
            mask = forced
            s = sub
            t = 0
            while s:
                if s & 1:
                    mask |= 1 << free[t]
                s >>= 1
                t += 1
            fresh = []
            new = mask & ~below
            while new:
                k = new.bit_length() - 1
                fresh.append(monos[k])
                new ^= 1 << k
            yield from rec(d + 1, mask, gens + tuple(fresh),
                           hf + (len(monos) - mask.bit_count(),))

    yield from rec(0, 0, (), ())


def enumerate_monomial_ideals_modulo(a, dmax: int, budget: int | None = DEFAULT_BUDGET):
    """All monomial ideals generated by a and monomials of degree <= dmax.

    Base generators above dmax are generators of every emitted ideal, so
    each one contains a.  Emits each ideal exactly once, in the order of
    _superideals, and raises BudgetExceededError as it does.
    """
    for ideal, _hf in _superideals(base_ideal(a), dmax, budget):
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


def _embedded_cases(report, base, dmax, budget, invariant):
    """Every superideal of base with its lex-embedding, counted on report.

    Yields (ideal, HF up to dmax, embedded ideal, invariant(embedded)).  The
    embedding depends on an ideal only through its Hilbert series, so it is
    cached by the series numerator.  An error payload also depends on the
    starting cutoff, so a failing ideal is filed on report.failures, uncached,
    and not yielded.
    """
    cache = {}
    for ideal, h in _superideals(base, dmax, budget):
        report.cases_checked += 1
        key = monomials.hilbert_numerator(ideal)
        if key not in cache:
            embedded, err = _attempt(stable_lex_embedding, base, ideal)
            if err is not None:
                report.failures.append({"ideal": ideal.to_json(), **err})
                continue
            cache[key] = embedded, invariant(embedded)
        yield (ideal, h, *cache[key])


def _require_samples(samples):
    if samples < 0:
        raise InvalidInputError(f"sample count must be nonnegative, got {samples}")


def _distraction_pairs(report, n, samples, seed, p):
    """Seeded (monomial ideal, distraction, distracted ideal), counted on report."""
    if n < 1:
        raise InvalidInputError(f"sampled ideals need at least one variable, got n={n}")
    _require_samples(samples)
    rng = random.Random(seed)
    for _ in range(samples):
        ideal = random_monomial_ideal(rng, n, max_degree=SAMPLE_MAX_DEGREE)
        d = random_distraction(rng, n, p, columns=SAMPLE_MAX_DEGREE + 1)
        report.cases_checked += 1
        yield ideal, d, distract_ideal(d, ideal)


def _sampled_cases(report, base, d, samples, seed, dmax, p):
    """Seeded (J, monomial source ideal or None, HF(J)) over the distracted base.

    Each sample is counted on report; see _sample_ideal_over for J.
    """
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
    for ideal, h in _superideals(base, dmax, budget):
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
    tables compared for all homological degrees and j <= dmax + 1.  With
    pure powers present and small characteristic the statement is an open
    expectation, so violations are classified as findings rather than
    failures.
    """
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

    def betti(ideal):
        return koszul_betti(ideal, j_max, p).as_dict()

    for ideal, h, embedded, target in _embedded_cases(report, base, dmax, budget, betti):
        bad = _exceeding(betti(ideal), target)
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

    Both sides are monomial, so all cohomological degrees are compared on
    the window.
    """
    base = base_ideal(a)
    n = base.n
    if window is None:
        window = (-(dmax + n), dmax)
    report = VerificationReport(
        theorem="cohomology-extremal",
        params={"n": n, "dmax": dmax, "window": list(window), "char": p,
                "budget": budget, **_shakin_params(a)},
    )

    def coh(ideal):
        return local_coh_monomial(ideal, window=window, p=p).as_dict()

    for ideal, h, _embedded, target in _embedded_cases(report, base, dmax, budget, coh):
        bad = _exceeding(coh(ideal), target)
        if bad:
            report.failures.append({
                "ideal": ideal.to_json(),
                "hilbert_function": list(h),
                "violations": bad,
            })
    return report


def verify_distraction_hf(a, d: DistractionMatrix, dmax: int,
                          sample_count: int = 100, seed: int = DEFAULT_SEED,
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
        params={"n": n, "dmax": dmax, "samples": sample_count, "seed": seed,
                "char": p, "distraction": d.to_json(), **_shakin_params(a)},
    )
    for j, source, h in _sampled_cases(report, base, d, sample_count, seed, dmax, p):
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
    for ideal, d, distracted in _distraction_pairs(report, n, samples, seed, p):
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
    for ideal, d, distracted in _distraction_pairs(report, n, samples, seed, p):
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
