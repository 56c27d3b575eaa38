"""Verification harness: enumerators, samplers and per-statement checkers.

Each checker replays deterministically from its recorded parameters and
seed, counts the cases it examined and collects self-contained
counterexample payloads.  A report passes iff it has no failures;
observations that the underlying statement does not claim (for instance
Betti extremality in small characteristic with pure powers present) are
classified as findings instead.
"""

from __future__ import annotations

import random
import time
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
    InternalContradictionError,
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


@dataclass
class VerificationReport:
    """Replayable outcome of one verification run."""

    theorem: str
    params: dict
    cases_checked: int = 0
    failures: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self, include_runtime: bool = False) -> dict:
        data = {
            "theorem": self.theorem,
            "params": self.params,
            "cases_checked": self.cases_checked,
            "failures": self.failures,
            "findings": self.findings,
            "notes": self.notes,
            "passed": self.passed,
        }
        if include_runtime:
            data["runtime_s"] = round(self.runtime_s, 3)
        return data


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


def _chain_stream(n, base_masks, dmax, budget=None):
    """All graded chains of monomial sets containing the base, as bitmasks.

    A chain (M_0, ..., M_dmax) with M_{d+1} containing both the shadow of
    M_d and the base piece corresponds to exactly one monomial ideal with
    generators of degree <= dmax containing the base ideal.  Chains stream
    in lexicographic order of the per-degree added-bit masks.
    """
    totals = [len(degree_monomials(n, d)) for d in range(dmax + 1)]
    estimate = _count_upper_bound(n, base_masks, dmax)
    if budget is not None and estimate > budget:
        counter = [0]
    else:
        counter = None

    def rec(d, prev, chain):
        if d > dmax:
            if counter is not None:
                counter[0] += 1
                if counter[0] > budget:
                    raise BudgetExceededError(budget, estimate)
            yield chain
            return
        forced = (shadow_mask(n, d - 1, prev) if d else 0) | base_masks[d]
        free = [k for k in range(totals[d]) if not forced >> k & 1]
        for sub in range(1 << len(free)):
            mask = forced
            s = sub
            t = 0
            while s:
                if s & 1:
                    mask |= 1 << free[t]
                s >>= 1
                t += 1
            yield from rec(d + 1, mask, chain + (mask,))

    yield from rec(0, 0, ())


def enumerate_monomial_ideals_modulo(a, dmax: int, budget: int | None = DEFAULT_BUDGET):
    """All monomial ideals containing a, generated in degrees <= dmax.

    Emits each ideal exactly once, in the canonical chain order of
    _chain_stream.  Raises BudgetExceededError (with an upper-bound count
    estimate) when more than budget ideals would be produced.
    """
    base = base_ideal(a)
    base_masks = monomials.degree_masks(base, dmax)
    for chain in _chain_stream(base.n, base_masks, dmax, budget):
        yield monomials.masks_to_ideal(base.n, list(chain))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def random_monomial_ideal(rng, n, max_degree=4, max_gens=6,
                          containing: MonomialIdeal | None = None) -> MonomialIdeal:
    """Seeded random monomial ideal (minimalized), optionally over a base."""
    gens = list(containing.gens) if containing is not None else []
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


def _sample_ideal_over(rng, base: MonomialIdeal, d: DistractionMatrix,
                       dmax: int, p: int):
    """A homogeneous ideal containing the distracted base, plus its source.

    Returns (J, monomial chain or None): either the distraction of a random
    monomial ideal over the base, or the distracted base plus up to two
    random homogeneous elements.
    """
    if rng.random() < 0.5:
        chain = random_superideal_chain(rng, base, dmax)
        src = monomials.masks_to_ideal(base.n, chain)
        return distract_ideal(d, src), chain
    extras = [
        random_homogeneous_poly(rng, base.n, rng.randint(1, dmax), p)
        for _ in range(rng.randint(1, 2))
    ]
    da = distract_ideal(d, base)
    return Ideal(base.n, list(da.gens) + extras, p), None


# ---------------------------------------------------------------------------
# helpers shared by the checkers
# ---------------------------------------------------------------------------

def _hf_of_chain(n, chain):
    return tuple(
        len(degree_monomials(n, d)) - mask.bit_count()
        for d, mask in enumerate(chain)
    )


def _extend_chain(n, chain, upto):
    masks = list(chain)
    for d in range(len(chain) - 1, upto):
        masks.append(shadow_mask(n, d, masks[d]))
    return masks


def _embed_chain(base, values, dmax):
    """(masks, error payload) for the lex-embedding of values over base."""
    try:
        return embedded_masks(base, values, dmax), None
    except NotAdmissibleError as exc:
        return None, {
            "error": type(exc).__name__,
            "degree": exc.degree,
            "message": str(exc),
        }


def _stable_embed(base, ideal):
    """(embedded ideal, error payload) for the full lex-embedding of ideal."""
    try:
        return stable_lex_embedding(base, ideal), None
    except NotAdmissibleError as exc:
        return None, {
            "error": type(exc).__name__,
            "degree": exc.degree,
            "message": str(exc),
        }


def _betti_leq(small, big):
    """Entries of small exceeding big, as payload rows."""
    bigd = big.as_dict()
    bad = []
    for key, v in small.as_dict().items():
        if v > bigd.get(key, 0):
            bad.append({"i": key[0], "j": key[1], "left": v, "right": bigd.get(key, 0)})
    return bad


def _shakin_params(a):
    if isinstance(a, ShakinIdeal):
        return {"shakin": a.to_json(), "pure_powers": list(a.power_degrees)}
    return {"base_ideal": base_ideal(a).to_json(), "pure_powers": None}


# ---------------------------------------------------------------------------
# theorem checkers
# ---------------------------------------------------------------------------

def verify_macaulay_lex(a, dmax: int, budget: int | None = DEFAULT_BUDGET) -> VerificationReport:
    """Every superideal Hilbert function embeds to a lex ideal with equal HF.

    Exhaustive over monomial ideals containing the base, generated in
    degrees <= dmax.  For a Shakin base a failure would contradict the
    Macaulay-lex property; for an arbitrary base (escape hatch) failures
    are legitimate counterexamples and are recorded.
    """
    t0 = time.perf_counter()
    base = base_ideal(a)
    n = base.n
    report = VerificationReport(
        theorem="macaulay-lex",
        params={"n": n, "dmax": dmax, "budget": budget, **_shakin_params(a)},
    )
    if not isinstance(a, ShakinIdeal):
        report.notes.append("base ideal not supplied as Shakin data; escape hatch")
    base_masks = monomials.degree_masks(base, dmax)
    cache = {}
    for chain in _chain_stream(n, base_masks, dmax, budget):
        report.cases_checked += 1
        h = _hf_of_chain(n, chain)
        verdict = cache.get(h)
        if verdict is None:
            masks, err = _embed_chain(base, h, dmax)
            if err is not None:
                verdict = err
            elif _hf_of_chain(n, masks) != h:
                verdict = {"error": "hf-mismatch", "embedded_hf": _hf_of_chain(n, masks)}
            else:
                verdict = {}
            cache[h] = verdict
        if verdict:
            report.failures.append({
                "ideal": monomials.masks_to_ideal(n, list(chain)).to_json(),
                "hilbert_function": list(h),
                **verdict,
            })
    report.notes.append(f"distinct Hilbert functions: {len(cache)}")
    report.runtime_s = time.perf_counter() - t0
    return report


def verify_betti_extremal(a, dmax: int, budget: int | None = DEFAULT_BUDGET,
                          p: int = DEFAULT_CHAR, j_max: int | None = None) -> VerificationReport:
    """Graded Betti numbers are maximized by the embedded ideal.

    Exhaustive over monomial superideals generated in degrees <= dmax;
    tables compared for all homological degrees and j <= j_max (default
    dmax + 1).  With pure powers present and small characteristic the
    statement is an open expectation, so violations are classified as
    findings rather than failures.
    """
    t0 = time.perf_counter()
    base = base_ideal(a)
    n = base.n
    j_max = dmax + 1 if j_max is None else j_max
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
    from .homology import _koszul_monomial, _table

    base_masks = monomials.degree_masks(base, dmax)
    # Hilbert-series numerator -> (embedded ideal, its Betti table).  The
    # embedding depends on the ideal only through its series, but an error
    # payload also depends on the starting cutoff, so failures stay uncached.
    cache = {}
    for chain in _chain_stream(n, base_masks, dmax, budget):
        report.cases_checked += 1
        h = _hf_of_chain(n, chain)
        ideal = monomials.masks_to_ideal(n, list(chain))
        key = monomials.hilbert_numerator(ideal)
        if key not in cache:
            embedded, err = _stable_embed(base, ideal)
            if err is not None:
                report.failures.append({"ideal": ideal.to_json(), **err})
                continue
            cache[key] = embedded, koszul_betti(embedded, j_max, p)
        embedded, target = cache[key]
        imasks = _extend_chain(n, chain, j_max + 1)
        mine = _table(n, j_max, _koszul_monomial(n, imasks, j_max, p), p)
        bad = _betti_leq(mine, target)
        if bad:
            payload = {
                "ideal": ideal.to_json(),
                "embedded": embedded.to_json(),
                "hilbert_function": list(h),
                "violations": bad,
            }
            (report.findings if as_finding else report.failures).append(payload)
    report.runtime_s = time.perf_counter() - t0
    return report


def verify_coh_extremal(a, dmax: int, window=None,
                        budget: int | None = DEFAULT_BUDGET,
                        p: int = DEFAULT_CHAR) -> VerificationReport:
    """Local cohomology Hilbert functions are maximized by the embedded ideal.

    Both sides are monomial, so all cohomological degrees are compared on
    the window.
    """
    t0 = time.perf_counter()
    base = base_ideal(a)
    n = base.n
    if window is None:
        window = (-(dmax + n), dmax)
    report = VerificationReport(
        theorem="cohomology-extremal",
        params={"n": n, "dmax": dmax, "window": list(window), "char": p,
                "budget": budget, **_shakin_params(a)},
    )
    base_masks = monomials.degree_masks(base, dmax)
    table_cache = {}  # Hilbert-series numerator -> table of the embedded ideal
    for chain in _chain_stream(n, base_masks, dmax, budget):
        report.cases_checked += 1
        h = _hf_of_chain(n, chain)
        ideal = monomials.masks_to_ideal(n, list(chain))
        key = monomials.hilbert_numerator(ideal)
        if key not in table_cache:
            embedded, err = _stable_embed(base, ideal)
            if err is not None:
                report.failures.append({"ideal": ideal.to_json(), **err})
                continue
            table_cache[key] = local_coh_monomial(embedded, window=window, p=p)
        target = table_cache[key]
        mine = local_coh_monomial(ideal, window=window, p=p)
        bad = []
        for (i, j), v in mine.as_dict().items():
            if v > target[i, j]:
                bad.append({"i": i, "j": j, "left": v, "right": target[i, j]})
        if bad:
            report.failures.append({
                "ideal": ideal.to_json(),
                "hilbert_function": list(h),
                "violations": bad,
            })
    report.runtime_s = time.perf_counter() - t0
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
    t0 = time.perf_counter()
    base = base_ideal(a)
    n = base.n
    ok, witness = validate_distraction(d)
    if not ok:
        raise InvalidInputError(f"invalid distraction, witness {witness}")
    report = VerificationReport(
        theorem="distraction-hf-poset",
        params={"n": n, "dmax": dmax, "samples": sample_count, "seed": seed,
                "char": p, "distraction": d.to_json(), **_shakin_params(a)},
    )
    rng = random.Random(seed)
    for _ in range(sample_count):
        j, chain = _sample_ideal_over(rng, base, d, dmax, p)
        h = groebner.hilbert_function(j, dmax)
        report.cases_checked += 1
        masks, err = _embed_chain(base, h, dmax)
        if err is not None:
            report.failures.append({
                "ideal": j.to_json(),
                "hilbert_function": list(h),
                **err,
            })
            continue
        if chain is not None:
            # reverse inclusion: the embedded ideal distracts to the same HF
            embedded = monomials.masks_to_ideal(n, masks)
            back = groebner.hilbert_function(distract_ideal(d, embedded), dmax)
            report.cases_checked += 1
            if back != h:
                report.failures.append({
                    "embedded": embedded.to_json(),
                    "expected_hf": list(h),
                    "distracted_hf": list(back),
                    "error": "reverse-inclusion",
                })
    report.runtime_s = time.perf_counter() - t0
    return report


def epsilon_d(a, d: DistractionMatrix, values, dmax: int | None = None) -> Ideal:
    """The distraction-induced embedding: distract the lex-embedded ideal.

    Postcondition (checked): the quotient Hilbert function of the result
    equals values up to dmax.
    """
    values = tuple(values)
    if dmax is None:
        dmax = len(values) - 1
    embedded = lex_embed(a, values, dmax)
    out = distract_ideal(d, embedded)
    got = groebner.hilbert_function(out, dmax)
    if got != values[:dmax + 1]:
        raise InternalContradictionError(
            f"distracted embedded ideal has HF {got}, expected {values[:dmax + 1]}"
        )
    return out


def verify_betti_distraction_invariance(n: int, samples: int = 50, dmax: int = 5,
                                        seed: int = DEFAULT_SEED,
                                        p: int = DEFAULT_CHAR,
                                        max_degree: int = 4) -> VerificationReport:
    """Graded Betti numbers of a monomial ideal match those of any distraction."""
    t0 = time.perf_counter()
    report = VerificationReport(
        theorem="betti-distraction-invariance",
        params={"n": n, "dmax": dmax, "samples": samples, "seed": seed,
                "char": p, "max_degree": max_degree},
    )
    rng = random.Random(seed)
    for _ in range(samples):
        ideal = random_monomial_ideal(rng, n, max_degree=max_degree)
        d = random_distraction(rng, n, p, columns=max_degree + 1)
        left = koszul_betti(ideal, dmax, p)
        right = koszul_betti(distract_ideal(d, ideal), dmax, p)
        report.cases_checked += 1
        if left.as_dict() != right.as_dict():
            report.failures.append({
                "ideal": ideal.to_json(),
                "distraction": d.to_json(),
                "betti_monomial": left.to_json(),
                "betti_distracted": right.to_json(),
            })
    report.runtime_s = time.perf_counter() - t0
    return report


def verify_codistra_h0(n: int, samples: int = 100, dmax: int = 6,
                       seed: int = DEFAULT_SEED, p: int = DEFAULT_CHAR,
                       max_degree: int = 4) -> VerificationReport:
    """H^0 Hilbert functions never drop under distraction (degree 0 slice)."""
    t0 = time.perf_counter()
    report = VerificationReport(
        theorem="codistra-h0",
        params={"n": n, "dmax": dmax, "samples": samples, "seed": seed,
                "char": p, "max_degree": max_degree},
    )
    rng = random.Random(seed)
    for _ in range(samples):
        ideal = random_monomial_ideal(rng, n, max_degree=max_degree)
        d = random_distraction(rng, n, p, columns=max_degree + 1)
        left = groebner.h0_hilbert_function(ideal, dmax)
        right = groebner.h0_hilbert_function(distract_ideal(d, ideal), dmax)
        report.cases_checked += 1
        bad = [
            {"j": j, "left": a_, "right": b_}
            for j, (a_, b_) in enumerate(zip(left, right))
            if a_ > b_
        ]
        if bad:
            report.failures.append({
                "ideal": ideal.to_json(),
                "distraction": d.to_json(),
                "h0_monomial": list(left),
                "h0_distracted": list(right),
                "violations": bad,
            })
    report.runtime_s = time.perf_counter() - t0
    return report


def verify_epsilon_d_extremal(a, d: DistractionMatrix, dmax: int,
                              samples: int = 50, seed: int = DEFAULT_SEED,
                              p: int = DEFAULT_CHAR,
                              include_betti: bool = True) -> VerificationReport:
    """Extremality of the distraction-induced embedding on sampled ideals.

    For sampled ideals J containing the distracted base: Betti numbers are
    bounded by the embedded target (requires no pure powers, the stated
    hypothesis), and degree-0 local cohomology is bounded against both the
    lex-embedded target and its distraction.
    """
    t0 = time.perf_counter()
    base = base_ideal(a)
    n = base.n
    report = VerificationReport(
        theorem="epsilon-d-extremal",
        params={"n": n, "dmax": dmax, "samples": samples, "seed": seed,
                "char": p, "include_betti": include_betti,
                "distraction": d.to_json(), **_shakin_params(a)},
    )
    betti_mode = include_betti
    if betti_mode and isinstance(a, ShakinIdeal) and a.has_pure_powers:
        betti_mode = False
        report.notes.append(
            "betti mode rejected: pure powers present violate the P=0 hypothesis"
        )
    rng = random.Random(seed)
    target_cache = {}
    for _ in range(samples):
        j, _chain = _sample_ideal_over(rng, base, d, dmax, p)
        h = groebner.hilbert_function(j, dmax)
        report.cases_checked += 1
        witness = groebner.initial_ideal(j)
        if witness.gens not in target_cache:
            embedded, err = _stable_embed(base, witness)
            if err is not None:
                report.failures.append({"hilbert_function": list(h), **err})
                target_cache[witness.gens] = None
                continue
            target_cache[witness.gens] = {
                "embedded": embedded,
                "betti": koszul_betti(embedded, dmax, p) if betti_mode else None,
                "h0": groebner.h0_hilbert_function(embedded, dmax),
                "h0_distracted": groebner.h0_hilbert_function(
                    distract_ideal(d, embedded), dmax),
            }
        target = target_cache[witness.gens]
        if target is None:
            continue
        payload = {"ideal": j.to_json(), "hilbert_function": list(h)}
        bad = False
        if betti_mode:
            viol = _betti_leq(koszul_betti(j, dmax, p), target["betti"])
            if viol:
                payload["betti_violations"] = viol
                bad = True
        h0 = groebner.h0_hilbert_function(j, dmax)
        for label, bound in (("h0_vs_embedded", target["h0"]),
                             ("h0_vs_distracted_embedded", target["h0_distracted"])):
            viol = [
                {"j": jj, "left": x, "right": y}
                for jj, (x, y) in enumerate(zip(h0, bound))
                if x > y
            ]
            if viol:
                payload[label] = viol
                bad = True
        if bad:
            report.failures.append(payload)
    report.runtime_s = time.perf_counter() - t0
    return report
