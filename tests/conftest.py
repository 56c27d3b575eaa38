"""Shared brute-force oracles, kept independent of the library internals,
and the few test-only helpers built on the library's public types."""

import bisect
import heapq
import itertools
from math import comb

import pytest

from lexdist.groebner import Ideal, Poly
from lexdist.monomials import MonomialOrder, degree_masks, piece_values

LARGE_P = 4294967311  # prime above 2**32
HUGE_P = 18446744073709551629  # prime above 2**64


def all_monomials(n, d):
    """Every degree-d exponent vector, by direct enumeration."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return sorted(set(out))


def brute_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def brute_in_ideal(gens, m):
    return any(brute_divides(g, m) for g in gens)


def brute_hilbert(gens, n, dmax):
    """Quotient Hilbert function by counting non-multiples degree by degree."""
    values = []
    for d in range(dmax + 1):
        count = sum(1 for m in all_monomials(n, d) if not brute_in_ideal(gens, m))
        values.append(count)
    return tuple(values)


def brute_standard_monomials(gens, n, d):
    """Standard monomials in descending lex order, via explicit sorting."""
    monos = [m for m in all_monomials(n, d) if not brute_in_ideal(gens, m)]
    return sorted(monos, reverse=True)


def series_multiply(a, b, upto):
    """Coefficients of the product of two truncated series."""
    return tuple(
        sum(a[i] * b[d - i] for i in range(d + 1) if i < len(a) and d - i < len(b))
        for d in range(upto + 1)
    )


def geometric_inverse_coeffs(r, upto):
    """Coefficients of 1/(1-z)^r: C(d+r-1, r-1)."""
    return tuple(comb(d + r - 1, r - 1) for d in range(upto + 1))


def brute_rank_mod(rows, p):
    """Rank over F_p by Gaussian elimination on Python ints (exact for any p)."""
    rows = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def brute_compose_linear(terms, images, p):
    """Terms of f(images) mod p, where f is {exponents: coefficient} and
    images[i], the image of x_{i+1}, is a linear form's coefficient list;
    each term is expanded one linear factor at a time."""
    n = len(images)
    out = {}
    for exps, c in terms.items():
        product = {(0,) * n: c}
        for i, k in enumerate(exps):
            for _ in range(k):
                grown = {}
                for e, a in product.items():
                    for j, b in enumerate(images[i]):
                        if b:
                            key = e[:j] + (e[j] + 1,) + e[j + 1:]
                            grown[key] = grown.get(key, 0) + a * b
                product = grown
        for e, a in product.items():
            out[e] = out.get(e, 0) + a
    return {e: a % p for e, a in out.items() if a % p}


def brute_normal_form(terms, basis, p, key):
    """Remainder of terms, an {exponents: coefficient} dict, by basis, a list
    of (lead, monic dict) pairs.  Pending terms sit in an ascending list of
    (order key, exponents); the largest is divided by the first basis
    element whose lead divides it."""
    work = dict(terms)
    pending = sorted((key(e), e) for e in work)
    rem = {}
    while pending:
        exps = pending.pop()[1]
        c = work.pop(exps) % p
        if not c:
            continue
        for lead, g in basis:
            if brute_divides(lead, exps):
                shift = tuple(b - a for a, b in zip(lead, exps))
                for e, a in g.items():
                    k = tuple(x + y for x, y in zip(e, shift))
                    if k == exps:
                        continue
                    if k not in work:
                        bisect.insort(pending, (key(k), k))
                    work[k] = (work.get(k, 0) - c * a) % p
                break
        else:
            rem[exps] = c
    return rem


def brute_buchberger(polys, p, order):
    """Reduced Groebner basis by Buchberger's algorithm on exponent tuples.

    polys are {exponents: coefficient} dicts.  Pairs go by least lcm degree,
    with the coprime and chain criteria; the basis found is then made
    minimal and each element reduced by the others.  Returns monic dicts,
    largest lead first.
    """
    key = order.key

    def monic(f):
        lead = max(f, key=key)
        inv = pow(f[lead], -1, p)
        return lead, {e: c * inv % p for e, c in f.items()}

    G = sorted((monic(f) for f in polys if any(c % p for c in f.values())),
               key=lambda g: key(g[0]))
    pairs = []
    done = set()

    def push(i, j):
        l = tuple(map(max, G[i][0], G[j][0]))
        heapq.heappush(pairs, (sum(l), l, i, j))

    for j in range(len(G)):
        for i in range(j):
            push(i, j)
    while pairs:
        _, l, i, j = heapq.heappop(pairs)
        done.add((i, j))
        (li, fi), (lj, fj) = G[i], G[j]
        if l == tuple(a + b for a, b in zip(li, lj)):
            continue
        if any(k not in (i, j) and brute_divides(G[k][0], l)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k in range(len(G))):
            continue
        s = {}
        for lead, f, sign in ((li, fi, 1), (lj, fj, -1)):
            for e, c in f.items():
                k = tuple(x + y - z for x, y, z in zip(e, l, lead))
                s[k] = s.get(k, 0) + sign * c
        r = brute_normal_form(s, G, p, key)
        if r:
            G.append(monic(r))
            for i in range(len(G) - 1):
                push(i, len(G) - 1)
    minimal = []
    for lead, f in sorted(G, key=lambda g: key(g[0])):
        if not any(brute_divides(m, lead) for m, _ in minimal):
            minimal.append((lead, f))
    reduced = [(lead, {lead: 1, **brute_normal_form({e: c for e, c in f.items() if e != lead},
                                                    minimal, p, key)})
               for lead, f in minimal]
    return [f for _, f in sorted(reduced, key=lambda g: key(g[0]), reverse=True)]


def brute_validate_distraction(rows, p):
    """(ok, witness) of the span condition by ranking every selection.

    Selections take one distinct entry per row, each at its first column,
    in itertools.product order; the witness is the first singular one.
    """
    per_row = []
    for row in rows:
        first = {}
        for j, entry in enumerate(row):
            first.setdefault(tuple(entry), j)
        per_row.append(list(first.items()))
    for combo in itertools.product(*per_row):
        if brute_rank_mod([entry for entry, _ in combo], p) < len(rows):
            return False, [(i, j) for i, (_, j) in enumerate(combo)]
    return True, None


def naive_distract(d, m):
    """The distraction of the monomial m as the product of its linear forms,
    one tuple-keyed Poly factor l_{i,j} at a time (j <= a_i)."""
    from lexdist.groebner import Poly
    from lexdist.monomials import variable

    out = Poly(d.n, d.p, {(0,) * d.n: 1})
    for i, a in enumerate(m):
        for j in range(a):
            out = out * Poly(d.n, d.p, {variable(d.n, k): c
                                        for k, c in enumerate(d.entry(i, j))})
    return out


def brute_reduced_homology(faces, p):
    """{k: dim H~_k} over F_p, nonzero dims only, of the complex with these
    faces (sorted vertex tuples, the empty face included)."""
    by_size = {}
    for f in faces:
        by_size.setdefault(len(f), []).append(tuple(f))
    ranks = {}
    for size, src in by_size.items():
        if size:
            dst = {f: r for r, f in enumerate(by_size.get(size - 1, []))}
            rows = [[0] * len(src) for _ in dst]
            for c, f in enumerate(src):
                for slot in range(size):
                    rows[dst[f[:slot] + f[slot + 1:]]][c] = (-1) ** slot
            ranks[size] = brute_rank_mod(rows, p)
    dims = {size - 1: len(level) - ranks.get(size, 0) - ranks.get(size + 1, 0)
            for size, level in by_size.items()}
    return {k: h for k, h in dims.items() if h}


def brute_local_coh(gens, n, window, p):
    """The to_json() of local_coh_monomial over this window, i_range 0..n.

    Takayama's formula, pattern by pattern: the negative coordinates G of a
    multidegree and the values b of the others below the largest exponents
    give the degree complex on the other coordinates, whose faces F are
    found by testing every subset.  Each of its homology dimensions counts
    once per multidegree of total degree j with that pattern, and such
    multidegrees reach up to degree sum(b) - |G|, or down without end when
    G is nonempty.
    """
    bound = [max((g[i] for g in gens), default=0) for i in range(n)]
    jmin, jmax = window
    entries = {}
    tops = []
    unbounded = set()
    for group_size in range(n + 1):
        for group in itertools.combinations(range(n), group_size):
            region = [i for i in range(n) if i not in group]
            for box in itertools.product(*(range(bound[i]) for i in region)):
                faces = []
                for size in range(len(region) + 1):
                    for face in itertools.combinations(range(len(region)), size):
                        if not any(all(g[region[t]] <= box[t]
                                       for t in range(len(region)) if t not in face)
                                   for g in gens):
                            faces.append(face)
                for k, h in brute_reduced_homology(faces, p).items():
                    i = k + group_size + 1
                    tops.append(sum(box) - group_size)
                    if group_size:
                        unbounded.add(i)
                    for j in range(jmin, jmax + 1):
                        t = j - sum(box)
                        if group_size == 0:
                            count = int(t == 0)
                        else:
                            count = comb(-t - 1, group_size - 1) if t <= -group_size else 0
                        if count:
                            entries[i, j] = entries.get((i, j), 0) + h * count
    support_above = max(tops, default=jmin - 1)
    return {
        "i_range": list(range(n + 1)),
        "window": list(window),
        "char": p,
        "unbounded_below": sorted(unbounded),
        "support_above": support_above,
        "window_truncated": bool(unbounded) or support_above > jmax,
        "entries": {f"{i},{j}": v for (i, j), v in sorted(entries.items())},
    }


def oracle_embed_series(base, ideal, target):
    """stable_lex_embedding of an ideal with series numerator target, by its
    definition: (embedded ideal, accepted cutoff).

    At each cutoff the Hilbert function up to it is embedded afresh, piece
    by piece with no memo (the base's monomials plus the lex-largest
    others), the pieces are checked for closure, and the full numerator of
    the ideal they generate is compared with target; the first degree
    where the two differ is the next cutoff.  Raises what embedding a
    cutoff raises: NotAdmissibleError at the first degree that cannot
    reach its codimension, else ClosureError at the first degree with a
    product outside its piece, the lex-largest such product as witness.
    """
    from lexdist.errors import ClosureError, NotAdmissibleError
    from lexdist.monomials import MonomialIdeal, hilbert_numerator, values_from_numerator

    n = base.n
    cutoff = max(ideal.max_degree(), base.max_degree(), 1)
    while True:
        values = values_from_numerator(target, n, cutoff)
        pieces = []
        for d in range(cutoff + 1):
            monos = sorted(all_monomials(n, d), reverse=True)
            inside = [m for m in monos if brute_in_ideal(base.gens, m)]
            want = len(monos) - values[d]
            if want < len(inside) or values[d] < 0:
                raise NotAdmissibleError(
                    d, f"degree {d}: requested codimension {want}, "
                       f"base already has {len(inside)}")
            others = [m for m in monos if m not in inside]
            pieces.append(set(inside) | set(others[:want - len(inside)]))
        for d in range(cutoff):
            stray = [m for m in sorted(all_monomials(n, d + 1), reverse=True)
                     if m not in pieces[d + 1] and brute_in_ideal(pieces[d], m)]
            if stray:
                raise ClosureError(d + 1, stray[0])
        candidate = MonomialIdeal(n, [m for piece in pieces for m in piece])
        got = hilbert_numerator(candidate)
        if got == target:
            return candidate, cutoff
        pairs = itertools.zip_longest(got, target, fillvalue=0)
        cutoff = next(d for d, (x, y) in enumerate(pairs) if x != y)


@pytest.fixture
def rng():
    import random

    return random.Random(987654321)


class LexOrder(MonomialOrder):
    """The lexicographic order, for Groebner bases the library never asks for."""

    def packing(self, n):
        # the degree field never decides: equal exponents mean equal degrees
        return [(i, False) for i in range(n)] + [(None, False)]

    def __repr__(self):
        return "lex"


def hilbert_by_masks(ideal, dmax):
    """Hilbert function by counting graded pieces."""
    return piece_values(ideal.n, degree_masks(ideal, dmax))


def from_monomial_ideal(ideal, p):
    """The monomial ideal as a polynomial Ideal over Z/p."""
    return Ideal(ideal.n, [Poly.from_monomial(g, p) for g in ideal.gens], p)
