"""Sparse polynomial arithmetic over a prime field and Buchberger's algorithm.

Covers reduced Groebner bases, degrevlex initial ideals, Hilbert functions
of homogeneous quotients, ideal quotients / saturation, degree-0 local
cohomology and linear coordinate changes.  Buchberger itself takes any
monomial order: intersect eliminates with a block order.
All public ideals are homogeneous by contract; internal elimination steps
are allowed to pass through non-homogeneous data.

Degree-0 local cohomology of a general ideal comes from one saturation by
a linear form (a variable, else a seeded generic form), read off a
degrevlex initial ideal (Bayer-Stillman 1987) and certified by comparing
Hilbert polynomials; saturate_maximal, the intersection of the
per-variable saturations, is the fallback when no tried form certifies,
and the tests' oracle.
"""

from __future__ import annotations

import heapq
import random
import re
from bisect import insort
from functools import lru_cache, reduce
from itertools import accumulate, zip_longest

from . import monomials
from ._modmat import rank_mod
from .errors import InvalidInputError
from .monomials import (
    DegRevLexOrder,
    MonomialIdeal,
    MonomialOrder,
    divides,
)

DEFAULT_CHAR = 32003
DEGREVLEX = DegRevLexOrder()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The smallest strong pseudoprime to all of these bases (Sorenson-Webster
# 2015), so Miller-Rabin with them is exact below it.
_MR_LIMIT = 3317044064679887385961981


@lru_cache
def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Exact for p below 3.3e24; raises InvalidInputError at or above that
    bound, where these bases no longer decide primality.  Answers are
    cached, since every check_characteristic call asks again.
    """
    if p >= _MR_LIMIT:
        raise InvalidInputError(f"characteristic {p} is too large to certify as prime")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_characteristic(p: int) -> int:
    p = int(p)
    if not is_prime(p):
        raise InvalidInputError(f"characteristic {p} is not prime")
    return p


class Poly:
    """A sparse polynomial: exponent tuple -> nonzero coefficient in F_p."""

    __slots__ = ("n", "p", "terms", "_lead")

    def __init__(self, n, p, terms=None):
        self.n = n
        self.p = p
        clean = {}
        for exps, c in (terms or {}).items():
            c %= p
            if c:
                clean[tuple(exps)] = c
        self.terms = clean
        self._lead = None  # (order, exponents, coefficient) of the last leading() call

    @classmethod
    def zero(cls, n, p):
        return cls(n, p)

    @classmethod
    def constant(cls, n, p, c):
        return cls(n, p, {(0,) * n: c})

    @classmethod
    def variable(cls, n, p, i):
        return cls(n, p, {monomials.variable(n, i): 1})

    @classmethod
    def from_linear_form(cls, coeffs, p):
        n = len(coeffs)
        return cls(n, p, {monomials.variable(n, i): c for i, c in enumerate(coeffs) if c % p})

    @classmethod
    def from_monomial(cls, exps, p, c=1):
        return cls(len(exps), p, {tuple(exps): c})

    @property
    def is_zero(self):
        return not self.terms

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self):
        comps = {}
        for e, c in self.terms.items():
            comps.setdefault(sum(e), {})[e] = c
        return {d: Poly(self.n, self.p, t) for d, t in sorted(comps.items())}

    def leading(self, order: MonomialOrder):
        """(exponents, coefficient) of the largest term; kept for the last
        order asked, since the terms of a Poly never change."""
        if self._lead is None or self._lead[0] is not order:
            exps = max(self.terms, key=order.key)
            self._lead = (order, exps, self.terms[exps])
        return self._lead[1:]

    def monic(self, order: MonomialOrder):
        _, c = self.leading(order)
        if c == 1:
            return self
        inv = pow(c, self.p - 2, self.p)
        return Poly(self.n, self.p, {e: v * inv for e, v in self.terms.items()})

    def map_exponents(self, f):
        return Poly(self.n, self.p, {tuple(f(e)): c for e, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.n, self.p, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return Poly(self.n, self.p, out)

    def __neg__(self):
        return Poly(self.n, self.p, {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        return Poly(self.n, self.p, {e: v * c for e, v in self.terms.items()})

    def mul_term(self, exps, c=1):
        return Poly(
            self.n, self.p,
            {monomials.mul(e, exps): v * c for e, v in self.terms.items()},
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = monomials.mul(e1, e2)
                out[key] = out.get(key, 0) + c1 * c2
        return Poly(self.n, self.p, out)

    def power(self, k):
        out = Poly.constant(self.n, self.p, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def substitute(self, images):
        """Evaluate at x_i -> images[i] (a list of Poly in the target ring)."""
        if len(images) != self.n:
            raise InvalidInputError("substitution needs one image per variable")
        target_n = images[0].n if images else 0
        cache = [dict() for _ in range(self.n)]

        def pw(i, k):
            if k not in cache[i]:
                cache[i][k] = images[i].power(k)
            return cache[i][k]

        out = Poly.zero(target_n, self.p)
        for e, c in self.terms.items():
            term = Poly.constant(target_n, self.p, c)
            for i, k in enumerate(e):
                if k:
                    term = term * pw(i, k)
            out = out + term
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.n == other.n
            and self.p == other.p
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.p, frozenset(self.terms.items())))

    def __repr__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# division and Buchberger
# ---------------------------------------------------------------------------

def normal_form(f: Poly, basis, order: MonomialOrder = DEGREVLEX) -> Poly:
    """Fully reduced remainder of f modulo the list basis.

    Pending terms sit in an ascending list of (order key, exponents), so
    each term is keyed once and the largest is the last entry.  Reducing a
    term only adds terms below it, so no processed term comes back.
    """
    leads = [(*g.leading(order), g) for g in basis if not g.is_zero]
    p = f.p
    work = dict(f.terms)
    pending = sorted((order.key(e), e) for e in work)
    rem = {}
    while pending:
        exps = pending.pop()[1]
        c = work.pop(exps) % p
        if not c:
            continue
        for lexps, lc, g in leads:
            if divides(lexps, exps):
                shift = tuple(a - b for a, b in zip(exps, lexps))
                fac = c * pow(lc, p - 2, p) % p
                for e2, c2 in g.terms.items():
                    key = monomials.mul(e2, shift)
                    if key == exps:
                        continue
                    if key not in work:
                        insort(pending, (order.key(key), key))
                    work[key] = (work.get(key, 0) - fac * c2) % p
                break
        else:
            rem[exps] = c
    return Poly(f.n, f.p, rem)


def _s_poly(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    lf, _ = f.leading(order)
    lg, _ = g.leading(order)
    l = monomials.lcm(lf, lg)
    return f.monic(order).mul_term(tuple(a - b for a, b in zip(l, lf))) - \
        g.monic(order).mul_term(tuple(a - b for a, b in zip(l, lg)))


def _reduce_basis(polys, order: MonomialOrder):
    """Inter-reduce to the unique reduced basis, sorted by decreasing lead."""
    polys = [f.monic(order) for f in polys if not f.is_zero]
    polys.sort(key=lambda f: order.key(f.leading(order)[0]))
    minimal = []
    for f in polys:
        lf = f.leading(order)[0]
        if not any(divides(g.leading(order)[0], lf) for g in minimal):
            minimal.append(f)
    changed = True
    while changed:
        changed = False
        for i, f in enumerate(minimal):
            rest = minimal[:i] + minimal[i + 1:]
            r = normal_form(f, rest, order)
            if r.terms != f.terms:
                changed = True
                if r.is_zero:
                    minimal.pop(i)
                else:
                    minimal[i] = r.monic(order)
                break
    minimal.sort(key=lambda f: order.key(f.leading(order)[0]), reverse=True)
    return tuple(minimal)


def _buchberger(gens, order: MonomialOrder):
    """Reduced Groebner basis; deterministic normal pair selection."""
    G = []
    for f in sorted((g for g in gens if not g.is_zero),
                    key=lambda g: order.key(g.leading(order)[0])):
        G.append(f.monic(order))
    if not G:
        return ()
    leads = [g.leading(order)[0] for g in G]
    pairs = []
    done = set()

    def push(i, j):
        l = monomials.lcm(leads[i], leads[j])
        heapq.heappush(pairs, (sum(l), l, i, j))

    for j in range(len(G)):
        for i in range(j):
            push(i, j)
    while pairs:
        _, l, i, j = heapq.heappop(pairs)
        done.add((i, j))
        if all(a == b + c for a, b, c in zip(l, leads[i], leads[j])):
            continue  # coprime leads
        if any(
            k not in (i, j)
            and divides(leads[k], l)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k in range(len(G))
        ):
            continue  # chain criterion
        r = normal_form(_s_poly(G[i], G[j], order), G, order)
        if not r.is_zero:
            G.append(r.monic(order))
            leads.append(G[-1].leading(order)[0])
            for i2 in range(len(G) - 1):
                push(i2, len(G) - 1)
    return _reduce_basis(G, order)


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

class Ideal:
    """Homogeneous ideal over F_p with a cached reduced degrevlex basis."""

    __slots__ = ("n", "p", "gens", "_gb")

    def __init__(self, n, gens, p=DEFAULT_CHAR):
        self.n = int(n)
        self.p = check_characteristic(p)
        clean = []
        for g in gens:
            if not isinstance(g, Poly):
                raise InvalidInputError("generators must be Poly values")
            if g.n != self.n or g.p != self.p:
                raise InvalidInputError("generator in wrong ring")
            if g.is_zero:
                continue
            if not g.is_homogeneous():
                raise InvalidInputError(f"generator {g!r} is not homogeneous")
            clean.append(g)
        self.gens = tuple(clean)
        self._gb = {}

    @classmethod
    def from_monomial_ideal(cls, ideal: MonomialIdeal, p=DEFAULT_CHAR) -> "Ideal":
        return cls(ideal.n, [Poly.from_monomial(g, p) for g in ideal.gens], p)

    def groebner_basis(self):
        # kept in a dict, so len(_gb) tells whether a call ran Buchberger
        # (perfbench/spans.py reads it)
        if not self._gb:
            self._gb[DEGREVLEX] = _buchberger(self.gens, DEGREVLEX)
        return self._gb[DEGREVLEX]

    def contains(self, f: Poly) -> bool:
        return normal_form(f, self.groebner_basis(), DEGREVLEX).is_zero

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.gens) or "0"
        return f"Ideal(n={self.n}, p={self.p}; {gens})"

    def to_json(self) -> dict:
        return {"n": self.n, "char": self.p, "polys": [format_poly(g) for g in self.gens]}

    @classmethod
    def from_json(cls, data, p=None) -> "Ideal":
        try:
            char = int(p if p is not None else data.get("char", DEFAULT_CHAR))
            n = data["n"]
            return cls(n, [parse_poly(s, n, char) for s in data["polys"]], char)
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"bad ideal JSON: {exc}") from exc


def initial_ideal(ideal: Ideal) -> MonomialIdeal:
    """Degrevlex leading terms of the reduced basis, as a monomial ideal."""
    return MonomialIdeal(
        ideal.n, [g.leading(DEGREVLEX)[0] for g in ideal.groebner_basis()]
    )


def hilbert_function(ideal: Ideal, dmax: int):
    """Hilbert function of A/I via the degrevlex initial ideal."""
    return monomials.hilbert_function(initial_ideal(ideal), dmax)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------

def _permute_last(ideal: Ideal, i: int):
    n = ideal.n
    perm = list(range(n))
    perm[i], perm[n - 1] = perm[n - 1], perm[i]

    def apply(g):
        return g.map_exponents(lambda e: tuple(e[perm[k]] for k in range(n)))

    return apply


def saturate_variable(ideal: Ideal, i: int) -> Ideal:
    """(I : x_{i+1}^infinity) via content stripping on a reverse-lex basis."""
    if not 0 <= i < ideal.n:
        raise InvalidInputError("variable index out of range")
    swap = _permute_last(ideal, i)
    moved = Ideal(ideal.n, [swap(g) for g in ideal.gens], ideal.p)
    stripped = []
    for g in moved.groebner_basis():
        drop = min(e[-1] for e in g.terms)
        if drop:
            g = g.map_exponents(lambda e: e[:-1] + (e[-1] - drop,))
        stripped.append(g)
    stripped = _reduce_basis(stripped, DEGREVLEX)
    return Ideal(ideal.n, [swap(g) for g in stripped], ideal.p)


class _ElimLastOrder(MonomialOrder):
    """Block order eliminating the last variable, degrevlex inside the block."""

    def key(self, exps):
        return (exps[-1], sum(exps[:-1]), tuple(-e for e in reversed(exps[:-1])))

    def __repr__(self):
        return "elim-last"


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Intersection of homogeneous ideals via a single elimination variable."""
    if a.n != b.n or a.p != b.p:
        raise InvalidInputError("intersection needs matching rings")
    n, p = a.n, a.p
    t = monomials.variable(n + 1, n)

    def lift(g):
        return g.map_exponents(lambda e: e + (0,))

    gens = [lift(g).mul_term(t) for g in a.gens]
    one_minus_t = Poly(n + 1, p, {(0,) * (n + 1): 1, t: -1})
    gens += [lift(g) * one_minus_t for g in b.gens]
    basis = _buchberger(gens, _ElimLastOrder())
    kept = []
    for g in basis:
        if all(e[-1] == 0 for e in g.terms):
            proj = g.map_exponents(lambda e: e[:-1])
            kept.extend(proj.homogeneous_components().values())
    return Ideal(n, _reduce_basis(kept, DEGREVLEX), p)


def saturate_maximal(ideal: Ideal) -> Ideal:
    """(I : m^infinity) as the intersection of the per-variable saturations.

    n saturations and n-1 eliminations in n+1 variables: h0_hilbert_function
    takes this route only when no linear form it tries certifies, and the
    tests use it as the oracle for that shortcut.  With no variables
    m = (0), every element is m-torsion and the saturation is the unit
    ideal.
    """
    if ideal.n == 0:
        return Ideal(0, [Poly.from_monomial((), ideal.p)], ideal.p)
    parts = [saturate_variable(ideal, i) for i in range(ideal.n)]
    return reduce(intersect, parts)


def h0_hilbert_function(ideal, dmax: int):
    """Hilbert function of H^0_m(A/I): quotient HF minus saturated quotient HF.

    Accepts a monomial ideal (combinatorial saturation) or a general
    homogeneous Ideal.  For the latter, _h0_series saturates by one linear
    form and certifies the result; only if no form it tries certifies does
    saturate_maximal run.
    """
    if isinstance(ideal, MonomialIdeal):
        hf, saturate = monomials.hilbert_function, monomials.saturate_maximal
    else:
        if dmax < 0:
            raise InvalidInputError("dmax must be nonnegative")
        series = _h0_series(ideal) if ideal.n else None
        if series is not None:
            return tuple(series[:dmax + 1]) + (0,) * (dmax + 1 - len(series))
        hf, saturate = hilbert_function, saturate_maximal
    return tuple(x - y for x, y in zip(hf(ideal, dmax), hf(saturate(ideal), dmax)))


# seeded forms l = x_n - c_1 x_1 - ... - c_{n-1} x_{n-1} tried after the variables
_H0_RANDOM_FORMS = 3
_H0_SEED = 20201


def _h0_series(ideal: Ideal):
    """Coefficients of the Hilbert series of H^0_m(A/I), a polynomial, or None.

    For a linear form l and a change g taking l to x_n, the initial ideal
    of g(I : l^infinity) is C = in(gI) : x_n^infinity, in(gI) with the x_n
    exponent stripped (degrevlex, Bayer-Stillman 1987).  Always
    I <= I^sat <= I : l^infinity, and the quotient of the last two has no
    m-torsion, so it is zero iff A/I and A/C have the same Hilbert
    polynomial: iff (1-t)^n divides N_I - N_C, N the Hilbert numerators.
    The quotient is then the H^0 series.

    l runs over x_n, on the ideal's own cached basis, then the other
    variables by relabelling, which keeps gI as sparse as I (these are the
    saturations saturate_maximal would take), then seeded dense forms,
    which over a large field almost surely avoid every associated prime
    but m.  None means every form tried lies in such a prime, which over a
    small field can be all of them.
    """
    n, p = ideal.n, ideal.p
    lead = initial_ideal(ideal)
    target = monomials.hilbert_numerator(lead)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    changes = []
    for k in range(n - 2, -1, -1):
        rows = identity[:]
        rows[k], rows[-1] = rows[-1], rows[k]
        changes.append(rows)
    rng = random.Random(_H0_SEED)
    heads = dict.fromkeys(tuple(rng.randrange(p) for _ in range(n - 1))
                          for _ in range(_H0_RANDOM_FORMS))
    changes += [identity[:-1] + [[*head, 1]] for head in heads if any(head)]
    for rows in [None, *changes]:
        if rows is not None:
            lead = initial_ideal(apply_linear_change(LinearChange(rows, p), ideal))
        stripped = MonomialIdeal(n, [g[:-1] + (0,) for g in lead.gens])
        diff = [a - b for a, b in
                zip_longest(target, monomials.hilbert_numerator(stripped), fillvalue=0)]
        series = _divide_by_one_minus_t(diff, n)
        if series is not None:
            return series
    return None


def _divide_by_one_minus_t(coeffs, k):
    """Coefficients of c(t) / (1-t)^k, or None if (1-t)^k does not divide c(t).

    Dividing by 1-t takes partial sums; the last one is c(1), which must be 0.
    """
    for _ in range(k):
        coeffs = list(accumulate(coeffs))
        if coeffs and coeffs.pop():
            return None
    return coeffs


# ---------------------------------------------------------------------------
# linear changes of coordinates
# ---------------------------------------------------------------------------

class LinearChange:
    """Invertible change of coordinates; row i is the image of x_{i+1}."""

    __slots__ = ("n", "p", "matrix")

    def __init__(self, matrix, p=DEFAULT_CHAR):
        self.p = check_characteristic(p)
        rows = tuple(tuple(int(c) % self.p for c in row) for row in matrix)
        self.n = len(rows)
        if any(len(r) != self.n for r in rows):
            raise InvalidInputError("matrix must be square")
        if rank_mod(rows, self.p) < self.n:
            raise InvalidInputError("matrix is singular over the working field")
        self.matrix = rows

    def images(self):
        return [Poly.from_linear_form(row, self.p) for row in self.matrix]


def apply_linear_change(change: LinearChange, ideal: Ideal) -> Ideal:
    if change.n != ideal.n or change.p != ideal.p:
        raise InvalidInputError("change of coordinates in wrong ring")
    images = change.images()
    return Ideal(ideal.n, [g.substitute(images) for g in ideal.gens], ideal.p)


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"^\d+$")


def parse_poly(text: str, n: int, p: int = DEFAULT_CHAR) -> Poly:
    """Parse "x1^2 + 3*x1*x2" into a polynomial over F_p."""
    p = check_characteristic(p)
    text = text.replace(" ", "").replace("-", "+-")
    terms = {}
    for chunk in text.split("+"):
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        coeff = sign
        exps = [0] * n
        for factor in chunk.split("*"):
            if _NUM_RE.match(factor):
                coeff *= int(factor)
            else:
                fe = monomials.parse_monomial(factor, n)
                exps = [a + b for a, b in zip(exps, fe)]
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return Poly(n, p, terms)


def format_poly(f: Poly, order: MonomialOrder = DEGREVLEX) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for e in sorted(f.terms, key=order.key, reverse=True):
        c = f.terms[e]
        mono = monomials.format_monomial(e)
        if mono == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts)
