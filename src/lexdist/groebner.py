"""Sparse polynomial arithmetic over a prime field and Buchberger's algorithm.

Covers reduced Groebner bases, degrevlex initial ideals, Hilbert functions
of homogeneous quotients, ideal quotients / saturation and degree-0 local
cohomology.  Buchberger takes any monomial order, which packing(n), its
list of fields, defines alone: intersect eliminates with a block order.

A Poly keys its terms by exponent tuples, but division and Buchberger run
on packed monomials (Monagan-Pearce 2007): one int per monomial, made of
fields of one width, each with a zero guard bit above it, one field per
variable plus a degree field.  MonomialOrder.packing places the fields so
that the order is integer comparison of m ^ mask, where mask flips the
fields compared in reverse: degrevlex puts the degree on top, then
x_n..x_1 flipped; lex puts x_1..x_n, then the degree; intersect's
elimination order puts t, then the degree, then x_n..x_1 flipped.  The
degree field always sums every variable, t included.  A
product is then one addition, divisibility one subtract-and-mask and an
lcm a field-wise max.  The width is chosen per call from the input's
largest degree; a term that outgrows it sets its field's guard bit, and
the call starts again at double the width, so nothing wraps.  The input
is packed once and only the result is unpacked.  _buchberger is the one
route to a reduced basis; it unpacks each element with its lead term
first.  The same division gives the action of each variable on the
standard monomials, which _variable_action hands, with those monomials,
to homology's Koszul strands.  Products of linear forms run on the same
packed monomials, in one kernel, _substitute: it replaces each x_i^a by
the product of the first a linear forms of a row i, which is a
distraction, polarization's X_ij -> l_ij specialisation, or (one form per
row) the shear of _h0_series.  An image keeps its degree, so the width
that holds the input's largest degree is never outgrown.

All public ideals are homogeneous by contract.  Elimination data is
homogeneous in x (t is not counted): t*f and (1-t)*g are, and so is every
S-polynomial and remainder built from them.

Degree-0 local cohomology of a general ideal comes from one saturation by
a linear form (a variable, else a seeded generic form), read off a
degrevlex initial ideal (Bayer-Stillman 1987) of the ideal with that form
moved to x_n (by a swap of two variables or one shear of x_n), and
certified by comparing Hilbert polynomials through
monomials.series_transform; saturate_maximal, the intersection of the
per-variable saturations, is the fallback when no tried form certifies,
and the tests' oracle.
"""

from __future__ import annotations

import heapq
import operator
import random
import re
from functools import lru_cache, reduce

from . import monomials
from .errors import InvalidInputError
from .monomials import (
    DegRevLexOrder,
    MonomialIdeal,
    MonomialOrder,
    json_ints,
    json_object,
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

    __slots__ = ("n", "p", "terms")

    def __init__(self, n, p, terms=None):
        self.n = n
        self.p = p
        clean = {}
        for exps, c in (terms or {}).items():
            c %= p
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def from_monomial(cls, exps, p, c=1):
        return cls(len(exps), p, {tuple(exps): c})

    @property
    def is_zero(self):
        return not self.terms

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading(self, order: MonomialOrder):
        """(exponents, coefficient) of the largest term under order."""
        exps = max(self.terms, key=order.key)
        return exps, self.terms[exps]

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

    def scale(self, c):
        return Poly(self.n, self.p, {e: v * c for e, v in self.terms.items()})

    def mul_term(self, exps, c=1):
        return Poly(
            self.n, self.p,
            {monomials.mul(e, exps): v * c for e, v in self.terms.items()},
        )

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = monomials.mul(e1, e2)
                out[key] = out.get(key, 0) + c1 * c2
        return Poly(self.n, self.p, out)

    def __repr__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# packed monomials, division and Buchberger
# ---------------------------------------------------------------------------

# the least field width: exponents below 64, and an n = 3 degrevlex
# monomial in 28 bits, one CPython digit
_MIN_WIDTH = 6


class _Overflow(Exception):
    """A packed exponent reached its field's guard bit."""


class _Packing:
    """The packed monomials of one order, ring and field width.

    Two in-range fields sum to less than twice the limit, so a product
    that outgrows a field sets only that field's guard bit: m & guards.
    """

    def __init__(self, order, n, width):
        ones = (1 << width) - 1
        self.width, self.ones = width, ones
        self.shifts = [0] * n
        self.mask = self.guards = 0
        for k, (var, flip) in enumerate(reversed(order.packing(n))):
            at = k * (width + 1)
            self.guards |= 1 << (at + width)
            if flip:
                self.mask |= ones << at
            if var is None:
                self._degree_at = at
            else:
                self.shifts[var] = at
        self.weights = [(1 << at) + (1 << self._degree_at) for at in self.shifts]
        self._vars = sum(ones << at for at in self.shifts)
        self._sum_at = max(self.shifts, default=0)
        self._sum_mul = sum(1 << (self._sum_at - at) for at in self.shifts)

    def pack(self, exps):
        return sum(map(operator.mul, exps, self.weights))

    def unpack(self, m):
        ones = self.ones
        return tuple([m >> at & ones for at in self.shifts])

    def divides(self, a, b):
        guards = self.guards
        return ((b | guards) - a) & guards == guards

    def lcm(self, a, b):
        """Field-wise max of the variable fields, under their degree.

        The degree is one position of a product whose every position sums
        distinct fields of the lcm, below twice the limit: no carry crosses
        positions, and an outgrown degree sets its guard bit.
        """
        ge = ((a | self.guards) - b) & self.guards  # guard bits where a >= b
        take_a = ge - (ge >> self.width)  # those fields, all ones
        v = (a & take_a | b & ~take_a) & self._vars
        degree = (v * self._sum_mul >> self._sum_at) & ((2 << self.width) - 1)
        return v | degree << self._degree_at


# bounded, since orders hash by identity and a caller may make new ones
_packing = lru_cache(maxsize=64)(_Packing)


def _packed_run(order, polys, run):
    """(packing, run(packing, packed polys)), widened until run finishes.

    The first width holds the largest degree in polys, so the input fits;
    when run meets a term that outgrows it (_Overflow), it runs again on
    the input packed at double the width.
    """
    top = max((sum(e) for f in polys for e in f.terms), default=0)
    width = max(_MIN_WIDTH, top.bit_length())
    while True:
        pk = _packing(order, polys[0].n, width)
        try:
            return pk, run(pk, [{pk.pack(e): c for e, c in f.terms.items()} for f in polys])
        except _Overflow:
            width *= 2


def _times(f, g, p):
    """The product of two packed {monomial: coefficient} dicts over F_p."""
    out = {}
    get = out.get
    for m, c in f.items():
        for q, e in g.items():
            q += m
            out[q] = get(q, 0) + c * e
    return {m: r for m, c in out.items() if (r := c % p)}


def _substitute(n, p, rows, polys):
    """The polys, {exponents: coefficient} dicts over F_p, with each
    x_{i+1}^a replaced by l_{i,1}...l_{i,a}, the product of the first a
    linear forms (coefficient vectors) of rows[i], the last listed form
    repeating as in DistractionMatrix.rows: a distraction, polarization's
    X_ij -> l_ij specialisation, or, with one form per row, a linear change
    of coordinates.

    Every term of an image has the degree of its source term, so
    monomials packed at a width that holds the largest input degree never
    outgrow it.  Row i's prefix products are built once, up to the largest
    x_{i+1} exponent in polys, each term multiplies its at most n of them,
    and each term of an image is unpacked once.
    """
    top = max((sum(e) for f in polys for e in f), default=0)
    pk = _packing(DEGREVLEX, n, max(_MIN_WIDTH, top.bit_length()))
    prefixes = []
    for i, row in enumerate(rows):
        level = {0: 1}
        products = [level]
        for j in range(max((e[i] for f in polys for e in f), default=0)):
            form = row[min(j, len(row) - 1)]
            level = _times(level, {w: c for w, c in zip(pk.weights, form) if c}, p)
            products.append(level)
        prefixes.append(products)
    out = []
    for f in polys:
        image = {}
        for e, c in f.items():
            product = None
            for products, a in zip(prefixes, e):
                if a:
                    product = products[a] if product is None else _times(product, products[a], p)
            for m, v in (product or {0: 1}).items():
                image[m] = image.get(m, 0) + c * v
        out.append(Poly(n, p, {pk.unpack(m): v for m, v in image.items()}))
    return out


def _monic(f, pk, p):
    """(lead, tail) of the packed polynomial f scaled to lead coefficient 1;
    the tail is a list of (monomial, coefficient) pairs."""
    mask = pk.mask
    lead = max(f, key=lambda m: m ^ mask)
    inv = pow(f[lead], -1, p)
    return lead, [(m, c * inv % p) for m, c in f.items() if m != lead]


def _reduce(work, basis, pk, p):
    """The remainder of work, a packed {monomial: coefficient} dict that
    this uses up, by the monic (lead, tail) pairs of basis, as (monomial,
    coefficient) pairs in decreasing order.

    Pending monomials sit in a heap of negated order keys, so the largest
    pops first.  Reducing a term only adds terms below it, so no popped
    term comes back; a coefficient is taken mod p when its term pops.
    """
    mask, guards = pk.mask, pk.guards
    pending = [-(m ^ mask) for m in work]
    heapq.heapify(pending)
    rem = []
    while pending:
        m = -heapq.heappop(pending) ^ mask
        c = work.pop(m) % p
        if not c:
            continue
        for lead, tail in basis:
            if ((m | guards) - lead) & guards == guards:
                shift = m - lead
                for t, ct in tail:
                    q = t + shift
                    old = work.get(q)
                    if old is None:
                        if q & guards:
                            raise _Overflow
                        work[q] = -c * ct
                        heapq.heappush(pending, -(q ^ mask))
                    else:
                        work[q] = old - c * ct
                break
        else:
            rem.append((m, c))
    return rem


def _variable_action(ideal, top):
    """The standard monomials of degrees 0..top and x_{k+1} acting on them.

    Returns (std, images): std[d] lists the degree-d standard monomials of
    the reduced degrevlex basis in descending lex order, read off the
    masks of the initial ideal, and images[d][b][k] is the normal form of
    x_{k+1} * std[d][b] as (position in std[d + 1], coefficient) pairs,
    for d < top.

    The standard monomials and the basis elements of degree <= top, the
    only ones whose leads can divide a product, are packed once, at a
    width that holds degree top: a reduction keeps the degree of the
    product, so no field can outgrow it.  A product that is itself
    standard takes its position straight from std[d + 1]; every other
    distinct product is reduced once by _reduce, and the terms of its
    remainder, standard monomials of the same degree, are positioned the
    same way.
    """
    masks = monomials.degree_masks(initial_ideal(ideal), top)
    std = [[m for t, m in enumerate(monomials.degree_monomials(ideal.n, d))
            if not masks[d] >> t & 1] for d in range(top + 1)]
    p = ideal.p
    pk = _packing(DEGREVLEX, ideal.n, max(_MIN_WIDTH, top.bit_length()))
    basis = [_monic({pk.pack(e): c for e, c in g.terms.items()}, pk, p)
             for g in ideal.groebner_basis() if sum(next(iter(g.terms))) <= top]
    pos = [{pk.pack(m): t for t, m in enumerate(level)} for level in std]
    images = []
    for here, there in zip(pos, pos[1:]):
        known = {m: [(t, 1)] for m, t in there.items()}
        for m in {s + w for s in here for w in pk.weights} - known.keys():
            known[m] = [(there[r], c) for r, c in _reduce({m: 1}, basis, pk, p)]
        images.append([[known[s + w] for w in pk.weights] for s in here])
    return std, images


def normal_form(f: Poly, basis, order: MonomialOrder = DEGREVLEX) -> Poly:
    """Fully reduced remainder of f modulo the list basis.

    f and the basis are packed at a width that holds their degrees (see
    the module docstring), widened if the remainder outgrows it.
    """
    basis = [g for g in basis if not g.is_zero]
    p = f.p
    pk, rem = _packed_run(order, [f, *basis], lambda pk, fs: _reduce(
        fs[0], [_monic(g, pk, p) for g in fs[1:]], pk, p))
    return Poly(f.n, p, {pk.unpack(m): c for m, c in rem})


def _groebner(polys, pk, p):
    """A Groebner basis of the packed polys, as monic (lead, tail) pairs.

    Normal pair selection (least lcm) with the coprime and chain criteria;
    every S-polynomial is reduced fully by the basis so far.
    """
    mask, guards = pk.mask, pk.guards
    G = sorted((_monic(f, pk, p) for f in polys), key=lambda g: g[0] ^ mask)
    leads = [g[0] for g in G]
    pairs = []
    done = set()

    def push(j):
        for i in range(j):
            l = pk.lcm(leads[i], leads[j])
            if l & guards:
                raise _Overflow
            if l == leads[i] + leads[j]:
                done.add((i, j))  # coprime leads
            else:
                heapq.heappush(pairs, (l ^ mask, i, j))

    for j in range(len(G)):
        push(j)
    while pairs:
        l, i, j = heapq.heappop(pairs)
        l ^= mask
        done.add((i, j))
        above = l | guards
        if any(
            k != i and k != j
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k in [k for k, lead in enumerate(leads) if (above - lead) & guards == guards]
        ):
            continue  # chain criterion
        work = {}
        (li, ti), (lj, tj) = G[i], G[j]
        for t, c in ti:
            work[t + l - li] = c
        for t, c in tj:
            q = t + l - lj
            work[q] = work.get(q, 0) - c
        if any(q & guards for q in work):
            raise _Overflow
        rem = _reduce(work, G, pk, p)
        if rem:
            G.append(_monic(dict(rem), pk, p))
            leads.append(rem[0][0])
            push(len(G) - 1)
    return G


def _interreduce(G, pk, p):
    """The reduced basis of a packed Groebner basis G, by decreasing lead.

    In increasing lead order, an element whose lead a kept lead divides is
    dropped, and the tail of every other is reduced by the kept elements
    before it.  A term below a lead is divisible by no larger lead, so
    this one pass leaves no tail term in the initial ideal.
    """
    kept = []
    for lead, tail in sorted(G, key=lambda g: g[0] ^ pk.mask):
        if not any(pk.divides(k, lead) for k, _ in kept):
            kept.append((lead, _reduce(dict(tail), kept, pk, p)))
    kept.reverse()
    return kept


def _buchberger(gens, order: MonomialOrder):
    """Reduced Groebner basis of gens, by decreasing lead: the one route to
    a reduced basis.

    The input is packed once (_packed_run: fields wide enough for its
    degrees, widened and rerun on a guard-bit overflow), _groebner and
    _interreduce run on packed monomials, and only the reduced basis is
    unpacked, each element with its lead term first and its tail after it
    in decreasing order; initial_ideal and _variable_action read the lead
    off that first term.
    """
    polys = [f for f in gens if not f.is_zero]
    if not polys:
        return ()
    n, p = polys[0].n, polys[0].p
    pk, basis = _packed_run(order, polys,
                            lambda pk, fs: _interreduce(_groebner(fs, pk, p), pk, p))
    return tuple(Poly(n, p, {pk.unpack(m): c for m, c in [(lead, 1), *tail]})
                 for lead, tail in basis)


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

    def groebner_basis(self):
        # kept in a dict, so len(_gb) tells whether a call ran Buchberger
        # (perfbench/spans.py reads it)
        if not self._gb:
            self._gb[DEGREVLEX] = _buchberger(self.gens, DEGREVLEX)
        return self._gb[DEGREVLEX]

    def contains(self, f: Poly) -> bool:
        return normal_form(f, self.groebner_basis(), DEGREVLEX).is_zero

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.gens) or "0"
        return f"Ideal(n={self.n}, p={self.p}; {gens})"

    def to_json(self) -> dict:
        return {"n": self.n, "char": self.p, "polys": [format_poly(g) for g in self.gens]}

    @classmethod
    def from_json(cls, data, p=None) -> "Ideal":
        json_object(data, "an ideal")
        try:
            if p is None:
                p = json_ints([data.get("char", DEFAULT_CHAR)], "char")[0]
            n = json_ints([data["n"]], "n")[0]
            polys = data["polys"]
            if not isinstance(polys, list) or not all(isinstance(s, str) for s in polys):
                raise InvalidInputError(f"expected a list of texts for polys, got {polys!r}")
            return cls(n, [parse_poly(s, n, p) for s in polys], p)
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"bad ideal JSON: {exc}") from exc


def initial_ideal(ideal: Ideal) -> MonomialIdeal:
    """Degrevlex leading terms of the reduced basis, as a monomial ideal;
    _buchberger puts each element's lead first."""
    return MonomialIdeal(ideal.n, [next(iter(g.terms)) for g in ideal.groebner_basis()])


def hilbert_function(ideal: Ideal, dmax: int):
    """Hilbert function of A/I via the degrevlex initial ideal."""
    return monomials.hilbert_function(initial_ideal(ideal), dmax)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------

def _permute_last(ideal: Ideal, i: int):
    """The map on polynomials that swaps x_{i+1} and x_n."""
    n = ideal.n
    perm = list(range(n))
    perm[i], perm[n - 1] = perm[n - 1], perm[i]

    def apply(g):
        return g.map_exponents(lambda e: tuple(e[perm[k]] for k in range(n)))

    return apply


def _shear_last(ideal: Ideal, head):
    """The map on polynomials that sends x_n to x_n + sum_i head[i] x_{i+1}."""
    n, p = ideal.n, ideal.p
    rows = [[monomials.variable(n, i)] for i in range(n - 1)] + [[(*head, 1)]]
    return lambda g: _substitute(n, p, rows, [g.terms])[0]


def saturate_variable(ideal: Ideal, i: int) -> Ideal:
    """(I : x_{i+1}^infinity) via content stripping on a reverse-lex basis.

    The stripped basis already is a Groebner basis of the saturation, so
    _buchberger's S-pairs all reduce to zero.
    """
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
    stripped = _buchberger(stripped, DEGREVLEX)
    return Ideal(ideal.n, [swap(g) for g in stripped], ideal.p)


class _ElimLastOrder(MonomialOrder):
    """Block order eliminating the last variable, degrevlex inside the block.

    Its degree field sums t too, which changes no comparison: t's field
    sits above it, so the degree field only compares monomials with equal
    t exponents, whose x-degrees it then orders.
    """

    def packing(self, n):
        return [(n - 1, False), (None, False)] + [(i, True) for i in reversed(range(n - 1))]

    def __repr__(self):
        return "elim-last"


_ELIM_LAST = _ElimLastOrder()


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Intersection of homogeneous ideals via a single elimination variable.

    The t-free elements of the reduced elimination basis are kept as they
    are: _ElimLastOrder is degrevlex on t-free monomials, so they already
    are the reduced degrevlex basis of the intersection, by decreasing lead.
    """
    if a.n != b.n or a.p != b.p:
        raise InvalidInputError("intersection needs matching rings")
    n, p = a.n, a.p
    t = monomials.variable(n + 1, n)

    def lift(g):
        return Poly(n + 1, p, {e + (0,): c for e, c in g.terms.items()})

    gens = [lift(g).mul_term(t) for g in a.gens]
    one_minus_t = Poly(n + 1, p, {(0,) * (n + 1): 1, t: -1})
    gens += [lift(g) * one_minus_t for g in b.gens]
    basis = _buchberger(gens, _ELIM_LAST)
    kept = [Poly(n, p, {e[:-1]: c for e, c in g.terms.items()}) for g in basis
            if all(e[-1] == 0 for e in g.terms)]
    return Ideal(n, kept, p)


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
    polynomial: iff (1-t)^n divides diff = N_I - N_C, N the Hilbert
    numerators, that is iff monomials.series_transform(diff, -n) vanishes
    from index max(len(diff) - n, 0) on.  The quotient is then the H^0
    series.

    l runs over x_n, on the ideal's own cached basis, then the other
    variables, with g the swap of x_k and x_n, which keeps gI as sparse as
    I (these are the saturations saturate_maximal would take), then seeded
    dense forms l = x_n - c.x, with g the shear x_n -> x_n + c.x, which
    over a large field almost surely avoid every associated prime but m.
    None means every form tried lies in such a prime, which over a small
    field can be all of them.
    """
    n, p = ideal.n, ideal.p
    lead = initial_ideal(ideal)
    target = monomials.hilbert_numerator(lead)
    rng = random.Random(_H0_SEED)
    heads = dict.fromkeys(tuple(rng.randrange(p) for _ in range(n - 1))
                          for _ in range(_H0_RANDOM_FORMS))
    changes = [None] + [_permute_last(ideal, k) for k in range(n - 2, -1, -1)]
    changes += [_shear_last(ideal, head) for head in heads if any(head)]
    for change in changes:
        if change is not None:
            lead = initial_ideal(Ideal(n, [change(g) for g in ideal.gens], p))
        stripped = MonomialIdeal(n, [g[:-1] + (0,) for g in lead.gens])
        diff = monomials._minus_shifted(target, monomials.hilbert_numerator(stripped), 0)
        series = monomials.series_transform(diff, -n)
        cut = max(len(diff) - n, 0)
        if not any(series[cut:]):
            return series[:cut]
    return None


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"^\d+$")
# terms of factors joined by single '*'; the first term may carry a sign,
# and '+', '-' or '+-' comes before each later one
_TERM = r"[^+*-]+(?:\*[^+*-]+)*"
_POLY_RE = re.compile(rf"(?:[+-]?{_TERM}(?:(?:\+-?|-){_TERM})*)?")


def parse_poly(text: str, n: int, p: int = DEFAULT_CHAR) -> Poly:
    """Parse "x1^2 + 3*x1*x2" into a polynomial over F_p.

    A sign or '*' with no factor after it, or a '*' with none before it,
    is invalid input.
    """
    p = check_characteristic(p)
    text = text.replace(" ", "")
    if not _POLY_RE.fullmatch(text):
        raise InvalidInputError(f"bad polynomial {text!r}: a factor is missing")
    text = text.replace("-", "+-")
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
