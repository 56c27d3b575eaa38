"""Graded Betti numbers and local cohomology Hilbert functions.

For monomial ideals both are reduced simplicial homology of one small
complex per multidegree, from one kernel over one kind of complex, given
by its facets as vertex bitmasks: upper Koszul complexes give the Betti
numbers, and the Alexander duals of degree complexes the local
cohomology.  The kernel is memoised by the facet set together with the
characteristic, so an exhaustive check pays once per distinct complex,
not once per ideal.  A complex is first reduced to its strong-collapse
core by deleting dominated vertices (Barmak-Minian, Discrete Comput.
Geom. 47, 2012), which keeps its homotopy type; the memo holds the cores
as well as the keys, so the ranks are paid once per core, and a core
that is a point needs none.  The facets are read off bitsets over the
generators, one table per coordinate built once per ideal (see _split),
so a key costs a few bit operations per coordinate instead of a
comparison per generator and coordinate.  A general homogeneous ideal J
takes the table of its initial ideal in(J), which differs only by
consecutive cancellations (see koszul_betti), and ranks sparse Koszul
strands of A/J only in the degrees where in(J) has an adjacent nonzero
pair; groebner._variable_action gives their standard monomials and x_k's
action on them, through the division kernel Buchberger and normal_form
run.  A Taylor-complex route is an independent oracle on monomial
inputs.  Every boundary map and strand is built as sparse columns for
_modmat.rank_mod, so memory follows the number of nonzero entries, not
the matrix shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import groebner, monomials
from ._modmat import rank_mod
from .errors import InvalidInputError
from .groebner import DEFAULT_CHAR, Ideal, check_characteristic
from .monomials import MonomialIdeal, binom


@dataclass(frozen=True)
class GradedBettiTable:
    """Graded Betti numbers of A/I; complete for j <= dmax, truncated above."""

    n: int
    dmax: int
    entries: tuple  # sorted ((i, j), value) pairs, zeros omitted
    p: int = DEFAULT_CHAR

    def __getitem__(self, key):
        return dict(self.entries).get(tuple(key), 0)

    def as_dict(self):
        return dict(self.entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dmax": self.dmax,
            "char": self.p,
            "truncated_above": self.dmax,
            "entries": {f"{i},{j}": v for (i, j), v in self.entries},
        }


def _table(n, dmax, raw, p):
    entries = tuple(sorted((k, v) for k, v in raw.items() if v))
    return GradedBettiTable(n=n, dmax=dmax, entries=entries, p=p)


# ---------------------------------------------------------------------------
# Koszul homology
# ---------------------------------------------------------------------------

def _bitset_table(gens, k, size):
    """[the bitset of generators g with g_k < v, for v in range(size)]."""
    at = [0] * size
    for t, g in enumerate(gens):
        if g[k] + 1 < size:
            at[g[k] + 1] |= 1 << t
    for v in range(1, size):
        at[v] |= at[v - 1]
    return at


def _split(parts, t, row):
    """Split each part by the bitset row; the generators inside row gain bit t.

    parts maps a mask to the nonempty bitset of generators that have it.
    Starting from {0: all generators} and splitting by rows[0], rows[1], ...
    leaves as masks exactly the distinct sets {t : g in rows[t]}: the
    nonempty ANDs over t of rows[t] (t in the set) or its complement (t
    outside).  Empty parts are dropped, so each split costs at most the
    number of generators in bit operations.
    """
    out = {}
    bit = 1 << t
    for mask, part in parts.items():
        if part & row:
            out[mask | bit] = part & row
        if part & ~row:
            out[mask] = part & ~row
    return out


def _koszul_monomial(ideal, dmax, p):
    """beta_{i,b}(A/I) = dim H~_{i-2}(K^b(I)) for b in the LCM lattice, |b| <= dmax.

    The upper Koszul complex K^b(I) has one facet {k : g_k < b_k} per
    generator g dividing x^b (Miller-Sturmfels, Thm 1.34).  Both are read
    off bitsets over the generators, built once per ideal: below[k][v]
    holds the generators with g_k < v, so the divisors of x^b are the AND
    of below[k][b_k + 1] over k, and the facets are what _split leaves of
    the divisors by the rows below[k][b_k].
    """
    gens = ideal.gens
    if dmax < 0 or (gens and not sum(gens[0])):
        return {}
    lattice = set()
    for g in gens:  # an lcm's degree only grows, so pruning at dmax loses nothing
        grown = {tuple(map(max, c, g)) for c in lattice} | {g}
        lattice |= {b for b in grown if sum(b) <= dmax}
    # b_k <= dmax, so rows past dmax + 1 are never read
    below = [_bitset_table(gens, k, min(max((g[k] for g in gens), default=0), dmax) + 2)
             for k in range(ideal.n)]
    raw = {(0, 0): 1}
    for b in lattice:
        divisors = (1 << len(gens)) - 1
        for row, v in zip(below, b):
            divisors &= row[v + 1]
        facets = {0: divisors}
        for k, (row, v) in enumerate(zip(below, b)):
            facets = _split(facets, k, row[v])
        j = sum(b)
        for k, h in _homology(frozenset(facets), p):
            raw[k + 2, j] = raw.get((k + 2, j), 0) + h
    return raw


def _koszul_strands(ideal, degrees):
    """beta_{i,j}(A/I) for j in degrees, from the ranks of sparse Koszul strands.

    Only the strands of the given degrees are built, from the standard
    monomials up to the largest of them; degrees = range(dmax + 1) gives
    the whole table, the oracle for koszul_betti.  The standard monomials
    of the degrevlex basis and x_k's action on them come from
    groebner._variable_action, which reads them off the initial ideal and
    reduces with groebner's packed division kernel; each strand map is
    handed to rank_mod as one {row: entry} dict per source basis element,
    holding only its nonzero entries.
    """
    n, p = ideal.n, ideal.p
    if not degrees:
        return {}
    std, images = groebner._variable_action(ideal, max(degrees))
    dims = [len(s) for s in std]

    subsets = [list(itertools.combinations(range(n), i)) for i in range(n + 2)]
    pos = [dict((s, t) for t, s in enumerate(level)) for level in subsets]
    ranks = {}
    for i in range(1, n + 1):
        for j in degrees:
            dsrc = j - i
            dst = dims[dsrc + 1] if dsrc >= 0 else 0
            if not dst:
                continue
            # one sparse column per source basis element e_s (x) b, summed
            # straight into a {row: entry} dict
            columns = []
            for s in subsets[i]:
                boundary = [(pos[i - 1][s[:slot] + s[slot + 1:]] * dst, -1 if slot & 1 else 1)
                            for slot in range(i)]
                for b in range(dims[dsrc]):
                    col = {}
                    image = images[dsrc][b]
                    for (offset, sign), k in zip(boundary, s):
                        for b2, c in image[k]:
                            col[offset + b2] = col.get(offset + b2, 0) + sign * c
                    columns.append(col)
            ranks[i, j] = rank_mod(columns, p)
    raw = {}
    for i in range(n + 1):
        for j in degrees:
            dsrc = j - i
            dim = len(subsets[i]) * dims[dsrc] if dsrc >= 0 else 0
            beta = dim - ranks.get((i, j), 0) - ranks.get((i + 1, j), 0)
            if beta:
                raw[i, j] = beta
    return raw


def koszul_betti(ideal, dmax: int, p: int = DEFAULT_CHAR) -> GradedBettiTable:
    """beta_{ij}(A/I) for j <= dmax.

    Monomial ideals split by multidegree into upper Koszul complexes.  A
    general homogeneous ideal J (p must be its own field) starts from the
    table of its degrevlex initial ideal in(J).  Filtered by the degrevlex
    order of x_S * m, J's degree-j strand has in(J)'s as associated graded
    complex, so homology cancels only between beta_{i,j} and beta_{i+1,j}
    (Peeva, Proc. AMS 132, 2004).  A row j of in(J) without an adjacent
    nonzero pair is J's over every field; _koszul_strands ranks the rest.
    """
    p = check_characteristic(p)
    if isinstance(ideal, MonomialIdeal):
        return _table(ideal.n, dmax, _koszul_monomial(ideal, dmax, p), p)
    if not isinstance(ideal, Ideal):
        raise InvalidInputError("expected MonomialIdeal or Ideal")
    if p != ideal.p:
        raise InvalidInputError(f"ideal is over characteristic {ideal.p}, not {p}")
    raw = _koszul_monomial(groebner.initial_ideal(ideal), dmax, p)
    cancel = {j for (i, j) in raw if (i + 1, j) in raw}
    raw = {k: v for k, v in raw.items() if k[1] not in cancel}
    raw.update(_koszul_strands(ideal, cancel))
    return _table(ideal.n, dmax, raw, p)


def taylor_betti_oracle(ideal: MonomialIdeal, dmax: int, p: int = DEFAULT_CHAR) -> GradedBettiTable:
    """Independent Betti oracle: homology of the Taylor complex tensored with K.

    Differential entries are +-1 exactly where dropping a generator keeps
    the lcm.  The complex has a basis element for every subset of the r
    minimal generators, so time and memory double with each generator:
    16 generators took 4.7 s and a 45 MB process peak in one run, 14 took
    0.6 s and 21 MB.  Intended for small inputs.
    """
    p = check_characteristic(p)
    gens = ideal.gens
    r = len(gens)
    lcm_of = {(): (0,) * ideal.n}
    levels = []
    for i in range(r + 1):
        level = []
        for s in itertools.combinations(range(r), i):
            if i:
                l = monomials.lcm(lcm_of[s[:-1]], gens[s[-1]])
                lcm_of[s] = l
            level.append(s)
        levels.append(level)
    ranks = {}
    for i in range(1, r + 1):
        degs_src = {}
        for s in levels[i]:
            degs_src.setdefault(sum(lcm_of[s]), []).append(s)
        degs_dst = {}
        for t in levels[i - 1]:
            bucket = degs_dst.setdefault(sum(lcm_of[t]), {})
            bucket[t] = len(bucket)
        for j, cols in degs_src.items():
            if j > dmax:
                continue
            rows = degs_dst.get(j, {})
            columns = []
            for s in cols:
                col = {}
                for slot in range(i):
                    t = s[:slot] + s[slot + 1:]
                    if lcm_of[t] == lcm_of[s]:
                        col[rows[t]] = -1 if slot & 1 else 1
                columns.append(col)
            ranks[i, j] = rank_mod(columns, p)
    raw = {}
    for i in range(r + 1):
        for s in levels[i]:
            j = sum(lcm_of[s])
            if j <= dmax:
                raw[i, j] = raw.get((i, j), 0) + 1
    for (i, j), rk in ranks.items():
        if rk:
            raw[i, j] = raw.get((i, j), 0) - rk
            raw[i - 1, j] = raw.get((i - 1, j), 0) - rk
    return _table(ideal.n, dmax, raw, p)


# ---------------------------------------------------------------------------
# reduced homology and local cohomology
# ---------------------------------------------------------------------------

def _reduced_homology(facets, p):
    """{k: dim H~_k} over F_p, nonzero dims only, of the complex whose faces
    are every subset of some vertex bitmask in facets."""
    faces = set()
    for facet in facets:
        sub = facet
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & facet
    levels = {}
    for f in faces:
        levels.setdefault(f.bit_count(), []).append(
            tuple(k for k in range(f.bit_length()) if f >> k & 1))
    ranks = {}
    for size, src in levels.items():
        if size:
            pos = {f: r for r, f in enumerate(levels[size - 1])}
            ranks[size] = rank_mod([
                {pos[f[:slot] + f[slot + 1:]]: -1 if slot & 1 else 1 for slot in range(size)}
                for f in src
            ], p)
    dims = {size - 1: len(level) - ranks.get(size, 0) - ranks.get(size + 1, 0)
            for size, level in levels.items()}
    return {k: h for k, h in dims.items() if h}


def _strong_core(masks):
    """The facets left after deleting dominated vertices while any remain.

    A vertex v is dominated when some other vertex lies in every facet
    through v.  Deleting it is a strong collapse, which keeps the homotopy
    type (Barmak-Minian, Discrete Comput. Geom. 47, 2012), so the core has
    the reduced homology of the complex over every field.  masks may hold
    non-maximal facets; the core holds only maximal ones.  Deleting v
    replaces each facet F through v by F - v; no two of those contain one
    another, and the facets without v stay maximal, so only the F - v are
    checked against the facets without v.  One vertex is deleted per pass:
    deleting one can undo the domination of another.
    """
    facets = [f for f in masks if not any(f != g and f & g == f for g in masks)]
    while True:
        support = 0
        for f in facets:
            support |= f
        while support:
            bit = support & -support
            support ^= bit
            common = -1
            for f in facets:
                if f & bit:
                    common &= f
            if common != bit:
                rest = [f for f in facets if not f & bit]
                cut = [f & ~bit for f in facets if f & bit]
                facets = rest + [f for f in cut if not any(f & g == f for g in rest)]
                break
        else:
            return frozenset(facets)


# the distinct keys, cores included.  coh-extremal over (x1^2) meets 64 keys
# in three variables (dmax 4 or 5), 474 in four at dmax 2 and 8 080 at dmax
# 3, past the cap: 245 evicted keys are computed again there, yet a cap of
# 1 << 14 ran no faster and peaked 3 MB higher; the n = 6 Betti tables meet
# a few hundred
@lru_cache(maxsize=1 << 12)
def _homology(facets, p):
    """Reduced homology of the complex with these facet bitmasks, memoised.

    facets is a frozenset of vertex bitmasks, the one kind of complex both
    Koszul complexes and the duals of degree complexes arrive as.  Returns
    sorted (k, dim H~_k) pairs, nonzero dims only; a tuple, since every
    caller with the same facets shares it.  A miss first reduces the
    facets to their strong-collapse core (_strong_core) and, if that
    changes them, answers with the core's memoised homology, so the ranks
    are paid once per core and the memo holds the cores as well as the
    keys.  A core that is one facet is a point (a simplex collapses to a
    vertex) and needs no rank.
    """
    core = _strong_core(facets)
    if core != facets:
        return _homology(core, p)
    if len(core) == 1 and 0 not in core:
        return ()
    return tuple(sorted(_reduced_homology(core, p).items()))


@dataclass(frozen=True)
class LocalCohTable:
    """Hilbert functions of local cohomology modules over a degree window.

    entries maps (i, j) to dim H^i_m(A/I)_j for i in i_range and j in the
    window.  Rows listed in unbounded_below have nonzero values for every
    sufficiently negative degree, so any finite window truncates them;
    support_above is the largest degree with a possibly nonzero value.
    """

    i_range: tuple
    window: tuple
    entries: tuple
    unbounded_below: tuple
    support_above: int
    window_truncated: bool
    p: int = DEFAULT_CHAR

    def __getitem__(self, key):
        return dict(self.entries).get(tuple(key), 0)

    def as_dict(self):
        return dict(self.entries)

    def row(self, i: int):
        jmin, jmax = self.window
        return tuple(self[i, j] for j in range(jmin, jmax + 1))

    def to_json(self) -> dict:
        return {
            "i_range": list(self.i_range),
            "window": list(self.window),
            "char": self.p,
            "unbounded_below": list(self.unbounded_below),
            "support_above": self.support_above,
            "window_truncated": self.window_truncated,
            "entries": {f"{i},{j}": v for (i, j), v in self.entries},
        }


def local_coh_monomial(ideal: MonomialIdeal, i_range=None, window=None,
                       p: int = DEFAULT_CHAR) -> LocalCohTable:
    """Hilbert functions of H^i_m(A/I) for a monomial ideal I.

    Works through reduced homology of degree complexes (Takayama 2005): a
    multidegree contributes through the set G of its negative coordinates
    and the values b of the others (the region), each below its largest
    generator exponent.  A subset F of the region is a face of the degree
    complex D iff it contains none of the masks {t : g_t > b_t} of the
    generators g, so D's Alexander dual on the r region vertices has the
    complements {t : g_t <= b_t} as facets (Miller-Sturmfels, ch. 1 and 5),
    the one kind of complex _homology takes.  With below[i][v] the bitset
    of generators with g_i <= v, those facets are what _split leaves of all
    generators by the rows below[i][b_i]; the boxes are built one region
    coordinate at a time, so boxes with a common prefix share its splits.
    A box with the whole region as a facet has x^b in I and a void D, and
    is skipped; otherwise dim H~_k(D) = dim H~_{r-3-k} of the dual for
    r >= 1, and with r = 0 the one box left is the zero ideal's, whose D
    is {emptyset}.  The homology dimensions are summed by (|G|, sum of b)
    first, and each total degree in the window is a finite weighted sum
    of those.
    """
    p = check_characteristic(p)
    n = ideal.n
    if i_range is None:
        i_range = tuple(range(n + 1))
    else:
        i_range = tuple(i_range)
        if not i_range:
            raise InvalidInputError("empty cohomological index range")
    gens = ideal.gens
    if window is None:
        spread = sum(sum(g) for g in gens)
        window = (-spread, spread)
    jmin, jmax = window
    if jmin > jmax:
        raise InvalidInputError("empty degree window")
    everyone = (1 << len(gens)) - 1
    # below[i][v]: the generators with g_i <= v, for v below the largest g_i
    below = [_bitset_table(gens, i, max((g[i] for g in gens), default=0) + 1)[1:]
             for i in range(n)]

    sums = {}  # (|G|, box sum) -> {i: summed homology dims}
    for gbits in range(1 << n):
        glen = gbits.bit_count()
        region = [i for i in range(n) if not gbits >> i & 1]
        r = len(region)
        boxes = [(0, {0: everyone} if everyone else {})]
        for t, i in enumerate(region):
            boxes = [(total + v, _split(parts, t, row))
                     for total, parts in boxes for v, row in enumerate(below[i])]
        for total, parts in boxes:
            if (1 << r) - 1 in parts:
                continue
            if r:
                homology = [(r - 3 - k, h) for k, h in _homology(frozenset(parts), p)]
            else:
                homology = [(-1, 1)]
            if homology:
                dims = sums.setdefault((glen, total), {})
                for k, h in homology:
                    dims[k + glen + 1] = dims.get(k + glen + 1, 0) + h

    entries = {}
    unbounded = set()
    support_above = None
    for (glen, bsum), dims in sums.items():
        top = bsum if glen == 0 else bsum - glen
        support_above = top if support_above is None else max(support_above, top)
        for i, h in dims.items():
            if i not in i_range:
                continue
            if glen:
                unbounded.add(i)
            for j in range(jmin, jmax + 1):
                t = j - bsum
                if glen == 0:
                    count = 1 if t == 0 else 0
                else:
                    count = binom(-t - 1, glen - 1) if t <= -glen else 0
                if count:
                    entries[i, j] = entries.get((i, j), 0) + h * count
    support_above = jmin - 1 if support_above is None else support_above
    truncated = bool(unbounded) or support_above > jmax
    return LocalCohTable(
        i_range=i_range,
        window=window,
        entries=tuple(sorted(entries.items())),
        unbounded_below=tuple(sorted(unbounded)),
        support_above=support_above,
        window_truncated=truncated,
        p=p,
    )
