"""Distraction matrices, distracted ideals, induced bar-distractions, polarization.

A distraction replaces each variable power x_i^a by a product of the first
a linear forms of row i of a column-stabilized matrix whose every row
selection spans the linear forms.  Validity depends on the working prime
field: the same matrix may be singular in another characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalContradictionError, InvalidInputError
from .groebner import DEFAULT_CHAR, Ideal, Poly, check_characteristic
from .monomials import MonomialIdeal, variable


class DistractionMatrix:
    """n rows of linear forms with stabilized tails.

    Row i is stored as its finite list of distinct leading entries; the last
    listed entry repeats for all later columns.  Entry coefficients live in
    F_p.
    """

    __slots__ = ("n", "p", "rows")

    def __init__(self, rows, p=DEFAULT_CHAR):
        self.p = check_characteristic(p)
        norm = []
        for row in rows:
            entries = [tuple(int(c) % self.p for c in entry) for entry in row]
            while len(entries) > 1 and entries[-1] == entries[-2]:
                entries.pop()
            norm.append(tuple(entries))
        self.rows = tuple(norm)
        self.n = len(self.rows)
        for i, row in enumerate(self.rows):
            if not row:
                raise InvalidInputError(f"row {i + 1} is empty")
            for entry in row:
                if len(entry) != self.n:
                    raise InvalidInputError("linear form of wrong length")
                if not any(entry):
                    raise InvalidInputError("zero linear form in distraction")

    @property
    def stabilization(self) -> int:
        """Index N past which every row is constant (1-based column count)."""
        return max(len(row) for row in self.rows)

    def entry(self, i: int, j: int):
        """Coefficients of l_{i+1, j+1} (0-based arguments, tail repeats)."""
        row = self.rows[i]
        return row[min(j, len(row) - 1)]

    @classmethod
    def identity(cls, n, p=DEFAULT_CHAR):
        return cls([[variable(n, i)] for i in range(n)], p)

    def __eq__(self, other):
        return (
            isinstance(other, DistractionMatrix)
            and self.p == other.p
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.rows))

    def __repr__(self):
        return f"DistractionMatrix(n={self.n}, p={self.p}, rows={self.rows})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "char": self.p,
            "rows": [[{"c": list(e)} for e in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data, p=None) -> "DistractionMatrix":
        try:
            char = int(p if p is not None else data.get("char", DEFAULT_CHAR))
            return cls([[tuple(e["c"]) for e in row] for row in data["rows"]], char)
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"bad distraction JSON: {exc}") from exc


def _extend_echelon(basis, entry, p):
    """Add entry to a reduced row-echelon basis, or None if it is dependent.

    basis is a list of (pivot column, row) with monic pivots and zeros in
    every other row's pivot column; the result keeps that form.
    """
    v = list(entry)
    for c, row in basis:
        f = v[c]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, row)]
    c = next((k for k, a in enumerate(v) if a), None)
    if c is None:
        return None
    inv = pow(v[c], -1, p)
    v = [a * inv % p for a in v]
    out = []
    for c2, row in basis:
        f = row[c]
        if f:
            row = [(a - f * b) % p for a, b in zip(row, v)]
        out.append((c2, row))
    out.append((c, v))
    return out


def _normal_vector(basis, n, p):
    """A nonzero vector orthogonal to the n-1 rows of a reduced echelon basis."""
    pivots = {c for c, _ in basis}
    free = next(k for k in range(n) if k not in pivots)
    v = [0] * n
    v[free] = 1
    for c, row in basis:
        v[c] = -row[free] % p
    return v


def validate_distraction(d: DistractionMatrix):
    """Check that every selection of one entry per row spans the linear forms.

    By column stabilization only selections of distinct per-row entries need
    checking.  The selections are searched depth-first over the rows in
    itertools.product order, exactly mod p.  Each prefix is kept in reduced
    row-echelon form and extended by one elimination, so it is shared by all
    its completions; a prefix that is already dependent fails with every
    completion.  At the last row the n-1 chosen forms have a normal vector,
    and an entry completes them to a basis exactly when its dot product with
    that vector is nonzero.  With c distinct entries per row this costs one
    elimination per prefix of fewer than n rows, about c^(n-1) of them, plus
    at most c^n dot products.

    Returns (True, None) or (False, witness) where witness lists the
    (row, column) pairs of the first failing selection in product order; a
    dependent prefix is completed with the first entry of each later row.
    """
    n, p = d.n, d.p
    per_row = []
    for row in d.rows:
        seen = {}
        for j, entry in enumerate(row):
            seen.setdefault(entry, j)
        per_row.append(list(seen.items()))
    if not n:
        return True, None
    chosen = []

    def search(basis, i):
        if i == n - 1:
            normal = _normal_vector(basis, n, p)
            for entry, j in per_row[i]:
                if not sum(a * b for a, b in zip(entry, normal)) % p:
                    return chosen + [(i, j)]
            return None
        for entry, j in per_row[i]:
            chosen.append((i, j))
            extended = _extend_echelon(basis, entry, p)
            if extended is None:
                return chosen + [(k, per_row[k][0][1]) for k in range(i + 1, n)]
            witness = search(extended, i + 1)
            if witness:
                return witness
            chosen.pop()
        return None

    witness = search([], 0)
    return (False, witness) if witness else (True, None)


def apply_distraction(d: DistractionMatrix, m) -> Poly:
    """The distraction of a monomial: product of the first a_i entries of row i."""
    if len(m) != d.n:
        raise InvalidInputError("monomial length mismatch")
    out = Poly.constant(d.n, d.p, 1)
    for i, a in enumerate(m):
        for j in range(a):
            out = out * Poly.from_linear_form(d.entry(i, j), d.p)
    return out


def distract_ideal(d: DistractionMatrix, ideal: MonomialIdeal) -> Ideal:
    """The ideal generated by the distractions of the minimal generators."""
    if ideal.n != d.n:
        raise InvalidInputError("ambient mismatch")
    return Ideal(d.n, [apply_distraction(d, g) for g in ideal.gens], d.p)


def induce_bar(d: DistractionMatrix) -> DistractionMatrix:
    """The induced distraction on one fewer variable.

    Requires every entry of the last row to equal x_n (apply a change of
    coordinates with gD(x_n) = x_n, then make the last row constant, first);
    evaluates x_n to 0 in the first n-1 rows.  The result is revalidated:
    a failure here contradicts the span condition of the input.
    """
    n = d.n
    if n < 1:
        raise InvalidInputError("nothing to slice off")
    xn = variable(n, n - 1)
    if any(entry != xn for entry in d.rows[-1]):
        raise InvalidInputError("last row must be constantly x_n")
    bar_rows = []
    for row in d.rows[:-1]:
        bar_row = []
        for entry in row:
            chopped = entry[:-1]
            if not any(chopped):
                raise InternalContradictionError(
                    f"entry {entry} of a valid distraction dies at x_n = 0"
                )
            bar_row.append(chopped)
        bar_rows.append(bar_row)
    bar = DistractionMatrix(bar_rows, d.p)
    ok, witness = validate_distraction(bar)
    if not ok:
        raise InternalContradictionError(
            f"induced matrix is not a distraction; witness selection {witness}"
        )
    return bar


# ---------------------------------------------------------------------------
# polarization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarizationResult:
    """Squarefree polarization together with its two specializations.

    The extended ring keeps the n original variables first, followed by the
    blocks X_{i1},...,X_{i r_i}.  specialization_x lists pairs
    (original index i, extended index of X_ij) encoding X_i - X_ij;
    specialization_l, present when a distraction was supplied, lists pairs
    (coefficients of l_ij over the original ring, extended index of X_ij).
    """

    extended_n: int
    polarized: MonomialIdeal
    block_sizes: tuple
    specialization_x: tuple
    specialization_l: tuple | None = None
    _block_start: tuple = field(default=(), repr=False)

    def block_index(self, i: int, j: int) -> int:
        return self._block_start[i] + j

    def specialize_to_original(self) -> MonomialIdeal:
        """Substitute X_ij -> X_i; recovers the polarized ideal's source."""
        n = len(self.block_sizes)
        gens = []
        for g in self.polarized.gens:
            e = list(g[:n])
            for i, r in enumerate(self.block_sizes):
                for j in range(r):
                    e[i] += g[self.block_index(i, j)]
            gens.append(tuple(e))
        return MonomialIdeal(n, gens)

    def specialize_to_distraction(self, p=DEFAULT_CHAR):
        """Substitute X_ij -> l_ij; recovers the distracted generators."""
        if self.specialization_l is None:
            raise InvalidInputError("no distraction was attached to this polarization")
        n = len(self.block_sizes)
        forms = {idx: Poly.from_linear_form(coeffs, p)
                 for coeffs, idx in self.specialization_l}
        out = []
        for g in self.polarized.gens:
            poly = Poly.constant(n, p, 1)
            for idx, e in enumerate(g):
                if not e:
                    continue
                if idx < n:
                    poly = poly * Poly.from_monomial(variable(n, idx), p).power(e)
                else:
                    poly = poly * forms[idx].power(e)
            out.append(poly)
        return out


def polarize(ideal: MonomialIdeal, distraction: DistractionMatrix | None = None) -> PolarizationResult:
    """Polarize a monomial ideal into squarefree generators.

    r_i is the largest x_i exponent over the minimal generators; generator
    x^a becomes the product of X_ij over i and j <= a_i.  When a distraction
    is supplied its entries fill the l_ij - X_ij specialization.
    """
    n = ideal.n
    if distraction is not None and distraction.n != n:
        raise InvalidInputError("distraction ambient mismatch")
    r = [max((g[i] for g in ideal.gens), default=0) for i in range(n)]
    starts = []
    pos = n
    for ri in r:
        starts.append(pos)
        pos += ri
    ext_n = pos
    gens = []
    for g in ideal.gens:
        e = [0] * ext_n
        for i, a in enumerate(g):
            for j in range(a):
                e[starts[i] + j] = 1
        gens.append(tuple(e))
    spec_x = tuple(
        (i, starts[i] + j) for i in range(n) for j in range(r[i])
    )
    spec_l = None
    if distraction is not None:
        spec_l = tuple(
            (distraction.entry(i, j), starts[i] + j)
            for i in range(n)
            for j in range(r[i])
        )
    return PolarizationResult(
        extended_n=ext_n,
        polarized=MonomialIdeal(ext_n, gens),
        block_sizes=tuple(r),
        specialization_x=spec_x,
        specialization_l=spec_l,
        _block_start=tuple(starts),
    )


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _has_unit_cycle(d: DistractionMatrix) -> bool:
    """Whether a matrix of entries a*x_i + b*x_k (a != 0, k != i) is singular
    on some row selection.

    In a selection, row i is a_i e_i + b_i e_k(i), so the only permutations
    with nonzero products move the rows of a union of cycles of i -> k(i)
    along those cycles.  The determinant is therefore
    prod_{i off cycles} a_i * prod_{cycles C} (prod_C a_i - prod_C (-b_i)),
    and it vanishes iff some cycle has weight product 1, where the entry
    weighs -b/a.  Every simple cycle of the graph with one edge i -> k per
    distinct entry with b != 0 (parallel edges allowed) is the cycle of
    some selection, and the other rows do not change its factor.

    Each cycle is found from its smallest vertex s.  The search grows paths
    from s over larger vertices one edge at a time, carrying for each (end
    vertex, vertex set) the set of products mod p its paths reach, and
    closes a cycle when an edge back to s has the inverse weight of one of
    those products.  Validity then costs at most one set of products per
    vertex subset and end vertex, instead of one elimination per prefix of a
    row selection.
    """
    n, p = d.n, d.p
    edges = []
    for i, row in enumerate(d.rows):
        out = set()
        for entry in row:
            k = next((k for k, c in enumerate(entry) if c and k != i), None)
            if k is not None:
                w = -entry[k] * pow(entry[i], -1, p) % p
                out.add((k, w, pow(w, -1, p)))
        edges.append(sorted(out))
    for s in range(n):
        layer = {(s, 1 << s): {1}}
        while layer:
            grown = {}
            for (v, seen), products in layer.items():
                for k, w, inverse in edges[v]:
                    if k == s:
                        if inverse in products:
                            return True
                    elif k > s and not seen >> k & 1:
                        grown.setdefault((k, seen | 1 << k), set()).update(
                            q * w % p for q in products)
            layer = grown
    return False


def random_distraction(rng, n, p=DEFAULT_CHAR, columns=6) -> DistractionMatrix:
    """A generic sparse distraction: entries a*x_i + b*x_k, resampled until valid.

    Each entry of row i has a nonzero x_i coefficient a and one other
    variable x_k, with any coefficient b, so validity is decided exactly by
    the cycle test of _has_unit_cycle, not by the selection search of
    validate_distraction (which stays for matrices of any form).  Both give
    the same verdict on these matrices, so the draws, and the matrix
    returned for a seed, are the same as resampling until
    validate_distraction accepts.
    """
    while True:
        rows = []
        for i in range(n):
            row = []
            for _ in range(columns):
                coeffs = [0] * n
                coeffs[i] = rng.randrange(1, p)
                if n > 1:
                    k = rng.choice([j for j in range(n) if j != i])
                    coeffs[k] = rng.randrange(0, p)
                row.append(tuple(coeffs))
            rows.append(row)
        candidate = DistractionMatrix(rows, p)
        if not _has_unit_cycle(candidate):
            return candidate
