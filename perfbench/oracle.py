"""Independent checks of lexdist outputs, written without any lexdist code.

Every function here works on plain data (exponent tuples, coefficient
tuples, Betti entries) and returns a list of problem strings, empty when
the output is right.  The checks are deliberately brute force: they
recount what the program computes by a different and obviously correct
route, so a fast path in the program that goes wrong shows here.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def monomials_of_degree(n: int, d: int):
    """Every degree-d exponent vector in n variables."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return tuple(out)


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal_generators(gens):
    """The divisibility antichain of a generator list."""
    gens = sorted(set(map(tuple, gens)), key=sum)
    out = []
    for g in gens:
        if not any(divides(h, g) for h in out):
            out.append(g)
    return out


def hilbert(gens, n: int, dmax: int):
    """Quotient Hilbert function, counting standard monomials degree by degree."""
    gens = minimal_generators(gens)
    return tuple(
        sum(1 for m in monomials_of_degree(n, d) if not any(divides(g, m) for g in gens))
        for d in range(dmax + 1)
    )


def check_hilbert(gens, n: int, dmax: int, claimed) -> list:
    want = hilbert(gens, n, dmax)
    if tuple(claimed) != want:
        return [f"Hilbert function of {sorted(gens)}: program {tuple(claimed)}, recount {want}"]
    return []


def det_mod(rows, p: int) -> int:
    """Determinant of a square integer matrix mod p, by exact Python-int elimination."""
    a = [[c % p for c in row] for row in rows]
    n = len(a)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def check_distraction(rows, p: int, columns: int | None = None) -> list:
    """Every selection of one entry per row must be a basis of the linear forms.

    rows[i] lists the entries of row i; the last one repeats for later
    columns.  All columns**n selections are checked (columns defaults to
    the longest row), so stabilized tails are covered explicitly.
    """
    n = len(rows)
    width = columns if columns is not None else max(len(r) for r in rows)
    padded = [[r[min(j, len(r) - 1)] for j in range(width)] for r in rows]
    for combo in itertools.product(range(width), repeat=n):
        if det_mod([padded[i][j] for i, j in enumerate(combo)], p) == 0:
            return [f"distraction selection {combo} is singular mod {p}"]
    return []


def count_superideals(n: int, base_gens, dmax: int) -> int:
    """Monomial ideals containing the base, generated in degrees <= dmax.

    Such an ideal is its chain of graded pieces M_0..M_dmax, where M_d
    holds the degree-d monomials of the base and every multiple of M_{d-1};
    the rest of degree d is free.  Counted by recursion over the chain.
    """
    base_gens = minimal_generators(base_gens)
    levels = [monomials_of_degree(n, d) for d in range(dmax + 1)]
    in_base = [
        frozenset(m for m in level if any(divides(g, m) for g in base_gens))
        for level in levels
    ]

    def forced(d, prev):
        up = {
            m for m in levels[d]
            if any(m[i] and m[:i] + (m[i] - 1,) + m[i + 1:] in prev for i in range(n))
        }
        return up | in_base[d]

    def rec(d, prev):
        must = forced(d, prev)
        free = [m for m in levels[d] if m not in must]
        if d == dmax:
            return 1 << len(free)
        total = 0
        for k in range(len(free) + 1):
            for extra in itertools.combinations(free, k):
                total += rec(d + 1, must | set(extra))
        return total

    return rec(0, frozenset())


def check_betti(table: dict, gens, n: int, jmax: int, hf=None) -> list:
    """Betti table of A/I against the Hilbert series and the generators.

    table maps (i, j) to beta_ij.  For j <= jmax it must satisfy
    sum_i (-1)^i beta_ij = [t^j] (1-t)^n HS(t), with HS recounted from the
    generators (or given as hf), and beta_1j must equal the number of
    minimal generators of degree j.
    """
    problems = []
    hf = hilbert(gens, n, jmax) if hf is None else tuple(hf)
    numer = [
        sum((-1) ** k * comb(n, k) * hf[j - k] for k in range(min(n, j) + 1))
        for j in range(jmax + 1)
    ]
    for j in range(jmax + 1):
        alt = sum((-1) ** i * v for (i, jj), v in table.items() if jj == j)
        if alt != numer[j]:
            problems.append(f"degree {j}: alternating Betti sum {alt}, series gives {numer[j]}")
    mins = minimal_generators(gens)
    for j in range(jmax + 1):
        want = sum(1 for g in mins if sum(g) == j)
        if table.get((1, j), 0) != want:
            problems.append(f"beta_1,{j} = {table.get((1, j), 0)}, minimal generators {want}")
    return problems
