"""Shared brute-force oracles, kept independent of the library internals."""

import itertools
from math import comb

import pytest


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


@pytest.fixture
def rng():
    import random

    return random.Random(987654321)
