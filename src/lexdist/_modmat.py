"""Exact linear algebra over a prime field, on Python ints.

Python ints never overflow, so every prime p and every integer entry is
exact.  Rows are sparse {column: entry} dicts, so time and memory follow
the number of nonzero entries rather than the matrix shape.  reduce_row
is the one elimination step: rank_mod and distraction validation both
build their echelon forms with it.
"""

from __future__ import annotations


def reduce_row(v: dict, pivots: dict, p: int):
    """Reduce the sparse row v in place against monic pivot rows.

    pivots maps a column to a row whose smallest column is that one, with
    entry 1 there.  v is always reduced at its smallest nonzero column.
    Returns the column where no pivot row starts, which makes v a new pivot
    row once divided by its entry there, or None when v reduces to zero.
    """
    while v:
        c = min(v)
        prow = pivots.get(c)
        if prow is None:
            return c
        f = v[c]
        for k, x in prow.items():
            y = (v.get(k, 0) - f * x) % p
            if y:
                v[k] = y
            else:
                del v[k]
    return None


def monic(v: dict, c, p: int) -> dict:
    """The row v divided by its entry at column c."""
    inv = pow(v[c], -1, p)
    return {k: x * inv % p for k, x in v.items()}


def rank_mod(rows: list, p: int) -> int:
    """Rank over F_p of a matrix given as a list of sparse {column: entry} rows.

    Entries may be any integers; they are reduced mod p here.  Rows are
    taken sparsest first, which keeps the pivot rows sparse, and each
    becomes a new pivot row if reduce_row leaves anything of it.
    """
    vectors = [{k: y for k, x in row.items() if (y := x % p)} for row in rows]
    vectors.sort(key=len)
    pivots = {}
    for v in vectors:
        c = reduce_row(v, pivots, p)
        if c is not None:
            pivots[c] = monic(v, c, p)
    return len(pivots)
