"""Exact linear algebra over a prime field, on Python ints.

Python ints never overflow, so every prime p and every integer entry is
exact.  rank_mod works on sparse rows, so its time and memory follow the
number of nonzero entries rather than the matrix shape.
"""

from __future__ import annotations


def rank_mod(rows: list, p: int) -> int:
    """Rank over F_p of a matrix given as a list of rows.

    A row is a sparse {column: entry} dict or a dense sequence of entries.
    Entries may be any integers; they are reduced mod p here.  Rows are
    taken sparsest first, which keeps the pivot rows sparse.  Each is reduced
    against the pivot rows, always at its smallest nonzero column, and
    becomes a new pivot row, keyed by that column, if anything is left.
    """
    vectors = []
    for row in rows:
        v = {}
        for k, x in (row.items() if isinstance(row, dict) else enumerate(row)):
            x %= p
            if x:
                v[k] = x
        vectors.append(v)
    vectors.sort(key=len)
    pivots = {}
    for v in vectors:
        while v:
            c = min(v)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(v[c], -1, p)
                pivots[c] = {k: x * inv % p for k, x in v.items()}
                break
            f = v[c]
            for k, x in prow.items():
                y = (v.get(k, 0) - f * x) % p
                if y:
                    v[k] = y
                else:
                    del v[k]
    return len(pivots)

