"""Dense exact linear algebra over a prime field, on numpy arrays.

Row updates keep every intermediate product below p**2.  That fits in
int64 for p < 2**31, so smaller primes use int64 arrays; from 2**31 on the
arrays hold exact Python ints (dtype=object).
"""

from __future__ import annotations

import numpy as np

INT64_PRIME_LIMIT = 2 ** 31


def field_dtype(p: int):
    """Array dtype for arithmetic mod p: int64 below INT64_PRIME_LIMIT, else object."""
    return np.int64 if p < INT64_PRIME_LIMIT else object


def _reduced(matrix, p: int):
    """matrix mod p, in field_dtype(p)."""
    return np.array(matrix, dtype=field_dtype(p)) % p


def rank_mod(matrix, p: int) -> int:
    """Rank of an integer matrix over F_p by Gaussian elimination.

    Entries are reduced mod p; below 2**31 they must fit in int64.  Exact
    for every prime p: int64 arithmetic below 2**31, Python ints from there on.
    """
    a = _reduced(matrix, p)
    if a.size == 0:
        return 0
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        pivot = None
        for r in range(rank, rows):
            if a[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = a[rank] * inv % p
        col = a[rank + 1:, c]
        nz = np.nonzero(col)[0]
        if nz.size:
            a[rank + 1 + nz] = (a[rank + 1 + nz] - np.outer(col[nz], a[rank])) % p
        rank += 1
    return rank


def invert_mod(matrix, p: int):
    """Inverse of a square matrix over F_p, or None if singular.

    Same arithmetic rule as rank_mod: an int64 array below 2**31, an array of
    Python ints (dtype=object) from there on.
    """
    a = _reduced(matrix, p)
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=a.dtype)], axis=1)
    row = 0
    for c in range(n):
        pivot = None
        for r in range(row, n):
            if aug[r, c]:
                pivot = r
                break
        if pivot is None:
            return None
        if pivot != row:
            aug[[row, pivot]] = aug[[pivot, row]]
        inv = pow(int(aug[row, c]), p - 2, p)
        aug[row] = aug[row] * inv % p
        for r in range(n):
            if r != row and aug[r, c]:
                aug[r] = (aug[r] - aug[r, c] * aug[row]) % p
        row += 1
    return aug[:, n:]
