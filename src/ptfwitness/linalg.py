"""Exact rank of rational matrices, and a fraction-free
positive-definiteness test for symmetric integer matrices."""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def matrix_rank(a: Matrix) -> int:
    """Rank by forward elimination with first-nonzero pivoting."""
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row_r = m[r]
        fp = row_r[c]
        for i in range(r + 1, rows):
            fi = m[i][c]
            if fi == 0:
                continue
            k = fi / fp
            row_i = m[i]
            for j in range(c, cols):
                row_i[j] -= row_r[j] * k
        r += 1
    return r


def positive_definite(m: list[list[int]]) -> bool:
    """True iff the symmetric integer matrix m is positive definite.

    Fraction-free (Bareiss) elimination without row exchanges: after step
    k the pivot is the leading principal minor of order k + 1, and every
    division is exact.  By Sylvester's criterion m is positive definite
    exactly when all these pivots are positive, so the elimination stops
    at the first one that is not.  The trailing block stays symmetric, so
    only its upper triangle is updated.
    """
    a = [row[:] for row in m]
    n = len(a)
    prev = 1
    for k in range(n):
        row_k = a[k]
        pivot = row_k[k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            f = row_k[i]  # a[i][k], by symmetry
            row_i = a[i]
            for j in range(i, n):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
        prev = pivot
    return True
