"""Exact rational linear algebra: elimination, solving, rank, determinant,
and a fraction-free positive-definiteness test for integer matrices."""

from __future__ import annotations

from fractions import Fraction

from .errors import ArtifactError

Matrix = list[list[Fraction]]


def _echelon(m: Matrix, t: list[Fraction] | None):
    """In-place forward elimination with partial (first nonzero) pivoting.

    Returns (pivot_columns, row_swap_sign).
    """
    if not m:
        return [], 1
    rows, cols = len(m), len(m[0])
    piv_cols: list[int] = []
    sign = 1
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            if t is not None:
                t[r], t[pivot] = t[pivot], t[r]
            sign = -sign
        fp = m[r][c]
        for i in range(r + 1, rows):
            fi = m[i][c]
            if fi == 0:
                continue
            k = fi / fp
            row_i, row_r = m[i], m[r]
            for j in range(c, cols):
                row_i[j] -= row_r[j] * k
            if t is not None:
                t[i] -= t[r] * k
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return piv_cols, sign


def matrix_rank(a: Matrix) -> int:
    m = [row[:] for row in a]
    piv, _ = _echelon(m, None)
    return len(piv)


def solve_square(a: Matrix, b: list[Fraction]) -> tuple[list[Fraction], Fraction]:
    """Solve a nonsingular square system; returns (solution, determinant)."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ArtifactError("square solve needs an n x n system")
    m = [row[:] for row in a]
    t = list(b)
    piv, sign = _echelon(m, t)
    if len(piv) != n:
        raise ArtifactError("singular system")
    det = Fraction(sign)
    for r, c in enumerate(piv):
        det *= m[r][c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        c = piv[r]
        s = t[r]
        for j in range(c + 1, n):
            s -= m[r][j] * x[j]
        x[r] = s / m[r][c]
    # pivot columns of a nonsingular square matrix are 0..n-1 in order
    return x, det


def solve_consistent(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One solution of a (possibly rectangular) system, or None if inconsistent.

    Free variables are set to zero.
    """
    if not a:
        return [] if all(v == 0 for v in b) else None
    cols = len(a[0])
    m = [row[:] for row in a]
    t = list(b)
    piv, _ = _echelon(m, t)
    rank = len(piv)
    for i in range(rank, len(m)):
        if t[i] != 0:
            return None
    x = [Fraction(0)] * cols
    for r in range(rank - 1, -1, -1):
        c = piv[r]
        s = t[r]
        for j in range(c + 1, cols):
            if x[j] != 0 and m[r][j] != 0:
                s -= m[r][j] * x[j]
        x[c] = s / m[r][c]
    return x


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
