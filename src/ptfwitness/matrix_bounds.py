"""Pattern matrices, the closed-form spectral norm, and the Forster-type
and pattern-matrix sign-rank lower bounds.

Every bound here is decided in rational arithmetic.  The pattern-matrix
norm is the closed form, read from the integer Walsh-Hadamard transform of
phi, and checked on every call against the spectrum of A A^T, which the
same integer transform computes.  The Forster bound rests on a rational
lambda >= ||A||^2, certified by an exact positive-definiteness test of
lambda I - G for the smaller Gram matrix G.
The pattern-matrix bound re-checks its smooth witness against its own f.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .brackets import sqrt_brackets, sqrt_lower
from .core import FnTable, as_rat, cleared
from .errors import PreconditionError, VerificationError
from .linalg import matrix_rank, positive_definite
from .oracles import DegreeAnswer, check_smooth_witness

F = Fraction

# largest pattern matrix (rows * cols) whose spectrum is checked
MAX_PATTERN_ENTRIES = 1 << 22
# forster_bound's lambda is within a factor 1 + 2^-FORSTER_BITS of ||A||^2
FORSTER_BITS = 32


@dataclass
class SpectralResult:
    norm_sq: Fraction  # exact square of the spectral norm
    argmax: frozenset[int]


def _walsh_hadamard(v: list[int]) -> list[int]:
    """The integer Walsh-Hadamard transform of v, len(v) a power of 2:
    entry s of the result is sum_w v[w] (-1)^popcount(s & w)."""
    v = list(v)
    h = 1
    while h < len(v):
        for start in range(0, len(v), 2 * h):
            for j in range(start, start + h):
                v[j], v[j + h] = v[j] + v[j + h], v[j] - v[j + h]
        h *= 2
    return v


def _pattern_spectrum_max(g: list[int], den: int, N: int, n: int) -> Fraction:
    """Largest eigenvalue of A A^T for the (N, n, g / den)-pattern matrix A.

    (A A^T)[x, x'] = k(x xor x') for the kernel row k(z) = <A[0], A[z]>, so
    the eigenvalues are the Walsh-Hadamard transform of k.  With
    c(y) = sum_w g(w) g(w xor y), the row den^2 k(z) = sum_V c(z_V) and its
    transform are integers.
    """
    b = N // n
    corr = [sum(g[w] * g[w ^ y] for w in range(1 << n)) for y in range(1 << n)]
    selections = list(itertools.product(*(range(i * b, (i + 1) * b) for i in range(n))))
    spec = _walsh_hadamard(
        [sum(corr[sum(((z >> v) & 1) << i for i, v in enumerate(V))] for V in selections)
         for z in range(1 << N)])
    return F(max(spec), den * den)


def pattern_spectral_norm(phi: FnTable, N: int, n: int) -> SpectralResult:
    """Spectral norm of the (N, n, phi)-pattern matrix: rows indexed by
    strings x of length N, columns by (one position per block V, shift mask
    w) pairs, entries phi(x_V xor w), for n | N and phi on the n-cube.

    The square of the norm is the exact rational
    2^(N+n) (N/n)^n  max_S  phi_hat(S)^2 (n/N)^|S|,
    checked for exact equality with the largest eigenvalue of A A^T from
    _pattern_spectrum_max.  argmax is the first maximal S by |S|, then in
    combinations order.  Matrices with more than MAX_PATTERN_ENTRIES
    entries are refused.
    """
    if not phi.domain.is_hypercube or phi.domain.n != n:
        raise PreconditionError("phi must live on the n-dimensional hypercube")
    if N < 1 or N % n:
        raise PreconditionError("block structure needs N >= 1 and n | N")
    rows, cols = 2 ** N, (N // n) ** n * 2 ** n
    if rows * cols > MAX_PATTERN_ENTRIES:
        raise PreconditionError(f"pattern matrix of size {rows}x{cols} too large")
    nums, den = cleared(phi.entries.values())
    g = [0] * (1 << n)
    for p, v in zip(phi.entries, nums):
        g[sum(bit << i for i, bit in enumerate(p))] = v
    ghat = _walsh_hadamard(g)
    # phi_hat(S)^2 (n/N)^|S| = ghat(S)^2 n^|S| N^(n-|S|) / (4^n den^2 N^n)
    best, best_S = -1, frozenset()
    for k in range(n + 1):
        for S in itertools.combinations(range(n), k):
            val = ghat[sum(1 << i for i in S)] ** 2 * n ** k * N ** (n - k)
            if val > best:
                best, best_S = val, frozenset(S)
    norm_sq = F(best << (N - n), den * den * n ** n)
    spectrum_max = _pattern_spectrum_max(g, den, N, n)
    if spectrum_max != norm_sq:
        raise VerificationError(
            f"spectral norm mismatch: closed form {norm_sq} vs spectrum {spectrum_max}")
    return SpectralResult(norm_sq=norm_sq, argmax=best_S)


@dataclass(frozen=True)
class ForsterBound:
    lower: Fraction          # sign-rank >= lower
    norm_sq_upper: Fraction  # lambda >= ||A||^2, certified


def forster_bound(matrix) -> ForsterBound:
    """sqrt(|X||Y|) / ||A|| times the least entry magnitude, certified.

    A rational lambda >= ||A||^2 is certified by positive definiteness of
    lambda I - G, G the smaller Gram matrix of A, tested exactly.  It is
    found by bisection on that test from the bracket
    [max_i G_ii, trace G + 1] (G_ii <= ||A||^2 <= trace G), stopping when
    hi - lo <= lo / 2^FORSTER_BITS.  The bound is
    sqrt_lower(|X||Y| / lambda) * min |a|.  Entries pass `core.as_rat` and
    must be nonzero.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if cols == 0 or any(len(row) != cols for row in matrix):
        raise PreconditionError("matrix must be nonempty and rectangular")
    entries = [as_rat(v) for row in matrix for v in row]
    if 0 in entries:
        raise PreconditionError("entries must be nonzero")
    nums, den = cleared(entries)
    a = [nums[i:i + cols] for i in range(0, len(nums), cols)]
    if rows > cols:
        a = [list(col) for col in zip(*a)]
    gram = [[sum(map(mul, r, s)) for s in a] for r in a]  # den^2 G
    diag = [gram[i][i] for i in range(len(gram))]
    # lo I - G has a zero on its diagonal, so it is never positive definite;
    # hi I - G always is, at the start because trace G >= ||A||^2
    lo, hi = F(max(diag)), F(sum(diag) + den * den)
    while hi - lo > lo / 2 ** FORSTER_BITS:
        mid = (lo + hi) / 2
        p, q = mid.numerator, mid.denominator
        shifted = [[(p if i == j else 0) - q * g for j, g in enumerate(row)]
                   for i, row in enumerate(gram)]
        if positive_definite(shifted):
            hi = mid
        else:
            lo = mid
    norm_sq = hi / (den * den)
    lower = sqrt_lower(F(rows * cols) / norm_sq) * min(abs(v) for v in entries)
    return ForsterBound(lower=lower, norm_sq_upper=norm_sq)


def signrank_le_1(matrix) -> bool:
    """True iff the sign pattern is an outer product of two sign vectors."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    sgn = [[1 if v > 0 else -1 if v < 0 else 0 for v in row] for row in matrix]
    if any(0 in row for row in sgn):
        return False
    u = [sgn[i][0] for i in range(rows)]
    v = [sgn[0][j] * sgn[0][0] for j in range(cols)]
    return all(sgn[i][j] == u[i] * v[j] for i in range(rows) for j in range(cols))


def staircase_matrices(order: int = 4) -> tuple[list[list[int]], list[list[int]]]:
    """The two classic low-sign-rank matrices: +1 on and above the diagonal
    with -1 below, and +1 exactly on the diagonal."""
    first = [[1 if j >= i else -1 for j in range(order)] for i in range(order)]
    second = [[1 if i == j else -1 for j in range(order)] for i in range(order)]
    return first, second


def staircase_realizations(order: int = 4
                           ) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Explicit real matrices of rank <= 2 and <= 3 matching the staircase
    sign patterns: the linear pencil 2(j - i) + 1, and a shifted Gram matrix
    of distinct rational points on the unit circle."""
    first = [[F(2 * (j - i) + 1) for j in range(order)] for i in range(order)]
    vecs = []
    for t in range(order):
        tt = F(t)
        vecs.append((F(1 - tt * tt, 1 + tt * tt) if t else F(1), F(2 * tt, 1 + tt * tt)))
    grams = [[va[0] * vb[0] + va[1] * vb[1] for vb in vecs] for va in vecs]
    off_max = max(grams[i][j] for i in range(order) for j in range(order) if i != j)
    eps = (1 - off_max) / 2
    second = [[grams[i][j] - (1 - eps) for j in range(order)] for i in range(order)]
    return first, second


def verify_realization(sign_matrix, real_matrix, max_rank: int) -> bool:
    """Exact check: the real matrix matches the sign pattern entrywise and
    has rank at most max_rank."""
    for srow, rrow in zip(sign_matrix, real_matrix):
        for s, v in zip(srow, rrow):
            if v == 0 or (v > 0) != (s > 0):
                return False
    return matrix_rank([[F(v) for v in row] for row in real_matrix]) <= max_rank


@dataclass
class PatternSignRank:
    gamma: Fraction
    d: int
    T: int
    bound_lower: Fraction    # a certified lower bracket of gamma T^(d/2)
    bound_is_exact: bool


def signrank_lb_pattern(f: FnTable, answer: DegreeAnswer, T: int) -> PatternSignRank:
    """Sign-rank lower bound gamma * T^(d/2) for the pattern matrix built
    from f, justified by a min-smooth witness of level d for f: the witness
    is re-checked against f by oracles.check_smooth_witness, and one that
    fails raises VerificationError (Razborov and Sherstov's
    smooth-orthogonalizing distribution argument)."""
    if answer.gamma is None or answer.dual is None:
        raise PreconditionError("need a certified min-smooth witness")
    if answer.dual.domain != f.domain:
        raise PreconditionError("the witness lives on another domain than f")
    gamma, d = answer.gamma, answer.value
    if d < 0 or gamma <= 0:
        raise PreconditionError("bound needs a certified level and positive gamma")
    if T < 1:
        raise PreconditionError("need T >= 1")
    check_smooth_witness(f, answer.dual, gamma, d)
    if d % 2 == 0:
        return PatternSignRank(gamma=gamma, d=d, T=T, bound_lower=gamma * F(T) ** (d // 2),
                               bound_is_exact=True)
    lo, _ = sqrt_brackets(F(T) ** d)
    return PatternSignRank(gamma=gamma, d=d, T=T, bound_lower=gamma * lo,
                           bound_is_exact=False)
