"""The two closed-form exact answers, corrector levels by Lagrange weights
and the least fitting degree by forward differences, against the Fraction
solvers they replaced, and linalg.matrix_rank against numpy.

The reference below is the earlier implementation, kept verbatim: the
Gaussian elimination `_echelon` with `solve_square` and
`solve_consistent`, the moment-system `old_corrector_levels` and the
growing-system `old_least_poly_degree`.
"""

import random
from fractions import Fraction
from math import comb, prod

import numpy as np
from hypothesis import given, settings, strategies as st

from monomial_tables import monomial_table
from ptfwitness.core import (
    Domain,
    FnTable,
    eval_monomial,
    least_poly_degree,
    monomials,
)
from ptfwitness.corrector import corrector_levels
from ptfwitness.errors import ArtifactError, ConstructionError, PreconditionError
from ptfwitness.linalg import matrix_rank

F = Fraction

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


def old_corrector_levels(n: int, d: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Weight-level values z_0..z_d with sum_k z_k C(n,k) k^j = -n^j for
    j = 0..d, so that the table (levels, top level = 1) kills all degree-d
    moments.  Returns (levels, determinant of the moment system)."""
    if not (0 <= d < n):
        raise PreconditionError("need 0 <= d < n")
    # k ** j follows the 0^0 = 1 convention, matching the moment basis
    a = [[F(comb(n, k) * k ** j) for k in range(d + 1)] for j in range(d + 1)]
    b = [F(-(n ** j)) for j in range(d + 1)]
    sol, det = solve_square(a, b)
    if det == 0:
        raise ConstructionError("singular moment system")
    return tuple(sol), det


def old_least_poly_degree(f: FnTable) -> int:
    """Least d such that some polynomial of total degree <= d agrees with f
    everywhere on its domain, decided by exact linear solves of one system
    that gains the monomials of each degree as d grows."""
    if f.is_zero():
        return 0
    pts = list(f.domain.points())
    values = [f(p) for p in pts]
    system: list[list[Fraction]] = [[] for _ in pts]  # system[i][k] = pts[i]^alphas[k]
    for d, (_, table) in enumerate(monomial_table(f.domain, pts)):
        for vals in table[len(system[0]):]:
            for row, v in zip(system, vals):
                row.append(Fraction(v))
        if solve_consistent(system, values) is not None:
            return d
    raise ArtifactError("the full-degree monomials span every function")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_corrector_levels_match_moment_solve(data):
    n = data.draw(st.integers(1, 40))
    d = data.draw(st.integers(0, n - 1))
    levels, det = corrector_levels(n, d)
    assert (levels, det) == old_corrector_levels(n, d)
    assert isinstance(det, Fraction)


# The reference solves a system with one row per box point and up to one
# column per point, so random tables, which need the top degree, stay on
# boxes of at most 32 points; planted polynomials of degree <= 2 may fill
# the whole 4^4 box.
RANDOM_BOX_POINTS = 32


@st.composite
def box_tables(draw):
    n = draw(st.integers(1, 4))
    bounds = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    offset = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    planted = draw(st.integers(-1, 2))  # -1: random rationals
    if planted < 0:
        while prod(b + 1 for b in bounds) > RANDOM_BOX_POINTS:
            bounds[bounds.index(max(bounds))] -= 1
    dom = Domain(tuple(bounds), offset)
    rat = st.builds(F, st.integers(-4, 4), st.integers(1, 5))
    if planted < 0:
        return FnTable(dom, {p: draw(rat) for p in dom.points()})
    alphas = [a for d in range(planted + 1) for a in monomials(dom.bounds, d)]
    coeffs = [draw(rat) for _ in alphas]
    return FnTable(dom, {p: sum((c * eval_monomial(p, a) for a, c in zip(alphas, coeffs)), F(0))
                         for p in dom.points()})


@given(box_tables())
@settings(max_examples=60, deadline=None)
def test_least_poly_degree_matches_linear_solves(f):
    assert least_poly_degree(f) == old_least_poly_degree(f)


def test_least_poly_degree_on_full_boxes_matches_linear_solves():
    # the largest boxes the strategy allows, which it rarely draws
    rng = random.Random(12)
    for bounds, offset, degree in [((3, 3, 3, 3), (1, 0, 2, 3), 2),
                                   ((3, 3, 3, 3), (0, 0, 0, 0), 1),
                                   ((3, 2, 3), (2, 1, 0), 3)]:
        dom = Domain(bounds, offset)
        alphas = [a for d in range(degree + 1) for a in monomials(bounds, d)]
        coeffs = {a: F(rng.randint(-3, 3), rng.randint(1, 4)) for a in alphas}
        coeffs[alphas[-1]] = F(1)  # keep the planted degree
        entries = {p: sum((c * eval_monomial(p, a) for a, c in coeffs.items()), F(0))
                   for p in dom.points()}
        f = FnTable(dom, entries)
        assert least_poly_degree(f) == old_least_poly_degree(f) == degree


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_matrix_rank_matches_numpy(rows, cols, data):
    # low rank is planted as a product of two small integer factors
    inner = data.draw(st.integers(1, min(rows, cols)))
    ints = st.integers(-3, 3)
    a = np.array(data.draw(st.lists(ints, min_size=rows * inner, max_size=rows * inner)),
                 dtype=np.int64).reshape(rows, inner)
    b = np.array(data.draw(st.lists(ints, min_size=inner * cols, max_size=inner * cols)),
                 dtype=np.int64).reshape(inner, cols)
    m = a @ b
    assert matrix_rank([[F(int(v)) for v in row] for row in m]) == np.linalg.matrix_rank(m)


def test_matrix_rank_edge_cases():
    assert matrix_rank([]) == 0
    assert matrix_rank([[F(0), F(0)], [F(0), F(0)]]) == 0
    assert matrix_rank([[F(0), F(1)], [F(1), F(0)]]) == 2
    assert matrix_rank([[F(1, 2), F(1, 3)], [F(3), F(2)]]) == 1
