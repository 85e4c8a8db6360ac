"""Exact rational linear programming in standard form: A x = b, x >= 0.

Every variable is nonnegative, and is one column of the tableau.  Every
constraint is an equality; a caller with an inequality adds its own slack
variable s >= 0, posing a . x + s == b for a . x at most b and a . x - s == b
for a . x at least b.  A dense two-phase simplex with Bland's anti-cycling
rule, so every solve is deterministic across runs and platforms.
LPProblem.add clears each constraint's denominators once and stores it as a
row (nums, rhs, den): the constraint nums . x == rhs over integers, all
divided by one positive den.  Entries must be ints or Fractions.

The tableau starts from those rows as they are and stays fraction-free: each
row is a list of Python ints over one positive row denominator, divided by
the gcd of the row and its denominator after every update, so a row holds
its rational values in lowest common terms without a gcd per entry.
Because every row denominator is positive, each sign Bland's rule reads (a
reduced cost, a column entry) is the sign of an integer numerator, and the
ratio test rhs_i / a_i compares the same quotients as integer
cross-products, the row denominator cancelling.  The pivot sequence, the
final basis and every returned value are therefore those of the plain
Fraction tableau; Fractions appear only at the boundary, in the returned
point, multipliers and objective value.

Every answer carries a certificate that is re-verified in integer
arithmetic before it is returned: a feasible point is cleared to integers
and substituted into all constraints, and a Farkas vector y, free in sign,
is scaled to integers and checked to have sum_i y_i a_i <= 0 componentwise
and sum_i y_i b_i > 0, so that every x >= 0 would give the contradiction
0 >= (sum_i y_i a_i) . x = sum_i y_i b_i > 0.  An objective unbounded below
on the feasible set raises PreconditionError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .core import cleared
from .errors import ArtifactError, PreconditionError, VerificationError

F = Fraction
_EXACT_TYPES = frozenset({int, Fraction})  # the LP's only entry types

# (nums, rhs, den): the constraint nums . x == rhs, all over den > 0
Row = tuple[list[int], int, int]


def _cleared(values) -> tuple[list[int], int]:
    """Integer numerators of ints and Fractions over their least common
    positive denominator.  Only values of exactly these two types pass:
    a bool, like any other type, raises PreconditionError."""
    if not all(map(_EXACT_TYPES.__contains__, map(type, values))):
        raise PreconditionError("LP entries must be ints or Fractions")
    return cleared(values)


@dataclass
class LPProblem:
    """min objective . x subject to the rows and x >= 0; objective None =
    feasibility.  Rows come in only through add."""

    n_vars: int
    rows: list[Row] = field(default_factory=list, init=False)
    objective: list[Fraction] | None = None

    def add(self, coeffs, rhs) -> None:
        """The row coeffs . x == rhs."""
        nums, den = _cleared([*coeffs, rhs])
        if len(nums) != self.n_vars + 1:
            raise PreconditionError("row length mismatch")
        rhs = nums.pop()
        self.rows.append((nums, rhs, den))


@dataclass
class LPCertificate:
    status: str  # "feasible" | "optimal" | "infeasible"
    x: list[Fraction] | None = None
    objective_value: Fraction | None = None
    farkas: list[Fraction] | None = None
    duals: list[Fraction] | None = None


def _check_point(problem: LPProblem, v) -> tuple[list[int], int]:
    """Check a point against every row in integers: with v = nums / m, row
    (a, b, den) needs a . nums == b * m.  Returns (nums, m)."""
    if v is None or len(v) != problem.n_vars:
        raise VerificationError("missing primal point")
    nums, m = _cleared(v)
    if any(a < 0 for a in nums):
        raise VerificationError("primal point has a negative entry")
    for coeffs, rhs, _ in problem.rows:
        lhs, b = sum(map(mul, coeffs, nums)), rhs * m
        if lhs != b:
            raise VerificationError(f"primal point violates a constraint: {lhs} != {b}")
    return nums, m


def verify_certificate(problem: LPProblem, cert: LPCertificate) -> None:
    """Exact re-check in integers; raises VerificationError on any failure."""
    if cert.status in ("feasible", "optimal"):
        x, m = _check_point(problem, cert.x)
        if cert.status == "optimal" and problem.objective is not None:
            if cert.objective_value is None:
                raise VerificationError("objective value mismatch")
            *c, v = _cleared([*problem.objective, cert.objective_value])[0]
            if sum(map(mul, c, x)) != v * m:
                raise VerificationError("objective value mismatch")
    elif cert.status == "infeasible":
        y = cert.farkas
        if y is None or len(y) != len(problem.rows):
            raise VerificationError("missing farkas multipliers")
        # in integers: yd * L * y_i * a_i = yn_i * (L / den_i) * nums_i, L = lcm(den_i)
        yn, _ = _cleared(y)
        L = lcm(*[den for *_, den in problem.rows])
        combo = [0] * problem.n_vars
        rhs_combo = 0
        for w, (coeffs, rhs, den) in zip(yn, problem.rows):
            if w:
                k = w * (L // den)
                combo = [a + k * c for a, c in zip(combo, coeffs)]
                rhs_combo += k * rhs
        # every feasible x >= 0 has sum_i y_i b_i = (sum_i y_i a_i) . x <= 0
        # when sum_i y_i a_i <= 0, so a positive rhs is a contradiction
        if any(c > 0 for c in combo):
            raise VerificationError("farkas residual positive on a variable")
        if rhs_combo <= 0:
            raise VerificationError("farkas rhs combination not positive")
    else:
        raise VerificationError(f"unknown status {cert.status!r}")


# The tableau T is a list of integer rows, the last one the cost row and the
# last entry of each row its right-hand side; D[i] > 0 is row i's
# denominator, so entry (i, j) has the rational value T[i][j] / D[i].


def _pivot(T: list[list[int]], D: list[int], basis: list[int], r: int, c: int) -> None:
    row_r = T[r]
    p = row_r[c]
    if p < 0:
        row_r = [-v for v in row_r]
        p = -p
    g = gcd(p, *row_r)
    if g > 1:
        row_r = [v // g for v in row_r]
        p //= g
    # pivot row over denominator p: its entry in column c is now 1
    T[r] = row_r
    D[r] = p
    for i, row in enumerate(T):
        if i == r:
            continue
        f = row[c]
        if f:
            # row/d - (f/d) * row_r/p == (row * p - f * row_r) / (d * p)
            if p == 1:
                new = [a - f * b for a, b in zip(row, row_r)]
                d = D[i]
            else:
                new = [a * p - f * b for a, b in zip(row, row_r)]
                d = D[i] * p
            g = gcd(d, *new)
            if g > 1:
                new = [v // g for v in new]
                d //= g
            T[i] = new
            D[i] = d
    basis[r] = c


def _bland_iterate(T: list[list[int]], D: list[int], basis: list[int], width: int) -> int:
    """Run simplex iterations, entering only columns below `width`.

    Returns -1 at an optimum, or the entering column that no row bounds.
    """
    m = len(T) - 1
    while True:
        cost = T[-1]
        enter = -1
        for j in range(width):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return -1
        leave = -1
        best_num = best_den = 0
        for i in range(m):
            row = T[i]
            a = row[enter]
            if a > 0:
                # ratio row[-1] / a against best_num / best_den, both a > 0
                if leave < 0:
                    leave, best_num, best_den = i, row[-1], a
                    continue
                lhs = row[-1] * best_den
                rhs = best_num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_num, best_den = i, row[-1], a
        if leave < 0:
            return enter
        _pivot(T, D, basis, leave, enter)


def solve(problem: LPProblem) -> LPCertificate:
    """Solve an LPProblem; the returned certificate has been re-verified."""
    cert = _solve_raw(problem)
    verify_certificate(problem, cert)
    return cert


def _solve_raw(problem: LPProblem) -> LPCertificate:
    n = problem.n_vars
    objective = problem.objective
    if objective is not None and len(objective) != n:
        raise PreconditionError("objective length mismatch")

    # column layout: column j is variable j; then one artificial per row,
    # art0 + i for row i.
    m = len(problem.rows)
    art0 = n
    ncols = n + m

    # constraint rows as stored, times the sign sigma_i that makes the
    # right-hand side nonnegative
    T: list[list[int]] = []
    D: list[int] = []
    sigma = []
    for i, (coeffs, rhs, den) in enumerate(problem.rows):
        s = 1 if rhs >= 0 else -1
        sigma.append(s)
        row = [s * c for c in coeffs] + [0] * (m + 1)
        row[art0 + i] = den
        row[-1] = s * rhs
        T.append(row)
        D.append(den)

    # phase-1 cost: minimize sum of artificials -> reduced costs
    # -sum_i row_i + sum of the artificial unit costs, over lcm(D)
    dc = lcm(*D)
    cost = [0] * (ncols + 1)
    for row, d in zip(T, D):
        k = dc // d
        for j, v in enumerate(row):
            if v:
                cost[j] -= k * v
    for i in range(m):
        cost[art0 + i] += dc
    T.append(cost)
    D.append(dc)

    basis = [art0 + i for i in range(m)]
    if _bland_iterate(T, D, basis, ncols) >= 0:
        raise ArtifactError("phase 1 cannot be unbounded")
    cost, dc = T[-1], D[-1]
    if cost[-1] < 0:
        # infeasible: multipliers from the reduced costs of the artificials
        return LPCertificate(status="infeasible",
                             farkas=[s * F(dc - cost[art0 + i], dc) for i, s in enumerate(sigma)])

    # phase 2: artificials may no longer enter; drive them out of the basis
    # where possible (degenerate rows)
    for i in range(m):
        if basis[i] >= art0:
            row = T[i]
            for j in range(art0):
                if row[j]:
                    _pivot(T, D, basis, i, j)
                    break

    if objective is not None:
        obj, dc = _cleared(objective)
        cost = obj + [0] * (m + 1)
        for i in range(m):
            f = cost[basis[i]]
            if f:
                # cost/dc - (f/dc) * row/d == (cost * d - f * row) / (dc * d)
                d = D[i]
                cost = [a * d - f * b for a, b in zip(cost, T[i])]
                dc *= d
                g = gcd(dc, *cost)
                if g > 1:
                    cost = [v // g for v in cost]
                    dc //= g
        T[-1] = cost
        D[-1] = dc
        if _bland_iterate(T, D, basis, art0) >= 0:
            raise PreconditionError("objective unbounded below on the feasible set")

    colval = {basis[i]: F(T[i][-1], D[i]) for i in range(m)}
    x = [colval.get(j, F(0)) for j in range(n)]
    if objective is None:
        return LPCertificate(status="feasible", x=x)
    cost, dc = T[-1], D[-1]
    duals = [s * F(-cost[art0 + i], dc) for i, s in enumerate(sigma)]
    return LPCertificate(status="optimal", x=x, objective_value=F(-cost[-1], dc),
                         duals=duals)
