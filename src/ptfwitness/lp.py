"""Exact rational linear programming over nonnegative variables.

Every variable is nonnegative, and is one column of the tableau.  A dense
two-phase simplex with Bland's anti-cycling rule, so every solve is
deterministic across runs and platforms.  LPProblem.add clears each
constraint's denominators once and stores it as a row (nums, rel, rhs, den):
the constraint nums . x rel rhs over integers, all divided by one positive
den.  Entries must be ints or Fractions.

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
point, multipliers, ray and objective value.

Every answer carries a certificate that is re-verified in integer
arithmetic before it is returned: a feasible point is cleared to integers
and substituted into all constraints, a Farkas witness is scaled to
integers and checked to combine the constraints into the contradiction
0 >= positive, and an unbounded answer's point and recession ray are
checked to stay feasible while the objective falls.

Constraint relations are "<=", ">=", "==".  Farkas sign convention: the
multiplier vector y satisfies y_i <= 0 on "<=" rows, y_i >= 0 on ">=" rows,
is free on "==" rows, sum_i y_i a_i <= 0 componentwise, and
sum_i y_i b_i > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .core import cleared
from .errors import ArtifactError, PreconditionError, VerificationError

F = Fraction

# (nums, rel, rhs, den): the constraint nums . x rel rhs, all over den > 0
Row = tuple[list[int], str, int, int]

_RELS = ("<=", ">=", "==")


def _cleared(values) -> tuple[list[int], int]:
    """Integer numerators of ints and Fractions over their least common
    positive denominator."""
    if not all(isinstance(v, (int, Fraction)) for v in values):
        raise PreconditionError("LP entries must be ints or Fractions")
    return cleared(values)


@dataclass
class LPProblem:
    """min objective . x subject to the rows and x >= 0; objective None =
    feasibility.  Rows come in only through add."""

    n_vars: int
    rows: list[Row] = field(default_factory=list, init=False)
    objective: list[Fraction] | None = None

    def add(self, coeffs, rel: str, rhs) -> None:
        if rel not in _RELS:
            raise PreconditionError(f"unknown relation {rel!r}")
        nums, den = _cleared([*coeffs, rhs])
        if len(nums) != self.n_vars + 1:
            raise PreconditionError("row length mismatch")
        rhs = nums.pop()
        self.rows.append((nums, rel, rhs, den))


@dataclass
class LPCertificate:
    status: str  # "feasible" | "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None
    objective_value: Fraction | None = None
    farkas: list[Fraction] | None = None
    duals: list[Fraction] | None = None
    # "unbounded": x is feasible and x + t * ray stays feasible for all t >= 0
    # while the objective decreases without bound
    ray: list[Fraction] | None = None


def _check_point(problem: LPProblem, v, what: str, ray: bool = False) -> tuple[list[int], int]:
    """Check a point, or a recession ray, against every row in integers:
    with v = nums / m, row (a, rel, b, den) needs a . nums rel b * m for a
    point and a . nums rel 0 for a ray.  Returns (nums, m)."""
    if v is None or len(v) != problem.n_vars:
        raise VerificationError(f"missing {what}")
    nums, m = _cleared(v)
    if any(a < 0 for a in nums):
        raise VerificationError(f"{what} has a negative entry")
    for coeffs, rel, rhs, _ in problem.rows:
        lhs, b = sum(map(mul, coeffs, nums)), 0 if ray else rhs * m
        if not ((lhs <= b) if rel == "<=" else (lhs >= b) if rel == ">=" else (lhs == b)):
            raise VerificationError(f"{what} violates a constraint: {lhs} {rel} {b}")
    return nums, m


def verify_certificate(problem: LPProblem, cert: LPCertificate) -> None:
    """Exact re-check in integers; raises VerificationError on any failure."""
    if cert.status in ("feasible", "optimal"):
        x, m = _check_point(problem, cert.x, "primal point")
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
        for w, (coeffs, rel, rhs, den) in zip(yn, problem.rows):
            if rel == "<=" and w > 0:
                raise VerificationError("farkas sign error on <= row")
            if rel == ">=" and w < 0:
                raise VerificationError("farkas sign error on >= row")
            if w:
                k = w * (L // den)
                combo = [a + k * c for a, c in zip(combo, coeffs)]
                rhs_combo += k * rhs
        # every feasible x >= 0 has sum_i y_i b_i <= (sum_i y_i a_i) . x <= 0
        # when sum_i y_i a_i <= 0, so a positive rhs is a contradiction
        if any(c > 0 for c in combo):
            raise VerificationError("farkas residual positive on a variable")
        if rhs_combo <= 0:
            raise VerificationError("farkas rhs combination not positive")
    elif cert.status == "unbounded":
        _check_point(problem, cert.x, "primal point")
        ray, _ = _check_point(problem, cert.ray, "recession ray", ray=True)
        if problem.objective is None or sum(map(mul, _cleared(problem.objective)[0], ray)) >= 0:
            raise VerificationError("ray does not decrease the objective")
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

    # column layout: column j is variable j; then one slack per inequality
    # row; then one artificial per row, art0 + i for row i.
    ncols = n
    slack_col = {}
    for i, (_, rel, _, _) in enumerate(problem.rows):
        if rel != "==":
            slack_col[i] = ncols
            ncols += 1
    m = len(problem.rows)
    art0 = ncols
    ncols += m

    # constraint rows as stored, times the sign sigma_i that makes the
    # right-hand side nonnegative
    T: list[list[int]] = []
    D: list[int] = []
    sigma = []
    for i, (coeffs, rel, rhs, den) in enumerate(problem.rows):
        s = 1 if rhs >= 0 else -1
        sigma.append(s)
        row = [s * c for c in coeffs] + [0] * (ncols - n + 1)
        if rel != "==":
            row[slack_col[i]] = s * den if rel == "<=" else -s * den
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

    def point(colval: dict[int, Fraction]) -> list[Fraction]:
        return [colval.get(j, F(0)) for j in range(n)]

    def basic_point() -> list[Fraction]:
        return point({basis[i]: F(T[i][-1], D[i]) for i in range(m)})

    if objective is not None:
        obj, dc = _cleared(objective)
        cost = obj + [0] * (ncols - n + 1)
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
        enter = _bland_iterate(T, D, basis, art0)
        if enter >= 0:
            # the basic point, and the edge along which the entering column
            # grows while no basic column is driven negative
            ray = {enter: F(1)}
            for i in range(m):
                if T[i][enter]:
                    ray[basis[i]] = F(-T[i][enter], D[i])
            return LPCertificate(status="unbounded", x=basic_point(),
                                 ray=point(ray))

    x = basic_point()
    if objective is not None:
        cost, dc = T[-1], D[-1]
        duals = [s * F(-cost[art0 + i], dc) for i, s in enumerate(sigma)]
        return LPCertificate(status="optimal", x=x, objective_value=F(-cost[-1], dc),
                             duals=duals)
    return LPCertificate(status="feasible", x=x)
