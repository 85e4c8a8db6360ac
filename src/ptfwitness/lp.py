"""Exact rational linear programming.

A dense two-phase simplex with Bland's anti-cycling rule, so every solve is
deterministic across runs and platforms.  The tableau is fraction-free: each
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

Every answer carries a certificate that is re-verified in exact Fraction
arithmetic before it is returned: a feasible point is substituted into all
constraints, a Farkas witness is checked to combine the constraints into
the contradiction 0 >= positive, and an unbounded answer's feasible point
and recession ray are checked to stay feasible while the objective falls.

Constraint relations are "<=", ">=", "==".  Farkas sign convention: the
multiplier vector y satisfies y_i <= 0 on "<=" rows, y_i >= 0 on ">=" rows,
is free on "==" rows, sum_i y_i a_i = 0 componentwise, and
sum_i y_i b_i > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import ArtifactError, PreconditionError, VerificationError

F = Fraction

Row = tuple[Sequence[Fraction], str, Fraction]

_RELS = ("<=", ">=", "==")


@dataclass
class LPProblem:
    """min objective . x subject to the rows; objective None = feasibility."""

    n_vars: int
    rows: list[Row] = field(default_factory=list)
    objective: list[Fraction] | None = None
    nonneg: list[bool] | None = None  # per-variable; None = all free

    def add(self, coeffs, rel: str, rhs) -> None:
        if rel not in _RELS:
            raise PreconditionError(f"unknown relation {rel!r}")
        coeffs = [F(c) for c in coeffs]
        if len(coeffs) != self.n_vars:
            raise PreconditionError("row length mismatch")
        self.rows.append((coeffs, rel, F(rhs)))


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


def _dot(coeffs, x) -> Fraction:
    return sum((c * xi for c, xi in zip(coeffs, x) if c), F(0))


def _check_point(problem: LPProblem, x) -> None:
    if x is None or len(x) != problem.n_vars:
        raise VerificationError("missing primal point")
    if problem.nonneg:
        for xi, nn in zip(x, problem.nonneg):
            if nn and xi < 0:
                raise VerificationError("negative value for sign-constrained variable")
    for coeffs, rel, rhs in problem.rows:
        lhs = _dot(coeffs, x)
        ok = (lhs <= rhs) if rel == "<=" else (lhs >= rhs) if rel == ">=" else (lhs == rhs)
        if not ok:
            raise VerificationError(f"constraint violated: {lhs} {rel} {rhs}")


def verify_certificate(problem: LPProblem, cert: LPCertificate) -> None:
    """Exact re-check; raises VerificationError on any failure."""
    if cert.status in ("feasible", "optimal"):
        _check_point(problem, cert.x)
        if cert.status == "optimal" and problem.objective is not None:
            if _dot(problem.objective, cert.x) != cert.objective_value:
                raise VerificationError("objective value mismatch")
    elif cert.status == "infeasible":
        y = cert.farkas
        if y is None or len(y) != len(problem.rows):
            raise VerificationError("missing farkas multipliers")
        combo = [F(0)] * problem.n_vars
        rhs_combo = F(0)
        for yi, (coeffs, rel, rhs) in zip(y, problem.rows):
            if rel == "<=" and yi > 0:
                raise VerificationError("farkas sign error on <= row")
            if rel == ">=" and yi < 0:
                raise VerificationError("farkas sign error on >= row")
            if yi:
                for j, c in enumerate(coeffs):
                    if c:
                        combo[j] += yi * c
                rhs_combo += yi * rhs
        # the combination must dominate: sum y_i a_i x >= sum y_i b_i for all
        # feasible x; with the variable coefficients cancelling on the
        # unconstrained directions, a strict positive rhs is a contradiction
        if problem.nonneg:
            for j, (cj, nn) in enumerate(zip(combo, problem.nonneg)):
                if nn:
                    if cj > 0:
                        raise VerificationError("farkas residual positive on nonneg var")
                elif cj != 0:
                    raise VerificationError("farkas residual on free var")
        else:
            if any(c != 0 for c in combo):
                raise VerificationError("farkas residual on free var")
        if rhs_combo <= 0:
            raise VerificationError("farkas rhs combination not positive")
    elif cert.status == "unbounded":
        _check_point(problem, cert.x)
        ray = cert.ray
        if ray is None or len(ray) != problem.n_vars:
            raise VerificationError("missing recession ray")
        if problem.nonneg:
            for ri, nn in zip(ray, problem.nonneg):
                if nn and ri < 0:
                    raise VerificationError("ray negative on sign-constrained variable")
        for coeffs, rel, _ in problem.rows:
            v = _dot(coeffs, ray)
            ok = (v <= 0) if rel == "<=" else (v >= 0) if rel == ">=" else (v == 0)
            if not ok:
                raise VerificationError(f"ray leaves the feasible set: {v} {rel} 0")
        if problem.objective is None or _dot(problem.objective, ray) >= 0:
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
    nonneg = problem.nonneg or [False] * n
    if len(nonneg) != n:
        raise PreconditionError("nonneg mask length mismatch")
    objective = problem.objective
    if objective is not None and len(objective) != n:
        raise PreconditionError("objective length mismatch")

    # column layout: for each variable either one column (nonneg) or a
    # split pair x = x+ - x-; then one slack per inequality row; then one
    # artificial per row, art0 + i for row i.
    col_of_var: list[tuple[int, int]] = []
    ncols = 0
    for nn in nonneg:
        if nn:
            col_of_var.append((ncols, -1))
            ncols += 1
        else:
            col_of_var.append((ncols, ncols + 1))
            ncols += 2
    slack_col = {}
    for i, (_, rel, _) in enumerate(problem.rows):
        if rel != "==":
            slack_col[i] = ncols
            ncols += 1
    m = len(problem.rows)
    art0 = ncols
    ncols += m

    # constraint rows, scaled by the lcm of their denominators and by the
    # sign sigma_i that makes the right-hand side nonnegative
    T: list[list[int]] = []
    D: list[int] = []
    sigma = []
    for i, (coeffs, rel, rhs) in enumerate(problem.rows):
        s = 1 if rhs >= 0 else -1
        sigma.append(s)
        L = lcm(rhs.denominator, *(c.denominator for c in coeffs))
        row = [0] * (ncols + 1)
        for j, c in enumerate(coeffs):
            if not c:
                continue
            v = s * c.numerator * (L // c.denominator)
            cp, cm = col_of_var[j]
            row[cp] = v
            if cm >= 0:
                row[cm] = -v
        if rel != "==":
            row[slack_col[i]] = s * L if rel == "<=" else -s * L
        row[art0 + i] = L
        row[-1] = s * rhs.numerator * (L // rhs.denominator)
        T.append(row)
        D.append(L)

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
        out = []
        for cp, cm in col_of_var:
            v = colval.get(cp, F(0))
            if cm >= 0:
                v -= colval.get(cm, F(0))
            out.append(v)
        return out

    def basic_point() -> list[Fraction]:
        return point({basis[i]: F(T[i][-1], D[i]) for i in range(m)})

    if objective is not None:
        dc = lcm(*(c.denominator for c in objective))
        cost = [0] * (ncols + 1)
        for j, c in enumerate(objective):
            if not c:
                continue
            v = c.numerator * (dc // c.denominator)
            cp, cm = col_of_var[j]
            cost[cp] = v
            if cm >= 0:
                cost[cm] = -v
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
        return LPCertificate(status="optimal", x=x, objective_value=_dot(objective, x),
                             duals=duals)
    return LPCertificate(status="feasible", x=x)
