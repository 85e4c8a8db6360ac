"""Cross-validation of the exact simplex against an independent float
solver on random instances.  Feasibility status must agree everywhere;
optimal values must agree to float tolerance."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

scipy_opt = pytest.importorskip("scipy.optimize")
linprog = scipy_opt.linprog

from ptfwitness.lp import LPProblem, solve

F = Fraction


def fraction_rows(p: LPProblem):
    return [([F(c, den) for c in nums], rel, F(rhs, den)) for nums, rel, rhs, den in p.rows]


def to_scipy(p: LPProblem):
    n = p.n_vars
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, rel, rhs in fraction_rows(p):
        row = [float(c) for c in coeffs]
        if rel == "<=":
            a_ub.append(row)
            b_ub.append(float(rhs))
        elif rel == ">=":
            a_ub.append([-c for c in row])
            b_ub.append(-float(rhs))
        else:
            a_eq.append(row)
            b_eq.append(float(rhs))
    bounds = [(0, None)] * n
    c = [float(x) for x in (p.objective or [F(0)] * n)]
    return dict(c=c, A_ub=np.array(a_ub) if a_ub else None,
                b_ub=np.array(b_ub) if b_ub else None,
                A_eq=np.array(a_eq) if a_eq else None,
                b_eq=np.array(b_eq) if b_eq else None,
                bounds=bounds, method="highs")


rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 6))


@st.composite
def random_lp(draw, with_objective: bool):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    p = LPProblem(n)
    for _ in range(m):
        coeffs = [draw(rationals) for _ in range(n)]
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        p.add(coeffs, rel, F(draw(st.integers(-4, 4)), draw(st.integers(1, 6))))
    if with_objective:
        p.objective = [draw(rationals) for _ in range(n)]
    return p


@given(random_lp(with_objective=False))
@settings(max_examples=120, deadline=None)
def test_feasibility_agrees_with_float_solver(p):
    ours = solve(p)
    ref = linprog(**to_scipy(p))
    if ours.status == "feasible":
        assert ref.status in (0, 3)  # found or unbounded objective of 0
    else:
        assert ref.status == 2  # infeasible


@given(random_lp(with_objective=True))
@settings(max_examples=120, deadline=None)
def test_optimum_agrees_with_float_solver(p):
    ours = solve(p)
    ref = linprog(**to_scipy(p))
    if ours.status == "optimal":
        assert ref.status == 0
        assert abs(float(ours.objective_value) - ref.fun) <= 1e-7 * (1 + abs(ref.fun))
    elif ours.status == "infeasible":
        assert ref.status == 2
    elif ours.status == "unbounded":
        # HiGHS's own unbounded verdict is unreliable (presolve can call a
        # feasible unbounded problem infeasible, and without presolve some
        # end as status 4), so confirm it by two bounded float programs: the
        # constraints are feasible, and some recession direction r lowers
        # the objective, min c.r subject to the homogeneous rows and c.r >= -1
        feas = LPProblem(p.n_vars)
        feas.rows[:] = p.rows
        assert linprog(**to_scipy(feas)).status == 0
        cone = LPProblem(p.n_vars, objective=p.objective)
        for coeffs, rel, _ in fraction_rows(p):
            cone.add(coeffs, rel, 0)
        cone.add(p.objective, ">=", -1)
        ray = linprog(**to_scipy(cone))
        assert ray.status == 0 and ray.fun <= -1 + 1e-7
