"""Cross-validation of the exact simplex against an independent float
solver on random instances.  Each instance is drawn with relations, handed
to the float solver as drawn and to the exact solver in standard form.
Feasibility status must agree everywhere; optimal values must agree to
float tolerance."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

scipy_opt = pytest.importorskip("scipy.optimize")
linprog = scipy_opt.linprog

from lp_forms import standard_form
from ptfwitness.errors import PreconditionError
from ptfwitness.lp import solve

F = Fraction


def to_scipy(n: int, rows, objective=None):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, rel, rhs in rows:
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
    c = [float(x) for x in (objective or [F(0)] * n)]
    return dict(c=c, A_ub=np.array(a_ub) if a_ub else None,
                b_ub=np.array(b_ub) if b_ub else None,
                A_eq=np.array(a_eq) if a_eq else None,
                b_eq=np.array(b_eq) if b_eq else None,
                bounds=bounds, method="highs")


rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 6))


@st.composite
def random_lp(draw, with_objective: bool):
    """(n, rows (coeffs, rel, rhs), objective or None)."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    rows = []
    for _ in range(m):
        coeffs = [draw(rationals) for _ in range(n)]
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        rows.append((coeffs, rel, F(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))))
    objective = [draw(rationals) for _ in range(n)] if with_objective else None
    return n, rows, objective


@given(random_lp(with_objective=False))
@settings(max_examples=120, deadline=None)
def test_feasibility_agrees_with_float_solver(lp):
    n, rows, _ = lp
    ours = solve(standard_form(n, rows))
    ref = linprog(**to_scipy(n, rows))
    if ours.status == "feasible":
        assert ref.status in (0, 3)  # found or unbounded objective of 0
    else:
        assert ref.status == 2  # infeasible


@given(random_lp(with_objective=True))
@settings(max_examples=120, deadline=None)
def test_optimum_agrees_with_float_solver(lp):
    n, rows, objective = lp
    try:
        ours = solve(standard_form(n, rows, objective=objective))
    except PreconditionError as exc:
        assert "unbounded" in str(exc)
        # HiGHS's own unbounded verdict is unreliable (presolve can call a
        # feasible unbounded problem infeasible, and without presolve some
        # end as status 4), so confirm it by two bounded float programs:
        # the constraints are feasible, and some recession direction r
        # lowers the objective, min c.r subject to the homogeneous rows and
        # c.r >= -1
        assert linprog(**to_scipy(n, rows)).status == 0
        cone = [(coeffs, rel, 0) for coeffs, rel, _ in rows] + [(objective, ">=", -1)]
        ray = linprog(**to_scipy(n, cone, objective))
        assert ray.status == 0 and ray.fun <= -1 + 1e-7
        return
    ref = linprog(**to_scipy(n, rows, objective))
    if ours.status == "optimal":
        assert ref.status == 0
        assert abs(float(ours.objective_value) - ref.fun) <= 1e-7 * (1 + abs(ref.fun))
    else:
        assert ours.status == "infeasible" and ref.status == 2
