from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lp_forms import standard_form
from ptfwitness.lp import LPCertificate, LPProblem, solve, verify_certificate
from ptfwitness.errors import PreconditionError, VerificationError

F = Fraction


def test_infeasible_pair():
    p = standard_form(1, [([1], ">=", 1), ([1], "<=", 0)])
    cert = solve(p)
    assert cert.status == "infeasible"
    assert [abs(y) for y in cert.farkas] == [1, 1]


def test_single_equality():
    p = LPProblem(1)
    p.add([1], 1)
    cert = solve(p)
    assert cert.status == "feasible" and cert.x == [1]


def test_parity2_dual_feasibility():
    # a weight function y >= 0 on the four points of {0,1}^2 that is
    # orthogonal to 1, x1, x2 after sign twisting by parity: proves the
    # threshold degree of two-bit parity exceeds 1
    pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    sign = [1, -1, -1, 1]
    p = LPProblem(4)
    p.add([F(s) for s in sign], 0)
    p.add([F(s * x[0]) for s, x in zip(sign, pts)], 0)
    p.add([F(s * x[1]) for s, x in zip(sign, pts)], 0)
    p.add([F(1)] * 4, 1)
    cert = solve(p)
    assert cert.status == "feasible"


def test_optimization_and_duals():
    # min -x - y st x + 2y <= 4, x <= 2, x,y >= 0 -> x=2, y=1
    p = standard_form(2, [([1, 2], "<=", 4), ([1, 0], "<=", 2)], objective=[F(-1), F(-1)])
    cert = solve(p)
    assert cert.status == "optimal"
    assert cert.x == [2, 1, 0, 0]
    assert cert.objective_value == -3
    assert cert.duals is not None


def test_unbounded():
    # min -x over x >= 0
    p = standard_form(1, [([1], ">=", 0)], objective=[F(-1)])
    with pytest.raises(PreconditionError, match="unbounded"):
        solve(p)


def test_unbounded_ray_through_slack_column():
    # min -x + y/2 st x - y <= 1, y >= 2: the objective falls along x = y,
    # parallel to the first row, so the descent moves the surplus column of
    # y >= 2 while the first row stays tight
    p = standard_form(2, [([1, -1], "<=", 1), ([0, 1], ">=", 2)],
                      objective=[F(-1), F(1, 2)])
    with pytest.raises(PreconditionError, match="unbounded"):
        solve(p)


def test_verify_rejects_unknown_status():
    p = LPProblem(1)
    p.add([1], 1)
    with pytest.raises(VerificationError):
        verify_certificate(p, LPCertificate(status="solved", x=[F(1)]))


def test_float_entry_rejected():
    p = LPProblem(1)
    with pytest.raises(PreconditionError):
        p.add([0.1], F(3, 10))
    with pytest.raises(PreconditionError):
        p.add([1], 0.3)
    assert p.rows == []


def test_bool_entry_rejected():
    # a bool is an int subclass; like core.as_rat, the LP takes it for no number
    p = LPProblem(2)
    with pytest.raises(PreconditionError, match="ints or Fractions"):
        p.add([True, 1], 1)
    with pytest.raises(PreconditionError, match="ints or Fractions"):
        p.add([1, 1], False)
    assert p.rows == []
    p.objective = [F(1), True]
    with pytest.raises(PreconditionError, match="ints or Fractions"):
        solve(p)


def test_rows_only_through_add():
    with pytest.raises(TypeError):
        LPProblem(1, rows=[([1], 1, 1)])


def test_short_objective_rejected():
    p = LPProblem(2)
    p.add([1, 0], 0)
    p.objective = [F(-1)]
    with pytest.raises(PreconditionError):
        solve(p)


def test_long_objective_rejected():
    p = LPProblem(1)
    p.add([1], 0)
    p.objective = [F(1), F(1)]
    with pytest.raises(PreconditionError):
        solve(p)


def test_verify_rejects_bad_point():
    p = LPProblem(1)
    p.add([1], 1)
    with pytest.raises(VerificationError):
        verify_certificate(p, solve_cert_with_bad_point())


def solve_cert_with_bad_point():
    return LPCertificate(status="feasible", x=[F(0)])


@st.composite
def random_lp(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    rows = []
    for _ in range(m):
        coeffs = [F(draw(st.integers(-3, 3))) for _ in range(n)]
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        rhs = F(draw(st.integers(-4, 4)))
        rows.append((coeffs, rel, rhs))
    return standard_form(n, rows)


@given(random_lp())
@settings(max_examples=80, deadline=None)
def test_random_feasibility_certified(p):
    # solve() re-verifies internally; reaching here means the certificate
    # checked out for whichever status was returned
    cert = solve(p)
    assert cert.status in ("feasible", "infeasible")
