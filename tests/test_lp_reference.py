"""The standard-form integer-row simplex in ptfwitness.lp against the
relational Fraction tableau it replaced, and its integer certificate check
against the Fraction check.

The reference below is the earlier dense Fraction implementation of
_pivot, _bland_iterate and _solve_raw, kept verbatim.  It takes rows with
the relations "<=", ">=" and "==" and places one slack column per
inequality row, after the variables and in row order.  lp takes every row
as an equality, so it is fed the standard form of the same program
(lp_forms.standard_form), whose slack variables sit in exactly those
columns.  Both tableaux then hold the same rational values and run Bland's
rule on them, so they take the same pivots and must return the same status,
Farkas multipliers, duals, objective value and point on the original
variables, on every input.  Where the reference reports an unbounded
objective, lp raises PreconditionError.

The earlier Fraction verify_certificate, _check_point and _dot are kept
verbatim too: on the standard-form rows, all "==", the integer
verify_certificate must accept a certificate, intact or mutated, exactly
when they do.  Both references read (coeffs, rel, rhs) Fraction triples
with the all-True sign mask of an LP whose variables are all nonnegative:
relational() for a drawn program, fraction_view() for an lp program.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from lp_forms import standard_form
from ptfwitness import lp, oracles
from ptfwitness.circuits import mp_table
from ptfwitness.errors import ArtifactError, PreconditionError, VerificationError
from ptfwitness.lp import LPCertificate, LPProblem

F = Fraction


def relational(n: int, rows, objective=None) -> SimpleNamespace:
    return SimpleNamespace(n_vars=n, objective=objective, nonneg=[True] * n, rows=rows)


def fraction_view(p: LPProblem) -> SimpleNamespace:
    return relational(p.n_vars, [([F(c, d) for c in a], "==", F(b, d)) for a, b, d in p.rows],
                      p.objective)


# ------------------------------------------------------------ reference

def _pivot(T: list[list[Fraction]], basis: list[int], r: int, c: int) -> None:
    piv = T[r][c]
    row_r = T[r]
    inv = 1 / piv
    for j in range(len(row_r)):
        if row_r[j]:
            row_r[j] *= inv
    for i, row in enumerate(T):
        if i == r:
            continue
        f = row[c]
        if f:
            for j in range(len(row)):
                if row_r[j]:
                    row[j] -= f * row_r[j]
    basis[r] = c


def _bland_iterate(T, basis, allowed) -> str:
    """Run simplex iterations on tableau T (last row = cost, last col = rhs)."""
    m = len(T) - 1
    width = len(T[0]) - 1
    cost = T[-1]
    while True:
        enter = -1
        for j in range(width):
            if allowed[j] and cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)



def _solve_raw(problem: LPProblem) -> LPCertificate:
    n = problem.n_vars
    nonneg = problem.nonneg or [False] * n
    if len(nonneg) != n:
        raise PreconditionError("nonneg mask length mismatch")

    # column layout: for each variable either one column (nonneg) or a
    # split pair x = x+ - x-; then one slack per inequality row; then one
    # artificial per row.
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
    art_col = {}
    for i in range(len(problem.rows)):
        art_col[i] = ncols
        ncols += 1

    m = len(problem.rows)
    T = [[F(0)] * (ncols + 1) for _ in range(m + 1)]
    sigma = [1] * m
    for i, (coeffs, rel, rhs) in enumerate(problem.rows):
        s = 1 if rhs >= 0 else -1
        sigma[i] = s
        row = T[i]
        for j, c in enumerate(coeffs):
            if not c:
                continue
            cp, cm = col_of_var[j]
            row[cp] += s * c
            if cm >= 0:
                row[cm] -= s * c
        if rel != "==":
            row[slack_col[i]] = F(s if rel == "<=" else -s)
        row[art_col[i]] = F(1)
        row[-1] = s * rhs

    basis = [art_col[i] for i in range(m)]
    # phase-1 cost: minimize sum of artificials -> reduced costs
    cost = T[-1]
    for i in range(m):
        for j in range(ncols + 1):
            if T[i][j]:
                cost[j] -= T[i][j]
    for i in range(m):
        cost[art_col[i]] += 1  # art columns have unit cost

    allowed = [True] * ncols
    status = _bland_iterate(T, basis, allowed)
    if status != "optimal":
        raise ArtifactError("phase 1 cannot be unbounded")
    phase1_value = -T[-1][-1]
    if phase1_value > 0:
        # infeasible: multipliers from the reduced costs of the artificials
        y = []
        for i in range(m):
            pi = 1 - T[-1][art_col[i]]
            y.append(sigma[i] * pi)
        return LPCertificate(status="infeasible", farkas=y)

    # phase 2
    art_set = set(art_col.values())
    for j in art_set:
        allowed[j] = False
    # drive artificials out of the basis where possible (degenerate rows)
    for i in range(m):
        if basis[i] in art_set:
            for j in range(ncols):
                if j not in art_set and T[i][j] != 0:
                    _pivot(T, basis, i, j)
                    break

    objective = problem.objective
    cost = T[-1]
    for j in range(ncols + 1):
        cost[j] = F(0)
    if objective is not None:
        for j, c in enumerate(objective):
            if not c:
                continue
            cp, cm = col_of_var[j]
            cost[cp] += c
            if cm >= 0:
                cost[cm] -= c
        for i in range(m):
            f = cost[basis[i]]
            if f:
                row = T[i]
                for j in range(ncols + 1):
                    if row[j]:
                        cost[j] -= f * row[j]
        status = _bland_iterate(T, basis, allowed)
        if status == "unbounded":
            return LPCertificate(status="unbounded")

    x = [F(0)] * n
    colval = {}
    for i in range(m):
        colval[basis[i]] = T[i][-1]
    for j, (cp, cm) in enumerate(col_of_var):
        v = colval.get(cp, F(0))
        if cm >= 0:
            v -= colval.get(cm, F(0))
        x[j] = v
    duals = None
    if objective is not None:
        duals = [sigma[i] * (F(0) - T[-1][art_col[i]]) for i in range(m)]
        obj_value = sum((c * xi for c, xi in zip(objective, x) if c), F(0))
        return LPCertificate(status="optimal", x=x, objective_value=obj_value, duals=duals)
    return LPCertificate(status="feasible", x=x)


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


# ------------------------------------------------------------ comparison

def assert_same_answer(ref_problem: SimpleNamespace, p: LPProblem) -> str:
    """The reference on the relational program against lp on its standard
    form p; returns the status."""
    ref = _solve_raw(ref_problem)
    if ref.status == "unbounded":
        with pytest.raises(PreconditionError, match="unbounded"):
            lp._solve_raw(p)
        return ref.status
    new = lp._solve_raw(p)
    lp.verify_certificate(p, new)
    assert new.status == ref.status
    if new.x is not None:
        new.x = new.x[:ref_problem.n_vars]
    for name in ("farkas", "duals", "objective_value", "x"):
        want, got = getattr(ref, name), getattr(new, name)
        assert got == want, name
        values = got if isinstance(got, list) else [] if got is None else [got]
        assert all(type(v) is Fraction for v in values), name
    return new.status


rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 6))


@st.composite
def rational_lp(draw) -> tuple[SimpleNamespace, LPProblem]:
    """A drawn relational program and its standard form."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    rows = []
    for _ in range(m):
        coeffs = [draw(rationals) for _ in range(n)]
        rel = draw(st.sampled_from(["<=", ">=", "=="]))
        rhs = F(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))
        rows.append((coeffs, rel, rhs))
    objective = draw(st.none() | st.lists(rationals, min_size=n, max_size=n))
    return relational(n, rows, objective), standard_form(n, rows, objective=objective)


@given(rational_lp())
@settings(max_examples=300, deadline=None)
def test_same_answer_as_fraction_tableau(case):
    assert_same_answer(*case)


def test_unbounded_status_matches_reference():
    rows = [([F(1, 2), F(-1, 3)], ">=", F(1, 4))]
    objective = [F(-1, 5), F(0)]
    status = assert_same_answer(relational(2, rows, objective),
                                standard_form(2, rows, objective=objective))
    assert status == "unbounded"


def _recorded_problems(monkeypatch, run) -> list[LPProblem]:
    seen = []

    def record(problem):
        seen.append(problem)
        return lp.solve(problem)

    monkeypatch.setattr(oracles, "solve", record)
    run()
    return seen


def test_same_answer_on_threshold_degree_ladder(monkeypatch):
    problems = _recorded_problems(monkeypatch, lambda: oracles.threshold_degree(mp_table(2, 3)))
    assert len(problems) >= 2
    statuses = {assert_same_answer(fraction_view(p), p) for p in problems}
    assert statuses == {"feasible", "infeasible"}


def test_same_answer_on_smooth_ladder(monkeypatch):
    # right-hand sides -floor * sum(...) with floor = gamma / |X| exercise the
    # per-row lcm scaling
    problems = _recorded_problems(
        monkeypatch, lambda: oracles.smooth_threshold_degree(mp_table(2, 3), F(1, 1728)))
    assert any(rhs.denominator > 1 for p in problems for _, _, rhs in fraction_view(p).rows)
    for p in problems:
        assert_same_answer(fraction_view(p), p)


def reference_accepts(p: LPProblem, cert: LPCertificate) -> bool:
    try:
        verify_certificate(fraction_view(p), cert)
    except VerificationError:
        return False
    return True


def integer_accepts(p: LPProblem, cert: LPCertificate) -> bool:
    try:
        lp.verify_certificate(p, cert)
    except VerificationError:
        return False
    return True


@st.composite
def certificate_and_mutation(draw):
    _, p = draw(rational_lp())
    try:
        cert = lp._solve_raw(p)
    except PreconditionError:
        assume(False)  # unbounded: no certificate
    fields = [name for name in ("x", "farkas") if getattr(cert, name)]
    name = draw(st.sampled_from(fields))
    values = list(getattr(cert, name))
    k = draw(st.integers(0, len(values) - 1))
    change = draw(st.sampled_from(["none", "+1/7", "-1/7", "negate", "zero all"]))
    if change == "negate":
        values[k] = -values[k]
    elif change == "zero all":
        values = [F(0)] * len(values)
    elif change != "none":
        values[k] += F(change)
    setattr(cert, name, values)
    return p, cert, change


@given(certificate_and_mutation())
@settings(max_examples=400, deadline=None)
def test_integer_check_accepts_what_fraction_check_accepts(case):
    p, cert, change = case
    want = reference_accepts(p, cert)
    assert integer_accepts(p, cert) == want
    if change == "none":
        assert want
