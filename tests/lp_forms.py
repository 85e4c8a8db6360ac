"""Relational linear programs posed in the standard form of ptfwitness.lp."""

from ptfwitness.lp import LPProblem


def standard_form(n: int, rows_with_relations, objective=None) -> LPProblem:
    """The LP over n nonnegative variables with rows (coeffs, rel, rhs), rel
    one of "<=", ">=", "==", as an equality LP: each inequality row gets its
    own slack variable, with coefficient +1 on a "<=" row and -1 on a ">="
    row, appended after the n variables in row order.  The objective, when
    given over the n variables, is 0 on the slacks."""
    rows = list(rows_with_relations)
    if any(rel not in ("<=", ">=", "==") for _, rel, _ in rows):
        raise ValueError("relations are <=, >= and ==")
    k = sum(rel != "==" for _, rel, _ in rows)
    p = LPProblem(n + k)
    j = 0
    for coeffs, rel, rhs in rows:
        slack = [0] * k
        if rel != "==":
            slack[j] = 1 if rel == "<=" else -1
            j += 1
        p.add([*coeffs, *slack], rhs)
    if objective is not None:
        p.objective = [*objective, *[0] * k]
    return p
