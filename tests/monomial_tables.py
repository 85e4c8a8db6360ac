"""The degree-grouped monomial value tables that the earlier oracle ladder
read, for the test-side references: `monomial_table` as the library had it,
built on `core._monomial_rows`."""

import itertools
from operator import itemgetter

from ptfwitness.core import Domain, Point, _monomial_rows


def monomial_table(domain: Domain, points: list[Point]):
    """For d = 0 .. sum(bounds), the monomials alphas of degree <= d and
    their values table[k][i] = points[i]^alphas[k]; each yield extends the
    same two lists.  At the last d they span every function on the domain.
    Each row is built from its parent's row (see `_monomial_rows`)."""
    alphas: list[Point] = []
    table: list[list[int]] = []
    rows = _monomial_rows(domain.bounds, points, [1] * len(points), sum(domain.bounds))
    for _, group in itertools.groupby(rows, key=itemgetter(0)):
        for _, alpha, row in group:
            alphas.append(alpha)
            table.append(row)
        yield alphas, table
