"""Float references for the exact spectral layer: numpy's SVD against the
pattern-matrix closed form and against the certified Forster lambda."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from ptfwitness.core import FnTable, hypercube
from ptfwitness.matrix_bounds import forster_bound, pattern_spectral_norm

F = Fraction


def materialize(phi, N, n):
    """The (N, n, phi)-pattern matrix: row x, column (V, w), entry phi(x_V xor w)."""
    b = N // n
    cols = [(V, w) for V in itertools.product(*(range(i * b, (i + 1) * b) for i in range(n)))
            for w in hypercube(n).points()]
    return np.array([[float(phi(tuple(x[v] ^ wi for v, wi in zip(V, w)))) for V, w in cols]
                     for x in hypercube(N).points()])


def test_pattern_norm_matches_numpy():
    rng = random.Random(4242)
    for N, n in ((2, 1), (3, 1), (4, 2), (6, 2), (6, 3), (8, 4)):
        dom = hypercube(n)
        pts = list(dom.points())
        for _ in range(4):
            phi = FnTable(dom, {p: F(rng.randint(-8, 8), rng.randint(1, 5))
                                for p in rng.sample(pts, k=rng.randint(1, len(pts)))})
            if phi.is_zero():
                continue
            exact = float(pattern_spectral_norm(phi, N, n).norm_sq)
            numeric = float(np.linalg.norm(materialize(phi, N, n), 2)) ** 2
            assert abs(exact - numeric) <= 1e-9 * max(exact, numeric)


def random_matrices(rng):
    for _ in range(30):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        yield [[rng.choice((1, -1)) for _ in range(cols)] for _ in range(rows)]
        yield [[F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
                for _ in range(cols)] for _ in range(rows)]


def test_forster_lambda_matches_numpy():
    for matrix in random_matrices(random.Random(777)):
        a = np.array([[float(v) for v in row] for row in matrix])
        sigma = float(np.linalg.norm(a, 2))
        b = forster_bound(matrix)
        lam = float(b.norm_sq_upper)
        # sigma^2 <= lambda <= sigma^2 (1 + 1e-8), with room for numpy's rounding
        assert sigma ** 2 * (1 - 1e-12) <= lam <= sigma ** 2 * (1 + 1e-8)
        numeric = math.sqrt(a.size) / sigma * float(np.min(np.abs(a)))
        assert float(b.lower) <= numeric * (1 + 1e-12)
