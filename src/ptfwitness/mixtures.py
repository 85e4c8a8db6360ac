"""Lazy products of univariate tables, and the distribution families used
to classify them.

A ProductMixture is a list of (coefficient, factor-label tuple) terms over
a shared dictionary of univariate tables.  Witness constructions combine a
handful of one-dimensional objects into high-dimensional products; keeping
the factorization explicit avoids dense blow-up and preserves the convex
structure that the downstream machinery needs (each term is a product of
named distributions, translates included).  `densify` expands a mixture
in integers: each factor is cleared once to numerators over its least
common denominator, every term's products accumulate as integers over
the lcm of the term denominators, and one Fraction is built per point.

Families:
  bounded(r, c, alpha)        pointwise envelope c^(t+1)/((t+1)^2 2^(alpha t))
                              .. 1/(c (t+1)^2 2^(alpha t)) on a prefix support
  bounded_star(r, c, alpha)   same with the sharper floor c/((t+1)^2 2^(alpha t))
  smooth(n, K)                K-smooth on a full product box
Translates by at most Delta are allowed in each case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .brackets import Bracket, pow2_brackets
from .core import (Domain, FnTable, as_rat, cleared, merge_domains, smoothness_constant,
                   tighten_domain)
from .errors import PreconditionError

F = Fraction

DENSIFY_LIMIT = 100_000


@dataclass
class ProductMixture:
    """sum_k coeff_k * (factors[label_k1] (x) ... (x) factors[label_km])."""

    factors: dict[str, FnTable]
    terms: list[tuple[Fraction, tuple[str, ...]]]

    def __post_init__(self):
        if not self.terms:
            raise PreconditionError("mixture needs at least one term")
        width = len(self.terms[0][1])
        for _, labels in self.terms:
            if len(labels) != width:
                raise PreconditionError("ragged mixture terms")
            for lab in labels:
                if lab not in self.factors:
                    raise PreconditionError(f"unknown factor label {lab!r}")

    @property
    def width(self) -> int:
        return len(self.terms[0][1])

    def position_domain(self, i: int) -> Domain:
        dom = None
        for _, labels in self.terms:
            d = self.factors[labels[i]].domain
            dom = d if dom is None else (d if d == dom else merge_domains(dom, d))
        return dom

    def ambient_domain(self) -> Domain:
        doms = [self.position_domain(i) for i in range(self.width)]
        bounds = tuple(b for d in doms for b in d.bounds)
        offset = tuple(o for d in doms for o in d.offset)
        return Domain(bounds, offset)

    def scale(self, a: Fraction) -> "ProductMixture":
        a = as_rat(a)
        return ProductMixture(self.factors, [(a * c, labs) for c, labs in self.terms])

    def _factors_with(self, other: "ProductMixture") -> dict[str, FnTable]:
        """Both factor dictionaries in one; a label of two different tables raises."""
        factors = dict(self.factors)
        for lab, t in other.factors.items():
            if factors.setdefault(lab, t) is not t and factors[lab] != t:
                raise PreconditionError(f"conflicting tables for label {lab!r}")
        return factors

    def combined(self, other: "ProductMixture") -> "ProductMixture":
        if self.width != other.width:
            raise PreconditionError("mixture width mismatch")
        factors = self._factors_with(other)
        merged: dict[tuple[str, ...], Fraction] = {}
        for c, labs in self.terms + other.terms:
            merged[labs] = merged.get(labs, F(0)) + c
        terms = [(c, labs) for labs, c in merged.items() if c != 0]
        if not terms:
            terms = [(F(0), self.terms[0][1])]
        return ProductMixture(factors, terms)

    def tensor_with(self, other: "ProductMixture") -> "ProductMixture":
        terms = [(c1 * c2, l1 + l2)
                 for c1, l1 in self.terms for c2, l2 in other.terms]
        return ProductMixture(self._factors_with(other), terms)

    def coefficients_convex(self) -> bool:
        return all(c >= 0 for c, _ in self.terms) and \
            sum((c for c, _ in self.terms), F(0)) == 1

    def densify(self) -> FnTable:
        dom = self.ambient_domain()
        if dom.size() > DENSIFY_LIMIT:
            raise PreconditionError(
                f"dense table would have {dom.size()} points (limit {DENSIFY_LIMIT})")
        # each factor once as (point, numerator) pairs over its denominator
        cleared_factors: dict[str, tuple[list, int]] = {}
        for _, labs in self.terms:
            for lab in labs:
                if lab not in cleared_factors:
                    entries = self.factors[lab].entries
                    nums, den = cleared(list(entries.values()))
                    cleared_factors[lab] = list(zip(entries, nums)), den
        # term k is the integer product over den_k = c.den * prod factor dens
        terms = []
        for c, labs in self.terms:
            if c != 0:
                den = c.denominator
                for lab in labs:
                    den *= cleared_factors[lab][1]
                terms.append((c.numerator, den, labs))
        big = lcm(*[den for _, den, _ in terms])
        acc: dict[tuple[int, ...], int] = {}
        for cn, den, labs in terms:
            partial = [((), cn * (big // den))]
            for lab in labs:
                items = cleared_factors[lab][0]
                partial = [(pt + blk, val * v) for pt, val in partial for blk, v in items]
            for pt, val in partial:
                acc[pt] = acc.get(pt, 0) + val
        return FnTable(dom, {pt: F(v, big) for pt, v in acc.items() if v}, _trusted=True)

    def l1_if_disjoint(self) -> Fraction:
        """l1 norm assuming the term supports are pairwise disjoint and every
        factor is a probability distribution (each term then has l1 = |coeff|)."""
        return sum((abs(c) for c, _ in self.terms), F(0))


def expand_power(factors: dict[str, FnTable], weights: dict[str, Fraction],
                 m: int) -> ProductMixture:
    """(sum_l weights[l] * factor_l)^(tensor m), expanded into len(weights)^m
    terms with merged coefficients."""
    labels = sorted(weights)
    terms: dict[tuple[str, ...], Fraction] = {}
    for combo in itertools.product(labels, repeat=m):
        c = F(1)
        for lab in combo:
            c *= weights[lab]
        if c:
            terms[combo] = terms.get(combo, F(0)) + c
    return ProductMixture(factors, [(c, labs) for labs, c in sorted(terms.items())])


# ------------------------------------------------------------------ families


@dataclass(frozen=True)
class FamilySpec:
    """Membership test for the bounded / bounded_star / smooth families."""

    kind: str  # "bounded" | "bounded_star" | "smooth"
    r: int | None = None
    c: Fraction | None = None
    alpha: Fraction | None = None
    K: Fraction | None = None
    n: int | None = None
    delta: int = 0

    def _alpha_brackets(self, t: int) -> Bracket:
        if not self.alpha:
            return F(1), F(1)
        return pow2_brackets(self.alpha * t)

    def member(self, table: FnTable) -> bool:
        if self.kind in ("bounded", "bounded_star"):
            return self._member_bounded(table)
        if self.kind == "smooth":
            return self._member_smooth(table)
        raise PreconditionError(f"unknown family kind {self.kind!r}")

    def _support_translate(self, table: FnTable) -> tuple[int, int] | None:
        """(translate a, top r') when the support is exactly {a..a+r'};
        None otherwise."""
        if table.domain.n != 1:
            return None
        pts = sorted(t for (t,) in table.entries)
        if not pts:
            return None
        a, top = pts[0], pts[-1]
        if pts != list(range(a, top + 1)):
            return None
        return a, top - a

    def _member_bounded(self, table: FnTable) -> bool:
        if not table.is_distribution():
            return False
        st = self._support_translate(table)
        if st is None:
            return False
        a, r_prime = st
        if a < 0 or a > self.delta or r_prime > self.r:
            return False
        for t in range(r_prime + 1):
            v = table((a + t,))
            lo, hi = self._alpha_brackets(t)
            # envelope checked against the adverse bracket side
            ceiling = 1 / (self.c * (t + 1) ** 2 * hi)
            if v > ceiling:
                return False
            # the floor is largest when the true power of two is smallest
            if self.kind == "bounded_star":
                floor = self.c / ((t + 1) ** 2 * lo)
            else:
                floor = self.c ** (t + 1) / ((t + 1) ** 2 * lo)
            if v < floor:
                return False
        return True

    def _member_smooth(self, table: FnTable) -> bool:
        if not table.is_distribution():
            return False
        boxed = tighten_domain(table)
        dom = boxed.domain
        if (self.n is not None and dom.n != self.n) or sum(dom.offset) > self.delta:
            return False
        if len(boxed.entries) != dom.size():
            return False  # support must be a full product box
        k = smoothness_constant(boxed)
        return k is not None and k <= self.K

    def best_bounded_c(self, table: FnTable) -> Fraction | None:
        """Largest c that makes the table a bounded_star member at this
        alpha and delta, decided against the adverse bracket sides."""
        st = self._support_translate(table)
        if st is None or not table.is_distribution():
            return None
        a, r_prime = st
        if a < 0 or a > self.delta or (self.r is not None and r_prime > self.r):
            return None
        best: Fraction | None = None
        for t in range(r_prime + 1):
            v = table((a + t,))
            lo, hi = self._alpha_brackets(t)
            cand = min(v * (t + 1) ** 2 * lo, 1 / (v * (t + 1) ** 2 * hi))
            best = cand if best is None else min(best, cand)
        return best
