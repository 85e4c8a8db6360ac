"""The integer table arithmetic of ptfwitness.core (`combine` and the
table operations built on it), ProductMixture.densify,
oracles.twist, brackets.pow2_bound and smooth_ops.select_heavy_set against
the code they replaced (tests/exact_references.py), which did one Fraction
operation at a time or, for the twist, built a dense +-1 table.

Every kernel must return the same values on the same support.  The
strategies mix denominators, draw negative values and coefficients,
empty tables and terms that cancel, so that points summing to zero must
be dropped.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exact_references import (
    fraction_add_scaled,
    fraction_densify,
    fraction_l1,
    fraction_scale,
    fraction_select_heavy_set,
    fraction_tensor,
    fraction_total,
    hadamard,
    sign_table,
    two_sided_pow2_brackets,
)
from ptfwitness.brackets import pow2_bound, pow2_brackets
from ptfwitness.core import Domain, FnTable, combine, merge_domains
from ptfwitness.errors import PreconditionError
from ptfwitness.mixtures import DENSIFY_LIMIT, ProductMixture
from ptfwitness.oracles import twist
from ptfwitness.smooth_ops import select_heavy_set

F = Fraction

# denominators that share factors and denominators that do not
rationals = st.builds(F, st.integers(-40, 40),
                      st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12, 35, 64, 10**6 + 3]))


@st.composite
def tables(draw, n=None):
    """A table on a small box (offsets and weight windows included) with
    random rational values on a random subset of its points, possibly
    none."""
    n = draw(st.integers(1, 3)) if n is None else n
    bounds = tuple(draw(st.integers(0, 2)) for _ in range(n))
    offset = tuple(draw(st.integers(0, 1)) for _ in range(n))
    window = None
    if draw(st.booleans()):
        lo = sum(offset) + draw(st.integers(0, sum(bounds)))
        window = (lo, lo + draw(st.integers(0, 2)))
    dom = Domain(bounds, offset, window)
    return FnTable(dom, {p: draw(rationals) for p in dom.points() if draw(st.booleans())})


def same_table(got: FnTable, want: FnTable) -> None:
    assert got.domain == want.domain
    assert got.entries == want.entries
    assert all(type(v) is Fraction and v != 0 for v in got.entries.values())


@st.composite
def combinations(draw):
    """(domain, terms) with up to five terms (c, entries) on one box: the
    entries of a table or a plain dict (zero values included), possibly
    empty, zero coefficients, and terms that cancel some of the points of
    the terms before them."""
    dom = draw(tables()).domain
    terms, so_far = [], {}
    for _ in range(draw(st.integers(0, 5))):
        c = draw(rationals)
        entries = {}
        for p in dom.points():
            if p in so_far and c and draw(st.booleans()):
                entries[p] = -so_far[p] / c  # cancels exactly
            elif draw(st.booleans()):
                entries[p] = draw(rationals)
        if draw(st.booleans()):
            entries = FnTable(dom, entries).entries
        terms.append((c, entries))
        fraction_add_scaled(so_far, c, entries)
    return dom, terms


@given(combinations())
@settings(max_examples=300, deadline=None)
def test_combine_matches_fraction_reference(case):
    dom, terms = case
    want = {}
    for c, entries in terms:
        fraction_add_scaled(want, c, entries)
    same_table(combine(dom, terms), FnTable(dom, want, _trusted=True))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(tables(n), tables(n))))
@settings(max_examples=300, deadline=None)
def test_sum_and_difference_match_fraction_reference(pair):
    f, g = pair
    for sign, got in ((1, f + g), (-1, f - g)):
        want = dict(f.entries)
        fraction_add_scaled(want, sign, g.entries)
        assert got.entries == want
        assert all(type(v) is Fraction for v in got.entries.values())
    # f - f cancels every point
    assert (f - f).entries == {}


@given(tables(), rationals)
@settings(max_examples=300, deadline=None)
def test_scale_total_l1_match_fraction_reference(f, a):
    same_table(f.scale(a), fraction_scale(f, a))
    assert f.total() == fraction_total(f) and type(f.total()) is Fraction
    assert f.l1() == fraction_l1(f) and type(f.l1()) is Fraction


@st.composite
def twist_cases(draw):
    """(mu, f): f a Boolean table on mu's domain, or on a box that holds
    mu's domain, with a random set of 1-points."""
    n = draw(st.integers(1, 3))
    mu = draw(tables(n))
    dom = mu.domain if draw(st.booleans()) else merge_domains(mu.domain, draw(tables(n)).domain)
    return mu, FnTable(dom, {p: F(1) for p in dom.points() if draw(st.booleans())})


@given(twist_cases())
@settings(max_examples=300, deadline=None)
def test_twist_matches_hadamard_reference(case):
    mu, f = case
    same_table(twist(mu, f), hadamard(mu, sign_table(f)))


def test_twist_rejects_support_outside_the_boolean_domain():
    mu = FnTable(Domain((2,)), {(0,): F(1, 2), (2,): F(1, 2)})
    f = FnTable(Domain((1,)), {(1,): F(1)})
    # the dense reference drops the point (2,) without a word
    assert hadamard(mu, sign_table(f)).entries == {(0,): F(1, 2)}
    with pytest.raises(PreconditionError, match="outside the domain"):
        twist(mu, f)
    with pytest.raises(PreconditionError, match="outside the domain"):
        twist(FnTable(Domain((1, 1)), {(0, 1): F(1)}), f)  # another dimension
    with pytest.raises(PreconditionError, match="Boolean"):
        twist(mu, FnTable(Domain((2,)), {(1,): F(2)}))
    # support inside f's domain passes, whatever mu's own domain
    assert twist(FnTable(Domain((2,)), {(1,): F(1, 3)}), f).entries == {(1,): F(-1, 3)}


def densify_product(factors, labels, c=F(1)):
    """One mixture term c * factors[l1] (x) factors[l2] ..., densified."""
    return ProductMixture(factors, [(c, labels)]).densify()


def same_product(got: FnTable, want: FnTable) -> None:
    """Equal entries; densify homes its table on the ambient box, so a
    weight window of the reference's domain is dropped."""
    assert got.domain == Domain(want.domain.bounds, want.domain.offset)
    same_table(got, FnTable(got.domain, want.entries, _trusted=True))


@given(tables(), tables())
@settings(max_examples=300, deadline=None)
def test_tensor_matches_fraction_reference(f, g):
    same_product(densify_product({"f": f, "g": g}, ("f", "g")), fraction_tensor(f, g))


def fraction_power(f: FnTable, m: int) -> FnTable:
    want = f
    for _ in range(m - 1):
        want = fraction_tensor(want, f)
    return want


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(tables(n), tables(n))),
       st.integers(1, 3), rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_tensor_power_matches_fraction_reference(pair, m, a, b):
    f, g = pair
    # one term: f^(x)m
    check_product(ProductMixture({"f": f}, [(F(1), ("f",) * m)]), lambda: fraction_power(f, m))

    # two terms: a f^(x)m + b g^(x)m on the box that holds both
    def two_terms():
        want = {}
        fraction_add_scaled(want, a, fraction_power(f, m).entries)
        fraction_add_scaled(want, b, fraction_power(g, m).entries)
        pos = f.domain if f.domain == g.domain else merge_domains(f.domain, g.domain)
        return FnTable(Domain(pos.bounds * m, pos.offset * m), want, _trusted=True)

    check_product(ProductMixture({"f": f, "g": g}, [(a, ("f",) * m), (b, ("g",) * m)]),
                  two_terms)


def check_product(mix: ProductMixture, want) -> None:
    """mix.densify() equals the table want() builds; past DENSIFY_LIMIT
    points the product is refused instead, never truncated."""
    if mix.ambient_domain().size() > DENSIFY_LIMIT:
        with pytest.raises(PreconditionError, match="dense table"):
            mix.densify()
    else:
        same_product(mix.densify(), want())


@st.composite
def mixtures(draw):
    """Mixtures of one to three positions over up to four univariate or
    bivariate factors, with negative and zero coefficients, repeated label
    tuples, and terms whose coefficients cancel."""
    width = draw(st.integers(1, 3))
    factors = {}
    for k in range(draw(st.integers(1, 4))):
        f = draw(tables(draw(st.integers(1, 2))))
        factors[f"f{k}"] = f
    # every position holds factors of one dimension
    dims = {}
    for lab, f in factors.items():
        dims.setdefault(f.domain.n, []).append(lab)
    pos_labels = [dims[draw(st.sampled_from(sorted(dims)))] for _ in range(width)]
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        labs = tuple(draw(st.sampled_from(ls)) for ls in pos_labels)
        c = draw(rationals)
        terms.append((c, labs))
        if draw(st.integers(0, 3)) == 0:
            terms.append((-c, labs))
    return ProductMixture(factors, terms)


@given(mixtures())
@settings(max_examples=300, deadline=None)
def test_densify_matches_fraction_reference(mix):
    same_table(mix.densify(), fraction_densify(mix))


def test_densify_drops_points_that_cancel():
    f = FnTable(Domain((2,)), {(0,): F(1, 3), (1,): F(-2, 5), (2,): F(7)})
    g = FnTable(Domain((2,)), {(0,): F(1, 3), (2,): F(1, 2)})
    mix = ProductMixture({"f": f, "g": g}, [(F(3, 2), ("f",)), (F(-3, 2), ("g",))])
    dense = mix.densify()
    assert (0,) not in dense.entries
    same_table(dense, fraction_densify(mix))


# ------------------------------------------------------------ pow2 sides


def exponent(whole, den, rest):
    """(num, den) for the exponent whole + (rest mod den) / den."""
    return whole * den + rest % den, den


# |exponent| <= 201, so 2**exponent stays small
exponent_pairs = st.one_of(
    st.builds(exponent, st.integers(-200, 200), st.integers(1, 10**6), st.integers(0, 10**6)),
    st.builds(exponent, st.integers(-200, 200), st.integers(1, 10**30), st.integers(0, 10**30)),
    # integer exponents, as n/1 and as unreduced n*d/d
    st.builds(exponent, st.integers(-64, 64), st.integers(1, 12), st.just(0)),
    st.builds(exponent, st.integers(-64, 64), st.sampled_from([2, 4, 8, 1 << 20, 1 << 40]),
              st.integers(0, 1 << 40)),
)


@given(exponent_pairs)
@settings(max_examples=500, deadline=None)
def test_pow2_bound_matches_two_sided_reference(pair):
    num, den = pair
    lo, hi = two_sided_pow2_brackets(F(num, den))
    assert pow2_bound(num, den, upper=False) == lo
    assert pow2_bound(num, den, upper=True) == hi
    assert pow2_brackets(F(num, den)) == (lo, hi)
    # an unreduced pair reads the same exponent
    assert pow2_bound(3 * num, 3 * den, upper=True) == hi


def test_pow2_bound_rejects_bad_input():
    for call in (lambda: pow2_bound(1, 0, upper=True), lambda: pow2_bound(1, -2, upper=False),
                 lambda: pow2_bound(0.5, 1, upper=True), lambda: pow2_bound(1, 2.0, upper=False),
                 lambda: pow2_bound(True, 1, upper=False)):
        with pytest.raises(PreconditionError):
            call()


# ------------------------------------------------------------- heavy sets


def outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except Exception as exc:  # the type and message are part of the outcome
        return ("raised", type(exc).__name__, str(exc))


@given(st.lists(st.one_of(st.integers(-9, 9), rationals), max_size=12),
       st.one_of(st.integers(-2, 30), rationals))
@settings(max_examples=500, deadline=None)
def test_select_heavy_set_matches_fraction_reference(v, theta):
    assert outcome(select_heavy_set, v, theta) == outcome(fraction_select_heavy_set, v, theta)


# ------------------------------------------------------- exact-input gates


@pytest.mark.parametrize("c", [0.5, 1.0, True, False])
def test_combine_rejects_inexact_coefficient(c):
    t = FnTable(Domain((1,)), {(0,): F(3, 2)})
    for terms in ([(c, t.entries)], [(1, t.entries), (c, {})]):  # an empty term too
        with pytest.raises(PreconditionError, match="not an exact rational"):
            combine(t.domain, terms)
    with pytest.raises(PreconditionError, match="not an exact rational"):
        t.scale(c)

