from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exact_references import evaluate, negated
from ptfwitness.amplification import _floor_cbrt, _round_sqrt, build_fkn
from ptfwitness.circuits import (
    CircuitDesc,
    krause_pudlak,
    literal,
    mp,
    mp_star_blocks,
    mp_star_table,
    surj_table,
)
from ptfwitness.core import box, hypercube
from ptfwitness.errors import PreconditionError
from ptfwitness.oracles import threshold_degree, threshold_density

F = Fraction


def test_literal_depth_zero():
    c = literal(3, 1)
    assert c.depth() == 0 and c.size() == 0
    assert c.truth_table()((0, 1, 0)) == 1


def test_mp_structure_and_semantics():
    c = mp(2, 2)
    assert c.depth() == 2
    assert c.size() == 3
    assert c.bottom_fanin() == 2
    assert c.is_monotone()
    table = c.truth_table()
    assert table((1, 0, 0, 1)) == 1
    assert table((0, 0, 0, 1)) == 0
    assert mp(1, 1).truth_table().entries == {(1,): 1}


def test_mp_star_blocks_matches_per_block_lookups():
    for n in range(1, 4):
        for m in range(1, 4):
            for R in range(1, 4):
                star = mp_star_table(m, R)
                for p in box([R] * (n * m)).points():
                    want = tuple(star(p[i * m:(i + 1) * m]) for i in range(n))
                    assert mp_star_blocks(p, m) == want


def test_mp_star_table():
    t = mp_star_table(2, 4)
    zeros = [p for p in t.domain.points() if t(p) == 0]
    assert all(0 in p for p in zeros)
    assert len(list(t.domain.points())) == 25


def test_truth_table_matches_eval():
    c = mp(2, 2)
    table = c.truth_table()
    for p in hypercube(4).points():
        assert table(p) == evaluate(c, p)


@st.composite
def circuits(draw):
    """A random DAG on n <= 6 inputs: every gate reads literals of either
    sign and earlier gates, which later gates may share, and the output is
    any gate or literal."""
    n = draw(st.integers(1, 6))
    c = CircuitDesc(n)
    literal_refs = st.tuples(st.just("lit"), st.integers(0, n - 1), st.booleans())
    for i in range(draw(st.integers(0, 8))):
        gates = st.tuples(st.just("gate"), st.integers(0, i - 1))
        refs = literal_refs | gates if i else literal_refs
        c.add_gate(draw(st.sampled_from(("and", "or"))),
                   draw(st.lists(refs, min_size=1, max_size=4)))
    gates = st.tuples(st.just("gate"), st.integers(0, len(c.gates) - 1))
    c.output = draw(literal_refs | gates if c.gates else literal_refs)
    return c


@given(circuits())
@settings(max_examples=150, deadline=None)
def test_gatewise_truth_table_matches_pointwise_reference(c):
    table = c.truth_table()
    assert table.domain == hypercube(c.n_inputs)
    # the 1-points in the order of the domain's enumeration, as the reference lists them
    assert list(table.entries) == [p for p in hypercube(c.n_inputs).points() if evaluate(c, p)]
    assert all(v == 1 for v in table.entries.values())


def test_merge_like_gates():
    c = CircuitDesc(2)
    inner = c.add_gate("and", [("lit", 0, False)])
    c.output = c.add_gate("and", [inner, ("lit", 1, False)])
    merged = c.merge_like_gates()
    assert merged.depth() == 1


def test_negated_circuit():
    c = mp(2, 2)
    neg = negated(c)
    table, neg_table = c.truth_table(), neg.truth_table()
    for p in hypercube(4).points():
        assert evaluate(neg, p) == 1 - evaluate(c, p)
        assert neg_table(p) == 1 - table(p)


def test_surj_tables():
    t = surj_table(2, 1)
    assert list(t.domain.points()) == [(2,)]
    assert t((2,)) == 1

    t2 = surj_table(3, 2)
    zeros = [p for p in t2.domain.points() if t2(p) == 0]
    assert set(zeros) == {(3, 0), (0, 3)}

    t3 = surj_table(2, 3)  # more buckets than items: constant 0
    assert all(t3(p) == 0 for p in t3.domain.points())


def test_surj_degthr_positive():
    ans = threshold_degree(surj_table(4, 2))
    assert ans.value >= 1


def test_krause_pudlak_single_variable():
    f = literal(1)
    lifted = krause_pudlak(f)
    assert lifted.n_inputs == 3
    # (not z and x) or (z and y)
    table = lifted.truth_table()
    assert table((1, 0, 0)) == 1
    assert table((1, 0, 1)) == 0
    assert table((0, 1, 1)) == 1
    ans = threshold_density(table, cap=1)
    assert ans.value >= 2  # at least 2^degthr(x1)


def test_krause_pudlak_constant_note():
    # a constant (single-gate) circuit lifts to a constant: density 1
    c = CircuitDesc(1)
    c.output = c.add_gate("or", [("lit", 0, False), ("lit", 0, True)])
    lifted = krause_pudlak(c)
    table = lifted.truth_table()
    assert threshold_density(table, cap=1).value == 1


def test_build_fkn():
    f1 = build_fkn(1, 8)
    assert f1.depth() == 0
    f2 = build_fkn(2, 27)
    assert f2.depth() == 2
    assert f2.n_inputs == 27  # AND_3 of OR_9
    f3 = build_fkn(3, 4)
    assert f3.depth() == 3
    assert f3.is_monotone()
    t = f3.truth_table() if f3.n_inputs <= 20 else None
    if t is not None:
        assert threshold_degree(t).value >= 1


def test_build_fkn_degenerate():
    for k, n in ((2, 0), (3, -1), (0, 4)):
        with pytest.raises(PreconditionError):
            build_fkn(k, n)


def test_fkn_integer_roots_match_float_formulas():
    # build_fkn's sizes as they were computed in floats, now the reference
    for n in range(1, 10_001):
        s = round(n ** (1 / 3))
        while s ** 3 > n:
            s -= 1
        assert _floor_cbrt(n) == s
        assert _round_sqrt(n) == round(n ** (1 / 2))
    assert 64 ** (1 / 3) < 4 and _floor_cbrt(64) == 4
