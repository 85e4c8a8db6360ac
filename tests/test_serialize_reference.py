"""serialize.dumps, the one-pass writer, against the two-step writer it
replaced (tests/exact_references.py: `to_jsonable`, then `json.dumps`
with sorted keys).  Artifact bytes are pinned by digest, so the two must
agree byte for byte at every indent the artifacts and the tests use.

The strategies draw Fractions (negative, and with more than 100 digits),
ints, bools, None and strings with quotes, backslashes, control and
non-ASCII characters; tuple and frozenset dict keys and keys whose string
order differs from their numeric order; sets and empty containers;
FnTables (empty, with an offset, with a weight window), product mixtures,
circuits and nested dataclasses.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exact_references import tree_dumps
from ptfwitness import cli
from ptfwitness.circuits import CircuitDesc, Gate, mp
from ptfwitness.core import Domain, FnTable
from ptfwitness.errors import PreconditionError
from ptfwitness.mixtures import ProductMixture
from ptfwitness.serialize import dumps

F = Fraction

INDENTS = (None, 1, 2)


@dataclass
class Inner:
    value: object
    tag: str = "inner"


@dataclass(frozen=True)
class Outer:
    inner: object
    items: object


def same_bytes(obj) -> None:
    for indent in INDENTS:
        assert dumps(obj, indent=indent) == tree_dumps(obj, indent=indent)


huge = st.integers(10**100, 10**130)
fractions = st.one_of(
    st.builds(F, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(F, st.one_of(huge, huge.map(lambda x: -x)), st.one_of(st.integers(1, 9), huge)),
)
texts = st.one_of(
    st.text(max_size=6),
    st.lists(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "/", "é", " ", "😀", "a"]),
             max_size=5).map("".join),
)
scalars = st.one_of(fractions, st.integers(-10**20, 10**20), st.booleans(), st.none(), texts)
# "10" < "2" as strings: keys must sort by their string form, not their value
keys = st.one_of(
    texts,
    st.integers(-3, 12),
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    st.frozensets(st.integers(0, 12), max_size=3),
    fractions,
)
sets = st.one_of(
    st.sets(st.integers(-20, 20), max_size=5),
    st.frozensets(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=5),
    st.frozensets(fractions, max_size=5),
    st.frozensets(texts, max_size=5),
)


@st.composite
def tables(draw):
    """A table on a small box, with an offset and a weight window or not,
    on a random subset of its points, possibly none."""
    n = draw(st.integers(1, 3))
    bounds = tuple(draw(st.integers(0, 2)) for _ in range(n))
    offset = tuple(draw(st.integers(0, 2)) for _ in range(n)) if draw(st.booleans()) else ()
    window = None
    if draw(st.booleans()):
        lo = sum(offset) + draw(st.integers(0, sum(bounds)))
        window = (lo, lo + draw(st.integers(0, 2)))
    dom = Domain(bounds, offset, window)
    return FnTable(dom, {p: draw(fractions.filter(bool)) for p in dom.points()
                         if draw(st.booleans())})


@st.composite
def mixtures(draw):
    labels = draw(st.lists(texts, min_size=1, max_size=3, unique=True))
    factors = {lab: draw(tables()) for lab in labels}
    width = draw(st.integers(1, 3))
    terms = draw(st.lists(st.tuples(fractions, st.tuples(*[st.sampled_from(labels)] * width)),
                          min_size=1, max_size=3))
    return ProductMixture(factors, terms)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 4))
    c = CircuitDesc(n)
    lits = st.tuples(st.just("lit"), st.integers(0, n - 1), st.booleans())
    for i in range(draw(st.integers(0, 3))):
        refs = lits if i == 0 else st.one_of(lits, st.tuples(st.just("gate"), st.integers(0, i - 1)))
        c.gates.append(Gate(draw(st.sampled_from(["and", "or"])),
                            tuple(draw(st.lists(refs, min_size=1, max_size=3)))))
    if c.gates:
        c.output = ("gate", len(c.gates) - 1)
    return c


library = st.one_of(tables(), tables().map(lambda t: t.domain), mixtures(), circuits())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.builds(Inner, children),
        st.builds(Outer, children, st.lists(children, max_size=3)),
    )


values = st.recursive(st.one_of(scalars, sets, library), containers, max_leaves=12)


@given(values)
@settings(max_examples=300, deadline=None)
def test_dumps_matches_two_step_writer(obj):
    same_bytes(obj)


@given(st.dictionaries(keys, scalars, max_size=8))
@settings(max_examples=200, deadline=None)
def test_dict_keys_stringify_then_sort(obj):
    same_bytes(obj)


def test_fixed_cases():
    same_bytes({"10": 1, "2": 2, 10: 3, (1, 10): 4, (1, 2): 5, frozenset({10, 2}): 6})
    same_bytes([[], {}, (), set(), frozenset(), [[]], {"a": {}}])
    same_bytes({frozenset({F(1, 3), F(-1, 2), F(10)}), frozenset({F(2)}), frozenset()})
    same_bytes(FnTable(Domain((2,)), {}))
    same_bytes(FnTable(Domain((1, 2), (1, 0), (1, 2)), {(1, 1): F(-1, 3), (2, 0): F(10**120 + 1, 7)}))
    same_bytes(Outer(Inner(['q"uote', "back\\slash", "\x01", "ünï"]), [None, True, False]))
    same_bytes(mp(2, 2))


def test_every_cli_artifact_matches_two_step_writer(tmp_path, monkeypatch):
    kinds = []

    def checked(obj, indent=None):
        same_bytes(obj)
        body = obj.get("body") if isinstance(obj, dict) else obj
        kinds.append(type(body).__name__)
        return dumps(obj, indent=indent)

    monkeypatch.setattr(cli, "dumps", checked)
    runs = [
        ["witness", "build", "dual-or", "--n", "16"],
        ["witness", "build", "or-gadget", "--r", "2"],
        ["witness", "build", "mp", "--m", "1", "--r", "2"],
        ["witness", "build", "mp-smooth", "--m", "1", "--r", "2"],
        ["witness", "build", "rs-smooth", "--m", "1", "--r", "2"],
        ["amplify", "--f", "parity2", "--m", "1", "--theta", "2"],
        ["circuits", "build", "kp", "--n", "2"],
    ]
    for i, argv in enumerate(runs):
        assert cli.main(argv + ["--out", str(tmp_path / str(i))]) == 0
    assert {"FnTable", "ProductMixture", "CircuitDesc", "dict", "PsiCertificate",
            "GadgetCertificate", "MPWitnessCertificate", "MPSmoothCertificate",
            "RsSmoothCertificate"} <= set(kinds)


@pytest.mark.parametrize("obj", [
    0.5,
    [1, [F(1, 2), 0.25]],
    {"a": {"b": 1.0}},
    Inner(0.5),
    Outer(Inner(1), [2, 3.0]),
    (float("nan"),),
])
def test_floats_raise(obj):
    for indent in INDENTS:
        with pytest.raises(PreconditionError):
            dumps(obj, indent=indent)
