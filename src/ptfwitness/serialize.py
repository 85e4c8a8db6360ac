"""JSON interchange for tables, mixtures, circuits, and certificates.

Rationals are always emitted as "p/q" strings, never as floats, so a
round trip is exact.  `dumps` sorts every object's keys, which keeps
artifacts byte-identical across runs, and writes them in one pass: a
private recursive writer walks the library objects and appends string
pieces to one list.  Its bytes are exactly those of `json.dumps` with
`sort_keys=True` applied to each object's tagged-dict form (a table, a
mixture or a circuit as its schema dict, a dataclass as its fields plus
`_type`); the tests hold it to that reference, since artifact digests are
pinned.  The readers accept exact rationals only: "p/q", integer or
decimal strings, never JSON numbers.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .circuits import CircuitDesc, Gate
from .core import Domain, FnTable, as_int
from .errors import PreconditionError
from .mixtures import ProductMixture

SCHEMA_VERSION = "1"


def frac_str(x: Fraction) -> str:
    """An int or a Fraction as "p/q" in lowest terms."""
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    """A rational from a "p/q", integer or decimal string.  Anything else,
    a JSON number or an unparsable string included, raises
    PreconditionError."""
    if not isinstance(s, str):
        raise PreconditionError(f"not a rational string: {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"not a rational: {s!r}") from None


def dumps(obj, indent=None) -> str:
    """obj as JSON with sorted keys: on one line when indent is None, else
    one value per line, indented by `indent` spaces per level.

    Fractions become "p/q" strings, tuples and lists arrays, sets arrays
    sorted by their elements' JSON form, and dict keys strings (a tuple key
    "a,b", a frozenset key its sorted elements joined by commas); tables,
    domains, mixtures and circuits take their schemas, and a dataclass its
    fields plus "_type".  A float, like any other unknown type, raises
    PreconditionError."""
    out: list[str] = []
    if indent is None:
        _write(obj, out, None, "")
    else:
        _write(obj, out, "\n", " " * indent)
    return "".join(out)


def _write(obj, out: list[str], nl: str | None, step: str) -> None:
    """Append obj's JSON to out.  nl is the newline and indentation of obj's
    own level (None when compact) and step the indentation of one level."""
    if isinstance(obj, Fraction):
        out.append(f'"{obj.numerator}/{obj.denominator}"')
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, Domain):
        _object(_domain_fields(obj), out, nl, step)
    elif isinstance(obj, FnTable):
        _table(obj, out, nl, step)
    elif isinstance(obj, ProductMixture):
        _object((("factors", obj.factors), ("schema", f"mixture/{SCHEMA_VERSION}"),
                 ("terms", obj.terms)), out, nl, step)
    elif isinstance(obj, CircuitDesc):
        _object((("gates", [(g.op, g.children) for g in obj.gates]),
                 ("n_inputs", obj.n_inputs), ("output", obj.output),
                 ("schema", f"circuit/{SCHEMA_VERSION}")), out, nl, step)
    elif isinstance(obj, (frozenset, set)):
        _array(sorted(obj, key=_order), out, nl, step)
    elif isinstance(obj, (list, tuple)):
        _array(obj, out, nl, step)
    elif isinstance(obj, dict):
        _object(sorted({_key(k): v for k, v in obj.items()}.items()), out, nl, step)
    elif dataclasses.is_dataclass(obj):
        body = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        body["_type"] = type(obj).__name__
        _object(sorted(body.items()), out, nl, step)
    else:
        raise PreconditionError(f"cannot serialize {type(obj).__name__}")


def _frame(nl: str | None, step: str, opening: str, closing: str):
    """(inner, lead, sep, end) of a container at level nl: the newline and
    indentation of its items, the text before its first item and between
    two items, and the text after its last item."""
    if nl is None:
        return None, opening, ", ", closing
    inner = nl + step
    return inner, opening + inner, "," + inner, nl + closing


def _array(items, out: list[str], nl: str | None, step: str) -> None:
    if not items:
        out.append("[]")
        return
    inner, lead, sep, end = _frame(nl, step, "[", "]")
    for x in items:
        out.append(lead)
        _write(x, out, inner, step)
        lead = sep
    out.append(end)


def _object(pairs, out: list[str], nl: str | None, step: str) -> None:
    """A JSON object from (str key, value) pairs already in key order."""
    if not pairs:
        out.append("{}")
        return
    inner, lead, sep, end = _frame(nl, step, "{", "}")
    for k, v in pairs:
        out.append(f"{lead}{encode_basestring_ascii(k)}: ")
        _write(v, out, inner, step)
        lead = sep
    out.append(end)


def _key(k) -> str:
    if isinstance(k, tuple):
        return ",".join(map(str, k))
    if isinstance(k, frozenset):
        return ",".join(map(str, sorted(k)))
    return str(k)


def _order(x):
    """The sort key of a set element: its JSON form as far as ordering
    sees it (a Fraction as its "p/q" string, a tuple as a list)."""
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, (list, tuple)):
        return [_order(y) for y in x]
    if isinstance(x, (frozenset, set)):
        return sorted(map(_order, x))
    return x


def _domain_fields(d: Domain) -> list:
    fields = [("bounds", d.bounds), ("offset", d.offset)]
    if d.window is not None:
        fields.append(("window", d.window))
    return fields


def _table(t: FnTable, out: list[str], nl: str | None, step: str) -> None:
    """The fntable schema.  Its entries [[point], "p/q"], in point order,
    are formatted from the frames of the entry list, of one entry and of
    one point, built once per table."""
    inner, lead, sep, end = _frame(nl, step, "{", "}")
    entry, start, entry_sep, finish = _frame(inner, step, "[", "]")
    part, pair_lead, pair_sep, pair_end = _frame(entry, step, "[", "]")
    _, point_lead, coord_sep, point_end = _frame(part, step, "[", "]")
    head, mid, tail = pair_lead + point_lead, point_end + pair_sep + '"', '"' + pair_end
    out.append(lead + '"domain": ')
    _write(t.domain, out, inner, step)
    out.append(sep + '"entries": ')
    if t.entries:
        out.append(start + entry_sep.join(
            f"{head}{coord_sep.join(map(str, p))}{mid}{v.numerator}/{v.denominator}{tail}"
            for p, v in sorted(t.entries.items())) + finish)
    else:
        out.append("[]")
    out.append(f'{sep}"schema": "fntable/{SCHEMA_VERSION}"{end}')


def _field(data, key: str):
    """data[key]; a missing key or a non-object raises PreconditionError."""
    if not isinstance(data, dict) or key not in data:
        raise PreconditionError(f"missing field {key!r}")
    return data[key]


def _list(data, length: int | None = None) -> list:
    """data when it is a list, of `length` items if given; else PreconditionError."""
    if not isinstance(data, list) or length not in (None, len(data)):
        raise PreconditionError(f"not a list of {length or 'any number of'} items: {data!r}")
    return data


def domain_from_json(data: dict) -> Domain:
    """A Domain from its schema dict; bounds, offset and window must be
    integers, and a window has two."""
    return Domain(tuple(map(as_int, _list(_field(data, "bounds")))),
                  tuple(map(as_int, _list(data.get("offset") or []))),
                  tuple(map(as_int, _list(data["window"], 2))) if "window" in data else None)


def table_from_json(data: dict) -> FnTable:
    """An FnTable from its fntable schema dict.  A missing field, an entry
    that is not a [point, value] pair, a repeated point, a coordinate that
    is not an integer or an inexact value raises PreconditionError."""
    dom = domain_from_json(_field(data, "domain"))
    entries: dict = {}
    for entry in _list(_field(data, "entries")):
        p, v = _list(entry, 2)
        p = tuple(map(as_int, _list(p)))
        if p in entries:
            raise PreconditionError(f"repeated point {list(p)}")
        entries[p] = parse_frac(v)
    return FnTable(dom, entries)


def mixture_from_json(data: dict) -> ProductMixture:
    """A ProductMixture from its mixture schema dict.  A missing field, a
    factor that is not an fntable, a term that is not a [coefficient,
    labels] pair, a label that is not a string or an inexact coefficient
    raises PreconditionError."""
    factors = _field(data, "factors")
    if not isinstance(factors, dict):
        raise PreconditionError(f"factors is not an object: {factors!r}")
    terms = []
    for term in _list(_field(data, "terms")):
        c, labels = _list(term, 2)
        if not all(isinstance(lab, str) for lab in _list(labels)):
            raise PreconditionError(f"a label is not a string: {labels!r}")
        terms.append((parse_frac(c), tuple(labels)))
    return ProductMixture({lab: table_from_json(t) for lab, t in factors.items()}, terms)


def circuit_from_json(data: dict) -> CircuitDesc:
    """A CircuitDesc from its circuit schema dict.  A missing field, a gate
    that is not an [op, children] pair and a reference out of range each
    raise PreconditionError."""
    c = CircuitDesc(as_int(_field(data, "n_inputs")))
    for gate in _list(_field(data, "gates")):
        op, children = _list(gate, 2)
        c.gates.append(Gate(op, tuple(tuple(_list(r)) for r in _list(children))))
    c.output = tuple(_list(_field(data, "output")))
    c.validate()
    return c


def matrix_from_csv(text: str) -> list[list[int]]:
    """A sign matrix from comma- or whitespace-separated +-1 entries."""
    rows = []
    for line in text.strip().splitlines():
        cells = line.replace(",", " ").split()
        if not cells:
            continue
        try:
            row = [int(c) for c in cells]
            if any(v not in (1, -1) for v in row):
                raise ValueError
        except ValueError:
            raise PreconditionError(f"CSV entries must be +1 or -1: {line!r}") from None
        rows.append(row)
    if not rows:
        raise PreconditionError("empty matrix")
    return rows
