"""JSON interchange for tables, mixtures, circuits, and certificates.

Rationals are always emitted as "p/q" strings, never as floats, so a
round trip is exact.  Dictionaries are emitted with sorted keys by the
callers, which keeps artifacts byte-identical across runs.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

from .circuits import CircuitDesc, Gate
from .core import Domain, FnTable
from .errors import PreconditionError
from .mixtures import ProductMixture

SCHEMA_VERSION = "1"


def frac_str(x: Fraction) -> str:
    """An int or a Fraction as "p/q" in lowest terms."""
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    return Fraction(s)


def to_jsonable(obj):
    """Recursive encoder: fractions to "p/q", tuples to lists, dataclasses
    to tagged dicts, tables and domains to their schemas.  A float, like any
    other unknown type, raises PreconditionError."""
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Domain):
        return domain_to_json(obj)
    if isinstance(obj, FnTable):
        return table_to_json(obj)
    if isinstance(obj, ProductMixture):
        return mixture_to_json(obj)
    if isinstance(obj, CircuitDesc):
        return circuit_to_json(obj)
    if isinstance(obj, (frozenset, set)):
        return sorted(to_jsonable(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if isinstance(k, tuple):
                k = ",".join(map(str, k))
            elif isinstance(k, frozenset):
                k = ",".join(map(str, sorted(k)))
            out[str(k)] = to_jsonable(v)
        return out
    if dataclasses.is_dataclass(obj):
        body = {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
        body["_type"] = type(obj).__name__
        return body
    raise PreconditionError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, **kw) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, **kw)


def domain_to_json(d: Domain) -> dict:
    out = {"bounds": list(d.bounds), "offset": list(d.offset)}
    if d.window is not None:
        out["window"] = list(d.window)
    return out


def domain_from_json(data: dict) -> Domain:
    return Domain(tuple(data["bounds"]), tuple(data.get("offset") or ()),
                  tuple(data["window"]) if "window" in data else None)


def table_to_json(t: FnTable) -> dict:
    entries = [[list(p), frac_str(v)] for p, v in sorted(t.entries.items())]
    return {"schema": f"fntable/{SCHEMA_VERSION}",
            "domain": domain_to_json(t.domain), "entries": entries}


def table_from_json(data: dict) -> FnTable:
    dom = domain_from_json(data["domain"])
    return FnTable(dom, {tuple(p): parse_frac(v) for p, v in data["entries"]})


def mixture_to_json(m: ProductMixture) -> dict:
    return {"schema": f"mixture/{SCHEMA_VERSION}",
            "factors": {lab: table_to_json(t) for lab, t in sorted(m.factors.items())},
            "terms": [[frac_str(c), list(labels)] for c, labels in m.terms]}


def circuit_to_json(c: CircuitDesc) -> dict:
    return {"schema": f"circuit/{SCHEMA_VERSION}",
            "n_inputs": c.n_inputs,
            "gates": [[g.op, [list(r) for r in g.children]] for g in c.gates],
            "output": list(c.output)}


def circuit_from_json(data: dict) -> CircuitDesc:
    c = CircuitDesc(data["n_inputs"])
    for op, children in data["gates"]:
        c.gates.append(Gate(op, tuple(tuple(r) for r in children)))
    c.output = tuple(data["output"])
    c.validate()
    return c


def matrix_from_csv(text: str) -> list[list[int]]:
    """A sign matrix from comma- or whitespace-separated +-1 entries."""
    rows = []
    for line in text.strip().splitlines():
        cells = line.replace(",", " ").split()
        if not cells:
            continue
        row = [int(c) for c in cells]
        if any(v not in (1, -1) for v in row):
            raise PreconditionError("CSV entries must be +1 or -1")
        rows.append(row)
    if not rows:
        raise PreconditionError("empty matrix")
    return rows
