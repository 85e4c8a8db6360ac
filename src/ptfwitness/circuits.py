"""Explicit AND/OR circuits over literals, gatewise truth tables (one int
per gate, holding its value at every point), and the named function
families used throughout: the Minsky-Papert function and its symmetric form
with its blockwise map, surjectivity, and the selector lift that converts
threshold degree into threshold density.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import and_, or_
from typing import Iterable, Sequence

from .core import FnTable, as_int, box, hypercube, weight_slice
from .errors import PreconditionError
from .oracles import bool_table

# a reference is ("lit", var, negated) or ("gate", index)
Ref = tuple


@dataclass
class Gate:
    op: str  # "and" | "or"
    children: tuple[Ref, ...]

    def __post_init__(self):
        if self.op not in ("and", "or"):
            raise PreconditionError(f"unknown gate op {self.op!r}")
        if not self.children:
            raise PreconditionError("gate needs at least one child")


@dataclass
class CircuitDesc:
    """A DAG of AND/OR gates over input literals.

    Statistics (size, depth, bottom fan-in, monotonicity) are recomputed
    from the structure on each call, never cached.
    """

    n_inputs: int
    gates: list[Gate] = field(default_factory=list)
    output: Ref = ("lit", 0, False)

    def _check_ref(self, ref: Ref, upto: int) -> None:
        """ref is ("lit", int var < n_inputs, bool negated) or ("gate", int
        index < upto); anything else raises PreconditionError."""
        shape = len(ref) if isinstance(ref, tuple) else 0
        if shape == 3 and ref[0] == "lit" and isinstance(ref[2], bool):
            if not (0 <= as_int(ref[1]) < self.n_inputs):
                raise PreconditionError(f"literal {ref} out of range")
        elif shape == 2 and ref[0] == "gate":
            if not (0 <= as_int(ref[1]) < upto):
                raise PreconditionError(f"gate reference {ref} not yet defined (acyclic order)")
        else:
            raise PreconditionError(f"bad reference {ref!r}")

    def validate(self) -> None:
        for i, g in enumerate(self.gates):
            for ref in g.children:
                self._check_ref(ref, i)
        self._check_ref(self.output, len(self.gates))

    def add_gate(self, op: str, children: Iterable[Ref]) -> Ref:
        g = Gate(op, tuple(children))
        for ref in g.children:
            self._check_ref(ref, len(self.gates))
        self.gates.append(g)
        return ("gate", len(self.gates) - 1)

    def substitute(self, f: "CircuitDesc", pos: Sequence[Ref], neg: Sequence[Ref]) -> Ref:
        """Append f's gates, reading f's input i as pos[i] and its negation
        as neg[i]; returns the reference that stands for f's output."""
        offset = len(self.gates)

        def remap(ref: Ref) -> Ref:
            if ref[0] == "lit":
                return neg[ref[1]] if ref[2] else pos[ref[1]]
            return ("gate", ref[1] + offset)

        for g in f.gates:
            self.gates.append(Gate(g.op, tuple(map(remap, g.children))))
        return remap(f.output)

    # ---------------------------------------------------------- statistics

    def size(self) -> int:
        return len(self.gates)

    def _depths(self) -> list[int]:
        d = []
        for g in self.gates:
            d.append(1 + max((d[r[1]] if r[0] == "gate" else 0) for r in g.children))
        return d

    def depth(self) -> int:
        if self.output[0] == "lit":
            return 0
        return self._depths()[self.output[1]]

    def bottom_fanin(self) -> int:
        """Largest fan-in among gates all of whose children are literals."""
        best = 0
        for g in self.gates:
            if all(r[0] == "lit" for r in g.children):
                best = max(best, len(g.children))
        return best

    def is_monotone(self) -> bool:
        for g in self.gates:
            for r in g.children:
                if r[0] == "lit" and r[2]:
                    return False
        return self.output[0] != "lit" or not self.output[2]

    # ---------------------------------------------------------- evaluation

    def truth_table(self) -> FnTable:
        """The table on hypercube(n_inputs), each gate evaluated once for the
        whole cube: as one int whose bit i is its value at the i-th point of
        `points()`, so AND, OR and negation are `&`, `|` and `^ full`."""
        n = self.n_inputs
        if n > 20:
            raise PreconditionError("truth table limited to 20 inputs")
        dom, size = hypercube(n), 1 << n
        full = (1 << size) - 1
        # the binary numeral lists the points last to first: x_k is 1 on a
        # run of 2^(n-1-k) of them, then 0 on the next run, and so on
        lits = [int(("1" * r + "0" * r) * (size // (2 * r)), 2)
                for r in (size >> k + 1 for k in range(n))]
        vals: list[int] = []

        def ref_val(ref: Ref) -> int:
            if ref[0] == "lit":
                return lits[ref[1]] ^ full if ref[2] else lits[ref[1]]
            return vals[ref[1]]

        for g in self.gates:
            vals.append(reduce(and_ if g.op == "and" else or_, map(ref_val, g.children)))
        # bit i of the output is character i of its reversed binary string
        return bool_table(dom, compress(dom.points(), map(int, bin(ref_val(self.output))[:1:-1])))

    def pruned(self) -> "CircuitDesc":
        """Drop gates unreachable from the output, renumbering the rest."""
        if self.output[0] == "lit":
            c = CircuitDesc(self.n_inputs)
            c.output = self.output
            return c
        alive: set[int] = set()
        stack = [self.output[1]]
        while stack:
            i = stack.pop()
            if i in alive:
                continue
            alive.add(i)
            for r in self.gates[i].children:
                if r[0] == "gate":
                    stack.append(r[1])
        out = CircuitDesc(self.n_inputs)
        mapping: dict[int, Ref] = {}
        for i in sorted(alive):
            kids = tuple(mapping[r[1]] if r[0] == "gate" else r
                         for r in self.gates[i].children)
            mapping[i] = out.add_gate(self.gates[i].op, kids)
        out.output = mapping[self.output[1]]
        return out

    def merge_like_gates(self) -> "CircuitDesc":
        """Splice children of same-op gates into their parents; the standard
        normalization before counting layers."""
        out = CircuitDesc(self.n_inputs)
        mapping: dict[int, Ref] = {}

        def remap(ref: Ref) -> Ref:
            return mapping[ref[1]] if ref[0] == "gate" else ref

        for i, g in enumerate(self.gates):
            children: list[Ref] = []
            for r in map(remap, g.children):
                if r[0] == "gate" and out.gates[r[1]].op == g.op:
                    children.extend(out.gates[r[1]].children)
                else:
                    children.append(r)
            dedup = list(dict.fromkeys(children))
            mapping[i] = out.add_gate(g.op, dedup)
        out.output = remap(self.output)
        return out.pruned()

    def monotonized(self) -> "CircuitDesc":
        """Replace every negated literal with a fresh unnegated input.

        The doubled circuit is monotone and contains the original as the
        restriction pairing each new input with the negation of its twin,
        so its threshold degree is no smaller.
        """
        out = CircuitDesc(2 * self.n_inputs)
        shift = self.n_inputs

        def fix(ref: Ref) -> Ref:
            if ref[0] == "lit" and ref[2]:
                return ("lit", ref[1] + shift, False)
            return ref

        for g in self.gates:
            out.gates.append(Gate(g.op, tuple(fix(r) for r in g.children)))
        out.output = fix(self.output)
        return out

    def to_dot(self) -> str:
        lines = ["digraph circuit {"]
        for i, g in enumerate(self.gates):
            lines.append(f'  g{i} [label="{g.op.upper()}"];')
            for r in g.children:
                if r[0] == "lit":
                    name = f'x{r[1]}' + ("n" if r[2] else "")
                    lines.append(f'  {name} [shape=box,label="{"!" if r[2] else ""}x{r[1]}"];')
                    lines.append(f"  {name} -> g{i};")
                else:
                    lines.append(f"  g{r[1]} -> g{i};")
        if self.output[0] == "gate":
            lines.append(f"  g{self.output[1]} -> out;")
        else:
            lines.append(f"  x{self.output[1]} -> out;")
        lines.append('  out [shape=doublecircle,label="out"];')
        lines.append("}")
        return "\n".join(lines)


def literal(n_inputs: int, var: int = 0) -> CircuitDesc:
    c = CircuitDesc(n_inputs)
    c.output = ("lit", var, False)
    return c


def mp(m: int, r: int) -> CircuitDesc:
    """AND of m ORs of r fresh variables each; depth 2, size m+1."""
    if m < 1 or r < 1:
        raise PreconditionError("need m, r >= 1")
    c = CircuitDesc(m * r)
    ors = [c.add_gate("or", (("lit", i * r + j, False) for j in range(r))) for i in range(m)]
    c.output = c.add_gate("and", ors)
    return c


def mp_star_table(m: int, r: int) -> FnTable:
    """The symmetric Minsky-Papert function on {0..r}^m: 1 iff every block
    weight is nonzero."""
    if m < 1 or r < 1:
        raise PreconditionError("need m, r >= 1")
    dom = box([r] * m)
    return bool_table(dom, (p for p in dom.points() if all(v >= 1 for v in p)))


def mp_star_blocks(p: Sequence[int], m: int) -> tuple[int, ...]:
    """The symmetric Minsky-Papert value of each block of m consecutive
    coordinates of p: 1 if every coordinate of the block is at least 1."""
    return tuple(int(all(v >= 1 for v in p[i:i + m])) for i in range(0, len(p), m))


def mp_table(m: int, r: int) -> FnTable:
    return mp(m, r).truth_table()


def surj_table(n: int, r: int) -> FnTable:
    """Surjectivity of n items into r buckets, in its symmetric form: the
    block-weight vector determines the answer, so the table lives on the
    exact-weight-n slice of {0..n}^r."""
    if r < 1 or n < 1:
        raise PreconditionError("need n, r >= 1")
    dom = weight_slice(box([n] * r), n, n)
    if r > n:
        return bool_table(dom, [])  # pigeonhole: never surjective
    return bool_table(dom, (p for p in dom.points() if all(v >= 1 for v in p)))


def krause_pudlak(f_circuit: CircuitDesc) -> CircuitDesc:
    """Selector lift: on inputs (x, y, z), feed (not z_i and x_i) or
    (z_i and y_i) into input i of f."""
    n = f_circuit.n_inputs
    out = CircuitDesc(3 * n)

    selectors: list[Ref] = []
    neg_selectors: list[Ref] = []
    for i in range(n):
        a = out.add_gate("and", [("lit", 2 * n + i, True), ("lit", i, False)])
        b = out.add_gate("and", [("lit", 2 * n + i, False), ("lit", n + i, False)])
        selectors.append(out.add_gate("or", [a, b]))
        na = out.add_gate("or", [("lit", 2 * n + i, False), ("lit", i, True)])
        nb = out.add_gate("or", [("lit", 2 * n + i, True), ("lit", n + i, True)])
        neg_selectors.append(out.add_gate("and", [na, nb]))
    out.output = out.substitute(f_circuit, selectors, neg_selectors)
    out.validate()
    return out.pruned()


def parity2_circuit() -> CircuitDesc:
    c = CircuitDesc(2)
    a = c.add_gate("and", [("lit", 0, False), ("lit", 1, True)])
    b = c.add_gate("and", [("lit", 0, True), ("lit", 1, False)])
    c.output = c.add_gate("or", [a, b])
    return c
