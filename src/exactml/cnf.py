"""Tseitin transformation and DIMACS interchange.

Variable numbering is stable: input bits first (feature order, low bit
first), then one fresh variable per gate reachable from the root, in
topological order. The full biconditional encoding is emitted for every
gate, never the polarity-reduced form: that is what guarantees that a total
assignment to the projection variables determines all auxiliaries by unit
propagation alone, so projected counts equal input counts.

`tseitin` walks the root's cone once and keeps what the walk gives per gate:
its kind and the names of its variables, in clause order. That record is
the formula. Each variable is named once, as the string of its number, and
each kind's `%s` template writes the signs, so `emit_dimacs` writes the
record a few thousand gates to a string without formatting a number twice
or making a clause tuple. The clause tuples that
`probe_functional_extension` and the tests' reference counters read are
made from the same record when first read, with one int object per literal. Any other
`CnfFormula` (one read by `parse_dimacs`) is written a clause per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice

from .circuit import Circuit


class DimacsError(ValueError):
    """Malformed DIMACS input."""


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    projection: frozenset[int]

    def check(self) -> None:
        if self.num_vars < 0:
            raise DimacsError(f"negative variable count {self.num_vars}")
        for clause in self.clauses:
            if not clause:
                raise DimacsError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise DimacsError(f"literal {lit} out of range")
        for v in self.projection:
            if not 1 <= v <= self.num_vars:
                raise DimacsError(f"projection variable {v} out of range")

    def _clause_lines(self):
        """The number of clauses, and their lines."""
        if not all(self.clauses):
            raise DimacsError("empty clause")
        return len(self.clauses), (" ".join(map(str, c)) + " 0" for c in self.clauses)


# Each gate kind's clauses, as a `%` template of one line per clause whose
# `%s` slots take the names of the gate's variables, in this order. A const
# gate is a positive or a negative unit, as are the unit clauses of the root
# and of the domain wire. `emit_dimacs` fills the templates; the signs that
# `TseitinFormula.clauses` gives each name are read off them.
_GATE_TEMPLATES = {
    "pos": "%s 0",
    "neg": "-%s 0",
    "not": "%s %s 0\n-%s -%s 0",
    "and": "-%s %s 0\n-%s %s 0\n%s -%s -%s 0",
    "or": "%s -%s 0\n%s -%s 0\n-%s %s %s 0",
    "xor": "-%s %s %s 0\n-%s -%s -%s 0\n%s %s -%s 0\n%s -%s %s 0",
}
# per kind, each clause as the signs of its literals: True where negated
_GATE_SIGNS = {
    kind: tuple(tuple(slot == "-%s" for slot in line.split()[:-1]) for line in template.split("\n"))
    for kind, template in _GATE_TEMPLATES.items()
}
_GATE_NAMES = {kind: template.count("%s") for kind, template in _GATE_TEMPLATES.items()}
_GATE_CLAUSES = {kind: len(signs) for kind, signs in _GATE_SIGNS.items()}


class TseitinFormula(CnfFormula):
    """A formula as `tseitin`'s walk gave it: `kinds[i]` is the i-th gate's
    kind and `names` holds the names of every gate's variables, in the
    order of its kind's template. The clause tuples are made from the names
    when `clauses` is first read."""

    def __init__(self, num_vars: int, projection: frozenset[int], kinds: list[str],
                 names: list[str]):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "names", names)

    @cached_property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        # each variable's two literals are made once and shared by all its clauses
        pos = {str(v): v for v in range(1, self.num_vars + 1)}
        neg = {name: -v for name, v in pos.items()}
        # per kind, the table that each of its names is read from
        tables = {kind: tuple(neg if negated else pos for clause in signs for negated in clause)
                  for kind, signs in _GATE_SIGNS.items()}
        kinds = self.kinds
        read_from = chain.from_iterable(map(tables.__getitem__, kinds))
        literals = map(dict.__getitem__, read_from, self.names)
        return tuple(
            tuple(islice(literals, len(clause))) for kind in kinds for clause in _GATE_SIGNS[kind]
        )

    def _clause_lines(self):
        kinds = self.kinds
        return sum(map(_GATE_CLAUSES.__getitem__, kinds)), _gate_chunks(kinds, self.names)


def tseitin(circuit: Circuit, root: int) -> TseitinFormula:
    """CNF for `root` AND the domain-range constraint, projection = input bits.

    One pass over the gates of `Circuit.cone` numbers each gate and records
    its kind and the names of its variables: the cone is ascending, so a
    gate's operands are named before it.
    """
    n_inputs = circuit.num_input_bits
    gates = circuit.gates
    targets = (root, circuit.domain_wire)

    # each variable is named once, and all its literals in the text are
    # that one string: a `%d` slot would format the number again each time
    name_of = [str(v) for v in range(1, n_inputs + 1)] + [None] * len(gates)
    kinds: list[str] = []
    add_kind = kinds.append
    names: list[str] = []
    units = set()  # (kind, name) of each unit clause
    v = n_inputs
    for w in circuit.cone(targets):
        if w < n_inputs:
            continue
        v += 1
        name_of[w] = s = str(v)
        gate = gates[w - n_inputs]
        op = gate[0]
        if op == "xor":
            a, b = name_of[gate[1]], name_of[gate[2]]
            names += (s, a, b, s, a, b, s, a, b, s, a, b)
        elif op == "not":
            a = name_of[gate[1]]
            names += (s, a, s, a)
        elif op == "const":
            op = "pos" if gate[1] else "neg"
            names.append(s)
            units.add((op, s))
        else:
            a, b = name_of[gate[1]], name_of[gate[2]]
            names += (s, a, s, b, s, a, b)
        add_kind(op)

    for target in targets:
        unit = ("pos", name_of[target])
        if unit not in units:
            add_kind("pos")
            names.append(unit[1])
            units.add(unit)

    return TseitinFormula(v, frozenset(range(1, n_inputs + 1)), kinds, names)


DIALECTS = ("ind_comment", "pshow_comment")

_CHUNK_GATES = 2048


def _gate_chunks(kinds, names):
    """A Tseitin formula's clause lines, `_CHUNK_GATES` gates to a string."""
    templates, counts = _GATE_TEMPLATES, _GATE_NAMES
    end = 0
    for i in range(0, len(kinds), _CHUNK_GATES):
        chunk = kinds[i : i + _CHUNK_GATES]
        start, end = end, end + sum(map(counts.__getitem__, chunk))
        yield "\n".join(map(templates.__getitem__, chunk)) % tuple(names[start:end])


def emit_dimacs(cnf: CnfFormula, dialect: str = "ind_comment") -> str:
    """Byte-stable DIMACS text with projection annotations."""
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}")
    num_clauses, clause_lines = cnf._clause_lines()
    lines = [f"p cnf {cnf.num_vars} {num_clauses}"]
    proj = sorted(cnf.projection)
    if dialect == "ind_comment":
        for i in range(0, len(proj), 10):
            chunk = " ".join(str(v) for v in proj[i : i + 10])
            lines.append(f"c ind {chunk} 0")
        if not proj:
            lines.append("c ind 0")
    else:
        chunk = " ".join(str(v) for v in proj)
        lines.append(f"c p show {chunk} 0" if proj else "c p show 0")
    # a Tseitin formula's lines come thousands of clauses to a string: one str
    # object per clause would cost more in object headers than its text; the
    # trailing "" ends the text with a newline without copying all of it once more
    lines.extend(clause_lines)
    lines.append("")
    return "\n".join(lines)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS with optional 'c ind'/'c p show' projection comments.

    Without projection comments the projection defaults to all variables.
    """
    num_vars = None
    declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    projection: set[int] = set()
    saw_projection = False
    pending: list[int] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("c"):
            fields = stripped.split()
            if fields[:2] == ["c", "ind"]:
                body = fields[2:]
            elif fields[:3] == ["c", "p", "show"]:
                body = fields[3:]
            else:
                continue
            saw_projection = True
            for tok in body:
                try:
                    v = int(tok)
                except ValueError as exc:
                    raise DimacsError(f"line {lineno}: bad projection token {tok!r}") from exc
                if v != 0:
                    projection.add(v)
            continue
        if stripped.startswith("p"):
            fields = stripped.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {stripped!r}")
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: second 'p cnf' header {stripped!r}")
            try:
                num_vars, declared_clauses = int(fields[2]), int(fields[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed header {stripped!r}") from exc
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause before header")
        for tok in stripped.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad literal {tok!r}") from exc
            if lit == 0:
                if not pending:
                    raise DimacsError(f"line {lineno}: empty clause")
                clauses.append(tuple(pending))
                pending.clear()
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(f"line {lineno}: literal {lit} out of range")
                pending.append(lit)

    if pending:
        raise DimacsError("unterminated clause at end of input")
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if declared_clauses != len(clauses):
        raise DimacsError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    proj = frozenset(projection) if saw_projection else frozenset(range(1, num_vars + 1))
    cnf = CnfFormula(num_vars=num_vars, clauses=tuple(clauses), projection=proj)
    cnf.check()
    return cnf
