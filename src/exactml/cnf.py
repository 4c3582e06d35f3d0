"""Tseitin transformation and DIMACS interchange.

Variable numbering is stable: input bits first (feature order, low bit
first), then one fresh variable per gate reachable from the root, in
topological order. The full biconditional encoding is emitted for every
gate, never the polarity-reduced form: that is what guarantees that a total
assignment to the projection variables determines all auxiliaries by unit
propagation alone, so projected counts equal input counts.

`tseitin` walks the root's cone once and writes each gate's clauses as it
goes: one f-string per gate kind, with each variable named once, as the
string of its number. That list of per-gate lines and the count of their
clauses are the formula, and `emit_dimacs` only joins them under the
header (`exactml emit` frees the circuit before that join). The clause
tuples that `probe_functional_extension` and the tests' reference counters
read are parsed from the lines when first read, with one int object per
literal. Any other `CnfFormula` (one read by `parse_dimacs`) is written a
clause per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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


class TseitinFormula(CnfFormula):
    """A formula as `tseitin`'s walk wrote it: `lines[i]` is the i-th gate's
    clause lines as one string, and `num_clauses` counts the clauses of all
    of them. The clause tuples are parsed from the lines when `clauses` is
    first read."""

    def __init__(self, num_vars: int, projection: frozenset[int], lines: list[str],
                 num_clauses: int):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "num_clauses", num_clauses)

    @cached_property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        # each literal's text is read once, and its int object is shared by all its clauses
        pos = range(1, self.num_vars + 1)
        literal = {**{str(v): v for v in pos}, **{f"-{v}": -v for v in pos}}
        read = literal.__getitem__
        return tuple(tuple(map(read, clause.split()[:-1]))
                     for clause in chain.from_iterable(map(str.splitlines, self.lines)))

    def _clause_lines(self):
        return self.num_clauses, self.lines


def tseitin(circuit: Circuit, root: int) -> TseitinFormula:
    """CNF for `root` AND the domain-range constraint, projection = input bits.

    One pass over the gates of `Circuit.cone` numbers each gate and writes
    its clause lines: the cone is ascending, so a gate's operands are named
    before it.
    """
    n_inputs = circuit.num_input_bits
    gates = circuit.gates
    targets = (root, circuit.domain_wire)

    # each variable is named once, as the string of its number
    name_of = [str(v) for v in range(1, n_inputs + 1)] + [None] * len(gates)
    lines: list[str] = []
    add = lines.append
    units = set()  # the line of each unit clause
    num_clauses = 0
    v = n_inputs
    for w in circuit.cone(targets):
        if w < n_inputs:
            continue
        v += 1
        name_of[w] = s = str(v)
        gate = gates[w - n_inputs]
        op = gate[0]
        if op == "and":
            a, b = name_of[gate[1]], name_of[gate[2]]
            add(f"-{s} {a} 0\n-{s} {b} 0\n{s} -{a} -{b} 0")
            num_clauses += 3
        elif op == "xor":
            a, b = name_of[gate[1]], name_of[gate[2]]
            add(f"-{s} {a} {b} 0\n-{s} -{a} -{b} 0\n{s} {a} -{b} 0\n{s} -{a} {b} 0")
            num_clauses += 4
        elif op == "or":
            a, b = name_of[gate[1]], name_of[gate[2]]
            add(f"{s} -{a} 0\n{s} -{b} 0\n-{s} {a} {b} 0")
            num_clauses += 3
        elif op == "not":
            a = name_of[gate[1]]
            add(f"{s} {a} 0\n-{s} -{a} 0")
            num_clauses += 2
        else:  # const: a positive or a negative unit
            unit = f"{s} 0" if gate[1] else f"-{s} 0"
            add(unit)
            units.add(unit)
            num_clauses += 1

    for target in targets:
        unit = f"{name_of[target]} 0"
        if unit not in units:
            add(unit)
            units.add(unit)
            num_clauses += 1

    return TseitinFormula(v, frozenset(range(1, n_inputs + 1)), lines, num_clauses)


DIALECTS = ("ind_comment", "pshow_comment")


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
    # a Tseitin formula's lines come a gate to a string; the trailing "" ends
    # the text with a newline without copying all of it once more
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
