"""Tseitin transformation and DIMACS interchange.

Variable numbering is stable: input bits first (feature order, low bit
first), then one fresh variable per gate reachable from the root, in
topological order. The full biconditional encoding is emitted for every
gate, never the polarity-reduced form: that is what guarantees that a total
assignment to the projection variables determines all auxiliaries by unit
propagation alone, so projected counts equal input counts.

`tseitin` walks the root's cone once and keeps what the walk gives per gate:
its kind and its literals, in clause order. That record is the formula.
`emit_dimacs` writes it through one `%` template per gate kind, a few
thousand gates to a string, so no clause tuple is made on the way to
DIMACS; the clause tuples that the DPLL, `probe_functional_extension` and
the tests read are cut from the same record when first read. Any other
`CnfFormula` (one read by `parse_dimacs`) is written a clause per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .circuit import Circuit


class DimacsError(ValueError):
    """Malformed DIMACS input."""


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    projection: frozenset[int]

    def check(self) -> None:
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


# Each gate kind's clause lengths. `tseitin` lists a gate's literals clause by
# clause in this order; `emit_dimacs` formats them through the kind's template
# and `TseitinFormula.clauses` cuts them at these lengths. A "unit" is a const
# gate or the unit clause of the root or of the domain wire.
_CLAUSE_LENGTHS = {
    "unit": (1,),
    "not": (2, 2),
    "and": (2, 2, 3),
    "or": (2, 2, 3),
    "xor": (3, 3, 3, 3),
}
_GATE_TEMPLATES = {
    kind: "\n".join(" ".join(["%d"] * n) + " 0" for n in lengths)
    for kind, lengths in _CLAUSE_LENGTHS.items()
}
_GATE_LITERALS = {kind: sum(lengths) for kind, lengths in _CLAUSE_LENGTHS.items()}
_GATE_CLAUSES = {kind: len(lengths) for kind, lengths in _CLAUSE_LENGTHS.items()}


class TseitinFormula(CnfFormula):
    """A formula as `tseitin`'s walk gave it: `kinds[i]` is the i-th gate's
    kind and `literals` holds every gate's literals, clause by clause. The
    clause tuples are cut from `literals` when `clauses` is first read."""

    def __init__(self, num_vars: int, projection: frozenset[int], kinds: list[str],
                 literals: list[int]):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "literals", literals)

    @cached_property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        rest = iter(self.literals)
        lengths = _CLAUSE_LENGTHS
        return tuple(tuple(islice(rest, n)) for kind in self.kinds for n in lengths[kind])

    def _clause_lines(self):
        kinds = self.kinds
        return sum(map(_GATE_CLAUSES.__getitem__, kinds)), _gate_chunks(kinds, self.literals)


def tseitin(circuit: Circuit, root: int) -> TseitinFormula:
    """CNF for `root` AND the domain-range constraint, projection = input bits.

    One pass over the gates of `Circuit.cone` numbers each gate and records
    its kind and literals: the cone is ascending, so a gate's operands are
    numbered before it.
    """
    n_inputs = circuit.num_input_bits
    gates = circuit.gates
    targets = (root, circuit.domain_wire)

    # each variable's two literals are made once and shared by all its
    # clauses: a fresh `-a` per clause costs an int object each time
    var_of = list(range(1, n_inputs + 1)) + [0] * len(gates)
    neg_of = [-v for v in var_of]
    kinds: list[str] = []
    add_kind = kinds.append
    lits: list[int] = []
    units = set()
    v = n_inputs
    for w in circuit.cone(targets):
        if w < n_inputs:
            continue
        v += 1
        nv = -v
        var_of[w] = v
        neg_of[w] = nv
        gate = gates[w - n_inputs]
        op = gate[0]
        if op == "const":
            unit = v if gate[1] else nv
            add_kind("unit")
            lits.append(unit)
            units.add(unit)
        elif op == "not":
            add_kind(op)
            lits += (v, var_of[gate[1]], nv, neg_of[gate[1]])
        else:
            a, na = var_of[gate[1]], neg_of[gate[1]]
            b, nb = var_of[gate[2]], neg_of[gate[2]]
            add_kind(op)
            if op == "and":
                lits += (nv, a, nv, b, v, na, nb)
            elif op == "or":
                lits += (v, na, v, nb, nv, a, b)
            else:  # xor
                lits += (nv, a, b, nv, na, nb, v, a, nb, v, na, b)

    for target in targets:
        lit = var_of[target]
        if lit not in units:
            add_kind("unit")
            lits.append(lit)
            units.add(lit)

    return TseitinFormula(v, frozenset(range(1, n_inputs + 1)), kinds, lits)


DIALECTS = ("ind_comment", "pshow_comment")

_CHUNK_GATES = 2048


def _gate_chunks(kinds, literals):
    """A Tseitin formula's clause lines, `_CHUNK_GATES` gates to a string."""
    templates, counts = _GATE_TEMPLATES, _GATE_LITERALS
    end = 0
    for i in range(0, len(kinds), _CHUNK_GATES):
        chunk = kinds[i : i + _CHUNK_GATES]
        start, end = end, end + sum(map(counts.__getitem__, chunk))
        yield "\n".join(map(templates.__getitem__, chunk)) % tuple(literals[start:end])


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
