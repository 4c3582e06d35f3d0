"""Tseitin transformation and DIMACS interchange.

Variable numbering is stable: input bits first (feature order, low bit
first), then one fresh variable per gate reachable from the root, in
topological order. The full biconditional encoding is emitted for every
gate, never the polarity-reduced form: that is what guarantees that a total
assignment to the projection variables determines all auxiliaries by unit
propagation alone, so projected counts equal input counts.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        for clause in self.clauses:
            if not clause:
                raise DimacsError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise DimacsError(f"literal {lit} out of range")
        for v in self.projection:
            if not 1 <= v <= self.num_vars:
                raise DimacsError(f"projection variable {v} out of range")


def tseitin(circuit: Circuit, root: int) -> CnfFormula:
    """CNF for `root` AND the domain-range constraint, projection = input bits.

    One pass over the gates of `Circuit.cone` numbers each gate and emits
    its clauses: the cone is ascending, so a gate's operands are numbered
    before it.
    """
    n_inputs = circuit.num_input_bits
    gates = circuit.gates
    targets = (root, circuit.domain_wire)

    # each variable's two literals are made once and shared by all its
    # clauses: a fresh `-a` per clause costs an int object each time
    var_of = list(range(1, n_inputs + 1)) + [0] * len(gates)
    neg_of = [-v for v in var_of]
    clauses: list[tuple[int, ...]] = []
    add = clauses.append
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
            add((unit,))
            units.add(unit)
        elif op == "not":
            add((v, var_of[gate[1]]))
            add((nv, neg_of[gate[1]]))
        else:
            a, na = var_of[gate[1]], neg_of[gate[1]]
            b, nb = var_of[gate[2]], neg_of[gate[2]]
            if op == "and":
                add((nv, a))
                add((nv, b))
                add((v, na, nb))
            elif op == "or":
                add((v, na))
                add((v, nb))
                add((nv, a, b))
            else:  # xor
                add((nv, a, b))
                add((nv, na, nb))
                add((v, a, nb))
                add((v, na, b))

    for target in targets:
        lit = var_of[target]
        if lit not in units:
            add((lit,))
            units.add(lit)

    return CnfFormula(
        num_vars=v,
        clauses=tuple(clauses),
        projection=frozenset(range(1, n_inputs + 1)),
    )


DIALECTS = ("ind_comment", "pshow_comment")

# "%d ... 0" for clauses of 1-4 literals, indexed by length; every Tseitin
# clause fits, and a chunk with a longer one (parsed foreign CNF) is joined
# literal by literal
_CLAUSE_TEMPLATES = (None,) + tuple(" ".join(["%d"] * n) + " 0" for n in range(1, 5))
_CHUNK_CLAUSES = 4096


def _clause_chunks(clauses):
    """The clause lines, `_CHUNK_CLAUSES` clauses to a string."""
    templates = _CLAUSE_TEMPLATES
    for i in range(0, len(clauses), _CHUNK_CLAUSES):
        chunk = clauses[i : i + _CHUNK_CLAUSES]
        if max(map(len, chunk)) <= 4:
            yield "\n".join([templates[len(c)] for c in chunk]) % tuple(chain.from_iterable(chunk))
        else:
            yield "\n".join([" ".join(map(str, c)) + " 0" for c in chunk])


def emit_dimacs(cnf: CnfFormula, dialect: str = "ind_comment") -> str:
    """Byte-stable DIMACS text with projection annotations."""
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}")
    if not all(cnf.clauses):
        raise DimacsError("empty clause")
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
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
    # thousands of clauses to a string: one str object per clause would cost
    # more in object headers than its text; the trailing "" ends the text with
    # a newline without copying all of it once more
    lines.extend(_clause_chunks(cnf.clauses))
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
