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

    var_of = list(range(1, n_inputs + 1)) + [0] * len(gates)
    clauses: list[tuple[int, ...]] = []
    add = clauses.append
    units = set()
    v = n_inputs
    for w in circuit.cone(targets):
        if w < n_inputs:
            continue
        v += 1
        var_of[w] = v
        gate = gates[w - n_inputs]
        op = gate[0]
        if op == "const":
            unit = v if gate[1] else -v
            add((unit,))
            units.add(unit)
        elif op == "not":
            a = var_of[gate[1]]
            add((v, a))
            add((-v, -a))
        elif op == "and":
            a, b = var_of[gate[1]], var_of[gate[2]]
            add((-v, a))
            add((-v, b))
            add((v, -a, -b))
        elif op == "or":
            a, b = var_of[gate[1]], var_of[gate[2]]
            add((v, -a))
            add((v, -b))
            add((-v, a, b))
        else:  # xor
            a, b = var_of[gate[1]], var_of[gate[2]]
            add((-v, a, b))
            add((-v, -a, -b))
            add((v, a, -b))
            add((v, -a, b))

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
# clause fits, and longer ones (parsed foreign CNF) are joined literal by literal
_CLAUSE_TEMPLATES = (None,) + tuple(" ".join(["%d"] * n) + " 0" for n in range(1, 5))


def emit_dimacs(cnf: CnfFormula, dialect: str = "ind_comment") -> str:
    """Byte-stable DIMACS text with projection annotations."""
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}")
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
    templates = _CLAUSE_TEMPLATES
    add = lines.append
    for clause in cnf.clauses:
        n = len(clause)
        add(templates[n] % clause if n <= 4 else " ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


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
