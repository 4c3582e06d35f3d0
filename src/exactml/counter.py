"""The counting entry point, the runner of external counters and the
propagation probe.

`count_projected` is the package's one counting entry point: a
`bdd.CircuitRoot` counts itself through its manager (truth tables or a
BDD). CNF formulas are counted by external tools, which `count_external`
runs; the reference CNF counters that check this package's Tseitin output
live with the tests (`tests/reference_counters.py`).

Every counter returns a `CountResult`: the count, or None where the
budget ran out before the count finished, the method that counted and its
stats. `exhausted` is only another name for `count is None`, so the two
cannot disagree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .cnf import CnfFormula, emit_dimacs


@dataclass
class CountResult:
    """A count is its number, or None when the budget ran out before it finished."""

    count: Optional[int]
    method: str  # "table" | "bdd" | "external" | "constant"
    stats: dict = field(default_factory=dict)

    @property
    def exhausted(self) -> bool:
        return self.count is None


def count_projected(root) -> CountResult:
    """Domain points on which a `bdd.CircuitRoot`'s wire is true, counted
    through its manager under that manager's budget.

    Every builtin count goes through this module attribute, so a wrapper
    installed here sees them all.
    """
    return root.count()


def _normalize(clauses):
    """Drop tautologies and duplicate literals (possible in foreign DIMACS).

    Duplicate watches on one literal would corrupt the two-watch scheme.
    """
    out = []
    for clause in clauses:
        seen = []
        taut = False
        for lit in clause:
            if -lit in seen:
                taut = True
                break
            if lit not in seen:
                seen.append(lit)
        if not taut:
            out.append(tuple(seen))
    return out


class _Engine:
    """Unit propagation over two watched literals, driven by the probe."""

    __slots__ = ("clauses", "assign", "watches", "trail", "qhead", "stats")

    def __init__(self, num_vars, clauses, stats):
        self.clauses = [list(c) for c in clauses]
        self.assign = [0] * (num_vars + 1)  # 0 free, 1 true, -1 false
        self.watches = {}  # literal -> clause indices watching it
        self.trail = []  # literals assigned true, in order
        self.qhead = 0
        self.stats = stats

    def setup(self) -> bool:
        """Register watches and queue unit clauses; False on immediate conflict."""
        for ci, clause in enumerate(self.clauses):
            if len(clause) >= 2:
                self.watches.setdefault(clause[0], []).append(ci)
                self.watches.setdefault(clause[1], []).append(ci)
        for ci, clause in enumerate(self.clauses):
            if len(clause) == 1:
                lit = clause[0]
                val = self.assign[abs(lit)]
                if val == 0:
                    self._enqueue(lit)
                elif (val > 0) != (lit > 0):
                    return False
        return self.propagate()

    def _enqueue(self, lit: int) -> None:
        self.assign[abs(lit)] = 1 if lit > 0 else -1
        self.trail.append(lit)

    def assume(self, lit: int) -> bool:
        """Assign a decision literal and propagate; False on conflict."""
        self._enqueue(lit)
        return self.propagate()

    def propagate(self) -> bool:
        assign = self.assign
        clauses = self.clauses
        watches = self.watches
        propagations = 0
        while self.qhead < len(self.trail):
            falsified = -self.trail[self.qhead]
            self.qhead += 1
            watchlist = watches.get(falsified)
            if not watchlist:
                continue
            kept = []
            wi = 0
            n = len(watchlist)
            while wi < n:
                ci = watchlist[wi]
                wi += 1
                clause = clauses[ci]
                # normalize: the falsified literal sits at position 1
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                oval = assign[abs(other)]
                if oval != 0 and (oval > 0) == (other > 0):
                    kept.append(ci)  # already satisfied via the other watch
                    continue
                moved = False
                for pos in range(2, len(clause)):
                    cand = clause[pos]
                    cval = assign[abs(cand)]
                    if cval == 0 or (cval > 0) == (cand > 0):
                        clause[1], clause[pos] = clause[pos], clause[1]
                        watches.setdefault(cand, []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if oval == 0:
                    self._enqueue(other)
                    propagations += 1
                else:
                    kept.extend(watchlist[wi:])
                    del watchlist[:]
                    watchlist.extend(kept)
                    self.stats["propagations"] += propagations
                    return False
            del watchlist[:]
            watchlist.extend(kept)
        self.stats["propagations"] += propagations
        return True

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        assign = self.assign
        for lit in self.trail[mark:]:
            assign[abs(lit)] = 0
        del self.trail[mark:]
        self.qhead = mark


# ---------------------------------------------------------------------------
# External counters
# ---------------------------------------------------------------------------

_MC_LINE = re.compile(r"^s\s+mc\s+(\d+)\s*$", re.MULTILINE)
_UNSAT_LINE = re.compile(r"^s\s+UNSATISFIABLE\s*$", re.MULTILINE)
_MULT_FORM = re.compile(r"(\d+)\s*[x*]\s*2\s*\*\*\s*(\d+)")


def parse_external_count(text: str, tool: str = "projected_exact") -> CountResult:
    """Extract the reported projected count from a counter's stdout."""
    if tool not in ("projected_exact", "approximate"):
        raise ValueError(f"unknown tool kind {tool!r}")
    stats: dict = {"tool": tool}
    match = _MC_LINE.search(text)
    if match:
        return CountResult(int(match.group(1)), "external", stats)
    if _UNSAT_LINE.search(text):
        return CountResult(0, "external", stats)
    if tool == "approximate":
        match = _MULT_FORM.search(text)
        if match:
            base, exp = int(match.group(1)), int(match.group(2))
            stats["multiplicative_form"] = match.group(0)
            return CountResult(base * (1 << exp), "external", stats)
    raise ValueError("unrecognized counter output")


def count_external(cnf: CnfFormula, template: str, tool: str, dialect: str) -> CountResult:
    """Count `cnf` with an external counter, given as a command line `template`.

    The formula goes to a temporary DIMACS file in `dialect`. The template
    is split into arguments first, and the file's path then replaces `{file}`
    in each, so a path with a space stays one argument. A command that exits
    nonzero raises ValueError with its stderr; its stdout is read by
    `parse_external_count`.
    """
    import shlex  # imported here: only this function runs a process
    import subprocess
    import tempfile

    words = shlex.split(template)
    with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as handle:
        handle.write(emit_dimacs(cnf, dialect))
        path = handle.name
    try:
        argv = [word.replace("{file}", path) for word in words]
        proc = subprocess.run(argv, capture_output=True, text=True)
    finally:
        Path(path).unlink(missing_ok=True)
    if proc.returncode != 0:
        raise ValueError(
            f"external counter exited with code {proc.returncode}: {proc.stderr.strip()}"
        )
    return parse_external_count(proc.stdout, tool)


# ---------------------------------------------------------------------------
# Propagation-only probe (functional-extension checks)
# ---------------------------------------------------------------------------

def probe_functional_extension(cnf: CnfFormula, assignments) -> list[str]:
    """Unit-propagate total projection assignments with no search.

    For each assignment returns "conflict" or "complete" (all variables
    forced); "incomplete" would mean propagation stalled below the
    projection, violating the functional-extension property of the Tseitin
    output. The engine is built once and reused across assignments.
    """
    cnf.check()
    engine = _Engine(cnf.num_vars, _normalize(cnf.clauses), {"propagations": 0})
    base_ok = engine.setup()
    results = []
    for proj_assignment in assignments:
        if not base_ok:
            results.append("conflict")
            continue
        mark = engine.mark()
        status = "complete"
        for var in sorted(proj_assignment):
            want = 1 if proj_assignment[var] else -1
            val = engine.assign[var]
            if val != 0:
                if val != want:
                    status = "conflict"
                    break
                continue
            if not engine.assume(var if proj_assignment[var] else -var):
                status = "conflict"
                break
        if status != "conflict" and any(
            engine.assign[v] == 0 for v in range(1, cnf.num_vars + 1)
        ):
            status = "incomplete"
        engine.undo(mark)
        results.append(status)
    return results
