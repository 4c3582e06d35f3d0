"""Exact projected model counting, plus the runner of external counters.

`count_projected` is the package's one counting entry point. A
`bdd.CircuitRoot` counts itself through its manager (truth tables or a
BDD); a `CnfFormula` is counted by one DPLL search that branches on
projection variables, while unit propagation (two watched literals, over
all variables) handles the auxiliaries. For the Tseitin formulas produced
by this package a total projection assignment determines every auxiliary
by propagation, so each branch contributes exactly 0 or 1. Where a clause
stays open below a total projection assignment (foreign DIMACS), the same
search branches on its free variables and stops at the first model, so
such inputs count correctly as well. Execution is deterministic: no
randomness, stable branch order, reproducible stats.

Every counter returns a `CountResult`: the count, or None where the
budget ran out before the count finished, the method that counted and its
stats. `exhausted` is only another name for `count is None`, so the two
cannot disagree.

`count_enumerate` is the independent cross-check: one all-solutions DPLL
with its own counter-based propagation that visits each projection model
once, with no blocking clauses.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .cnf import CnfFormula, emit_dimacs

DEFAULT_BUDGET = 10_000_000
ENUMERATE_CAP = 24


@dataclass
class CountResult:
    """A count is its number, or None when the budget ran out before it finished."""

    count: Optional[int]
    method: str  # "table" | "bdd" | "dpll_projected" | "enumeration" | "external" | "constant"
    stats: dict = field(default_factory=dict)

    @property
    def exhausted(self) -> bool:
        return self.count is None


class _BudgetExceeded(Exception):
    pass


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
    """DPLL state of the projected counter, also driven by the propagation probe."""

    __slots__ = (
        "num_vars", "clauses", "assign", "watches", "occur", "satisfied",
        "sat_trail", "num_unsat", "trail", "qhead", "proj_mask",
        "proj_unassigned", "stats", "budget",
    )

    def __init__(self, num_vars, clauses, projection, stats, budget):
        self.num_vars = num_vars
        self.clauses = [list(c) for c in clauses]
        self.assign = [0] * (num_vars + 1)  # 0 free, 1 true, -1 false
        self.watches = {}  # literal -> clause indices watching it
        self.occur = {}  # literal -> clause indices containing it
        self.satisfied = [False] * len(self.clauses)
        self.sat_trail = []
        self.num_unsat = len(self.clauses)
        self.trail = []  # literals assigned true, in order
        self.qhead = 0
        self.proj_mask = [False] * (num_vars + 1)
        for v in projection:
            self.proj_mask[v] = True
        self.proj_unassigned = len(projection)
        self.stats = stats
        self.budget = budget

    def setup(self) -> bool:
        """Register watches and queue unit clauses; False on immediate conflict."""
        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                self.occur.setdefault(lit, []).append(ci)
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
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.trail.append(lit)
        if self.proj_mask[var]:
            self.proj_unassigned -= 1

    def assume(self, lit: int) -> bool:
        """Assign a decision literal and propagate; False on conflict."""
        self._enqueue(lit)
        return self.propagate()

    def propagate(self) -> bool:
        assign = self.assign
        clauses = self.clauses
        watches = self.watches
        satisfied = self.satisfied
        propagations = 0
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            for ci in self.occur.get(lit, ()):
                if not satisfied[ci]:
                    satisfied[ci] = True
                    self.sat_trail.append(ci)
                    self.num_unsat -= 1
            falsified = -lit
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

    def mark(self) -> tuple[int, int]:
        return len(self.trail), len(self.sat_trail)

    def undo(self, marks: tuple[int, int]) -> None:
        tmark, smark = marks
        assign = self.assign
        for lit in self.trail[tmark:]:
            var = abs(lit)
            assign[var] = 0
            if self.proj_mask[var]:
                self.proj_unassigned += 1
        del self.trail[tmark:]
        self.qhead = tmark
        for ci in self.sat_trail[smark:]:
            self.satisfied[ci] = False
            self.num_unsat += 1
        del self.sat_trail[smark:]

    def spend_decision(self) -> None:
        self.stats["decisions"] += 1
        if self.stats["decisions"] > self.budget:
            raise _BudgetExceeded()

    def first_free_in_unsatisfied(self, start: int) -> tuple[int, int]:
        """`(clause index, variable)`: the first free variable of the first
        unsatisfied clause at or after `start` that has one; variable 0 if none.
        """
        for ci in range(start, len(self.clauses)):
            if self.satisfied[ci]:
                continue
            for lit in self.clauses[ci]:
                if self.assign[abs(lit)] == 0:
                    return ci, abs(lit)
        return len(self.clauses), 0


def _branch_order(cnf: CnfFormula) -> list[int]:
    """Projection variables, most occurrences in shortest clauses first.

    The score is computed once on the initial formula: occurrences weighted
    by 4^(8 - clause length) so shorter clauses dominate. Ties break toward
    the lowest variable index. Deterministic by construction.
    """
    score = {v: 0 for v in cnf.projection}
    for clause in cnf.clauses:
        weight = 4 ** max(0, 8 - len(clause))
        for lit in clause:
            var = abs(lit)
            if var in score:
                score[var] += weight
    return sorted(score, key=lambda v: (-score[v], v))


def _count_engine(cnf: CnfFormula, stats: dict, budget: int) -> int:
    projection = sorted(cnf.projection)
    engine = _Engine(cnf.num_vars, _normalize(cnf.clauses), projection, stats, budget)
    if not engine.setup():
        return 0
    order = _branch_order(cnf)
    n = len(order)
    assign = engine.assign
    proj_mask = engine.proj_mask
    # frames [var, next pos, phases tried, subtotal, marks, clause index]: every
    # clause before a frame's clause stays satisfied along its branches
    stack = []
    pos = 0
    while True:
        # a node: count it here, or open a frame and branch below
        value = None
        if engine.num_unsat == 0:
            value = 1 << engine.proj_unassigned
        else:
            while pos < n and assign[order[pos]] != 0:
                pos += 1
            if pos < n:
                ci, var = 0, order[pos]
            else:
                # the projection is total: search below it for one model
                ci, var = engine.first_free_in_unsatisfied(stack[-1][5] if stack else 0)
            if var == 0:
                value = 0  # an unsatisfied clause with every literal false
            else:
                engine.spend_decision()
                stack.append([var, pos + 1, 0, 0, None, ci])
        # add `value` into the frames until one has a branch left to enter:
        # a frame below the projection is done at its first model
        while stack:
            frame = stack[-1]
            if value is not None:
                frame[3] += value
                engine.undo(frame[4])
                value = None
            if frame[2] == 2 or (frame[3] and not proj_mask[frame[0]]):
                stack.pop()
                value = frame[3]
                continue
            lit = frame[0] if frame[2] == 0 else -frame[0]
            frame[2] += 1
            frame[4] = engine.mark()
            if engine.assume(lit):
                pos = frame[1]
                break
            engine.undo(frame[4])
        else:
            return value


def count_projected(cnf, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Exact count of projection assignments extendable to satisfying ones.

    `cnf` is a `CnfFormula`, counted by the DPLL under a decision budget, or
    a `bdd.CircuitRoot`, whose projection is its circuit's input bits and
    which counts through its manager under that manager's budget.
    """
    if not isinstance(cnf, CnfFormula):
        return cnf.count()
    cnf.check()
    stats = {"decisions": 0, "propagations": 0}
    start = time.perf_counter()
    try:
        count = _count_engine(cnf, stats, budget)
    except _BudgetExceeded:
        count = None
    stats["wall_time"] = time.perf_counter() - start
    return CountResult(count, "dpll_projected", stats)


# ---------------------------------------------------------------------------
# Enumeration baseline
# ---------------------------------------------------------------------------

def count_enumerate(cnf: CnfFormula) -> CountResult:
    """Count by enumerating the projection's models in one all-solutions search.

    A DPLL with counter-based propagation, intentionally independent of the
    counting engine. It branches on the projection variables in ascending
    order, then on the others; at a total assignment it counts one model and
    backtracks to the deepest projection decision, so each projection
    assignment is counted once and no clause is ever added.
    """
    cnf.check()
    if len(cnf.projection) > ENUMERATE_CAP:
        raise ValueError(
            f"projection cap exceeded: {len(cnf.projection)} > {ENUMERATE_CAP}"
        )
    start = time.perf_counter()
    clauses = _normalize(cnf.clauses)
    n_free = [len(c) for c in clauses]
    sat_count = [0] * len(clauses)
    occur: dict[int, list[int]] = {}
    for ci, clause in enumerate(clauses):
        for lit in clause:
            occur.setdefault(lit, []).append(ci)
    assign = [0] * (cnf.num_vars + 1)
    trail: list[int] = []

    def set_lit(lit: int) -> bool:
        queue = [lit]
        while queue:
            lit = queue.pop()
            var = abs(lit)
            val = 1 if lit > 0 else -1
            if assign[var] != 0:
                if assign[var] != val:
                    return False
                continue
            assign[var] = val
            trail.append(lit)
            for ci in occur.get(lit, ()):
                sat_count[ci] += 1
            # finish every counter update before reporting a conflict,
            # otherwise undo() would double-correct the skipped clauses
            conflict = False
            units = []
            for ci in occur.get(-lit, ()):
                n_free[ci] -= 1
                if sat_count[ci]:
                    continue
                if n_free[ci] == 0:
                    conflict = True
                elif n_free[ci] == 1:
                    units.append(ci)
            if conflict:
                return False
            for ci in units:
                if sat_count[ci]:
                    continue
                for cand in clauses[ci]:
                    if assign[abs(cand)] == 0:
                        queue.append(cand)
                        break
        return True

    def undo(mark: int) -> None:
        for lit in trail[mark:]:
            assign[abs(lit)] = 0
            for ci in occur.get(lit, ()):
                sat_count[ci] -= 1
            for ci in occur.get(-lit, ()):
                n_free[ci] += 1
        del trail[mark:]

    projection = sorted(cnf.projection)
    order = projection + [
        v for v in range(1, cnf.num_vars + 1) if v not in cnf.projection
    ]
    n_proj, n = len(projection), len(order)

    def next_free(pos: int) -> int:
        while pos < n and assign[order[pos]] != 0:
            pos += 1
        return pos

    count = 0
    if all(set_lit(c[0]) for c in clauses if len(c) == 1):
        stack = []  # frames [position in order, phases tried, trail mark]
        pos = next_free(0)
        while True:
            if pos < n:
                stack.append([pos, 0, len(trail)])
            else:
                # a model: its projection assignment is counted, so drop
                # the frames below the projection instead of trying them
                count += 1
                while stack and stack[-1][0] >= n_proj:
                    stack.pop()
            # enter the next untried branch of the deepest open frame
            while stack:
                frame = stack[-1]
                undo(frame[2])
                if frame[1] == 2:
                    stack.pop()
                    continue
                var = order[frame[0]]
                frame[1] += 1
                if set_lit(var if frame[1] == 1 else -var):
                    pos = next_free(frame[0] + 1)
                    break
            else:
                break
    stats = {"wall_time": time.perf_counter() - start}
    return CountResult(count, "enumeration", stats)


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

    The formula goes to a temporary DIMACS file in `dialect`, whose path
    replaces `{file}` in the template. A command that exits nonzero raises
    ValueError with its stderr; its stdout is read by `parse_external_count`.
    """
    import shlex  # imported here: only this function runs a process
    import subprocess
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as handle:
        handle.write(emit_dimacs(cnf, dialect))
        path = handle.name
    try:
        argv = shlex.split(template.replace("{file}", path))
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
    stats = {"decisions": 0, "propagations": 0}
    engine = _Engine(cnf.num_vars, _normalize(cnf.clauses), sorted(cnf.projection), stats, 0)
    base_ok = engine.setup()
    results = []
    for proj_assignment in assignments:
        if not base_ok:
            results.append("conflict")
            continue
        marks = engine.mark()
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
        engine.undo(marks)
        results.append(status)
    return results
