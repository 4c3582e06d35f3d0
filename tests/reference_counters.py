"""Reference CNF counters: test oracles for the package's Tseitin output.

No command counts CNF in process: the builtin count runs on the circuit
(`bdd.count_roots`), and `--backend external:` hands the CNF to an outside
tool. These two counters check the CNF path against the circuit and
against each other.

`count_projected` counts a `CnfFormula` by one DPLL search that branches
on projection variables, while unit propagation (the package's two-watch
`counter._Engine`, over all variables) handles the auxiliaries. For the
Tseitin formulas produced by the package a total projection assignment
determines every auxiliary by propagation, so each branch contributes
exactly 0 or 1. Where a clause stays open below a total projection
assignment (foreign DIMACS), the same search branches on its free
variables and stops at the first model, so such inputs count correctly as
well. Execution is deterministic: no randomness, stable branch order,
reproducible stats. Any other root goes to `exactml.counter.count_projected`,
looked up at call time.

`count_enumerate` is the independent cross-check: one all-solutions DPLL
with its own counter-based propagation that visits each projection model
once, with no blocking clauses.
"""

import time

import exactml.counter
from exactml.cnf import CnfFormula
from exactml.counter import CountResult, _Engine, _normalize

DEFAULT_BUDGET = 10_000_000
ENUMERATE_CAP = 24


class _BudgetExceeded(Exception):
    pass


class _SearchEngine(_Engine):
    """The propagation engine plus the DPLL's bookkeeping: which clauses are
    satisfied, how many projection variables are free, and the budget.

    A clause is marked satisfied once `propagate` has processed a literal
    that it contains. The base loop never reads the marks, so they change
    no propagation and no stat.
    """

    __slots__ = (
        "occur", "satisfied", "sat_trail", "num_unsat", "proj_mask",
        "proj_unassigned", "budget",
    )

    def __init__(self, num_vars, clauses, projection, stats, budget):
        super().__init__(num_vars, clauses, stats)
        self.occur = {}  # literal -> clause indices containing it
        self.satisfied = [False] * len(self.clauses)
        self.sat_trail = []
        self.num_unsat = len(self.clauses)
        self.proj_mask = [False] * (num_vars + 1)
        for v in projection:
            self.proj_mask[v] = True
        self.proj_unassigned = len(projection)
        self.budget = budget

    def setup(self) -> bool:
        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                self.occur.setdefault(lit, []).append(ci)
        return super().setup()

    def _enqueue(self, lit: int) -> None:
        super()._enqueue(lit)
        if self.proj_mask[abs(lit)]:
            self.proj_unassigned -= 1

    def propagate(self) -> bool:
        start = self.qhead
        ok = super().propagate()
        satisfied = self.satisfied
        for lit in self.trail[start:self.qhead]:
            for ci in self.occur.get(lit, ()):
                if not satisfied[ci]:
                    satisfied[ci] = True
                    self.sat_trail.append(ci)
                    self.num_unsat -= 1
        return ok

    def mark(self) -> tuple[int, int]:
        return len(self.trail), len(self.sat_trail)

    def undo(self, marks: tuple[int, int]) -> None:
        tmark, smark = marks
        for lit in self.trail[tmark:]:
            if self.proj_mask[abs(lit)]:
                self.proj_unassigned += 1
        super().undo(tmark)
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
    engine = _SearchEngine(cnf.num_vars, _normalize(cnf.clauses), projection, stats, budget)
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
    a `bdd.CircuitRoot`, which `exactml.counter.count_projected` counts
    through its manager under that manager's budget.
    """
    if not isinstance(cnf, CnfFormula):
        return exactml.counter.count_projected(cnf)
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
