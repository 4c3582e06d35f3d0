"""Exact counting on circuit wires: truth tables for few input bits, ROBDDs beyond.

Both representations compile the cone of the requested roots
(`Circuit.cone`) bottom-up in wire order and count each root without
building a CNF or searching. Which one a call uses depends only on the
circuit's input-bit count:

- Up to `TABLE_MAX_BITS` input bits, a `TableManager` holds each wire's
  whole function as one `2**num_input_bits`-bit Python int, so a gate costs
  one `&`, `|` or `^` and a count is one `bit_count`.
- Beyond that, a `BddManager` compiles reduced ordered binary decision
  diagrams (Bryant 1986), the way Shih, Choi and Darwiche compile quantized
  networks for exact analysis, and counts a root in one linear pass over
  its diagram. Only it fits wide domains in memory.

Shared by both (`_WireCompiler`):

- A manager told which wires its caller will ask for drops each other wire
  once every gate that reads it is compiled, so its memory follows the
  live part of the circuit rather than everything compiled so far.
- One budget, shared by all the roots counted through a manager: every BDD
  node the manager creates (freed or not) or every truth table (an input
  bit's or a gate's) is one unit. Exceeding it raises `NodeBudgetExceeded`,
  which `CircuitRoot.count` reports as a `CountResult` whose count is None.

BDD details:

- Variables are the circuit's input bits, ordered most significant bit
  first and interleaved across features, so the bits that decide integer
  comparisons and sums sit near the top.
- Nodes live in flat lists; node 0 is false, node 1 is true, and both sit at
  level `num_vars`, below every variable. The unique table is keyed by the
  packed integer (level, low, high) and the apply cache by (f, g), each node
  id at `id_bits = (budget + 2).bit_length()` bits: a slot is appended only
  when a node is created, so every id is below budget + 2. Narrow keys hash
  and compare faster; under a 12,000-node budget a cache key fits one
  30-bit CPython digit and a unique key two.
- `apply` is Bryant's apply as one flat loop over a stack of plain ints:
  each frame is an operand pair or a finish (the pair's top level and cache
  key). Each op's terminal cases come from a small table (`_TERMINAL`), the
  low cofactors' pair is taken at once rather than pushed, and the finish
  does `_mk`'s unique-table lookup and node creation in place. It makes the
  nodes the recursive apply makes, in the same order, so the budget runs
  out at the same node.
- The apply cache lives for one gate, so its memory is bounded by the
  largest single gate.
- Now and then the manager frees the nodes no remaining wire reaches.
  Freed slots are reused, so node ids are not in creation order.
- `_reach` is the one walk over a diagram's nodes: collection keeps what
  the compiled wires reach, and `count` sums what a root reaches in level
  order. Besides it, only `apply` follows a node's children.

`count_roots` hands each root to `counter.count_projected` as a
`CircuitRoot`, so every builtin count, on tables or the BDD, goes through
that one entry point.

Everything is iterative, so diagrams thousands of levels deep need no
recursion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from . import counter
from .circuit import Circuit
from .counter import CountResult

# Nodes, unique table and apply cache take 155-205 bytes per node (CPython
# 3.11, x86-64): a 4x8-bit network that exhausted this budget peaked at
# 596 MB resident, so a run that exhausts it stays under 1 GB.
DEFAULT_NODE_BUDGET = 3_000_000

# Circuits with at most this many input bits are counted on truth tables,
# whose size doubles with each bit. A full-domain 20-bit net counted in
# 0.08 s on tables against 10.6 s on the BDD; the 25-bit graph5 `transitive`
# took 1.5 s and 547 MB on tables against 0.31 s and 20 MB on the BDD
# (2-core x86-64, CPython 3.11).
TABLE_MAX_BITS = 20

# Nodes created between two collections: at least this many, and at least
# as many as the previous collection kept, so collecting costs O(1) a node.
GC_MIN_NODES = 1 << 13

AND, OR, XOR = 0, 1, 2
_OPS = {"and": AND, "or": OR, "xor": XOR}

# `apply`'s terminal cases of `f op g` with f <= g, per op: the result when f
# is false, when f is true and when f is g. _OTHER means g itself, None that
# the pair is not terminal (XOR with true recurses to negate g).
_OTHER = -1
_TERMINAL = {
    AND: (0, _OTHER, _OTHER),
    OR: (_OTHER, 1, _OTHER),
    XOR: (_OTHER, None, 0),
}


class NodeBudgetExceeded(Exception):
    """The manager needs more budget units than it was given."""


def variable_order(circuit: Circuit) -> list[int]:
    """Input bits from level 0 down: most significant first, across features."""
    features = circuit.domain.features
    order = []
    for rank in range(max((f.bit_width for f in features), default=0)):
        for i, f in enumerate(features):
            if rank < f.bit_width:
                order.append(circuit.offsets[i] + f.bit_width - 1 - rank)
    return order


class _WireCompiler:
    """Compiles one circuit's wires bottom-up into some representation.

    With `keep`, the wires the caller will ask `node_of` for, every other
    wire of their cones is dropped once compiled and read; what `node_of`
    returns stays valid while its wire is in `keep`. Without `keep` every
    compiled wire stays.

    A representation supplies `_input`, `_const`, `apply` and `models`,
    counts its units in `size` against `budget`, and may act between gates
    in `_gate_done`. A `not` gate is compiled as `apply(XOR, a, true)`.
    """

    method = ""  # CountResult.method of its counts
    unit = ""  # stats key of the budget units spent

    def __init__(
        self,
        circuit: Circuit,
        budget: int = DEFAULT_NODE_BUDGET,
        keep: Optional[Iterable[int]] = None,
    ):
        self.circuit = circuit
        self.budget = budget
        self.size = 0  # budget units spent
        self.wire_node: dict[int, object] = {}
        self.keep = frozenset(keep or ())
        self.readers = self._readers(self.keep)

    def _readers(self, wires: Iterable[int]) -> dict[int, int]:
        """For each wire in the cone of `wires`: the gate inputs there that read it."""
        n_in = self.circuit.num_input_bits
        gates = self.circuit.gates
        readers: dict[int, int] = {}
        for w in self.circuit.cone(wires):
            if w >= n_in and gates[w - n_in][0] != "const":
                for x in gates[w - n_in][1:]:
                    readers[x] = readers.get(x, 0) + 1
        return readers

    def _gate_done(self) -> None:
        pass

    def node_of(self, wire: int):
        """The compiled form of a circuit wire, compiling the uncompiled part of its cone."""
        nodes = self.wire_node
        node = nodes.get(wire)
        if node is not None:
            return node
        circuit = self.circuit
        n_in = circuit.num_input_bits
        gates = circuit.gates
        readers, keep = self.readers, self.keep
        for w in circuit.cone([wire], done=nodes):
            if w < n_in:
                nodes[w] = self._input(w)
                continue
            gate = gates[w - n_in]
            op = gate[0]
            if op == "const":
                nodes[w] = self._const(gate[1])
                continue
            if op == "not":
                nodes[w] = self.apply(XOR, nodes[gate[1]], self._const(True))
            else:
                nodes[w] = self.apply(_OPS[op], nodes[gate[1]], nodes[gate[2]])
            for x in gate[1:]:
                left = readers.get(x)
                if left is not None:
                    readers[x] = left - 1
                    if left == 1 and x not in keep:
                        del nodes[x]
            self._gate_done()
        return nodes[wire]


class TableManager(_WireCompiler):
    """Truth tables of one circuit's wires, for circuits of few input bits.

    A wire's table is an int of `2**num_input_bits` bits: bit `p` is the
    wire's value where input bit `i` is bit `i` of `p`. Every table made for
    an input bit or a gate is one budget unit; constants are free.
    """

    method = "table"
    unit = "tables"

    def __init__(
        self,
        circuit: Circuit,
        budget: int = DEFAULT_NODE_BUDGET,
        keep: Optional[Iterable[int]] = None,
    ):
        super().__init__(circuit, budget, keep)
        self.points = 1 << circuit.num_input_bits
        self.full = (1 << self.points) - 1

    def _spend(self) -> None:
        if self.size >= self.budget:
            raise NodeBudgetExceeded()
        self.size += 1

    def _input(self, bit: int) -> int:
        # runs of 2**bit zeros then ones, doubled up to the full width
        # (bigint division would build the same mask in quadratic time)
        self._spend()
        run = 1 << bit
        table, period = ((1 << run) - 1) << run, 2 * run
        while period < self.points:
            table |= table << period
            period *= 2
        return table

    def _const(self, value: bool) -> int:
        return self.full if value else 0

    def apply(self, op: int, f: int, g: int) -> int:
        self._spend()
        if op == AND:
            return f & g
        return f | g if op == OR else f ^ g

    def models(self, wire: int) -> int:
        """Domain points on which the wire is true."""
        return (self.node_of(wire) & self.node_of(self.circuit.domain_wire)).bit_count()


class BddManager(_WireCompiler):
    """ROBDDs of one circuit's wires, sharing nodes across every root.

    A wire dropped under `keep` has its nodes freed at the next collection;
    without `keep`, a collection frees only nodes that no wire reaches.
    """

    method = "bdd"
    unit = "nodes"

    def __init__(
        self,
        circuit: Circuit,
        budget: int = DEFAULT_NODE_BUDGET,
        keep: Optional[Iterable[int]] = None,
    ):
        super().__init__(circuit, budget, keep)
        self.num_vars = circuit.num_input_bits
        self.level_of_bit = {bit: lvl for lvl, bit in enumerate(variable_order(circuit))}
        self.level = [self.num_vars, self.num_vars]
        self.low = [0, 1]
        self.high = [0, 1]
        self.free: list[int] = []  # slots of freed nodes, reused first
        self.unique: dict[int, int] = {}
        # the width of a node id in a packed key: every id is below budget + 2
        self.id_bits = (budget + 2).bit_length()
        self._next_collect = GC_MIN_NODES

    def _mk(self, lvl: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        bits = self.id_bits
        key = (((lvl << bits) | lo) << bits) | hi
        node = self.unique.get(key)
        if node is None:
            if self.size >= self.budget:
                raise NodeBudgetExceeded()
            self.size += 1
            if self.free:
                node = self.free.pop()
                self.level[node], self.low[node], self.high[node] = lvl, lo, hi
            else:
                node = len(self.level)
                self.level.append(lvl)
                self.low.append(lo)
                self.high.append(hi)
            self.unique[key] = node
        return node

    def _input(self, bit: int) -> int:
        return self._mk(self.level_of_bit[bit], 0, 1)

    def _const(self, value: bool) -> int:
        return 1 if value else 0

    def _gate_done(self) -> None:
        if self.size >= self._next_collect:
            self._collect()

    def _collect(self) -> None:
        """Free the nodes that no compiled wire reaches."""
        live = self._reach(self.wire_node.values())
        self.unique = {key: node for key, node in self.unique.items() if node in live}
        self.free = [u for u in range(2, len(self.low)) if u not in live]
        self._next_collect = self.size + max(GC_MIN_NODES, len(live))

    def apply(self, op: int, f: int, g: int) -> int:
        """The node of `f op g`; op is AND, OR or XOR."""
        level, low, high = self.level, self.low, self.high
        unique, free, budget, size = self.unique, self.free, self.budget, self.size
        unique_get, bits = unique.get, self.id_bits
        on_false, on_true, on_equal = _TERMINAL[op]
        memo: dict[int, int] = {}  # the apply cache, one gate long
        memo_get = memo.get
        results: list[int] = []
        push = results.append
        # frames, top last: a pair is `g, f`; a finish is `top level, ~cache key`
        stack = [g, f]
        pop, extend = stack.pop, stack.extend
        try:
            while stack:
                f = pop()
                if f < 0:
                    # finish: make the node of the pair's two cofactors, as `_mk` does
                    key = ~f
                    top = pop()
                    hi = results.pop()
                    lo = node = results[-1]
                    if lo != hi:
                        ukey = (((top << bits) | lo) << bits) | hi
                        node = unique_get(ukey)
                        if node is None:
                            if size >= budget:
                                raise NodeBudgetExceeded()
                            size += 1
                            if free:
                                node = free.pop()
                                level[node], low[node], high[node] = top, lo, hi
                            else:
                                node = len(level)
                                level.append(top)
                                low.append(lo)
                                high.append(hi)
                            unique[ukey] = node
                    memo[key] = results[-1] = node
                    continue
                g = pop()
                # descend: the low cofactors' pair would be the next frame popped
                while True:
                    if f > g:
                        f, g = g, f
                    if f == g or f <= 1:
                        r = on_equal if f == g else on_true if f else on_false
                        if r is not None:
                            push(g if r == _OTHER else r)
                            break
                    key = (f << bits) | g
                    node = memo_get(key)
                    if node is not None:
                        push(node)
                        break
                    lf, lg = level[f], level[g]
                    # the finish, then the high cofactors' pair
                    if lf == lg:
                        extend((lf, ~key, high[g], high[f]))
                        f, g = low[f], low[g]
                    elif lf < lg:
                        extend((lf, ~key, g, high[f]))
                        f = low[f]
                    else:
                        extend((lg, ~key, high[g], f))
                        g = low[g]
        finally:
            self.size = size
        return results[0]

    def _reach(self, nodes: Iterable[int]) -> set[int]:
        """The inner nodes that `nodes` reach, themselves included."""
        low, high = self.low, self.high
        reach = set()
        stack = list(nodes)
        while stack:
            u = stack.pop()
            if u > 1 and u not in reach:
                reach.add(u)
                stack.append(low[u])
                stack.append(high[u])
        return reach

    def count(self, node: int) -> int:
        """Assignments of all `num_vars` variables that reach the true terminal."""
        level, low, high = self.level, self.low, self.high
        if node <= 1:
            return node << self.num_vars
        counts = {0: 0, 1: 1}
        # children sit on deeper levels than their parents
        for u in sorted(self._reach([node]), key=level.__getitem__, reverse=True):
            lvl = level[u]
            lo, hi = low[u], high[u]
            counts[u] = (counts[lo] << (level[lo] - lvl - 1)) + (counts[hi] << (level[hi] - lvl - 1))
        return counts[node] << level[node]

    def models(self, wire: int) -> int:
        """Domain points on which the wire is true: `wire AND domain_wire`."""
        root = self.node_of(wire)
        return self.count(self.apply(AND, root, self.node_of(self.circuit.domain_wire)))


@dataclass(frozen=True)
class CircuitRoot:
    """A wire to count over its circuit's domain, through a shared manager.

    `counter.count_projected` counts it: the projection is the circuit's
    input bits, and the budget is the manager's.
    """

    manager: _WireCompiler
    wire: int

    def count(self) -> CountResult:
        """Domain points on which the wire is true: `wire AND domain_wire`."""
        manager = self.manager
        start = time.perf_counter()
        try:
            count = manager.models(self.wire)
        except NodeBudgetExceeded:
            count = None
        stats = {manager.unit: manager.size, "wall_time": time.perf_counter() - start}
        return CountResult(count, manager.method, stats)


def count_roots(
    circuit: Circuit, roots: Mapping[str, int], budget: int = DEFAULT_NODE_BUDGET
) -> dict[str, CountResult]:
    """Domain points satisfying each root, through one manager shared by all roots.

    The manager holds truth tables if the circuit has at most
    `TABLE_MAX_BITS` input bits, BDDs otherwise. Each count is of
    `root AND domain_wire`, so bit patterns above a feature's range never
    count. Once the shared budget is spent, every root that still needs a
    new unit comes back exhausted.
    """
    kind = TableManager if circuit.num_input_bits <= TABLE_MAX_BITS else BddManager
    manager = kind(circuit, budget, keep=(*roots.values(), circuit.domain_wire))
    return {
        name: counter.count_projected(CircuitRoot(manager, root))
        for name, root in roots.items()
    }
