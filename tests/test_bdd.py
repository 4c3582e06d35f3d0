"""ROBDD counting: the manager, bounding boxes and deep domains."""

import hashlib
import json
import random

import pytest

import exactml.bdd
import exactml.counter
from exactml.bdd import XOR, BddManager, CircuitRoot, TableManager, count_roots, variable_order
from exactml.circuit import Circuit, compile_model, compile_predicate
from exactml.cnf import tseitin
from exactml.metrics import (
    binary_truth,
    learnability,
    learnability_roots,
    robustness,
    safety,
    safety_to_document,
    tseitin_count_fn,
)
from exactml.models import load_tree
from exactml.oracle import enumerate_domain
from exactml.predicates import (
    And,
    CmpConst,
    CmpFeature,
    Not,
    Or,
    SafetyProperty,
    bounding_box,
    builtin_graph_property,
    graph_domain,
    parse_predicate,
)

from conftest import constant_tree_doc, make_domain, random_network, random_tree, truth_family
from reference_counters import count_projected

DPLL = tseitin_count_fn(count_projected)


def _spent(result):
    """Budget units the manager had spent when `result` was counted."""
    return result.stats[{"table": "tables", "bdd": "nodes"}[result.method]]


class TestBoundingBox:
    def test_cases(self):
        dom = make_domain([(0, 9), (-3, 3)])
        full = ((0, 9), (-3, 3))
        cases = {
            "f0 <= 4 && f1 > 0": ((0, 4), (1, 3)),
            "f0 <= 2 || f0 >= 7": full,
            "(f0 = 2 && f1 = 0) || (f0 = 5 && f1 = -1)": ((2, 5), (-1, 0)),
            "!(f0 < 3)": ((3, 9), (-3, 3)),
            "!(f1 = 3)": ((0, 9), (-3, 2)),
            "f1 != -3": ((0, 9), (-2, 3)),
            "f0 != 4": full,
            "f0 <= f1": full,
            "!(f0 <= 4 && f1 > 0)": full,
            "f0 >= 8 && (f0 <= f1 || f1 = 2)": ((8, 9), (-3, 3)),
        }
        for text, want in cases.items():
            assert bounding_box(parse_predicate(text, dom), dom) == make_domain(want), text
        assert bounding_box(CmpFeature("<", 0, 1), dom) == dom
        assert bounding_box(Not(Or((CmpConst("<", 0, 3),))), dom) == dom
        assert bounding_box(And(()), dom) == dom

    def test_empty_boxes(self):
        dom = make_domain([(0, 9), (5, 5)])
        for text in ("f0 <= 4 && f0 >= 5", "f1 != 5", "f0 > 9 || f1 < 5", "false", "!true"):
            assert bounding_box(parse_predicate(text, dom), dom) is None, text

    def test_empty_box_keeps_the_vacuous_report(self):
        dom = make_domain([(0, 1), (0, 1)])
        tree = load_tree(constant_tree_doc(0), dom)
        prop = SafetyProperty(parse_predicate("f0 <= 0 && f0 >= 1", dom), frozenset({1}))
        assert bounding_box(prop.pre, dom) is None
        assert safety_to_document(safety(tree, prop, dom)) == {
            "format_version": 1,
            "report": "safety",
            "pre_size": 0,
            "sat_count": 0,
            "viol_count": 0,
            "accuracy": "undefined",
            "vacuous": True,
            "gaps": [],
        }

    def test_unsatisfiable_pre_in_a_nonempty_box_is_vacuous(self):
        dom = make_domain([(0, 3)])
        tree = load_tree(constant_tree_doc(1), dom)
        prop = SafetyProperty(parse_predicate("f0 = 2 && f0 != 2", dom), frozenset({1}))
        assert bounding_box(prop.pre, dom) == make_domain([(2, 2)])
        report = safety(tree, prop, dom)
        assert (report.pre_size, report.sat_count, report.viol_count) == (0, 0, 0)
        assert report.vacuous


class TestManager:
    METHOD = "table"  # what count_roots uses on these small domains

    def test_variable_order_is_msb_first_and_interleaved(self):
        dom = make_domain([(0, 7), (0, 1), (0, 3)])
        circ = Circuit(dom)
        # feature bits: f0 -> 0,1,2; f1 -> 3; f2 -> 4,5 (LSB first)
        assert variable_order(circ) == [2, 3, 5, 1, 4, 0]

    def test_graph_property_counts(self):
        dom = graph_domain(4)
        circ = Circuit(dom)
        roots = {
            name: compile_predicate(circ, builtin_graph_property(name, 4))
            for name in ("reflexive", "antisymmetric", "transitive", "totalorder")
        }
        results = count_roots(circ, roots)
        assert {r.method for r in results.values()} == {self.METHOD}
        got = {name: r.count for name, r in results.items()}
        assert got == {"reflexive": 4096, "antisymmetric": 11664, "transitive": 3994, "totalorder": 24}

    def test_count_projected_counts_circuit_roots(self, monkeypatch):
        dom = make_domain([(-3, 4), (0, 5)])
        circ = Circuit(dom)
        root = compile_predicate(circ, parse_predicate("f0 < f1 || f0 == 4", dom))
        for manager in (BddManager(circ), TableManager(circ)):
            got = count_projected(CircuitRoot(manager, root))
            assert (got.method, got.exhausted) == (manager.method, False)
            assert got.count == count_projected(tseitin(circ, root)).count
        # count_roots goes through the module attribute, so replacing it is seen
        seen = []
        monkeypatch.setattr(exactml.counter, "count_projected", lambda r: seen.append(r) or r.count())
        assert count_roots(circ, {"p": root})["p"].count == got.count
        assert [r.wire for r in seen] == [root]

    def test_node_budget_is_shared_by_all_roots(self):
        dom = graph_domain(4)
        circ = Circuit(dom)
        small = compile_predicate(circ, builtin_graph_property("reflexive", 4))
        large = compile_predicate(circ, builtin_graph_property("transitive", 4))
        alone = count_roots(circ, {"small": small})["small"]
        assert alone.method == self.METHOD
        budget = _spent(alone) + 10
        results = count_roots(circ, {"small": small, "large": large}, budget)
        assert results["small"].count == 4096
        assert results["large"].exhausted and results["large"].count is None
        assert _spent(results["large"]) <= budget
        # the same root alone fits; after the large one has spent the budget it does not
        late = count_roots(circ, {"large": large, "small": small}, budget)
        assert late["large"].exhausted and late["small"].exhausted

    def test_collection_frees_dead_wires_and_keeps_counts(self, monkeypatch):
        monkeypatch.setattr(exactml.bdd, "GC_MIN_NODES", 64)
        dom = graph_domain(4)
        circ = Circuit(dom)
        roots = {
            name: compile_predicate(circ, builtin_graph_property(name, 4))
            for name in ("transitive", "totalorder")
        }
        plain = BddManager(circ)
        kept = BddManager(circ, keep=(*roots.values(), circ.domain_wire))
        got = {name: CircuitRoot(kept, root).count().count for name, root in roots.items()}
        assert got == {name: CircuitRoot(plain, root).count().count for name, root in roots.items()}
        assert got == {"transitive": 3994, "totalorder": 24}
        # fewer slots ever held than nodes created without freeing; freed nodes
        # made again still count against the budget
        assert len(kept.level) - 2 < plain.size <= kept.size
        assert kept.free and set(kept.wire_node) == kept.keep

    def test_budget_gap_in_metrics(self):
        dom = graph_domain(3)
        tree = load_tree(constant_tree_doc(1), dom)
        truth = {1: builtin_graph_property("transitive", 3), 0: Not(builtin_graph_property("transitive", 3))}
        report = learnability(tree, truth, dom, count_fn=lambda c, r: count_roots(c, r, 5))
        assert report.gaps and all(g.endswith("budget exhausted") for g in report.gaps)
        assert any(not m.complete() for m in report.labels)

    def test_apply_and_not_keep_the_diagram_reduced(self):
        dom = make_domain([(0, 3), (0, 3)])
        circ = Circuit(dom)
        manager = BddManager(circ)
        a, b = circ.feature_bits(0)[1], circ.feature_bits(1)[1]
        x = manager.node_of(circ.xor_(a, b))
        assert manager.apply(XOR, manager.apply(XOR, x, 1), 1) == x
        assert manager.node_of(circ.not_(circ.xor_(a, b))) == manager.apply(XOR, x, 1)
        assert manager.count(x) == 8


@pytest.mark.usefixtures("bdd_only")
class TestManagerOnBdd(TestManager):
    """The same checks with every circuit counted on the BDD."""

    METHOD = "bdd"


def test_an_input_made_after_a_collection_reuses_a_freed_slot(monkeypatch):
    monkeypatch.setattr(exactml.bdd, "GC_MIN_NODES", 16)
    dom = graph_domain(4)
    circ = Circuit(dom)
    # symmetry of the first three rows: bit 15, e[3][3], is outside its cone
    root = compile_predicate(
        circ, parse_predicate("forall i, j in [0, 3): e[i][j] = 1 => e[j][i] = 1", dom)
    )
    manager = BddManager(circ, keep=(root, 15))
    manager.node_of(root)
    freed, slots = set(manager.free), len(manager.level)
    assert freed
    node = manager.node_of(15)
    assert node in freed and len(manager.level) == slots
    assert manager.count(node) == 1 << 15


@pytest.mark.parametrize("extra_bits, method", [(0, "table"), (1, "bdd")], ids=["table", "bdd"])
def test_table_max_bits_is_the_boundary(extra_bits, method):
    # f0 < f1 over two 10-bit features has C(1024, 2) models on either side
    assert exactml.bdd.TABLE_MAX_BITS == 20
    dom = make_domain([(0, 1023), (0, 1023)] + [(0, 1)] * extra_bits)
    circ = Circuit(dom)
    text = "f0 < f1" + " && f2 = 0" * extra_bits
    assert circ.num_input_bits == exactml.bdd.TABLE_MAX_BITS + extra_bits
    result = count_roots(circ, {"lt": compile_predicate(circ, parse_predicate(text, dom))})["lt"]
    assert (result.method, result.count) == (method, 1024 * 1023 // 2)


def test_a_table_bit_is_the_wire_at_that_point():
    # bit p of a table is the wire's value where input bit i is bit i of p
    dom = make_domain([(0, 3), (-2, 1)])
    circ = Circuit(dom)
    root = compile_predicate(circ, parse_predicate("f0 < f1 || f1 = -1", dom))
    manager = TableManager(circ)
    tables = {w: manager.node_of(w) for w in (*range(circ.num_input_bits), root)}
    for point in enumerate_domain(dom):
        p = sum((v - f.lo) << off for v, f, off in zip(point, dom.features, circ.offsets))
        values = circ.simulate(point)
        assert {w: (t >> p) & 1 for w, t in tables.items()} == {w: int(values[w]) for w in tables}


@pytest.mark.parametrize(
    "budget, digest, size, exhausted",
    [
        (12_000, "7dc98bd229cd6054002d42fa7eda77b061eaa38f79a340b9551d181a21d3b7c8", 12_000, [True] * 8),
        (60_000, "231436dafb659dc2d76da9f931977a70afb3501982cd6d09487b2c9788e6bff7", 60_000,
         [False] * 2 + [True] * 6),
        (3_000_000, "302d614d6e3e41e143965eca9467aa15649c7c9d4d613280d1a75df228c8753f", 68_791,
         [False] * 8),
    ],
    ids=["exhausts", "partial", "counts"],
)
def test_the_manager_makes_the_same_nodes_in_the_same_order(budget, digest, size, exhausted):
    """Pins every node slot, in creation and reuse order, and the budget unit of each stop.

    The learnability roots of a seeded depth-6 tree against graph5
    `transitive` spend 68,791 nodes over six collections, so the reuse of
    freed slots is pinned too. The digests were taken before `apply` was
    rewritten as one flat loop.
    """
    dom = graph_domain(5)
    circ = compile_model(random_tree(random.Random(1), dom, max_depth=6), dom)
    roots = learnability_roots(circ, binary_truth(builtin_graph_property("transitive", 5)))
    wires = list(dict.fromkeys(w for w in roots.values() if circ.const_value(w) is None))
    manager = BddManager(circ, budget, keep=(*wires, circ.domain_wire))
    results = [CircuitRoot(manager, w).count() for w in wires]
    state = [manager.level, manager.low, manager.high, manager.size, [r.exhausted for r in results]]
    assert (manager.size, state[-1]) == (size, exhausted)
    assert hashlib.sha256(json.dumps(state).encode()).hexdigest() == digest
    if not any(exhausted):
        # the four cells of label 1 cover the domain
        counts = dict(zip(wires, (r.count for r in results)))
        cells = [counts[roots[f"{kind}:1"]] for kind in ("tp", "fn", "fp", "tn")]
        assert sum(cells) == dom.size()


def _chain(n):
    """Circuit and roots `every`, `not every` of the AND of n one-bit features."""
    dom = make_domain([(0, 1)] * n)
    circ = Circuit(dom)
    every = circ.const(True)
    for i in reversed(range(n)):
        every = circ.and_(circ.input_bit(i, 0), every)
    return circ, [every, circ.not_(every)]


def _graph4_cells(seed):
    """Circuit and distinct non-constant learnability cells of a seeded tree against `transitive`."""
    dom = graph_domain(4)
    circ = compile_model(random_tree(random.Random(seed), dom, max_depth=6), dom)
    roots = learnability_roots(circ, binary_truth(builtin_graph_property("transitive", 4)))
    return circ, list(dict.fromkeys(w for w in roots.values() if circ.const_value(w) is None))


def _bdd_counts(circ, wires, budget):
    manager = BddManager(circ, budget, keep=(*wires, circ.domain_wire))
    return manager, [CircuitRoot(manager, w).count() for w in wires]


@pytest.mark.parametrize(
    "circuit, gc_min_nodes",
    [(lambda: _chain(3000), None), (lambda: _graph4_cells(7), None), (lambda: _graph4_cells(7), 64)],
    ids=["chain", "graph4", "graph4-collected"],
)
def test_a_budget_of_exactly_the_nodes_made_counts(circuit, gc_min_nodes, monkeypatch):
    """Node ids reach budget + 1, the largest id a packed key must hold.

    Unless a collection frees slots that later nodes reuse, every node
    created has a slot of its own, so under a budget equal to the nodes an
    unbounded run makes, the last node made has id budget + 1. One unit
    less stops at the root that made it. The graph4 cells make 4,096
    nodes, so the two budgets take ids to 4,097 and 4,096, past 2**12.
    """
    if gc_min_nodes:
        monkeypatch.setattr(exactml.bdd, "GC_MIN_NODES", gc_min_nodes)
    circ, wires = circuit()
    full, results = _bdd_counts(circ, wires, exactml.bdd.DEFAULT_NODE_BUDGET)
    counts = [r.count for r in results]
    assert None not in counts and len(wires) > 1
    last = [r.stats["nodes"] for r in results].index(full.size)  # the root that made the last node

    exact, results = _bdd_counts(circ, wires, full.size)
    assert [r.count for r in results] == counts and exact.size == full.size
    if gc_min_nodes:
        assert len(exact.level) < exact.budget + 2  # freed slots were reused
    else:
        assert len(exact.level) == exact.budget + 2  # the last node made has id budget + 1

    short, results = _bdd_counts(circ, wires, full.size - 1)
    assert [r.count for r in results[:last]] == counts[:last]
    assert results[last].exhausted and short.size == full.size - 1

    wide, results = _bdd_counts(circ, wires, 2**40)
    assert [r.count for r in results] == counts and wide.size == full.size
    for manager in (exact, short, wide):
        assert len(manager.level) <= 1 << manager.id_bits  # every id fits its field


@pytest.mark.parametrize("budget", [47_893, 47_892])
def test_graph5_transitive_counts_past_the_oracle(budget):
    """154,303 transitive relations on 5 nodes (OEIS A006905), a count over 2**25 points.

    A constant-1 tree's learnability roots are `T` and `not T`: the manager
    creates 40,309 nodes for the first and 7,584 more for the second, so a
    budget one unit under 47,893 leaves label 1's `fp` a gap.
    """
    dom = graph_domain(5)
    tree = load_tree(constant_tree_doc(1), dom)
    truth = binary_truth(builtin_graph_property("transitive", 5))
    seen = {}

    def count_fn(circuit, roots):
        seen.update(count_roots(circuit, roots, budget))
        return seen

    report = learnability(tree, truth, dom, count_fn=count_fn)
    assert {name: (r.method, r.stats["nodes"]) for name, r in seen.items()} == {
        "tn:0": ("bdd", 40_309), "fn:0": ("bdd", budget)
    }
    label = report.labels[1]
    assert label.tp == 154_303
    assert label.fp == (2**25 - 154_303 if budget == 47_893 else None)


class TestDeepDomains:
    N = 3000

    def test_no_recursion_error_on_3000_binary_features(self):
        circ, (every, not_every) = _chain(self.N)
        results = count_roots(circ, {"every": every, "not_every": not_every})
        assert results["every"].count == 1
        assert results["not_every"].count == 2**self.N - 1

    def test_metrics_on_3000_binary_features(self):
        dom = make_domain([(0, 1)] * self.N)
        tree = load_tree(
            {"num_labels": 2, "root": 0,
             "nodes": [{"feature": 7, "threshold": 0, "left": 1, "right": 2},
                       {"leaf": 0}, {"leaf": 1}]},
            dom,
        )
        pred = CmpConst("=", 7, 1)
        report = learnability(tree, {1: pred, 0: Not(pred)}, dom)
        assert report.labels[1].tp == 2 ** (self.N - 1)
        assert report.labels[1].accuracy == 1
        prop = SafetyProperty(CmpConst("=", 7, 1), frozenset({1}))
        assert safety(tree, prop, dom).sat_count == 2 ** (self.N - 1)
        center = (1,) * self.N
        rob = robustness(tree, center, 1, dom)
        assert (rob.region_size, rob.correct_count) == (2**self.N, 2 ** (self.N - 1))


@pytest.mark.parametrize("seed", range(3))
def test_suite_style_models_match_dpll(seed):
    rng = random.Random(seed)
    dom = make_domain([(0, 15), (-4, 3), (2, 9)])
    model = random_network(rng, dom, hidden=(3,), num_labels=2)
    truth = truth_family(rng, dom, 2)
    got = learnability(model, truth, dom)
    want = learnability(model, truth, dom, count_fn=DPLL)
    assert got == want
