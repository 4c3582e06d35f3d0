import pytest

import exactml.predicates
from exactml.models import ModelError
from exactml.oracle import brute_count_predicate, enumerate_domain
from exactml.predicates import (
    GRAPH_PROPERTIES,
    MAX_NESTING,
    MAX_QUANTIFIER_COPIES,
    And,
    CmpConst,
    Const,
    PredicateError,
    builtin_graph_property,
    graph_domain,
    load_safety_property,
    parse_predicate,
    region,
    validate_predicate,
)

from conftest import eval_predicate, in_region, make_domain

# Oracle-derived satisfying counts over all 2^(n*n) adjacency matrices.
# Cross-checked against closed forms where they exist: reflexive/irreflexive
# 2^(n^2-n); antisymmetric/connex 2^n*3^(n(n-1)/2); totalorder n!;
# equivalence = Bell(n); partialorder/strictorder = labeled posets;
# preorder = labeled topologies; transitive relations 2, 13, 171, 3994.
GRAPH_COUNTS = {
    2: {
        "antisymmetric": 12,
        "connex": 12,
        "equivalence": 2,
        "irreflexive": 4,
        "nonstrictorder": 3,
        "partialorder": 3,
        "preorder": 4,
        "reflexive": 4,
        "strictorder": 3,
        "totalorder": 2,
        "transitive": 13,
    },
    3: {
        "antisymmetric": 216,
        "connex": 216,
        "equivalence": 5,
        "irreflexive": 64,
        "nonstrictorder": 19,
        "partialorder": 19,
        "preorder": 29,
        "reflexive": 64,
        "strictorder": 19,
        "totalorder": 6,
        "transitive": 171,
    },
}

GRAPH_COUNTS_4 = {
    "reflexive": 4096,
    "irreflexive": 4096,
    "antisymmetric": 11664,
    "transitive": 3994,
}


class TestGraphProperties:
    @pytest.mark.parametrize("n", [2, 3])
    def test_small_counts_match_oracle(self, n):
        dom = graph_domain(n)
        for name in GRAPH_PROPERTIES:
            pred = builtin_graph_property(name, n)
            assert brute_count_predicate(pred, dom) == GRAPH_COUNTS[n][name], name

    @pytest.mark.parametrize("name,count", sorted(GRAPH_COUNTS_4.items()))
    def test_four_node_counts(self, name, count):
        dom = graph_domain(4)
        assert brute_count_predicate(builtin_graph_property(name, 4), dom) == count

    def test_reflexive_on_complete_and_empty_graph(self):
        dom = graph_domain(4)
        pred = builtin_graph_property("reflexive", 4)
        assert eval_predicate(pred, (1,) * 16, dom) is True
        assert eval_predicate(pred, (0,) * 16, dom) is False

    def test_transitive_missing_edge(self):
        dom = graph_domain(4)
        pred = builtin_graph_property("transitive", 4)
        g = [0] * 16
        g[0 * 4 + 1] = 1
        g[1 * 4 + 2] = 1
        assert eval_predicate(pred, tuple(g), dom) is False
        g[0 * 4 + 2] = 1
        assert eval_predicate(pred, tuple(g), dom) is True

    def test_partialorder_contained_in_preorder(self):
        # satisfying-set containment checked pointwise at n=4
        dom = graph_domain(4)
        po = builtin_graph_property("partialorder", 4)
        pre = builtin_graph_property("preorder", 4)
        for pt in enumerate_domain(dom):
            if po.evaluate(pt):
                assert pre.evaluate(pt)

    @pytest.mark.parametrize("name", ["equivalence", "totalorder"])
    def test_each_edge_atom_is_one_object(self, name):
        # every conjunct that reads e[i][j] = 1 shares one atom: 16 objects at n=4
        atoms = {}
        stack = [builtin_graph_property(name, 4)]
        while stack:
            pred = stack.pop()
            if isinstance(pred, CmpConst):
                if pred.constant == 1:
                    atoms.setdefault(pred.feature, set()).add(id(pred))
            elif hasattr(pred, "child"):
                stack.append(pred.child)
            else:
                stack.extend(pred.children)
        assert sorted(atoms) == list(range(16))
        assert all(len(ids) == 1 for ids in atoms.values())

    def test_unknown_name(self):
        with pytest.raises(PredicateError, match="unknown graph property"):
            builtin_graph_property("symmetric-ish", 3)

    def test_bad_node_count(self):
        with pytest.raises(ModelError):
            builtin_graph_property("reflexive", 0)
        with pytest.raises(ModelError, match="n_nodes must be >= 1"):
            graph_domain(0)

    def test_graph_domain_limit(self):
        assert len(graph_domain(316).features) == 316 * 316 <= MAX_QUANTIFIER_COPIES
        with pytest.raises(ModelError, match="317 nodes has more than 100000 edge features"):
            graph_domain(317)

    # the most nodes each property takes within 1000 conjuncts, counted as n**3
    # for the transitive family, n**2 for node pairs and n for single nodes
    @pytest.mark.parametrize("name, n", [
        ("reflexive", 1000), ("irreflexive", 1000), ("antisymmetric", 31), ("connex", 31),
        *((name, 10) for name in ("equivalence", "nonstrictorder", "partialorder", "preorder",
                                  "strictorder", "totalorder", "transitive")),
    ])
    def test_conjunct_limit(self, monkeypatch, name, n):
        assert name in GRAPH_PROPERTIES
        monkeypatch.setattr(exactml.predicates, "MAX_QUANTIFIER_COPIES", 1000)
        builtin_graph_property(name, n)
        with pytest.raises(PredicateError, match=f"{name} over {n + 1} nodes is past the limit of 1000 "):
            builtin_graph_property(name, n + 1)

    def test_transitive_past_the_real_limit(self):
        assert 46 ** 3 <= MAX_QUANTIFIER_COPIES < 47 ** 3
        with pytest.raises(PredicateError, match="transitive over 47 nodes is past the limit of 100000 "):
            builtin_graph_property("Transitive", 47)


class TestParser:
    def test_conjunction(self):
        dom = make_domain([(0, 7), (0, 7)])
        pred = parse_predicate("f0 <= 3 && f1 = 0", dom)
        assert isinstance(pred, And)
        assert eval_predicate(pred, (3, 0), dom) is True
        assert eval_predicate(pred, (4, 0), dom) is False

    def test_quantifier_expansion(self):
        dom = graph_domain(2)
        pred = parse_predicate("forall i in [0,2): e[i][i] = 1", dom)
        assert pred == And((CmpConst("=", 0, 1), CmpConst("=", 3, 1)))

    @pytest.mark.parametrize("op, flipped", [
        ("<=", ">="), ("<", ">"), (">=", "<="), (">", "<"), ("=", "="), ("!=", "!="),
    ])
    def test_constant_on_the_left_flips_the_comparison(self, op, flipped):
        dom = make_domain([(0, 7)], prefix="x")
        pred = parse_predicate(f"3 {op} x0", dom)
        assert pred == parse_predicate(f"x0 {flipped} 3", dom) == CmpConst(flipped, 0, 3)

    @pytest.mark.parametrize("kind, value", [("forall", True), ("exists", False)])
    def test_empty_range_is_the_identity_of_its_quantifier(self, kind, value):
        dom = graph_domain(2)
        assert parse_predicate(f"{kind} i in [0,0): e[i][i] = 1", dom) == Const(value)

    def test_unknown_feature(self):
        dom = make_domain([(0, 1)] * 4)
        with pytest.raises(PredicateError, match="unknown feature"):
            parse_predicate("f9 <= 1", dom)

    def test_syntax_error_carries_position(self):
        dom = make_domain([(0, 1)])
        with pytest.raises(PredicateError, match="position"):
            parse_predicate("f0 <= ", dom)

    def test_non_constant_bound(self):
        dom = graph_domain(2)
        with pytest.raises(PredicateError, match="constant"):
            parse_predicate("forall i in [0,n): e[i][i] = 1", dom)

    @pytest.mark.parametrize("text, needle", [
        ("forall i [0,2): e[i][i] = 1", "expected 'in', got '\\['"),
        ("forall i in [e[0][0],2): e[i][i] = 1", "position 13: quantifier bound must be a constant"),
    ], ids=["missing-in", "non-integer-lower-bound"])
    def test_malformed_quantifier(self, text, needle):
        with pytest.raises(PredicateError, match=needle):
            parse_predicate(text, graph_domain(2))

    def test_feature_index_past_the_domain(self):
        with pytest.raises(PredicateError, match="feature index 2 out of range for a 2-feature domain"):
            validate_predicate(CmpConst("<=", 2, 0), make_domain([(0, 1)] * 2))

    def test_exists_and_implies(self):
        dom = graph_domain(2)
        pred = parse_predicate("exists i in [0,2): e[i][i] = 1", dom)
        assert eval_predicate(pred, (1, 0, 0, 0), dom) is True
        assert eval_predicate(pred, (0, 1, 1, 0), dom) is False
        imp = parse_predicate("e[0][0] = 1 => e[1][1] = 1", dom)
        assert eval_predicate(imp, (0, 0, 0, 0), dom) is True
        assert eval_predicate(imp, (1, 0, 0, 0), dom) is False

    def test_multi_binder_transitive_matches_builtin(self):
        dom = graph_domain(3)
        parsed = parse_predicate(
            "forall i, j, k in [0,3): e[i][j] = 1 && e[j][k] = 1 => e[i][k] = 1", dom
        )
        builtin = builtin_graph_property("transitive", 3)
        for pt in enumerate_domain(dom):
            assert parsed.evaluate(pt) == builtin.evaluate(pt)

    def test_feature_to_feature_comparison(self):
        dom = make_domain([(0, 5), (2, 4)])
        pred = parse_predicate("f0 < f1", dom)
        for pt in enumerate_domain(dom):
            assert eval_predicate(pred, pt, dom) == (pt[0] < pt[1])

    def test_booleans_and_parens(self):
        dom = make_domain([(0, 3)])
        pred = parse_predicate("!(f0 >= 2) || false", dom)
        assert eval_predicate(pred, (1,), dom) is True
        assert eval_predicate(pred, (2,), dom) is False

    def test_trailing_garbage(self):
        dom = make_domain([(0, 3)])
        with pytest.raises(PredicateError, match="trailing"):
            parse_predicate("f0 <= 1 f0", dom)

    def test_parenthesized_quantifier_inside_expression(self):
        dom = graph_domain(2)
        pred = parse_predicate("(forall i in [0,2): e[i][i] = 1) || e[0][1] = 1", dom)
        assert eval_predicate(pred, (1, 0, 0, 1), dom) is True
        assert eval_predicate(pred, (0, 1, 0, 0), dom) is True
        assert eval_predicate(pred, (0, 0, 1, 0), dom) is False

    def test_negative_constants(self):
        dom = make_domain([(-5, 5)])
        pred = parse_predicate("f0 <= -2 || f0 = 4", dom)
        for v in range(-5, 6):
            assert eval_predicate(pred, (v,), dom) == (v <= -2 or v == 4)

    @pytest.mark.parametrize("nest", [
        lambda n: "(" * n + "f0 = 1" + ")" * n,
        lambda n: "!" * n + "f0 = 1",
        lambda n: " => ".join(["f0 = 1"] * (n + 1)),
        lambda n: "".join(f"forall i{k} in [0,1): " for k in range(n)) + "f0 = 1",
        lambda n: "(" * (n // 2) + "!" * (n - n // 2) + "f0 = 1" + ")" * (n // 2),
    ], ids=["parentheses", "negations", "implications", "quantifiers", "mixed"])
    def test_nesting_limit(self, nest):
        dom = make_domain([(0, 3)])
        for depth in (1, MAX_NESTING):
            parse_predicate(nest(depth), dom)
        with pytest.raises(PredicateError, match=r"position \d+: nesting deeper than"):
            parse_predicate(nest(MAX_NESTING + 1), dom)

    def test_quantifier_copies_limit(self, monkeypatch):
        monkeypatch.setattr(exactml.predicates, "MAX_QUANTIFIER_COPIES", 12)
        dom = make_domain([(0, 3)])
        # nested ranges multiply (2 * 3 * 2 = 12 copies), and so do binders
        # (two over [0, 2) make 4); quantifiers side by side do not
        for text in ("forall i in [0, 2): forall j in [0, 3): exists k in [0, 2): f0 != k",
                     "forall i, j in [0, 2): forall k in [0, 3): f0 != k",
                     "forall i in [0, 2): (forall j in [0, 6): f0 != j) && exists k in [0, 6): f0 = k"):
            parse_predicate(text, dom)
        # an empty range still parses its body once
        for text, pos in (("forall i in [0, 13): f0 != i", 0),
                          ("forall i, j in [0, 2): forall k in [0, 4): f0 != k", 23),
                          ("forall i in [0, 2): forall j in [0, 0): forall k in [0, 7): f0 != k", 40)):
            with pytest.raises(PredicateError, match=f"position {pos}: quantifiers expand to more than 12"):
                parse_predicate(text, dom)


class TestRegion:
    def test_interior_point(self):
        dom = make_domain([(0, 255)] * 4)
        reg = region((10, 10, 10, 10), 1, dom)
        assert reg.size() == 81

    def test_clipped_at_boundary(self):
        dom = make_domain([(0, 255)] * 4)
        reg = region((0, 10, 10, 10), 1, dom)
        assert reg.size() == 2 * 27

    def test_epsilon_zero(self):
        dom = make_domain([(0, 255)] * 4)
        assert region((1, 2, 3, 4), 0, dom).size() == 1

    def test_size_matches_enumeration(self):
        dom = make_domain([(0, 7), (3, 5), (0, 0)])
        for center in [(0, 3, 0), (7, 5, 0), (4, 4, 0)]:
            for eps in (0, 1, 2, 9):
                reg = region(center, eps, dom)
                members = [pt for pt in enumerate_domain(dom) if in_region(reg, pt)]
                assert len(members) == reg.size()
                assert sorted(members) == sorted(enumerate_domain(reg))

    def test_center_out_of_domain(self):
        dom = make_domain([(0, 3)])
        with pytest.raises(ModelError):
            region((4,), 1, dom)

    def test_negative_epsilon(self):
        dom = make_domain([(0, 3)])
        with pytest.raises(ModelError):
            region((1,), -1, dom)


class TestSafetyProperty:
    def test_allow_list(self):
        dom = make_domain([(0, 1)])
        prop = load_safety_property({"pre": "f0 <= 0", "allow": [1]}, dom, 2)
        assert prop.allowed == frozenset({1})

    def test_deny_list(self):
        dom = make_domain([(0, 1)])
        prop = load_safety_property({"pre": "true", "deny": [2]}, dom, 3)
        assert prop.allowed == frozenset({0, 1})

    def test_label_out_of_range(self):
        dom = make_domain([(0, 1)])
        with pytest.raises(ModelError):
            load_safety_property({"pre": "true", "allow": [5]}, dom, 2)

    # the CLI's tests cover documents whose values have the wrong type
    @pytest.mark.parametrize("doc", [{"pre": "true", "deny": [5]}, '{"pre": "true", "allow": [1]}'],
                             ids=["deny-out-of-range", "json-text"])
    def test_malformed_document(self, doc):
        with pytest.raises(ModelError):
            load_safety_property(doc, make_domain([(0, 1)]), 2)
