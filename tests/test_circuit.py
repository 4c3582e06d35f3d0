import hashlib
import random

import pytest

import exactml.circuit
import exactml.predicates
from exactml.bdd import count_roots
from exactml.circuit import (
    Circuit,
    WidthOverflowError,
    compile_model,
    compile_network,
    compile_predicate,
    compile_tree,
    constrain_region,
    network_logits,
    partial_evaluate,
)
from exactml.cnf import tseitin
from exactml.metrics import binary_truth, learnability_roots
from exactml.models import ModelError, eval_model, load_network, load_tree
from exactml.oracle import enumerate_domain
from exactml.predicates import (
    And,
    CmpFeature,
    Const,
    GRAPH_PROPERTIES,
    Not,
    builtin_graph_property,
    graph_domain,
    parse_predicate,
    region,
)

from conftest import (
    bundle_value,
    constant_tree_doc,
    logit_bounds,
    make_domain,
    network_to_document,
    random_network,
    random_point,
    random_predicate,
    random_tree,
    reference_cone,
    reference_ripple,
    simulate_outputs,
    varied_network,
)
from reference_counters import count_projected

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only `test_logits_are_exact_on_every_point` needs it
    st = None


def exact_logits(net, point):
    """The integer logits of `net` at `point`, by the rules of `eval_model`."""
    acts = list(point)
    for layer in net.layers:
        acts = [(bias + sum(w * a for w, a in zip(row, acts))) >> layer.post_shift
                for row, bias in zip(layer.weights, layer.biases)]
        if layer.activation == "relu":
            acts = [max(z, 0) for z in acts]
    return acts


class TestCompileTree:
    def test_constant_tree_folds_to_consts(self, bits2_domain):
        tree = load_tree(constant_tree_doc(0), bits2_domain)
        c = compile_tree(tree, bits2_domain)
        assert c.const_value(c.output("model_0")) is True
        assert c.const_value(c.output("model_1")) is False

    def test_binary_comparator_folds_to_single_bit(self, bits2_domain):
        tree = load_tree(
            {"num_labels": 2, "root": 0,
             "nodes": [{"feature": 0, "threshold": 0, "left": 1, "right": 2},
                       {"leaf": 1}, {"leaf": 0}]},
            bits2_domain,
        )
        c = compile_tree(tree, bits2_domain)
        # model_0 is the raw input bit, model_1 its negation
        assert c.output("model_0") == c.input_bit(0, 0)
        values = c.simulate((1, 0))
        assert values[c.output("model_0")] and not values[c.output("model_1")]

    def test_xor_tree_exhaustive(self, bits2_domain, xor_tree):
        c = compile_tree(xor_tree, bits2_domain)
        for pt in enumerate_domain(bits2_domain):
            outs = simulate_outputs(c, pt)
            assert outs[f"model_{eval_model(xor_tree, pt, bits2_domain)}"] is True

    def test_threshold_folding_out_of_range(self):
        dom = make_domain([(0, 5)])
        tree = load_tree(
            {"num_labels": 2, "root": 0,
             "nodes": [{"feature": 0, "threshold": 9, "left": 1, "right": 2},
                       {"leaf": 1}, {"leaf": 0}]},
            dom,
        )
        c = compile_tree(tree, dom)
        assert c.const_value(c.output("model_1")) is True


class TestFeatureComparators:
    """`feature_le` and `feature_eq` fold against the feature's range, not its bit width."""

    @pytest.mark.parametrize("lo, hi", [(-3, 7), (2, 2), (0, 7)], ids=["offset", "point", "full"])
    def test_every_constant_around_the_range(self, lo, hi):
        # [-3, 7] takes 4 bits, whose encodings 11..15 lie above the range
        dom = make_domain([(lo, hi)])
        c = Circuit(dom)
        for v in range(lo - 2, hi + 3):
            le, eq = c.feature_le(0, v), c.feature_eq(0, v)
            if v < lo or v >= hi:
                assert c.const_value(le) is (v >= hi)
            if v < lo or v > hi:
                assert c.const_value(eq) is False
            for (x,) in enumerate_domain(dom):
                values = c.simulate((x,))
                assert (values[le], values[eq]) == (x <= v, x == v), (v, x)


class TestCompileNetwork:
    def test_identity_net_is_ge_comparison(self):
        dom = make_domain([(0, 7), (0, 7)])
        net = load_network(
            {"input_width": 2,
             "layers": [{"weights": [[1, 0], [0, 1]], "biases": [0, 0],
                         "activation": "none", "post_shift": 0}]},
            dom,
        )
        c = compile_network(net, dom)
        for pt in enumerate_domain(dom):
            outs = simulate_outputs(c, pt)
            assert outs["model_0"] == (pt[0] >= pt[1])

    def test_forced_tie_is_constant_label_zero(self):
        dom = make_domain([(0, 3), (0, 3)])
        net = load_network(
            {"input_width": 2,
             "layers": [{"weights": [[0, 0], [0, 0]], "biases": [0, 0],
                         "activation": "none", "post_shift": 0}]},
            dom,
        )
        c = compile_network(net, dom)
        assert c.const_value(c.output("model_0")) is True
        assert c.const_value(c.output("model_1")) is False

    def test_random_nets_match_reference(self):
        rng = random.Random(77)
        for trial in range(6):
            dom = make_domain([(-2, 5), (0, 7), (0, 3)])
            net = random_network(rng, dom, hidden=(3,), num_labels=3, weight_range=3)
            c = compile_network(net, dom)
            for pt in enumerate_domain(dom):
                outs = simulate_outputs(c, pt)
                lbl = eval_model(net, pt, dom)
                assert outs[f"model_{lbl}"] is True
                assert sum(outs.values()) == 1

    def test_random_16_4_2_net_subdomain_and_samples(self):
        # 16 inputs -> 4 -> 2; exhaustive over a 2^12 sub-box plus random samples
        rng = random.Random(130)
        dom = make_domain([(0, 1)] * 16)
        net = random_network(rng, dom, hidden=(4,), num_labels=2, weight_range=2)
        c = compile_network(net, dom)
        for low in range(1 << 12):
            pt = tuple((low >> k) & 1 for k in range(12)) + (0, 1, 0, 1)
            assert simulate_outputs(c, pt)[f"model_{eval_model(net, pt, dom)}"]
        for _ in range(1000):
            pt = random_point(rng, dom)
            outs = simulate_outputs(c, pt)
            assert outs[f"model_{eval_model(net, pt, dom)}"]
            assert sum(outs.values()) == 1

    def test_post_shift_and_relu_order(self):
        dom = make_domain([(0, 7)])
        net = load_network(
            {"input_width": 1,
             "layers": [
                 {"weights": [[-1]], "biases": [1], "activation": "relu", "post_shift": 1},
                 {"weights": [[1], [-1]], "biases": [0, 0], "activation": "none", "post_shift": 0},
             ]},
            dom,
        )
        c = compile_network(net, dom)
        for pt in enumerate_domain(dom):
            assert simulate_outputs(c, pt)[f"model_{eval_model(net, pt, dom)}"]

    def test_width_overflow(self):
        dom = make_domain([(0, 255)] * 2)
        doc = {"input_width": 2,
               "layers": [{"weights": [[2**62, 2**62], [1, 1]], "biases": [0, 0],
                           "activation": "none", "post_shift": 0}]}
        net = load_network(doc, dom)
        with pytest.raises(WidthOverflowError, match="width overflow"):
            compile_network(net, dom)

    def test_rows_whose_p_or_n_is_too_wide_keep_a_running_sum(self):
        # each hidden unit lies in [2**62, 2**62 + 1]: P = h0 + h2 of the first
        # logit needs 65 bits, while its running sum h0 - h1 + h2 - h3 fits in
        # 64; the second logit's P and N fit
        dom = make_domain([(0, 1)] * 4)
        hidden = {"weights": [[int(i == j) for j in range(4)] for i in range(4)],
                  "biases": [2**62] * 4, "activation": "relu", "post_shift": 0}
        c = Circuit(dom)
        h = network_logits(c, load_network(
            {"input_width": 4, "layers": [dict(hidden, activation="none")]}, dom))
        with pytest.raises(WidthOverflowError):
            c.add(h[0], h[2])
        net = load_network(
            {"input_width": 4,
             "layers": [hidden, {"weights": [[1, -1, 1, -1], [1, 0, 0, -1]], "biases": [0, 0],
                                 "activation": "none", "post_shift": 0}]},
            dom,
        )
        c = Circuit(dom)
        logits = network_logits(c, net)
        assert [(b.lo, b.hi) for b in logits] == logit_bounds(net, dom) == [(-2, 2), (-1, 1)]
        model = compile_network(net, dom)
        for pt in enumerate_domain(dom):
            values = c.simulate(pt)
            assert [bundle_value(b, values) for b in logits] == exact_logits(net, pt)
            assert simulate_outputs(model, pt)[f"model_{eval_model(net, pt, dom)}"]

    def test_a_difference_is_no_wider_than_its_range(self):
        # the hidden unit is relu(P - N) with P = 3x in [0, 6] and N = 4, 4 bits
        # each, and P - N in [-4, 2], 3 bits; a fourth bit would take its
        # product with 3 * 2**60 + 1 past 64 bits, where a running sum compiles
        dom = make_domain([(-1, 1)])
        hidden = {"weights": [[3]], "biases": [-1], "activation": "relu", "post_shift": 0}
        (h,) = network_logits(Circuit(dom), load_network(
            {"input_width": 1, "layers": [dict(hidden, activation="none")]}, dom))
        assert (len(h.bits), h.lo, h.hi) == (3, -4, 2)
        net = load_network(
            {"input_width": 1,
             "layers": [hidden, {"weights": [[3 * 2**60 + 1], [1]], "biases": [0, 0],
                                 "activation": "none", "post_shift": 0}]},
            dom,
        )
        c = compile_network(net, dom)
        for pt in enumerate_domain(dom):
            assert simulate_outputs(c, pt)[f"model_{eval_model(net, pt, dom)}"]

    def test_each_product_is_made_once_per_layer(self, monkeypatch):
        calls = []
        mul_const = Circuit.mul_const
        monkeypatch.setattr(Circuit, "mul_const",
                            lambda self, a, m: calls.append((a, m)) or mul_const(self, a, m))
        dom = make_domain([(-2, 5), (0, 7), (0, 3)])
        net = load_network(
            {"input_width": 3,
             "layers": [{"weights": [[3, -3, 1], [-3, 3, -1], [3, 0, 2], [0, 0, 0]],
                         "biases": [1, -2, 0, 4], "activation": "relu", "post_shift": 1},
                        {"weights": [[2, -2, 1, 5], [-2, 2, 1, -5]], "biases": [0, -3],
                         "activation": "none", "post_shift": 0}]},
            dom,
        )
        compile_network(net, dom)
        # each layer has 8 nonzero weights and 4 distinct (input, |w|) pairs
        assert len(calls) == len(set(calls)) == 8

    @pytest.mark.parametrize("m", [0, -1, -3])
    def test_mul_const_refuses_a_constant_below_1(self, m):
        c = Circuit(make_domain([(0, 7)]))
        with pytest.raises(ValueError, match="at least 1"):
            c.mul_const(c.encoded_bundle(0), m)

    def test_interval_bounds_sound_under_fuzzing(self, registered_bundles):
        rng = random.Random(9)
        dom = make_domain([(-4, 11), (0, 6)])
        net = random_network(rng, dom, hidden=(3, 2), num_labels=2, weight_range=3)
        c = compile_network(net, dom)
        assert registered_bundles
        for _ in range(300):
            pt = random_point(rng, dom)
            values = c.simulate(pt)
            for bundle in registered_bundles:
                v = bundle_value(bundle, values)
                assert bundle.lo <= v <= bundle.hi


if st is None:
    def test_logits_are_exact_on_every_point():
        pytest.skip("needs hypothesis")
else:
    @st.composite
    def small_nets(draw):
        """A domain of 1-3 features (some with lo < 0) and a net on it: 0-2
        hidden layers of either activation, each row all negative, all
        positive, all zero or mixed, and biases of either sign or 0."""
        ranges = draw(st.lists(
            st.tuples(st.integers(-4, 3), st.integers(0, 3)).map(lambda t: (t[0], t[0] + t[1])),
            min_size=1, max_size=3))
        width, layers = len(ranges), []
        widths = draw(st.lists(st.integers(1, 3), max_size=2)) + [draw(st.integers(2, 3))]
        for k, size in enumerate(widths):
            rows = []
            for _ in range(size):
                weights = draw(st.sampled_from(
                    [st.integers(-7, -1), st.integers(1, 7), st.just(0), st.integers(-7, 7)]))
                rows.append(draw(st.lists(weights, min_size=width, max_size=width)))
            last = k == len(widths) - 1
            layers.append({
                "weights": rows,
                "biases": draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size)),
                "activation": "none" if last else draw(st.sampled_from(["relu", "none"])),
                "post_shift": 0 if last else draw(st.integers(0, 2)),
            })
            width = size
        dom = make_domain(ranges)
        return dom, load_network({"input_width": len(ranges), "layers": layers}, dom)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(small_nets())
    def test_logits_are_exact_on_every_point(dom_net):
        dom, net = dom_net
        c = Circuit(dom)
        logits = network_logits(c, net)
        for pt in enumerate_domain(dom):
            values = c.simulate(pt)
            assert [bundle_value(b, values) for b in logits] == exact_logits(net, pt), pt


class TestCompilePredicate:
    def test_reflexive_is_and_of_diagonal(self):
        dom = graph_domain(4)
        c = Circuit(dom)
        w = compile_predicate(c, builtin_graph_property("reflexive", 4), "truth_1")
        values = c.simulate((1,) * 16)
        assert values[w] is True
        g = [1] * 16
        g[5] = 0
        assert c.simulate(tuple(g))[w] is False

    def test_constant_predicate(self):
        dom = make_domain([(0, 1)])
        c = Circuit(dom)
        w = compile_predicate(c, Const(True), "t")
        assert c.const_value(w) is True

    def test_predicate_circuit_agrees_with_eval(self):
        rng = random.Random(31)
        dom = make_domain([(0, 5), (2, 9), (0, 1)])
        for _ in range(25):
            pred = random_predicate(rng, dom, depth=3)
            c = Circuit(dom)
            w = compile_predicate(c, pred, "t")
            for pt in enumerate_domain(dom):
                assert c.simulate(pt)[w] == pred.evaluate(pt)

    def test_feature_comparisons_with_offsets(self):
        dom = make_domain([(-3, 4), (1, 6)])
        for text in ("f0 <= f1", "f0 < f1", "f0 >= f1", "f0 > f1", "f0 = f1", "f0 != f1"):
            pred = parse_predicate(text, dom)
            c = Circuit(dom)
            w = compile_predicate(c, pred, "t")
            for pt in enumerate_domain(dom):
                assert c.simulate(pt)[w] == pred.evaluate(pt), (text, pt)

    @pytest.mark.parametrize("kind", ["transitive", "random"])
    def test_a_negation_and_then_its_operand_walk_the_operand_once(self, monkeypatch, kind):
        # a binary problem's truths, in the order learnability compiles them
        dom = graph_domain(3)
        rng = random.Random(7)
        truth = (builtin_graph_property("transitive", 3) if kind == "transitive"
                 else random_predicate(rng, dom, depth=3))
        tree = random_tree(rng, dom)

        def compiled(forget):
            c = compile_tree(tree, dom)
            negated = compile_predicate(c, Not(truth), "truth_0")
            if forget:
                c._predicates.clear()  # T compiled anew, as a separate compile does
            return c, negated, compile_predicate(c, truth, "truth_1")

        separate, separate_not, separate_t = compiled(forget=True)
        validated, walked = [], []
        validate, walk = exactml.predicates.validate_predicate, exactml.circuit._compile_pred
        monkeypatch.setattr(exactml.predicates, "validate_predicate",
                            lambda p, d: validated.append(p) or validate(p, d))
        monkeypatch.setattr(exactml.circuit, "_compile_pred", lambda c, p: walked.append(p) or walk(c, p))
        c, negated, t = compiled(forget=False)
        # another negation of the same object reuses its wire too
        assert compile_predicate(c, Not(truth)) == negated
        assert [p is truth for p in validated] == [True]
        assert sum(p is truth for p in walked) == 1
        assert c.gates == separate.gates
        assert (negated, t) == (separate_not, separate_t) == (c.not_(t), t)


class TestComposeMetric:
    """The confusion cells that `metrics.learnability_roots` composes of each
    label's truth and model wires."""

    @staticmethod
    def _truth_equal_model(bits2_domain):
        # the model's wires are the truth predicates themselves, which
        # `compile_predicate` compiles once per object
        c = Circuit(bits2_domain)
        truth = binary_truth(parse_predicate("f0 != f1", bits2_domain))
        for l, pred in truth.items():
            compile_predicate(c, pred, f"model_{l}")
        return c, learnability_roots(c, truth)

    def test_tp_with_truth_equal_model(self, bits2_domain):
        c, roots = self._truth_equal_model(bits2_domain)
        assert roots["tp:1"] == c.output("model_1")

    def test_fp_with_truth_equal_model_is_false(self, bits2_domain):
        c, roots = self._truth_equal_model(bits2_domain)
        assert c.const_value(roots["fp:1"]) is False

    def test_missing_wire(self, bits2_domain):
        c = Circuit(bits2_domain)
        with pytest.raises(KeyError, match="missing wire"):
            learnability_roots(c, {1: parse_predicate("f0 <= 0", bits2_domain)})

    def test_metric_roots_partition(self, bits2_domain, xor_tree):
        c = compile_tree(xor_tree, bits2_domain)
        roots = learnability_roots(c, {1: parse_predicate("f0 <= 0", bits2_domain),
                                       0: parse_predicate("f0 >= 1", bits2_domain)})
        assert list(roots) == [f"{cell}:{l}" for l in (0, 1) for cell in ("tp", "fp", "tn", "fn")]
        for pt in enumerate_domain(bits2_domain):
            values = c.simulate(pt)
            for l in (0, 1):
                truth, model = values[c.output(f"truth_{l}")], values[c.output(f"model_{l}")]
                cells = {cell: values[roots[f"{cell}:{l}"]] for cell in ("tp", "fp", "tn", "fn")}
                assert cells == {"tp": truth and model, "fp": not truth and model,
                                 "tn": not truth and not model, "fn": truth and not model}


class TestConstrainRegion:
    def test_full_range_region_changes_nothing(self, bits2_domain, xor_tree):
        c = compile_tree(xor_tree, bits2_domain)
        reg = region((0, 0), 5, bits2_domain)
        root = constrain_region(c, c.output("model_0"), reg)
        assert root == c.output("model_0")

    def test_point_region(self):
        dom = make_domain([(0, 255)] * 4)
        c = Circuit(dom)
        reg = region((7, 7, 7, 7), 0, dom)
        root = constrain_region(c, c.const(True), reg)
        assert c.simulate((7, 7, 7, 7))[root] is True
        assert c.simulate((7, 7, 7, 8))[root] is False

    def test_interior_region_membership(self):
        dom = make_domain([(0, 255)] * 4)
        c = Circuit(dom)
        reg = region((10, 10, 10, 10), 1, dom)
        root = constrain_region(c, c.const(True), reg)
        inside = sum(c.simulate(pt)[root] for pt in enumerate_domain(reg))
        assert inside == 81
        assert c.simulate((12, 10, 10, 10))[root] is False

    def test_a_ball_counts_its_points(self):
        dom = make_domain([(0, 15), (-4, 3), (2, 9)])
        c = compile_network(random_network(random.Random(4), dom, hidden=(3,)), dom)
        reg = region((3, -1, 8), 2, dom)
        root = constrain_region(c, c.output("model_1"), reg)
        want = sum(c.simulate(pt)[c.output("model_1")] for pt in enumerate_domain(reg))
        assert 0 < want < reg.size() == 5 * 5 * 4
        assert count_roots(c, {"ball": root})["ball"].count == want
        assert count_projected(tseitin(c, root)).count == want

    def test_a_region_of_another_domain_is_refused(self):
        dom = make_domain([(0, 3), (0, 3)])
        c = Circuit(dom)
        root = compile_predicate(c, parse_predicate("f1 <= 1", dom))
        gates = len(c.gates)
        ball = region((1,), 0, make_domain([(0, 3)]))
        with pytest.raises(ModelError, match="region has 1 features, the circuit's domain has 2"):
            constrain_region(c, root, ball)
        assert len(c.gates) == gates

    @pytest.mark.parametrize("lo, hi, bad", [(-1, 2, -1), (1, 4, 4)])
    def test_a_region_past_the_domain_is_refused(self, lo, hi, bad):
        dom = make_domain([(0, 3), (0, 3)])
        c = Circuit(dom)
        root = c.const(True)
        with pytest.raises(ModelError, match=rf"value {bad} out of range \[0, 3\] for f1"):
            constrain_region(c, root, make_domain([(1, 2), (lo, hi)]))
        assert len(c.gates) == 1


class TestCone:
    def test_ascending_closed_and_minimal(self):
        rng = random.Random(8)
        dom = make_domain([(0, 7), (-2, 5), (0, 3)])
        c = compile_network(random_network(rng, dom, hidden=(3,)), dom)
        compile_predicate(c, random_predicate(rng, dom), "truth_1")
        base = c.num_input_bits

        def operands(w):
            if w < base or c.gates[w - base][0] == "const":
                return ()
            return c.gates[w - base][1:]

        for roots in ([c.output("model_1")], list(c.outputs.values()), [c.domain_wire, 0]):
            cone = list(c.cone(roots))
            assert cone == sorted(set(cone))
            assert set(roots) <= set(cone)
            read = {x for w in cone for x in operands(w)}
            assert read <= set(cone)  # every wire a member reads, input bits too
            assert set(cone) - read <= set(roots)  # and nothing no root reads

    def test_small_cone_lists_operands_first(self):
        c = Circuit(make_domain([(0, 1)] * 3))
        x = c.and_(0, 1)
        y = c.or_(x, 2)
        c.xor_(y, 0)  # a reader outside the cone
        assert list(c.cone([y])) == [0, 1, 2, x, y]
        assert list(c.cone([x, 2])) == [0, 1, 2, x]

    def test_done_is_neither_entered_nor_returned(self):
        c = Circuit(make_domain([(0, 1)] * 3))
        x = c.and_(0, 1)
        y = c.or_(x, 2)
        assert list(c.cone([y], done={x})) == [2, y]
        assert list(c.cone([y], done={x: None, 2: None})) == [y]
        assert list(c.cone([y], done={0})) == [1, 2, x, y]
        assert list(c.cone([y, x], done={y})) == [0, 1, x]
        assert list(c.cone([y], done={y})) == []

    def test_const_gate_adds_no_operands(self):
        c = Circuit(make_domain([(0, 1)] * 2))
        t, f = c.const(True), c.const(False)
        assert list(c.cone([t])) == [t]
        assert list(c.cone([f, 1])) == [1, f]

    def test_matches_the_walk_from_the_roots(self):
        rng = random.Random(2701)
        for circuit in _mixed_circuits(rng, 6):
            n = circuit.num_input_bits + len(circuit.gates)
            for _ in range(20):
                roots = rng.sample(range(n), rng.randint(1, 4))
                done = set(rng.sample(range(n), rng.randint(0, n // 3)))
                for given in ((), done, dict.fromkeys(done)):
                    assert list(circuit.cone(roots, given)) == reference_cone(circuit, roots, given)

    def test_unmarked_runs_are_skipped_down_to_wire_0(self):
        c = Circuit(make_domain([(0, 1)] * 3))
        z = c.and_(0, 2)
        assert list(c.cone([z])) == [0, 2, z]
        assert list(c.cone([z], done={0})) == [2, z]
        assert list(c.cone([z], done={2})) == [0, z]

    def test_done_may_grow_while_the_cone_is_read(self):
        c = Circuit(make_domain([(0, 1)] * 3))
        x = c.and_(0, 1)
        y = c.or_(x, 2)
        done = set()
        seen = []
        for w in c.cone([y], done):
            seen.append(w)
            done.add(w)
        assert seen == [0, 1, 2, x, y]


def _varied_net(rng, domain):
    """A net with 0-2 hidden layers of width 1-4, weights of both signs and shifts 0-2."""
    hidden = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2)))
    net = random_network(rng, domain, hidden=hidden, num_labels=rng.choice((2, 3)),
                         weight_range=rng.choice((1, 3, 7)))
    doc = network_to_document(net)
    for layer in doc["layers"][:-1]:
        layer["post_shift"] = rng.randint(0, 2)
    return load_network(doc, domain)


_LO_RANGES = [[(0, 7), (-3, 4)], [(2, 9), (-8, -1), (0, 3)], [(-5, 10), (1, 1), (0, 1)], [(3, 18)]]


def _mixed_circuits(rng, count):
    """Nets and trees over domains with lo != 0, each with two feature-to-feature
    comparisons and a random predicate compiled onto it."""
    circuits = []
    for i in range(count):
        domain = make_domain(_LO_RANGES[i % len(_LO_RANGES)])
        model = _varied_net(rng, domain) if i % 2 else random_tree(rng, domain, num_labels=3)
        c = compile_model(model, domain)
        k = len(domain.features)
        pairs = [CmpFeature(rng.choice(["<=", "<", ">=", ">", "=", "!="]), rng.randrange(k),
                            rng.randrange(k)) for _ in range(2)]
        compile_predicate(c, And((*pairs, random_predicate(rng, domain))), "truth")
        circuits.append(c)
    return circuits


class TestRipple:
    """`Circuit._ripple` makes its adders' gates without the generic methods
    where nothing folds; the gates must be the generic methods' own."""

    def test_models_and_predicates_compile_to_the_generic_gates(self, monkeypatch):
        fast = _mixed_circuits(random.Random(2702), 24)
        monkeypatch.setattr(Circuit, "_ripple", reference_ripple)
        generic = _mixed_circuits(random.Random(2702), 24)
        for a, b in zip(fast, generic):
            assert a.gates == b.gates
            assert a.outputs == b.outputs

    # x, y and the carry into the first bit, on a circuit over the input bits 0,
    # 1 and 2. A constant operand sends its bit to the generic methods; every
    # other case reaches the fused adder's checks that x and y, or t and the
    # carry, are equal or negations. In the "next-" cases the first bit's carry
    # out is the second bit's t, or its negation.
    FOLDS = {
        "plain": lambda c: (0, 1, 2),
        "x-true": lambda c: (c.const(True), 1, 2),
        "carry-true": lambda c: (0, 1, c.const(True)),
        "x-is-y": lambda c: (0, 0, 2),
        "x-is-not-y": lambda c: (0, c.not_(0), 2),
        "x-is-not-y-swapped": lambda c: (c.not_(0), 0, 2),
        "carry-is-x": lambda c: (0, 1, 0),
        "carry-is-not-y": lambda c: (0, 1, c.not_(1)),
        "carry-is-t": lambda c: (0, 1, c.xor_(0, 1)),
        "carry-is-not-t": lambda c: (0, 1, c.not_(c.xor_(0, 1))),
        "carry-is-t-swapped": lambda c: (1, 0, c.xor_(0, 1)),
        "carry-is-not-t-swapped": lambda c: (1, 0, c.not_(c.xor_(0, 1))),
        "next-carry-is-t": lambda c: (0, c.not_(0), c.xor_(0, 2)),
        "next-carry-is-not-t": lambda c: (0, c.not_(0), c.not_(c.xor_(0, 2))),
    }

    @pytest.mark.parametrize("case", FOLDS)
    def test_each_folding_case_makes_the_generic_gates(self, case):
        def adder(ripple):
            c = Circuit(make_domain([(0, 1)] * 3))
            x, y, carry = self.FOLDS[case](c)
            # a second bit reads the first one's carry
            return ripple(c, [x, 2], [y, 0], carry), c.gates

        assert adder(Circuit._ripple) == adder(reference_ripple)


class TestPartialEvaluate:
    def test_fix_all_inputs_yields_constants(self, bits2_domain, xor_tree):
        c = compile_tree(xor_tree, bits2_domain)
        pe = partial_evaluate(c, {0: 1, 1: 0})
        assert pe.num_input_bits == 0
        assert pe.const_value(pe.output("model_1")) is True
        assert pe.const_value(pe.output("model_0")) is False

    def test_fix_none_is_isomorphic(self, bits2_domain, xor_tree):
        c = compile_tree(xor_tree, bits2_domain)
        pe = partial_evaluate(c, {})
        assert pe.num_input_bits == c.num_input_bits
        for pt in enumerate_domain(bits2_domain):
            assert simulate_outputs(c, pt) == simulate_outputs(pe, pt)

    def test_xor_with_f0_fixed_is_negation(self, bits2_domain, xor_tree):
        c = compile_tree(xor_tree, bits2_domain)
        pe = partial_evaluate(c, {0: 1})
        # over remaining f1: model_1 == not f1
        for f1 in (0, 1):
            outs = simulate_outputs(pe, (1, f1))
            assert outs["model_1"] == (f1 == 0)

    def test_semantics_preserved_on_network(self):
        rng = random.Random(55)
        dom = make_domain([(0, 7), (0, 7), (0, 3)])
        net = random_network(rng, dom, hidden=(2,), num_labels=2)
        c = compile_network(net, dom)
        pe = partial_evaluate(c, {1: 5})
        for pt in enumerate_domain(pe.domain):
            assert simulate_outputs(pe, pt) == simulate_outputs(c, pt)

    def test_value_out_of_range(self, bits2_domain, xor_tree):
        c = compile_tree(xor_tree, bits2_domain)
        with pytest.raises(Exception, match="out of range"):
            partial_evaluate(c, {0: 3})

    # a pin is checked as a point's value is: 0.5 and True lie in [0, 1] and are no pins
    @pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
    def test_value_that_is_not_an_integer(self, bits2_domain, xor_tree, value):
        c = compile_tree(xor_tree, bits2_domain)
        with pytest.raises(ModelError, match=f"value for f0 must be an integer, got {value}"):
            partial_evaluate(c, {0: value})

    # -1 would name the last feature to the check but pin no feature
    @pytest.mark.parametrize("index", [-1, 2])
    def test_feature_index_out_of_range(self, bits2_domain, xor_tree, index):
        c = compile_tree(xor_tree, bits2_domain)
        with pytest.raises(ModelError, match=f"feature index {index} out of range"):
            partial_evaluate(c, {index: 0})

    def test_gate_count_shrinks(self):
        rng = random.Random(14)
        dom = make_domain([(0, 15), (0, 15)])
        net = random_network(rng, dom, hidden=(3,), num_labels=2)
        c = compile_network(net, dom)
        pe = partial_evaluate(c, {0: 9})
        assert pe.num_input_bits < c.num_input_bits
        assert len(pe.gates) < len(c.gates)


class TestOneHot:
    def test_one_hot_exhaustive_on_models(self):
        rng = random.Random(4242)
        dom = make_domain([(0, 3), (0, 3), (0, 1), (0, 1)])
        for make in (lambda: random_tree(rng, dom, num_labels=3),
                     lambda: random_network(rng, dom, hidden=(2,), num_labels=3)):
            model = make()
            c = compile_model(model, dom)
            for pt in enumerate_domain(dom):
                outs = simulate_outputs(c, pt)
                assert sum(outs.values()) == 1
                assert outs[f"model_{eval_model(model, pt, dom)}"]


class TestConstTable:
    """`const_value` reads a wire->bool table; it must say what the gate list says."""

    @staticmethod
    def assert_table_matches_gates(c):
        base = c.num_input_bits
        for w in range(base + len(c.gates)):
            gate = c.gates[w - base] if w >= base else None
            want = gate[1] if gate is not None and gate[0] == "const" else None
            assert c.const_value(w) is want, w

    def test_trees_nets_predicates_and_partial_evaluation(self):
        rng = random.Random(31)
        dom = make_domain([(0, 7), (-2, 5), (0, 3)])
        circuits = []
        for _ in range(3):
            tree = compile_tree(random_tree(rng, dom), dom)
            net = compile_network(random_network(rng, dom, hidden=(2,)), dom)
            for c in (tree, net):
                compile_predicate(c, random_predicate(rng, dom), "truth_1")
                circuits += [c, partial_evaluate(c, {0: 3}), partial_evaluate(c, {1: -2, 2: 0})]
        pred = Circuit(dom)
        compile_predicate(pred, parse_predicate("f0 <= 3 && f1 >= f2", dom), "p")
        circuits += [pred, Circuit(make_domain([(3, 3)]))]
        for c in circuits:
            self.assert_table_matches_gates(c)


def _pinned_circuits(suite):
    """A fixed seeded set of circuits: the acceptance suite's models, varied nets
    and random trees over domains with lo < 0, the builtin graph properties,
    random predicates with feature-to-feature comparisons and a region's root."""
    rng = random.Random(3030)
    circuits = [compile_model(inst.model, inst.domain) for inst in suite]
    for i in range(20):
        domain = make_domain(_LO_RANGES[i % len(_LO_RANGES)])
        circuits.append(compile_model(varied_network(rng, domain), domain))
    for i in range(20):
        domain = make_domain(_LO_RANGES[i % len(_LO_RANGES)])
        circuits.append(compile_model(random_tree(rng, domain, num_labels=2 + i % 2), domain))
    for n in range(1, 5):
        for name in GRAPH_PROPERTIES:
            c = Circuit(graph_domain(n))
            compile_predicate(c, builtin_graph_property(name, n), "truth")
            circuits.append(c)
    for i in range(12):
        domain = make_domain(_LO_RANGES[i % len(_LO_RANGES)])
        k = len(domain.features)
        pairs = tuple(CmpFeature(rng.choice(["<=", "<", ">=", ">", "=", "!="]), rng.randrange(k),
                                 rng.randrange(k)) for _ in range(2))
        c = Circuit(domain)
        compile_predicate(c, And((random_predicate(rng, domain), *pairs)), "truth")
        compile_predicate(c, Not(And(pairs)), "other")
        circuits.append(c)
    domain = make_domain([(0, 15), (-8, 7)])
    c = compile_model(varied_network(rng, domain), domain)
    c.set_output("ball", constrain_region(c, c.output("model_1"), region((2, -3), 2, domain)))
    circuits.append(c)
    return circuits


# sha256 over the gate lists and outputs of `_pinned_circuits`; a refactor of the
# builders that keeps every gate, and its position, keeps this digest
GATE_LIST_SHA256 = "5e53845d72cb5a3a3ef2e9a5102019f91c89a278118feab7cef4d36f48cbd7be"


def test_gate_lists_are_pinned(model_suite):
    digest = hashlib.sha256()
    for c in _pinned_circuits(model_suite):
        digest.update(repr((c.gates, sorted(c.outputs.items()))).encode())
    assert digest.hexdigest() == GATE_LIST_SHA256
