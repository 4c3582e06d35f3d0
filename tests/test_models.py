import random

import pytest

from exactml.circuit import MAX_BUNDLE_WIDTH
from exactml.models import (
    MAX_POST_SHIFT,
    FeatureSpec,
    InputDomain,
    ModelError,
    eval_model,
    load_domain,
    load_network,
    load_tree,
)
from exactml.oracle import enumerate_domain

from conftest import (
    XOR_TREE_DOC,
    constant_tree_doc,
    domain_to_document,
    make_domain,
    network_to_document,
    random_network,
    random_tree,
    tree_to_document,
)


class TestDomain:
    def test_sixteen_binary_features(self):
        dom = make_domain([(0, 1)] * 16)
        assert dom.size() == 65536
        assert dom.bit_width() == 16

    def test_four_byte_features(self):
        dom = make_domain([(0, 255)] * 4)
        assert dom.size() == 256**4

    def test_empty_range_rejected(self):
        with pytest.raises(ModelError, match="empty feature range"):
            make_domain([(5, 3)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelError, match="duplicate"):
            load_domain({"features": [{"name": "a", "lo": 0, "hi": 1}, {"name": "a", "lo": 0, "hi": 1}]})

    def test_malformed_document(self):
        with pytest.raises(ModelError):
            load_domain({"features": "nope"})
        with pytest.raises(ModelError):
            load_domain("not json {")

    def test_feature_without_a_name(self):
        with pytest.raises(ModelError, match="feature without a name"):
            load_domain({"features": [{"lo": 0, "hi": 1}]})

    def test_deeply_nested_text_is_a_model_error(self, bits2_domain):
        with pytest.raises(ModelError, match="nested too deeply"):
            load_domain("[" * 100_000)
        with pytest.raises(ModelError, match="nested too deeply"):
            load_tree("[" * 100_000 + "]" * 100_000, bits2_domain)

    def test_bit_widths(self):
        dom = make_domain([(0, 0), (0, 1), (0, 2), (3, 10)])
        assert [f.bit_width for f in dom.features] == [0, 1, 2, 3]

    def test_point_feature_allowed(self):
        dom = make_domain([(7, 7), (0, 1)])
        assert dom.size() == 2

    def test_index_of(self):
        # a domain built in code may repeat a name; its first feature wins
        dom = InputDomain(tuple(FeatureSpec(n, 0, 1) for n in ("a", "b", "a", "c")))
        assert [dom.index_of(n) for n in ("a", "b", "c")] == [0, 1, 3]
        with pytest.raises(KeyError, match="'d'"):
            dom.index_of("d")
        # the index is not a field: equality, hashing and repr read the features only
        twin = InputDomain(dom.features)
        assert dom == twin and hash(dom) == hash(twin) and repr(dom) == repr(twin)


class TestTree:
    def test_single_leaf_constant(self):
        dom = make_domain([(0, 1)])
        tree = load_tree(constant_tree_doc(0), dom)
        assert eval_model(tree, (0,), dom) == 0
        assert eval_model(tree, (1,), dom) == 0
        tree3 = load_tree(constant_tree_doc(3, num_labels=4), dom)
        assert eval_model(tree3, (0,), dom) == 3
        assert eval_model(tree3, (1,), dom) == 3

    def test_two_node_tree(self, bits2_domain):
        tree = load_tree(
            {"num_labels": 2, "root": 0,
             "nodes": [{"feature": 0, "threshold": 0, "left": 1, "right": 2},
                       {"leaf": 1}, {"leaf": 0}]},
            bits2_domain,
        )
        assert eval_model(tree, (0, 0), bits2_domain) == 1
        assert eval_model(tree, (1, 0), bits2_domain) == 0

    def test_self_reference_is_cycle(self, bits2_domain):
        doc = {"num_labels": 2, "root": 0,
               "nodes": [{"feature": 0, "threshold": 0, "left": 0, "right": 1}, {"leaf": 0}]}
        with pytest.raises(ModelError, match="cycle"):
            load_tree(doc, bits2_domain)

    def test_shared_child_rejected(self, bits2_domain):
        doc = {"num_labels": 2, "root": 0,
               "nodes": [{"feature": 0, "threshold": 0, "left": 1, "right": 1}, {"leaf": 0}]}
        with pytest.raises(ModelError, match="parent"):
            load_tree(doc, bits2_domain)

    def test_feature_out_of_range(self, bits2_domain):
        doc = {"num_labels": 2, "root": 0, "nodes": [{"feature": 9, "threshold": 0, "left": 1, "right": 2}, {"leaf": 0}, {"leaf": 1}]}
        with pytest.raises(ModelError, match="feature index"):
            load_tree(doc, bits2_domain)

    def test_label_out_of_range(self, bits2_domain):
        with pytest.raises(ModelError, match="num_labels"):
            load_tree(constant_tree_doc(2, num_labels=2), bits2_domain)

    # node 0 tests f0 <= 0; each document breaks one rule of the tree's shape
    @pytest.mark.parametrize("doc, needle", [
        ({"num_labels": 0, "nodes": [{"leaf": 0}]}, "num_labels must be >= 1"),
        ({"num_labels": 2, "root": 3, "nodes": [{"leaf": 0}]}, "root index 3 out of range"),
        ({"num_labels": 2, "nodes": [[0]]}, "node 0: must be an object"),
        ({"num_labels": 2, "nodes": [{"feature": 0, "threshold": 0, "left": 1, "right": 7},
                                     {"leaf": 0}]}, "node 0: child index 7 out of range"),
        ({"num_labels": 2, "nodes": [{"feature": 0, "threshold": 0, "left": 1, "right": 2},
                                     {"feature": 1, "threshold": 0, "left": 0, "right": 3},
                                     {"leaf": 0}, {"leaf": 1}]}, "cycle through node 0"),
        ({"num_labels": 2, "nodes": [{"leaf": 0}, {"leaf": 1}]}, "node 1 unreachable from root"),
    ], ids=["no-labels", "root-out-of-range", "node-not-an-object", "child-out-of-range",
            "two-node-cycle", "unreachable-node"])
    def test_malformed_tree(self, bits2_domain, doc, needle):
        with pytest.raises(ModelError, match=needle):
            load_tree(doc, bits2_domain)

    def test_xor_tree_all_inputs(self, bits2_domain, xor_tree):
        # hand oracle: label = f0 xor f1
        for pt in enumerate_domain(bits2_domain):
            assert eval_model(xor_tree, pt, bits2_domain) == pt[0] ^ pt[1]

    def test_out_of_domain_input(self, bits2_domain, xor_tree):
        with pytest.raises(ModelError, match="out of range"):
            eval_model(xor_tree, (0, 2), bits2_domain)


class TestNetwork:
    def test_identity_argmax(self):
        dom = make_domain([(0, 255), (0, 255)])
        net = load_network(
            {"input_width": 2,
             "layers": [{"weights": [[1, 0], [0, 1]], "biases": [0, 0], "activation": "none", "post_shift": 0}]},
            dom,
        )
        assert eval_model(net, (5, 3), dom) == 0
        assert eval_model(net, (3, 5), dom) == 1

    def test_tie_breaks_to_lowest_label(self):
        dom = make_domain([(0, 255), (0, 255)])
        net = load_network(
            {"input_width": 2,
             "layers": [{"weights": [[1, 0], [0, 1]], "biases": [0, 0], "activation": "none", "post_shift": 0}]},
            dom,
        )
        assert eval_model(net, (2, 2), dom) == 0

    def test_hand_arithmetic(self):
        dom = make_domain([(0, 7), (0, 7)])
        net = load_network(
            {"input_width": 2,
             "layers": [{"weights": [[1, -1], [-1, 1]], "biases": [0, 0], "activation": "none", "post_shift": 0}]},
            dom,
        )
        # logits (0*1 + 7*-1, 0*-1 + 7*1) = (-7, 7)
        assert eval_model(net, (0, 7), dom) == 1

    def test_post_shift_floors_toward_minus_inf(self):
        dom = make_domain([(0, 7)])
        net = load_network(
            {"input_width": 1,
             "layers": [
                 {"weights": [[-1], [0]], "biases": [0, -1], "activation": "none", "post_shift": 1},
             ]},
            dom,
        )
        # input 1: logits (floor(-1/2), floor(-1/2)) = (-1, -1) -> tie -> 0
        assert eval_model(net, (1,), dom) == 0
        # input 3: (floor(-3/2), -1) = (-2, -1) -> 1
        assert eval_model(net, (3,), dom) == 1

    @pytest.mark.parametrize("shift, loads", [(MAX_POST_SHIFT, True), (MAX_POST_SHIFT + 1, False)])
    def test_post_shift_limit(self, shift, loads):
        doc = {"input_width": 1, "layers": [
            {"weights": [[1], [-1]], "biases": [0, 0], "activation": "none", "post_shift": shift}]}
        dom = make_domain([(0, 7)])
        if loads:
            assert load_network(doc, dom).layers[0].post_shift == shift
        else:
            with pytest.raises(ModelError, match="post_shift must be in 0..64"):
                load_network(doc, dom)

    def test_post_shift_limit_is_the_bundle_width(self):
        assert MAX_POST_SHIFT == MAX_BUNDLE_WIDTH

    def test_dimension_mismatch(self):
        dom = make_domain([(0, 1)] * 3)
        doc = {"input_width": 3,
               "layers": [
                   {"weights": [[1, 1, 1]] * 3, "biases": [0, 0, 0], "activation": "relu", "post_shift": 0},
                   {"weights": [[1, 1, 1, 1]] * 2, "biases": [0, 0], "activation": "none", "post_shift": 0},
               ]}
        with pytest.raises(ModelError, match="dimension mismatch"):
            load_network(doc, dom)

    def test_non_integer_weight(self):
        dom = make_domain([(0, 1)])
        doc = {"input_width": 1,
               "layers": [{"weights": [[0.5]], "biases": [0], "activation": "none", "post_shift": 0}]}
        with pytest.raises(ModelError, match="integer"):
            load_network(doc, dom)

    # one layer over the two features of `bits2_domain`, with one key replaced
    @pytest.mark.parametrize("change, needle", [
        ({"input_width": 3}, "network expects 3 inputs, domain has 2 features"),
        ({"layers": [{"biases": [0, 0]}]}, "layer 0: missing weights or biases"),
        ({"layers": [{"weights": [[1, 0], [0, 1]], "biases": [0, 0], "activation": "tanh"}]},
         "layer 0: unknown activation 'tanh'"),
        ({"layers": [{"weights": [[1, 0], [0, 1]], "biases": [0, 0], "activation": "relu"}]},
         "final layer must have activation 'none'"),
    ], ids=["input-width", "no-weights", "unknown-activation", "relu-last-layer"])
    def test_malformed_network(self, bits2_domain, change, needle):
        doc = {"input_width": 2,
               "layers": [{"weights": [[1, 0], [0, 1]], "biases": [0, 0], "activation": "none"}]}
        with pytest.raises(ModelError, match=needle):
            load_network({**doc, **change}, bits2_domain)

    def test_two_layer_schema_example(self):
        dom = make_domain([(0, 1)] * 16)
        rng = random.Random(5)
        doc = {"input_width": 16,
               "layers": [
                   {"weights": [[rng.randint(-2, 2) for _ in range(16)] for _ in range(8)],
                    "biases": [0] * 8, "activation": "relu", "post_shift": 0},
                   {"weights": [[rng.randint(-2, 2) for _ in range(8)] for _ in range(2)],
                    "biases": [0, 0], "activation": "none", "post_shift": 0},
               ]}
        net = load_network(doc, dom)
        assert net.num_labels == 2


class TestLoadModel:
    def test_dispatch_and_unknown_kind(self, bits2_domain):
        from exactml.models import DecisionTree, QuantizedNetwork, load_model

        tree = load_model(XOR_TREE_DOC, bits2_domain)
        assert isinstance(tree, DecisionTree)
        net_doc = {"kind": "quantized_network", "input_width": 2,
                   "layers": [{"weights": [[1, 0], [0, 1]], "biases": [0, 0],
                               "activation": "none", "post_shift": 0}]}
        assert isinstance(load_model(net_doc, bits2_domain), QuantizedNetwork)
        with pytest.raises(ModelError, match="unknown model kind"):
            load_model({"kind": "svm"}, bits2_domain)


class TestInvariants:
    def test_label_counts_partition_domain(self):
        # sum over labels of |{x : model(x)=l}| must equal |domain|
        rng = random.Random(99)
        dom = make_domain([(0, 3), (0, 3), (0, 1)])
        for model in (random_tree(rng, dom, num_labels=3),
                      random_network(rng, dom, hidden=(2,), num_labels=3)):
            tallies = [0, 0, 0]
            for pt in enumerate_domain(dom):
                from exactml.models import eval_model
                tallies[eval_model(model, pt, dom)] += 1
            assert sum(tallies) == dom.size()

    def test_serialization_round_trip(self):
        rng = random.Random(123)
        dom = make_domain([(0, 7), (0, 3), (0, 1)])
        tree = random_tree(rng, dom, num_labels=3)
        tree2 = load_tree(tree_to_document(tree), dom)
        net = random_network(rng, dom, hidden=(3, 2), num_labels=2)
        net2 = load_network(network_to_document(net), dom)
        dom2 = load_domain(domain_to_document(dom))
        assert dom2 == dom
        for pt in enumerate_domain(dom):
            assert eval_model(tree, pt, dom) == eval_model(tree2, pt, dom)
            assert eval_model(net, pt, dom) == eval_model(net2, pt, dom)
