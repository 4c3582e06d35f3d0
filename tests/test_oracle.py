import random

import pytest

from exactml.circuit import Circuit, compile_predicate
from exactml.models import ModelError, eval_model, load_tree
from exactml.oracle import (
    OracleCapError,
    brute_count_predicate,
    brute_count_root,
    brute_learnability,
    enumerate_domain,
)
from exactml.predicates import builtin_graph_property, graph_domain, region

from conftest import constant_tree_doc, make_domain, random_tree, truth_family


class TestBruteLearnability:
    def test_constant_model_never_predicts_one(self):
        dom = make_domain([(0, 3), (0, 3)])
        tree = load_tree(constant_tree_doc(0), dom)
        truth = truth_family(random.Random(1), dom, 2)
        report = brute_learnability(tree, truth, dom)
        assert report.counts[(1, "fp")] == 0
        assert report.counts[(1, "tp")] == 0

    def test_domain_of_size_one(self):
        dom = make_domain([(5, 5)])
        tree = load_tree(constant_tree_doc(1), dom)
        truth = truth_family(random.Random(2), dom, 2)
        report = brute_learnability(tree, truth, dom)
        for label in (0, 1):
            cells = [report.counts[(label, k)] for k in ("tp", "fp", "tn", "fn")]
            assert all(v in (0, 1) for v in cells)
            assert sum(cells) == 1

    def test_label_totals_partition(self):
        dom = make_domain([(0, 3)] * 3)
        rng = random.Random(3)
        tree = random_tree(rng, dom, num_labels=3)
        report = brute_learnability(tree, truth_family(rng, dom, 3), dom)
        # tp + fp of a label counts the points the model gives that label
        totals = {l: report.counts[(l, "tp")] + report.counts[(l, "fp")] for l in range(3)}
        assert sum(totals.values()) == dom.size()
        for pt_label, total in totals.items():
            direct = sum(1 for pt in enumerate_domain(dom) if eval_model(tree, pt, dom) == pt_label)
            assert direct == total

    def test_truth_labels_must_be_the_models(self):
        dom = make_domain([(0, 3)])
        tree = load_tree(constant_tree_doc(0), dom)
        with pytest.raises(ModelError, match="need one truth predicate per label"):
            brute_learnability(tree, truth_family(random.Random(6), dom, 3), dom)

    def test_fingerprint_deterministic(self):
        dom = make_domain([(0, 3), (0, 1)])
        rng = random.Random(4)
        tree = random_tree(rng, dom, num_labels=2)
        truth = truth_family(rng, dom, 2)
        a = brute_learnability(tree, truth, dom)
        b = brute_learnability(tree, truth, dom)
        assert a.fingerprint == b.fingerprint
        assert a.counts == b.counts

    def test_cap_refusal(self):
        dom = make_domain([(0, 255)] * 4)
        tree = load_tree(constant_tree_doc(0), dom)
        with pytest.raises(OracleCapError, match="too large"):
            brute_learnability(tree, truth_family(random.Random(5), dom, 2), dom)


class TestBruteCountRoot:
    def test_const_true_sixteen_bits(self):
        dom = make_domain([(0, 1)] * 16)
        c = Circuit(dom)
        assert brute_count_root(c, c.const(True)) == 65536

    def test_antisymmetric_wire(self):
        dom = graph_domain(4)
        c = Circuit(dom)
        w = compile_predicate(c, builtin_graph_property("antisymmetric", 4), "t")
        # cross-check against the closed form 2^4 * 3^6
        assert brute_count_root(c, w) == 11664 == 2**4 * 3**6

    def test_region_restriction(self):
        dom = make_domain([(0, 15)] * 2)
        c = Circuit(dom)
        reg = region((7, 7), 1, dom)
        assert brute_count_root(c, c.const(True), region=reg) == 9

    def test_predicate_count_equals_root_count(self):
        dom = graph_domain(3)
        pred = builtin_graph_property("preorder", 3)
        c = Circuit(dom)
        w = compile_predicate(c, pred, "t")
        assert brute_count_root(c, w) == brute_count_predicate(pred, dom) == 29
