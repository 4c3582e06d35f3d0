"""Metamorphic relations: a second model whose learnability report must equal
the first's byte for byte, so the counts are checked where the oracle cannot
enumerate (graph5 has 2**25 points). Each test first asserts that the second
model differs from the first, so no relation is a tautology."""

import json
import random

import pytest

from exactml.metrics import binary_truth, learnability, metrics_to_document
from exactml.models import load_network, load_tree
from exactml.predicates import builtin_graph_property, graph_domain

from conftest import (
    NET_DOMAIN_RANGES,
    make_domain,
    network_to_document,
    random_tree,
    tree_to_document,
    truth_family,
    varied_network,
)


def report_text(model, truth, domain):
    return json.dumps(metrics_to_document(learnability(model, truth, domain)), indent=2)


def relabel_vertices(doc, perm):
    """The tree document with each split on edge (i, j) moved to (perm[i], perm[j])."""
    n = len(perm)
    out = json.loads(json.dumps(doc))
    for node in out["nodes"]:
        if "feature" in node:
            i, j = divmod(node["feature"], n)
            node["feature"] = perm[i] * n + perm[j]
    return out


class TestVertexRelabeling:
    """Every builtin graph property is invariant under renaming the vertices,
    so a tree and its relabeled copy have the same confusion cells."""

    @staticmethod
    def assert_relabeling_keeps_the_report(rng, n, prop):
        domain = graph_domain(n)
        truth = binary_truth(builtin_graph_property(prop, n))
        doc = tree_to_document(random_tree(rng, domain, max_depth=6))
        perm = list(range(n))
        relabeled = doc
        while relabeled == doc:
            rng.shuffle(perm)
            relabeled = relabel_vertices(doc, perm)
        assert relabeled != doc
        second = load_tree(relabeled, domain)
        assert report_text(load_tree(doc, domain), truth, domain) == report_text(second, truth, domain)

    @pytest.mark.parametrize("prop", ["transitive", "partialorder"])
    def test_graph4_trees(self, prop):
        rng = random.Random(f"relabel-{prop}")
        for _ in range(6):
            self.assert_relabeling_keeps_the_report(rng, 4, prop)

    def test_graph5_tree_past_the_oracle(self):
        self.assert_relabeling_keeps_the_report(random.Random(5), 5, "transitive")


def _nets(seed, count):
    """Seeded varied nets with truth_family truths, over small domains some of whose lo < 0."""
    rng = random.Random(seed)
    ranges = NET_DOMAIN_RANGES + [[(-3, 4), (0, 7)], [(-5, 2), (1, 4), (0, 1)]]
    for i in range(count):
        domain = make_domain(ranges[i % len(ranges)])
        net = varied_network(rng, domain)
        yield rng, domain, net, truth_family(rng, domain, net.num_labels)


def test_scaling_a_layer_keeps_the_report():
    """(W, b, s) -> (8W, 8b, s + 3): floor division by 2**(s + 3) undoes the factor 8."""
    for rng, domain, net, truth in _nets(404, 12):
        doc = network_to_document(net)
        layer = rng.choice(doc["layers"])
        layer["weights"] = [[8 * w for w in row] for row in layer["weights"]]
        layer["biases"] = [8 * b for b in layer["biases"]]
        layer["post_shift"] += 3
        assert doc != network_to_document(net)
        scaled = load_network(doc, domain)
        assert report_text(net, truth, domain) == report_text(scaled, truth, domain)


def test_a_dead_unit_keeps_the_report():
    """A hidden unit that every unit of the next layer reads with weight 0."""
    nets = [case for case in _nets(505, 40) if len(case[2].layers) > 1][:12]
    assert len(nets) == 12
    for rng, domain, net, truth in nets:
        doc = network_to_document(net)
        li = rng.randrange(len(doc["layers"]) - 1)
        layer, after = doc["layers"][li], doc["layers"][li + 1]
        layer["weights"].append([rng.randint(-3, 3) for _ in layer["weights"][0]])
        layer["biases"].append(rng.randint(-4, 4))
        after["weights"] = [row + [0] for row in after["weights"]]
        assert doc != network_to_document(net)
        wider = load_network(doc, domain)
        assert report_text(net, truth, domain) == report_text(wider, truth, domain)
