"""The decider `circuit.bound_label`: one pass of intervals and linear forms.

It is sound, and `metrics.count_over` decides with it wherever either of
its halves on its own does: the oracles `interval_label` (per-logit
intervals, which are exactly those of the compiled logits) and
`difference_label` (linear forms on the logit differences) in
`conftest.py`. The pass keeps the oracles' forms and narrows their
intervals, so it dominates both by construction; the dominance test and a
pinned net whose ReLU case must come from its form check that. Neither
half dominates the other, and the reduced product of the two decides
boxes that neither does alone. Needs `hypothesis`; skipped where it is
missing.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from exactml.circuit import Circuit, bound_label, network_logits  # noqa: E402
from exactml.metrics import count_over, robustness  # noqa: E402
from exactml.models import eval_model, load_network  # noqa: E402
from exactml.oracle import enumerate_domain  # noqa: E402
from exactml.predicates import region  # noqa: E402

from conftest import (  # noqa: E402
    DIFFERENCE_NET_DOC, DIFFERENCE_NET_RANGES, difference_label, interval_label, logit_bounds,
    make_domain, random_tree, varied_network,
)

feature_ranges = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(0, 5)).map(lambda t: (t[0], t[0] + t[1])),
    min_size=1,
    max_size=3,
)
seeds = st.integers(0, 2**32 - 1)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# On x0 in [3, 5], the logit intervals leave this net's decision open
# (logit_0 <= -6 <= logit_1), and so do the linear forms of the difference,
# whose floor errors add up independently. Narrowing each logit's interval
# to its own form's range gives logit_0 <= -6 < -5 <= logit_1: label 1.
REDUCED_PRODUCT_NET_DOC = {
    "format_version": 1, "kind": "quantized_network", "input_width": 1,
    "layers": [
        {"weights": [[3], [2]], "biases": [-1, 1], "activation": "none", "post_shift": 2},
        {"weights": [[-2, -1], [-1, 1]], "biases": [-1, -4], "activation": "none",
         "post_shift": 0},
    ],
}


# On x0 in [3, 5], the ReLU unit 2*h0 + h1 - 5 takes the values 0, 1 and 3,
# and its interval is [0, 3]. The floors of h0 and h1 let its form dip to
# -3/2, so by the form's own range the ReLU is unstable and becomes the
# constant [0, 4]; then logit_1 - logit_0 = unit + 1 is at least 1: label 1.
# Keeping the form, as the interval's lo of 0 would suggest, leaves it open.
FLOORED_RELU_NET_DOC = {
    "format_version": 1, "kind": "quantized_network", "input_width": 1,
    "layers": [
        {"weights": [[3], [2], [4]], "biases": [-1, 1, 0], "activation": "none", "post_shift": 2},
        {"weights": [[2, 1, 0], [0, 0, 1]], "biases": [-5, 0], "activation": "relu",
         "post_shift": 0},
        {"weights": [[0, 1], [1, 1]], "biases": [0, 1], "activation": "none", "post_shift": 0},
    ],
}


@SETTINGS
@given(feature_ranges, seeds)
def test_a_decided_label_is_the_decision_on_every_point(ranges, seed):
    rng = random.Random(seed)
    dom = make_domain(ranges)
    net = varied_network(rng, dom)
    label = bound_label(net, dom)
    if label is not None:
        assert all(eval_model(net, p, dom) == label for p in enumerate_domain(dom))


@SETTINGS
@given(feature_ranges, seeds)
def test_count_over_decides_wherever_either_decider_does(ranges, seed):
    rng = random.Random(seed)
    dom = make_domain(ranges)
    net = varied_network(rng, dom)
    _, label = count_over(net, dom, lambda circuit: {})
    assert label == bound_label(net, dom)
    for oracle in (interval_label, difference_label):
        if oracle(net, dom) is not None:
            assert label == oracle(net, dom), oracle.__name__


def test_each_decider_decides_boxes_the_other_leaves_open():
    rng = random.Random(2)
    decided = set()
    for _ in range(300):
        dom = make_domain([(lo, lo + rng.randint(0, 5)) for lo in (rng.randint(-8, 8) for _ in range(2))])
        net = varied_network(rng, dom)
        decided.add((interval_label(net, dom) is None, difference_label(net, dom) is None))
    assert {(True, False), (False, True)} <= decided


def test_only_the_reduced_product_decides_this_box():
    dom = make_domain([(3, 5)], prefix="x")
    net = load_network(REDUCED_PRODUCT_NET_DOC, dom)
    assert (interval_label(net, dom), difference_label(net, dom), bound_label(net, dom)) == (
        None, None, 1,
    )
    assert [eval_model(net, p, dom) for p in enumerate_domain(dom)] == [1, 1, 1]


def test_a_relu_reads_its_case_from_its_form():
    dom = make_domain([(3, 5)], prefix="x")
    net = load_network(FLOORED_RELU_NET_DOC, dom)
    assert (interval_label(net, dom), difference_label(net, dom), bound_label(net, dom)) == (
        None, 1, 1,
    )
    assert [eval_model(net, p, dom) for p in enumerate_domain(dom)] == [1, 1, 1]


def test_only_difference_bounds_decide_this_ball():
    dom = make_domain(DIFFERENCE_NET_RANGES, prefix="x")
    net = load_network(DIFFERENCE_NET_DOC, dom)
    ball = region((2, 3), 2, dom)
    assert (interval_label(net, ball), bound_label(net, ball)) == (None, 1)
    assert {eval_model(net, p, dom) for p in enumerate_domain(ball)} == {1}

    def never(circuit, roots):
        raise AssertionError(f"counted {sorted(roots)}")

    report = robustness(net, (2, 3), 2, dom, count_fn=never)
    assert (report.correct_count, report.region_size) == (25, 25)


@SETTINGS
@given(feature_ranges, seeds)
def test_logit_bounds_are_those_of_the_compiled_logits(ranges, seed):
    rng = random.Random(seed)
    dom = make_domain(ranges)
    net = varied_network(rng, dom)
    logits = network_logits(Circuit(dom), net)
    assert [(b.lo, b.hi) for b in logits] == logit_bounds(net, dom)


def test_random_nets_on_small_boxes_are_both_decided_and_open():
    rng = random.Random(5)
    outcomes = set()
    for _ in range(60):
        dom = make_domain([(lo, lo + rng.randint(0, 3)) for lo in (rng.randint(-8, 8) for _ in range(2))])
        outcomes.add(bound_label(varied_network(rng, dom), dom) is None)
    assert outcomes == {True, False}


def test_equal_constant_logits_go_to_the_lowest_label():
    dom = make_domain([(0, 3)])
    net = load_network(
        {"layers": [{"weights": [[0], [0], [0]], "biases": [1, 5, 5], "activation": "none"}]}, dom
    )
    assert bound_label(net, dom) == interval_label(net, dom) == difference_label(net, dom) == 1


def test_a_point_domain_decides_like_eval_model():
    rng = random.Random(11)
    for _ in range(50):
        dom = make_domain([(v, v) for v in (rng.randint(-8, 8) for _ in range(3))])
        net = varied_network(rng, dom)
        assert bound_label(net, dom) == eval_model(net, next(enumerate_domain(dom)), dom)


def test_trees_are_never_decided():
    dom = make_domain([(0, 3)])
    tree = random_tree(random.Random(1), dom, max_depth=0)
    assert bound_label(tree, dom) is None
