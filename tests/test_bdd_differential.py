"""Differential checks on random small domains: tables, BDD, DPLL and the oracle agree.

Domains have negative lower bounds, single-point features and
non-power-of-two ranges, so `count_roots` puts all of them on truth tables;
each check also counts them on the BDD (`count_on_bdd`). Needs
`hypothesis`; skipped where it is missing.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from exactml.bdd import count_roots  # noqa: E402
from exactml.circuit import Circuit, compile_model, compile_predicate  # noqa: E402
from exactml.cnf import tseitin  # noqa: E402
from exactml.metrics import (  # noqa: E402
    learnability,
    robustness,
    robustness_roots,
    safety,
    safety_roots,
    tseitin_count_fn,
)
from exactml.models import eval_model  # noqa: E402
from exactml.oracle import (  # noqa: E402
    brute_count_predicate,
    brute_learnability,
    brute_robustness,
    enumerate_domain,
)
from exactml.predicates import SafetyProperty, bounding_box, region  # noqa: E402

from conftest import (  # noqa: E402
    count_on_bdd,
    make_domain,
    random_network,
    random_point,
    random_predicate,
    random_tree,
    truth_family,
)
from reference_counters import count_projected  # noqa: E402

DPLL = tseitin_count_fn(count_projected)

feature_ranges = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(0, 6)).map(lambda t: (t[0], t[0] + t[1])),
    min_size=1,
    max_size=3,
)
seeds = st.integers(0, 2**32 - 1)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _random_model(rng, dom, kind):
    if kind == "tree":
        return random_tree(rng, dom, num_labels=rng.choice((2, 3)), max_depth=4)
    return random_network(rng, dom, hidden=(2,), num_labels=2)


class TestDifferential:
    @SETTINGS
    @given(feature_ranges, seeds, st.sampled_from(["tree", "network"]))
    def test_model_wires(self, ranges, seed, kind):
        rng = random.Random(seed)
        dom = make_domain(ranges)
        model = _random_model(rng, dom, kind)
        circ = compile_model(model, dom)
        roots = {l: circ.output(f"model_{l}") for l in range(model.num_labels)}
        tables, bdds = count_roots(circ, roots), count_on_bdd(circ, roots)
        for l, root in roots.items():
            want = sum(1 for p in enumerate_domain(dom) if eval_model(model, p, dom) == l)
            assert (tables[l].method, tables[l].count) == ("table", want)
            assert (bdds[l].method, bdds[l].count) == ("bdd", want)
            assert count_projected(tseitin(circ, root)).count == want

    @SETTINGS
    @given(feature_ranges, seeds)
    def test_predicates(self, ranges, seed):
        rng = random.Random(seed)
        dom = make_domain(ranges)
        pred = random_predicate(rng, dom, depth=3)
        circ = Circuit(dom)
        root = compile_predicate(circ, pred)
        want = brute_count_predicate(pred, dom)
        assert count_roots(circ, {"p": root})["p"].count == want
        assert count_on_bdd(circ, {"p": root})["p"].count == want
        assert count_projected(tseitin(circ, root)).count == want

    @SETTINGS
    @given(feature_ranges, seeds, st.sampled_from(["tree", "network"]))
    def test_learnability_backends_agree_with_oracle(self, ranges, seed, kind):
        rng = random.Random(seed)
        dom = make_domain(ranges)
        model = _random_model(rng, dom, kind)
        truth = truth_family(rng, dom, model.num_labels)
        want = brute_learnability(model, truth, dom).counts
        for count_fn in (None, count_on_bdd, DPLL):
            report = learnability(model, truth, dom, count_fn=count_fn)
            for m in report.labels:
                for kind_ in ("tp", "fp", "tn", "fn"):
                    assert getattr(m, kind_) == want[(m.label, kind_)]

    @SETTINGS
    @given(feature_ranges, seeds, st.integers(0, 3), st.sampled_from(["tree", "network"]))
    def test_robustness_over_the_region_box(self, ranges, seed, eps, kind):
        rng = random.Random(seed)
        dom = make_domain(ranges)
        model = _random_model(rng, dom, kind)
        center = random_point(rng, dom)
        size, correct = brute_robustness(model, center, region(center, eps, dom), dom)
        for count_fn in (None, count_on_bdd, DPLL):
            report = robustness(model, center, eps, dom, count_fn=count_fn)
            assert (report.region_size, report.correct_count) == (size, correct)

    @SETTINGS
    @given(feature_ranges, seeds, st.sampled_from(["tree", "network"]))
    def test_safety_over_the_pre_box(self, ranges, seed, kind):
        rng = random.Random(seed)
        dom = make_domain(ranges)
        model = _random_model(rng, dom, kind)
        prop = SafetyProperty(random_predicate(rng, dom, depth=3), frozenset({0}))
        sat, viol = _brute_safety(model, prop, dom)
        for count_fn in (None, count_on_bdd, DPLL):
            report = safety(model, prop, dom, count_fn=count_fn)
            assert (report.pre_size, report.sat_count, report.viol_count) == (sat + viol, sat, viol)
            assert report.vacuous == (sat + viol == 0)

    # `count_over` compiles no network that interval bounds decide, as they
    # do on most small boxes, so the roots builders are counted here on
    # compiled circuits

    @SETTINGS
    @given(feature_ranges, seeds, st.integers(0, 3), st.sampled_from(["tree", "network"]))
    def test_robustness_plan_over_the_domain_and_the_ball(self, ranges, seed, eps, kind):
        rng = random.Random(seed)
        dom = make_domain(ranges)
        model = _random_model(rng, dom, kind)
        center = random_point(rng, dom)
        reg = region(center, eps, dom)
        _, correct = brute_robustness(model, center, reg, dom)
        target = eval_model(model, center, dom)
        for over in (dom, reg):
            circ = compile_model(model, over)
            roots = robustness_roots(circ, target, reg)
            for counts in (count_roots(circ, roots), count_on_bdd(circ, roots)):
                assert counts["robustness"].count == correct

    @SETTINGS
    @given(feature_ranges, seeds, st.sampled_from(["tree", "network"]))
    def test_safety_plan_over_the_domain_and_the_pre_box(self, ranges, seed, kind):
        rng = random.Random(seed)
        dom = make_domain(ranges)
        model = _random_model(rng, dom, kind)
        prop = SafetyProperty(random_predicate(rng, dom, depth=3), frozenset({1}))
        sat, viol = _brute_safety(model, prop, dom)
        box = bounding_box(prop.pre, dom)
        for over in (dom,) if box is None else (dom, box):
            circ = compile_model(model, over)
            roots = safety_roots(circ, prop)
            for counts in (count_roots(circ, roots), count_on_bdd(circ, roots)):
                assert [counts[name].count for name in ("pre", "sat", "viol")] == [
                    sat + viol, sat, viol,
                ]


def _brute_safety(model, prop, dom):
    """(sat, viol) by enumeration: Pre-points whose label is / is not allowed."""
    sat = viol = 0
    for point in enumerate_domain(dom):
        if prop.pre.evaluate(point):
            if eval_model(model, point, dom) in prop.allowed:
                sat += 1
            else:
                viol += 1
    return sat, viol


@SETTINGS
@given(feature_ranges, seeds)
def test_bounding_box_holds_every_satisfying_point(ranges, seed):
    dom = make_domain(ranges)
    pred = random_predicate(random.Random(seed), dom, depth=3)
    box = bounding_box(pred, dom)
    for point in enumerate_domain(dom):
        if pred.evaluate(point):
            assert box is not None
            assert all(f.lo <= v <= f.hi for v, f in zip(point, box.features))
