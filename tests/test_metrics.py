import random
import tracemalloc
from fractions import Fraction

import pytest

import exactml.metrics
from exactml.bdd import count_roots
from exactml.circuit import WidthOverflowError, bound_label, compile_model
from exactml.counter import CountResult
from exactml.metrics import (
    Baseline,
    binary_truth,
    count_over,
    learnability,
    metrics_to_document,
    render_fraction,
    robustness,
    robustness_to_document,
    safety,
    safety_to_document,
    statistical_baseline,
)
from exactml.models import ModelError, load_network, load_tree
from exactml.oracle import brute_learnability, brute_robustness
from exactml.predicates import (
    SafetyProperty,
    bounding_box,
    builtin_graph_property,
    graph_domain,
    parse_predicate,
    region,
)

from conftest import (
    constant_tree_doc,
    interval_label,
    make_domain,
    random_network,
    random_tree,
    reflexive_tree_doc,
    truth_family,
)


@pytest.fixture(scope="module")
def graph4():
    return graph_domain(4)


@pytest.fixture(scope="module")
def reflexive4():
    return builtin_graph_property("reflexive", 4)


class TestLearnability:
    def test_perfect_reflexive_classifier(self, graph4, reflexive4):
        tree = load_tree(reflexive_tree_doc(4), graph4)
        report = learnability(tree, binary_truth(reflexive4), graph4)
        m = report.labels[1]
        assert (m.tp, m.fp, m.tn, m.fn) == (4096, 0, 61440, 0)
        assert m.accuracy == 1
        assert m.f1 == 1

    def test_constant_zero_vs_reflexive(self, graph4, reflexive4):
        tree = load_tree(constant_tree_doc(0), graph4)
        report = learnability(tree, binary_truth(reflexive4), graph4)
        m = report.labels[1]
        assert (m.tp, m.fp, m.tn, m.fn) == (0, 0, 61440, 4096)
        assert m.recall == 0
        assert m.precision is None  # TP+FP = 0
        assert m.f1 is None

    def test_truth_equal_to_model_has_no_errors(self, graph4):
        tree = load_tree(reflexive_tree_doc(4), graph4)
        # ground truth is the model's own decision predicate
        truth = binary_truth(
            parse_predicate(
                "e[0][0] = 1 && e[1][1] = 1 && e[2][2] = 1 && e[3][3] = 1", graph4
            )
        )
        report = learnability(tree, truth, graph4)
        for m in report.labels:
            assert m.fp == 0 and m.fn == 0

    def test_matches_oracle_on_random_models(self):
        rng = random.Random(500)
        dom = make_domain([(0, 3), (0, 3), (0, 1)])
        for _ in range(4):
            model = random_tree(rng, dom, num_labels=3)
            truth = truth_family(rng, dom, 3)
            report = learnability(model, truth, dom)
            oracle_report = brute_learnability(model, truth, dom)
            for m in report.labels:
                for kind in ("tp", "fp", "tn", "fn"):
                    assert getattr(m, kind) == oracle_report.counts[(m.label, kind)]

    def test_partition_and_label_sum(self):
        rng = random.Random(501)
        dom = make_domain([(0, 7), (0, 3)])
        model = random_network(rng, dom, hidden=(2,), num_labels=2)
        truth = truth_family(rng, dom, 2)
        report = learnability(model, truth, dom)
        label_sum = 0
        for m in report.labels:
            assert m.tp + m.fp + m.tn + m.fn == report.domain_size
            label_sum += m.tp + m.fp
        assert label_sum == report.domain_size

    def test_truth_labels_must_be_the_models(self, bits2_domain, xor_tree):
        truth = {1: parse_predicate("f0 = 1", bits2_domain)}
        with pytest.raises(ModelError, match=r"need one truth predicate per label \[0, 1\], got \[1\]"):
            learnability(xor_tree, truth, bits2_domain)

    def test_budget_exhaustion_reports_gaps(self, graph4, reflexive4):
        tree = load_tree(reflexive_tree_doc(4), graph4)
        report = learnability(
            tree, binary_truth(reflexive4), graph4, count_fn=lambda c, r: count_roots(c, r, 1)
        )
        assert report.gaps
        doc = metrics_to_document(report)
        assert doc["gaps"]

    def test_complement_consistency_with_independent_counts(self):
        # TP+FN must equal MC(truth wire) and TP+FP must equal MC(model wire)
        from exactml.circuit import compile_model, compile_predicate
        from exactml.cnf import tseitin
        from reference_counters import count_projected

        rng = random.Random(733)
        dom = make_domain([(0, 7), (0, 3), (0, 1)])
        model = random_tree(rng, dom, num_labels=2)
        truth = truth_family(rng, dom, 2)
        report = learnability(model, truth, dom)
        circ = compile_model(model, dom)
        for l, pred in truth.items():
            compile_predicate(circ, pred, f"truth_{l}")
        for m in report.labels:
            truth_count = count_projected(tseitin(circ, circ.output(f"truth_{m.label}"))).count
            model_count = count_projected(tseitin(circ, circ.output(f"model_{m.label}"))).count
            assert m.tp + m.fn == truth_count
            assert m.tp + m.fp == model_count


class TestSafety:
    def test_post_all_labels(self, bits2_domain, xor_tree):
        prop = SafetyProperty(parse_predicate("true", bits2_domain), frozenset({0, 1}))
        report = safety(xor_tree, prop, bits2_domain)
        assert report.sat_count == bits2_domain.size()
        assert report.viol_count == 0
        assert report.accuracy == 1

    def test_allowed_label_out_of_range(self, bits2_domain, xor_tree):
        prop = SafetyProperty(parse_predicate("true", bits2_domain), frozenset({0, 2}))
        with pytest.raises(ModelError, match="allowed label 2 out of range"):
            safety(xor_tree, prop, bits2_domain)

    def test_constant_wrong_label_never_satisfies(self, bits2_domain):
        tree = load_tree(constant_tree_doc(0), bits2_domain)
        prop = SafetyProperty(parse_predicate("true", bits2_domain), frozenset({1}))
        report = safety(tree, prop, bits2_domain)
        assert report.accuracy == 0
        assert report.sat_count == 0

    def test_two_feature_example(self, bits2_domain):
        # model: label 1 iff f0 = 0; Pre: f0 <= 0; Post: {1}
        tree = load_tree(
            {"num_labels": 2, "root": 0,
             "nodes": [{"feature": 0, "threshold": 0, "left": 1, "right": 2},
                       {"leaf": 1}, {"leaf": 0}]},
            bits2_domain,
        )
        prop = SafetyProperty(parse_predicate("f0 <= 0", bits2_domain), frozenset({1}))
        report = safety(tree, prop, bits2_domain)
        assert (report.sat_count, report.viol_count) == (2, 0)
        assert report.pre_size == 2

    def test_vacuous_property(self, bits2_domain, xor_tree):
        prop = SafetyProperty(
            parse_predicate("f0 <= 0 && f0 >= 1", bits2_domain), frozenset({1})
        )
        report = safety(xor_tree, prop, bits2_domain)
        assert report.vacuous is True
        assert report.pre_size == 0
        assert report.accuracy is None
        doc = safety_to_document(report)
        assert doc["vacuous"] is True
        assert doc["accuracy"] == "undefined"

    def test_sat_plus_viol_equals_pre(self, bits2_domain, xor_tree):
        prop = SafetyProperty(parse_predicate("f1 >= 1", bits2_domain), frozenset({0}))
        report = safety(xor_tree, prop, bits2_domain)
        assert report.sat_count + report.viol_count == report.pre_size


class TestRobustness:
    def test_constant_classifier_fully_robust(self):
        dom = make_domain([(0, 255)] * 3)
        tree = load_tree(constant_tree_doc(1), dom)
        report = robustness(tree, (10, 20, 30), 5, dom)
        assert report.robustness == 1
        assert report.correct_count == report.region_size

    def test_epsilon_zero(self, bits2_domain, xor_tree):
        report = robustness(xor_tree, (1, 0), 0, bits2_domain)
        assert report.robustness == 1
        assert report.region_size == 1

    def test_xor_tree_half_robust(self, bits2_domain, xor_tree):
        report = robustness(xor_tree, (0, 0), 1, bits2_domain)
        assert report.target_label == 0
        assert report.region_size == 4
        assert report.correct_count == 2
        assert report.robustness == Fraction(1, 2)

    def test_matches_oracle(self):
        rng = random.Random(332)
        dom = make_domain([(0, 15)] * 3)
        tree = random_tree(rng, dom, num_labels=3, max_depth=5)
        for _ in range(5):
            center = tuple(rng.randint(0, 15) for _ in range(3))
            report = robustness(tree, center, 2, dom)
            size, correct = brute_robustness(tree, center, region(center, 2, dom), dom)
            assert report.region_size == size
            assert report.correct_count == correct


@pytest.fixture
def dom():
    return make_domain([(0, 15), (0, 15)])


@pytest.fixture
def net(dom):
    """Label 0 iff f0 >= f1: undecided on `dom`, decided on many boxes in it."""
    return load_network(
        {"layers": [{"weights": [[1, -1], [0, 0]], "biases": [0, 0], "activation": "none"}]},
        dom,
    )


def _never(circuit, roots):
    raise AssertionError(f"counted {sorted(roots)}")


def _pre_only(circuit, roots):
    decision = [wire for name, wire in circuit.outputs.items() if name.startswith("model_")]
    if set(roots) != {"pre"} or any(circuit.const_value(wire) is None for wire in decision):
        raise AssertionError(f"counted {sorted(roots)} on a circuit with the network")
    return count_roots(circuit, roots)


class TestIntervalDecided:
    """A decision that interval bounds decide is counted without the network.

    The net decides label 0 iff f0 >= f1; both reports must equal those of
    the compiled path, which the patched `bound_label` forces.
    """

    @staticmethod
    def _compiled_path(monkeypatch, metric, *args):
        with monkeypatch.context() as patch:
            patch.setattr(exactml.metrics, "bound_label", lambda model, domain: None)
            return metric(*args)

    def test_robustness(self, monkeypatch, dom, net):
        ball = region((12, 2), 2, dom)
        assert interval_label(net, ball) == 0
        report = robustness(net, (12, 2), 2, dom, count_fn=_never)
        assert (report.correct_count, report.robustness) == (25, 1)
        compiled = self._compiled_path(monkeypatch, robustness, net, (12, 2), 2, dom)
        assert report == compiled
        assert robustness_to_document(report) == robustness_to_document(compiled)

    @pytest.mark.parametrize("allowed, counts", [({0}, (25, 25, 0)), ({1}, (25, 0, 25))])
    def test_safety(self, monkeypatch, dom, net, allowed, counts):
        prop = SafetyProperty(
            parse_predicate("f0 >= 10 && f1 <= 4 && f0 != 12", dom), frozenset(allowed)
        )
        report = safety(net, prop, dom, count_fn=_pre_only)
        assert (report.pre_size, report.sat_count, report.viol_count) == counts
        assert bound_label(net, bounding_box(prop.pre, dom)) == 0
        compiled = self._compiled_path(monkeypatch, safety, net, prop, dom)
        assert report == compiled
        assert safety_to_document(report) == safety_to_document(compiled)

    def test_an_open_decision_still_compiles_the_network(self, dom, net):
        prop = SafetyProperty(parse_predicate("f0 >= 10", dom), frozenset({0}))
        with pytest.raises(AssertionError, match="with the network"):
            safety(net, prop, dom, count_fn=_pre_only)
        with pytest.raises(AssertionError, match="counted"):
            robustness(net, (12, 12), 1, dom, count_fn=_never)
        assert bound_label(net, region((12, 12), 1, dom)) is None

    def test_an_exhausted_pre_leaves_the_constant_count(self, dom, net):
        # a Pre that is its own bounding box would fold to a constant there
        prop = SafetyProperty(
            parse_predicate("f0 >= 10 && f1 <= 4 && f0 != 12", dom), frozenset({0})
        )
        exhausted = {"pre": CountResult(None, "table", {})}
        report = safety(net, prop, dom, count_fn=lambda circuit, roots: exhausted)
        assert (report.pre_size, report.sat_count, report.viol_count) == (None, None, 0)
        assert report.gaps == ("pre: budget exhausted", "sat: budget exhausted")


def _equals_oracle(report, model, truth, dom):
    want = brute_learnability(model, truth, dom).counts
    return all(
        getattr(m, kind) == want[(m.label, kind)]
        for m in report.labels
        for kind in ("tp", "fp", "tn", "fn")
    )


class TestCountOver:
    """`count_over`: constants never reach the counter, and each wire reaches it once."""

    @staticmethod
    def _recording(calls, exhaust=()):
        def count_fn(circuit, roots):
            calls.append(list(roots))
            results = count_roots(circuit, roots)
            for name in exhaust:
                results[name] = CountResult(None, "table", {})
            return results
        return count_fn

    def test_a_constant_root_never_reaches_the_counter(self, dom, net):
        def roots_of(circuit):
            return {"all": circuit.const(True), "none": circuit.const(False),
                    "model": circuit.output("model_0")}

        calls = []
        results, label = count_over(net, dom, roots_of, self._recording(calls))
        assert (calls, label) == ([["model"]], None)
        assert results["all"] == CountResult(256, "constant", {})
        assert results["none"] == CountResult(0, "constant", {})
        assert results["model"].count == 136
        constants, _ = count_over(net, dom, lambda c: {"all": c.const(True)}, _never)
        assert constants["all"].count == 256

    def test_roots_on_one_wire_reach_the_counter_once(self, dom, net):
        # model_1 is not model_0 and truth_0 is not truth_1, so the 8 cells are 4 wires
        truth = binary_truth(parse_predicate("f0 <= 7", dom))
        calls = []
        report = learnability(net, truth, dom, count_fn=self._recording(calls))
        assert calls == [["tp:0", "fp:0", "tn:0", "fn:0"]]
        assert _equals_oracle(report, net, truth, dom)

    def test_an_exhausted_shared_wire_is_a_gap_under_every_name(self, dom, net):
        truth = binary_truth(parse_predicate("f0 <= 7", dom))
        report = learnability(net, truth, dom, count_fn=self._recording([], exhaust=("tp:0",)))
        assert report.gaps == ("label 0 tp: budget exhausted", "label 1 tn: budget exhausted")
        assert (report.labels[0].tp, report.labels[1].tn) == (None, None)
        assert report.labels[0].fp is not None

    def test_results_come_back_in_roots_order(self, dom, net):
        def roots_of(circuit):
            model = circuit.output("model_0")
            return {"b": model, "const": circuit.const(False), "a": circuit.not_(model),
                    "c": model}

        def reversed_counts(circuit, roots):
            return dict(reversed(count_roots(circuit, roots).items()))

        results, _ = count_over(net, dom, roots_of, reversed_counts)
        assert list(results) == ["b", "const", "a", "c"]
        assert [r.count for r in results.values()] == [136, 0, 120, 136]

    def test_learnability_of_a_net_too_wide_to_compile(self):
        # interval bounds decide label 0 on the domain, so nothing is compiled
        dom = make_domain([(1, 15), (1, 15)])
        doc = {"input_width": 2,
               "layers": [{"weights": [[2**62, 2**62], [1, 1]], "biases": [0, 0],
                           "activation": "none", "post_shift": 0}]}
        net = load_network(doc, dom)
        with pytest.raises(WidthOverflowError):
            compile_model(net, dom)
        truth = binary_truth(parse_predicate("f0 <= f1", dom))
        report = learnability(net, truth, dom)
        assert _equals_oracle(report, net, truth, dom) and bound_label(net, dom) == 0


def _sample_exhaustively(monkeypatch):
    """Make every metric's baseline sample without replacement."""
    sample = exactml.metrics.statistical_baseline
    monkeypatch.setattr(exactml.metrics, "statistical_baseline",
                        lambda *a, **kw: sample(*a, **kw, with_replacement=False))


class TestStatisticalBaseline:
    def test_exhaustive_sampling_equals_exact(self, monkeypatch, bits2_domain, xor_tree):
        _sample_exhaustively(monkeypatch)
        report = robustness(xor_tree, (0, 0), 1, bits2_domain, samples=4)
        assert report.baseline == Baseline(4, 0, Fraction(1, 2))
        assert report.robustness == Fraction(1, 2)

    def test_constant_classifier_estimate_is_one(self):
        dom = make_domain([(0, 7)] * 2)
        tree = load_tree(constant_tree_doc(0), dom)
        for seed in (0, 1, 2, 99):
            report = robustness(tree, (3, 3), 2, dom, samples=50, seed=seed)
            assert report.baseline == Baseline(50, seed, Fraction(1))

    def test_frozen_seed_estimate(self, bits2_domain, xor_tree):
        est = robustness(xor_tree, (0, 0), 1, bits2_domain, samples=10000, seed=0).baseline.estimate
        assert est == Fraction(312, 625)  # 0.4992, within 0.05 of the exact 0.5
        assert abs(est - Fraction(1, 2)) < Fraction(5, 100)

    def test_learnability_accuracy_exhaustive(self, monkeypatch):
        _sample_exhaustively(monkeypatch)
        dom = make_domain([(0, 1)] * 4)
        rng = random.Random(4)
        tree = random_tree(rng, dom, num_labels=2)
        truth = truth_family(rng, dom, 2)
        report = learnability(tree, truth, dom, samples=16)
        assert report.baseline.estimate == report.labels[1].accuracy

    def test_no_samples_no_baseline(self, dom, net):
        prop = SafetyProperty(parse_predicate("f0 >= 8", dom), frozenset({0}))
        for report in (learnability(net, binary_truth(prop.pre), dom), safety(net, prop, dom),
                       robustness(net, (12, 12), 2, dom)):
            assert report.baseline is None

    def test_a_decided_ball_evaluates_the_model_nowhere(self, monkeypatch, dom, net):
        calls = []

        def counting(fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)
            return wrapper

        for name in ("eval_model", "eval_unchecked"):
            monkeypatch.setattr(exactml.metrics, name, counting(getattr(exactml.metrics, name)))
        # the evaluations that 50 samples add; the open ball reuses the
        # center's label from the exact count
        for center, decided, evaluations in (((12, 2), True, 0), ((12, 12), False, 50)):
            assert (bound_label(net, region(center, 2, dom)) is not None) == decided
            calls.clear()
            robustness(net, center, 2, dom)
            exact_only = len(calls)
            calls.clear()
            est = robustness(net, center, 2, dom, samples=50).baseline.estimate
            assert len(calls) - exact_only == evaluations
            assert (est == 1) == decided

    def test_samples_are_drawn_as_they_are_scored(self, dom):
        # what is left to trace with a constant outcome is the sampler: a
        # list of the 50,000 draws is 400 KB
        tracemalloc.start()
        try:
            est = statistical_baseline(dom, lambda point: True, n_samples=50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est == 1
        assert peak < 64 * 1024

    def test_safety_accuracy_estimate(self, monkeypatch, bits2_domain, xor_tree):
        _sample_exhaustively(monkeypatch)
        prop = SafetyProperty(parse_predicate("true", bits2_domain), frozenset({0, 1}))
        assert safety(xor_tree, prop, bits2_domain, samples=4).baseline.estimate == 1
        # a sample outside Pre is not scored: label 1 holds on one of the two
        # points with f0 = 0
        prop = SafetyProperty(parse_predicate("f0 <= 0", bits2_domain), frozenset({1}))
        report = safety(xor_tree, prop, bits2_domain, samples=4)
        assert report.baseline.estimate == report.accuracy == Fraction(1, 2)


class TestReportDocuments:
    def test_fraction_rendering(self):
        assert render_fraction(None) == "undefined"
        assert render_fraction(Fraction(1, 3)) == {"fraction": "1/3", "decimal": "0.3333"}
        # round-half-even at the 4th place: 0.00005 -> 0.0000, 0.00015 -> 0.0002
        assert render_fraction(Fraction(5, 100000))["decimal"] == "0.0000"
        assert render_fraction(Fraction(15, 100000))["decimal"] == "0.0002"

    def test_stable_field_order(self, bits2_domain, xor_tree):
        import json

        report = robustness(xor_tree, (0, 0), 1, bits2_domain)
        a = json.dumps(robustness_to_document(report))
        b = json.dumps(robustness_to_document(robustness(xor_tree, (0, 0), 1, bits2_domain)))
        assert a == b
