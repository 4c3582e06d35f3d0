"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
live). The randomized model suite and its pipeline/oracle counts are built
once per session and shared by criteria 2 through 5 and 8.
"""

import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import pytest

from exactml.circuit import (
    Circuit,
    compile_model,
    compile_predicate,
    constrain_region,
    partial_evaluate,
)
from exactml.cli import main as cli_main
from exactml.cnf import tseitin
from exactml.counter import probe_functional_extension
from exactml.metrics import learnability_roots, safety, statistical_baseline
from exactml.models import eval_model, load_tree
from exactml.oracle import (
    brute_learnability,
    brute_robustness,
    enumerate_domain,
)
from exactml.predicates import (
    SafetyProperty,
    builtin_graph_property,
    graph_domain,
    region,
)

from conftest import make_domain, random_predicate, reflexive_tree_doc
from reference_counters import count_enumerate, count_projected


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] {title}: FAIL")
        raise
    print(f"\n[criterion {num}] {title}: PASS")


# ---------------------------------------------------------------------------
# Shared suite results
# ---------------------------------------------------------------------------

@dataclass
class InstanceResult:
    instance: object
    circuit: Circuit
    formulas: dict = field(default_factory=dict)  # (label, kind) -> CnfFormula
    pipeline: dict = field(default_factory=dict)  # (label, kind) -> count
    oracle: dict = field(default_factory=dict)


@pytest.fixture(scope="session")
def suite_results(model_suite):
    results = []
    elapsed = 0.0
    for inst in model_suite:
        start = time.perf_counter()
        circ = compile_model(inst.model, inst.domain)
        roots = learnability_roots(circ, inst.truth)
        res = InstanceResult(inst, circ)
        for l in range(inst.model.num_labels):
            for kind in ("tp", "fp", "tn", "fn"):
                formula = tseitin(circ, roots[f"{kind}:{l}"])
                res.formulas[(l, kind)] = formula
                outcome = count_projected(formula)
                assert not outcome.exhausted
                res.pipeline[(l, kind)] = outcome.count
        res.oracle = brute_learnability(inst.model, inst.truth, inst.domain).counts
        elapsed += time.perf_counter() - start
        results.append(res)
    return results, elapsed


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_graph_property_analytic_counts():
    with criterion(1, "graph-property analytic counts at 4 nodes"):
        expected = {"reflexive": 4096, "irreflexive": 4096, "antisymmetric": 11664}
        dom = graph_domain(4)
        for name, want in expected.items():
            start = time.perf_counter()
            circ = Circuit(dom)
            wire = compile_predicate(circ, builtin_graph_property(name, 4), "t")
            got = count_projected(tseitin(circ, wire)).count
            took = time.perf_counter() - start
            assert got == want, f"{name}: got {got}, want {want}"
            assert took < 10.0, f"{name} took {took:.1f}s"


def test_criterion_2_oracle_equivalence_suite(model_suite, suite_results):
    with criterion(2, "oracle equivalence on randomized trees and networks"):
        results, elapsed = suite_results
        trees = [r for r in results if r.instance.kind == "tree"]
        nets = [r for r in results if r.instance.kind == "network"]
        assert len(trees) >= 20 and len(nets) >= 10
        for res in results:
            assert res.circuit.num_input_bits <= 16
            for key, count in res.pipeline.items():
                assert count == res.oracle[key], (res.instance.name, key)
        assert elapsed < 300.0, f"suite took {elapsed:.0f}s"


def test_criterion_3_partition_identities(suite_results):
    with criterion(3, "partition identities"):
        results, _ = suite_results
        rng = random.Random(90125)
        for res in results:
            size = res.instance.domain.size()
            labels = range(res.instance.model.num_labels)
            for l in labels:
                cells = [res.pipeline[(l, k)] for k in ("tp", "fp", "tn", "fn")]
                assert sum(cells) == size, (res.instance.name, l)
            assert sum(res.pipeline[(l, k)] for l in labels for k in ("tp", "fp")) == size
        # S + N = MC(Pre) on a few safety instances
        for res in results[::7]:
            inst = res.instance
            prop = SafetyProperty(random_predicate(rng, inst.domain), frozenset({0}))
            report = safety(inst.model, prop, inst.domain)
            assert report.sat_count + report.viol_count == report.pre_size


def test_criterion_4_counter_cross_validation(suite_results):
    with criterion(4, "count_projected equals count_enumerate on suite formulas"):
        results, _ = suite_results
        checked = 0
        for res in results:
            for key, formula in res.formulas.items():
                if len(formula.projection) <= 16:
                    assert count_enumerate(formula).count == res.pipeline[key], (
                        res.instance.name,
                        key,
                    )
                    checked += 1
        assert checked > 0


def test_criterion_5_tseitin_functional_extension(suite_results):
    with criterion(5, "unit propagation decides everything below the projection"):
        results, _ = suite_results
        rng = random.Random(55178)
        for res in results:
            formula = res.formulas[(1, "tp")]
            projection = sorted(formula.projection)
            assignments = [
                {v: rng.random() < 0.5 for v in projection} for _ in range(1000)
            ]
            for status in probe_functional_extension(formula, assignments):
                assert status in ("complete", "conflict"), res.instance.name


ROBUSTNESS_CENTERS = (
    (7, 2, 11, 5, 0, 15, 8, 3),
    (0, 0, 0, 0, 0, 0, 0, 0),
    (15, 15, 15, 15, 15, 15, 15, 15),
    (4, 12, 9, 1, 14, 6, 10, 2),
    (8, 8, 8, 8, 8, 8, 8, 8),
)


def _pixel_tree(dom):
    # thresholds sit next to the fixed centers so the eps=1 regions straddle them
    doc = {
        "num_labels": 3,
        "root": 0,
        "nodes": [
            {"feature": 0, "threshold": 7, "left": 1, "right": 2},
            {"feature": 3, "threshold": 5, "left": 3, "right": 4},
            {"feature": 5, "threshold": 14, "left": 5, "right": 6},
            {"leaf": 0},
            {"feature": 7, "threshold": 2, "left": 7, "right": 8},
            {"feature": 1, "threshold": 11, "left": 9, "right": 10},
            {"leaf": 2},
            {"leaf": 1},
            {"leaf": 2},
            {"leaf": 1},
            {"leaf": 0},
        ],
    }
    return load_tree(doc, dom)


def test_criterion_6_robustness_micro_benchmark():
    with criterion(6, "region counting equals oracle region enumeration"):
        dom = make_domain([(0, 15)] * 8, prefix="px")
        tree = _pixel_tree(dom)
        circ = compile_model(tree, dom)
        distinct = set()
        for center in ROBUSTNESS_CENTERS:
            reg = region(center, 1, dom)
            assert reg.size() <= 3**8
            target = eval_model(tree, center, dom)
            root = constrain_region(circ, circ.output(f"model_{target}"), reg)
            counted = count_projected(tseitin(circ, root)).count
            size, correct = brute_robustness(tree, center, reg, dom)
            assert counted == correct, center
            distinct.add((correct, size))
            exhaustive = statistical_baseline(
                reg, lambda point: eval_model(tree, point, dom) == target, n_samples=reg.size(),
                with_replacement=False,
            )
            assert exhaustive is not None
            assert exhaustive * size == correct, center
        # the benchmark must exercise non-trivial robustness values
        assert any(correct != size for correct, size in distinct)


def test_criterion_7_vacuous_property(tmp_path):
    with criterion(7, "vacuous precondition reported, not an error"):
        dom_doc = {"format_version": 1,
                   "features": [{"name": "f0", "lo": 0, "hi": 1},
                                {"name": "f1", "lo": 0, "hi": 1}]}
        (tmp_path / "dom.json").write_text(json.dumps(dom_doc))
        (tmp_path / "tree.json").write_text(json.dumps(
            {"format_version": 1, "kind": "decision_tree", "num_labels": 2,
             "root": 0, "nodes": [{"leaf": 0}]}))
        out = tmp_path / "vacuous.json"
        code = cli_main(["safety",
                         "--domain", str(tmp_path / "dom.json"),
                         "--model", str(tmp_path / "tree.json"),
                         "--pre", "f0 <= 0 && f0 >= 1", "--post", "1",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["vacuous"] is True
        assert doc["pre_size"] == 0  # exact counting still returns MC(Pre) = 0
        assert doc["accuracy"] == "undefined"


def test_criterion_8_partial_evaluation_shrinks_formulas(suite_results):
    with criterion(8, "partial evaluation strictly shrinks CNF, counts stay exact"):
        results, _ = suite_results
        # constant decision wires leave a one-clause CNF with nothing to shrink
        nets = [
            r
            for r in results
            if r.instance.kind == "network"
            and all(
                r.circuit.const_value(wire) is None
                for wire in r.circuit.outputs.values()
            )
        ]
        shrunk = 0
        for res in nets[:4]:
            inst = res.instance
            circ = res.circuit
            total_bits = circ.num_input_bits
            # fix whole features until >= 10% of the input bits are pinned
            fixed = {}
            pinned = 0
            for i, f in enumerate(inst.domain.features):
                if pinned * 10 >= total_bits:
                    break
                fixed[i] = (f.lo + f.hi) // 2
                pinned += f.bit_width
            assert pinned * 10 >= total_bits
            reduced = partial_evaluate(circ, fixed)
            labels = range(inst.model.num_labels)
            for l in labels:
                before = tseitin(circ, circ.output(f"model_{l}"))
                after = tseitin(reduced, reduced.output(f"model_{l}"))
                assert after.num_vars < before.num_vars, (inst.name, l)
                assert len(after.clauses) < len(before.clauses), (inst.name, l)
                got = count_projected(after).count
                want = sum(
                    1
                    for pt in enumerate_domain(reduced.domain)
                    if eval_model(inst.model, pt, inst.domain) == l
                )
                assert got == want, (inst.name, l)
            shrunk += 1
        assert shrunk >= 3


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical reports and DIMACS on repeated runs"):
        (tmp_path / "tree.json").write_text(json.dumps(reflexive_tree_doc(3)))
        commands = {
            "learn.json": ["learnability", "--domain", "graph3",
                           "--model", str(tmp_path / "tree.json"),
                           "--property", "reflexive", "--nodes", "3",
                           "--samples", "250", "--seed", "11"],
            "emit.cnf": ["emit", "--domain", "graph3",
                         "--model", str(tmp_path / "tree.json"),
                         "--property", "transitive", "--nodes", "3",
                         "--formula", "fn:1", "--dialect", "ind_comment"],
            "rob.json": ["robustness", "--domain", "graph3",
                         "--model", str(tmp_path / "tree.json"),
                         "--center", ",".join(["1"] * 9), "--epsilon", "1"],
        }
        for name, argv in commands.items():
            outputs = []
            for run_id in ("x", "y"):
                out = tmp_path / f"{run_id}_{name}"
                assert cli_main(argv + ["--out", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], name
