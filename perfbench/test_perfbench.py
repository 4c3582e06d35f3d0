"""Tests of the benchmark itself: pinned metric names, smoke runs, the gate."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import exactml.cnf
import exactml.counter
from perfbench import run, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {
    "wall_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "decided_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "counter.count_s": "s",
    "counter.calls": "count",
    "counter.decisions": "count",
    "counter.propagations": "count",
    "counter.exhausted": "count",
    "counter.models_per_decision": "ratio",
    "circuit.compile_s": "s",
    "circuit.gates": "count",
    "circuit.input_bits": "count",
    "cnf.tseitin_s": "s",
    "cnf.tseitin_calls": "count",
    "cnf.vars": "count",
    "cnf.clauses": "count",
    "cnf.emit_s": "s",
    "cnf.dimacs_bytes": "bytes",
    "cli.calls": "count",
    "cli.self_s": "s",
    "models.load_s": "s",
    "predicates.build_s": "s",
    "models.eval_calls": "count",
    "models.eval_s": "s",
    "metrics.self_s": "s",
    "metrics.baseline_s": "s",
    "metrics.baseline_samples": "count",
    "oracle.check_s": "s",
    "trace.overhead_s": "s",
    "cli.share": "%",
    "models.share": "%",
    "predicates.share": "%",
    "circuit.share": "%",
    "cnf.share": "%",
    "counter.share": "%",
    "metrics.share": "%",
}


def test_metric_names_and_units_are_pinned():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert run.END_TO_END_UNITS == END_TO_END
    assert run.PER_LAYER_UNITS == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_percentile_is_nearest_rank():
    values = list(range(1, 21))
    assert run.percentile(values, 0.5) == 10
    assert run.percentile(values, 0.9) == 18
    assert run.percentile([3.0], 0.9) == 3.0


def test_depth_tree_has_fixed_depth_and_size():
    for seed in range(20):
        doc = workloads.depth_tree(random.Random(seed), 16, 6, 8)
        assert len(doc["nodes"]) == 2 * 8 + 1

        def depth(i):
            node = doc["nodes"][i]
            return 0 if "leaf" in node else 1 + max(depth(node["left"]), depth(node["right"]))

        assert depth(0) == 6


def _run_script(cwd: Path, workload: str, trace: int, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_by_name_and_unit(workload, trace):
    proc = _run_script(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(l.split()[:1] == [name] and l.split()[-1] == unit for l in lines), name
    if trace:
        assert any(l.startswith("layers: ") for l in lines)
        if workload == "emit-net":
            assert result["metrics"]["counter.calls"]["value"] == 0
    elif workload == "graph-learn":
        assert 0 < result["metrics"]["decided_ratio"]["value"] < 1  # the budget gap


def _digest_run(workload: str, seed: int) -> tuple[dict, str]:
    lines: list[str] = []
    result = run.run_workload(workload, seed, 0.1, False, "smoke", log=lines.append)
    return result, next(l for l in lines if l.startswith("digest "))


def test_same_seed_gives_identical_outputs_and_another_seed_other_inputs(tmp_path):
    first, digest = _digest_run("emit-net", 5)
    again, digest_again = _digest_run("emit-net", 5)
    other, digest_other = _digest_run("emit-net", 6)
    assert digest == digest_again != digest_other
    assert set(first["metrics"]) == set(other["metrics"])
    inputs = {}
    for seed in (5, 5, 6):
        work = tmp_path / f"seed{seed}-{len(inputs)}"
        work.mkdir()
        workloads.build("net-local", seed, work, "smoke")
        inputs[work.name] = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    a, b, c = inputs.values()
    assert a == b and a != c


def _off_by_one(original):
    def count(cnf, **kwargs):
        result = original(cnf, **kwargs)
        if not result.exhausted:
            result.count += 1
        return result

    return count


@pytest.mark.parametrize("workload", ["graph-learn", "net-local"])
def test_a_wrong_count_trips_the_gate(monkeypatch, capsys, workload):
    monkeypatch.setattr(exactml.counter, "count_projected", _off_by_one(exactml.counter.count_projected))
    result = run.run_workload(workload, 1, 0.1, False, "smoke", log=lambda line: None)
    assert result["correct"] is False
    assert "gate: " in capsys.readouterr().err


def test_a_wrong_formula_trips_the_gate(monkeypatch, capsys):
    original = exactml.cnf.tseitin

    def negated_root(circuit, root):
        formula = original(circuit, root)
        clauses = formula.clauses[:-1] + (tuple(-lit for lit in formula.clauses[-1]),)
        return exactml.cnf.CnfFormula(formula.num_vars, clauses, formula.projection)

    monkeypatch.setattr(exactml.cnf, "tseitin", negated_root)
    result = run.run_workload("emit-net", 1, 0.1, False, "smoke", log=lambda line: None)
    assert result["correct"] is False
    assert "probe at" in capsys.readouterr().err


def test_fails_without_a_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run_script(tmp_path, "emit-net", 0, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
