"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces each layer's public functions with timing
wrappers at the module attributes their callers look them up by: the
``exactml.<module>`` attribute that ``cli`` reaches through its module
aliases, and the copy that ``metrics`` imported by name. ``uninstall``
puts the originals back, so the timed run executes the unmodified program.

A span records its name, start, end, parent span and query id; spans stay in
memory and are written as JSON lines at the end. A layer's self time is the
duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import exactml.circuit
import exactml.cnf
import exactml.counter
import exactml.metrics
import exactml.models
import exactml.predicates

LAYERS = ("cli", "models", "predicates", "circuit", "cnf", "counter", "metrics")

_MODULES = {
    "models": exactml.models,
    "predicates": exactml.predicates,
    "circuit": exactml.circuit,
    "cnf": exactml.cnf,
    "counter": exactml.counter,
    "metrics": exactml.metrics,
}

# layer -> public functions; each is wrapped in its own module and, where it
# imported them by name, in ``exactml.metrics``
WRAPPED = {
    "models": ("load_domain", "load_model", "eval_model"),
    "predicates": ("graph_domain", "builtin_graph_property", "parse_predicate",
                   "load_safety_property", "region"),
    "circuit": ("compile_model", "compile_predicate", "compose_metric", "constrain_region"),
    "cnf": ("tseitin", "emit_dimacs"),
    "counter": ("count_projected",),
    "metrics": ("learnability", "safety", "robustness", "statistical_baseline",
                "metrics_to_document", "safety_to_document", "robustness_to_document"),
}


def _record_count(span, args, kwargs, result):
    span["decisions"] = result.stats.get("decisions", 0)
    span["propagations"] = result.stats.get("propagations", 0)
    span["exhausted"] = int(result.exhausted)
    span["models"] = 0 if result.exhausted else result.count


def _record_tseitin(span, args, kwargs, result):
    span["vars"] = result.num_vars
    span["clauses"] = len(result.clauses)


def _record_emit(span, args, kwargs, result):
    span["bytes"] = len(result.encode())


def _record_baseline(span, args, kwargs, result):
    span["samples"] = kwargs.get("n_samples", 0)


_RECORDERS = {
    "counter.count_projected": _record_count,
    "cnf.tseitin": _record_tseitin,
    "cnf.emit_dimacs": _record_emit,
    "metrics.statistical_baseline": _record_baseline,
}


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._circuits: list[tuple] = []
        self.query = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`; returns fn's result."""
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "query": self.query,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        recorder = _RECORDERS.get(name)
        if recorder:
            recorder(span, args, kwargs, result)
        if name == "circuit.compile_model":
            self._circuits.append((span, result))
        return result

    def end_query(self) -> None:
        """Record circuit sizes once the query has added all its gates."""
        for span, circ in self._circuits:
            span["gates"] = len(circ.gates)
            span["input_bits"] = circ.num_input_bits
        self._circuits.clear()

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for layer, names in WRAPPED.items():
            for fname in names:
                original = getattr(_MODULES[layer], fname, None)
                if original is None:
                    continue  # renamed or removed: that span reads zero
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in (_MODULES[layer], exactml.metrics):
                    if getattr(module, fname, None) is original:
                        self._saved.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, fname, original = self._saved.pop()
            setattr(module, fname, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced round, from its spans."""
    child_time: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    self_time = dict.fromkeys(LAYERS, 0.0)
    total: dict = {}
    sums: dict = {}
    calls: dict = {}
    for s in spans:
        duration = s["end"] - s["start"]
        layer = s["name"].split(".")[0]
        self_time[layer] += duration - child_time.get(s["id"], 0.0)
        total[s["name"]] = total.get(s["name"], 0.0) + duration
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        for key in ("decisions", "propagations", "exhausted", "models", "vars", "clauses",
                    "bytes", "samples", "gates", "input_bits"):
            if key in s:
                sums[key] = sums.get(key, 0) + s[key]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def layer_time(layer):
        return sum(v for k, v in total.items() if k.startswith(layer + "."))

    query_time = t("cli.main")
    out = {
        "counter.count_s": t("counter.count_projected"),
        "counter.calls": calls.get("counter.count_projected", 0),
        "counter.decisions": sums.get("decisions", 0),
        "counter.propagations": sums.get("propagations", 0),
        "counter.exhausted": sums.get("exhausted", 0),
        "counter.models_per_decision": sums.get("models", 0) / sums["decisions"] if sums.get("decisions") else 0.0,
        "circuit.compile_s": layer_time("circuit"),
        "circuit.gates": sums.get("gates", 0),
        "circuit.input_bits": sums.get("input_bits", 0),
        "cnf.tseitin_s": t("cnf.tseitin"),
        "cnf.tseitin_calls": calls.get("cnf.tseitin", 0),
        "cnf.vars": sums.get("vars", 0),
        "cnf.clauses": sums.get("clauses", 0),
        "cnf.emit_s": t("cnf.emit_dimacs"),
        "cnf.dimacs_bytes": sums.get("bytes", 0),
        "cli.calls": calls.get("cli.main", 0),
        "cli.self_s": self_time["cli"],
        "models.load_s": t("models.load_domain", "models.load_model"),
        "predicates.build_s": layer_time("predicates"),
        "models.eval_calls": calls.get("models.eval_model", 0),
        "models.eval_s": t("models.eval_model"),
        "metrics.self_s": self_time["metrics"],
        "metrics.baseline_s": t("metrics.statistical_baseline"),
        "metrics.baseline_samples": sums.get("samples", 0),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = 100.0 * self_time[layer] / query_time if query_time else 0.0
    return out


def median_metrics(rounds: list[dict]) -> dict:
    """Lower median of each metric over traced rounds (counts repeat exactly)."""
    return {key: statistics.median_low(r[key] for r in rounds) for key in rounds[0]}
