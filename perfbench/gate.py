"""Correctness gate: checks each query's output against an independent reference.

Runs outside the timed section. Graph4 and net counts are compared with
``exactml.oracle`` (direct evaluation of the reference semantics, never
circuits or CNF) or with an enumeration of the Pre box; graph5 counts,
whenever decided, must satisfy the partition identities and the known number
of transitive relations. Emitted DIMACS is parsed back and probed at seeded
points with unit propagation, and the verdict compared with ``eval_model``.

``check`` returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from exactml import cnf, counter, metrics, models, oracle, predicates

from .workloads import TRANSITIVE_COUNTS, Query

KINDS = ("tp", "fp", "tn", "fn")


def check(query: Query, exit_code, output: bytes) -> list[str]:
    """Problems with `output`, the file `query` wrote, given its exit code."""
    checker = _CHECKERS[query.kind]
    allowed = (0, 2) if query.kind == "learn-gap" else (0,)
    if exit_code not in allowed:
        return [f"{query.name}: exit code {exit_code}, expected one of {allowed}"]
    try:
        return [f"{query.name}: {p}" for p in checker(query.spec, exit_code, output)]
    except (ValueError, KeyError, TypeError) as exc:  # malformed output
        return [f"{query.name}: unreadable output ({type(exc).__name__}: {exc})"]


def _fraction(rendered) -> Fraction | None:
    if rendered == "undefined":
        return None
    return Fraction(rendered["fraction"])


def _cells(report: dict) -> dict:
    return {(entry["label"], kind): entry[kind] for entry in report["labels"] for kind in KINDS}


def _check_learn(spec, exit_code, output) -> list[str]:
    n = spec["nodes"]
    domain = predicates.graph_domain(n)
    model = models.load_model(spec["model"], domain)
    truth = metrics.binary_truth(predicates.builtin_graph_property(spec["property"], n))
    want = oracle.brute_learnability(model, truth, domain)
    report = json.loads(output)
    got = _cells(report)
    problems = []
    if report["domain_size"] != want.domain_size:
        problems.append(f"domain_size {report['domain_size']} != {want.domain_size}")
    for key, count in sorted(want.counts.items()):
        if got.get(key) != count:
            problems.append(f"label {key[0]} {key[1]}: {got.get(key)} != oracle {count}")
    for entry in report["labels"]:
        label = entry["label"]
        want_acc = Fraction(want.counts[(label, "tp")] + want.counts[(label, "tn")], want.domain_size)
        if _fraction(entry["accuracy"]) != want_acc:
            problems.append(f"label {label} accuracy {entry['accuracy']} != {want_acc}")
    if report["gaps"]:
        problems.append(f"unexpected gaps {report['gaps']}")
    if spec["property"] == "transitive" and not problems:
        if got[(1, "tp")] + got[(1, "fn")] != TRANSITIVE_COUNTS[n]:
            problems.append(f"transitive relations {got[(1, 'tp')] + got[(1, 'fn')]} != {TRANSITIVE_COUNTS[n]}")
    return problems


def _check_learn_gap(spec, exit_code, output) -> list[str]:
    """Budget-limited graph5 transitive query: decided cells obey the identities."""
    n = spec["nodes"]
    size = 1 << (n * n)
    report = json.loads(output)
    got = _cells(report)
    problems = []
    if report["domain_size"] != size:
        problems.append(f"domain_size {report['domain_size']} != {size}")
    undecided = sorted(key for key, count in got.items() if count is None)
    named = all(any(f"label {l} {k}" in gap for gap in report["gaps"]) for l, k in undecided)
    if not named or len(report["gaps"]) != len(undecided):
        problems.append(f"gaps {report['gaps']} do not name the null cells {undecided}")
    if (exit_code == 2) != bool(undecided):
        problems.append(f"exit code {exit_code} with {len(undecided)} null cells")
    for key, count in got.items():
        if count is not None and not 0 <= count <= size:
            problems.append(f"label {key[0]} {key[1]}: {count} outside [0, {size}]")

    def holds(keys, total):
        values = [got[k] for k in keys]
        if None not in values and sum(values) != total:
            problems.append(f"{'+'.join(f'{l}.{k}' for l, k in keys)} = {sum(values)} != {total}")

    trans = TRANSITIVE_COUNTS[n]
    holds([(1, "tp"), (1, "fn")], trans)
    holds([(1, "fp"), (1, "tn")], size - trans)
    holds([(0, "fp"), (0, "tn")], trans)
    holds([(0, "tp"), (0, "fn")], size - trans)
    # label 0 is the complement of label 1 for both the tree and the truth
    for mine, other in (("tp", "tn"), ("tn", "tp"), ("fp", "fn"), ("fn", "fp")):
        a, b = got[(0, mine)], got[(1, other)]
        if a is not None and b is not None and a != b:
            problems.append(f"label 0 {mine} {a} != label 1 {other} {b}")
    return problems


def _box_points(box):
    return itertools.product(*(range(lo, hi + 1) for lo, hi in box))


def _check_robust(spec, exit_code, output) -> list[str]:
    domain = models.load_domain(spec["domain"])
    model = models.load_model(spec["model"], domain)
    center, eps = tuple(spec["center"]), spec["epsilon"]
    box = [(max(f.lo, c - eps), min(f.hi, c + eps)) for f, c in zip(domain.features, center)]
    size, correct = oracle.brute_robustness(model, center, predicates.region(center, eps, domain), domain)
    report = json.loads(output)
    problems = []
    box_size = 1
    for lo, hi in box:
        box_size *= hi - lo + 1
    if size != box_size:
        problems.append(f"region of {size} points, the L-inf box has {box_size}")
    expected = {
        "target_label": models.eval_model(model, center, domain),
        "center": list(center),
        "epsilon": eps,
        "region_size": size,
        "correct_count": correct,
        "gaps": [],
    }
    for key, value in expected.items():
        if report.get(key) != value:
            problems.append(f"{key} {report.get(key)} != {value}")
    if _fraction(report["robustness"]) != Fraction(correct, size):
        problems.append(f"robustness {report['robustness']} != {Fraction(correct, size)}")
    baseline = report["statistical_baseline"]
    estimate = _fraction(baseline["estimate"])
    if baseline["n_samples"] != spec["samples"] or baseline["seed"] != metrics.DEFAULT_SEED:
        problems.append(f"baseline settings {baseline}")
    elif estimate is None or not 0 <= estimate <= 1 or spec["samples"] % estimate.denominator:
        problems.append(f"baseline estimate {baseline['estimate']} is not k/{spec['samples']}")
    return problems


def _check_safety(spec, exit_code, output) -> list[str]:
    domain = models.load_domain(spec["domain"])
    model = models.load_model(spec["model"], domain)
    sat = viol = 0
    for point in _box_points(spec["box"]):
        if models.eval_model(model, point, domain) == spec["allowed"]:
            sat += 1
        else:
            viol += 1
    expected = {
        "pre_size": sat + viol,
        "sat_count": sat,
        "viol_count": viol,
        "vacuous": False,
        "gaps": [],
    }
    report = json.loads(output)
    problems = [f"{k} {report.get(k)} != {v}" for k, v in expected.items() if report.get(k) != v]
    if _fraction(report["accuracy"]) != Fraction(sat, sat + viol):
        problems.append(f"accuracy {report['accuracy']} != {Fraction(sat, sat + viol)}")
    return problems


def _assignment(domain, point) -> dict:
    """Projection variables of `point`: offset-binary bits, LSB first, feature order."""
    values = {}
    var = 1
    for f, v in zip(domain.features, point):
        for k in range(f.bit_width):
            values[var] = bool((v - f.lo) >> k & 1)
            var += 1
    return values


def _check_emit(spec, exit_code, output) -> list[str]:
    domain = models.load_domain(spec["domain"])
    model = models.load_model(spec["model"], domain)
    text = output.decode()
    formula = cnf.parse_dimacs(text)
    problems = []
    if cnf.emit_dimacs(formula) != text:
        problems.append("DIMACS does not round-trip through parse_dimacs")
    if formula.projection != frozenset(range(1, domain.bit_width() + 1)):
        problems.append("projection is not the input bits")
    want = []
    for point in spec["points"]:
        label = models.eval_model(model, point, domain)
        if spec["formula"] == "model":
            holds = label == spec["label"]
        else:
            inside = all(lo <= v <= hi for v, (lo, hi) in zip(point, spec["box"]))
            holds = inside and label != spec["allowed"]
        want.append("complete" if holds else "conflict")
    got = counter.probe_functional_extension(formula, [_assignment(domain, p) for p in spec["points"]])
    for point, w, g in zip(spec["points"], want, got):
        if w != g:
            problems.append(f"probe at {point}: {g}, reference semantics say {w}")
    return problems


_CHECKERS = {
    "learn": _check_learn,
    "learn-gap": _check_learn_gap,
    "robust": _check_robust,
    "safety": _check_safety,
    "emit": _check_emit,
}
