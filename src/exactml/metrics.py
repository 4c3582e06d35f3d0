"""Exact learnability, safety and robustness quantification.

Every metric counts through one seam, `count_over(model, domain, roots_of)`:
decide or compile the model over `domain`, build the metric's named roots
on that circuit, and count them. The roots builders (`learnability_roots`,
`safety_roots`, `robustness_roots`) read the circuit's `model_<l>` outputs
and compile nothing of the model: confusion-cell conjunctions of ground
truth and model decision, Pre conjoined with the (violated) post-condition,
and the target label inside the region. `exactml emit` builds the same
roots on a full-domain circuit, outside the seam.
Robustness and safety count over the property's box (the L-infinity region,
or the bounding box of Pre) instead of the whole domain: no input outside
the box can satisfy the root, so the counts are the same and the circuits
are smaller. Where one bound pass over a network's layers decides its
label on the whole domain (`circuit.bound_label`: integer intervals and
linear forms per unit, tested on the logits and on their differences),
the model is not compiled and its `model_<l>` outputs are constants. A
root that folds to a constant counts as the domain's size or 0, with the
method "constant", and reaches no counter; the other roots go to the
counter in one call, each wire once. A count is its number, or None where
the counter's budget ran out. `_gaps` alone turns None counts into the
report's gap strings, one per count in the order of the roots; a None
count leaves its cell `null` and its derived ratios undefined.
Derived ratios are exact rationals. Given `samples`, each metric also
puts in its report a seeded Monte-Carlo estimate of the same quantity, the
accuracy that testing on sampled data would measure: `statistical_baseline`
draws from the metric's own population (the domain, the domain scored only
where Pre holds, the ball) and scores each point with the metric's own
outcome. Where `count_over` decided the model's label, that label stands in
for the model, so a decided region costs no model evaluation and gives the
same estimate, and a decided ball draws nothing. A report whose counts
include one from an approximate external counter says so with
`"approximate": true`; no other report has the key. Each `*_to_document`
writes the whole report, the baseline last.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from . import bdd
from .circuit import Circuit, bound_label, compile_model, compile_predicate, constrain_region
from .cnf import CnfFormula, tseitin
from .counter import CountResult
from .models import InputDomain, Model, ModelError, eval_model, eval_unchecked
from .predicates import Not, Predicate, SafetyProperty, bounding_box, region

# count_fn(circuit, {name: root}) -> {name: CountResult}; each count ranges
# over the circuit's domain
CountFn = Callable[[Circuit, Mapping[str, int]], dict[str, CountResult]]

DEFAULT_SEED = 0


@dataclass
class LabelMetrics:
    label: int
    tp: Optional[int]
    fp: Optional[int]
    tn: Optional[int]
    fn: Optional[int]
    accuracy: Optional[Fraction] = None
    precision: Optional[Fraction] = None
    recall: Optional[Fraction] = None
    f1: Optional[Fraction] = None

    def complete(self) -> bool:
        return None not in (self.tp, self.fp, self.tn, self.fn)


@dataclass(frozen=True)
class Baseline:
    """A seeded Monte-Carlo estimate of a report's exact value; None if no sample scored."""
    n_samples: int
    seed: int
    estimate: Optional[Fraction]


# `approximate` is True when a count came from an approximate external
# counter; only then does the document carry `"approximate": true`.
# `baseline` is None unless the metric was asked for samples.

@dataclass
class MetricsReport:
    domain_size: int
    labels: tuple[LabelMetrics, ...]
    gaps: tuple[str, ...] = ()
    macro_f1: Optional[Fraction] = None
    approximate: bool = False
    baseline: Optional[Baseline] = None


@dataclass
class SafetyReport:
    pre_size: Optional[int]
    sat_count: Optional[int]
    viol_count: Optional[int]
    accuracy: Optional[Fraction]
    vacuous: bool
    gaps: tuple[str, ...] = ()
    approximate: bool = False
    baseline: Optional[Baseline] = None


@dataclass
class RobustnessReport:
    target_label: int
    region_size: int
    correct_count: Optional[int]
    robustness: Optional[Fraction]
    center: tuple[int, ...]
    epsilon: int
    gaps: tuple[str, ...] = ()
    approximate: bool = False
    baseline: Optional[Baseline] = None


def _derive(label: int, tp, fp, tn, fn, domain_size: int) -> LabelMetrics:
    m = LabelMetrics(label, tp, fp, tn, fn)
    if not m.complete():
        return m
    m.accuracy = Fraction(tp + tn, domain_size)
    # zero denominators stay undefined (None), never coerced to 0 or 1
    if tp + fp:
        m.precision = Fraction(tp, tp + fp)
    if tp + fn:
        m.recall = Fraction(tp, tp + fn)
    if m.precision is not None and m.recall is not None and (m.precision + m.recall):
        m.f1 = 2 * m.precision * m.recall / (m.precision + m.recall)
    return m


def binary_truth(pred: Predicate) -> dict[int, Predicate]:
    """Per-label ground truth for a binary problem: label 1 is `pred`."""
    return {1: pred, 0: Not(pred)}


def _approximate(results: Mapping[str, CountResult]) -> bool:
    return any(r.stats.get("tool") == "approximate" for r in results.values())


def _gaps(results: Mapping[str, CountResult], describe: Callable[[str], str] = str):
    """A gap for each count that ran out of budget, in `results` order."""
    return tuple(
        f"{describe(name)}: budget exhausted" for name, r in results.items() if r.count is None
    )


def tseitin_count_fn(count: Callable[[CnfFormula], CountResult]) -> CountFn:
    """A CNF counter behind the CountFn signature: one Tseitin formula per root."""
    return lambda circuit, roots: {name: count(tseitin(circuit, root)) for name, root in roots.items()}


def count_over(
    model: Model,
    domain: InputDomain,
    roots_of: Callable[[Circuit], Mapping[str, int]],
    count_fn: Optional[CountFn] = None,
) -> tuple[dict[str, CountResult], Optional[int]]:
    """Count the roots that `roots_of` builds on the model's circuit over `domain`.

    Where `bound_label` decides the model's label on `domain`, nothing of
    the model is compiled: its `model_<l>` outputs are constants. A root
    that folds to a constant counts as the domain's size or 0, with method
    "constant", and never reaches `count_fn`. Every other root goes to one
    `count_fn` call, each wire once, under the first name on it. Returns the
    results, in `roots` order, and the decided label (None if open).
    """
    label = bound_label(model, domain)
    if label is None:
        circuit = compile_model(model, domain)
    else:
        circuit = Circuit(domain)
        for l in range(model.num_labels):
            circuit.set_output(f"model_{l}", circuit.const(l == label))
    roots = roots_of(circuit)
    first: dict[int, str] = {}  # each wire to count -> the first name on it
    for name, wire in roots.items():
        if circuit.const_value(wire) is None:
            first.setdefault(wire, name)
    count_fn = count_fn or bdd.count_roots
    counted = count_fn(circuit, {name: wire for wire, name in first.items()}) if first else {}
    size = domain.size()
    results = {
        name: counted[first[wire]] if wire in first
        else CountResult(size if circuit.const_value(wire) else 0, "constant", {})
        for name, wire in roots.items()
    }
    return results, label


def learnability_roots(
    circuit: Circuit, truth_predicates: Mapping[int, Predicate]
) -> dict[str, int]:
    """The confusion cells `tp:L`, `fp:L`, `tn:L`, `fn:L` of every label L."""
    labels = sorted(truth_predicates)
    for l in labels:
        compile_predicate(circuit, truth_predicates[l], f"truth_{l}")
    cells = {}
    for l in labels:
        model, truth = circuit.output(f"model_{l}"), circuit.output(f"truth_{l}")
        cells[f"tp:{l}"] = circuit.and_(truth, model)
        cells[f"fp:{l}"] = circuit.and_(circuit.not_(truth), model)
        cells[f"tn:{l}"] = circuit.and_(circuit.not_(truth), circuit.not_(model))
        cells[f"fn:{l}"] = circuit.and_(truth, circuit.not_(model))
    return cells


def safety_roots(circuit: Circuit, prop: SafetyProperty) -> dict[str, int]:
    """`pre`, and Pre conjoined with Post (`sat`) and with its negation (`viol`)."""
    pre = compile_predicate(circuit, prop.pre, "pre")
    post = circuit.or_all([circuit.output(f"model_{l}") for l in sorted(prop.allowed)])
    return {
        "pre": pre,
        "sat": circuit.and_(pre, post),
        "viol": circuit.and_(pre, circuit.not_(post)),
    }


def robustness_roots(circuit: Circuit, target: int, region: InputDomain) -> dict[str, int]:
    """`robustness`: the target label inside the L-inf region.

    Over the region itself every feature spans its range, so the region
    constraint adds no gate there.
    """
    return {"robustness": constrain_region(circuit, circuit.output(f"model_{target}"), region)}


def _label_of(model: Model, decided: Optional[int]) -> Callable[[Sequence[int]], int]:
    """The model's label at a point of the counted region: `decided` where bounds proved it."""
    if decided is None:
        return lambda point: eval_unchecked(model, point)
    return lambda point: decided


def _baseline(
    population: InputDomain, outcome: Callable, samples: int, seed: int
) -> Optional[Baseline]:
    if not samples:
        return None
    return Baseline(
        samples, seed, statistical_baseline(population, outcome, n_samples=samples, seed=seed)
    )


def learnability(
    model: Model,
    truth_predicates: Mapping[int, Predicate],
    domain: InputDomain,
    count_fn: Optional[CountFn] = None,
    samples: int = 0,
    seed: int = DEFAULT_SEED,
) -> MetricsReport:
    """TP/FP/TN/FN over the whole domain for every label, plus derived ratios.

    The baseline estimates the overall accuracy: the share of sampled inputs
    whose predicted label's truth predicate holds.
    """
    labels = range(model.num_labels)
    if sorted(truth_predicates) != list(labels):
        raise ModelError(
            f"need one truth predicate per label {list(labels)}, got {sorted(truth_predicates)}"
        )
    results, decided = count_over(
        model, domain, lambda circuit: learnability_roots(circuit, truth_predicates), count_fn
    )
    label_of = _label_of(model, decided)
    baseline = _baseline(
        domain, lambda point: truth_predicates[label_of(point)].evaluate(point), samples, seed
    )

    size = domain.size()
    per_label = [
        _derive(l, *(results[f"{cell}:{l}"].count for cell in ("tp", "fp", "tn", "fn")), size)
        for l in labels
    ]
    macro = None
    f1s = [m.f1 for m in per_label]
    if all(f is not None for f in f1s):
        macro = sum(f1s, Fraction(0)) / len(f1s)
    # the cell "tp:1" is the gap "label 1 tp"
    gaps = _gaps(results, lambda name: "label {1} {0}".format(*name.split(":")))
    return MetricsReport(size, tuple(per_label), gaps, macro, _approximate(results), baseline)


def safety(
    model: Model,
    prop: SafetyProperty,
    domain: InputDomain,
    count_fn: Optional[CountFn] = None,
    samples: int = 0,
    seed: int = DEFAULT_SEED,
) -> SafetyReport:
    """Counts of Pre-inputs on which the decision does / does not meet Post.

    Counts range over the bounding box of Pre; an empty box is vacuous
    without compiling anything. The baseline samples the whole domain and
    scores the samples that satisfy Pre.
    """
    for label in prop.allowed:
        if not (0 <= label < model.num_labels):
            raise ModelError(f"allowed label {label} out of range")
    box = bounding_box(prop.pre, domain)
    if box is None:  # Pre holds nowhere: every count is 0
        empty = CountResult(0, "constant", {})
        results, decided = {"pre": empty, "sat": empty, "viol": empty}, None
    else:
        results, decided = count_over(
            model, box, lambda circuit: safety_roots(circuit, prop), count_fn
        )
    label_of = _label_of(model, decided)
    baseline = _baseline(
        domain,
        lambda point: label_of(point) in prop.allowed if prop.pre.evaluate(point) else None,
        samples, seed,
    )

    pre_size, sat, viol = (results[name].count for name in ("pre", "sat", "viol"))
    vacuous = pre_size == 0
    accuracy = None
    if not vacuous and sat is not None and viol is not None and sat + viol:
        accuracy = Fraction(sat, sat + viol)
    return SafetyReport(
        pre_size, sat, viol, accuracy, vacuous, _gaps(results), _approximate(results), baseline
    )


def robustness(
    model: Model,
    center: Sequence[int],
    epsilon: int,
    domain: InputDomain,
    count_fn: Optional[CountFn] = None,
    samples: int = 0,
    seed: int = DEFAULT_SEED,
) -> RobustnessReport:
    """Fraction of the L-inf ball around `center` classified like the center.

    The model is compiled over the ball itself, so its circuit reads only
    the bits that vary inside the ball. The baseline samples the ball.
    """
    target = eval_model(model, center, domain)
    ball = region(center, epsilon, domain)
    results, decided = count_over(
        model, ball, lambda circuit: robustness_roots(circuit, target, ball), count_fn
    )
    if samples and decided is not None:
        # every point of the ball takes the center's label: no sample to draw
        baseline = Baseline(samples, seed, Fraction(1))
    else:
        baseline = _baseline(
            ball, lambda point: eval_unchecked(model, point) == target, samples, seed
        )
    count = results["robustness"].count
    return RobustnessReport(
        target, ball.size(), count, None if count is None else Fraction(count, ball.size()),
        tuple(center), epsilon, _gaps(results), _approximate(results), baseline,
    )


# ---------------------------------------------------------------------------
# Statistical baseline
# ---------------------------------------------------------------------------

def _decode_point(domain: InputDomain, index: int) -> tuple[int, ...]:
    # lexicographic rank -> point (last feature varies fastest)
    values = []
    for f in reversed(domain.features):
        index, off = divmod(index, f.range_size)
        values.append(f.lo + off)
    return tuple(reversed(values))


def statistical_baseline(
    population: InputDomain,
    outcome: Callable[[tuple[int, ...]], Optional[bool]],
    n_samples: int,
    seed: int = DEFAULT_SEED,
    with_replacement: bool = True,
) -> Optional[Fraction]:
    """Seeded Monte-Carlo share of the points of `population` whose outcome is True.

    `outcome` is True, False, or None for a point it does not score.
    Sampling without replacement with n_samples covering the population is
    an exhaustive pass and reproduces the exact share. Returns None when no
    sample is scored.
    """
    rng = random.Random(seed)
    size = population.size()
    if with_replacement:
        # drawn as they are scored: a list would hold 8 bytes per sample
        indices = (rng.randrange(size) for _ in range(n_samples))
    elif n_samples >= size:
        indices = range(size)  # exhaustive
    else:
        indices = rng.sample(range(size), n_samples)
    hits = scored = 0
    for idx in indices:
        hit = outcome(_decode_point(population, idx))
        if hit is not None:
            scored += 1
            hits += hit
    return Fraction(hits, scored) if scored else None


# ---------------------------------------------------------------------------
# Report serialization (stable field order, decimal rendering at 4 places)
# ---------------------------------------------------------------------------

def render_fraction(value: Optional[Fraction]):
    if value is None:
        return "undefined"
    with localcontext() as ctx:
        ctx.prec = 50
        dec = Decimal(value.numerator) / Decimal(value.denominator)
        text = str(dec.quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))
    return {"fraction": f"{value.numerator}/{value.denominator}", "decimal": text}


def _finish_document(doc: dict, report) -> dict:
    """Add the keys every report document ends with: `approximate`, then the baseline."""
    if report.approximate:
        doc["approximate"] = True
    if report.baseline is not None:
        doc["statistical_baseline"] = {
            "n_samples": report.baseline.n_samples,
            "seed": report.baseline.seed,
            "estimate": render_fraction(report.baseline.estimate),
        }
    return doc


def metrics_to_document(report: MetricsReport) -> dict:
    return _finish_document({
        "format_version": 1,
        "report": "learnability",
        "domain_size": report.domain_size,
        "labels": [
            {
                "label": m.label,
                "tp": m.tp,
                "fp": m.fp,
                "tn": m.tn,
                "fn": m.fn,
                "accuracy": render_fraction(m.accuracy),
                "precision": render_fraction(m.precision),
                "recall": render_fraction(m.recall),
                "f1": render_fraction(m.f1),
            }
            for m in report.labels
        ],
        "macro_f1": render_fraction(report.macro_f1),
        "gaps": list(report.gaps),
    }, report)


def safety_to_document(report: SafetyReport) -> dict:
    return _finish_document({
        "format_version": 1,
        "report": "safety",
        "pre_size": report.pre_size,
        "sat_count": report.sat_count,
        "viol_count": report.viol_count,
        "accuracy": render_fraction(report.accuracy),
        "vacuous": report.vacuous,
        "gaps": list(report.gaps),
    }, report)


def robustness_to_document(report: RobustnessReport) -> dict:
    return _finish_document({
        "format_version": 1,
        "report": "robustness",
        "target_label": report.target_label,
        "center": list(report.center),
        "epsilon": report.epsilon,
        "region_size": report.region_size,
        "correct_count": report.correct_count,
        "robustness": render_fraction(report.robustness),
        "gaps": list(report.gaps),
    }, report)
