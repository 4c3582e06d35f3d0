"""Brute-force enumeration oracle.

Evaluates models and predicates directly through their reference semantics,
never through circuits or CNF, so its counts are an independent ground truth
for the counting pipeline. `brute_count_root` is the one deliberate
exception: it simulates a circuit, which is exactly the differential check
the tests want.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .models import InputDomain, Model, ModelError, eval_model
from .predicates import Predicate, validate_predicate

ENUMERATION_CAP = 1 << 24


class OracleCapError(ValueError):
    """The requested enumeration exceeds the configured cap."""


@dataclass
class OracleReport:
    domain_size: int
    counts: dict  # (label, kind) -> count
    fingerprint: str


def enumerate_domain(domain: InputDomain) -> Iterator[tuple[int, ...]]:
    """All domain points in lexicographic feature order (last feature fastest)."""
    return itertools.product(*(range(f.lo, f.hi + 1) for f in domain.features))


def _check_cap(size: int, cap: int) -> None:
    if size > cap:
        raise OracleCapError(f"domain too large for oracle: {size} > cap {cap}")


def brute_learnability(
    model: Model,
    truth_predicates: Mapping[int, Predicate],
    domain: InputDomain,
    cap: int = ENUMERATION_CAP,
) -> OracleReport:
    """Exhaustively tally TP/FP/TN/FN per label against the ground truth."""
    import hashlib  # imported here: no other function of the package hashes

    _check_cap(domain.size(), cap)
    labels = sorted(truth_predicates)
    if labels != list(range(model.num_labels)):
        raise ModelError("need one truth predicate per label")
    for pred in truth_predicates.values():
        validate_predicate(pred, domain)
    counts = {(l, kind): 0 for l in labels for kind in ("tp", "fp", "tn", "fn")}
    digest = hashlib.sha256()
    for point in enumerate_domain(domain):
        predicted = eval_model(model, point, domain)
        digest.update(f"{point}:{predicted};".encode())
        for l in labels:
            truth = truth_predicates[l].evaluate(point)
            if truth:
                counts[(l, "tp" if predicted == l else "fn")] += 1
            else:
                counts[(l, "fp" if predicted == l else "tn")] += 1
    return OracleReport(domain.size(), counts, digest.hexdigest())


def brute_count_predicate(
    pred: Predicate, domain: InputDomain, cap: int = ENUMERATION_CAP
) -> int:
    """|{x in domain : pred(x)}| by direct AST evaluation."""
    _check_cap(domain.size(), cap)
    validate_predicate(pred, domain)
    return sum(1 for point in enumerate_domain(domain) if pred.evaluate(point))


def brute_count_root(
    circuit,
    root: int,
    region: Optional[InputDomain] = None,
    cap: int = ENUMERATION_CAP,
) -> int:
    """Count inputs (of the domain, or of a sub-domain) whose simulation sets `root`.

    Differential use only: this is the simulate-side of circuit checks.
    """
    over = circuit.domain if region is None else region
    _check_cap(over.size(), cap)
    return sum(1 for point in enumerate_domain(over) if circuit.simulate(point)[root])


def brute_robustness(
    model: Model,
    center: Sequence[int],
    reg: InputDomain,
    domain: InputDomain,
    cap: int = ENUMERATION_CAP,
) -> tuple[int, int]:
    """(region size, points classified like the center) by direct evaluation."""
    _check_cap(reg.size(), cap)
    target = eval_model(model, center, domain)
    correct = sum(1 for point in enumerate_domain(reg) if eval_model(model, point, domain) == target)
    return reg.size(), correct
