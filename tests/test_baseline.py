"""The Monte-Carlo baseline estimates the same with the seam's decided label as without.

A report's `decided_label` stands in for the model on every sample; the
estimate must not change, whatever the kind, the sampling mode or the
sample count. Needs `hypothesis`; skipped where it is missing.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from exactml.metrics import learnability, robustness, safety, statistical_baseline  # noqa: E402
from exactml.models import load_network  # noqa: E402
from exactml.predicates import SafetyProperty, parse_predicate  # noqa: E402

from conftest import (  # noqa: E402
    DIFFERENCE_NET_DOC, DIFFERENCE_NET_RANGES, make_domain, random_point, truth_family,
    varied_network,
)

feature_ranges = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(0, 5)).map(lambda t: (t[0], t[0] + t[1])),
    min_size=1,
    max_size=3,
)
seeds = st.integers(0, 2**32 - 1)
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


def _box_property(rng, dom, num_labels):
    """Safety with a Pre of a random sub-box of `dom` less one value of one feature."""
    parts = []
    for f in dom.features:
        lo = rng.randint(f.lo, f.hi)
        parts += [f"{f.name} >= {lo}", f"{f.name} <= {rng.randint(lo, f.hi)}"]
    f = rng.choice(dom.features)
    parts.append(f"{f.name} != {rng.randint(f.lo, f.hi)}")
    allowed = rng.sample(range(num_labels), rng.randint(1, num_labels))
    return SafetyProperty(parse_predicate(" && ".join(parts), dom), frozenset(allowed))


def _queries(rng, dom, eps):
    """(report, baseline arguments) of one query per kind on a random net."""
    net = varied_network(rng, dom)
    center = random_point(rng, dom)
    truth = truth_family(rng, dom, net.num_labels)
    prop = _box_property(rng, dom, net.num_labels)
    return net, [
        (learnability(net, truth, dom),
         {"kind": "learnability_accuracy", "truth_predicates": truth}),
        (safety(net, prop, dom), {"kind": "safety_accuracy", "prop": prop}),
        (robustness(net, center, eps, dom),
         {"kind": "robustness", "center": center, "epsilon": eps}),
    ]


@SETTINGS
@given(feature_ranges, seeds, st.integers(0, 3), st.sampled_from((0, 1, 7, 50)),
       st.booleans(), st.integers(0, 3))
def test_the_decided_label_leaves_every_estimate_unchanged(
    ranges, seed, eps, n_samples, with_replacement, sample_seed
):
    dom = make_domain(ranges)
    net, queries = _queries(random.Random(seed), dom, eps)
    for report, kwargs in queries:
        def estimate(label):
            return statistical_baseline(
                net, dom, n_samples=n_samples, seed=sample_seed,
                with_replacement=with_replacement, decided_label=label, **kwargs
            )

        assert estimate(report.decided_label) == estimate(None), kwargs["kind"]


def test_random_queries_of_every_kind_are_both_decided_and_open():
    rng = random.Random(3)
    outcomes = {kind: set() for kind in ("learnability_accuracy", "safety_accuracy", "robustness")}
    for _ in range(80):
        dom = make_domain([(lo, lo + rng.randint(0, 3)) for lo in (rng.randint(-8, 8) for _ in range(2))])
        for report, kwargs in _queries(rng, dom, rng.randint(0, 2))[1]:
            outcomes[kwargs["kind"]].add(report.decided_label is None)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


@pytest.mark.parametrize("with_replacement", [True, False], ids=["replace", "no-replace"])
@pytest.mark.parametrize("n_samples", [1, 7, 50])
def test_a_label_from_difference_bounds_leaves_the_estimate_unchanged(n_samples, with_replacement):
    dom = make_domain(DIFFERENCE_NET_RANGES, prefix="x")
    net = load_network(DIFFERENCE_NET_DOC, dom)
    # the robustness ball and the Pre box are the same box, which only
    # difference bounds decide
    prop = SafetyProperty(
        parse_predicate("x0 <= 4 && x1 >= 1 && x1 <= 5 && x0 != 3", dom), frozenset({0})
    )
    queries = [
        (robustness(net, (2, 3), 2, dom), {"kind": "robustness", "center": (2, 3), "epsilon": 2}),
        (safety(net, prop, dom), {"kind": "safety_accuracy", "prop": prop}),
    ]
    for report, kwargs in queries:
        assert report.decided_label == 1, kwargs["kind"]
        estimates = [
            statistical_baseline(net, dom, n_samples=n_samples, with_replacement=with_replacement,
                                 decided_label=label, **kwargs)
            for label in (1, None)
        ]
        assert estimates[0] == estimates[1], kwargs["kind"]
