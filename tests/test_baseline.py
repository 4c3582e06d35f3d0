"""The Monte-Carlo baseline estimates the same with the seam's decided label as without.

Where `count_over` decides the model's label, that label stands in for the
model on every sample; each metric's baseline must not change, whatever the
sampling mode or the sample count, when `bound_label` is patched to leave
every region open and the model scores every sample. Needs `hypothesis`;
skipped where it is missing.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import exactml.metrics  # noqa: E402
from exactml.metrics import learnability, robustness, safety  # noqa: E402
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
    """One query per metric on a random net: metric name -> call taking the baseline keywords."""
    net = varied_network(rng, dom)
    center = random_point(rng, dom)
    truth = truth_family(rng, dom, net.num_labels)
    prop = _box_property(rng, dom, net.num_labels)
    return {
        "learnability": lambda **kw: learnability(net, truth, dom, **kw),
        "safety": lambda **kw: safety(net, prop, dom, **kw),
        "robustness": lambda **kw: robustness(net, center, eps, dom, **kw),
    }


def _run(query, leave_open=False, with_replacement=True, **baseline):
    """`query`'s report and the labels `bound_label` gave it. `leave_open`
    makes `bound_label` decide nothing, so the model scores every sample."""
    decided = []
    bound_label, sample = exactml.metrics.bound_label, exactml.metrics.statistical_baseline

    def spy(model, domain):
        decided.append(None if leave_open else bound_label(model, domain))
        return decided[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactml.metrics, "bound_label", spy)
        patch.setattr(exactml.metrics, "statistical_baseline",
                      lambda *a, **kw: sample(*a, **kw, with_replacement=with_replacement))
        return query(**baseline), decided


def _estimates(query, **baseline):
    """The baseline of `query` as decided and with every region left open."""
    return [_run(query, leave_open, **baseline)[0].baseline for leave_open in (False, True)]


@SETTINGS
@given(feature_ranges, seeds, st.integers(0, 3), st.sampled_from((0, 1, 7, 50)),
       st.booleans(), st.integers(0, 3))
def test_the_decided_label_leaves_every_estimate_unchanged(
    ranges, seed, eps, n_samples, with_replacement, sample_seed
):
    dom = make_domain(ranges)
    for metric, query in _queries(random.Random(seed), dom, eps).items():
        estimates = _estimates(query, with_replacement=with_replacement,
                               samples=n_samples, seed=sample_seed)
        assert estimates[0] == estimates[1], metric


def test_random_queries_of_every_kind_are_both_decided_and_open():
    rng = random.Random(3)
    outcomes = {metric: set() for metric in ("learnability", "safety", "robustness")}
    for _ in range(80):
        dom = make_domain([(lo, lo + rng.randint(0, 3)) for lo in (rng.randint(-8, 8) for _ in range(2))])
        for metric, query in _queries(rng, dom, rng.randint(0, 2)).items():
            # a safety query whose Pre holds nowhere decides nothing
            decided = _run(query)[1]
            outcomes[metric].add(decided in ([], [None]))
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
    queries = {
        "robustness": lambda **kw: robustness(net, (2, 3), 2, dom, **kw),
        "safety": lambda **kw: safety(net, prop, dom, **kw),
    }
    for metric, query in queries.items():
        assert _run(query)[1] == [1], metric
        estimates = _estimates(query, with_replacement=with_replacement, samples=n_samples)
        assert estimates[0] == estimates[1], metric
