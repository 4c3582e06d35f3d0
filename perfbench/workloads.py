"""Seeded inputs and query lists for the benchmark workloads.

Every input is derived from the workload seed alone and written to a work
directory; the program only ever sees those files and the CLI arguments.
A query is one ``exactml.cli.main(argv)`` call. Its ``spec`` holds what the
correctness gate needs to check the output independently.

Why each workload exists (also recorded in BENCHMARK.json):

* ``graph-learn``: learnability of depth-6 trees on graph4 against builtin
  properties. The builtin DPLL enumerates models here (about one model per
  decision), so the counter is the whole cost. Three ``transitive`` queries
  read all 16 bits; ``reflexive``, ``connex`` and ``antisymmetric`` read few.
  One graph5 ``transitive`` query under a small fixed ``--budget`` ends in a
  gap (exit 2) after a fixed number of decisions. Its cost lies between the
  two groups, so it is the median query, and the 90th percentile is the
  slowest transitive query: neither jumps between groups from seed to seed.
* ``net-local``: robustness (eps 1 and 2, with a Monte-Carlo baseline) and
  small-box safety queries on quantized 4x6-bit nets. Few decisions, each
  propagating through thousands of clauses; the only workload that runs
  ``metrics.statistical_baseline``. The cost of one query varies a lot with
  the net and the center, so most queries are eps-1 ones, and the median
  and 90th percentile rest on many of them.
* ``emit-net``: DIMACS export of ``model:L`` and ``viol`` roots of wide
  8x8-bit nets. Nothing is counted: ``circuit`` and ``cnf`` do all the work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("graph-learn", "net-local", "emit-net")

# Number of transitive relations on n labelled nodes (OEIS A006905).
TRANSITIVE_COUNTS = {3: 171, 4: 3994, 5: 154303}

# Sizes per scale. "full" is what the benchmark measures; "smoke" is a tiny
# version of the same query mix for the benchmark's own tests.
SCALES = {
    "full": {
        "graph-learn": {
            "nodes": 4,
            "tree_depth": 6,
            "tree_internal": 6,
            "transitive_trees": 3,
            "few_bit": ("reflexive", "connex", "antisymmetric"),
            "gap_nodes": 5,
            "gap_budget": 12000,
        },
        "net-local": {
            "features": 4,
            "bits": 6,
            "hidden": (4,),
            "weight": 7,
            "nets": 36,
            "eps1_per_net": 2,
            "eps2_nets": 2,
            "safety_nets": 2,
            "box": 3,
            "samples": 64,
        },
        "emit-net": {
            "features": 8,
            "bits": 8,
            "hidden": (8, 8),
            "weight": 7,
            "nets": 6,
            "box": 64,
            "probe_points": 6,
        },
    },
    "smoke": {
        "graph-learn": {
            "nodes": 3,
            "tree_depth": 6,
            "tree_internal": 8,
            "transitive_trees": 1,
            "few_bit": ("reflexive", "connex", "antisymmetric"),
            "gap_nodes": 4,
            "gap_budget": 40,
        },
        "net-local": {
            "features": 3,
            "bits": 3,
            "hidden": (2,),
            "weight": 3,
            "nets": 2,
            "eps1_per_net": 1,
            "eps2_nets": 1,
            "safety_nets": 1,
            "box": 2,
            "samples": 8,
        },
        "emit-net": {
            "features": 3,
            "bits": 3,
            "hidden": (2,),
            "weight": 3,
            "nets": 1,
            "box": 3,
            "probe_points": 4,
        },
    },
}


@dataclass(frozen=True)
class Query:
    """One CLI call: ``argv`` for ``cli.main`` and what the gate checks."""

    name: str
    kind: str  # "learn" | "learn-gap" | "robust" | "safety" | "emit"
    argv: tuple[str, ...]
    out: Path
    spec: dict


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return str(path)


def depth_tree(rng: random.Random, n_features: int, depth: int, internal: int) -> dict:
    """A binary-feature decision tree of exactly `depth` with `internal` splits.

    A random root-to-leaf spine fixes the depth; the other splits go to
    random shallower leaves. No feature repeats along a path. The number of
    splits is fixed so that tree size, which drives the cost of counting,
    does not vary with the seed. Sibling leaves carry different labels, so
    both labels cover a good part of the domain.
    """
    if not depth <= internal < 2 ** depth:
        raise ValueError("internal must lie in [depth, 2**depth)")
    root = {"depth": 0, "used": ()}
    leaves = [root]

    def split(node):
        leaves[:] = [leaf for leaf in leaves if leaf is not node]  # equal dicts are distinct leaves
        node["feature"] = rng.choice([f for f in range(n_features) if f not in node["used"]])
        used = node["used"] + (node["feature"],)
        node["kids"] = [{"depth": node["depth"] + 1, "used": used} for _ in range(2)]
        leaves.extend(node["kids"])

    node = root
    while node["depth"] < depth:
        split(node)
        node = rng.choice(node["kids"])
    for _ in range(internal - depth):
        split(rng.choice([leaf for leaf in leaves if leaf["depth"] < depth]))

    nodes: list = []

    def flatten(node, label) -> int:
        idx = len(nodes)
        nodes.append(None)
        if "kids" not in node:
            nodes[idx] = {"leaf": label}
        else:
            first = rng.randrange(2)
            left, right = (flatten(kid, first ^ k) for k, kid in enumerate(node["kids"]))
            nodes[idx] = {"feature": node["feature"], "threshold": 0, "left": left, "right": right}
        return idx

    flatten(root, 0)
    return {"format_version": 1, "kind": "decision_tree", "num_labels": 2, "root": 0, "nodes": nodes}


def net_domain(features: int, bits: int) -> dict:
    hi = (1 << bits) - 1
    return {"format_version": 1, "features": [{"name": f"x{i}", "lo": 0, "hi": hi} for i in range(features)]}


def quantized_net(rng: random.Random, inputs: int, hidden: tuple, weight: int) -> dict:
    """A 2-label ReLU net with weights in [-weight, weight].

    Every row holds the same weight magnitudes, spread evenly over
    1..weight, in a seeded order and with seeded signs; hidden layers shift
    right by 1. The cost of a constant multiplication grows with the
    magnitude's set bits, so this keeps circuit size, and with it the cost
    of counting and emitting, nearly the same for every seed.
    """
    layers = []
    width = inputs
    for size, activation in [(h, "relu") for h in hidden] + [(2, "none")]:
        magnitudes = [1 + k * (weight - 1) // max(1, width - 1) for k in range(width)]
        rows = []
        for _ in range(size):
            rng.shuffle(magnitudes)
            rows.append([m * rng.choice((-1, 1)) for m in magnitudes])
        layers.append(
            {
                "weights": rows,
                "biases": [rng.randint(-2 * weight, 2 * weight) for _ in range(size)],
                "activation": activation,
                "post_shift": 1 if activation == "relu" else 0,
            }
        )
        width = size
    return {"format_version": 1, "kind": "quantized_network", "input_width": inputs, "layers": layers}


def _box(rng: random.Random, features: int, hi: int, width: int) -> tuple:
    """Inclusive per-feature intervals of `width` values inside [0, hi]."""
    return tuple((lo, lo + width - 1) for lo in (rng.randint(0, hi - width + 1) for _ in range(features)))


def box_predicate(box) -> str:
    return " && ".join(f"x{i} >= {lo} && x{i} <= {hi}" for i, (lo, hi) in enumerate(box))


def _graph_learn(rng, work: Path, p: dict) -> list[Query]:
    n = p["nodes"]
    queries = []

    def learn(name, kind, nodes, prop, tree, extra=()):
        model = _write_json(work / f"{name}.model.json", tree)
        out = work / f"{name}.report.json"
        argv = ("learnability", "--domain", f"graph{nodes}", "--nodes", str(nodes),
                "--model", model, "--property", prop, *extra, "--out", str(out))
        queries.append(Query(name, kind, argv, out, {"nodes": nodes, "property": prop, "model": tree}))

    def tree(nodes):
        return depth_tree(rng, nodes * nodes, p["tree_depth"], p["tree_internal"])

    # the expensive all-bits queries and the gap interleave with the cheap ones
    cheap = list(p["few_bit"])
    for i in range(p["transitive_trees"]):
        t = tree(n)
        learn(f"g{n}-t{i}-transitive", "learn", n, "transitive", t)
        if cheap:
            prop = cheap.pop(0)
            learn(f"g{n}-t{i}-{prop}", "learn", n, prop, t)
    for prop in cheap:
        learn(f"g{n}-x-{prop}", "learn", n, prop, tree(n))
    g = p["gap_nodes"]
    learn(f"g{g}-transitive-budget", "learn-gap", g, "transitive", tree(g),
          ("--budget", str(p["gap_budget"])))
    return queries


def _net_local(rng, work: Path, p: dict) -> list[Query]:
    hi = (1 << p["bits"]) - 1
    domain = net_domain(p["features"], p["bits"])
    domain_path = _write_json(work / "domain.json", domain)
    queries = []
    for k in range(p["nets"]):
        net = quantized_net(rng, p["features"], p["hidden"], p["weight"])
        model = _write_json(work / f"net{k}.model.json", net)
        base = {"domain": domain, "model": net}
        epsilons = [1] * p["eps1_per_net"] + [2] * (k < p["eps2_nets"])
        for j, eps in enumerate(epsilons):
            # centers keep the whole L-inf ball inside the domain
            center = tuple(rng.randint(eps, hi - eps) for _ in range(p["features"]))
            name = f"net{k}-robust{j}-eps{eps}"
            out = work / f"{name}.report.json"
            argv = ("robustness", "--domain", domain_path, "--model", model,
                    "--center", ",".join(map(str, center)), "--epsilon", str(eps),
                    "--samples", str(p["samples"]), "--out", str(out))
            spec = dict(base, center=center, epsilon=eps, samples=p["samples"])
            queries.append(Query(name, "robust", argv, out, spec))
        if k < p["safety_nets"]:
            box = _box(rng, p["features"], hi, p["box"])
            allowed = rng.randrange(2)
            name = f"net{k}-safety"
            out = work / f"{name}.report.json"
            argv = ("safety", "--domain", domain_path, "--model", model,
                    "--pre", box_predicate(box), "--post", str(allowed), "--out", str(out))
            queries.append(Query(name, "safety", argv, out, dict(base, box=box, allowed=allowed)))
    return queries


def _emit_net(rng, work: Path, p: dict) -> list[Query]:
    hi = (1 << p["bits"]) - 1
    domain = net_domain(p["features"], p["bits"])
    domain_path = _write_json(work / "domain.json", domain)
    queries = []

    def point(box=None):
        ranges = box or [(0, hi)] * p["features"]
        return tuple(rng.randint(lo, h) for lo, h in ranges)

    for k in range(p["nets"]):
        net = quantized_net(rng, p["features"], p["hidden"], p["weight"])
        model = _write_json(work / f"net{k}.model.json", net)
        label = rng.randrange(2)
        name = f"net{k}-model{label}"
        out = work / f"{name}.cnf"
        argv = ("emit", "--domain", domain_path, "--model", model,
                "--formula", f"model:{label}", "--out", str(out))
        points = [point() for _ in range(p["probe_points"])]
        spec = {"domain": domain, "model": net, "formula": "model", "label": label, "points": points}
        queries.append(Query(name, "emit", argv, out, spec))

        box = _box(rng, p["features"], hi, p["box"])
        allowed = rng.randrange(2)
        name = f"net{k}-viol"
        out = work / f"{name}.cnf"
        argv = ("emit", "--domain", domain_path, "--model", model, "--formula", "viol",
                "--pre", box_predicate(box), "--post", str(allowed), "--out", str(out))
        half = p["probe_points"] // 2
        points = [point(box) for _ in range(half)] + [point() for _ in range(p["probe_points"] - half)]
        spec = {"domain": domain, "model": net, "formula": "viol", "box": box,
                "allowed": allowed, "points": points}
        queries.append(Query(name, "emit", argv, out, spec))
    return queries


_BUILDERS = {"graph-learn": _graph_learn, "net-local": _net_local, "emit-net": _emit_net}


def build(workload: str, seed: int, work: Path, scale: str = "full") -> list[Query]:
    """Write the seeded inputs of `workload` into `work` and return its queries."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, work, SCALES[scale][workload])
