"""Bounded integer input domains, decision trees and quantized networks.

All model semantics here are executable reference semantics: exact integer
arithmetic, no floats anywhere. Loaded objects are immutable and safe to
share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union


class ModelError(ValueError):
    """A domain or model document failed validation."""


def _as_document(doc) -> dict:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ModelError(f"malformed document: {exc}") from exc
        except RecursionError as exc:
            raise ModelError("malformed document: JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ModelError("malformed document: expected a JSON object")
    version = doc.get("format_version", 1)
    if version != 1:
        raise ModelError(f"unsupported format_version {version!r}")
    return doc


def _require_int(value, what: str) -> int:
    # bool is an int subclass; JSON true/false must not sneak in as 1/0
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class FeatureSpec:
    """One input feature taking integer values in the closed range [lo, hi]."""

    name: str
    lo: int
    hi: int

    @property
    def range_size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def bit_width(self) -> int:
        # ceil(log2(range)); 0 when the feature is a single point
        return (self.range_size - 1).bit_length()

    def check(self, value) -> None:
        """ModelError unless `value` is an integer in [lo, hi]."""
        if not (self.lo <= _require_int(value, f"value for {self.name}") <= self.hi):
            raise ModelError(f"value {value} out of range [{self.lo}, {self.hi}] for {self.name}")


@dataclass(frozen=True)
class InputDomain:
    """An ordered, bounded integer input space."""

    features: tuple[FeatureSpec, ...]

    def size(self) -> int:
        n = 1
        for f in self.features:
            n *= f.range_size
        return n

    def bit_width(self) -> int:
        return sum(f.bit_width for f in self.features)

    @cached_property
    def _index(self) -> dict[str, int]:
        index: dict[str, int] = {}
        for i, f in enumerate(self.features):
            index.setdefault(f.name, i)  # the first feature of a name wins
        return index

    def index_of(self, name: str) -> int:
        """The position of the feature named `name`; KeyError if there is none."""
        return self._index[name]

    def check_point(self, point: Sequence[int]) -> None:
        if len(point) != len(self.features):
            raise ModelError(
                f"input has {len(point)} values, domain has {len(self.features)} features"
            )
        for f, v in zip(self.features, point):
            f.check(v)


def load_domain(doc) -> InputDomain:
    doc = _as_document(doc)
    raw = doc.get("features")
    if not isinstance(raw, list) or not raw:
        raise ModelError("malformed document: missing feature list")
    feats = []
    seen = set()
    for entry in raw:
        if not isinstance(entry, dict):
            raise ModelError("malformed document: feature entries must be objects")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ModelError("malformed document: feature without a name")
        if name in seen:
            raise ModelError(f"duplicate feature name {name!r}")
        seen.add(name)
        lo = _require_int(entry.get("lo"), f"lo of {name}")
        hi = _require_int(entry.get("hi"), f"hi of {name}")
        if lo > hi:
            raise ModelError(f"empty feature range for {name}: lo={lo} > hi={hi}")
        feats.append(FeatureSpec(name, lo, hi))
    return InputDomain(tuple(feats))


# ---------------------------------------------------------------------------
# Decision trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class Internal:
    feature: int
    threshold: int
    left: int
    right: int


Node = Union[Leaf, Internal]


@dataclass(frozen=True)
class DecisionTree:
    """Threshold tree over integer features; descend LEFT iff value <= threshold."""

    nodes: tuple[Node, ...]
    root: int
    num_labels: int


def load_tree(doc, domain: InputDomain) -> DecisionTree:
    doc = _as_document(doc)
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ModelError("malformed document: missing node list")
    num_labels = _require_int(doc.get("num_labels"), "num_labels")
    if num_labels < 1:
        raise ModelError("num_labels must be >= 1")
    root = _require_int(doc.get("root", 0), "root")
    if not (0 <= root < len(raw_nodes)):
        raise ModelError(f"root index {root} out of range")

    nodes: list[Node] = []
    for i, entry in enumerate(raw_nodes):
        if not isinstance(entry, dict):
            raise ModelError(f"node {i}: must be an object")
        if "leaf" in entry:
            label = _require_int(entry["leaf"], f"node {i} label")
            if not (0 <= label < num_labels):
                raise ModelError(f"node {i}: label {label} >= num_labels {num_labels}")
            nodes.append(Leaf(label))
        else:
            feature = _require_int(entry.get("feature"), f"node {i} feature")
            if not (0 <= feature < len(domain.features)):
                raise ModelError(f"node {i}: feature index {feature} out of range")
            threshold = _require_int(entry.get("threshold"), f"node {i} threshold")
            left = _require_int(entry.get("left"), f"node {i} left")
            right = _require_int(entry.get("right"), f"node {i} right")
            for child in (left, right):
                if not (0 <= child < len(raw_nodes)):
                    raise ModelError(f"node {i}: child index {child} out of range")
            nodes.append(Internal(feature, threshold, left, right))

    _check_tree_shape(nodes, root)
    return DecisionTree(tuple(nodes), root, num_labels)


def _check_tree_shape(nodes: Sequence[Node], root: int) -> None:
    # every node reachable from the root exactly once, no cycles, no sharing
    state = [0] * len(nodes)  # 0 unvisited, 1 on stack, 2 done
    stack = [(root, False)]
    while stack:
        idx, done = stack.pop()
        if done:
            state[idx] = 2
            continue
        if state[idx] == 1:
            raise ModelError(f"cycle through node {idx}")
        if state[idx] == 2:
            raise ModelError(f"node {idx} has more than one parent")
        state[idx] = 1
        stack.append((idx, True))
        node = nodes[idx]
        if isinstance(node, Internal):
            if node.left == idx or node.right == idx:
                raise ModelError(f"cycle through node {idx}")
            stack.append((node.left, False))
            stack.append((node.right, False))
    unreachable = [i for i, s in enumerate(state) if s == 0]
    if unreachable:
        raise ModelError(f"node {unreachable[0]} unreachable from root")


def _tree_label(tree: DecisionTree, point: Sequence[int]) -> int:
    node = tree.nodes[tree.root]
    while isinstance(node, Internal):
        node = tree.nodes[node.left if point[node.feature] <= node.threshold else node.right]
    return node.label


# ---------------------------------------------------------------------------
# Quantized networks
# ---------------------------------------------------------------------------

# Largest `post_shift`: `circuit.MAX_BUNDLE_WIDTH`. Every accumulator a
# compiled circuit holds fits in that many bits, so a larger shift gives the
# same circuit; only the bound pass's `1 << shift` would grow with it.
MAX_POST_SHIFT = 64


@dataclass(frozen=True)
class DenseLayer:
    weights: tuple[tuple[int, ...], ...]  # [output][input]
    biases: tuple[int, ...]
    activation: str  # "relu" or "none"
    post_shift: int


@dataclass(frozen=True)
class QuantizedNetwork:
    """Fixed-point dense network; the decision is the argmax of the final logits.

    Per layer: z = W.a + b computed exactly, then z >> post_shift (arithmetic,
    rounding toward -inf), then ReLU if requested. The final layer carries raw
    logits (activation "none").
    """

    input_width: int
    layers: tuple[DenseLayer, ...]

    @property
    def num_labels(self) -> int:
        return len(self.layers[-1].biases)


def load_network(doc, domain: InputDomain) -> QuantizedNetwork:
    doc = _as_document(doc)
    input_width = _require_int(doc.get("input_width", len(domain.features)), "input_width")
    if input_width != len(domain.features):
        raise ModelError(
            f"dimension mismatch: network expects {input_width} inputs, "
            f"domain has {len(domain.features)} features"
        )
    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ModelError("malformed document: missing layer list")

    layers = []
    width = input_width
    for li, entry in enumerate(raw_layers):
        if not isinstance(entry, dict):
            raise ModelError(f"layer {li}: must be an object")
        weights = entry.get("weights")
        biases = entry.get("biases")
        if not isinstance(weights, list) or not isinstance(biases, list):
            raise ModelError(f"layer {li}: missing weights or biases")
        if len(weights) != len(biases) or not weights:
            raise ModelError(f"layer {li}: dimension mismatch between weights and biases")
        rows = []
        for r, row in enumerate(weights):
            if not isinstance(row, list) or len(row) != width:
                raise ModelError(
                    f"layer {li}: dimension mismatch, row {r} expects {width} inputs"
                )
            rows.append(tuple(_require_int(w, f"layer {li} weight") for w in row))
        bias = tuple(_require_int(b, f"layer {li} bias") for b in biases)
        activation = entry.get("activation", "none")
        if activation not in ("relu", "none"):
            raise ModelError(f"layer {li}: unknown activation {activation!r}")
        post_shift = _require_int(entry.get("post_shift", 0), f"layer {li} post_shift")
        if not 0 <= post_shift <= MAX_POST_SHIFT:
            raise ModelError(f"layer {li}: post_shift must be in 0..{MAX_POST_SHIFT}")
        layers.append(DenseLayer(tuple(rows), bias, activation, post_shift))
        width = len(bias)

    if layers[-1].activation != "none":
        raise ModelError("final layer must have activation 'none'")
    return QuantizedNetwork(input_width, tuple(layers))


def _network_label(net: QuantizedNetwork, point: Sequence[int]) -> int:
    acts: Sequence[int] = list(point)
    for layer in net.layers:
        out = []
        for row, bias in zip(layer.weights, layer.biases):
            z = bias + sum(w * a for w, a in zip(row, acts))
            z >>= layer.post_shift
            if layer.activation == "relu" and z < 0:
                z = 0
            out.append(z)
        acts = out
    best = 0
    for i in range(1, len(acts)):
        if acts[i] > acts[best]:
            best = i
    return best


Model = Union[DecisionTree, QuantizedNetwork]


def eval_model(model: Model, point: Sequence[int], domain: InputDomain) -> int:
    domain.check_point(point)
    return eval_unchecked(model, point)


def eval_unchecked(model: Model, point: Sequence[int]) -> int:
    """`eval_model` without the domain check, for points already known to lie in it."""
    if isinstance(model, DecisionTree):
        return _tree_label(model, point)
    return _network_label(model, point)


def load_model(doc, domain: InputDomain) -> Model:
    parsed = _as_document(doc)
    kind = parsed.get("kind")
    if kind == "decision_tree":
        return load_tree(parsed, domain)
    if kind == "quantized_network":
        return load_network(parsed, domain)
    raise ModelError(f"unknown model kind {kind!r}")
