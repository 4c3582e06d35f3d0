"""Shared fixtures: seeded random models, predicates and the acceptance suite."""

import random
from dataclasses import dataclass

import pytest

import exactml.bdd
from exactml.circuit import Circuit
from exactml.cnf import CnfFormula
from exactml.models import (
    InputDomain, Leaf, QuantizedNetwork, load_domain, load_network, load_tree,
)
from exactml.predicates import And, CmpConst, Not, Or, Predicate, validate_predicate


def make_domain(ranges, prefix="f"):
    """ranges: list of (lo, hi) pairs."""
    return load_domain(
        {"features": [{"name": f"{prefix}{i}", "lo": lo, "hi": hi} for i, (lo, hi) in enumerate(ranges)]}
    )


@pytest.fixture(scope="class")
def bdd_only():
    """Counts every circuit on the BDD, however few its input bits."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactml.bdd, "TABLE_MAX_BITS", -1)
        yield


def count_on_bdd(circuit, roots):
    """`bdd.count_roots` with every circuit on the BDD: a `count_fn` for the metrics."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactml.bdd, "TABLE_MAX_BITS", -1)
        return exactml.bdd.count_roots(circuit, roots)


BITS2 = [(0, 1), (0, 1)]


@pytest.fixture
def bits2_domain():
    return make_domain(BITS2)


XOR_TREE_DOC = {
    "format_version": 1,
    "kind": "decision_tree",
    "num_labels": 2,
    "root": 0,
    "nodes": [
        {"feature": 0, "threshold": 0, "left": 1, "right": 2},
        {"feature": 1, "threshold": 0, "left": 3, "right": 4},
        {"feature": 1, "threshold": 0, "left": 5, "right": 6},
        {"leaf": 0},
        {"leaf": 1},
        {"leaf": 1},
        {"leaf": 0},
    ],
}


@pytest.fixture
def xor_tree(bits2_domain):
    return load_tree(XOR_TREE_DOC, bits2_domain)


def reflexive_tree_doc(n):
    """Tree that tests the n diagonal adjacency bits; label 1 iff all set.

    Internal node k sits at index 2k, its leaf-0 child at 2k+1; index 2n is
    the final leaf 1.
    """
    nodes = []
    for k in range(n):
        nodes.append({"feature": k * n + k, "threshold": 0, "left": 2 * k + 1, "right": 2 * k + 2})
        nodes.append({"leaf": 0})
    nodes.append({"leaf": 1})
    return {"format_version": 1, "kind": "decision_tree", "num_labels": 2, "root": 0, "nodes": nodes}


def constant_tree_doc(label, num_labels=2):
    return {
        "format_version": 1,
        "kind": "decision_tree",
        "num_labels": num_labels,
        "root": 0,
        "nodes": [{"leaf": label}],
    }


# ---------------------------------------------------------------------------
# Model documents, point evaluation and registered bundles
# ---------------------------------------------------------------------------

def domain_to_document(domain):
    return {
        "format_version": 1,
        "features": [{"name": f.name, "lo": f.lo, "hi": f.hi} for f in domain.features],
    }


def tree_to_document(tree):
    nodes = []
    for node in tree.nodes:
        if isinstance(node, Leaf):
            nodes.append({"leaf": node.label})
        else:
            nodes.append(
                {
                    "feature": node.feature,
                    "threshold": node.threshold,
                    "left": node.left,
                    "right": node.right,
                }
            )
    return {
        "format_version": 1,
        "kind": "decision_tree",
        "num_labels": tree.num_labels,
        "root": tree.root,
        "nodes": nodes,
    }


def network_to_document(net):
    return {
        "format_version": 1,
        "kind": "quantized_network",
        "input_width": net.input_width,
        "layers": [
            {
                "weights": [list(row) for row in layer.weights],
                "biases": list(layer.biases),
                "activation": layer.activation,
                "post_shift": layer.post_shift,
            }
            for layer in net.layers
        ],
    }


def eval_predicate(pred, point, domain=None):
    """Evaluate a predicate on a concrete input vector."""
    if domain is not None:
        domain.check_point(point)
        validate_predicate(pred, domain)
    return pred.evaluate(point)


def in_region(region, point):
    return all(f.lo <= v <= f.hi for f, v in zip(region.features, point))


def simulate_outputs(circuit, point):
    """The value of every named output of `circuit` at `point`."""
    values = circuit.simulate(point)
    return {name: values[w] for name, w in circuit.outputs.items()}


def bundle_value(bundle, values):
    """A bundle's two's-complement value, given the value of every wire."""
    v = 0
    for i, b in enumerate(bundle.bits):
        if values[b]:
            v |= 1 << i
    if values[bundle.bits[-1]]:
        v -= 1 << len(bundle.bits)
    return v


@pytest.fixture
def registered_bundles(monkeypatch):
    """Every `Bundle` that circuits register while the test runs, in order."""
    bundles = []
    register = Circuit._register

    def recording(self, bits, lo, hi):
        bundle = register(self, bits, lo, hi)
        bundles.append(bundle)
        return bundle

    monkeypatch.setattr(Circuit, "_register", recording)
    return bundles


# ---------------------------------------------------------------------------
# The two halves of `circuit.bound_label`, each on its own: test oracles
# ---------------------------------------------------------------------------

def logit_bounds(net, domain):
    """The exact `[lo, hi]` of each logit, as the `Bundle`s of `network_logits` carry it."""
    bounds = [(f.lo, f.hi) for f in domain.features]
    for layer in net.layers:
        out = []
        for row, bias in zip(layer.weights, layer.biases):
            lo = hi = bias
            for w, (a_lo, a_hi) in zip(row, bounds):
                lo += w * (a_lo if w > 0 else a_hi)
                hi += w * (a_hi if w > 0 else a_lo)
            lo, hi = lo >> layer.post_shift, hi >> layer.post_shift
            if layer.activation == "relu":
                lo, hi = max(lo, 0), max(hi, 0)
            out.append((lo, hi))
        bounds = out
    return bounds


def interval_label(model, domain):
    """The label a network decides on every point of `domain`, if its logit bounds prove it.

    Label l wins where every lower label's logit is below its own and no
    higher one is above it (the argmax of `compile_network`). None when the
    bounds leave the decision open, and for trees.
    """
    if not isinstance(model, QuantizedNetwork):
        return None
    bounds = logit_bounds(model, domain)
    for l, (lo, _) in enumerate(bounds):
        if all(hi < lo for _, hi in bounds[:l]) and all(hi <= lo for _, hi in bounds[l + 1:]):
            return l
    return None


def _form_range(form, box):
    """The scaled min and max of a linear form (coefficients, constant, error lo, error hi)."""
    coeffs, const, err_lo, err_hi = form
    lo, hi = const + err_lo, const + err_hi
    for c, (a, b) in zip(coeffs, box):
        if c > 0:
            lo, hi = lo + c * a, hi + c * b
        elif c < 0:
            lo, hi = lo + c * b, hi + c * a
    return lo, hi


def difference_label(model, domain):
    """The label a network decides on every point of `domain`, if bounds on logit differences prove it.

    Each unit is a linear form over the inputs plus an error interval, as in
    ReluVal's symbolic intervals: a stably active ReLU keeps its form, a
    stably inactive one is 0 and an unstable one the constant `[0, hi]`,
    where stability is read from the form's own range. `>> s` divides the
    form by `2**s` and adds the floor's error `[-(2**s - 1) / 2**s, 0]`.
    Every form of a layer is scaled by one `2**scale`, the sum of the
    shifts so far, so all arithmetic is on integers. Label l wins where
    `logit_l - logit_j` is at least 1 for every lower label j and at least
    0 for every higher one. None when the bounds leave the decision open,
    and for trees.
    """
    if not isinstance(model, QuantizedNetwork):
        return None
    box = [(f.lo, f.hi) for f in domain.features]
    n = len(box)
    forms = [([int(i == k) for i in range(n)], 0, 0, 0) for k in range(n)]
    scale = 0
    for layer in model.layers:
        bias_scale, scale = scale, scale + layer.post_shift
        floor_error = ((1 << layer.post_shift) - 1) << bias_scale
        out = []
        for row, bias in zip(layer.weights, layer.biases):
            coeffs, const, err_lo, err_hi = [0] * n, bias << bias_scale, -floor_error, 0
            for w, (f_coeffs, f_const, f_lo, f_hi) in zip(row, forms):
                if w:
                    coeffs = [a + w * c for a, c in zip(coeffs, f_coeffs)]
                    const += w * f_const
                    if w > 0:
                        err_lo, err_hi = err_lo + w * f_lo, err_hi + w * f_hi
                    else:
                        err_lo, err_hi = err_lo + w * f_hi, err_hi + w * f_lo
            form = (coeffs, const, err_lo, err_hi)
            if layer.activation == "relu":
                lo, hi = _form_range(form, box)
                lo, hi = -(-lo >> scale), hi >> scale
                if hi <= 0:
                    form = ([0] * n, 0, 0, 0)
                elif lo < 0:
                    form = ([0] * n, 0, 0, hi << scale)
            out.append(form)
        forms = out
    for l, (coeffs, const, err_lo, err_hi) in enumerate(forms):
        for j, (j_coeffs, j_const, j_lo, j_hi) in enumerate(forms):
            if j == l:
                continue
            diff = (
                [a - b for a, b in zip(coeffs, j_coeffs)],
                const - j_const, err_lo - j_hi, err_hi - j_lo,
            )
            least = -(-_form_range(diff, box)[0] >> scale)
            if least < (1 if j < l else 0):
                break
        else:
            return l
    return None


# ---------------------------------------------------------------------------
# The circuit -> CNF path through the generic gate methods, a walk from the
# roots and int literals: test oracles for its fast paths
# ---------------------------------------------------------------------------

def reference_ripple(self, xs, ys, carry):
    """`Circuit._ripple` by the generic gate methods alone, for patching in."""
    out = []
    for x, y in zip(xs, ys):
        t = self.xor_(x, y)
        out.append(self.xor_(t, carry))
        carry = self.or_(self.and_(x, y), self.and_(carry, t))
    return out


def reference_cone(circuit, wires, done=()):
    """`Circuit.cone` as a list, by a walk down from the roots."""
    n_in, gates = circuit.num_input_bits, circuit.gates
    seen = set()
    stack = list(wires)
    while stack:
        w = stack.pop()
        if w in seen or w in done:
            continue
        seen.add(w)
        if w >= n_in and gates[w - n_in][0] != "const":
            stack.extend(gates[w - n_in][1:])
    return sorted(seen)


def reference_tseitin(circuit, root):
    """`cnf.tseitin` as a `CnfFormula` of int-literal clause tuples, made gate by gate."""
    n_inputs = circuit.num_input_bits
    gates = circuit.gates
    targets = (root, circuit.domain_wire)
    var_of = list(range(1, n_inputs + 1)) + [0] * len(gates)
    clauses = []
    units = set()
    v = n_inputs
    for w in reference_cone(circuit, targets):
        if w < n_inputs:
            continue
        v += 1
        var_of[w] = v
        gate = gates[w - n_inputs]
        op = gate[0]
        if op == "const":
            unit = v if gate[1] else -v
            clauses.append((unit,))
            units.add(unit)
        elif op == "not":
            a = var_of[gate[1]]
            clauses += [(v, a), (-v, -a)]
        else:
            a, b = var_of[gate[1]], var_of[gate[2]]
            if op == "and":
                clauses += [(-v, a), (-v, b), (v, -a, -b)]
            elif op == "or":
                clauses += [(v, -a), (v, -b), (-v, a, b)]
            else:  # xor
                clauses += [(-v, a, b), (-v, -a, -b), (v, a, -b), (v, -a, b)]
    for target in targets:
        lit = var_of[target]
        if lit not in units:
            clauses.append((lit,))
            units.add(lit)
    return CnfFormula(v, tuple(clauses), frozenset(range(1, n_inputs + 1)))


# ---------------------------------------------------------------------------
# Random generators (all explicitly seeded by the caller)
# ---------------------------------------------------------------------------

def random_tree(rng, domain, num_labels=2, max_depth=6):
    nodes = []

    def build(depth):
        idx = len(nodes)
        nodes.append(None)
        if depth == 0 or (depth < max_depth - 1 and rng.random() < 0.3):
            nodes[idx] = {"leaf": rng.randrange(num_labels)}
        else:
            feat = rng.randrange(len(domain.features))
            f = domain.features[feat]
            left = build(depth - 1)
            right = build(depth - 1)
            nodes[idx] = {
                "feature": feat,
                "threshold": rng.randint(f.lo, f.hi - 1) if f.hi > f.lo else f.lo,
                "left": left,
                "right": right,
            }
        return idx

    build(max_depth)
    return load_tree({"num_labels": num_labels, "root": 0, "nodes": nodes}, domain)


def random_network(rng, domain, hidden=(2,), num_labels=2, weight_range=2):
    layers = []
    width = len(domain.features)
    for h in hidden:
        layers.append(
            {
                "weights": [
                    [rng.randint(-weight_range, weight_range) for _ in range(width)]
                    for _ in range(h)
                ],
                "biases": [rng.randint(-4, 4) for _ in range(h)],
                "activation": "relu",
                "post_shift": rng.choice([0, 1]),
            }
        )
        width = h
    layers.append(
        {
            "weights": [
                [rng.randint(-weight_range, weight_range) for _ in range(width)]
                for _ in range(num_labels)
            ],
            "biases": [rng.randint(-4, 4) for _ in range(num_labels)],
            "activation": "none",
            "post_shift": 0,
        }
    )
    return load_network({"input_width": len(domain.features), "layers": layers}, domain)


def varied_network(rng, domain):
    """A random net with 0-2 hidden layers, either activation and shifts 0-2."""
    net = random_network(
        rng, domain,
        hidden=rng.choice(((), (2,), (3, 2))),
        num_labels=rng.choice((2, 3)),
        weight_range=rng.choice((1, 3, 7)),
    )
    doc = network_to_document(net)
    for layer in doc["layers"][:-1]:
        layer["activation"] = rng.choice(("relu", "none"))
        layer["post_shift"] = rng.randint(0, 2)
    return load_network(doc, domain)


# A net on x0 in [0, 15], x1 in [-8, 7] (`DIFFERENCE_NET_RANGES`). On the
# robustness ball around (2, 3) with epsilon 2, interval bounds leave its
# decision open and bounds on the logit difference decide label 1.
DIFFERENCE_NET_RANGES = [(0, 15), (-8, 7)]
DIFFERENCE_NET_DOC = {
    "format_version": 1, "kind": "quantized_network", "input_width": 2,
    "layers": [
        {"weights": [[0, -1], [-2, -3], [1, 3]], "biases": [-4, 2, 3],
         "activation": "relu", "post_shift": 1},
        {"weights": [[2, 2, 1], [2, -2, 1]], "biases": [-2, 2],
         "activation": "none", "post_shift": 0},
    ],
}


def random_predicate(rng, domain, depth=2) -> Predicate:
    if depth == 0 or rng.random() < 0.4:
        feat = rng.randrange(len(domain.features))
        f = domain.features[feat]
        op = rng.choice(["<=", "<", ">=", ">", "=", "!="])
        return CmpConst(op, feat, rng.randint(f.lo, f.hi))
    shape = rng.random()
    if shape < 0.4:
        return And(tuple(random_predicate(rng, domain, depth - 1) for _ in range(2)))
    if shape < 0.8:
        return Or(tuple(random_predicate(rng, domain, depth - 1) for _ in range(2)))
    return Not(random_predicate(rng, domain, depth - 1))


def random_point(rng, domain):
    return tuple(rng.randint(f.lo, f.hi) for f in domain.features)


def truth_family(rng, domain, num_labels):
    """One ground-truth predicate per label; for binary, label 0 complements."""
    if num_labels == 2:
        pred = random_predicate(rng, domain)
        return {1: pred, 0: Not(pred)}
    return {l: random_predicate(rng, domain) for l in range(num_labels)}


# ---------------------------------------------------------------------------
# The randomized acceptance suite (shared across acceptance criteria)
# ---------------------------------------------------------------------------

@dataclass
class SuiteInstance:
    name: str
    domain: InputDomain
    model: object
    truth: dict
    kind: str  # "tree" | "network"


TREE_DOMAIN_RANGES = [
    [(0, 1)] * 4,
    [(0, 7), (0, 7)],
    [(0, 3)] * 3,
    [(0, 1)] * 8,
    [(0, 15), (0, 15)],
    [(0, 3), (0, 3), (0, 1), (0, 1)],
    [(0, 31), (0, 7)],
    [(2, 9), (-4, 3)],
]

NET_DOMAIN_RANGES = [
    [(0, 1)] * 4,
    [(0, 7), (0, 7)],
    [(0, 3)] * 3,
    [(0, 15), (0, 15)],
    [(-2, 5), (0, 3)],
]


def build_suite():
    rng = random.Random(20240 + 817)
    instances = []
    for i in range(20):
        domain = make_domain(TREE_DOMAIN_RANGES[i % len(TREE_DOMAIN_RANGES)])
        num_labels = 2 if i % 3 else 3
        tree = random_tree(rng, domain, num_labels=num_labels, max_depth=rng.randint(3, 6))
        instances.append(
            SuiteInstance(f"tree{i:02d}", domain, tree, truth_family(rng, domain, num_labels), "tree")
        )
    for i in range(10):
        domain = make_domain(NET_DOMAIN_RANGES[i % len(NET_DOMAIN_RANGES)])
        hidden = (rng.randint(2, 3),) if i % 2 else (rng.randint(2, 3), 2)
        num_labels = 3 if i % 4 == 3 else 2
        net = random_network(rng, domain, hidden=hidden, num_labels=num_labels)
        instances.append(
            SuiteInstance(f"net{i:02d}", domain, net, truth_family(rng, domain, num_labels), "network")
        )
    return instances


@pytest.fixture(scope="session")
def model_suite():
    return build_suite()
