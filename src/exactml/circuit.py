"""Gate-level boolean circuits shared by models and predicates.

Inputs are the offset-binary bits of each feature (value - lo, low bit
first). Gates are created through hash-consing builder methods that fold
constants, so compiled circuits stay small without a separate optimization
pass. Every comparison of a feature with a constant (a tree's threshold, a
predicate's comparison, an end of a region) goes through `feature_le` or
`feature_eq`, which fold it against the feature's range. Bit patterns
above a feature's range are ruled out by a domain constraint wire that
every count conjoins onto its root: the CNF stage (`cnf.tseitin`) as a
unit clause, the truth-table and BDD managers (`bdd.count_roots`) with an
AND.

`Circuit.cone` is the one walk over the gates: every consumer (the Tseitin
encoder, the table and BDD managers, `partial_evaluate`) visits the wires
that its roots read through it, in ascending wire order. A gate reads only
lower wires, so one downward scan from the highest root marks the whole
cone, and the wires are then handed out lazily from the marks.

`constrain_region` conjoins the ranges of a sub-domain (such as the ball
from `predicates.region`) onto a root compiled over a wider domain.

`compile_predicate` validates and compiles each predicate object once per
circuit, keyed by identity, and a negation's operand is such an object, so
a binary problem's truths `Not(T)` and `T` walk `T` once. Hash-consing
gives a second walk the same wires, so this saves time and leaves the
gates as they are.

Arithmetic (for networks and feature-to-feature comparisons) is two's
complement with widths chosen from exact interval bounds, so overflow is
impossible by construction. `network_logits` makes each product of a
layer's input and a weight magnitude once for all the layer's rows, and
computes a row as `P - N`: the sum of its positive terms minus the sum of
its negative ones, so that a negative weight costs no negation of its
own. `bound_label` decides a network's argmax on
a box before anything is compiled, in one pass over its layers that
carries each unit's integer interval (the bounds the compiled bundles
have) next to an integer linear form over the inputs, whose range
narrows the interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Container, Iterable, Iterator, Mapping, Optional, Sequence

from .models import (
    DecisionTree,
    FeatureSpec,
    InputDomain,
    Leaf,
    Model,
    ModelError,
    QuantizedNetwork,
)
from . import predicates as P
from .predicates import Predicate

MAX_BUNDLE_WIDTH = 64


class WidthOverflowError(ValueError):
    """Interval analysis needs more bits than `MAX_BUNDLE_WIDTH`."""


@dataclass(frozen=True)
class Bundle:
    """A two's-complement wire bundle with exact value bounds [lo, hi]."""

    bits: tuple[int, ...]  # LSB first
    lo: int
    hi: int


def _signed_width(lo: int, hi: int) -> int:
    def bits_for(v: int) -> int:
        return v.bit_length() + 1 if v >= 0 else (-v - 1).bit_length() + 1

    return max(bits_for(lo), bits_for(hi), 1)


class Circuit:
    """Boolean circuit over a bounded integer domain.

    Wire ids: 0 .. num_input_bits-1 are input bits; gates follow in
    topological order. Treat instances as immutable once compiled.
    """

    def __init__(self, domain: InputDomain):
        self.domain = domain
        self.offsets = []
        total = 0
        for f in domain.features:
            self.offsets.append(total)
            total += f.bit_width
        self.num_input_bits = total
        self.gates: list[tuple] = []  # ("const", v) | ("not", a) | (op, a, b)
        self.outputs: dict[str, int] = {}
        self._cache: dict[tuple, int] = {}
        self._neg: dict[int, int] = {}
        self._consts: dict[int, bool] = {}  # const wire -> value; two at most
        # id(predicate) -> (predicate, wire); holding the object keeps its id unique
        self._predicates: dict[int, tuple[Predicate, int]] = {}
        self.domain_wire = self._build_domain_constraint()

    # -- gate construction -------------------------------------------------

    # `and_`, `or_`, `xor_` and `_ripple` do `_emit`'s lookup themselves: one
    # call per gate is a good share of the time it takes to compile a network
    def _emit(self, key: tuple) -> int:
        wire = self._cache.get(key)
        if wire is None:
            wire = self.num_input_bits + len(self.gates)
            self.gates.append(key)
            self._cache[key] = wire
        return wire

    def const(self, value: bool) -> int:
        value = bool(value)
        wire = self._emit(("const", value))
        self._consts[wire] = value
        return wire

    def const_value(self, wire: int) -> Optional[bool]:
        return self._consts.get(wire)

    def not_(self, a: int) -> int:
        av = self._consts.get(a)
        if av is not None:
            return self.const(not av)
        neg = self._neg.get(a)
        if neg is not None:
            return neg
        wire = self._emit(("not", a))
        self._neg[a] = wire
        self._neg[wire] = a
        return wire

    def and_(self, a: int, b: int) -> int:
        consts = self._consts
        av, bv = consts.get(a), consts.get(b)
        if av is not None:
            return b if av else self.const(False)
        if bv is not None:
            return a if bv else self.const(False)
        if a == b:
            return a
        if self._neg.get(a) == b:
            return self.const(False)
        if a > b:
            a, b = b, a
        key = ("and", a, b)
        wire = self._cache.get(key)
        if wire is None:
            wire = self.num_input_bits + len(self.gates)
            self.gates.append(key)
            self._cache[key] = wire
        return wire

    def or_(self, a: int, b: int) -> int:
        consts = self._consts
        av, bv = consts.get(a), consts.get(b)
        if av is not None:
            return self.const(True) if av else b
        if bv is not None:
            return self.const(True) if bv else a
        if a == b:
            return a
        if self._neg.get(a) == b:
            return self.const(True)
        if a > b:
            a, b = b, a
        key = ("or", a, b)
        wire = self._cache.get(key)
        if wire is None:
            wire = self.num_input_bits + len(self.gates)
            self.gates.append(key)
            self._cache[key] = wire
        return wire

    def xor_(self, a: int, b: int) -> int:
        consts = self._consts
        av, bv = consts.get(a), consts.get(b)
        if av is not None:
            return self.not_(b) if av else b
        if bv is not None:
            return self.not_(a) if bv else a
        if a == b:
            return self.const(False)
        if self._neg.get(a) == b:
            return self.const(True)
        if a > b:
            a, b = b, a
        key = ("xor", a, b)
        wire = self._cache.get(key)
        if wire is None:
            wire = self.num_input_bits + len(self.gates)
            self.gates.append(key)
            self._cache[key] = wire
        return wire

    def and_all(self, wires: Sequence[int]) -> int:
        acc = self.const(True)
        for w in wires:
            acc = self.and_(acc, w)
        return acc

    def or_all(self, wires: Sequence[int]) -> int:
        acc = self.const(False)
        for w in wires:
            acc = self.or_(acc, w)
        return acc

    # -- inputs and the domain constraint -----------------------------------

    def input_bit(self, feature: int, k: int) -> int:
        width = self.domain.features[feature].bit_width
        if not (0 <= k < width):
            raise ValueError(f"feature {feature} has no bit {k}")
        return self.offsets[feature] + k

    def feature_bits(self, feature: int) -> tuple[int, ...]:
        width = self.domain.features[feature].bit_width
        base = self.offsets[feature]
        return tuple(range(base, base + width))

    def _build_domain_constraint(self) -> int:
        acc = self.const(True)
        for i, f in enumerate(self.domain.features):
            span = f.hi - f.lo
            if f.bit_width and span != (1 << f.bit_width) - 1:
                acc = self.and_(acc, self.unsigned_le_const(self.feature_bits(i), span))
        return acc

    def set_output(self, name: str, wire: int) -> int:
        self.outputs[name] = wire
        return wire

    def output(self, name: str) -> int:
        if name not in self.outputs:
            raise KeyError(f"missing wire {name!r}")
        return self.outputs[name]

    # -- comparators ---------------------------------------------------------

    def unsigned_le_const(self, bits: Sequence[int], k: int) -> int:
        """bits (unsigned, LSB first) <= k, for 0 <= k < 2**len(bits) - 1."""
        acc = self.const(True)
        for i, b in enumerate(bits):
            if (k >> i) & 1:
                acc = self.or_(self.not_(b), acc)
            else:
                acc = self.and_(self.not_(b), acc)
        return acc

    def feature_le(self, feature: int, v: int) -> int:
        """value(feature) <= v, folded against the feature's range [lo, hi]."""
        f = self.domain.features[feature]
        k = v - f.lo
        if k < 0:
            return self.const(False)
        if k >= f.hi - f.lo:
            return self.const(True)
        return self.unsigned_le_const(self.feature_bits(feature), k)

    def feature_eq(self, feature: int, v: int) -> int:
        """value(feature) == v, folded against the feature's range [lo, hi]."""
        f = self.domain.features[feature]
        if not f.lo <= v <= f.hi:
            return self.const(False)
        k = v - f.lo
        acc = self.const(True)
        for i, b in enumerate(self.feature_bits(feature)):
            acc = self.and_(acc, b if (k >> i) & 1 else self.not_(b))
        return acc

    def _le_bits(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        acc = self.const(True)
        for x, y in zip(xs, ys):
            lt = self.and_(self.not_(x), y)
            eq = self.not_(self.xor_(x, y))
            acc = self.or_(lt, self.and_(eq, acc))
        return acc

    def signed_le(self, a: Bundle, b: Bundle) -> int:
        w = max(len(a.bits), len(b.bits))
        xs = list(self._extend(a, w))
        ys = list(self._extend(b, w))
        # flipping the sign bit maps two's complement onto an unsigned scale
        xs[-1] = self.not_(xs[-1])
        ys[-1] = self.not_(ys[-1])
        return self._le_bits(xs, ys)

    def bundles_equal(self, a: Bundle, b: Bundle) -> int:
        w = max(len(a.bits), len(b.bits))
        xs = self._extend(a, w)
        ys = self._extend(b, w)
        acc = self.const(True)
        for x, y in zip(xs, ys):
            acc = self.and_(acc, self.not_(self.xor_(x, y)))
        return acc

    # -- two's-complement arithmetic ------------------------------------------

    def _register(self, bits: Sequence[int], lo: int, hi: int) -> Bundle:
        if len(bits) > MAX_BUNDLE_WIDTH:
            raise WidthOverflowError(
                f"width overflow: bundle needs {len(bits)} bits, maximum is {MAX_BUNDLE_WIDTH}"
            )
        return Bundle(tuple(bits), lo, hi)

    def const_bundle(self, v: int) -> Bundle:
        w = _signed_width(v, v)
        bits = [self.const((v >> i) & 1) for i in range(w)]
        return self._register(bits, v, v)

    def encoded_bundle(self, feature: int) -> Bundle:
        """The feature's offset-binary bits (value - lo) as a bundle over [0, hi - lo]."""
        f = self.domain.features[feature]
        return self._register(self.feature_bits(feature) + (self.const(False),), 0, f.hi - f.lo)

    def feature_bundle(self, feature: int) -> Bundle:
        """The feature's actual value: offset-binary bits plus the lo offset."""
        f = self.domain.features[feature]
        enc = self.encoded_bundle(feature)
        if f.lo == 0:
            return enc
        return self.add(enc, self.const_bundle(f.lo))

    def _extend(self, b: Bundle, w: int) -> tuple[int, ...]:
        """b's bits sign-extended, or cut, to w bits. Sums and differences are
        right modulo 2**w, so a cut operand still gives a result that holds
        its range in w bits, the width that `add` and `sub` give it."""
        sign = b.bits[-1]
        return (b.bits + (sign,) * (w - len(b.bits)))[:w]

    def _ripple(self, xs, ys, carry):
        """The sum bits of xs + ys + carry, a full adder per bit.

        A full adder is t = x ^ y, the sum t ^ carry and the carry out
        (x & y) | (carry & t). Where none of these folds (no constant
        operand, neither x and y nor t and carry equal or negations of each
        other) its five gates are looked up in `_cache` here, with the keys
        and in the order that `xor_`, `and_` and `or_` would use. Where one
        operand is constant false and the other two do not fold, the
        generic methods would make only those two's XOR (the sum) and AND
        (the carry), and so does this. Any other bit goes through them.
        """
        consts, neg, cache, gates = self._consts, self._neg, self._cache, self.gates
        n_in = self.num_input_bits
        out = []
        for x, y in zip(xs, ys):
            if x not in consts and y not in consts and carry not in consts:
                if x > y:
                    x, y = y, x
                if x != y and neg.get(x) != y:
                    t = cache.get(key := ("xor", x, y))
                    if t is None:
                        t = cache[key] = n_in + len(gates)
                        gates.append(key)
                    if t != carry and neg.get(t) != carry:
                        a, b = (t, carry) if t < carry else (carry, t)
                        s = cache.get(key := ("xor", a, b))
                        if s is None:
                            s = cache[key] = n_in + len(gates)
                            gates.append(key)
                        out.append(s)
                        xy = cache.get(key := ("and", x, y))
                        if xy is None:
                            xy = cache[key] = n_in + len(gates)
                            gates.append(key)
                        ct = cache.get(key := ("and", a, b))
                        if ct is None:
                            ct = cache[key] = n_in + len(gates)
                            gates.append(key)
                        carry = cache.get(key := ("or", xy, ct) if xy < ct else ("or", ct, xy))
                        if carry is None:
                            carry = cache[key] = n_in + len(gates)
                            gates.append(key)
                        continue
            else:
                values = (consts.get(x), consts.get(y), consts.get(carry))
                if values.count(None) == 2 and False in values:
                    a, b = sorted(w for w, v in zip((x, y, carry), values) if v is None)
                    if a != b and neg.get(a) != b:
                        s = cache.get(key := ("xor", a, b))
                        if s is None:
                            s = cache[key] = n_in + len(gates)
                            gates.append(key)
                        out.append(s)
                        carry = cache.get(key := ("and", a, b))
                        if carry is None:
                            carry = cache[key] = n_in + len(gates)
                            gates.append(key)
                        continue
            t = self.xor_(x, y)
            out.append(self.xor_(t, carry))
            carry = self.or_(self.and_(x, y), self.and_(carry, t))
        return out

    def add(self, a: Bundle, b: Bundle) -> Bundle:
        lo, hi = a.lo + b.lo, a.hi + b.hi
        w = _signed_width(lo, hi)
        bits = self._ripple(self._extend(a, w), self._extend(b, w), self.const(False))
        return self._register(bits, lo, hi)

    def sub(self, a: Bundle, b: Bundle) -> Bundle:
        lo, hi = a.lo - b.hi, a.hi - b.lo
        w = _signed_width(lo, hi)
        ys = [self.not_(y) for y in self._extend(b, w)]
        bits = self._ripple(self._extend(a, w), ys, self.const(True))
        return self._register(bits, lo, hi)

    def shift_left(self, a: Bundle, k: int) -> Bundle:
        if k == 0:
            return a
        bits = (self.const(False),) * k + a.bits
        return self._register(bits, a.lo << k, a.hi << k)

    def shift_right(self, a: Bundle, k: int) -> Bundle:
        """Arithmetic right shift: floor division by 2**k."""
        if k == 0:
            return a
        bits = a.bits[k:] or (a.bits[-1],)
        return self._register(bits, a.lo >> k, a.hi >> k)

    def mul_const(self, a: Bundle, c: int) -> Bundle:
        """Shift-and-add multiplication by a known constant c >= 1.

        `network_logits` multiplies by a weight's magnitude only; a negative
        weight's product is subtracted, never negated on its own.
        """
        if c < 1:
            raise ValueError(f"mul_const needs a constant of at least 1, not {c}")
        acc = None
        for k in range(c.bit_length()):
            if (c >> k) & 1:
                term = self.shift_left(a, k)
                acc = term if acc is None else self.add(acc, term)
        return acc

    def relu(self, a: Bundle) -> Bundle:
        if a.lo >= 0:
            return a
        if a.hi <= 0:
            return self.const_bundle(0)
        keep = self.not_(a.bits[-1])
        bits = [self.and_(b, keep) for b in a.bits]
        return self._register(bits, 0, a.hi)

    # -- cones and evaluation -------------------------------------------------

    def cone(self, wires: Iterable[int], done: Container[int] = ()) -> Iterator[int]:
        """`wires` and every wire they read, ascending, so operands come first.

        A wire in `done` is neither entered nor returned. A gate reads only
        lower wires, so one scan down from the highest of `wires` marks the
        cone in a bytearray: a wire's mark is final when the scan reaches it,
        and each run of unmarked wires is skipped in one `rfind`, so a small
        cone above a large `done` costs little. The scan is over when this
        returns, and the marked wires are then given one at a time, so the
        caller may add to `done` as it goes.
        """
        n_in, gates = self.num_input_bits, self.gates
        roots = list(wires)
        top = max(roots, default=-1)
        mark = bytearray(top + 1)
        for w in roots:
            mark[w] = 1
        w = top
        while w >= 0:
            if not mark[w]:
                w = mark.rfind(1, 0, w)  # skips an unmarked run at C speed
                continue
            if w in done:
                mark[w] = 0
            elif w >= n_in:
                gate = gates[w - n_in]
                if gate[0] != "const":
                    mark[gate[1]] = 1  # a "not" gate's one operand is also its last
                    mark[gate[-1]] = 1
            w -= 1
        return compress(range(top + 1), mark)

    def simulate(self, point: Sequence[int]) -> list[bool]:
        """Topological evaluation; returns the value of every wire."""
        self.domain.check_point(point)
        values = [False] * (self.num_input_bits + len(self.gates))
        for i, (f, v) in enumerate(zip(self.domain.features, point)):
            enc = v - f.lo
            base = self.offsets[i]
            for k in range(f.bit_width):
                values[base + k] = bool((enc >> k) & 1)
        base = self.num_input_bits
        for gi, gate in enumerate(self.gates):
            op = gate[0]
            if op == "const":
                values[base + gi] = gate[1]
            elif op == "not":
                values[base + gi] = not values[gate[1]]
            elif op == "and":
                values[base + gi] = values[gate[1]] and values[gate[2]]
            elif op == "or":
                values[base + gi] = values[gate[1]] or values[gate[2]]
            else:
                values[base + gi] = values[gate[1]] ^ values[gate[2]]
        return values


# ---------------------------------------------------------------------------
# Model compilation
# ---------------------------------------------------------------------------

def compile_tree(tree: DecisionTree, domain: InputDomain) -> Circuit:
    """One output wire model_<l> per label: OR over that label's leaf paths."""
    c = Circuit(domain)
    by_label: dict[int, list[int]] = {l: [] for l in range(tree.num_labels)}
    stack = [(tree.root, c.const(True))]
    while stack:
        idx, guard = stack.pop()
        node = tree.nodes[idx]
        if isinstance(node, Leaf):
            by_label[node.label].append(guard)
        else:
            cond = c.feature_le(node.feature, node.threshold)
            stack.append((node.right, c.and_(guard, c.not_(cond))))
            stack.append((node.left, c.and_(guard, cond)))
    for label, guards in by_label.items():
        c.set_output(f"model_{label}", c.or_all(guards))
    return c


def _sum_fits(const: int, terms: list[Bundle]) -> bool:
    """Whether every partial sum of `const` (>= 0) and `terms`, in any
    order, fits in `MAX_BUNDLE_WIDTH` bits."""
    lo = sum(min(t.lo, 0) for t in terms)
    hi = const + sum(max(t.hi, 0) for t in terms)
    return _signed_width(lo, hi) <= MAX_BUNDLE_WIDTH


def _sum(c: Circuit, const: int, terms: list[Bundle]) -> Bundle:
    """`const` (>= 0) plus `terms`, narrowest range first so that the first
    ripples are short."""
    terms = sorted([c.const_bundle(const)] * (const > 0) + terms, key=lambda t: t.hi - t.lo)
    acc = terms[0] if terms else c.const_bundle(0)
    for t in terms[1:]:
        acc = c.add(acc, t)
    return acc


def network_logits(c: Circuit, net: QuantizedNetwork) -> list[Bundle]:
    """Bit-blast the affine layers over the circuit's domain; returns the logits.

    A layer multiplies each input by each weight magnitude that its rows
    give that input once (`mul_const`), and the rows share the product. A
    row sums its positive-weight products and the positive part of its
    bias into P, its negative-weight products and the negative part of its
    bias into N, and is `P - N`: one subtraction, or none where N is the
    constant 0. A layer reads offset-binary bits or ReLU outputs, all >= 0
    (only a hidden "none" layer's outputs can be negative), so P and N grow
    with no sign bits to extend. The row's bounds are those of its sum in
    any order. Where P or N could need more than `MAX_BUNDLE_WIDTH` bits
    though the row fits (terms near 2**62 that cancel), the row is instead
    a running sum in row order that adds or subtracts each product in turn.
    """
    # first layer reads offset-binary encodings; feature lo offsets fold into biases
    acts = [c.encoded_bundle(i) for i in range(len(c.domain.features))]
    offsets = [f.lo for f in c.domain.features]
    for layer in net.layers:
        # (input, weight magnitude) -> their product, for all the layer's rows
        pairs = dict.fromkeys((i, abs(w)) for row in layer.weights for i, w in enumerate(row) if w)
        products = {(i, m): c.mul_const(acts[i], m) for i, m in pairs}
        out = []
        for row, bias in zip(layer.weights, layer.biases):
            folded = bias + sum(w * off for w, off in zip(row, offsets))
            pos = [products[i, w] for i, w in enumerate(row) if w > 0]
            neg = [products[i, -w] for i, w in enumerate(row) if w < 0]
            pos_bias, neg_bias = max(folded, 0), max(-folded, 0)
            if _sum_fits(pos_bias, pos) and _sum_fits(neg_bias, neg):
                z = _sum(c, pos_bias, pos)
                if neg or neg_bias:
                    z = c.sub(z, _sum(c, neg_bias, neg))
            else:
                z = c.const_bundle(folded)
                for i, w in enumerate(row):
                    if w:
                        z = (c.add if w > 0 else c.sub)(z, products[i, abs(w)])
            z = c.shift_right(z, layer.post_shift)
            if layer.activation == "relu":
                z = c.relu(z)
            out.append(z)
        acts = out
        offsets = [0] * len(out)
    return acts


def compile_network(net: QuantizedNetwork, domain: InputDomain) -> Circuit:
    """Bit-blast the affine layers and the argmax decision (ties -> lowest label)."""
    c = Circuit(domain)
    logits = network_logits(c, net)
    for l in range(len(logits)):
        conds = []
        for j in range(len(logits)):
            if j < l:
                conds.append(c.not_(c.signed_le(logits[l], logits[j])))  # logit_j < logit_l
            elif j > l:
                conds.append(c.signed_le(logits[j], logits[l]))  # logit_l >= logit_j
        c.set_output(f"model_{l}", c.and_all(conds))
    return c


def bound_label(model: Model, domain: InputDomain) -> Optional[int]:
    """The label a network decides on every point of `domain`, if one bound pass proves it.

    Each unit carries a linear form over the inputs plus an error interval
    (ReluVal's symbolic intervals) and an integer interval, by the rules of
    the compiled `Bundle`s. `>> s` divides a form by `2**s` and adds the
    floor's error `[-(2**s - 1) / 2**s, 0]`, and all forms of a layer are
    scaled by `2**scale`, the sum of the shifts so far, to stay on
    integers. After each affine row the interval narrows to the form's
    range, rounded inward (a reduced product, as in DeepPoly). A ReLU reads
    its case from the form's rounded range alone: it keeps the form where
    that range is stably active, is 0 where it is stably inactive, and the
    constant `[0, form's hi]` otherwise. So the forms are those that forms
    alone would give, the intervals are never wider than intervals alone
    would give, and the pass decides every box that either decides alone. Label
    l wins the argmax of `compile_network` (ties to the lowest label) by
    the logit intervals, or where `logit_l - logit_j` is at least 1 for
    every lower label j and at least 0 for every higher one. None when
    both tests leave it open, and for trees, whose circuits `compile_tree`
    already folds against the box.
    """
    if not isinstance(model, QuantizedNetwork):
        return None
    box = [(f.lo, f.hi) for f in domain.features]
    # (coefficients, constant, error lo, error hi, lo, hi). The coefficients
    # map an input's index to its coefficient: an input's form has one entry
    # and a constant's none, so neither costs a walk over every input.
    units = [({k: 1}, 0, 0, 0, lo, hi) for k, (lo, hi) in enumerate(box)]
    scale = 0
    for layer in model.layers:
        shift = layer.post_shift
        bias_scale, scale = scale, scale + shift
        floor_error = ((1 << shift) - 1) << bias_scale
        out = []
        for row, bias in zip(layer.weights, layer.biases):
            coeffs, const, err_lo, err_hi = {}, bias << bias_scale, -floor_error, 0
            lo = hi = bias
            for w, (u_coeffs, u_const, u_err_lo, u_err_hi, u_lo, u_hi) in zip(row, units):
                if w > 0:
                    lo, hi = lo + w * u_lo, hi + w * u_hi
                    err_lo, err_hi = err_lo + w * u_err_lo, err_hi + w * u_err_hi
                elif w < 0:
                    lo, hi = lo + w * u_hi, hi + w * u_lo
                    err_lo, err_hi = err_lo + w * u_err_hi, err_hi + w * u_err_lo
                else:
                    continue
                const += w * u_const
                for k, c in u_coeffs.items():
                    coeffs[k] = coeffs.get(k, 0) + w * c
            f_lo, f_hi = const + err_lo, const + err_hi
            for k, c in coeffs.items():
                a, b = box[k]
                if c > 0:
                    f_lo, f_hi = f_lo + c * a, f_hi + c * b
                else:
                    f_lo, f_hi = f_lo + c * b, f_hi + c * a
            f_lo, f_hi = -(-f_lo >> scale), f_hi >> scale
            lo, hi = max(lo >> shift, f_lo), min(hi >> shift, f_hi)
            if layer.activation == "relu":
                # Not from the narrowed interval: its lo can be >= 0 while the
                # form dips below 0, and keeping that form in place of the
                # constant can lose a box that the forms alone decide.
                if f_hi <= 0:
                    coeffs, const, err_lo, err_hi = {}, 0, 0, 0
                elif f_lo < 0:
                    coeffs, const, err_lo, err_hi = {}, 0, 0, f_hi << scale
                lo, hi = max(lo, 0), max(hi, 0)
            out.append((coeffs, const, err_lo, err_hi, lo, hi))
        units = out
    for l, unit in enumerate(units):
        lo = unit[4]
        if all(u[5] < lo for u in units[:l]) and all(u[5] <= lo for u in units[l + 1:]):
            return l
    for l, (coeffs, const, err_lo, _, _, _) in enumerate(units):
        for j, (j_coeffs, j_const, _, j_err_hi, _, _) in enumerate(units):
            if j == l:
                continue
            least = const - j_const + err_lo - j_err_hi
            for k, (a, b) in enumerate(box):
                d = coeffs.get(k, 0) - j_coeffs.get(k, 0)
                least += d * (a if d > 0 else b)
            if -(-least >> scale) < (1 if j < l else 0):
                break
        else:
            return l
    return None


def compile_model(model: Model, domain: InputDomain) -> Circuit:
    if isinstance(model, DecisionTree):
        return compile_tree(model, domain)
    return compile_network(model, domain)


# ---------------------------------------------------------------------------
# Predicate compilation
# ---------------------------------------------------------------------------

def compile_predicate(circuit: Circuit, pred: Predicate, name: Optional[str] = None) -> int:
    """Compile a predicate into an existing circuit; returns its root wire.

    Each predicate object is validated and compiled once per circuit, and a
    negation's operand counts as such an object: after `Not(T)`, compiling
    `T` returns its wire without another walk.
    """
    wire = _predicate_wire(circuit, pred)
    if name is not None:
        circuit.set_output(name, wire)
    return wire


def _predicate_wire(c: Circuit, pred: Predicate) -> int:
    known = c._predicates.get(id(pred))
    if known is not None:
        return known[1]
    if isinstance(pred, P.Not):
        wire = c.not_(_predicate_wire(c, pred.child))
    else:
        P.validate_predicate(pred, c.domain)
        wire = _compile_pred(c, pred)
    c._predicates[id(pred)] = (pred, wire)
    return wire


def _compile_cmp_const(c: Circuit, op: str, feature: int, k: int) -> int:
    if op in ("=", "!="):
        eq = c.feature_eq(feature, k)
        return eq if op == "=" else c.not_(eq)
    # x < k is x <= k - 1; > and >= negate <= and <
    le = c.feature_le(feature, k - 1 if op in ("<", ">=") else k)
    return le if op in ("<=", "<") else c.not_(le)


def _compile_cmp_feature(c: Circuit, op: str, left: int, right: int) -> int:
    a = c.feature_bundle(left)
    b = c.feature_bundle(right)
    if op == "<=":
        return c.signed_le(a, b)
    if op == "<":
        return c.not_(c.signed_le(b, a))
    if op == ">=":
        return c.signed_le(b, a)
    if op == ">":
        return c.not_(c.signed_le(a, b))
    eq = c.bundles_equal(a, b)
    return eq if op == "=" else c.not_(eq)


def _compile_pred(c: Circuit, pred: Predicate) -> int:
    if isinstance(pred, P.Const):
        return c.const(pred.value)
    if isinstance(pred, P.CmpConst):
        return _compile_cmp_const(c, pred.op, pred.feature, pred.constant)
    if isinstance(pred, P.CmpFeature):
        return _compile_cmp_feature(c, pred.op, pred.left, pred.right)
    if isinstance(pred, P.Not):
        return c.not_(_compile_pred(c, pred.child))
    if isinstance(pred, P.And):
        return c.and_all([_compile_pred(c, child) for child in pred.children])
    if isinstance(pred, P.Or):
        return c.or_all([_compile_pred(c, child) for child in pred.children])
    raise TypeError(f"not a predicate: {pred!r}")


# ---------------------------------------------------------------------------
# Regions, partial evaluation
# ---------------------------------------------------------------------------

def constrain_region(circuit: Circuit, root: int, region: InputDomain) -> int:
    """Conjoin onto `root` a comparator for each end where `region` narrows a feature.

    ModelError unless `region` is a sub-domain of the circuit's domain: as
    many features, each range inside the circuit's.
    """
    features = circuit.domain.features
    if len(region.features) != len(features):
        raise ModelError(
            f"region has {len(region.features)} features, the circuit's domain has {len(features)}"
        )
    for r, f in zip(region.features, features):
        f.check(r.lo)
        f.check(r.hi)
    acc = root
    for i, (r, f) in enumerate(zip(region.features, features)):
        if r.lo > f.lo:
            acc = circuit.and_(acc, circuit.not_(circuit.feature_le(i, r.lo - 1)))
        if r.hi < f.hi:
            acc = circuit.and_(acc, circuit.feature_le(i, r.hi))
    return acc


def partial_evaluate(circuit: Circuit, fixed: Mapping[int, int]) -> Circuit:
    """Pin features to constants and rebuild with constant propagation.

    The result lives over a narrowed domain in which every fixed feature is a
    single point (zero input bits), so counts of the new circuit project over
    the remaining inputs only. Gates not reachable from a named output are
    dropped.
    """
    for f_idx, value in fixed.items():
        if not 0 <= f_idx < len(circuit.domain.features):
            raise ModelError(f"feature index {f_idx} out of range for the circuit's domain")
        circuit.domain.features[f_idx].check(value)
    new_features = tuple(
        FeatureSpec(f.name, fixed[i], fixed[i]) if i in fixed else f
        for i, f in enumerate(circuit.domain.features)
    )
    new_domain = InputDomain(new_features)
    out = Circuit(new_domain)

    wiremap: dict[int, int] = {}
    for i, f in enumerate(circuit.domain.features):
        base = circuit.offsets[i]
        if i in fixed:
            enc = fixed[i] - f.lo
            for k in range(f.bit_width):
                wiremap[base + k] = out.const(bool((enc >> k) & 1))
        else:
            for k in range(f.bit_width):
                wiremap[base + k] = out.input_bit(i, k)

    base = circuit.num_input_bits
    ops = {"and": out.and_, "or": out.or_, "xor": out.xor_}
    for wire in circuit.cone(circuit.outputs.values()):
        if wire < base:
            continue
        gate = circuit.gates[wire - base]
        op = gate[0]
        if op == "const":
            wiremap[wire] = out.const(gate[1])
        elif op == "not":
            wiremap[wire] = out.not_(wiremap[gate[1]])
        else:
            wiremap[wire] = ops[op](wiremap[gate[1]], wiremap[gate[2]])

    for name, wire in circuit.outputs.items():
        out.set_output(name, wiremap[wire])
    return out
