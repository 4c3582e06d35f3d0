"""Ground-truth predicates, safety properties and the boxes metrics count over.

Predicates are finite ASTs over the features of a bounded domain: integer
comparisons against constants or other features, boolean connectives, and
bounded quantifiers that are expanded at parse time, to at most
`MAX_NESTING` levels and `MAX_QUANTIFIER_COPIES` copies of a body. The
builtin library covers the standard relational properties of finite graphs
encoded as adjacency-matrix bits; the same limit bounds the features of a
graph domain and the conjuncts of a builtin property.

A box is a sub-domain, an `InputDomain` with narrower ranges: `region`
gives the L-infinity ball around a point and `bounding_box` a box holding
every point that satisfies a predicate.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .models import FeatureSpec, InputDomain, ModelError


class PredicateError(ValueError):
    """Syntax or resolution error in a predicate expression."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: bool

    def evaluate(self, point) -> bool:
        return self.value


@dataclass(frozen=True)
class CmpConst:
    """feature <op> constant, with op one of <= < >= > = !=."""

    op: str
    feature: int
    constant: int

    def evaluate(self, point) -> bool:
        return _apply_op(self.op, point[self.feature], self.constant)


@dataclass(frozen=True)
class CmpFeature:
    """feature <op> feature."""

    op: str
    left: int
    right: int

    def evaluate(self, point) -> bool:
        return _apply_op(self.op, point[self.left], point[self.right])


@dataclass(frozen=True)
class Not:
    child: "Predicate"

    def evaluate(self, point) -> bool:
        return not self.child.evaluate(point)


@dataclass(frozen=True)
class And:
    children: tuple

    def evaluate(self, point) -> bool:
        return all(c.evaluate(point) for c in self.children)


@dataclass(frozen=True)
class Or:
    children: tuple

    def evaluate(self, point) -> bool:
        return any(c.evaluate(point) for c in self.children)


Predicate = Union[Const, CmpConst, CmpFeature, Not, And, Or]

_OPS = ("<=", "<", ">=", ">", "=", "!=")


def _apply_op(op: str, a: int, b: int) -> bool:
    if op == "<=":
        return a <= b
    if op == "<":
        return a < b
    if op == ">=":
        return a >= b
    if op == ">":
        return a > b
    if op == "=":
        return a == b
    return a != b


def implies(a: Predicate, b: Predicate) -> Predicate:
    return Or((Not(a), b))


def validate_predicate(pred: Predicate, domain: InputDomain) -> None:
    """Check that every feature reference fits the domain."""
    n = len(domain.features)
    stack = [pred]
    while stack:
        p = stack.pop()
        if isinstance(p, CmpConst):
            refs = (p.feature,)
        elif isinstance(p, CmpFeature):
            refs = (p.left, p.right)
        elif isinstance(p, Not):
            stack.append(p.child)
            continue
        elif isinstance(p, (And, Or)):
            stack.extend(p.children)
            continue
        else:
            continue
        for f in refs:
            if not (0 <= f < n):
                raise PredicateError(
                    f"feature index {f} out of range for a {n}-feature domain"
                )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>-?\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym><=|>=|!=|==|=>|&&|\|\||[<>=!()\[\],:]))"
)

_KEYWORDS = {"forall", "exists", "in", "true", "false"}

# Deepest nesting the parser accepts: each open parenthesis or quantifier
# body, each `!` and each `=>` whose right side is being read is a level. A
# level costs at most 8 frames to parse and 10 to evaluate, so parsing and
# `evaluate`, `_bounding_box` or `circuit._compile_pred` stay within about
# 640 frames, well inside Python's default recursion limit of 1000.
MAX_NESTING = 64

# Most copies of a quantifier body the parser makes. A quantifier over
# [lo, hi) with k binders parses its body (hi - lo)**k times for each copy
# of the body around it, so nested quantifiers multiply. A copy of a
# three-comparison body takes about 18 us to parse (CPython 3.11, 2-core
# x86-64 VM), so the limit bounds the expansion to about 2 s.
MAX_QUANTIFIER_COPIES = 100_000


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "ident", "sym", "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise PredicateError(f"syntax error at position {pos}: unexpected {text[pos]!r}")
        if match.lastgroup == "int":
            tokens.append(_Token("int", match.group("int"), match.start("int")))
        elif match.lastgroup == "ident":
            tokens.append(_Token("ident", match.group("ident"), match.start("ident")))
        else:
            tokens.append(_Token("sym", match.group("sym"), match.start("sym")))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser; quantifiers bind as loosely as possible."""

    def __init__(self, text: str, domain: InputDomain):
        self.text = text
        self.domain = domain
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.copies = 1  # copies of the current quantifier body

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise PredicateError(
                f"syntax error at position {tok.pos}: expected {text!r}, got {tok.text!r}"
            )
        return tok

    def fail(self, tok: _Token, what: str):
        raise PredicateError(f"syntax error at position {tok.pos}: {what}")

    def parse(self) -> Predicate:
        pred = self.parse_pred({})
        tok = self.peek()
        if tok.kind != "end":
            self.fail(tok, f"unexpected trailing input {tok.text!r}")
        return pred

    def nested(self, parse, env) -> Predicate:
        """`parse(env)` one nesting level deeper; see `MAX_NESTING`."""
        if self.depth == MAX_NESTING:
            self.fail(self.peek(), f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        pred = parse(env)
        self.depth -= 1
        return pred

    def parse_pred(self, env) -> Predicate:
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("forall", "exists"):
            return self.parse_quant(env)
        return self.parse_implies(env)

    def parse_quant(self, env) -> Predicate:
        kind_tok = self.next()
        kind = kind_tok.text
        names = [self.parse_binder(env)]
        while self.peek().text == ",":
            self.next()
            names.append(self.parse_binder(env))
        self.expect("in")
        self.expect("[")
        lo_tok = self.next()
        if lo_tok.kind != "int":
            self.fail(lo_tok, "quantifier bound must be a constant integer")
        self.expect(",")
        hi_tok = self.next()
        if hi_tok.kind != "int":
            self.fail(hi_tok, "quantifier bound must be a constant integer")
        self.expect(")")
        self.expect(":")
        lo, hi = int(lo_tok.text), int(hi_tok.text)
        # an empty range parses its body once, to check its syntax
        copies = self.copies * max(max(hi - lo, 0) ** len(names), 1)
        if copies > MAX_QUANTIFIER_COPIES:
            self.fail(kind_tok, f"quantifiers expand to more than {MAX_QUANTIFIER_COPIES} "
                                f"copies of this body")
        outer, self.copies = self.copies, copies
        body_start = self.i
        children = []
        for values in itertools.product(range(lo, hi), repeat=len(names)):
            self.i = body_start
            child_env = dict(env)
            child_env.update(zip(names, values))
            children.append(self.nested(self.parse_pred, child_env))
        if children:
            pred = And(tuple(children)) if kind == "forall" else Or(tuple(children))
        else:
            self.i = body_start
            self.nested(self.parse_pred, dict(env, **{n: 0 for n in names}))
            pred = Const(kind == "forall")
        self.copies = outer
        return pred

    def parse_binder(self, env) -> str:
        tok = self.next()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            self.fail(tok, "expected quantifier variable name")
        if tok.text in env:
            self.fail(tok, f"variable {tok.text!r} already bound")
        return tok.text

    def parse_implies(self, env) -> Predicate:
        left = self.parse_or(env)
        if self.peek().text == "=>":
            self.next()
            return implies(left, self.nested(self.parse_implies, env))
        return left

    def parse_or(self, env) -> Predicate:
        terms = [self.parse_and(env)]
        while self.peek().text == "||":
            self.next()
            terms.append(self.parse_and(env))
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def parse_and(self, env) -> Predicate:
        terms = [self.parse_not(env)]
        while self.peek().text == "&&":
            self.next()
            terms.append(self.parse_not(env))
        return terms[0] if len(terms) == 1 else And(tuple(terms))

    def parse_not(self, env) -> Predicate:
        if self.peek().text == "!":
            self.next()
            return Not(self.nested(self.parse_not, env))
        return self.parse_atom(env)

    def parse_atom(self, env) -> Predicate:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.nested(self.parse_pred, env)
            self.expect(")")
            return inner
        if tok.kind == "ident" and tok.text in ("forall", "exists"):
            return self.parse_quant(env)
        if tok.kind == "ident" and tok.text == "true":
            self.next()
            return Const(True)
        if tok.kind == "ident" and tok.text == "false":
            self.next()
            return Const(False)
        left = self.parse_term(env)
        op_tok = self.next()
        op = "=" if op_tok.text == "==" else op_tok.text
        if op not in _OPS:
            self.fail(op_tok, f"expected comparison operator, got {op_tok.text!r}")
        right = self.parse_term(env)
        return self.make_cmp(op, left, right, op_tok)

    def parse_term(self, env):
        """Returns ('int', value) or ('feat', feature_index)."""
        tok = self.next()
        if tok.kind == "int":
            return ("int", int(tok.text))
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            self.fail(tok, f"expected integer or feature, got {tok.text!r}")
        name = tok.text
        if name in env and self.peek().text != "[":
            return ("int", env[name])
        while self.peek().text == "[":
            self.next()
            idx_tok = self.next()
            if idx_tok.kind == "int":
                idx = int(idx_tok.text)
            elif idx_tok.kind == "ident" and idx_tok.text in env:
                idx = env[idx_tok.text]
            else:
                self.fail(idx_tok, f"unknown index {idx_tok.text!r}")
            self.expect("]")
            name += f"[{idx}]"
        try:
            return ("feat", self.domain.index_of(name))
        except KeyError:
            raise PredicateError(f"unknown feature {name!r} at position {tok.pos}") from None

    def make_cmp(self, op, left, right, tok) -> Predicate:
        lk, lv = left
        rk, rv = right
        if lk == "int" and rk == "int":
            return Const(_apply_op(op, lv, rv))
        if lk == "feat" and rk == "int":
            return CmpConst(op, lv, rv)
        if lk == "int" and rk == "feat":
            flipped = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "=": "=", "!=": "!="}
            return CmpConst(flipped[op], rv, lv)
        return CmpFeature(op, lv, rv)


def parse_predicate(text: str, domain: InputDomain) -> Predicate:
    """Parse the infix predicate grammar; quantifiers are expanded eagerly."""
    return _Parser(text, domain).parse()


# ---------------------------------------------------------------------------
# Builtin graph properties
# ---------------------------------------------------------------------------

def graph_domain(n_nodes: int) -> InputDomain:
    """Domain of n^2 binary adjacency bits e[i][j], row-major order."""
    if n_nodes < 1:
        raise ModelError("n_nodes must be >= 1")
    if n_nodes * n_nodes > MAX_QUANTIFIER_COPIES:
        raise ModelError(f"a graph of {n_nodes} nodes has more than {MAX_QUANTIFIER_COPIES} "
                         f"edge features")
    return InputDomain(
        tuple(
            FeatureSpec(f"e[{i}][{j}]", 0, 1)
            for i in range(n_nodes)
            for j in range(n_nodes)
        )
    )


def _edge_atoms(n: int) -> list[list[Predicate]]:
    """`has[i][j]` is the atom `e[i][j] = 1`; one object per edge, shared by every conjunct."""
    return [[CmpConst("=", i * n + j, 1) for j in range(n)] for i in range(n)]


def _reflexive(has):
    return And(tuple(has[i][i] for i in range(len(has))))


def _irreflexive(has):
    n = len(has)
    return And(tuple(CmpConst("=", i * n + i, 0) for i in range(n)))


def _symmetric(has):
    n = len(has)
    return And(
        tuple(
            implies(has[i][j], has[j][i])
            for i in range(n)
            for j in range(n)
            if i != j
        )
    )


def _antisymmetric(has):
    n = len(has)
    return And(
        tuple(
            Not(And((has[i][j], has[j][i])))
            for i in range(n)
            for j in range(i + 1, n)
        )
    )


def _connex(has):
    n = len(has)
    return And(
        tuple(
            Or((has[i][j], has[j][i]))
            for i in range(n)
            for j in range(i + 1, n)
        )
    )


def _transitive(has):
    n = len(has)
    return And(
        tuple(
            implies(And((has[i][j], has[j][k])), has[i][k])
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )
    )


def _partialorder(has):
    return And((_reflexive(has), _antisymmetric(has), _transitive(has)))


# name -> (d, builder): the property over n nodes is counted as n**d
# conjuncts, the size of its largest part (`_transitive` has n**3)
_GRAPH_BUILDERS = {
    "antisymmetric": (2, _antisymmetric),
    "connex": (2, _connex),
    "equivalence": (3, lambda has: And((_reflexive(has), _symmetric(has), _transitive(has)))),
    "irreflexive": (1, _irreflexive),
    "nonstrictorder": (3, _partialorder),
    "partialorder": (3, _partialorder),
    "preorder": (3, lambda has: And((_reflexive(has), _transitive(has)))),
    "reflexive": (1, _reflexive),
    "strictorder": (3, lambda has: And((_irreflexive(has), _transitive(has)))),
    "totalorder": (3, lambda has: And((_reflexive(has), _antisymmetric(has),
                                       _transitive(has), _connex(has)))),
    "transitive": (3, _transitive),
}
GRAPH_PROPERTIES = tuple(_GRAPH_BUILDERS)


def builtin_graph_property(name: str, n_nodes: int) -> Predicate:
    """Standard relational property over the n_nodes adjacency-matrix domain.

    Frozen definitions (so satisfying counts are reproducible):
      reflexive       forall i: e[i][i]=1
      irreflexive     forall i: e[i][i]=0
      antisymmetric   forall i!=j: not (e[i][j] and e[j][i])
      connex          forall i!=j: e[i][j] or e[j][i]
      transitive      forall i,j,k: e[i][j] and e[j][k] => e[i][k]
      equivalence     reflexive and symmetric and transitive
      preorder        reflexive and transitive
      partialorder    reflexive and antisymmetric and transitive
      nonstrictorder  reflexive and antisymmetric and transitive
      strictorder     irreflexive and transitive
      totalorder      nonstrictorder and connex
    """
    if n_nodes < 1:
        raise ModelError("n_nodes must be >= 1")
    key = name.lower()
    if key not in _GRAPH_BUILDERS:
        raise PredicateError(f"unknown graph property {name!r}")
    degree, build = _GRAPH_BUILDERS[key]
    if n_nodes ** degree > MAX_QUANTIFIER_COPIES:
        raise PredicateError(f"{key} over {n_nodes} nodes is past the limit of "
                             f"{MAX_QUANTIFIER_COPIES} conjuncts")
    return build(_edge_atoms(n_nodes))


# ---------------------------------------------------------------------------
# Safety properties and robustness regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SafetyProperty:
    """Pre (over inputs) => the model's decision lies in `allowed`."""

    pre: Predicate
    allowed: frozenset[int]


def load_safety_property(doc, domain: InputDomain, n_labels: int) -> SafetyProperty:
    """The property of a parsed JSON document: `pre` text and `allow` or `deny` labels."""
    if not isinstance(doc, dict):
        raise ModelError("malformed property document")
    if doc.get("format_version", 1) != 1:
        raise ModelError("unsupported format_version")
    pre = doc.get("pre", "true")
    if not isinstance(pre, str):
        raise ModelError("property 'pre' must be predicate text")
    pre = parse_predicate(pre, domain)
    key = next((k for k in ("allow", "deny") if k in doc), None)
    if key is None:
        raise ModelError("property document needs 'allow' or 'deny'")
    labels = doc[key]
    if not isinstance(labels, list):
        raise ModelError(f"property {key!r} must be a list of labels")
    for label in labels:
        if isinstance(label, bool) or not isinstance(label, int) or not (0 <= label < n_labels):
            raise ModelError(f"label {label!r} out of range")
    allowed = frozenset(labels) if key == "allow" else frozenset(range(n_labels)) - set(labels)
    return SafetyProperty(pre, allowed)


def region(center: Sequence[int], epsilon: int, domain: InputDomain) -> InputDomain:
    """The sub-domain of `domain` in the L-infinity ball of radius `epsilon` around `center`."""
    if epsilon < 0:
        raise ModelError("epsilon must be non-negative")
    domain.check_point(center)
    return _box_domain(domain, tuple(
        (max(f.lo, c - epsilon), min(f.hi, c + epsilon)) for f, c in zip(domain.features, center)
    ))


# ---------------------------------------------------------------------------
# Boxes: per-feature intervals that bound where a property can hold
# ---------------------------------------------------------------------------

_Box = tuple[tuple[int, int], ...]

_NEGATED_OP = {"<=": ">", "<": ">=", ">=": "<", ">": "<=", "=": "!=", "!=": "="}


def _box_domain(domain: InputDomain, box: _Box) -> InputDomain:
    """The sub-domain of `domain` whose features range over `box`."""
    return InputDomain(
        tuple(FeatureSpec(f.name, lo, hi) for f, (lo, hi) in zip(domain.features, box))
    )


def bounding_box(pred: Predicate, domain: InputDomain) -> Optional[InputDomain]:
    """A sub-domain holding every point of `domain` that satisfies `pred`; None if there is none.

    `And` intersects its children's boxes and `Or` takes their hull; a
    comparison with a constant, or its negation, bounds its feature; `false`
    has no box; anything else keeps the full range. The box is sound, not
    always the smallest.
    """
    validate_predicate(pred, domain)
    box = _bounding_box(pred, tuple((f.lo, f.hi) for f in domain.features))
    return None if box is None else _box_domain(domain, box)


def _bounding_box(pred: Predicate, full: _Box) -> Optional[_Box]:
    if isinstance(pred, Not):
        child = pred.child
        if isinstance(child, CmpConst):
            pred = CmpConst(_NEGATED_OP[child.op], child.feature, child.constant)
        elif isinstance(child, Const):
            pred = Const(not child.value)
    if isinstance(pred, Const):
        return full if pred.value else None
    if isinstance(pred, CmpConst):
        lo, hi = full[pred.feature]
        k = pred.constant
        if pred.op == "<=":
            hi = min(hi, k)
        elif pred.op == "<":
            hi = min(hi, k - 1)
        elif pred.op == ">=":
            lo = max(lo, k)
        elif pred.op == ">":
            lo = max(lo, k + 1)
        elif pred.op == "=":
            lo, hi = max(lo, k), min(hi, k)
        elif k == lo:  # "!=" can only trim an end point
            lo += 1
        elif k == hi:
            hi -= 1
        if lo > hi:
            return None
        return full[: pred.feature] + ((lo, hi),) + full[pred.feature + 1 :]
    if isinstance(pred, And):
        box = full
        for child in pred.children:
            inner = _bounding_box(child, full)
            if inner is None:
                return None
            box = tuple((max(a, c), min(b, d)) for (a, b), (c, d) in zip(box, inner))
            if any(lo > hi for lo, hi in box):
                return None
        return box
    if isinstance(pred, Or):
        boxes = [b for b in (_bounding_box(child, full) for child in pred.children) if b is not None]
        if not boxes:
            return None
        return tuple(
            (min(iv[0] for iv in column), max(iv[1] for iv in column)) for column in zip(*boxes)
        )
    return full
