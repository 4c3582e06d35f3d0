import hashlib
import json
import random
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from exactml.circuit import Circuit, compile_model, compile_predicate
from exactml.cnf import CnfFormula, DimacsError, emit_dimacs, parse_dimacs, tseitin
from exactml.counter import count_external, parse_external_count, probe_functional_extension
from exactml.oracle import brute_count_root
from exactml.predicates import builtin_graph_property, graph_domain

from conftest import make_domain, random_predicate, random_tree, varied_network
from reference_counters import DEFAULT_BUDGET, count_enumerate, count_projected


def foreign_formulas():
    """300 seeded random CNFs: 1-12 variables, 0-25 clauses of 1-4 literals.

    Unlike Tseitin formulas they leave variables outside the projection free
    after propagation, so a search has to go on below the projection (and
    the enumeration has to back up after each model).
    """
    rng = random.Random(64)
    for _ in range(300):
        num_vars = rng.randint(1, 12)
        clauses = tuple(
            tuple(
                rng.choice((v, -v))
                for v in (rng.randint(1, num_vars) for _ in range(rng.randint(1, 4)))
            )
            for _ in range(rng.randint(0, 25))
        )
        projection = frozenset(
            v for v in range(1, num_vars + 1) if rng.random() < 0.5
        )
        yield CnfFormula(num_vars, clauses, projection)


def tseitin_formulas():
    """The Tseitin formula of every output of 40 seeded random trees and nets
    (105 formulas) over 1-3 features of up to 8 values each."""
    rng = random.Random(66)
    for i in range(40):
        dom = make_domain(
            [(rng.randint(-3, 0), rng.randint(0, 4)) for _ in range(rng.randint(1, 3))]
        )
        if i % 2:
            model = varied_network(rng, dom)
        else:
            model = random_tree(
                rng, dom, num_labels=rng.choice((2, 3)), max_depth=rng.randint(1, 5)
            )
        circ = compile_model(model, dom)
        for wire in circ.outputs.values():
            yield tseitin(circ, wire)


@pytest.mark.parametrize(
    "f, bad",
    [
        (CnfFormula(1, ((1,),), frozenset({5})), 5),
        (CnfFormula(2, ((1,),), frozenset({0})), 0),
    ],
)
@pytest.mark.parametrize(
    "entry",
    [count_projected, count_enumerate, lambda f: probe_functional_extension(f, [{}])],
    ids=["count_projected", "count_enumerate", "probe_functional_extension"],
)
def test_projection_out_of_range_is_rejected(entry, f, bad):
    with pytest.raises(DimacsError, match=f"projection variable {bad} out of range"):
        entry(f)


class TestCountProjected:
    def test_const_true_sixteen_bits(self):
        dom = make_domain([(0, 1)] * 16)
        c = Circuit(dom)
        f = tseitin(c, c.const(True))
        assert count_projected(f).count == 65536

    def test_unsat_units(self):
        f = CnfFormula(1, ((1,), (-1,)), frozenset({1}))
        assert count_projected(f).count == 0

    # oracle-derived by exhaustive enumeration of all 65536 adjacency matrices
    FOUR_NODE_TABLE = {
        "antisymmetric": 11664,
        "connex": 11664,
        "equivalence": 15,
        "irreflexive": 4096,
        "nonstrictorder": 219,
        "partialorder": 219,
        "preorder": 355,
        "reflexive": 4096,
        "strictorder": 219,
        "totalorder": 24,
        "transitive": 3994,
    }

    def test_four_node_property_table(self):
        dom = graph_domain(4)
        for name, want in self.FOUR_NODE_TABLE.items():
            c = Circuit(dom)
            w = compile_predicate(c, builtin_graph_property(name, 4), "t")
            assert count_projected(tseitin(c, w)).count == want, name

    def test_budget_exhaustion_is_explicit(self):
        dom = graph_domain(4)
        c = Circuit(dom)
        w = compile_predicate(c, builtin_graph_property("antisymmetric", 4), "t")
        result = count_projected(tseitin(c, w), budget=3)
        assert result.exhausted is True
        assert result.count is None

    def test_deterministic_stats(self):
        dom = graph_domain(3)
        c = Circuit(dom)
        w = compile_predicate(c, builtin_graph_property("transitive", 3), "t")
        f = tseitin(c, w)
        r1, r2 = count_projected(f), count_projected(f)
        assert r1.count == r2.count
        assert r1.stats["decisions"] == r2.stats["decisions"]
        assert r1.stats["propagations"] == r2.stats["propagations"]

    def test_decomposition_with_disconnected_projection(self):
        # var 2 appears in no clause: it contributes a free factor of 2
        f = CnfFormula(2, ((1,),), frozenset({1, 2}))
        assert count_projected(f).count == 2

    def test_monotone_under_added_clauses(self):
        rng = random.Random(61)
        dom = make_domain([(0, 7), (0, 7)])
        for _ in range(10):
            pred = random_predicate(rng, dom, depth=2)
            c = Circuit(dom)
            f = tseitin(c, compile_predicate(c, pred, "t"))
            base = count_projected(f).count
            proj = sorted(f.projection)
            extra = tuple(
                rng.choice((v, -v)) for v in rng.sample(proj, k=min(3, len(proj)))
            )
            g = CnfFormula(f.num_vars, f.clauses + (extra,), f.projection)
            assert count_projected(g).count <= base

    def test_complement_sums_to_projection_space(self):
        # binary features: the domain constraint is vacuous, so root plus
        # negated root partition the full 2^|projection| space
        dom = graph_domain(3)
        c = Circuit(dom)
        w = compile_predicate(c, builtin_graph_property("antisymmetric", 3), "t")
        pos = count_projected(tseitin(c, w)).count
        neg = count_projected(tseitin(c, c.not_(w))).count
        assert pos + neg == 1 << len(dom.features)

    def test_complement_sums_to_domain_size_with_range_constraint(self):
        dom = make_domain([(0, 2), (0, 4)])
        c = Circuit(dom)
        pred = random_predicate(random.Random(3), dom, depth=2)
        w = compile_predicate(c, pred, "t")
        pos = count_projected(tseitin(c, w)).count
        neg = count_projected(tseitin(c, c.not_(w))).count
        assert pos + neg == dom.size()

    def test_matches_circuit_enumeration(self):
        rng = random.Random(62)
        dom = make_domain([(0, 5), (1, 4), (0, 1)])
        for _ in range(15):
            pred = random_predicate(rng, dom, depth=3)
            c = Circuit(dom)
            w = compile_predicate(c, pred, "t")
            assert count_projected(tseitin(c, w)).count == brute_count_root(c, w)

    def test_foreign_dimacs_without_functional_extension(self):
        # projected counting over a plain formula: aux var 3 is existential
        text = "p cnf 3 2\nc ind 1 2 0\n1 3 0\n2 -3 0\n"
        f = parse_dimacs(text)
        # models over (1,2): (T,T) ok via any 3; (T,F) needs -3, ok; (F,T) needs 3, ok; (F,F) unsat
        assert count_projected(f).count == 3

    def test_probe_stalls_below_the_projection_on_a_foreign_formula(self):
        # with 1 and 2 true no clause forces the aux var 3, unlike a Tseitin formula
        f = parse_dimacs("p cnf 3 2\nc ind 1 2 0\n1 3 0\n2 -3 0\n")
        assignments = [{1: True, 2: True}, {1: False, 2: False}, {1: True, 2: False}]
        assert probe_functional_extension(f, assignments) == ["incomplete", "conflict", "complete"]

    # counts and search stats of `foreign_formulas` at budgets that run out
    # on the projection, below it and not at all: a change to branch order,
    # phases, propagation or decision accounting changes this digest
    FOREIGN_STATS_SHA256 = "3a84bbdc0369021630beed804a8de3c22210bcba9c5330d4572ac71606cd54cb"

    def test_search_stats_on_foreign_formulas_are_pinned(self):
        records = []
        for f in foreign_formulas():
            for budget in (3, 50, DEFAULT_BUDGET):
                r = count_projected(f, budget)
                records.append(
                    (r.count, r.exhausted, r.stats["decisions"], r.stats["propagations"])
                )
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == self.FOREIGN_STATS_SHA256

    # the same record over `tseitin_formulas`, where a total projection
    # assignment forces every auxiliary and the search never goes below it
    TSEITIN_STATS_SHA256 = "9d96a9043f54336bcbab9ef4ebef0026aec2e0555b655adf3c632dc807e0b73e"

    def test_search_stats_on_tseitin_formulas_are_pinned(self):
        records = []
        for f in tseitin_formulas():
            for budget in (3, 50, DEFAULT_BUDGET):
                r = count_projected(f, budget)
                records.append(
                    (r.count, r.exhausted, r.stats["decisions"], r.stats["propagations"])
                )
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == self.TSEITIN_STATS_SHA256

    def test_counts_are_independent_across_threads(self):
        # no shared mutable state between concurrent counts
        from concurrent.futures import ThreadPoolExecutor

        dom = graph_domain(3)
        formulas = []
        for name in ("reflexive", "antisymmetric", "transitive", "preorder"):
            c = Circuit(dom)
            formulas.append(tseitin(c, compile_predicate(c, builtin_graph_property(name, 3), "t")))
        expected = [64, 216, 171, 29]
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda f: count_projected(f).count, formulas * 3))
        assert got == expected * 3


class TestCountEnumerate:
    def test_and_two_bits(self):
        dom = make_domain([(0, 1), (0, 1)])
        c = Circuit(dom)
        f = tseitin(c, c.and_(c.input_bit(0, 0), c.input_bit(1, 0)))
        assert count_enumerate(f).count == 1

    def test_const_true_three_bits(self):
        dom = make_domain([(0, 1)] * 3)
        c = Circuit(dom)
        f = tseitin(c, c.const(True))
        assert count_enumerate(f).count == 8

    def test_agrees_with_projected(self):
        rng = random.Random(63)
        dom = make_domain([(0, 3), (0, 3), (0, 1)])
        for _ in range(10):
            pred = random_predicate(rng, dom, depth=3)
            c = Circuit(dom)
            f = tseitin(c, compile_predicate(c, pred, "t"))
            assert count_enumerate(f).count == count_projected(f).count

    def test_projection_cap(self):
        f = CnfFormula(30, ((1,),), frozenset(range(1, 31)))
        with pytest.raises(ValueError, match="cap"):
            count_enumerate(f)

    def test_counts_under_full_projection(self):
        assert count_enumerate(CnfFormula(2, ((1,), (-1, 2)), frozenset({1, 2}))).count == 1
        assert count_enumerate(CnfFormula(1, ((1,), (-1,)), frozenset({1}))).count == 0
        f = CnfFormula(2, ((1, 2), (-1, -2), (-1, 2)), frozenset({1, 2}))
        assert count_enumerate(f).count == 1

    def test_agrees_with_projected_on_foreign_formulas(self):
        nonzero = 0
        for f in foreign_formulas():
            want = count_projected(f).count
            assert count_enumerate(f).count == want, f
            nonzero += want > 0
        assert nonzero > 100

    def test_many_models_with_free_variables_below_the_projection(self):
        # 768 models; the earlier blocking-clause enumeration took 113 s on it
        f = CnfFormula(14, ((1, 13), (14, 12), (10,)), frozenset([*range(1, 11), 13]))
        assert count_enumerate(f).count == 768


class TestParseExternal:
    def test_mc_line(self):
        assert parse_external_count("c stuff\ns mc 4096\n").count == 4096

    def test_unsat(self):
        assert parse_external_count("s UNSATISFIABLE\n").count == 0

    def test_garbage(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_external_count("hello world\n")

    def test_unknown_tool_kind(self):
        with pytest.raises(ValueError, match="unknown tool kind 'bogus'"):
            parse_external_count("s mc 4\n", tool="bogus")

    def test_approximate_multiplicative_form(self):
        result = parse_external_count(
            "c Number of solutions is: 64*2**8\n", tool="approximate"
        )
        assert result.count == 64 * 256
        assert result.stats["multiplicative_form"] == "64*2**8"
        assert result.method == "external"


class TestCountExternal:
    """`count_external` runs a stub counter: a Python script named in the template."""

    CNF = CnfFormula(3, ((1, 2), (-3,)), frozenset({1, 2}))

    @staticmethod
    def template(tmp_path, body):
        script = tmp_path / "stub.py"
        script.write_text(body)
        return f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{file}} {tmp_path}"

    def test_returns_the_counters_count(self, tmp_path):
        # the stub keeps a copy of the file it was given and the file's path
        template = self.template(tmp_path, (
            "import pathlib, sys\n"
            "src, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])\n"
            "(out / 'seen.cnf').write_text(src.read_text())\n"
            "(out / 'path.txt').write_text(str(src))\n"
            "print('c stub counter')\n"
            "print('s mc 3')\n"
        ))
        result = count_external(self.CNF, template, "projected_exact", "pshow_comment")
        assert (result.count, result.method, result.stats) == (3, "external",
                                                               {"tool": "projected_exact"})
        assert (tmp_path / "seen.cnf").read_text() == emit_dimacs(self.CNF, "pshow_comment")
        assert not Path((tmp_path / "path.txt").read_text()).exists()

    def test_a_temporary_directory_with_a_space_stays_one_argument(self, tmp_path, monkeypatch):
        spaced = tmp_path / "with space"
        spaced.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spaced))
        template = self.template(tmp_path, (
            "import json, pathlib, sys\n"
            "(pathlib.Path(sys.argv[-1]) / 'argv.json').write_text(json.dumps(sys.argv[1:]))\n"
            "print('s mc 3')\n"
        ))
        assert count_external(self.CNF, template, "projected_exact", "ind_comment").count == 3
        argv = json.loads((tmp_path / "argv.json").read_text())
        assert len(argv) == 2 and Path(argv[0]).parent == spaced, argv

    def test_a_nonzero_exit_raises_with_the_counters_stderr(self, tmp_path):
        template = self.template(
            tmp_path, "import sys\nsys.stderr.write('out of memory\\n')\nsys.exit(5)\n"
        )
        with pytest.raises(ValueError, match=r"^external counter exited with code 5: out of memory$"):
            count_external(self.CNF, template, "projected_exact", "ind_comment")


class TestDeepSearch:
    """A formula that needs thousands of nested decisions: the searches keep
    explicit stacks, so depth is bounded by memory, not the interpreter."""

    PAIRS = tuple((2 * k - 1, 2 * k) for k in range(1, 1501))  # x_{2k-1} or x_{2k}

    def test_count_enumerate_on_thousands_of_variables(self):
        # 9 of the 16 assignments to x1..x4 satisfy the first two pairs
        assert count_enumerate(CnfFormula(3000, self.PAIRS, frozenset({1, 2, 3, 4}))).count == 9
        assert count_enumerate(CnfFormula(3000, self.PAIRS, frozenset())).count == 1

    def test_count_projected_exhausts_its_budget(self):
        f = CnfFormula(3000, self.PAIRS, frozenset(range(1, 3001)))
        result = count_projected(f, budget=10_000)
        assert result.exhausted and result.count is None
        assert result.stats["decisions"] == 10_001

    def test_satisfiability_fallback_below_an_empty_projection(self):
        result = count_projected(CnfFormula(3000, self.PAIRS, frozenset()))
        assert result.count == 1
        assert result.stats["decisions"] == 1500

    def test_budget_runs_out_below_the_projection(self):
        # x1..x4 take 4 decisions; the budget runs out in the satisfiability
        # search over the 1,496 pairs below them
        f = CnfFormula(3000, self.PAIRS, frozenset({1, 2, 3, 4}))
        result = count_projected(f, budget=100)
        assert result.exhausted and result.count is None
        assert result.stats["decisions"] == 101
