import random

import pytest

import exactml.cnf
from exactml.circuit import Circuit, compile_model, compile_predicate, compile_tree
from exactml.cnf import DIALECTS, CnfFormula, DimacsError, emit_dimacs, parse_dimacs, tseitin
from exactml.counter import probe_functional_extension
from exactml.metrics import learnability_roots
from exactml.oracle import enumerate_domain
from exactml.predicates import GRAPH_PROPERTIES, builtin_graph_property, graph_domain

from conftest import (
    make_domain, random_network, random_predicate, random_tree, reference_tseitin,
)
from reference_counters import count_projected


def _point_to_assignment(circuit, pt):
    values = circuit.simulate(pt)
    return {bit + 1: values[bit] for bit in range(circuit.num_input_bits)}


class TestTseitin:
    def test_const_true_root_counts_domain(self):
        dom = make_domain([(0, 1), (0, 1)])
        c = Circuit(dom)
        f = tseitin(c, c.const(True))
        assert count_projected(f).count == 4
        assert f.projection == frozenset({1, 2})

    def test_and_of_two_bits(self):
        dom = make_domain([(0, 1), (0, 1)])
        c = Circuit(dom)
        root = c.and_(c.input_bit(0, 0), c.input_bit(1, 0))
        f = tseitin(c, root)
        assert count_projected(f).count == 1

    def test_reflexive_four_nodes(self):
        dom = graph_domain(4)
        c = Circuit(dom)
        w = compile_predicate(c, builtin_graph_property("reflexive", 4), "t")
        f = tseitin(c, w)
        assert count_projected(f).count == 4096

    def test_domain_constraint_conjoined(self):
        # 3-valued feature uses 2 bits; the constraint must cut the 4th pattern
        dom = make_domain([(0, 2)])
        c = Circuit(dom)
        f = tseitin(c, c.const(True))
        assert count_projected(f).count == 3

    def test_root_can_be_an_input_bit(self):
        dom = make_domain([(0, 1), (0, 1)])
        c = Circuit(dom)
        f = tseitin(c, c.input_bit(1, 0))
        assert count_projected(f).count == 2

    def test_variable_numbering_is_stable(self):
        dom = make_domain([(0, 3), (0, 3)])
        c = Circuit(dom)
        root = c.or_(c.input_bit(0, 1), c.input_bit(1, 0))
        f1 = tseitin(c, root)
        f2 = tseitin(c, root)
        assert f1 == f2
        assert f1.projection == frozenset(range(1, 5))

    def test_equisatisfiability_by_propagation(self, bits2_domain, xor_tree):
        # for every input: propagation conflicts iff the root is false there
        c = compile_tree(xor_tree, bits2_domain)
        f = tseitin(c, c.output("model_1"))
        for pt in enumerate_domain(bits2_domain):
            status = probe_functional_extension(f, [_point_to_assignment(c, pt)])[0]
            want = "complete" if c.simulate(pt)[c.output("model_1")] else "conflict"
            assert status == want

    def test_functional_extension_random_circuits(self):
        rng = random.Random(808)
        dom = make_domain([(0, 5), (1, 9)])
        for _ in range(10):
            pred = random_predicate(rng, dom, depth=3)
            c = Circuit(dom)
            w = compile_predicate(c, pred, "t")
            f = tseitin(c, w)
            assignments = [
                {v: rng.random() < 0.5 for v in sorted(f.projection)} for _ in range(50)
            ]
            for status in probe_functional_extension(f, assignments):
                assert status in ("complete", "conflict")


class TestDimacs:
    def test_header(self):
        f = CnfFormula(2, ((1, -2),), frozenset({1, 2}))
        lines = emit_dimacs(f).splitlines()
        assert lines[0] == "p cnf 2 1"
        assert lines[1] == "c ind 1 2 0"
        assert lines[2] == "1 -2 0"

    def test_ind_comment_lines_chunked_at_ten(self):
        f = CnfFormula(12, ((1,),), frozenset(range(1, 13)))
        lines = emit_dimacs(f, "ind_comment").splitlines()
        assert lines[1] == "c ind 1 2 3 4 5 6 7 8 9 10 0"
        assert lines[2] == "c ind 11 12 0"

    def test_pshow_single_line(self):
        f = CnfFormula(12, ((1,),), frozenset(range(1, 13)))
        lines = emit_dimacs(f, "pshow_comment").splitlines()
        assert lines[1] == "c p show 1 2 3 4 5 6 7 8 9 10 11 12 0"
        assert not any(l.startswith("c p show") for l in lines[2:])

    # the second case puts the empty clause after 5,000 others
    @pytest.mark.parametrize("clauses", [((1,), ()), ((1,),) * 5_000 + ((),)])
    def test_an_empty_clause_is_a_dimacs_error(self, clauses):
        with pytest.raises(DimacsError, match="empty clause"):
            emit_dimacs(CnfFormula(1, clauses, frozenset({1})))

    def test_emit_is_byte_stable(self):
        dom = graph_domain(3)
        c = Circuit(dom)
        w = compile_predicate(c, builtin_graph_property("transitive", 3), "t")
        f = tseitin(c, w)
        assert emit_dimacs(f) == emit_dimacs(f)

    def test_round_trip(self):
        dom = make_domain([(0, 2), (0, 5)])
        c = Circuit(dom)
        root = c.and_(c.input_bit(0, 0), c.not_(c.input_bit(1, 2)))
        f = tseitin(c, root)
        for dialect in ("ind_comment", "pshow_comment"):
            g = parse_dimacs(emit_dimacs(f, dialect))
            assert g.num_vars == f.num_vars
            assert g.clauses == f.clauses
            assert g.projection == f.projection

    def test_parse_minimal(self):
        f = parse_dimacs("p cnf 1 1\n1 0\n")
        assert f.num_vars == 1
        assert f.clauses == ((1,),)
        assert f.projection == frozenset({1})

    def test_parse_projection_comment(self):
        f = parse_dimacs("p cnf 2 1\nc ind 1 0\n1 -2 0\n")
        assert f.projection == frozenset({1})

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError, match="out of range"):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_projection_out_of_range(self):
        with pytest.raises(DimacsError, match="projection variable 5 out of range"):
            parse_dimacs("p cnf 2 1\nc ind 1 5 0\n1 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError, match="clauses"):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(DimacsError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 -2\n")

    def test_second_header(self):
        with pytest.raises(DimacsError, match="line 3: second 'p cnf' header"):
            parse_dimacs("p cnf 3 1\n1 0\np cnf 5 2\n-5 2 0\n")

    @pytest.mark.parametrize("text, needle", [
        ("p cnf 2 1\nc ind 1 x 0\n1 0\n", "line 2: bad projection token 'x'"),
        ("p cnf 2\n1 0\n", "line 1: malformed header 'p cnf 2'"),
        ("p cnf two 1\n1 0\n", "line 1: malformed header 'p cnf two 1'"),
        ("1 0\np cnf 2 1\n", "line 1: clause before header"),
        ("p cnf 2 1\n1 y 0\n", "line 2: bad literal 'y'"),
        ("p cnf 2 1\n0\n", "line 2: empty clause"),
        ("c only a comment\n", "missing 'p cnf' header"),
    ], ids=["bad-ind-token", "malformed-header", "non-integer-header", "clause-before-header",
            "bad-literal", "lone-zero", "no-header"])
    def test_malformed_text(self, text, needle):
        with pytest.raises(DimacsError, match=needle):
            parse_dimacs(text)

    @pytest.mark.parametrize("clauses, needle", [
        (((1,), ()), "empty clause"), (((1, -3),), "literal -3 out of range"),
    ], ids=["empty-clause", "literal-out-of-range"])
    def test_check_rejects(self, clauses, needle):
        with pytest.raises(DimacsError, match=needle):
            CnfFormula(2, clauses, frozenset({1})).check()

    def test_multiline_clause(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_unknown_dialect(self):
        f = CnfFormula(1, ((1,),), frozenset({1}))
        with pytest.raises(ValueError, match="dialect"):
            emit_dimacs(f, "xcnf")

    def test_domain_wire_as_root_counts_domain(self):
        dom = make_domain([(0, 2), (0, 4)])
        c = Circuit(dom)
        f = tseitin(c, c.domain_wire)
        assert count_projected(f).count == dom.size() == 15

    def test_zero_input_bits(self):
        # every feature is a single point: nothing to project over
        dom = make_domain([(3, 3), (7, 7)])
        c = Circuit(dom)
        f = tseitin(c, c.const(True))
        assert f.projection == frozenset()
        assert count_projected(f).count == 1
        text = emit_dimacs(f)
        assert "c ind 0" in text.splitlines()
        g = tseitin(c, c.const(False))
        assert count_projected(g).count == 0


class TestDimacsTemplates:
    FOREIGN = (
        "p cnf 9 7\n"
        "c ind 1 2 3 0\n"
        "-1 0\n"
        "2 -3 0\n"
        "-4 5 -6 0\n"
        "7 -8 9 -1 0\n"
        "-2 3 -4 5 -6 0\n"
        "1 -2 3 -4 5 -6 0\n"
        "-9 8 -7 6 -5 4 -3 0\n"
    )

    def test_foreign_clauses_of_every_length_round_trip(self):
        f = parse_dimacs(self.FOREIGN)
        assert [len(c) for c in f.clauses] == list(range(1, 8))
        assert emit_dimacs(f) == self.FOREIGN
        pshow = emit_dimacs(f, "pshow_comment")
        assert pshow == self.FOREIGN.replace("c ind 1 2 3 0", "c p show 1 2 3 0")
        assert emit_dimacs(parse_dimacs(pshow), "pshow_comment") == pshow

        # 10,000 clauses whose lengths cycle through 1-4 before clause
        # `long_from` and 1-7 from it on
        for long_from in (0, 6000, 10_000):
            rng = random.Random(long_from)
            lengths = [i % (4 if i < long_from else 7) + 1 for i in range(10_000)]
            clauses = tuple(
                tuple(rng.choice((-1, 1)) * rng.randint(1, 300) for _ in range(n)) for n in lengths
            )
            f = CnfFormula(300, clauses, frozenset(range(1, 13)))
            body = "".join(" ".join(str(lit) for lit in c) + " 0\n" for c in clauses)
            for dialect, projection in (
                ("ind_comment", "c ind 1 2 3 4 5 6 7 8 9 10 0\nc ind 11 12 0\n"),
                ("pshow_comment", "c p show 1 2 3 4 5 6 7 8 9 10 11 12 0\n"),
            ):
                text = emit_dimacs(f, dialect)
                expected = f"p cnf 300 10000\n{projection}{body}"
                # the first wrong line, not pytest's diff of two 10,000-line texts
                wrong = next((i for i, pair in enumerate(zip(text.split("\n"), expected.split("\n")))
                              if pair[0] != pair[1]), None)
                assert wrong is None and len(text) == len(expected), (long_from, dialect, wrong)
                g = parse_dimacs(text)
                assert (g.num_vars, g.clauses, g.projection) == (f.num_vars, f.clauses, f.projection)


class TestGateTemplates:
    """`emit_dimacs` writes a Tseitin formula one template per gate; its text
    must be the one the formula's clause tuples give, as a parsed formula's do."""

    @staticmethod
    def _check(c, root):
        f = tseitin(c, root)
        tuples = CnfFormula(f.num_vars, f.clauses, f.projection)
        for dialect in DIALECTS:
            assert emit_dimacs(f, dialect) == emit_dimacs(tuples, dialect)
        return f

    def test_trees(self):
        rng = random.Random(1801)
        dom = make_domain([(0, 5), (-3, 4), (0, 12)])
        for _ in range(5):
            c = compile_tree(random_tree(rng, dom, num_labels=3), dom)
            truth = compile_predicate(c, random_predicate(rng, dom, depth=3), "t")
            for label in range(3):
                self._check(c, c.output(f"model_{label}"))
                self._check(c, c.and_(c.output(f"model_{label}"), c.not_(truth)))

    def test_nets_with_zero_to_two_hidden_layers(self):
        rng = random.Random(1802)
        dom = make_domain([(0, 63)] * 4)
        gates = []
        for hidden in ((), (4,), (6, 3)):
            c = compile_model(random_network(rng, dom, hidden=hidden, weight_range=7), dom)
            for label in range(2):
                gates.append(len(self._check(c, c.output(f"model_{label}")).kinds))
        # the widest net's roots take more than one chunk of gates (2,648 and 2,649)
        assert max(gates) > exactml.cnf._CHUNK_GATES

    def test_graph_properties(self):
        dom = graph_domain(3)
        c = compile_tree(random_tree(random.Random(1803), dom), dom)
        for name in GRAPH_PROPERTIES:
            self._check(c, compile_predicate(c, builtin_graph_property(name, 3), "t"))
        for root in learnability_roots(c, {1: builtin_graph_property("transitive", 3)}).values():
            self._check(c, root)

    def test_edge_cases(self):
        dom = make_domain([(0, 2), (0, 4)])
        c = Circuit(dom)
        for root in (c.const(True), c.const(False), c.input_bit(1, 0), c.not_(c.input_bit(0, 1))):
            self._check(c, root)
        # the root's unit clause is the domain wire's, written once
        f = self._check(c, c.domain_wire)
        assert f.clauses.count((f.num_vars,)) == 1
        # no input bits: "c ind 0" and "c p show 0"
        empty = Circuit(make_domain([(3, 3), (7, 7)]))
        self._check(empty, empty.const(True))
        # 13 projection variables: a "c ind" line of ten and one of three
        wide = Circuit(make_domain([(0, 127), (0, 63)]))
        f = self._check(wide, wide.or_(wide.input_bit(0, 6), wide.input_bit(1, 5)))
        assert emit_dimacs(f).splitlines()[1:3] == ["c ind 1 2 3 4 5 6 7 8 9 10 0", "c ind 11 12 13 0"]


class TestReferenceTseitin:
    """`tseitin` names each variable once and writes the signs from its
    templates; its clauses must be the int-literal encoding's, unit for unit."""

    @staticmethod
    def _both(c, root):
        f, ref = tseitin(c, root), reference_tseitin(c, root)
        assert (f.num_vars, f.clauses, f.projection) == (ref.num_vars, ref.clauses, ref.projection)
        for dialect in DIALECTS:
            assert emit_dimacs(f, dialect) == emit_dimacs(ref, dialect)
        return f, ref

    def test_random_circuits(self):
        rng = random.Random(2703)
        for ranges in ([(0, 5), (-3, 4), (0, 12)], [(1, 6), (0, 3)], [(0, 1)] * 5):
            dom = make_domain(ranges)
            for model in (random_tree(rng, dom, num_labels=3),
                          random_network(rng, dom, hidden=(3,), weight_range=3)):
                c = compile_model(model, dom)
                truth = compile_predicate(c, random_predicate(rng, dom, depth=3), "t")
                wires = c.num_input_bits + len(c.gates)
                roots = list(c.outputs.values()) + [c.and_(c.output("model_1"), c.not_(truth))]
                roots += rng.sample(range(wires), 5)
                for root in roots:
                    self._both(c, root)

    def _counts(self, c, root, expected):
        f, ref = self._both(c, root)
        assert count_projected(f).count == count_projected(ref).count == expected
        return f

    def test_a_const_false_root_has_both_units_and_counts_zero(self):
        c = Circuit(make_domain([(0, 2), (0, 1)]))
        f = self._counts(c, c.const(False), 0)
        v = f.num_vars  # the last gate made, so the last in the cone
        assert (v,) in f.clauses and (-v,) in f.clauses

    def test_a_const_true_root_has_one_unit(self):
        c = Circuit(make_domain([(0, 2), (0, 1)]))
        f = self._counts(c, c.const(True), 6)
        v = c.num_input_bits + 1  # gate 0, so the first in the cone
        assert f.clauses.count((v,)) == 1 and (-v,) not in f.clauses

    def test_a_root_that_is_the_domain_wire_has_one_unit(self):
        c = Circuit(make_domain([(0, 2), (0, 4)]))
        f = self._counts(c, c.domain_wire, 15)
        assert f.clauses.count((f.num_vars,)) == 1

    def test_a_root_that_is_an_input_bit(self):
        c = Circuit(make_domain([(0, 2), (0, 1)]))
        f = self._counts(c, c.input_bit(1, 0), 3)
        assert (c.input_bit(1, 0) + 1,) in f.clauses

    def test_the_pshow_dialect(self):
        c = Circuit(make_domain([(0, 2), (0, 1)]))
        root = c.xor_(c.input_bit(0, 1), c.input_bit(1, 0))
        f = self._counts(c, root, 3)
        text = emit_dimacs(f, "pshow_comment")
        assert text.splitlines()[1] == "c p show 1 2 3 0"
        assert count_projected(parse_dimacs(text)).count == 3

    def test_each_variable_is_one_name(self):
        dom = make_domain([(0, 63)] * 4)
        c = compile_model(random_network(random.Random(2704), dom, hidden=(4,), weight_range=7), dom)
        f = tseitin(c, c.output("model_1"))
        assert len({id(name) for name in f.names}) <= f.num_vars
        assert set(f.names) <= {str(v) for v in range(1, f.num_vars + 1)}
