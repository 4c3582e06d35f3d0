import argparse
import hashlib
import json
import random
import time
import tracemalloc
import weakref

import pytest

import exactml.cnf
import exactml.metrics
import exactml.oracle
import exactml.predicates
from exactml.cli import build_parser, main
from exactml.cnf import CnfFormula, emit_dimacs, parse_dimacs
from exactml.metrics import binary_truth
from exactml.oracle import brute_count_predicate
from exactml.predicates import (
    MAX_NESTING,
    MAX_QUANTIFIER_COPIES,
    PredicateError,
    bounding_box,
    parse_predicate,
)

from conftest import (
    XOR_TREE_DOC,
    constant_tree_doc,
    domain_to_document,
    make_domain,
    network_to_document,
    random_network,
    random_tree,
    reflexive_tree_doc,
    tree_to_document,
)
from reference_counters import count_projected


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "bits2.json").write_text(json.dumps(
        {"format_version": 1,
         "features": [{"name": "f0", "lo": 0, "hi": 1}, {"name": "f1", "lo": 0, "hi": 1}]}
    ))
    (tmp_path / "xor_tree.json").write_text(json.dumps(XOR_TREE_DOC))
    (tmp_path / "reflexive_tree.json").write_text(json.dumps(reflexive_tree_doc(3)))
    (tmp_path / "const0.json").write_text(json.dumps(constant_tree_doc(0)))
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestLearnability:
    def test_builtin_property_run(self, workdir, capsys):
        out = workdir / "report.json"
        code = run(["learnability", "--domain", "graph3",
                    "--model", workdir / "reflexive_tree.json",
                    "--property", "reflexive", "--nodes", "3", "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        label1 = doc["labels"][1]
        assert label1["tp"] + label1["fn"] == 64
        assert doc["domain_size"] == 512

    def test_four_node_graph_run(self, workdir, tmp_path):
        (tmp_path / "tree4.json").write_text(json.dumps(reflexive_tree_doc(4)))
        out = workdir / "report4.json"
        code = run(["learnability", "--domain", "graph4",
                    "--model", tmp_path / "tree4.json",
                    "--property", "reflexive", "--nodes", "4", "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        label1 = doc["labels"][1]
        assert label1["tp"] + label1["fn"] == 4096

    def test_missing_model_file(self, workdir, capsys):
        code = run(["learnability", "--domain", "graph3",
                    "--model", workdir / "nope.json",
                    "--property", "reflexive", "--nodes", "3"])
        assert code == 1
        assert "nope.json" in capsys.readouterr().err

    GRAPH3 = ["--domain", "graph3", "--property", "reflexive", "--nodes", "3"]

    @pytest.mark.parametrize("args", [
        ["learnability", "--domain", "nope.json", "--model", "const0.json"],
        ["learnability", *GRAPH3, "--model", "nope.json"],
        ["safety", "--domain", "graph3", "--model", "const0.json", "--property", "nope.json"],
        ["oracle", *GRAPH3, "--model", "const0.json", "--diff", "nope.json"],
    ], ids=["domain", "model", "safety-property", "diff"])
    def test_missing_file_is_one_error_line(self, workdir, capsys, monkeypatch, args):
        monkeypatch.chdir(workdir)
        assert run(args) == 1
        assert capsys.readouterr().err == "error: no such file: nope.json\n"

    def test_directory_is_one_os_error_line(self, workdir, capsys):
        assert run(["learnability", "--domain", "graph3", "--model", workdir,
                    "--property", "reflexive", "--nodes", "3"]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{workdir}'\n"

    def test_deeply_nested_model_file_is_one_error_line(self, workdir, capsys):
        deep = workdir / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code = run(["learnability", "--domain", "graph3", "--model", deep,
                    "--property", "reflexive", "--nodes", "3"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"

    def test_budget_exhaustion_exit_code(self, workdir):
        out = workdir / "partial.json"
        code = run(["learnability", "--domain", "graph3",
                    "--model", workdir / "reflexive_tree.json",
                    "--property", "transitive", "--nodes", "3",
                    "--budget", "1", "--out", out])
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["gaps"]

    def test_bad_predicate_file(self, workdir, capsys):
        pred = workdir / "bad.pred"
        pred.write_text("f0 <= ")
        code = run(["learnability", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json", "--property", pred])
        assert code == 1

    def test_nodes_mismatching_domain(self, workdir, capsys):
        code = run(["learnability", "--domain", "graph3",
                    "--model", workdir / "const0.json",
                    "--property", "reflexive", "--nodes", "4"])
        assert code == 1
        assert "binary features" in capsys.readouterr().err

    def test_builtin_property_reads_n_from_the_domain(self, workdir):
        args = ["learnability", "--model", workdir / "reflexive_tree.json",
                "--property", "transitive"]
        (workdir / "graph3.json").write_text(json.dumps(
            domain_to_document(exactml.predicates.graph_domain(3))))
        outs = []
        for domain in (["--domain", "graph3", "--nodes", "3"], ["--domain", "graph3"],
                       ["--nodes", "3"], ["--domain", workdir / "graph3.json"],
                       ["--domain", workdir / "graph3.json", "--nodes", "3"]):
            out = workdir / f"{len(outs)}.json"
            assert run([*args, *domain, "--out", out]) == 0
            outs.append(out.read_bytes())
        assert len(set(outs)) == 1

    @pytest.mark.parametrize("command", [
        ["robustness", "--center", "0,0", "--epsilon", "1"],
        ["safety", "--pre", "f0 = 1", "--post", "1"],
        ["learnability", "--property", "f0.pred"],
    ], ids=["robustness", "safety", "learnability"])
    def test_nodes_must_fit_any_domain(self, workdir, capsys, monkeypatch, command):
        monkeypatch.chdir(workdir)
        (workdir / "f0.pred").write_text("f0 = 1")
        code = run([*command, "--domain", "bits2.json", "--model", "xor_tree.json",
                    "--nodes", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --nodes 1 does not fit --domain bits2.json: "
            "N nodes need a domain of N·N binary features\n")

    def test_builtin_property_needs_a_graph_shaped_domain(self, workdir, capsys):
        code = run(["learnability", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json", "--property", "reflexive"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: builtin graph properties need a domain of N·N binary features "
            "(got 2 features)\n")

    @pytest.mark.parametrize("args, error", [
        (["--domain", "graph317", "--property", "reflexive"],
         "a graph of 317 nodes has more than 100000 edge features"),
        (["--nodes", "317", "--property", "reflexive"],
         "a graph of 317 nodes has more than 100000 edge features"),
        (["--domain", "graph47", "--nodes", "47", "--property", "transitive"],
         "transitive over 47 nodes is past the limit of 100000 conjuncts"),
    ], ids=["domain", "nodes", "property"])
    def test_graph_past_the_limit_is_one_error_line(self, workdir, capsys, args, error):
        assert run(["learnability", "--model", workdir / "const0.json", *args]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_negative_samples_is_an_input_error(self, workdir, capsys):
        code = run(["learnability", "--domain", "graph3",
                    "--model", workdir / "reflexive_tree.json",
                    "--property", "reflexive", "--nodes", "3", "--samples", "-1"])
        assert code == 1
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             [["learnability"], ["oracle"], ["emit", "--formula", "tp:1"]],
                             ids=["learnability", "oracle", "emit"])
    def test_three_labels_fail_before_the_property_is_built(self, workdir, capsys, monkeypatch,
                                                            command):
        built = []
        monkeypatch.setattr(exactml.predicates, "builtin_graph_property",
                            lambda *a: built.append(a))
        (workdir / "three.json").write_text(json.dumps(constant_tree_doc(2, num_labels=3)))
        code = run([*command, "--domain", "graph3", "--model", workdir / "three.json",
                    "--property", "transitive", "--nodes", "3"])
        assert (code, built) == (1, [])
        assert capsys.readouterr().err == (
            "error: the CLI drives binary problems; use the API for more labels\n"
        )


class TestUsageErrors:
    """argparse's own errors exit 1 (input error); 2 means a budget ran out."""

    @pytest.mark.parametrize("args, needle", [
        (["learnability", "--domain", "graph3", "--property", "reflexive", "--nodes", "3"], "--model"),
        (["robustness", "--model", "m.json", "--epsilon", "one"], "--epsilon"),
        (["count"], "invalid choice"),
        ([], "required"),
    ], ids=["missing-model", "bad-int", "unknown-command", "no-command"])
    def test_usage_error_exits_1(self, capsys, args, needle):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: exactml") and needle in err


class TestInputErrors:
    """An input that no command can use is one `error:` line with exit 1."""

    @pytest.mark.parametrize("which", ["--domain", "--model"])
    def test_a_file_that_is_not_json(self, workdir, capsys, which):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        files = {"--domain": workdir / "bits2.json", "--model": workdir / "xor_tree.json",
                 which: bad}
        code = run(["safety", *(opt for pair in files.items() for opt in pair),
                    "--pre", "true", "--post", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: Expecting property name")

    @pytest.mark.parametrize("command, args, message", [
        (["robustness"], ["--center", "0,0"], "need --domain (or --nodes for a graph domain)"),
        (["learnability", "--domain", "bits2.json"], [],
         "need --property (builtin name or predicate file)"),
        (["learnability", "--domain", "bits2.json"], ["--property", "no-such-property"],
         "no such predicate file or builtin property: no-such-property"),
        (["safety", "--domain", "bits2.json"], ["--pre", "true"],
         "need --pre and --post (or --property with a property file)"),
    ], ids=["no-domain", "no-property", "unknown-property", "pre-without-post"])
    def test_missing_or_unknown_input(self, workdir, capsys, monkeypatch, command, args, message):
        monkeypatch.chdir(workdir)
        assert run([*command, "--model", "xor_tree.json", *args]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_report_on_standard_output_is_the_out_file(self, workdir, capsys):
        args = ["learnability", "--domain", "graph3", "--model", workdir / "reflexive_tree.json",
                "--property", "reflexive"]
        out = workdir / "report.json"
        assert run([*args, "--out", out]) == 0
        assert run(args) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


INPUTS = {"--domain", "--model", "--nodes", "--out"}
COUNTING = {"--backend", "--dialect", "--budget", "--seed", "--samples"}
PRE_POST, BALL = {"--pre", "--post"}, {"--center", "--epsilon"}
COMMAND_OPTIONS = {
    "learnability": INPUTS | {"--property"} | COUNTING,
    "safety": INPUTS | {"--property"} | PRE_POST | COUNTING,
    "robustness": INPUTS | BALL | COUNTING,
    "emit": INPUTS | {"--property"} | PRE_POST | BALL | {"--dialect", "--formula"},
    "oracle": INPUTS | {"--property", "--diff", "--cap"},
}
# each command with each option of the five groups that it does not take
GROUPED = INPUTS | {"--property"} | PRE_POST | BALL | COUNTING
DROPPED = [(command, option) for command, options in COMMAND_OPTIONS.items()
           for option in sorted(GROUPED - options)]


class TestOptionSurface:
    """Each command takes only the options it reads; any other is a usage error."""

    def test_each_command_has_the_options_it_reads(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        got = {command: {opt for action in parser._actions for opt in action.option_strings}
                        - {"-h", "--help"}
               for command, parser in sub.choices.items()}
        assert got == COMMAND_OPTIONS
        assert sum(map(len, got.values())) == 51
        assert len(DROPPED) == 22

    @pytest.mark.parametrize("command, option", DROPPED)
    def test_an_unread_option_is_a_usage_error(self, capsys, command, option):
        with pytest.raises(SystemExit) as exc:
            run([command, "--model", "m.json", option, "1"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(
            f"exactml: error: unrecognized arguments: {option} 1\n")


class TestSafety:
    def test_post_all_labels_accuracy_one(self, workdir):
        out = workdir / "safety.json"
        code = run(["safety", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json",
                    "--pre", "true", "--post", "0,1", "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["accuracy"]["decimal"] == "1.0000"

    def test_vacuous_pre_exits_zero(self, workdir):
        out = workdir / "vacuous.json"
        code = run(["safety", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json",
                    "--pre", "f0 <= 0 && f0 >= 1", "--post", "1", "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["vacuous"] is True
        assert doc["pre_size"] == 0
        assert doc["accuracy"] == "undefined"

    def test_property_file(self, workdir):
        prop = workdir / "prop.json"
        prop.write_text(json.dumps({"format_version": 1, "pre": "f0 <= 0", "allow": [1]}))
        out = workdir / "safety2.json"
        code = run(["safety", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json",
                    "--property", prop, "--out", out])
        assert code == 0

    def test_deny_syntax(self, workdir):
        out = workdir / "safety3.json"
        code = run(["safety", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json",
                    "--pre", "true", "--post", "!0", "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["sat_count"] == 2  # xor tree labels (0,1),(1,0) as 1


    @pytest.mark.parametrize("command", [["safety"], ["emit", "--formula", "viol"]],
                             ids=["safety", "emit"])
    def test_property_document_with_post_is_an_error(self, workdir, capsys, command):
        prop = workdir / "prop.json"
        prop.write_text(json.dumps({"format_version": 1, "pre": "f0 <= 0", "allow": [1]}))
        code = run([*command, "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json", "--property", prop, "--post", "0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: a --property document holds its own post labels; give --pre with --post\n")

    def test_property_with_pre_is_an_error(self, workdir, capsys):
        prop = workdir / "prop.json"
        prop.write_text(json.dumps({"format_version": 1, "pre": "f0 <= 0", "allow": [1]}))
        code = run(["safety", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json", "--property", prop,
                    "--pre", "true", "--post", "0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: give safety either --property (a property document) or --pre and --post\n")

    @pytest.mark.parametrize("post", ["x", "!", "1,", " !0,y "])
    def test_bad_post_value(self, workdir, capsys, post):
        code = run(["safety", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json",
                    "--pre", "true", "--post", post])
        assert code == 1
        assert capsys.readouterr().err == f"error: bad --post value {post!r}\n"

    @pytest.mark.parametrize("post", ["2", "!2", "0,-1"])
    def test_post_label_out_of_range(self, workdir, capsys, post):
        code = run(["safety", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json",
                    "--pre", "true", "--post", post])
        assert code == 1
        assert "out of range" in capsys.readouterr().err


class TestPredicateInputs:
    """`--pre` and `--property` read predicate files alike, and a predicate or
    property document that cannot be used is one `error:` line, not a traceback."""

    PRE = "x0 >= 4 && x1 <= 2"

    @staticmethod
    def _one_error_line(capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def _report(self, tmp_path, command, *args):
        out = tmp_path / f"{command}.out"
        net = _two_feature_net(tmp_path)[:4]
        assert run([command, *net, *args, "--post", "0", "--out", out]) == 0
        return out.read_bytes()

    def test_pre_file_may_start_with_a_comment(self, tmp_path):
        pre = tmp_path / "pre.pred"
        pre.write_text(f"# the safety box\n{self.PRE}\n")
        for command, args in (("safety", ["--samples", "20"]), ("emit", ["--formula", "viol"])):
            want = self._report(tmp_path, command, "--pre", self.PRE, *args)
            assert self._report(tmp_path, command, "--pre", pre, *args) == want, command

    def test_inline_pre_longer_than_a_file_name(self, tmp_path):
        pre = " && ".join(["x0 >= 4"] * 40)
        assert len(pre) == 436
        assert (self._report(tmp_path, "safety", "--pre", pre)
                == self._report(tmp_path, "safety", "--pre", "x0 >= 4"))

    @pytest.mark.parametrize("doc", [
        {"pre": 5, "allow": [1]}, {"pre": "true", "allow": 5}, {"pre": "true", "deny": None},
    ], ids=["pre-number", "allow-number", "deny-null"])
    def test_malformed_property_document(self, workdir, capsys, doc):
        prop = workdir / "prop.json"
        prop.write_text(json.dumps(doc))
        code = run(["safety", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json", "--property", prop])
        assert code == 1
        self._one_error_line(capsys)

    @pytest.mark.parametrize("text", [
        "(" * 300 + "f0 = 1" + ")" * 300, "!" * 5000 + "f0 = 1", " => ".join(["f0 = 1"] * 1001),
    ], ids=["parentheses", "negations", "implications"])
    def test_nesting_past_the_limit(self, workdir, capsys, text):
        pred = workdir / "deep.pred"
        pred.write_text(text)
        code = run(["learnability", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json", "--property", pred])
        assert code == 1
        assert f"nesting deeper than {MAX_NESTING} levels" in self._one_error_line(capsys)

    @pytest.mark.parametrize("text", [
        "".join(f"forall i{k} in [0, 2): " for k in range(MAX_NESTING)) + "f0 = 1",
        "forall i in [0, 1000000): f0 = 1",
    ], ids=["nested", "wide"])
    def test_quantifier_expansion_past_the_limit(self, workdir, capsys, text):
        pred = workdir / "quantified.pred"
        pred.write_text(text)
        started = time.perf_counter()
        code = run(["learnability", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json", "--property", pred])
        assert time.perf_counter() - started < 1
        assert code == 1
        assert f"more than {MAX_QUANTIFIER_COPIES} copies" in self._one_error_line(capsys)

    @pytest.mark.parametrize("text, error", [
        ("forall i in [0,2): exists i in [0,2): e[i][i] = 1",
         "position 26: variable 'i' already bound"),
        ("forall i in [0,2): e[i][k] = 1", "position 24: unknown index 'k'"),
    ], ids=["rebound", "unknown-index"])
    def test_quantifier_name_error(self, workdir, capsys, text, error):
        pred = workdir / "quantified.pred"
        pred.write_text(text)
        code = run(["learnability", "--domain", "graph2", "--model", workdir / "const0.json",
                    "--property", pred])
        assert code == 1
        assert self._one_error_line(capsys) == f"error: syntax error at {error}\n"

    def test_deepest_predicate_at_the_limit_runs(self, tmp_path):
        # each level is an implication's left side: Or, Not, then `||` and
        # `&&`, the deepest walk per level that the parser lets through
        def nest(levels):
            return "x0 >= 4" if levels == 0 else f"(x1 = 0 || x0 = 1 && {nest(levels - 1)} => x1 > 5)"

        deepest = nest(MAX_NESTING - 1)
        (tmp_path / "deep.pred").write_text(deepest)
        net = _two_feature_net(tmp_path)[:4]
        args = [*net, "--property", tmp_path / "deep.pred"]
        assert run(["learnability", *args, "--out", tmp_path / "learn.json"]) == 0
        assert run(["oracle", *args, "--diff", tmp_path / "learn.json",
                    "--out", tmp_path / "oracle.json"]) == 0
        assert run(["safety", *net, "--pre", deepest, "--post", "0",
                    "--samples", "20", "--out", tmp_path / "safety.json"]) == 0
        with pytest.raises(PredicateError, match="nesting deeper"):
            parse_predicate(nest(MAX_NESTING), make_domain([(0, 15), (-8, 7)], prefix="x"))

    @pytest.mark.parametrize("option", ["--domain", "--pre", "--post", "--out"])
    def test_double_dash_as_a_value(self, workdir, capsys, option):
        # before Python 3.13 argparse reads `--opt=--` as an empty list, which
        # ended in a traceback in the predicate reader and the `--post` parser;
        # from 3.13 on it is "--", and every version gives the same error
        values = {"--domain": workdir / "bits2.json", "--pre": "f0 = 1", "--post": "1"}
        values[option] = "--"
        code = run(["safety", "--model", workdir / "xor_tree.json",
                    *(f"{name}={value}" for name, value in values.items())])
        assert code == 1
        assert self._one_error_line(capsys) == f"error: bad {option} value '--'\n"


class TestRobustness:
    def test_epsilon_zero(self, workdir):
        out = workdir / "rob0.json"
        code = run(["robustness", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json",
                    "--center", "1,1", "--epsilon", "0", "--out", out])
        assert code == 0
        assert json.loads(out.read_text())["robustness"]["decimal"] == "1.0000"

    def test_xor_half(self, workdir):
        out = workdir / "rob1.json"
        code = run(["robustness", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json",
                    "--center", "0,0", "--epsilon", "1", "--out", out])
        assert code == 0
        assert json.loads(out.read_text())["robustness"]["decimal"] == "0.5000"

    def test_center_out_of_domain(self, workdir, capsys):
        code = run(["robustness", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json",
                    "--center", "0,7", "--epsilon", "1"])
        assert code == 1

    def test_missing_center(self, workdir, capsys):
        code = run(["robustness", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json", "--epsilon", "1"])
        assert code == 1
        assert "center" in capsys.readouterr().err

    def test_negative_first_center_reads_as_a_value(self, workdir):
        domain = workdir / "signed.json"
        domain.write_text(json.dumps(domain_to_document(make_domain([(-4, 3), (-4, 3)]))))
        outs = []
        for center in (["--center", "-1,0"], ["--center=-1,0"]):
            outs.append(workdir / f"rob{len(outs)}.json")
            code = run(["robustness", "--domain", domain, "--model", workdir / "xor_tree.json",
                        *center, "--epsilon", "1", "--out", outs[-1]])
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["region_size"] == 9

    def test_negative_samples_is_an_input_error(self, workdir, capsys):
        code = run(["robustness", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json",
                    "--center", "0,0", "--epsilon", "1", "--samples", "-1"])
        assert code == 1
        assert "--samples" in capsys.readouterr().err

    def test_formula_label_out_of_range(self, workdir, capsys):
        code = run(["emit", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json", "--formula", "model:9"])
        assert code == 1
        assert "no model:9 root: the model has labels 0..1" in capsys.readouterr().err
        for formula in ("truth:9", "tp:9"):
            code = run(["emit", "--domain", "graph3", "--model", workdir / "reflexive_tree.json",
                        "--property", "reflexive", "--nodes", "3", "--formula", formula])
            assert code == 1
            assert f"no {formula} root: the model has labels 0..1" in capsys.readouterr().err


class TestEmit:
    def test_emit_and_parse_round_trip(self, workdir):
        out = workdir / "f.cnf"
        code = run(["emit", "--domain", "graph3",
                    "--model", workdir / "reflexive_tree.json",
                    "--property", "reflexive", "--nodes", "3",
                    "--formula", "tp:1", "--out", out])
        assert code == 0
        formula = parse_dimacs(out.read_text())
        assert len(formula.projection) == 9

    def test_pshow_dialect(self, workdir):
        out = workdir / "f2.cnf"
        code = run(["emit", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json",
                    "--formula", "model:1", "--dialect", "pshow_comment", "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("c p show")) == 1

    # model, truth and the confusion cells need a label; the other roots take none
    @pytest.mark.parametrize("formula", [
        "bogus:1", "model", "truth", "tp", "fn:", "model:-1", "tp:x",
        "pre:7", "sat:1", "viol:0", "robustness:1",
    ])
    def test_bad_formula(self, workdir, capsys, formula):
        code = run(["emit", "--domain", workdir / "bits2.json",
                    "--model", workdir / "xor_tree.json", "--formula", formula])
        assert code == 1
        assert "bad --formula" in capsys.readouterr().err

    @staticmethod
    def _xor_inputs(workdir):
        return ["--domain", workdir / "bits2.json", "--model", workdir / "xor_tree.json"]

    # each query option, and the formulas that read it
    QUERY = {"--property": ("--property", "truth.pred"), "--pre": ("--pre", "bogus(("),
             "--post": ("--post", "7"), "--center": ("--center", "9,9"),
             "--epsilon": ("--epsilon", "2")}
    READ_BY = {"--property": {"truth:1", "tp:1", "fn:0", "pre", "sat", "viol"},
               "--pre": {"pre", "sat", "viol"}, "--post": {"pre", "sat", "viol"},
               "--center": {"robustness"}, "--epsilon": {"robustness"}}
    UNREAD = [(formula, option) for option, formulas in READ_BY.items()
              for formula in sorted({"model:1", "truth:1", "tp:1", "fn:0", "pre", "sat", "viol",
                                     "robustness"} - formulas)]

    @pytest.mark.parametrize("formula, option", UNREAD)
    def test_an_option_that_the_formula_does_not_read(self, workdir, capsys, formula, option):
        # refused before Pre is parsed, so a malformed Pre shows nothing else ran
        code = run(["emit", *self._xor_inputs(workdir),
                    "--formula", formula, *self.QUERY[option]])
        assert code == 1
        assert capsys.readouterr().err == f"error: --formula {formula} does not read {option}\n"

    def test_every_unread_option_is_named(self, workdir, capsys):
        code = run(["emit", "--domain", "graph3", "--model", workdir / "reflexive_tree.json",
                    "--property", "transitive", "--formula", "tp:1",
                    "--pre", "bogus((", "--post", "7", "--center", "9,9"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --formula tp:1 does not read --pre, --post, --center\n")

    def test_an_epsilon_of_zero_is_not_given(self, workdir):
        code = run(["emit", *self._xor_inputs(workdir),
                    "--formula", "model:1", "--epsilon", "0", "--out", workdir / "f.cnf"])
        assert code == 0

    def test_a_property_document_with_pre(self, workdir, capsys):
        prop = workdir / "prop.json"
        prop.write_text(json.dumps({"format_version": 1, "pre": "f0 <= 0", "allow": [1]}))
        code = run(["emit", *self._xor_inputs(workdir),
                    "--formula", "viol", "--property", prop, "--pre", "true", "--post", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: give emit either --property (a property document) or --pre and --post\n")


class TestEmitCountsLikeMetrics:
    """Every --formula root, parsed back and counted, equals its report's count."""

    TRUTH = "f0 <= 3 || f1 > 0"
    PRE = "f0 >= 2 && f1 <= 1 && f2 != 4"
    CENTER, EPSILON = "3,0,2", "1"

    @pytest.mark.parametrize("kind", ["tree", "network"])
    def test_every_formula_counts_like_its_metric(self, tmp_path, kind):
        domain = make_domain([(0, 7), (-2, 5), (0, 5)])
        rng = random.Random(5)
        if kind == "tree":
            doc = tree_to_document(random_tree(rng, domain))
        else:
            doc = network_to_document(random_network(rng, domain, hidden=(3,), weight_range=5))
        (tmp_path / "domain.json").write_text(json.dumps(domain_to_document(domain)))
        (tmp_path / "model.json").write_text(json.dumps(doc))
        (tmp_path / "truth.pred").write_text(self.TRUTH)
        # the metrics count over Pre's box, emit over the full domain
        box = bounding_box(parse_predicate(self.PRE, domain), domain)
        assert box != domain

        inputs = ["--domain", tmp_path / "domain.json", "--model", tmp_path / "model.json"]
        prop = ["--property", tmp_path / "truth.pred"]
        pre_post = ["--pre", self.PRE, "--post", "1"]
        ball = ["--center", self.CENTER, "--epsilon", self.EPSILON]
        # the query options that each formula reads
        reads = {"pre": pre_post, "sat": pre_post, "viol": pre_post, "robustness": ball}

        def report(command, *args):
            out = tmp_path / f"{command}.json"
            assert run([command, *inputs, *args, "--out", out]) == 0
            return json.loads(out.read_text())

        learn = report("learnability", *prop)
        safe, rob = report("safety", *pre_post), report("robustness", *ball)
        want = {"pre": safe["pre_size"], "sat": safe["sat_count"], "viol": safe["viol_count"],
                "robustness": rob["correct_count"]}
        truth = binary_truth(parse_predicate(self.TRUTH, domain))
        for label in (0, 1):
            want[f"truth:{label}"] = brute_count_predicate(truth[label], domain)
            for cell in ("tp", "fp", "tn", "fn"):
                want[f"{cell}:{label}"] = learn["labels"][label][cell]
        assert 0 < want["viol"] < want["pre"]

        for formula, count in want.items():
            out = tmp_path / "f.cnf"
            query = reads.get(formula, [] if formula.startswith("model") else prop)
            assert run(["emit", *inputs, *query, "--formula", formula, "--out", out]) == 0
            assert count_projected(parse_dimacs(out.read_text())).count == count, formula


def _two_feature_net(tmp_path):
    """The CLI arguments of a 2-feature quantized net and a ground-truth predicate file."""
    (tmp_path / "net-domain.json").write_text(json.dumps(domain_to_document(
        make_domain([(0, 15), (-8, 7)], prefix="x")
    )))
    (tmp_path / "net.json").write_text(json.dumps(
        {"format_version": 1, "kind": "quantized_network", "input_width": 2,
         "layers": [{"weights": [[3, -2], [-1, 2]], "biases": [1, -2],
                     "activation": "relu", "post_shift": 1},
                    {"weights": [[2, -1], [-1, 3]], "biases": [0, 1],
                     "activation": "none", "post_shift": 0}]}
    ))
    (tmp_path / "truth.pred").write_text("x0 >= 4 && x1 <= 2\n")
    return ["--domain", tmp_path / "net-domain.json", "--model", tmp_path / "net.json",
            "--property", tmp_path / "truth.pred"]


class TestOracleCommand:
    def test_diff_against_matching_report(self, workdir):
        report = workdir / "report.json"
        assert run(["learnability", "--domain", "graph3",
                    "--model", workdir / "reflexive_tree.json",
                    "--property", "reflexive", "--nodes", "3", "--out", report]) == 0
        code = run(["oracle", "--domain", "graph3",
                    "--model", workdir / "reflexive_tree.json",
                    "--property", "reflexive", "--nodes", "3",
                    "--diff", report, "--out", workdir / "oracle.json"])
        assert code == 0

    def test_diff_against_tampered_report(self, workdir, capsys):
        report = workdir / "report.json"
        run(["learnability", "--domain", "graph3",
             "--model", workdir / "reflexive_tree.json",
             "--property", "reflexive", "--nodes", "3", "--out", report])
        doc = json.loads(report.read_text())
        doc["labels"][1]["tp"] += 7
        report.write_text(json.dumps(doc))
        code = run(["oracle", "--domain", "graph3",
                    "--model", workdir / "reflexive_tree.json",
                    "--property", "reflexive", "--nodes", "3",
                    "--diff", report, "--out", workdir / "oracle.json"])
        assert code == 3
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("offset, code", [(0, 0), (1, 3)], ids=["agrees", "off-by-one"])
    def test_diff_against_a_gap_report(self, tmp_path, capsys, offset, code):
        args = _two_feature_net(tmp_path)
        report = tmp_path / "gap.json"
        assert run(["learnability", *args, "--budget", "3", "--out", report]) == 2
        doc = json.loads(report.read_text())
        assert doc["gaps"] and doc["labels"][0]["tp"] is None
        assert run(["oracle", *args, "--diff", report, "--out", tmp_path / "oracle.json"]) == 0
        # finish one cell, at the oracle's count or one above it
        oracle_doc = json.loads((tmp_path / "oracle.json").read_text())
        doc["labels"][0]["tp"] = oracle_doc["counts"]["0"]["tp"] + offset
        report.write_text(json.dumps(doc))
        assert run(["oracle", *args, "--diff", report, "--out", tmp_path / "oracle.json"]) == code
        assert ("mismatch at label 0 tp" in capsys.readouterr().err) == bool(offset)

    @pytest.mark.parametrize("command", [
        ["safety", "--pre", "x0 >= 4 && x1 <= 2", "--post", "0"],
        ["robustness", "--center", "2,3", "--epsilon", "2"],
    ], ids=["safety", "robustness"])
    def test_diff_against_a_report_of_another_kind(self, tmp_path, capsys, command):
        args = _two_feature_net(tmp_path)
        report = tmp_path / "report.json"
        assert run([*command, *args[:4], "--out", report]) == 0
        assert run(["oracle", *args, "--diff", report, "--out", tmp_path / "oracle.json"]) == 1
        assert f"report kind '{command[0]}'" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["0", False, True, 1.0, [0]],
                             ids=["string", "false", "true", "float", "list"])
    def test_diff_cell_that_is_not_a_count(self, workdir, capsys, cell):
        args = ["--domain", "graph3", "--model", workdir / "reflexive_tree.json",
                "--property", "reflexive", "--nodes", "3"]
        report = workdir / "report.json"
        assert run(["learnability", *args, "--out", report]) == 0
        doc = json.loads(report.read_text())
        # the count is 0: `false` would equal it and "0" would be a mismatch
        assert doc["labels"][1]["fp"] == 0
        doc["labels"][1]["fp"] = cell
        report.write_text(json.dumps(doc))
        assert run(["oracle", *args, "--diff", report]) == 1
        assert capsys.readouterr().err == (
            f"error: --diff {report}: label 1 fp must be an integer or null, got {cell!r}\n"
        )

    @pytest.mark.parametrize("size", ["512", [512], True, 512.0],
                             ids=["string", "list", "true", "float"])
    def test_diff_domain_size_that_is_not_a_count(self, workdir, capsys, monkeypatch, size):
        args = ["--domain", "graph3", "--model", workdir / "reflexive_tree.json",
                "--property", "reflexive"]
        report = workdir / "report.json"
        assert run(["learnability", *args, "--out", report]) == 0
        doc = json.loads(report.read_text())
        doc["domain_size"] = size
        report.write_text(json.dumps(doc))
        # the report is checked before the domain is enumerated
        monkeypatch.setattr(exactml.oracle, "brute_learnability", None)
        assert run(["oracle", *args, "--diff", report]) == 1
        assert capsys.readouterr().err == (
            f"error: --diff {report}: domain_size must be an integer or null, got {size!r}\n"
        )

    def test_diff_domain_size_mismatch(self, workdir, capsys):
        args = ["--domain", "graph3", "--model", workdir / "reflexive_tree.json",
                "--property", "reflexive"]
        report = workdir / "report.json"
        assert run(["learnability", *args, "--out", report]) == 0
        doc = json.loads(report.read_text())
        doc["domain_size"] = 511
        report.write_text(json.dumps(doc))
        assert run(["oracle", *args, "--diff", report, "--out", workdir / "oracle.json"]) == 3
        assert capsys.readouterr().err == (
            "mismatch at domain_size: report has 511, oracle has 512\n")

    def test_domain_over_cap(self, workdir, capsys):
        code = run(["oracle", "--domain", "graph5",
                    "--model", workdir / "reflexive_tree.json",
                    "--property", "reflexive", "--nodes", "5", "--cap", "1000"])
        assert code == 1
        assert "too large" in capsys.readouterr().err


class TestExternalBackend:
    def test_emitted_tp_formula_counts_reflexive(self, workdir, tmp_path):
        # what an external exact counter would see: parse the file back and count
        from reference_counters import count_projected

        (tmp_path / "tree4.json").write_text(json.dumps(reflexive_tree_doc(4)))
        out = workdir / "tp.cnf"
        assert run(["emit", "--domain", "graph4",
                    "--model", tmp_path / "tree4.json",
                    "--property", "reflexive", "--nodes", "4",
                    "--formula", "tp:1", "--out", out]) == 0
        assert count_projected(parse_dimacs(out.read_text())).count == 4096

    def test_external_backend_subprocess_adapter(self, workdir):
        # stub counter: checks the file exists, answers a fixed projected count
        stub = workdir / "fake_counter.sh"
        stub.write_text("#!/bin/sh\ntest -f \"$1\" || exit 9\necho 'c fake counter'\necho 's mc 64'\n")
        stub.chmod(0o755)
        out = workdir / "ext.json"
        code = run(["learnability", "--domain", "graph3",
                    "--model", workdir / "reflexive_tree.json",
                    "--property", "reflexive", "--nodes", "3",
                    "--backend", f"external:{stub} {{file}}", "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        # the tree is its property, so fp:1 and fn:1 fold to 0 and reach no counter
        folded = {(1, "fp"): 0, (1, "fn"): 0}
        assert all(doc["labels"][l][kind] == folded.get((l, kind), 64)
                   for l in (0, 1) for kind in ("tp", "fp", "tn", "fn"))

    @pytest.mark.parametrize("backend, center, marked", [
        ("external-approx", "2,3", True),
        ("external", "2,3", False),
        ("external-approx", "12,-5", False),  # decided by bounds: no counter runs
    ])
    def test_only_an_approximate_count_marks_the_report(self, tmp_path, backend, center, marked):
        stub = tmp_path / "stub.sh"
        stub.write_text("#!/bin/sh\necho 's mc 7'\n")
        stub.chmod(0o755)
        out = tmp_path / "rob.json"
        assert run(["robustness", *_two_feature_net(tmp_path)[:4], "--center", center,
                    "--epsilon", "2", "--backend", f"{backend}:{stub} {{file}}",
                    "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc.get("approximate") is (True if marked else None)
        assert doc["correct_count"] == (7 if center == "2,3" else 25)
        assert run(["robustness", *_two_feature_net(tmp_path)[:4], "--center", center,
                    "--epsilon", "2", "--out", out]) == 0
        assert "approximate" not in json.loads(out.read_text())

    @pytest.mark.parametrize("script, stderr", [
        ("import sys; sys.exit(3)", ""),
        ("import sys; sys.stderr.write('out of memory'); sys.exit(3)", "out of memory"),
    ])
    def test_external_backend_nonzero_exit_is_an_input_error(self, workdir, capsys, script, stderr):
        out = workdir / "ext-fail.json"
        code = run(["learnability", "--domain", "graph3",
                    "--model", workdir / "reflexive_tree.json",
                    "--property", "reflexive", "--nodes", "3",
                    "--backend", f'external:python3 -c "{script}" {{file}}', "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "exited with code 3" in err and stderr in err
        assert not out.exists()

    @pytest.mark.parametrize("option, value, error", [
        ("--backend", "bogus", "unknown backend 'bogus'"),
        ("--backend", "external", "unknown backend 'external'"),
        ("--backend", "builtin:x", "unknown backend 'builtin:x'"),
        ("--budget", "0", "--budget must be positive"),
    ], ids=["bogus", "no-template", "builtin-template", "budget"])
    def test_bad_counting_option(self, workdir, capsys, option, value, error):
        code = run(["learnability", "--domain", "graph3",
                    "--model", workdir / "reflexive_tree.json",
                    "--property", "reflexive", option, value])
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_external_backend_bad_template(self, workdir, capsys):
        code = run(["learnability", "--domain", "graph3",
                    "--model", workdir / "reflexive_tree.json",
                    "--property", "reflexive", "--nodes", "3",
                    "--backend", "external:counter-without-placeholder"])
        assert code == 1
        assert "{file}" in capsys.readouterr().err


class TestDeterminism:
    def test_reports_byte_identical(self, workdir):
        outs = []
        for name in ("a.json", "b.json"):
            out = workdir / name
            run(["learnability", "--domain", "graph3",
                 "--model", workdir / "reflexive_tree.json",
                 "--property", "reflexive", "--nodes", "3",
                 "--samples", "500", "--seed", "7", "--out", out])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_dimacs_byte_identical(self, workdir):
        outs = []
        for name in ("a.cnf", "b.cnf"):
            out = workdir / name
            run(["emit", "--domain", "graph3",
                 "--model", workdir / "reflexive_tree.json",
                 "--property", "transitive", "--nodes", "3",
                 "--formula", "fn:1", "--out", out])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestDecidedBaseline:
    """The label that bounds decide changes no byte of a report.

    Each query runs as is and with `metrics.bound_label` patched to None,
    which compiles the net and scores every baseline sample on it.
    """

    QUERIES = {
        "learnability": ["learnability"],
        "learnability-decided": ["learnability", "--model", "const-net.json"],
        "safety": ["safety", "--pre", "x0 >= 4 && x0 != 9", "--post", "0"],
        "safety-decided": ["safety", "--pre", "x0 >= 4 && x1 <= 2 && x0 != 9", "--post", "0"],
        "robustness": ["robustness", "--center", "2,3", "--epsilon", "2"],
        "robustness-decided": ["robustness", "--center", "12,-5", "--epsilon", "2"],
    }

    @staticmethod
    def argv(tmp_path, query, samples):
        """The command line of `query` on the 2-feature net, run from `tmp_path`."""
        # a label-1 net everywhere: interval bounds decide it on the whole domain
        (tmp_path / "const-net.json").write_text(json.dumps(
            {"format_version": 1, "kind": "quantized_network", "input_width": 2,
             "layers": [{"weights": [[0, 0], [0, 0]], "biases": [0, 1], "activation": "none"}]}
        ))
        command, *args = query
        net = _two_feature_net(tmp_path)
        net = net if command == "learnability" else net[:4]
        return [command, *net, *args, "--samples", samples]

    @pytest.mark.parametrize("with_replacement", [True, False], ids=["replace", "no-replace"])
    @pytest.mark.parametrize("samples", ["50", "500"])
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_reports_are_byte_identical(self, tmp_path, monkeypatch, query, samples,
                                        with_replacement):
        monkeypatch.chdir(tmp_path)
        argv = self.argv(tmp_path, self.QUERIES[query], samples)
        if not with_replacement:
            baseline = exactml.metrics.statistical_baseline
            monkeypatch.setattr(exactml.metrics, "statistical_baseline",
                                lambda *a, **kw: baseline(*a, **kw, with_replacement=False))
        decided = []

        bound_label = exactml.metrics.bound_label

        def spy(model, domain):
            decided.append(bound_label(model, domain))
            return decided[-1]

        outs = []
        for decide in (spy, lambda model, domain: None):
            monkeypatch.setattr(exactml.metrics, "bound_label", decide)
            out = tmp_path / f"{len(outs)}.json"
            assert run([*argv, "--out", out]) == 0
            outs.append(out.read_bytes())
        assert (decided[-1] is not None) == query.endswith("-decided")
        assert b'"statistical_baseline"' in outs[0]
        assert outs[0] == outs[1]

    def test_a_decided_ball_scores_no_sample(self, tmp_path, monkeypatch):
        calls = []
        unchecked = exactml.metrics.eval_unchecked
        monkeypatch.setattr(exactml.metrics, "eval_unchecked",
                            lambda *a: calls.append(a) or unchecked(*a))
        args = [*_two_feature_net(tmp_path)[:4], "--epsilon", "2", "--samples", "50"]
        # the open ball reuses the center's label from `robustness`
        for center, evaluations in (("12,-5", 0), ("2,3", 50)):
            calls.clear()
            assert run(["robustness", *args, "--center", center,
                        "--out", tmp_path / "rob.json"]) == 0
            assert len(calls) == evaluations


class TestGoldenDimacs:
    """The exact bytes `emit` writes, pinned by sha256 so an encoder rewrite
    cannot change a variable number, a clause or its order unnoticed."""

    PRE_POST = ("--pre", "f0 >= 2 && f1 <= 5", "--post", "1")
    GOLDEN = {
        "net-model:1-ind_comment":
            "b5c3e7ee7aa0c184a0c44b22e85a8c1d0ff0b15114c0f3b6bafe955c61d5d2b9",
        "net-viol-ind_comment":
            "ac01f3be7ea3731a326ea1541ab820a874d0eb2f985b38e99aa0aad89f5cf843",
        "net-viol-pshow_comment":
            "8faf892907a878ea8dff775e5b643bcfad864b38df58246a5eb2d1d3a91a9608",
        "graph3-fn:1-ind_comment":
            "39f4ea39b95aa59df121a76f53163b627f3c8a182ef5b9aa6593d028b34bd705",
        "net-robustness-ind_comment":
            "eaac4c9fb2c04c03098f5896175d7aad11315ffd93426de3304a4e819ab39a8e",
    }

    @staticmethod
    def _net_args(tmp_path, formula):
        """The inputs of a 3-feature net and the query options that `formula` reads."""
        domain = make_domain([(0, 7)] * 3)
        net = random_network(random.Random(3), domain, hidden=(2,), weight_range=3)
        (tmp_path / "domain.json").write_text(json.dumps(domain_to_document(domain)))
        (tmp_path / "net.json").write_text(json.dumps(network_to_document(net)))
        query = {"viol": TestGoldenDimacs.PRE_POST,
                 "robustness": ("--center", "3,4,5", "--epsilon", "1")}
        return ["--domain", tmp_path / "domain.json", "--model", tmp_path / "net.json",
                *query.get(formula, ())]

    def _emit_digest(self, tmp_path, args, formula, dialect):
        out = tmp_path / "f.cnf"
        assert run(["emit", *args, "--formula", formula, "--dialect", dialect, "--out", out]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    @pytest.mark.parametrize("formula,dialect", [
        ("model:1", "ind_comment"), ("viol", "ind_comment"), ("viol", "pshow_comment"),
    ])
    def test_quantized_net(self, tmp_path, formula, dialect):
        digest = self._emit_digest(tmp_path, self._net_args(tmp_path, formula), formula, dialect)
        assert digest == self.GOLDEN[f"net-{formula}-{dialect}"]

    def test_robustness_ball(self, tmp_path):
        # the ball around (3, 4, 5) narrows every feature of the domain
        args = self._net_args(tmp_path, "robustness")
        digest = self._emit_digest(tmp_path, args, "robustness", "ind_comment")
        assert digest == self.GOLDEN["net-robustness-ind_comment"]

    def test_literal_objects_are_shared(self, tmp_path, monkeypatch):
        # each variable's two literals are one int object each, whatever the
        # number of clauses that use them
        formulas = []
        tseitin = exactml.cnf.tseitin
        monkeypatch.setattr(exactml.cnf, "tseitin",
                            lambda *a: formulas.append(tseitin(*a)) or formulas[-1])
        self._emit_digest(tmp_path, self._net_args(tmp_path, "viol"), "viol", "ind_comment")
        (f,) = formulas
        assert len({id(lit) for clause in f.clauses for lit in clause}) <= 2 * f.num_vars

    @pytest.mark.parametrize("formula", ["model:1", "viol"])
    def test_the_circuit_is_freed_before_formatting(self, tmp_path, monkeypatch, formula):
        circuits, freed = [], []
        tseitin, emit_dimacs = exactml.cnf.tseitin, exactml.cnf.emit_dimacs

        def keep_ref(circuit, root):
            circuits.append(weakref.ref(circuit))
            return tseitin(circuit, root)

        def check_freed(cnf, dialect):
            freed.append(circuits[-1]() is None)
            return emit_dimacs(cnf, dialect)

        monkeypatch.setattr(exactml.cnf, "tseitin", keep_ref)
        monkeypatch.setattr(exactml.cnf, "emit_dimacs", check_freed)
        args = self._net_args(tmp_path, formula)
        digest = self._emit_digest(tmp_path, args, formula, "ind_comment")
        assert digest == self.GOLDEN[f"net-{formula}-ind_comment"]
        assert freed == [True]

    @pytest.mark.parametrize("formula", ["model:1", "viol"])
    def test_writing_from_the_gates_peaks_below_the_clause_tuples(self, tmp_path, monkeypatch, formula):
        # the text is formatted from each gate's kind and literals; the clause
        # tuples that the DPLL reads are not made on the way
        encoded = []
        tseitin = exactml.cnf.tseitin
        monkeypatch.setattr(exactml.cnf, "tseitin", lambda *a: encoded.append(a) or tseitin(*a))
        self._emit_digest(tmp_path, self._net_args(tmp_path, formula), formula, "ind_comment")
        ((circuit, root),) = encoded

        def peak(write):
            tracemalloc.start()
            try:
                return write(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def from_tuples():
            f = tseitin(circuit, root)
            return emit_dimacs(CnfFormula(f.num_vars, f.clauses, f.projection))

        text, gates_peak = peak(lambda: emit_dimacs(tseitin(circuit, root)))
        same, tuples_peak = peak(from_tuples)
        assert text == same
        assert gates_peak < tuples_peak

    def test_graph3_tree(self, workdir):
        args = ["--domain", "graph3", "--model", workdir / "reflexive_tree.json",
                "--property", "transitive", "--nodes", "3"]
        digest = self._emit_digest(workdir, args, "fn:1", "ind_comment")
        assert digest == self.GOLDEN["graph3-fn:1-ind_comment"]


class TestGoldenReports:
    """The exact bytes of a `--samples 50` report of each metric, on a query
    that bounds decide and on one they leave open, pinned by sha256 like the
    DIMACS above, and of a safety report whose Pre holds nowhere."""

    QUERIES = {**TestDecidedBaseline.QUERIES,
               "safety-vacuous": ["safety", "--pre", "x0 > 15", "--post", "0"]}
    GOLDEN = {
        "learnability":
            "b7c9da1f98de5768b68ad98f3558497e863893145f0410924b90311f5407b57b",
        "learnability-decided":
            "23a2b078164ac5098ed720973a4115e434811993ff59e45341ae002b46a57512",
        "robustness":
            "738abfdd40b21044465387f2f8131be1352af98d8b1095ddd26afdc53df9ca6b",
        "robustness-decided":
            "80da61edc21f4d99b8ac8ec819989e4055ff182fee2f500596c7e26b9ca2f8ef",
        "safety":
            "fa17be14c94d24a2b920e40b0219a88d6f65b249503f7da7438c2ff6554fb1a5",
        "safety-decided":
            "763387ff2043eabd874c778f6361979105be81adebe2f2c763509041d2d9c460",
        "safety-vacuous":
            "b537dbafaa671f0edda113f28fb58e143db3d78550cbdecd28769782942cae92",
    }

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_report(self, tmp_path, monkeypatch, query):
        monkeypatch.chdir(tmp_path)
        argv = TestDecidedBaseline.argv(tmp_path, self.QUERIES[query], "50")
        out = tmp_path / "report.json"
        assert run([*argv, "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[query]


class TestGapReports:
    """The full document of one gap report per metric (exit 2), with and
    without a statistical baseline, as the CI's console-script job runs them."""

    QUERIES = {
        "learnability": ["learnability", "--domain", "graph5", "--nodes", "5", "--model", "tree.json",
                         "--property", "transitive", "--budget", "12000"],
        "robustness": ["robustness", "--center", "2,3", "--epsilon", "2", "--budget", "1"],
        "safety": ["safety", "--pre", "x0 <= x1", "--post", "0", "--budget", "1"],
    }
    UNDEFINED = dict.fromkeys(("accuracy", "precision", "recall", "f1"), "undefined")
    DOCUMENTS = {
        "learnability": {
            "format_version": 1,
            "report": "learnability",
            "domain_size": 33554432,
            "labels": [
                {"label": 0, "tp": 0, "fp": 0, "tn": None, "fn": None, **UNDEFINED},
                {"label": 1, "tp": None, "fp": None, "tn": 0, "fn": 0, **UNDEFINED},
            ],
            "macro_f1": "undefined",
            "gaps": ["label 0 tn: budget exhausted", "label 0 fn: budget exhausted",
                     "label 1 tp: budget exhausted", "label 1 fp: budget exhausted"],
        },
        "robustness": {
            "format_version": 1,
            "report": "robustness",
            "target_label": 1,
            "center": [2, 3],
            "epsilon": 2,
            "region_size": 25,
            "correct_count": None,
            "robustness": "undefined",
            "gaps": ["robustness: budget exhausted"],
        },
        "safety": {
            "format_version": 1,
            "report": "safety",
            "pre_size": None,
            "sat_count": None,
            "viol_count": None,
            "accuracy": "undefined",
            "vacuous": False,
            "gaps": ["pre: budget exhausted", "sat: budget exhausted", "viol: budget exhausted"],
        },
    }
    ESTIMATES = {"learnability": {"fraction": "0/1", "decimal": "0.0000"},
                 "robustness": {"fraction": "3/5", "decimal": "0.6000"},
                 "safety": {"fraction": "0/1", "decimal": "0.0000"}}

    @pytest.mark.parametrize("samples", [None, "50"], ids=["exact-only", "baseline"])
    @pytest.mark.parametrize("metric", sorted(QUERIES))
    def test_the_whole_document(self, tmp_path, monkeypatch, metric, samples):
        (tmp_path / "tree.json").write_text(json.dumps(constant_tree_doc(1)))
        monkeypatch.chdir(tmp_path)
        command, *args = self.QUERIES[metric]
        if metric != "learnability":
            args = [*_two_feature_net(tmp_path)[:4], *args]
        if samples:
            args += ["--samples", samples]
        assert run([command, *args, "--out", "gap.json"]) == 2
        doc = dict(self.DOCUMENTS[metric])
        if samples:
            doc["statistical_baseline"] = {"n_samples": 50, "seed": 0,
                                           "estimate": self.ESTIMATES[metric]}
        assert (tmp_path / "gap.json").read_text() == json.dumps(doc, indent=2) + "\n"
