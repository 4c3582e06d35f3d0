"""Fuzzing the CLI's inputs: no input gives a traceback.

Predicate text for `--pre` and `--property`, safety property documents,
`--center`, `--post`, domain and model documents and the reports given to
`oracle --diff` are drawn at random and from the cases that once ended in
a traceback or never ended. Every run must exit 0, 1 or 2 (or 3, an
oracle mismatch), and on exit 1 print exactly one `error:` line. Values go
in as `--option=value`, so text starting with `-` is a value, not an
option. Needs `hypothesis`; skipped where it is missing.
"""

import contextlib
import io
import json
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from exactml.cli import main  # noqa: E402
from exactml.predicates import MAX_NESTING  # noqa: E402

from conftest import (  # noqa: E402
    XOR_TREE_DOC, constant_tree_doc, make_domain, network_to_document, random_tree,
    tree_to_document, varied_network,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

BITS2 = {"format_version": 1,
         "features": [{"name": "f0", "lo": 0, "hi": 1}, {"name": "f1", "lo": 0, "hi": 1}]}

# pieces of the predicate grammar, some misplaced, some out of range
TOKENS = ["f0", "f1", "f2", "e", "[", "]", "i", "j", "0", "1", "-1", "2", "99999999999999999999",
          "<=", "<", ">=", ">", "=", "==", "!=", "!", "&&", "||", "=>", "(", ")",
          "forall", "exists", "in", ",", ":", "true", "false", "#", "\n"]

predicate_text = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=25).map(" ".join),
    st.text(max_size=40),
)

# seeds: the nesting and quantifier limits, a comment line, an inline text
# longer than a file name, and the value that argparse takes for a list
DEEP_PREDICATES = [
    "(" * 300 + "f0 = 1" + ")" * 300,
    "!" * 5000 + "f0 = 1",
    " => ".join(["f0 = 1"] * 1001),
    "".join(f"forall i{k} in [0, 2): " for k in range(MAX_NESTING)) + "f0 = 1",
    "forall i in [0, 1000000): f0 = 1",
    "# a comment\nf0 = 1",
    " && ".join(["f0 >= 1"] * 40),
    "--",
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "bits2.json").write_text(json.dumps(BITS2))
    (root / "xor.json").write_text(json.dumps(XOR_TREE_DOC))
    (root / "const.json").write_text(json.dumps(constant_tree_doc(1)))
    (root / "true.pred").write_text("true")
    return root


def run(args, codes=(0, 1, 2)) -> int:
    """Exit code of one CLI run; checks the exit-code and one-error-line contract."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in args])
    assert code in codes, (args, code)
    if code == 1:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, (args, text)
    return code


def _on_xor_tree(files, command, *args):
    return run([command, "--domain", files / "bits2.json", "--model", files / "xor.json",
                *args, "--out", files / "report.json"])


def _example_each(values, name, **others):
    def decorate(test):
        for value in values:
            test = example(**{name: value}, **others)(test)
        return test
    return decorate


@SETTINGS
@given(text=predicate_text)
@_example_each(DEEP_PREDICATES, "text")
def test_property_file(files, text):
    (files / "fuzz.pred").write_text(text)
    _on_xor_tree(files, "learnability", "--property", files / "fuzz.pred")


@SETTINGS
@given(text=predicate_text, post=st.sampled_from(["0", "1", "!0"]))
@_example_each(DEEP_PREDICATES, "text", post="1")
def test_pre_text(files, text, post):
    _on_xor_tree(files, "safety", f"--pre={text}", f"--post={post}")


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                         st.text(max_size=6))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)
label_lists = st.one_of(st.lists(st.integers(-2, 3), max_size=3), json_values)


@SETTINGS
@given(doc=st.one_of(
    st.fixed_dictionaries(
        {"pre": st.one_of(predicate_text, json_values)},
        optional={"allow": label_lists, "deny": label_lists, "format_version": json_values},
    ),
    json_values,
))
@example(doc={"pre": 5, "allow": [1]})
@example(doc={"pre": "true", "allow": 5})
@example(doc={"pre": "true", "deny": None})
def test_safety_property_document(files, doc):
    (files / "prop.json").write_text(json.dumps(doc))
    _on_xor_tree(files, "safety", "--property", files / "prop.json")


@SETTINGS
@given(
    center=st.one_of(
        st.lists(st.integers(), max_size=4).map(lambda v: ",".join(map(str, v))),
        st.text(alphabet="0123456789-+, _x", max_size=12),
    ),
    epsilon=st.integers(-2, 3),
)
@example(center="-1,0", epsilon=1)
@example(center="--", epsilon=1)
@example(center="1," * 5000 + "1", epsilon=0)
@example(center="9" * 5000 + ",0", epsilon=0)
def test_center(files, center, epsilon):
    _on_xor_tree(files, "robustness", f"--center={center}", f"--epsilon={epsilon}")


@SETTINGS
@given(post=st.one_of(
    st.lists(st.integers(-3, 4), max_size=4).map(lambda v: ",".join(map(str, v))),
    st.text(alphabet="0123456789-!, x", max_size=10),
))
@example(post="--")
@example(post="!")
@example(post="!0,1")
@example(post="9" * 5000)
def test_post(files, post):
    _on_xor_tree(files, "safety", "--pre=f0 = 1", f"--post={post}")


feature_entries = st.one_of(
    st.fixed_dictionaries({"name": st.sampled_from(["f0", "f1", "f2", ""]),
                           "lo": st.integers(-(2**70), 2**70),
                           "hi": st.integers(-(2**70), 2**70)}),
    json_values,
)


@SETTINGS
@given(doc=st.one_of(
    st.fixed_dictionaries({"features": st.lists(feature_entries, max_size=4)},
                          optional={"format_version": json_values}),
    json_values,
))
@example(doc={"features": [{"name": "f0", "lo": 0, "hi": 1}, {"name": "f1", "lo": True, "hi": 1}]})
@example(doc={"features": [{"name": "f0", "lo": 0, "hi": 2**64}, {"name": "f1", "lo": -1, "hi": 0}]})
def test_domain_document(files, doc):
    (files / "domain.json").write_text(json.dumps(doc))
    for model in ("xor.json", "const.json"):
        run(["learnability", "--domain", files / "domain.json", "--model", files / model,
             "--property", files / "true.pred", "--out", files / "report.json"])


def test_domain_document_nested_too_deeply(files):
    (files / "domain.json").write_text("[" * 100_000 + "]" * 100_000)
    assert run(["learnability", "--domain", files / "domain.json", "--model", files / "xor.json",
                "--property", files / "true.pred"]) == 1


# a small int, or a JSON value of another type
def small_int_or_other(lo, hi):
    return st.one_of(st.integers(lo, hi), st.none(), st.booleans(), st.floats(allow_nan=False),
                     st.text(max_size=4), st.lists(st.integers(lo, hi), max_size=2))


tree_nodes = st.one_of(
    st.fixed_dictionaries({"leaf": small_int_or_other(-1, 3)}),
    st.fixed_dictionaries({"feature": small_int_or_other(-1, 2),
                           "threshold": small_int_or_other(-2, 2),
                           "left": small_int_or_other(-1, 4),
                           "right": small_int_or_other(-1, 4)}),
    json_scalars,
)
tree_documents = st.fixed_dictionaries(
    {"kind": st.just("decision_tree"),
     "nodes": st.one_of(st.lists(tree_nodes, max_size=5), json_scalars)},
    optional={"num_labels": small_int_or_other(-1, 3), "root": small_int_or_other(-1, 4),
              "format_version": json_scalars},
)
weight_rows = st.lists(st.lists(small_int_or_other(-50, 50), max_size=3), max_size=3)
layers = st.one_of(
    st.fixed_dictionaries(
        {"weights": st.one_of(weight_rows, json_scalars),
         "biases": st.one_of(st.lists(small_int_or_other(-50, 50), max_size=3), json_scalars)},
        optional={"activation": st.sampled_from(["relu", "none", "tanh", None]),
                  "post_shift": small_int_or_other(-1, 70)},
    ),
    json_scalars,
)
network_documents = st.fixed_dictionaries(
    {"kind": st.just("quantized_network"),
     "layers": st.one_of(st.lists(layers, max_size=3), json_scalars)},
    optional={"input_width": small_int_or_other(0, 3), "format_version": json_scalars},
)


def _well_formed_model(seed):
    """A random tree (1-3 labels) or net (0-2 hidden layers, shifts 0-2) on BITS2."""
    rng = random.Random(seed)
    domain = make_domain([(0, 1), (0, 1)])
    if rng.random() < 0.5:
        return tree_to_document(random_tree(rng, domain, rng.randint(1, 3), max_depth=3))
    return network_to_document(varied_network(rng, domain))


# the 2 x 2 net that labels (f0, f1) by f0 <= f1, and a one-hidden-layer net
VALID_NETWORKS = [
    {"kind": "quantized_network",
     "layers": [{"weights": [[-1, 1], [1, -1]], "biases": [0, 0], "activation": "none"}]},
    {"kind": "quantized_network",
     "layers": [{"weights": [[3, -2], [-1, 2]], "biases": [1, -2], "activation": "relu",
                 "post_shift": 1},
                {"weights": [[2, -1], [-1, 3]], "biases": [0, 1], "post_shift": 0}]},
]


@SETTINGS
@given(doc=st.one_of(st.integers(0, 2**32 - 1).map(_well_formed_model), tree_documents,
                     network_documents, json_values))
@_example_each(VALID_NETWORKS, "doc")
@example(doc={"kind": "decision_tree", "num_labels": 2, "nodes": [{"leaf": 1}]})
# a shift past `models.MAX_POST_SHIFT` is one error line, not a 1 << shift of megabytes
@example(doc={**VALID_NETWORKS[1], "layers": [{**VALID_NETWORKS[1]["layers"][0],
                                               "post_shift": 3 * 10**7},
                                              VALID_NETWORKS[1]["layers"][1]]})
def test_model_document(files, doc):
    (files / "model.json").write_text(json.dumps(doc))
    args = ["--domain", files / "bits2.json", "--model", files / "model.json",
            "--out", files / "report.json"]
    run(["learnability", *args, "--property", files / "true.pred"])
    run(["robustness", *args, "--center=0,1", "--epsilon=1", "--samples=5"])


# `labels` values that once ended in a traceback or a bare KeyError line, and
# a label `true`, which JSON keeps apart from the label 1
MALFORMED_DIFF_LABELS = [5, [5], "ab", [{"label": 7}], [{}], [{"label": True}]]

cells = st.one_of(st.none(), st.integers(-1, 5), json_scalars)
diff_entries = st.one_of(
    st.fixed_dictionaries({"label": small_int_or_other(-1, 2)},
                          optional={kind: cells for kind in ("tp", "fp", "tn", "fn")}),
    json_values,
)


def _diff_args(files, doc) -> list:
    """`oracle --diff` of the XOR tree against `doc`."""
    (files / "diff.json").write_text(json.dumps(doc))
    return [str(a) for a in ("oracle", "--domain", files / "bits2.json", "--model",
                             files / "xor.json", "--property", files / "true.pred",
                             "--diff", files / "diff.json", "--out", files / "oracle.json")]


@SETTINGS
@given(doc=st.one_of(
    st.fixed_dictionaries(
        {"report": st.just("learnability")},
        optional={"labels": st.one_of(st.lists(diff_entries, max_size=3), json_values),
                  "domain_size": st.one_of(st.just(4), json_values)},
    ),
    json_values,
))
@_example_each([{"report": "learnability", "labels": v} for v in MALFORMED_DIFF_LABELS], "doc")
def test_diff_document(files, doc):
    run(_diff_args(files, doc), codes=(0, 1, 3))


@pytest.mark.parametrize("labels", MALFORMED_DIFF_LABELS, ids=json.dumps)
def test_malformed_diff_labels_name_the_option(files, capsys, labels):
    assert main(_diff_args(files, {"report": "learnability", "labels": labels})) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --diff ") and err.count("\n") == 1, err
