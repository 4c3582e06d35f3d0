"""Fuzzing the CLI's inputs: no input gives a traceback.

Predicate text for `--pre` and `--property`, safety property documents,
`--center`, `--post` and domain documents are drawn at random and from
the cases that once ended in a traceback or never ended. Every run must
exit 0, 1 or 2, and on exit 1 print exactly one `error:` line. Values go
in as `--option=value`, so text starting with `-` is a value, not an
option. Needs `hypothesis`; skipped where it is missing.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from exactml.cli import main  # noqa: E402
from exactml.predicates import MAX_NESTING  # noqa: E402

from conftest import XOR_TREE_DOC, constant_tree_doc  # noqa: E402

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


def run(args) -> int:
    """Exit code of one CLI run; checks the exit-code and one-error-line contract."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in args])
    assert code in (0, 1, 2), (args, code)
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
