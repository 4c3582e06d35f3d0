"""Command line front end.

One command per metric plus DIMACS export and the brute-force oracle.
Identical configuration and inputs produce byte-identical report and DIMACS
files. Exit codes: 0 success, 1 input error, 2 a count ran out of budget
(the report has gaps), 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path
from typing import Optional

from . import bdd
from . import circuit as circuit_mod
from . import cnf as cnf_mod
from . import counter as counter_mod
from . import metrics as metrics_mod
from . import models, oracle, predicates

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3

_GRAPH_DOMAIN_RE = re.compile(r"^graph(\d+)$")

_CELLS = ("tp", "fp", "tn", "fn")


class CliError(Exception):
    pass


def _read_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise CliError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise CliError(f"{path}: JSON nested too deeply") from exc


def _graph_nodes(domain) -> Optional[int]:
    """N if the domain is N·N binary features, the shape of an N-node graph; else None."""
    n = math.isqrt(len(domain.features))
    binary = all((f.lo, f.hi) == (0, 1) for f in domain.features)
    return n if n and n * n == len(domain.features) and binary else None


def _load_domain(args):
    """--domain, or the graph domain of --nodes; with both, --nodes must fit the domain."""
    if not args.domain:
        if args.nodes is None:
            raise CliError("need --domain (or --nodes for a graph domain)")
        return predicates.graph_domain(args.nodes)
    match = _GRAPH_DOMAIN_RE.match(args.domain)
    if match and not Path(args.domain).exists():
        domain = predicates.graph_domain(int(match.group(1)))
    else:
        domain = models.load_domain(_read_json(args.domain))
    if args.nodes is not None and _graph_nodes(domain) != args.nodes:
        raise CliError(f"--nodes {args.nodes} does not fit --domain {args.domain}: "
                       f"N nodes need a domain of N·N binary features")
    return domain


def _load_inputs(args):
    """The domain and the model of a command."""
    domain = _load_domain(args)
    return domain, models.load_model(_read_json(args.model), domain)


def _predicate_file(arg: str) -> Optional[str]:
    """Predicate file `arg` without its `#` comment lines; None if `arg` names no file."""
    try:
        if not Path(arg).is_file():
            return None
    except (OSError, ValueError):  # too long for a file name, or holds a NUL
        return None
    return "\n".join(
        line for line in Path(arg).read_text().splitlines() if not line.lstrip().startswith("#")
    )


def _predicate_from_arg(arg: str, domain):
    """--property value: a predicate file, or a builtin graph property over the domain's graph."""
    text = _predicate_file(arg)
    if text is not None:
        return predicates.parse_predicate(text, domain)
    if arg.lower() in predicates.GRAPH_PROPERTIES:
        nodes = _graph_nodes(domain)
        if nodes is None:
            raise CliError(f"builtin graph properties need a domain of N·N binary features "
                           f"(got {len(domain.features)} features)")
        return predicates.builtin_graph_property(arg, nodes)
    raise CliError(f"no such predicate file or builtin property: {arg}")


def _parse_post(arg: str) -> dict:
    """--post "1,2" as a property document's allow list; "!2" as its deny list."""
    text = arg.strip()
    key, text = ("deny", text[1:]) if text.startswith("!") else ("allow", text)
    try:
        return {key: sorted({int(tok) for tok in text.split(",")})}
    except ValueError as exc:
        raise CliError(f"bad --post value {arg!r}") from exc


def _make_count_fn(backend: str, budget: int, dialect: str):
    if backend == "builtin":
        return lambda circuit, roots: bdd.count_roots(circuit, roots, budget)
    kind, colon, template = backend.partition(":")
    tool = {"external": "projected_exact", "external-approx": "approximate"}.get(kind)
    if not colon or tool is None:
        raise CliError(f"unknown backend {backend!r}")
    if "{file}" not in template:
        raise CliError("external backend template needs a {file} placeholder")
    return metrics_mod.tseitin_count_fn(functools.partial(
        counter_mod.count_external, template=template, tool=tool, dialect=dialect
    ))


def _write(text: str, out: Optional[str]) -> None:
    """Write a report's or a formula's text to the file `out`, or to standard output."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _truth_predicates(args, domain, n_labels):
    if not args.property:
        raise CliError("need --property (builtin name or predicate file)")
    if n_labels != 2:
        raise CliError("the CLI drives binary problems; use the API for more labels")
    return metrics_mod.binary_truth(_predicate_from_arg(args.property, domain))


def _metric_options(args) -> dict:
    """The counting and sampling options of a metric command, as metric keywords."""
    return {"count_fn": _make_count_fn(args.backend, args.budget, args.dialect),
            "samples": args.samples, "seed": args.seed}


def _finish(args, report, to_document) -> int:
    """Write the report's document; the exit code is 2 if it has gaps."""
    _write(json.dumps(to_document(report), indent=2) + "\n", args.out)
    return EXIT_BUDGET if report.gaps else EXIT_OK


def cmd_learnability(args) -> int:
    domain, model = _load_inputs(args)
    truth = _truth_predicates(args, domain, model.num_labels)
    report = metrics_mod.learnability(model, truth, domain, **_metric_options(args))
    return _finish(args, report, metrics_mod.metrics_to_document)


def _safety_property(args, domain, n_labels):
    """--pre and --post, or (without --pre) the property document named by --property."""
    if args.property and args.pre:
        raise CliError(f"give {args.command} either --property (a property document) "
                       "or --pre and --post")
    if args.property:
        if args.post is not None:
            raise CliError("a --property document holds its own post labels; "
                           "give --pre with --post")
        doc = _read_json(args.property)
        return predicates.load_safety_property(doc, domain, n_labels)
    if args.pre is None or args.post is None:
        raise CliError("need --pre and --post (or --property with a property file)")
    text = _predicate_file(args.pre)
    return predicates.load_safety_property(
        {"pre": args.pre if text is None else text, **_parse_post(args.post)}, domain, n_labels)


def cmd_safety(args) -> int:
    domain, model = _load_inputs(args)
    prop = _safety_property(args, domain, model.num_labels)
    report = metrics_mod.safety(model, prop, domain, **_metric_options(args))
    return _finish(args, report, metrics_mod.safety_to_document)


def _parse_center(arg: Optional[str]) -> tuple[int, ...]:
    if not arg:
        raise CliError("need --center")
    try:
        return tuple(int(tok) for tok in arg.split(","))
    except ValueError as exc:
        raise CliError(f"bad --center value {arg!r}") from exc


def cmd_robustness(args) -> int:
    domain, model = _load_inputs(args)
    center = _parse_center(args.center)
    report = metrics_mod.robustness(model, center, args.epsilon, domain, **_metric_options(args))
    return _finish(args, report, metrics_mod.robustness_to_document)


_FORMULA_RE = re.compile(r"^(?:(model|truth|tp|fp|tn|fn):(\d+)|(pre|sat|viol|robustness))$")

# the query options of emit, and those that each kind of --formula reads
_QUERY_OPTIONS = ("property", "pre", "post", "center", "epsilon")
_FORMULA_READS = {"model": (), "robustness": ("center", "epsilon"),
                  **dict.fromkeys(("truth", "tp", "fp", "tn", "fn"), ("property",)),
                  **dict.fromkeys(("pre", "sat", "viol"), ("pre", "post", "property"))}


def _build_formula(args, domain, model):
    """Resolve --formula into a root of a full-domain circuit; see README for the syntax."""
    match = _FORMULA_RE.match(args.formula)
    if not match:
        raise CliError(f"bad --formula {args.formula!r}")
    what, label, name = match.groups()
    # an --epsilon of 0, the default, counts as not given
    unread = [f"--{opt}" for opt in _QUERY_OPTIONS
              if getattr(args, opt) not in (None, 0) and opt not in _FORMULA_READS[what or name]]
    if unread:
        raise CliError(f"--formula {args.formula} does not read {', '.join(unread)}")
    n = model.num_labels
    if what is not None:
        name = f"{what}:{int(label)}"
        if int(label) >= n:
            raise CliError(f"no {name} root: the model has labels 0..{n - 1}")
    # parse every argument before compiling the full-domain circuit
    if what == "model":
        roots_of = None
    elif what is not None:
        roots_of = functools.partial(
            metrics_mod.learnability_roots, truth_predicates=_truth_predicates(args, domain, n)
        )
    elif name == "robustness":
        center = _parse_center(args.center)
        roots_of = functools.partial(
            metrics_mod.robustness_roots,
            target=models.eval_model(model, center, domain),
            region=predicates.region(center, args.epsilon, domain),
        )
    else:
        roots_of = functools.partial(metrics_mod.safety_roots, prop=_safety_property(args, domain, n))
    circ = circuit_mod.compile_model(model, domain)
    roots = roots_of(circ) if roots_of else {}
    if what in ("model", "truth"):
        return circ, circ.output(f"{what}_{int(label)}")
    return circ, roots[name]


def cmd_emit(args) -> int:
    domain, model = _load_inputs(args)
    # no name keeps the circuit: it is freed before the gates' lines are joined
    formula = cnf_mod.tseitin(*_build_formula(args, domain, model))
    _write(cnf_mod.emit_dimacs(formula, args.dialect), args.out)
    print(f"projection variables: {len(formula.projection)}", file=sys.stderr)
    return EXIT_OK


def _read_prior_counts(path: str, n_labels: int) -> list:
    """A learnability report's counts as (name, count) pairs: domain_size, then each cell.

    A count is an integer, or null for a budget gap; JSON true/false are not counts.
    """
    prior = _read_json(path)
    kind = prior.get("report") if isinstance(prior, dict) else None
    if kind != "learnability":
        raise CliError(f"--diff takes a learnability report, got report kind {kind!r} from {path}")
    entries = prior.get("labels", [])
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict) and type(entry.get("label")) is int
        and 0 <= entry["label"] < n_labels
        for entry in entries
    ):
        raise CliError(f"--diff {path}: labels must be a list of objects, each with "
                       f"an integer label of the model (0..{n_labels - 1})")
    pairs = [("domain_size", prior.get("domain_size"))] + [
        (f"label {entry['label']} {cell}", entry.get(cell)) for entry in entries for cell in _CELLS
    ]
    for name, count in pairs:
        if count is not None and type(count) is not int:
            raise CliError(f"--diff {path}: {name} must be an integer or null, got {count!r}")
    return pairs


def cmd_oracle(args) -> int:
    domain, model = _load_inputs(args)
    truth = _truth_predicates(args, domain, model.num_labels)
    prior = _read_prior_counts(args.diff, model.num_labels) if args.diff else []
    report = oracle.brute_learnability(model, truth, domain, cap=args.cap)
    labels = sorted({label for label, _ in report.counts})
    doc = {
        "format_version": 1,
        "report": "oracle",
        "domain_size": report.domain_size,
        "counts": {str(l): {cell: report.counts[(l, cell)] for cell in _CELLS} for l in labels},
        "fingerprint": report.fingerprint,
    }
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    want = {"domain_size": report.domain_size}
    want.update((f"label {l} {cell}", count) for (l, cell), count in report.counts.items())
    for name, got in prior:
        if got is not None and got != want[name]:
            print(f"mismatch at {name}: report has {got}, oracle has {want[name]}", file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with the input-error exit code, not argparse's 2.

    Exit code 2 means a counter budget was exhausted.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exactml",
        description="Exact model metrics via circuit compilation and projected model counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each group adds the options of one input; a command takes only the groups it reads.
    def inputs(p):
        p.add_argument("--domain", help="domain JSON file, or graphN for an N-node graph domain")
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--nodes", type=int,
                       help="N of an N-node graph domain (without --domain; must fit it otherwise)")
        p.add_argument("--out", help="output file (default: stdout)")

    def prop(p):
        p.add_argument("--property", help="builtin graph property name or predicate/property file")

    def pre_post(p):
        p.add_argument("--pre", help="safety precondition (predicate text or file)")
        p.add_argument("--post", help="allowed labels, e.g. '1' or '0,2' or '!3'")

    def ball(p):
        p.add_argument("--center", help="comma-separated input vector")
        p.add_argument("--epsilon", type=int, default=0)

    def dialect(p):
        p.add_argument("--dialect", default="ind_comment", choices=list(cnf_mod.DIALECTS))

    def counting(p):
        p.add_argument("--backend", default="builtin",
                       help="builtin | external:'cmd {file}' | external-approx:'cmd {file}'")
        dialect(p)
        p.add_argument("--budget", type=int, default=bdd.DEFAULT_NODE_BUDGET,
                       help="budget of the builtin counter, shared by all the counts of "
                            "one command: one unit per truth table on circuits of up to "
                            f"{bdd.TABLE_MAX_BITS} input bits, per BDD node beyond "
                            "(default %(default)s)")
        p.add_argument("--seed", type=int, default=metrics_mod.DEFAULT_SEED)
        p.add_argument("--samples", type=int, default=0,
                       help="if > 0, add a seeded statistical baseline to the report")

    def formula(p):
        p.add_argument("--formula", default="model:0",
                       help="model:L | truth:L | tp:L | fp:L | tn:L | fn:L | pre | sat | viol | robustness")

    def diff(p):
        p.add_argument("--diff", help="learnability report to compare against")
        p.add_argument("--cap", type=int, default=oracle.ENUMERATION_CAP)

    for name, func, groups, help_text in (
        ("learnability", cmd_learnability, (inputs, prop, counting),
         "confusion counts against a ground-truth predicate"),
        ("safety", cmd_safety, (inputs, prop, pre_post, counting), "Pre => Post compliance counts"),
        ("robustness", cmd_robustness, (inputs, ball, counting), "region-constrained decision counts"),
        ("emit", cmd_emit, (inputs, prop, pre_post, ball, dialect, formula),
         "write a formula as projected DIMACS"),
        ("oracle", cmd_oracle, (inputs, prop, diff),
         "brute-force enumeration, optionally diffed against a report"),
    ):
        # no abbreviations: `--pre` must not read as `--property` where there is no --pre
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for group in groups:
            group(p)
        p.set_defaults(func=func)

    return parser


_parser = functools.lru_cache(maxsize=None)(build_parser)  # one per process

# a value such as "-1,0" looks like an option to argparse
_NEGATIVE_VALUE_RE = re.compile(r"^-\d+(,\s*-?\d+)*$")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write `--opt -1,0` as `--opt=-1,0`, so the value is not read as an option."""
    joined: list[str] = []
    for arg in argv:
        prev = joined[-1] if joined else ""
        if _NEGATIVE_VALUE_RE.match(arg) and prev.startswith("--") and "=" not in prev:
            joined[-1] = f"{prev}={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_join_negative_values(list(argv)))
    # argparse reads `--opt=--` as an empty list before Python 3.13 and as
    # "--" from 3.13 on; neither is a value any option takes
    for name, value in vars(args).items():
        if isinstance(value, list) or value == "--":
            print(f"error: bad --{name} value '--'", file=sys.stderr)
            return EXIT_INPUT_ERROR
    if "budget" in args and args.budget <= 0:
        print("error: --budget must be positive", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if "samples" in args and args.samples < 0:
        print("error: --samples must not be negative", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
