"""Run one exactml benchmark workload and print its metrics.

    python3 perfbench/run.py --workload graph-learn --seed 1 --seconds 30 --trace 0

Single thread, standard library only. The seed generates the workload's
domains, models and predicates into a temporary directory under
``perfbench/_out``; every query then goes through ``exactml.cli.main(argv)``
in this process, writing its report or DIMACS file with ``--out``. Only
``setup_s`` starts other processes: fresh interpreters that import the CLI.
Every reported time is scaled to the host's usual speed
(``perfbench/hostspeed.py``); the run prints the measured total next to it.

The workload's query list is one round. Rounds repeat while the next one is
predicted to end within ``--seconds`` (at least one round runs). Every round
must reproduce the first round's exit codes and output bytes, and the first
round's outputs pass the correctness gate (``perfbench/gate.py``) after the
timing ends. The output digest is a sha256 over the first round's outputs in
query order.

``--trace 0`` runs the unmodified program and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced rounds, reports per-layer metrics
of the traced rounds (median over rounds) and writes the spans as JSON lines
to ``perfbench/_out/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
queries that raised or exited with 1 or 3; a budget gap (exit 2) is a result,
counted against ``decided_ratio``, and the gate checks it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "_out"
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import hostspeed  # noqa: E402  (standard library only)

END_TO_END_UNITS = {
    "wall_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "decided_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "counter.count_s": "s",
    "counter.calls": "count",
    "counter.decisions": "count",
    "counter.propagations": "count",
    "counter.exhausted": "count",
    "counter.models_per_decision": "ratio",
    "circuit.compile_s": "s",
    "circuit.gates": "count",
    "circuit.input_bits": "count",
    "cnf.tseitin_s": "s",
    "cnf.tseitin_calls": "count",
    "cnf.vars": "count",
    "cnf.clauses": "count",
    "cnf.emit_s": "s",
    "cnf.dimacs_bytes": "bytes",
    "cli.calls": "count",
    "cli.self_s": "s",
    "models.load_s": "s",
    "predicates.build_s": "s",
    "models.eval_calls": "count",
    "models.eval_s": "s",
    "metrics.self_s": "s",
    "metrics.baseline_s": "s",
    "metrics.baseline_samples": "count",
    "oracle.check_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.share": "%" for layer in
       ("cli", "models", "predicates", "circuit", "cnf", "counter", "metrics")},
}

# Layers predicted to take most of the traced query time, per workload.
PREDICTED_DOMINANT = {
    "graph-learn": ("counter",),
    "net-local": ("counter",),
    "emit-net": ("circuit", "cnf"),
}

SETUP_SAMPLES = 7
SETUP_CODE = (
    "import time\n"
    "from perfbench.hostspeed import loop_time\n"
    "before = loop_time()\n"
    "start = time.perf_counter()\n"
    "import exactml.cli\n"
    "exactml.cli.build_parser()\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, before, loop_time())\n"
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median time for a fresh interpreter to import exactml.cli and build its parser.

    One unmeasured start first writes the bytecode caches, which users pay once.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")]))
    times = []
    for i in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            elapsed, before, after = map(float, proc.stdout.split())
            times.append(elapsed * hostspeed.USUAL_S * 2 / (before + after))
    return statistics.median(times)


class Rounds:
    """Runs the query list round after round and keeps what the gate needs."""

    def __init__(self, queries):
        self.queries = queries
        self.first: dict = {}  # query name -> (exit code, output bytes, error text)
        self.intervals: list[tuple[float, float]] = []  # start and end of every query
        self.codes: list = []
        self.problems: list[str] = []

    def run(self, call) -> None:
        """One round, each query through `call(query)`."""
        for query in self.queries:
            stderr = io.StringIO()
            error = ""
            with contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                try:
                    code = call(query)
                except SystemExit as exc:  # argparse rejected the arguments
                    code, error = f"SystemExit({exc.code})", stderr.getvalue()
                except Exception:
                    code, error = "exception", traceback.format_exc()
                self.intervals.append((start, time.perf_counter()))
            self.codes.append(code)
            output = query.out.read_bytes() if query.out.exists() else b""
            query.out.unlink(missing_ok=True)
            if query.name not in self.first:
                self.first[query.name] = (code, output, error or stderr.getvalue())
            elif self.first[query.name][:2] != (code, output):
                self.problems.append(f"{query.name}: exit code or output differs between rounds")

    def digest(self) -> str:
        h = hashlib.sha256()
        for query in self.queries:
            output = self.first[query.name][1]
            h.update(f"{query.name}\n{len(output)}\n".encode())
            h.update(output)
        return h.hexdigest()

    def failed(self) -> int:
        return sum(1 for code in self.codes if code not in (0, 2))


def _repeat(seconds: float, body) -> None:
    """Call body() until the next call is predicted to end after `seconds`."""
    start = time.perf_counter()
    n = 0
    while True:
        body()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed * (n + 1) / n > seconds:
            return


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", log=print) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    from exactml import cli

    from perfbench import gate, spans, workloads

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=OUT_DIR))
    try:
        queries = workloads.build(workload, seed, work, scale)
        setup_s = None if trace else measure_setup()
        rounds = Rounds(queries)
        traced_rounds: list[bool] = []
        layer_rounds: list[dict] = []
        tracer = spans.Tracer()

        def plain(query):
            return cli.main(list(query.argv))

        def with_spans(query):
            tracer.query = query.name
            try:
                return tracer.call("cli.main", cli.main, list(query.argv))
            finally:
                tracer.end_query()

        def untraced_round():
            rounds.run(plain)
            traced_rounds.append(False)

        def traced_pair():
            untraced_round()
            first_span = len(tracer.spans)
            tracer.install()
            try:
                rounds.run(with_spans)
            finally:
                tracer.uninstall()
            traced_rounds.append(True)
            layer_rounds.append(spans.layer_metrics(tracer.spans[first_span:]))

        sampler = hostspeed.Sampler()
        started = time.perf_counter()
        sampler.start()
        try:
            _repeat(seconds, traced_pair if trace else untraced_round)
        finally:
            sampler.stop()
        measured = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        check_start = time.perf_counter()
        problems = list(rounds.problems)
        for query in queries:
            code, output, error = rounds.first[query.name]
            found = gate.check(query, code, output)
            if found and error:
                found.append(f"{query.name}: {error.strip().splitlines()[-1]}")
            problems.extend(found)
        check_s = time.perf_counter() - check_start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = [sampler.scaled(start, end) for start, end in rounds.intervals]
    walls: dict = {False: [], True: []}
    for i, is_traced in enumerate(traced_rounds):
        walls[is_traced].append(sum(times[i * len(queries):(i + 1) * len(queries)]))
    n = len(times)
    log(f"workload {workload} seed {seed} scale {scale} trace {int(trace)}: "
        f"{len(walls[False])} untraced and {len(walls[True])} traced rounds, "
        f"{n} queries ({len(queries)} per round) in {measured:.1f} s")
    if trace:
        metrics = spans.median_metrics(layer_rounds)
        metrics["oracle.check_s"] = check_s
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "query_p50_s": percentile(times, 0.5),
            "query_p90_s": percentile(times, 0.9),
            "decided_ratio": rounds.codes.count(0) / n,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    for name, unit in units.items():
        log(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    log(f"  timings rest on {n} query samples; {sum(e - s for s, e in rounds.intervals):.3f} s "
        f"of query time as measured is {sum(times):.3f} s at the host's usual speed")
    log(f"digest sha256:{rounds.digest()}")
    if trace:
        predicted = PREDICTED_DOMINANT[workload]
        share = sum(metrics[f"{layer}.share"] for layer in predicted)
        verdict = "as predicted" if share > 50 else "DISAGREES with the prediction"
        if workload == "emit-net" and metrics["counter.calls"]:
            verdict = "DISAGREES with the prediction (counter.calls > 0)"
        log(f"layers: {'+'.join(predicted)} take {share:.1f}% of traced query time, {verdict}")
    for problem in problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    failed = rounds.failed()
    return {
        "correct": not problems and failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs with the same query mix, for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        import exactml
        from perfbench import workloads
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if Path(exactml.__file__).resolve().parent != ROOT / "src" / "exactml":
        print(f"error: exactml imported from {exactml.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
