"""Run every benchmark workload over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 10 [--sets 2] [--trace 0|1] [--write FILE]

Each run is ``perfbench/run.py`` in a fresh process, with the settings of
BENCHMARK.json. For every metric and workload the summary gives the median
over seeds, the quartiles and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median. With ``--sets 2`` every seed runs twice; the two sets' medians are
compared against each metric's bound, and a seed whose output digests differ
between sets is an error. The exit code is 1 if any run fails its
correctness gate, any digest differs or any bound is exceeded.

``--seeds 1`` runs each workload once and prints every metric by name and
unit; ``--write FILE`` stores the summary of the chosen ``--trace`` mode in
a JSON file, keeping the other mode's (``perfbench/baseline.json`` holds both,
measured at the commit that added the benchmark).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["digest"] = next(l.split()[-1] for l in lines if l.startswith("digest "))
    result["layers"] = next((l for l in lines if l.startswith("layers: ")), None)
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--write", help="store the summary as JSON in this file")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = args.workloads.split(",")

    results: dict = {w: [[] for _ in range(args.sets)] for w in workloads}
    ok = True
    for s in range(args.sets):
        for seed in range(1, args.seeds + 1):
            for workload in workloads:
                result = run_once(workload, seed, spec["run_seconds"], args.trace)
                results[workload][s].append(result)
                ok &= result["correct"]
                print(f"set {s + 1} seed {seed} {workload}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"digest={result['digest'][:16]}", flush=True)

    summary: dict = {}
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<28} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        entry = summary[workload] = {"metrics": {}, "digests": {}, "layers": []}
        for name, m in metrics.items():
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[workload]]
            stats = summarise(sets[0])
            bound = m.get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] > bound:
                flag, ok = " SPREAD>BOUND", False
            if len(sets) == 2:
                second = summarise(sets[1])
                stats["second_median"] = second["median"]
                change = (second["median"] - stats["median"]) / stats["median"] if stats["median"] else 0.0
                worse = change if m["better"] == "lower" else -change
                if bound is not None and worse > bound:
                    flag, ok = flag + " SECOND-MEDIAN-WORSE", False
                flag += f" second={second['median']:.6g} ({change:+.1%})"
            entry["metrics"][name] = dict(stats, unit=m["unit"])
            print(f"  {name:<28} {m['unit']:<6} {stats['median']:>12.6g} {stats['q1']:>12.6g} "
                  f"{stats['q3']:>12.6g} {stats['spread']:>7.3f} {bound if bound is not None else '-':>6}{flag}")
        for i in range(args.seeds):
            digests = {runs[i]["digest"] for runs in results[workload]}
            entry["digests"][str(i + 1)] = sorted(digests)[0]
            if len(digests) > 1:
                print(f"  seed {i + 1}: output digests differ between sets", file=sys.stderr)
                ok = False
        entry["layers"] = [r["layers"] for r in results[workload][0] if r["layers"]]
        for line in entry["layers"][:1]:
            print(f"  {line}")

    if args.write:
        path = Path(args.write)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["host"] = f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}"
        doc["run_seconds"] = spec["run_seconds"]
        doc["per_layer" if args.trace else "end_to_end"] = {"seeds": args.seeds, "workloads": summary}
        path.write_text(json.dumps(doc, indent=1) + "\n")
    print("\nall runs correct, digests stable, spreads within bounds" if ok else "\nFAILED", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
