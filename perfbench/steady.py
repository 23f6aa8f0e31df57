"""Run the benchmark once per seed and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload suite-long --seeds 0 1 2 3 4 [--out FILE]

Runs ``perfbench/run.py`` one seed at a time with the settings in
``BENCHMARK.json`` and prints, for every metric, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.
``--out`` writes the same figures, with every run's value, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle if middle else float("inf"),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric.get("bound") for metric in config["end_to_end"]}

    runs = []
    for seed in args.seeds:
        command = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            print(f"seed {seed}: exit code {completed.returncode}", file=sys.stderr)
            return 1
        runs.append(json.loads(completed.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: done", file=sys.stderr)

    report = {}
    for name in runs[0]["metrics"]:
        report[name] = summarize([run["metrics"][name]["value"] for run in runs])
        figures = report[name]
        bound = bounds.get(name)
        print(
            f"{name:<22} median {figures['median']:<14.6g} q1 {figures['q1']:<14.6g}"
            f" q3 {figures['q3']:<14.6g} spread {figures['spread']:.4f}"
            + (f"  (bound {bound}, third {bound / 3:.4f})" if bound else "")
        )
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "metrics": report}, indent=1
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
