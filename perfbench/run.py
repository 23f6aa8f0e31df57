"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite-small --seed 0 --seconds 30 --trace 0

Passes over the workload repeat while another one is expected to end
within ``--seconds`` (at least one pass). With ``--trace 0`` no pass is
traced and the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
printed, plus a layer table on stderr and the spans of each traced pass
under ``perfbench/out/``. Every item's outputs are checked against its
reference after each pass, outside the timed region. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output was correct and
every count repeated exactly from pass to pass.
"""

from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import LAYER_NAMES, LayerTracer  # noqa: E402
from reference import load_reference  # noqa: E402
from workloads import WORKLOADS, check_pass, run_pass, setup  # noqa: E402

_IMPORT_S = perf_counter() - _PROCESS_START

#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5

#: Per-layer counts that must repeat exactly from one traced pass to the next.
COUNTS = (
    "frontend.calls", "il.instructions", "opt.calls", "opt.il_removed",
    "profiler.runs", "vm.executions", "vm.il", "inliner.arcs", "inliner.expansions",
)


def time_metric(layer: str) -> str:
    if layer == "driver":
        return "driver.self_s"
    return f"{layer}_s" if "." in layer else f"{layer}.s"


def layer_metrics(tracer: LayerTracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    metrics = {time_metric(layer): tracer.self_s.get(layer, 0.0) for layer in LAYER_NAMES}
    metrics.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    execute_s = metrics["vm.execute_s"]
    metrics["vm.il_per_s"] = metrics["vm.il"] / execute_s if execute_s else 0.0
    arcs = metrics["inliner.arcs"]
    metrics["inliner.accept_ratio"] = metrics["inliner.expansions"] / arcs if arcs else 0.0
    covered = sum(tracer.self_s.values()) - tracer.self_s.get("driver", 0.0)
    metrics["trace.coverage"] = covered / wall_s
    return metrics


def print_layer_table(workload: str, metrics: dict[str, float], wall_s: float) -> None:
    print(f"\n{workload}: traced pass {wall_s:.3f} s", file=sys.stderr)
    print(f"{'layer':<22}{'self s':>10}{'share':>8}", file=sys.stderr)
    for layer in LAYER_NAMES:
        seconds = metrics[time_metric(layer)]
        print(f"{layer:<22}{seconds:>10.3f}{seconds / wall_s:>8.1%}", file=sys.stderr)
    for name in COUNTS + ("vm.il_per_s", "inliner.accept_ratio", "trace.coverage", "trace.overhead"):
        print(f"{name:<22}{metrics[name]:>18.4f}", file=sys.stderr)


def percentile(values: list[float], share: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setups = []
    for _ in range(SETUP_REPEATS):
        began = perf_counter()
        items = setup(args.workload, args.seed, load_reference())
        setups.append(perf_counter() - began)
    setup_s = _IMPORT_S + statistics.median(setups)

    passes, traced = [], []
    started = perf_counter()
    while not passes or (args.trace and not traced) or (
        perf_counter() - started + statistics.median(r.wall_s for r in passes) <= args.seconds
    ):
        if args.trace and len(passes) > len(traced):
            with LayerTracer() as tracer:
                result = run_pass(items, tracer)
            traced.append((result, layer_metrics(tracer, result.wall_s)))
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            tracer.dump(out / f"spans-{args.workload}-seed{args.seed}-{len(traced)}.jsonl")
        else:
            result = run_pass(items)
            passes.append(result)
        check_pass(items, result)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    every = passes + [result for result, _ in traced]
    attempted = sum(result.attempted for result in every)
    failures = [(name, why) for result in every for name, why in result.failures.items()]
    for name, why in failures:
        print(f"FAILED {name}: {why}", file=sys.stderr)
    checks: dict[str, int] = {}
    for result in every:
        for kind, count in result.checks.items():
            checks[kind] = checks.get(kind, 0) + count
    print(
        f"{args.workload} seed {args.seed}: {len(every)} passes, {attempted} items,"
        f" failed_frac {len(failures) / attempted:.4f}; checked against "
        + ", ".join(f"{kind} ({count})" for kind, count in sorted(checks.items())),
        file=sys.stderr,
    )
    print("pass wall s: " + " ".join(f"{result.wall_s:.3f}" for result in every), file=sys.stderr)

    repeats = True
    quality = [result.quality() for result in every if not result.failures]
    if any(q != quality[0] for q in quality):
        print("quality metrics differ between passes", file=sys.stderr)
        repeats = False

    if args.trace:
        wall = statistics.median(result.wall_s for result, _ in traced)
        layer_runs = [metrics for _, metrics in traced]
        if any(m[name] != layer_runs[0][name] for m in layer_runs for name in COUNTS):
            print("layer counts differ between traced passes", file=sys.stderr)
            repeats = False
        metrics = {name: statistics.median(m[name] for m in layer_runs) for name in layer_runs[0]}
        metrics["trace.overhead"] = wall / statistics.median(result.wall_s for result in passes)
        print_layer_table(args.workload, metrics, wall)
    else:
        # Each item's median over the passes. The item percentiles go to
        # stderr only: over 12 suite programs they are order statistics
        # of one or two programs, too unsteady between runs to gate on.
        item_s = [
            statistics.median(result.item_s[name] for result in passes if name in result.item_s)
            for name in {name for result in passes for name in result.item_s}
        ]
        print(
            f"item_s.p50 {statistics.median(item_s):.4f} s,"
            f" item_s.p95 {percentile(item_s, 0.95):.4f} s over {len(item_s)} items",
            file=sys.stderr,
        )
        metrics = {
            "wall_s": statistics.median(result.wall_s for result in passes),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            **(quality[0] if quality else {}),
        }

    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    correct = not failures and repeats
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
