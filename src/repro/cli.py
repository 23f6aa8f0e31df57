"""The ``impact-inline`` command-line tool.

Subcommands::

    impact-inline run FILE.c [--stdin TEXT] [--arg A ...]
        Compile a C-subset file and execute it in the VM.
    impact-inline inline FILE.c [--stdin TEXT] [--arg A ...] [--dump]
        Profile the program on the given input, inline, re-run, and
        report the call decrease / code increase.
    impact-inline tables [table1|...|all|ablations|extensions]
                         [--scale small|full] [--benchmarks ...]
                         [--jobs N] [--cache-dir [DIR]]
        Regenerate the paper's tables, the ablations, or the extension
        experiments (``python -m repro.experiments`` is the same command).
    impact-inline bench [--benchmarks ...] [--config NAME] [-o FILE]
        Run the suite under full telemetry and write a schema-versioned
        BENCH_<config>.json record (counts, phase times, cache rates).
    impact-inline report BASELINE [CURRENT] [--format table|markdown]
        Compare two bench records; non-zero exit on exact-metric
        regressions (wall time gated only with --fail-on-time).
    impact-inline check [--benchmarks ...] [--fuzz N] [--seed S] [--engines]
        Differential-correctness harness: run original and inlined
        modules of each benchmark in lockstep and (optionally) fuzz
        random programs through the full pipeline. Exit 1 on any
        divergence or broken invariant. With ``--engines``, instead
        diff the counting interpreter against the fast tier on every
        benchmark (exit code, stdout, written files, and the full
        counter dictionaries must be identical).

``run``, ``inline``, and ``tables`` accept ``--check`` (re-verify IL
well-formedness: for ``run`` before executing, for ``inline`` and
``tables`` after each of the six §3 inline phases), ``--trace FILE``
(structured JSONL trace: phase spans, events, inline-decision audit
records),
``--metrics-out FILE`` (JSON snapshot of pipeline counters/gauges/
histograms), and ``--summary`` (metrics summary table on stderr); see
README "Observability". ``tables`` additionally takes ``--jobs N``
(suite execution on N worker processes) and ``--cache-dir [DIR]``
(content-addressed compile/profile cache); see README "Pipeline
architecture". ``bench``/``report`` are the performance-tracking loop;
see README "Performance tracking". ``run``, ``inline``, ``tables``,
``bench``, and ``check`` accept ``--engine counting|fast`` to pick the
VM execution engine; both engines produce identical outputs and
counters (README "Execution engines").
"""

from __future__ import annotations

import argparse
import sys

from repro.compiler import compile_program
from repro.experiments.pipeline import run_pipeline
from repro.il.printer import format_module
from repro.inliner.manager import inline_module
from repro.inliner.params import InlineParameters
from repro.observability import Observability
from repro.pipeline.parallel import jobs_argument
from repro.profiler.profile import RunSpec, profile_module, run_once


def _run_spec(args: argparse.Namespace) -> RunSpec:
    return RunSpec(
        stdin=(args.stdin or "").encode(),
        argv=list(args.arg or []),
    )


def _make_obs(args: argparse.Namespace) -> Observability | None:
    """A live observability context when an obs flag asks for one."""
    if (
        getattr(args, "trace", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "summary", False)
    ):
        return Observability.create()
    return None


def _export_obs(args: argparse.Namespace, obs: Observability | None) -> None:
    if obs is None:
        return
    from repro.observability.export import (
        render_metrics_summary,
        write_metrics,
        write_trace,
    )

    if args.trace:
        write_trace(obs.tracer, args.trace)
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    if args.metrics_out:
        write_metrics(obs.metrics, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)
    if getattr(args, "summary", False):
        print(render_metrics_summary(obs.metrics), file=sys.stderr)


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        default="counting",
        choices=["counting", "fast"],
        help="VM execution engine: 'counting' is the reference"
        " interpreter; 'fast' compiles each function to Python closures"
        " and produces the exact same counters several times faster"
        " (see README 'Execution engines')",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL trace (spans, events, inline decisions)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a JSON metrics snapshot",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print the metrics text summary to stderr",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    obs = _make_obs(args)
    module = compile_program(source, args.file, obs=obs)
    if args.check:
        from repro.il.verifier import verify_module

        verify_module(module)
    result = run_once(module, _run_spec(args), obs=obs, engine=args.engine)
    sys.stdout.write(result.stdout)
    counters = result.counters
    print(
        f"\n[exit {result.exit_code}; {counters.il} ILs,"
        f" {counters.ct} CTs, {counters.calls} calls]",
        file=sys.stderr,
    )
    _export_obs(args, obs)
    return result.exit_code


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiler.serialize import dump_profile

    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    module = compile_program(source, args.file)
    profile = profile_module(module, [_run_spec(args)], check_exit=False)
    text = dump_profile(profile, module)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote profile to {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_inline(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    obs = _make_obs(args)
    module = compile_program(source, args.file, obs=obs)
    spec = _run_spec(args)
    profile = None
    if args.profile_file:
        from repro.profiler.serialize import load_profile

        with open(args.profile_file, encoding="utf-8") as handle:
            profile = load_profile(handle.read(), module)
    params = InlineParameters(
        weight_threshold=args.threshold,
        size_limit_factor=args.growth,
    )
    run = run_pipeline(
        module,
        [spec],
        params,
        profile=profile,
        check_exit=False,
        check=args.check,
        obs=obs,
        engine=args.engine,
    )
    result, after = run.inline, run.post_profile
    if obs is not None and obs.tracer.enabled:
        for decision in result.decisions:
            obs.tracer.record(decision.to_record())
    print(f"expanded call sites : {len(result.records)}")
    print(f"code increase       : {100 * run.code_increase:.1f}%")
    print(f"call decrease       : {100 * run.call_decrease:.1f}%")
    print(f"ILs per call after  : {after.avg_il / after.avg_calls if after.avg_calls else float('inf'):.0f}")
    if args.dump:
        print(format_module(result.module))
    _export_obs(args, obs)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.callgraph.build import build_call_graph
    from repro.callgraph.dot import to_dot

    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    module = compile_program(source, args.file)
    if args.dot:
        # Run a full profile + selection so every arc carries the
        # selector's reason code, then color the DOT output by it.
        profile = profile_module(module, [_run_spec(args)], check_exit=False)
        result = inline_module(
            module,
            profile,
            InlineParameters(
                weight_threshold=args.threshold,
                size_limit_factor=args.growth,
            ),
        )
        reasons = {
            decision.site: decision.reason.value
            for decision in result.decisions
        }
        print(
            to_dot(
                result.graph,
                include_synthetic=args.synthetic,
                min_weight=args.min_weight,
                decisions=reasons,
            )
        )
        return 0
    profile = None
    if args.profile:
        profile = profile_module(module, [_run_spec(args)], check_exit=False)
    graph = build_call_graph(module, profile, refine_pointers=args.refine)
    print(to_dot(graph, include_synthetic=args.synthetic, min_weight=args.min_weight))
    return 0


def _run_ablations(args: argparse.Namespace) -> None:
    from repro.experiments.ablations import (
        baseline_comparison,
        growth_limit_sweep,
        linearization_comparison,
        render_points,
        threshold_sweep,
    )

    sweeps = (
        ("Ablation A: weight threshold T.", threshold_sweep),
        ("Ablation B: profile-guided vs. static heuristics.", baseline_comparison),
        ("Ablation C: code-growth limit.", growth_limit_sweep),
        ("Ablation D: linearization order.", linearization_comparison),
    )
    for index, (title, sweep) in enumerate(sweeps):
        if index:
            print()
        print(
            render_points(
                title, sweep(args.scale, jobs=args.jobs, engine=args.engine)
            )
        )


def _run_extensions(scale: str) -> None:
    """The extension experiments: icache, placement, regalloc, LICM."""
    from repro.icache import icache_experiment
    from repro.layout import placement_experiment
    from repro.regalloc import pressure_experiment
    from repro.workloads import benchmark_by_name

    benchmark = benchmark_by_name("compress")
    module = benchmark.compile()
    specs = benchmark.make_runs(scale)[:2]

    print("I-cache miss ratios before/after inlining (compress, scattered):")
    for point in icache_experiment(module, specs):
        print(
            f"  {point.size_bytes:5d}B {point.associativity}-way:"
            f" {point.miss_before:.4f} -> {point.miss_after:.4f}"
            f" ({point.improvement:+.0%})"
        )
    print()
    print("Placement vs. inlining (compress):")
    for p in placement_experiment(module, specs):
        print(
            f"  {p.size_bytes:5d}B {p.associativity}-way: scattered"
            f" {p.miss_scattered:.4f}, placed {p.miss_placed:.4f}"
            f" ({p.placement_improvement:+.0%}), inlined"
            f" {p.miss_inlined_scattered:.4f} ({p.inlining_improvement:+.0%})"
        )
    print()
    print("Register memory traffic before/after inlining (compress):")
    for k, before, after in pressure_experiment(module, specs, ks=(4, 8, 16)):
        print(
            f"  K={k:2d}: save/restore {before.save_restore_events:.0f} ->"
            f" {after.save_restore_events:.0f}; spills"
            f" {before.spill_events:.0f} -> {after.spill_events:.0f}"
        )


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.pipeline import run_suite
    from repro.experiments.tables import TABLES

    if args.what == "extensions":
        _run_extensions(args.scale)
        return 0
    if args.what == "ablations":
        _run_ablations(args)
        return 0
    session = None
    if args.cache_dir:
        from repro.pipeline.session import CompilationSession

        session = CompilationSession(cache_dir=args.cache_dir)
    obs = _make_obs(args)
    results = run_suite(
        args.scale,
        names=args.benchmarks,
        progress=True,
        obs=obs,
        jobs=args.jobs,
        session=session,
        check=args.check,
        engine=args.engine,
    )
    print(TABLES[args.what](results))
    _export_obs(args, obs)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.observability import BenchRecorder, Observability

    recorder = BenchRecorder(
        config_name=args.config,
        scale=args.scale,
        names=args.benchmarks,
        jobs=args.jobs,
        params=InlineParameters(
            weight_threshold=args.threshold,
            size_limit_factor=args.growth,
        ),
        cache_dir=args.cache_dir,
        engine=args.engine,
    )
    obs = Observability.create()
    record = recorder.run(obs=obs)
    path = record.write(args.output)
    if args.trace:
        from repro.observability.export import write_trace

        write_trace(obs.tracer, args.trace)
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    total_il = sum(
        data["counters"]["il"] for data in record.benchmarks.values()
    )
    print(
        f"wrote {path}: {len(record.benchmarks)} benchmarks,"
        f" {total_il} dynamic ILs, {record.wall_seconds:.2f}s wall,"
        f" git {record.git_sha[:12]}",
        file=sys.stderr,
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.verify import run_fuzz, verify_suite

    obs = _make_obs(args)
    params = InlineParameters(
        weight_threshold=args.threshold,
        size_limit_factor=args.growth,
    )
    failed = False
    if args.engines:
        # Engine-equivalence mode: run every benchmark under both the
        # counting interpreter and the fast tier, diffing exit code,
        # stdout, written files, and the full counter dictionaries.
        from repro.verify import diff_engines_suite, replay_fuzz_corpus

        reports = diff_engines_suite(
            names=args.benchmarks, scale=args.scale, obs=obs
        )
        for report in reports:
            print(report.summary())
            failed = failed or not report.ok
        if args.fuzz:
            replays = replay_fuzz_corpus(args.fuzz, seed=args.seed, obs=obs)
            bad = [report for report in replays if not report.ok]
            status = "ok" if not bad else "FAIL"
            print(
                f"fuzz replay: {status} ({len(replays)} programs from"
                f" seed {args.seed}, {len(bad)} divergent)"
            )
            for report in bad:
                print("  " + report.summary().replace("\n", "\n  "))
            failed = failed or bool(bad)
        _export_obs(args, obs)
        return 1 if failed else 0
    reports = verify_suite(
        names=args.benchmarks,
        scale=args.scale,
        params=params,
        obs=obs,
        engine=args.engine,
    )
    for report in reports:
        print(report.summary())
        failed = failed or not report.ok
    if args.fuzz:
        fuzz = run_fuzz(args.fuzz, seed=args.seed, obs=obs, engine=args.engine)
        status = "ok" if fuzz.ok else "FAIL"
        print(
            f"fuzz: {status} ({fuzz.count} programs from seed {fuzz.seed},"
            f" {fuzz.expansions} expansions,"
            f" {len(fuzz.failures)} failures)"
        )
        for failure in fuzz.failures:
            print(
                f"  - program {failure.index} (seed {failure.seed})"
                f" at stage {failure.stage}: {failure.detail}"
            )
            print("    " + failure.source.replace("\n", "\n    "))
        failed = failed or not fuzz.ok
    _export_obs(args, obs)
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.observability.bench import compare, load_record
    from repro.observability.report import (
        load_trace,
        render_comparison_table,
        render_flamegraph,
        render_markdown_report,
    )

    baseline = load_record(args.baseline)
    current = load_record(args.current) if args.current else baseline
    comparison = compare(
        baseline,
        current,
        epsilon=args.epsilon,
        time_tolerance=args.time_tolerance,
    )
    flame = None
    if args.flame:
        flame = render_flamegraph(load_trace(args.flame))
    if args.format == "markdown":
        text = render_markdown_report(comparison, flame=flame)
    else:
        text = render_comparison_table(comparison, show_ok=args.show_ok)
        if flame:
            text += "\n\nflamegraph:\n" + flame
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote report to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if not comparison.ok(fail_on_time=args.fail_on_time):
        for delta in comparison.regressions + (
            comparison.time_regressions if args.fail_on_time else []
        ):
            print(f"REGRESSION: {delta.describe()}", file=sys.stderr)
        for name in comparison.missing_benchmarks:
            print(f"REGRESSION: benchmark {name} missing", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="impact-inline",
        description="Profile-guided inline function expansion for C programs"
        " (Hwu & Chang, PLDI 1989 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="compile and execute a C-subset file")
    run_parser.add_argument("file")
    run_parser.add_argument("--stdin", default="")
    run_parser.add_argument("--arg", action="append")
    run_parser.add_argument(
        "--check",
        action="store_true",
        help="re-verify IL well-formedness before executing",
    )
    _add_engine_flag(run_parser)
    _add_obs_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    inline_parser = sub.add_parser(
        "inline", help="profile, inline, and report the improvement"
    )
    inline_parser.add_argument("file")
    inline_parser.add_argument("--stdin", default="")
    inline_parser.add_argument("--arg", action="append")
    inline_parser.add_argument(
        "--profile-file", default=None,
        help="use a saved profile instead of profiling on the spot",
    )
    inline_parser.add_argument("--threshold", type=float, default=10.0)
    inline_parser.add_argument("--growth", type=float, default=1.25)
    inline_parser.add_argument("--dump", action="store_true")
    inline_parser.add_argument(
        "--check",
        action="store_true",
        help="re-verify IL well-formedness after every inline phase",
    )
    _add_engine_flag(inline_parser)
    _add_obs_flags(inline_parser)
    inline_parser.set_defaults(func=_cmd_inline)

    profile_parser = sub.add_parser(
        "profile", help="profile a program and emit the profile file"
    )
    profile_parser.add_argument("file")
    profile_parser.add_argument("--stdin", default="")
    profile_parser.add_argument("--arg", action="append")
    profile_parser.add_argument("-o", "--output", default=None)
    profile_parser.set_defaults(func=_cmd_profile)

    graph_parser = sub.add_parser(
        "graph", help="dump the weighted call graph as Graphviz DOT"
    )
    graph_parser.add_argument("file")
    graph_parser.add_argument("--stdin", default="")
    graph_parser.add_argument("--arg", action="append")
    graph_parser.add_argument(
        "--profile", action="store_true", help="weight nodes/arcs by a profiling run"
    )
    graph_parser.add_argument(
        "--synthetic", action="store_true", help="include worst-case $$$/### arcs"
    )
    graph_parser.add_argument(
        "--refine", action="store_true", help="narrow ### targets by pointer analysis"
    )
    graph_parser.add_argument("--min-weight", type=float, default=0.0)
    graph_parser.add_argument(
        "--dot",
        action="store_true",
        help="profile + run the selector, coloring arcs by their"
        " inline-audit reason code (ACCEPTED green, BELOW_THRESHOLD"
        " gray, hazard rejections red)",
    )
    graph_parser.add_argument("--threshold", type=float, default=10.0)
    graph_parser.add_argument("--growth", type=float, default=1.25)
    graph_parser.set_defaults(func=_cmd_graph)

    tables_parser = sub.add_parser("tables", help="regenerate the paper's tables")
    tables_parser.add_argument(
        "what",
        nargs="?",
        default="all",
        choices=[
            "table1",
            "table2",
            "table3",
            "table4",
            "breakdown",
            "all",
            "ablations",
            "extensions",
        ],
        help="which table or experiment to regenerate (default: all)",
    )
    tables_parser.add_argument(
        "--scale",
        default="small",
        choices=["small", "full"],
        help="input scale: 'small' is quick, 'full' mirrors Table 1's run counts",
    )
    tables_parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="restrict to named benchmarks (table modes)",
    )
    tables_parser.add_argument(
        "--jobs",
        type=jobs_argument,
        default=1,
        metavar="N",
        help="run benchmarks on N worker processes (output stays"
        " byte-identical; must be >= 1, 1 = serial)",
    )
    tables_parser.add_argument(
        "--cache-dir",
        nargs="?",
        const=".repro-cache",
        default=None,
        metavar="DIR",
        help="serve repeat compiles/profiles from an on-disk cache"
        " (default DIR: .repro-cache)",
    )
    tables_parser.add_argument(
        "--check",
        action="store_true",
        help="re-verify IL well-formedness after every inline phase",
    )
    _add_engine_flag(tables_parser)
    _add_obs_flags(tables_parser)
    tables_parser.set_defaults(func=_cmd_tables)

    bench_parser = sub.add_parser(
        "bench",
        help="run the suite under telemetry and write a BENCH_<config>.json",
    )
    bench_parser.add_argument(
        "--config",
        default="suite",
        metavar="NAME",
        help="record name: the default output file is BENCH_<NAME>.json",
    )
    bench_parser.add_argument("--scale", default="small", choices=["small", "full"])
    bench_parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="restrict to named benchmarks",
    )
    bench_parser.add_argument(
        "--jobs",
        type=jobs_argument,
        default=1,
        metavar="N",
        help="worker process count (>= 1, 1 = serial)",
    )
    bench_parser.add_argument(
        "--cache-dir",
        nargs="?",
        const=".repro-cache",
        default=None,
        metavar="DIR",
    )
    bench_parser.add_argument("--threshold", type=float, default=10.0)
    bench_parser.add_argument("--growth", type=float, default=1.25)
    bench_parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="record path (default: BENCH_<config>.json in the cwd)",
    )
    bench_parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="also write the run's JSONL trace (for report --flame)",
    )
    _add_engine_flag(bench_parser)
    bench_parser.set_defaults(func=_cmd_bench)

    check_parser = sub.add_parser(
        "check",
        help="differential-correctness harness (oracle + optional fuzzing)",
    )
    check_parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="restrict the differential oracle to named benchmarks",
    )
    check_parser.add_argument("--scale", default="small", choices=["small", "full"])
    check_parser.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="also fuzz N random programs through the full pipeline",
    )
    check_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="base seed for the fuzz program generator",
    )
    check_parser.add_argument("--threshold", type=float, default=10.0)
    check_parser.add_argument("--growth", type=float, default=1.25)
    check_parser.add_argument(
        "--engines",
        action="store_true",
        help="engine-equivalence mode: run each benchmark under both"
        " the counting interpreter and the fast tier and diff exit"
        " code, stdout, written files, and every counter channel"
        " (--fuzz N replays the fuzz corpus under both engines too)",
    )
    _add_engine_flag(check_parser)
    _add_obs_flags(check_parser)
    check_parser.set_defaults(func=_cmd_check)

    report_parser = sub.add_parser(
        "report",
        help="compare bench records; exit non-zero on exact regressions",
    )
    report_parser.add_argument("baseline", help="baseline BENCH_*.json")
    report_parser.add_argument(
        "current",
        nargs="?",
        default=None,
        help="current BENCH_*.json (default: the baseline itself)",
    )
    report_parser.add_argument(
        "--epsilon",
        type=float,
        default=0.0,
        help="relative slack for exact metrics (default 0)",
    )
    report_parser.add_argument(
        "--time-tolerance",
        type=float,
        default=0.25,
        help="relative slack for wall-clock metrics (default 0.25)",
    )
    report_parser.add_argument(
        "--fail-on-time",
        action="store_true",
        help="let wall-time regressions fail the comparison too",
    )
    report_parser.add_argument(
        "--format",
        default="table",
        choices=["table", "markdown"],
    )
    report_parser.add_argument(
        "--show-ok",
        action="store_true",
        help="include unchanged metrics in the table output",
    )
    report_parser.add_argument(
        "--flame",
        default=None,
        metavar="TRACE",
        help="render a text flamegraph from a JSONL trace file",
    )
    report_parser.add_argument("-o", "--output", default=None, metavar="FILE")
    report_parser.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
