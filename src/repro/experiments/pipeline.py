"""The per-benchmark experiment pipeline.

For each benchmark: compile, pre-optimize (constant folding and jump
optimization, which the paper applies *before* inline expansion — §4.4),
profile over the input set, classify call sites, inline, re-profile the
inlined program over the same inputs, and check output equivalence
between the original and inlined binaries on every input.

The output check runs nothing of its own. Each profiling run keeps a
digest of its exit code, stdout and written files
(:attr:`~repro.profiler.profile.ProfileData.outputs`), so the check is a
diff of the two profiles' digests (:func:`diff_outputs`). Only an input
whose digests differ is run again, through :func:`compare_outputs`, to
say what differed. Every input thus runs once per module. The
differential oracle (:func:`repro.verify.differential.verify_inlining`)
is separate: it still runs both modules itself, in lockstep, as an
independent check.

Every stage is instrumented: pass an
:class:`~repro.observability.Observability` as ``obs`` to collect a
structured trace (phase spans, inline-decision audit records) and a
metrics snapshot. The default (``obs=None``) is a true no-op and leaves
all outputs byte-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
from dataclasses import dataclass, field

from repro.inliner.classify import ClassifiedSites, SiteClass, classify_sites
from repro.inliner.manager import InlineExpander, InlineResult
from repro.inliner.params import InlineParameters
from repro.observability import Observability, enable_console_logging, resolve
from repro.opt import optimize_module
from repro.pipeline.parallel import parallel_map, validate_jobs
from repro.pipeline.session import CompilationSession
from repro.profiler.profile import ProfileData, RunSpec, profile_module, run_once
from repro.callgraph.build import build_call_graph
from repro.workloads.suite import (
    Benchmark,
    benchmark_by_name,
    benchmark_names,
    benchmark_suite,
)

_LOG = logging.getLogger("repro.experiments")


@dataclass
class BenchmarkResult:
    """Everything the four tables need for one benchmark."""

    name: str
    c_lines: int
    runs: int
    input_description: str
    profile: ProfileData
    classified: ClassifiedSites
    inline: InlineResult
    post_profile: ProfileData
    post_classified: ClassifiedSites
    outputs_match: bool
    params: InlineParameters = field(default_factory=InlineParameters)
    #: Human-readable description of every input whose outputs diverged
    #: between the original and inlined binaries (empty when they match).
    output_divergences: list[str] = field(default_factory=list)
    #: VM executions this benchmark's pipeline made (profiling runs not
    #: served from a cache, plus re-runs of diverging inputs); ``None``
    #: when metrics were off.
    vm_runs: int | None = None

    # ------------------------------------------------------------------
    # Table 1 quantities

    @property
    def avg_il_thousands(self) -> float:
        return self.profile.avg_il / 1000.0

    @property
    def avg_ct_thousands(self) -> float:
        return self.profile.avg_ct / 1000.0

    # ------------------------------------------------------------------
    # Table 4 quantities

    @property
    def code_increase(self) -> float:
        return self.inline.code_increase

    @property
    def call_decrease(self) -> float:
        before = self.profile.avg_calls
        after = self.post_profile.avg_calls
        if before <= 0:
            return 0.0
        return max(0.0, 1.0 - after / before)

    @property
    def ils_per_call(self) -> float:
        calls = self.post_profile.avg_calls
        return self.post_profile.avg_il / calls if calls else float("inf")

    @property
    def cts_per_call(self) -> float:
        calls = self.post_profile.avg_calls
        return self.post_profile.avg_ct / calls if calls else float("inf")


@dataclass
class OutputComparison:
    """Outcome of comparing two modules' outputs over an input set."""

    matches: bool
    #: One entry per diverging input: which spec, and what differed
    #: (exit code vs. stdout vs. written files).
    divergences: list[str] = field(default_factory=list)
    #: Inputs :func:`diff_outputs` had to run again (on each module).
    rechecked: int = 0


def run_benchmark(
    benchmark: Benchmark,
    scale: str = "small",
    params: InlineParameters | None = None,
    pre_optimize: bool = True,
    check_outputs: bool = True,
    obs: Observability | None = None,
    session: CompilationSession | None = None,
    pass_spec: str | None = None,
    check: bool = False,
    engine: str = "counting",
) -> BenchmarkResult:
    """Run the full experiment pipeline for one benchmark.

    With a :class:`~repro.pipeline.session.CompilationSession`, the
    compile (including pre-optimization) and both profiling stages are
    served content-addressed from its cache when possible; without one
    every stage runs from scratch, exactly as before. ``pass_spec``
    selects a custom pre-optimization pipeline (default: the full
    five-pass set). ``check`` re-verifies IL well-formedness after
    every inline phase (the ``--check`` mode).

    With ``check_outputs`` the original and inlined programs must agree
    on exit code, stdout and written files for every input. The check
    diffs the output digests both profiling passes recorded, so each
    input runs once per module; :func:`compare_outputs` re-runs only
    the inputs whose digests differ, to describe the divergence (or
    every input, when a profile carries no digests).
    """
    params = params or InlineParameters()
    obs = resolve(obs)
    tracer = obs.tracer
    runs_before = obs.metrics.counters.get("vm.runs", 0)
    with tracer.span("benchmark", name=benchmark.name, scale=scale) as attrs:
        if session is not None:
            with tracer.span("benchmark.compile", name=benchmark.name):
                module = session.compile_benchmark(
                    benchmark,
                    pre_optimize=pre_optimize,
                    pass_spec=pass_spec,
                    obs=obs,
                )
        else:
            with tracer.span("benchmark.compile", name=benchmark.name):
                module = benchmark.compile(obs=obs)
            if pre_optimize:
                with tracer.span("benchmark.pre_optimize", name=benchmark.name):
                    optimize_module(module, obs=obs, pass_spec=pass_spec)
        specs = benchmark.make_runs(scale)
        with tracer.span("benchmark.profile", name=benchmark.name):
            if session is not None:
                profile = session.profile(
                    module, specs, scale=scale, params=params, obs=obs,
                    engine=engine,
                )
            else:
                profile = profile_module(module, specs, obs=obs, engine=engine)

        with tracer.span("benchmark.inline", name=benchmark.name):
            expander = InlineExpander(
                module, profile, params, check=check, obs=obs
            )
            inline_result = expander.run()
        if tracer.enabled:
            for decision in inline_result.decisions:
                record = decision.to_record()
                record["benchmark"] = benchmark.name
                tracer.record(record)
        with tracer.span("benchmark.post_profile", name=benchmark.name):
            if session is not None:
                post_profile = session.profile(
                    inline_result.module, specs, scale=scale, params=params,
                    obs=obs, engine=engine,
                )
            else:
                post_profile = profile_module(
                    inline_result.module, specs, obs=obs, engine=engine
                )

        comparison = OutputComparison(matches=True)
        if check_outputs:
            with tracer.span("benchmark.check_outputs", name=benchmark.name):
                comparison = diff_outputs(
                    module, inline_result.module, specs, profile,
                    post_profile, engine=engine,
                )
            for divergence in comparison.divergences:
                tracer.event(
                    "output_divergence", benchmark=benchmark.name, detail=divergence
                )
                _LOG.warning("[%s] output divergence: %s", benchmark.name, divergence)

        with tracer.span("benchmark.post_classify", name=benchmark.name):
            post_graph = build_call_graph(inline_result.module, post_profile, obs=obs)
            post_classified = classify_sites(
                inline_result.module, post_graph, post_profile, params
            )
        attrs["outputs_match"] = comparison.matches
        attrs["expansions"] = len(inline_result.records)
    vm_runs = None
    if obs.metrics.enabled:
        obs.metrics.inc("pipeline.benchmarks")
        if not comparison.matches:
            obs.metrics.inc("pipeline.output_divergences", len(comparison.divergences))
        # compare_outputs runs both modules without metrics, so its
        # re-runs are added by hand.
        vm_runs = (
            obs.metrics.counters.get("vm.runs", 0)
            - runs_before
            + 2 * comparison.rechecked
        )
    return BenchmarkResult(
        name=benchmark.name,
        c_lines=benchmark.c_lines,
        runs=len(specs),
        input_description=benchmark.input_description,
        profile=profile,
        classified=inline_result.classified,
        inline=inline_result,
        post_profile=post_profile,
        post_classified=post_classified,
        outputs_match=comparison.matches,
        params=params,
        output_divergences=comparison.divergences,
        vm_runs=vm_runs,
    )


def diff_outputs(
    module_a,
    module_b,
    specs: list[RunSpec],
    profile_a: ProfileData,
    profile_b: ProfileData,
    engine: str = "counting",
) -> OutputComparison:
    """Compare two modules' outputs by their profiles' digests.

    ``profile_a`` and ``profile_b`` must be the profiles of
    ``module_a`` and ``module_b`` over ``specs``. Only inputs whose
    digests differ run again, through :func:`compare_outputs`, so the
    result equals ``compare_outputs(module_a, module_b, specs)`` without
    executing matching inputs. Every input runs again when either
    profile has no digests for ``specs``. A re-run input keeps its
    position in ``specs`` as its label ("input 7", not "input 0").
    """
    digests = (profile_a.outputs, profile_b.outputs)
    if any(d is None or len(d) != len(specs) for d in digests):
        indices = range(len(specs))
    else:
        indices = [
            index for index, (a, b) in enumerate(zip(*digests)) if a != b
        ]
    if not indices:
        return OutputComparison(matches=True)
    suspects = [
        dataclasses.replace(
            specs[index], label=specs[index].label or f"input {index}"
        )
        for index in indices
    ]
    comparison = compare_outputs(module_a, module_b, suspects, engine=engine)
    comparison.rechecked = len(suspects)
    return comparison


def compare_outputs(
    module_a, module_b, specs: list[RunSpec], engine: str = "counting"
) -> OutputComparison:
    """Run both modules over every spec and describe any divergence.

    Each divergence names the input (label or index) and the channels
    that differed: exit code, stdout (with the first differing byte
    offset), or written files (missing/extra/different per file).
    """
    divergences: list[str] = []
    for index, spec in enumerate(specs):
        result_a = run_once(module_a, spec, engine=engine)
        result_b = run_once(module_b, spec, engine=engine)
        label = spec.label or f"input {index}"
        problems: list[str] = []
        if result_a.exit_code != result_b.exit_code:
            problems.append(
                f"exit code {result_a.exit_code} != {result_b.exit_code}"
            )
        stdout_a = bytes(result_a.os.stdout)
        stdout_b = bytes(result_b.os.stdout)
        if stdout_a != stdout_b:
            problems.append(
                "stdout differs at byte"
                f" {_first_mismatch(stdout_a, stdout_b)}"
                f" (lengths {len(stdout_a)} vs {len(stdout_b)})"
            )
        if result_a.os.written_files != result_b.os.written_files:
            problems.append(
                "written files differ: "
                + _describe_file_diff(
                    result_a.os.written_files, result_b.os.written_files
                )
            )
        if problems:
            divergences.append(f"{label}: " + "; ".join(problems))
    return OutputComparison(matches=not divergences, divergences=divergences)


def _first_mismatch(a: bytes, b: bytes) -> int:
    for index, (byte_a, byte_b) in enumerate(zip(a, b)):
        if byte_a != byte_b:
            return index
    return min(len(a), len(b))


def _describe_file_diff(
    files_a: dict[str, bytes], files_b: dict[str, bytes]
) -> str:
    parts: list[str] = []
    for path in sorted(set(files_a) | set(files_b)):
        if path not in files_b:
            parts.append(f"{path} missing after inlining")
        elif path not in files_a:
            parts.append(f"{path} only written after inlining")
        elif files_a[path] != files_b[path]:
            parts.append(
                f"{path} content differs at byte"
                f" {_first_mismatch(files_a[path], files_b[path])}"
            )
    return ", ".join(parts)


#: Per-process registry of sessions opened from a spec, so one worker
#: process reuses its in-memory cache across the tasks it executes
#: (the disk store is shared between processes regardless).
_WORKER_SESSIONS: dict[tuple, CompilationSession] = {}


def _session_from_spec(spec: dict | None) -> CompilationSession | None:
    if spec is None:
        return None
    key = tuple(sorted(spec.items()))
    session = _WORKER_SESSIONS.get(key)
    if session is None:
        session = CompilationSession.from_spec(spec)
        _WORKER_SESSIONS[key] = session
    return session


def _benchmark_task(
    name: str,
    obs: Observability,
    *,
    scale: str,
    params: InlineParameters | None,
    pre_optimize: bool,
    check_outputs: bool,
    session_spec: dict | None,
    pass_spec: str | None,
    check: bool,
    engine: str,
) -> BenchmarkResult:
    """One suite item, addressed by benchmark name so it pickles.

    Process workers re-open the shared disk cache from ``session_spec``;
    the serial path passes the live session directly and never reaches
    this function.
    """
    _LOG.info("[%s] running ...", name)
    return run_benchmark(
        benchmark_by_name(name),
        scale,
        params,
        pre_optimize,
        check_outputs,
        obs=obs,
        session=_session_from_spec(session_spec),
        pass_spec=pass_spec,
        check=check,
        engine=engine,
    )


def run_suite(
    scale: str = "small",
    params: InlineParameters | None = None,
    names: list[str] | None = None,
    pre_optimize: bool = True,
    check_outputs: bool = True,
    progress: bool = False,
    obs: Observability | None = None,
    jobs: int = 1,
    session: CompilationSession | None = None,
    pass_spec: str | None = None,
    check: bool = False,
    engine: str = "counting",
) -> list[BenchmarkResult]:
    """Run the pipeline for every benchmark (or a named subset).

    ``names`` must all be known benchmark names; unknown names raise
    :class:`ValueError` rather than being silently skipped. With
    ``jobs > 1`` the benchmarks run on a process pool — results keep
    suite order and per-worker trace/metric records are merged into the
    parent ``obs`` — while ``jobs=1`` is the plain serial loop,
    byte-identical to the historical behavior. Workers share the
    session's *disk* store (each process re-opens it from
    :meth:`CompilationSession.spec`) and return their results and
    telemetry by pickling; the serial loop uses the live ``session``.

    Progress goes through the ``repro.experiments`` logger; with
    ``progress=True`` a stderr handler is attached (once) so the
    messages stay visible from the CLI, while library users configure
    or silence the ``repro`` logger themselves.
    """
    validate_jobs(jobs)
    if progress:
        enable_console_logging()
    obs = resolve(obs)
    if names is not None:
        unknown = sorted(set(names) - set(benchmark_names()))
        if unknown:
            raise ValueError(
                f"unknown benchmark name(s): {', '.join(unknown)};"
                f" known: {', '.join(benchmark_names())}"
            )
    selected = [
        benchmark
        for benchmark in benchmark_suite()
        if names is None or benchmark.name in names
    ]
    with obs.tracer.span("suite", scale=scale) as attrs:
        if jobs <= 1:
            results = []
            for benchmark in selected:
                _LOG.info("[%s] running ...", benchmark.name)
                results.append(
                    run_benchmark(
                        benchmark,
                        scale,
                        params,
                        pre_optimize,
                        check_outputs,
                        obs=obs,
                        session=session,
                        pass_spec=pass_spec,
                        check=check,
                        engine=engine,
                    )
                )
        else:
            # Ship the session as its picklable spec; the live object
            # holds locks and caches that cannot cross the process
            # boundary.
            task = functools.partial(
                _benchmark_task,
                scale=scale,
                params=params,
                pre_optimize=pre_optimize,
                check_outputs=check_outputs,
                session_spec=session.spec() if session else None,
                pass_spec=pass_spec,
                check=check,
                engine=engine,
            )
            results = parallel_map(
                task,
                [benchmark.name for benchmark in selected],
                jobs,
                obs=obs,
                worker_label="suite",
            )
        attrs["benchmarks"] = len(results)
    return results


def aggregate_dynamic_breakdown(
    results: list[BenchmarkResult],
) -> dict[SiteClass, float]:
    """Suite-wide post-inline dynamic call mix (the §4.4 percentages)."""
    totals = {site_class: 0.0 for site_class in SiteClass}
    for result in results:
        for site_class in SiteClass:
            totals[site_class] += result.post_classified.dynamic.get(
                site_class, 0.0
            )
    grand = sum(totals.values())
    if grand == 0:
        return {site_class: 0.0 for site_class in SiteClass}
    return {site_class: value / grand for site_class, value in totals.items()}
