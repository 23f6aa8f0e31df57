"""The pipeline driver and the per-benchmark experiment pipeline.

:func:`run_pipeline` is the one implementation of the inliner's
sequence: profile over an input set, expand, optionally optimize
again, re-profile over the same inputs. Table 4, the ablations, the
extension experiments and ``impact-inline inline`` all call it.

For each benchmark, :func:`run_benchmark` compiles and pre-optimizes
(constant folding and jump optimization, which the paper applies
*before* inline expansion — §4.4), runs the driver, checks output
equivalence between the original and inlined binaries on every input,
and classifies the inlined program's call sites.

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
from typing import Callable

from repro.il.module import ILModule
from repro.inliner.classify import ClassifiedSites, SiteClass, classify_sites
from repro.inliner.manager import InlineResult, inline_module
from repro.inliner.params import InlineParameters
from repro.observability import Observability, enable_console_logging, resolve
from repro.opt import optimize_module
from repro.pipeline.parallel import parallel_map, validate_jobs
from repro.pipeline.session import CompilationSession
from repro.profiler.profile import ProfileData, RunSpec, profile_module, run_once
from repro.callgraph.build import build_call_graph
from repro.workloads.suite import Benchmark, benchmark_by_name, select_benchmarks

_LOG = logging.getLogger("repro.experiments")


@dataclass
class PipelineRun:
    """One profile → expand → re-profile pass over one module."""

    #: The module as profiled; expansion works on a copy of it.
    module: ILModule
    specs: list[RunSpec]
    profile: ProfileData
    #: The expansion (an ``InlineResult``, or a static heuristic's
    #: result); ``inline.module`` is the inlined program.
    inline: InlineResult
    #: ``inline.module`` profiled over the same ``specs``.
    post_profile: ProfileData

    @property
    def code_increase(self) -> float:
        """Table 4's *code inc*: the expansion's static code growth."""
        return self.inline.code_increase

    @property
    def call_decrease(self) -> float:
        """Table 4's *call dec*: the drop in dynamic calls, clamped at 0."""
        before = self.profile.avg_calls
        if before <= 0:
            return 0.0
        return max(0.0, 1.0 - self.post_profile.avg_calls / before)


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

    # The driver's formulas, over the same three fields.
    code_increase = PipelineRun.code_increase
    call_decrease = PipelineRun.call_decrease

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


def run_pipeline(
    module: ILModule,
    specs: list[RunSpec],
    params: InlineParameters | None = None,
    *,
    profile: ProfileData | None = None,
    inline: Callable[..., InlineResult] | None = None,
    optimize_after: bool = False,
    check_exit: bool = True,
    session: CompilationSession | None = None,
    check: bool = False,
    obs: Observability | None = None,
    engine: str = "counting",
) -> PipelineRun:
    """The inliner's fixed sequence: profile, expand, re-profile (§3).

    ``module`` is profiled over ``specs`` (unless ``profile`` already
    holds that profile), expanded on a copy, optionally optimized again
    (``optimize_after``; the paper's §4.4 recommends the full optimizer
    after expansion, which the extension experiments apply and Table 4
    does not), and profiled again over the same ``specs``. ``module``
    itself is left unchanged.

    ``inline`` replaces the paper's expander: it is called as
    ``inline(module, profile, params)`` and returns the expansion (the
    ablations' variants and baseline heuristics). With a ``session``
    both profiles are served from its content-addressed cache, and a
    run that exits non-zero always raises; without one, ``check_exit``
    decides. ``check`` re-verifies the IL after every inline phase.
    """
    obs = resolve(obs)
    tracer = obs.tracer

    def measure(target: ILModule) -> ProfileData:
        if session is not None:
            return session.profile(target, specs, obs=obs, engine=engine)
        return profile_module(
            target, specs, check_exit=check_exit, obs=obs, engine=engine
        )

    # The spans keep the ``benchmark.*`` names that bench records
    # aggregate phase times by.
    if profile is None:
        with tracer.span("benchmark.profile"):
            profile = measure(module)
    with tracer.span("benchmark.inline"):
        if inline is None:
            result = inline_module(module, profile, params, check=check, obs=obs)
        else:
            result = inline(module, profile, params)
    if optimize_after:
        with tracer.span("benchmark.post_optimize"):
            optimize_module(result.module, obs=obs)
    with tracer.span("benchmark.post_profile"):
        post_profile = measure(result.module)
    return PipelineRun(module, specs, profile, result, post_profile)


def run_benchmark(
    benchmark: Benchmark,
    scale: str = "small",
    params: InlineParameters | None = None,
    obs: Observability | None = None,
    session: CompilationSession | None = None,
    check: bool = False,
    engine: str = "counting",
) -> BenchmarkResult:
    """Run the full experiment pipeline for one benchmark.

    Compiles and pre-optimizes the benchmark with the five-pass set,
    runs :func:`run_pipeline` over its inputs without post-inline
    optimization, checks outputs and classifies the inlined program's
    call sites. With a :class:`~repro.pipeline.session.CompilationSession`
    the compile and both profiles are served content-addressed from its
    cache when possible. ``check`` re-verifies IL well-formedness after
    every inline phase (the ``--check`` mode).

    The original and inlined programs must agree on exit code, stdout
    and written files for every input. The check diffs the output
    digests both profiling passes recorded, so each input runs once per
    module; :func:`compare_outputs` re-runs only the inputs whose
    digests differ, to describe the divergence (or every input, when a
    profile carries no digests).
    """
    params = params or InlineParameters()
    obs = resolve(obs)
    tracer = obs.tracer
    runs_before = obs.metrics.counters.get("vm.runs", 0)
    with tracer.span("benchmark", name=benchmark.name, scale=scale) as attrs:
        if session is not None:
            with tracer.span("benchmark.compile", name=benchmark.name):
                module = session.compiled_module(
                    benchmark.source, f"{benchmark.name}.c", obs=obs
                )
        else:
            with tracer.span("benchmark.compile", name=benchmark.name):
                module = benchmark.compile(obs=obs)
            with tracer.span("benchmark.optimize", name=benchmark.name):
                optimize_module(module, obs=obs)
        specs = benchmark.make_runs(scale)
        run = run_pipeline(
            module, specs, params, session=session, check=check, obs=obs,
            engine=engine,
        )
        inline_result = run.inline
        if tracer.enabled:
            for decision in inline_result.decisions:
                record = decision.to_record()
                record["benchmark"] = benchmark.name
                tracer.record(record)

        with tracer.span("benchmark.output_check", name=benchmark.name):
            comparison = diff_outputs(
                module, inline_result.module, specs, run.profile,
                run.post_profile, engine=engine,
            )
        for divergence in comparison.divergences:
            tracer.event(
                "output_divergence", benchmark=benchmark.name, detail=divergence
            )
            _LOG.warning("[%s] output divergence: %s", benchmark.name, divergence)

        with tracer.span("benchmark.post_classify", name=benchmark.name):
            post_graph = build_call_graph(
                inline_result.module, run.post_profile, obs=obs
            )
            post_classified = classify_sites(
                inline_result.module, post_graph, run.post_profile, params
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
        profile=run.profile,
        classified=inline_result.classified,
        inline=inline_result,
        post_profile=run.post_profile,
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
    session: CompilationSession | None = None,
    session_spec: dict | None = None,
    **options,
) -> BenchmarkResult:
    """One suite item, addressed by benchmark name so it pickles.

    The serial loop passes the live ``session``; process workers
    re-open the shared disk cache from ``session_spec`` instead.
    ``options`` are :func:`run_benchmark`'s keywords.
    """
    _LOG.info("[%s] running ...", name)
    if session is None:
        session = _session_from_spec(session_spec)
    return run_benchmark(
        benchmark_by_name(name), obs=obs, session=session, **options
    )


def run_suite(
    scale: str = "small",
    params: InlineParameters | None = None,
    names: list[str] | None = None,
    progress: bool = False,
    obs: Observability | None = None,
    jobs: int = 1,
    session: CompilationSession | None = None,
    check: bool = False,
    engine: str = "counting",
) -> list[BenchmarkResult]:
    """Run :func:`run_benchmark` for every benchmark (or a named subset).

    Every benchmark is pre-optimized, inlined without post-inline
    optimization and output-checked, as Table 4 requires. ``names``
    must all be known benchmark names; unknown names raise
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
    selected = [benchmark.name for benchmark in select_benchmarks(names)]
    options = dict(scale=scale, params=params, check=check, engine=engine)
    if jobs > 1 and session is not None:
        # Ship the session as its picklable spec; the live object holds
        # locks and caches that cannot cross the process boundary.
        options["session_spec"] = session.spec()
    else:
        options["session"] = session
    with obs.tracer.span("suite", scale=scale) as attrs:
        results = parallel_map(
            functools.partial(_benchmark_task, **options),
            selected,
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
