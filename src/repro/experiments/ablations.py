"""Ablation studies on the design choices DESIGN.md calls out.

A — weight threshold T (§2.3.3's ``weight(Ai) < T`` guard),
B — profile-guided selection vs. the no-profile baselines of §1.2,
C — code-growth limit (§2.3.1's program-size cap),
D — linearization order (paper's weight heuristic vs. hybrid).

Every sweep fans out over the suite via
:func:`~repro.pipeline.parallel.parallel_map`; the measurement tasks
are module-level functions parameterized with :func:`functools.partial`
so they pickle onto the process pool ``jobs > 1`` uses.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass

from repro.baselines import (
    hint_inline,
    leaf_inline,
    loop_inline,
    size_threshold_inline,
)
from repro.experiments.report import pct, render_table
from repro.inliner.manager import InlineExpander
from repro.inliner.params import InlineParameters
from repro.opt import optimize_module
from repro.pipeline.parallel import parallel_map
from repro.profiler.profile import profile_module
from repro.workloads.suite import benchmark_by_name, benchmark_names, benchmark_suite


@dataclass
class AblationPoint:
    label: str
    code_increase: float
    call_decrease: float


def _prepare(benchmark, scale, engine="counting"):
    module = benchmark.compile()
    optimize_module(module)
    specs = benchmark.make_runs(scale)
    profile = profile_module(module, specs, engine=engine)
    return module, specs, profile


def _prepare_task(name, _obs, *, scale, engine="counting"):
    """Compile+pre-optimize+profile one benchmark, addressed by name."""
    return _prepare(benchmark_by_name(name), scale, engine)


def _prepare_suite(scale, jobs=1, engine="counting"):
    """Compile+pre-optimize+profile every benchmark (optionally parallel)."""
    return parallel_map(
        functools.partial(_prepare_task, scale=scale, engine=engine),
        benchmark_names(),
        jobs,
        worker_label="ablation-prepare",
    )


def _measure_all(prepared, one, jobs=1):
    """Apply ``one(module, specs, profile)`` to every prepared benchmark."""
    return parallel_map(one, prepared, jobs, worker_label="ablation-measure")


def _measure(
    module, inlined_module, specs, profile, engine="counting"
) -> tuple[float, float]:
    before = profile.avg_calls
    after_profile = profile_module(inlined_module, specs, engine=engine)
    after = after_profile.avg_calls
    decrease = max(0.0, 1.0 - after / before) if before else 0.0
    original = module.total_code_size()
    increase = (inlined_module.total_code_size() - original) / original
    return increase, decrease


def _expander_task(
    entry, _obs, *, params=None, linearize_method=None, engine="counting"
):
    """Inline one prepared benchmark with the paper's expander."""
    module, specs, profile = entry
    if linearize_method is not None:
        result = InlineExpander(
            module, profile, params, linearize_method=linearize_method
        ).run()
    else:
        result = InlineExpander(module, profile, params).run()
    return _measure(module, result.module, specs, profile, engine)


def _mean_point(label, pairs) -> AblationPoint:
    incs = [inc for inc, _ in pairs]
    decs = [dec for _, dec in pairs]
    return AblationPoint(label, statistics.fmean(incs), statistics.fmean(decs))


def threshold_sweep(
    scale: str = "small",
    thresholds: tuple[float, ...] = (1, 10, 100, 1000),
    jobs: int = 1,
    engine: str = "counting",
) -> list[AblationPoint]:
    """Ablation A: sweep the arc-weight threshold T."""
    points = []
    prepared = _prepare_suite(scale, jobs, engine)
    for threshold in thresholds:
        one = functools.partial(
            _expander_task,
            params=InlineParameters(weight_threshold=threshold),
            engine=engine,
        )
        pairs = _measure_all(prepared, one, jobs)
        points.append(_mean_point(f"T={threshold:g}", pairs))
    return points


def growth_limit_sweep(
    scale: str = "small",
    factors: tuple[float, ...] = (1.0, 1.1, 1.25, 1.5, 2.0),
    jobs: int = 1,
    engine: str = "counting",
) -> list[AblationPoint]:
    """Ablation C: sweep the program-size cap."""
    points = []
    prepared = _prepare_suite(scale, jobs, engine)
    for factor in factors:
        one = functools.partial(
            _expander_task,
            params=InlineParameters(size_limit_factor=factor),
            engine=engine,
        )
        pairs = _measure_all(prepared, one, jobs)
        points.append(_mean_point(f"limit={factor:g}x", pairs))
    return points


def linearization_comparison(
    scale: str = "small",
    jobs: int = 1,
    engine: str = "counting",
) -> list[AblationPoint]:
    """Ablation D: the paper's pure-weight order vs. the hybrid order."""
    points = []
    prepared = _prepare_suite(scale, jobs, engine)
    for method in ("weight", "hybrid"):
        one = functools.partial(
            _expander_task, linearize_method=method, engine=engine
        )
        pairs = _measure_all(prepared, one, jobs)
        points.append(_mean_point(method, pairs))
    return points


def _size25_inline(module, params):
    return size_threshold_inline(module, 25, params)


def _baseline_task(entry, _obs, *, label, engine="counting"):
    """Inline one prepared benchmark with the named baseline heuristic."""
    module, specs, profile = entry
    params = InlineParameters()
    heuristic = dict(_BASELINES)[label]
    if heuristic is None:
        inlined = InlineExpander(module, profile, params).run().module
    elif heuristic == "static-estimate":
        # §4.2's open question: run the same expander on weights
        # estimated by structure analysis instead of profiling.
        from repro.profiler.static_estimate import estimate_profile

        estimated = estimate_profile(module)
        inlined = InlineExpander(module, estimated, params).run().module
    else:
        inlined = heuristic(module, params).module
    return _measure(module, inlined, specs, profile, engine)


_BASELINES = (
    ("profile-guided", None),
    ("static-estimate", "static-estimate"),
    ("leaf (PL.8)", leaf_inline),
    ("loop (MIPS)", loop_inline),
    ("size<=25", _size25_inline),
    ("hint (GNU)", hint_inline),
)


def baseline_comparison(
    scale: str = "small",
    jobs: int = 1,
    engine: str = "counting",
) -> list[AblationPoint]:
    """Ablation B: profile-guided vs. static heuristics, same size cap."""
    points = []
    prepared = _prepare_suite(scale, jobs, engine)
    for label, _heuristic in _BASELINES:
        one = functools.partial(_baseline_task, label=label, engine=engine)
        pairs = _measure_all(prepared, one, jobs)
        points.append(_mean_point(label, pairs))
    return points


def heldout_input_check(
    scale: str = "small", engine: str = "counting"
) -> list[AblationPoint]:
    """Ablation E: profile on half the inputs, evaluate on the rest.

    The paper's methodology hinges on representative inputs (§1.2,
    §4: "representative inputs for each benchmark are applied to
    establish reliable profile information"). If profiles generalize,
    the call decrease measured on held-out inputs should track the
    trained-inputs number closely. Each benchmark is compiled,
    profiled on its train half and inlined once; both arms share that.
    """
    arms = {"train-inputs": ([], []), "held-out-inputs": ([], [])}
    for benchmark in benchmark_suite():
        module = benchmark.compile()
        optimize_module(module)
        specs = benchmark.make_runs(scale)
        if len(specs) < 2:
            continue
        train = specs[0::2]
        test = specs[1::2]
        profile = profile_module(module, train, engine=engine)
        inlined = InlineExpander(module, profile).run().module
        original = module.total_code_size()
        increase = (inlined.total_code_size() - original) / original
        # The train arm's baseline is the profile the inliner used.
        held_out = profile_module(module, test, engine=engine)
        for subset, inputs, base in (
            ("train-inputs", train, profile),
            ("held-out-inputs", test, held_out),
        ):
            after = profile_module(inlined, inputs, engine=engine)
            incs, decs = arms[subset]
            decs.append(
                max(0.0, 1.0 - after.avg_calls / base.avg_calls)
                if base.avg_calls
                else 0.0
            )
            incs.append(increase)
    return [
        AblationPoint(subset, statistics.fmean(incs), statistics.fmean(decs))
        for subset, (incs, decs) in arms.items()
    ]


def render_points(title: str, points: list[AblationPoint]) -> str:
    rows = [
        [point.label, pct(point.code_increase), pct(point.call_decrease)]
        for point in points
    ]
    return render_table(title, ["configuration", "code inc", "call dec"], rows)
