"""Ablation studies on the design choices DESIGN.md calls out.

A — weight threshold T (§2.3.3's ``weight(Ai) < T`` guard),
B — profile-guided selection vs. the no-profile baselines of §1.2,
C — code-growth limit (§2.3.1's program-size cap),
D — linearization order (paper's weight heuristic vs. hybrid).

A sweep is a list of variants — a label, the inliner parameters and an
optional replacement expander — run over one prepared suite: every
benchmark is compiled, pre-optimized and profiled once, and each
variant hands that profile to
:func:`~repro.experiments.pipeline.run_pipeline`, which expands and
re-profiles. As in Table 4, no variant re-optimizes after expansion.

Every sweep fans out over the suite via
:func:`~repro.pipeline.parallel.parallel_map`; the tasks are
module-level functions parameterized with :func:`functools.partial`
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
from repro.experiments.pipeline import run_pipeline
from repro.experiments.report import pct, render_table
from repro.inliner.manager import inline_module
from repro.inliner.params import InlineParameters
from repro.opt import optimize_module
from repro.pipeline.parallel import parallel_map
from repro.profiler.profile import profile_module
from repro.profiler.static_estimate import estimate_profile
from repro.workloads.suite import benchmark_by_name, benchmark_names, benchmark_suite


@dataclass
class AblationPoint:
    label: str
    code_increase: float
    call_decrease: float


def _prepare_task(name, _obs, *, scale, engine="counting"):
    """Compile, pre-optimize and profile one benchmark, addressed by name."""
    benchmark = benchmark_by_name(name)
    module = benchmark.compile()
    optimize_module(module)
    specs = benchmark.make_runs(scale)
    return module, specs, profile_module(module, specs, engine=engine)


def _variant_task(entry, _obs, *, params, inline, engine="counting"):
    """Expand one prepared benchmark as one variant; (code inc, call dec)."""
    module, specs, profile = entry
    run = run_pipeline(
        module, specs, params, profile=profile, inline=inline, engine=engine
    )
    return run.code_increase, run.call_decrease


def _sweep(variants, scale, jobs, engine) -> list[AblationPoint]:
    """Suite-mean code increase and call decrease of every variant."""
    prepared = parallel_map(
        functools.partial(_prepare_task, scale=scale, engine=engine),
        benchmark_names(),
        jobs,
        worker_label="ablation-prepare",
    )
    points = []
    for label, params, inline in variants:
        task = functools.partial(
            _variant_task, params=params, inline=inline, engine=engine
        )
        pairs = parallel_map(task, prepared, jobs, worker_label="ablation-measure")
        points.append(_mean_point(label, pairs))
    return points


def _mean_point(label, pairs) -> AblationPoint:
    """The suite mean of (code increase, call decrease) ``pairs``."""
    incs, decs = zip(*pairs)
    return AblationPoint(label, statistics.fmean(incs), statistics.fmean(decs))


def threshold_sweep(
    scale: str = "small",
    thresholds: tuple[float, ...] = (1, 10, 100, 1000),
    jobs: int = 1,
    engine: str = "counting",
) -> list[AblationPoint]:
    """Ablation A: sweep the arc-weight threshold T."""
    variants = [
        (f"T={threshold:g}", InlineParameters(weight_threshold=threshold), None)
        for threshold in thresholds
    ]
    return _sweep(variants, scale, jobs, engine)


def growth_limit_sweep(
    scale: str = "small",
    factors: tuple[float, ...] = (1.0, 1.1, 1.25, 1.5, 2.0),
    jobs: int = 1,
    engine: str = "counting",
) -> list[AblationPoint]:
    """Ablation C: sweep the program-size cap."""
    variants = [
        (f"limit={factor:g}x", InlineParameters(size_limit_factor=factor), None)
        for factor in factors
    ]
    return _sweep(variants, scale, jobs, engine)


def linearization_comparison(
    scale: str = "small",
    jobs: int = 1,
    engine: str = "counting",
) -> list[AblationPoint]:
    """Ablation D: the paper's pure-weight order vs. the hybrid order."""
    variants = [
        (method, None, functools.partial(inline_module, linearize_method=method))
        for method in ("weight", "hybrid")
    ]
    return _sweep(variants, scale, jobs, engine)


def _inline_on_estimate(module, _profile, params):
    """§4.2's open question: the same expander on weights estimated by
    structure analysis instead of profiling."""
    return inline_module(module, estimate_profile(module), params)


def _without_profile(heuristic, module, _profile, params):
    """Run a no-profile baseline heuristic."""
    return heuristic(module, params=params)


_BASELINES = (
    ("profile-guided", None, None),
    ("static-estimate", None, _inline_on_estimate),
    ("leaf (PL.8)", None, functools.partial(_without_profile, leaf_inline)),
    ("loop (MIPS)", None, functools.partial(_without_profile, loop_inline)),
    (
        "size<=25",
        None,
        functools.partial(_without_profile, size_threshold_inline),
    ),
    ("hint (GNU)", None, functools.partial(_without_profile, hint_inline)),
)


def baseline_comparison(
    scale: str = "small",
    jobs: int = 1,
    engine: str = "counting",
) -> list[AblationPoint]:
    """Ablation B: profile-guided vs. static heuristics, same size cap."""
    return _sweep(_BASELINES, scale, jobs, engine)


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
    arms = {"train-inputs": [], "held-out-inputs": []}
    for benchmark in benchmark_suite():
        module = benchmark.compile()
        optimize_module(module)
        specs = benchmark.make_runs(scale)
        if len(specs) < 2:
            continue
        trained = run_pipeline(module, specs[0::2], engine=engine)
        # The held-out arm measures the train-profile expansion on the
        # other half of the inputs.
        held_out = run_pipeline(
            module, specs[1::2], inline=lambda *_: trained.inline, engine=engine
        )
        for subset, run in (
            ("train-inputs", trained),
            ("held-out-inputs", held_out),
        ):
            arms[subset].append((run.code_increase, run.call_decrease))
    return [_mean_point(subset, pairs) for subset, pairs in arms.items()]


def render_points(title: str, points: list[AblationPoint]) -> str:
    rows = [
        [point.label, pct(point.code_increase), pct(point.call_decrease)]
        for point in points
    ]
    return render_table(title, ["configuration", "code inc", "call dec"], rows)
