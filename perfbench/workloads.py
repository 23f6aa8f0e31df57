"""The three benchmark workloads and one measured pass over each.

A workload is a list of :class:`Item` objects, one per program; an
item's ``pipeline`` pushes its program through the whole compile →
optimize → profile → inline → re-profile sequence and returns an
:class:`Outcome`. Every call into the program goes through its public
entry points with default settings (default ``InlineParameters``,
default engine, ``jobs=1``, no ``CompilationSession``), so a later
change to those defaults is measured.

- ``suite-small``: the 12 suite programs on their fixed
  ``make_runs("small")`` inputs through ``run_benchmark``.
- ``suite-long``: each suite program on one seeded full-scale input,
  through ``run_benchmark``.
- ``inline-fuzz``: ``FUZZ_PROGRAMS`` programs from
  ``generate_program(seed + i)`` through the stages of
  ``impact-inline inline``.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro import compiler, opt
from repro.experiments import pipeline as experiment
from repro.inliner import manager as inliner
from repro.profiler import profile as profiler
from repro.profiler.profile import RunSpec
from repro.verify.fuzz import FUZZ_PARAMS, generate_program
from repro.workloads.suite import Benchmark, benchmark_suite

from reference import input_key, run_digest, source_key

WORKLOADS = ("suite-small", "suite-long", "inline-fuzz")

#: Programs per ``inline-fuzz`` pass; the default seed's programs are
#: the ones ``reference.json`` stores outputs for.
FUZZ_PROGRAMS = 200
FUZZ_DEFAULT_SEED = 0

#: ``suite-long`` draws, per program, one full-scale input whose
#: reference IL lies within this share of the program's median input,
#: so that every seed gives each program the same amount of work.
LENGTH_TOLERANCE = 0.10
#: ... from never fewer than this many candidates.
MIN_CANDIDATES = 3

STORED = "stored reference"
UNOPTIMISED = "un-optimised build"


@dataclass
class Outcome:
    """What one item's pipeline produced."""

    call_decrease: float
    code_increase: float
    il_before: int
    il_after: int
    #: The inlined program, whose outputs the check compares.
    module: object


@dataclass
class Item:
    name: str
    pipeline: Callable[[], Outcome]
    specs: list[RunSpec]
    #: One reference digest per spec, or ``None`` where the reference
    #: has no entry (the check then falls back to ``fallback``).
    expected: list[str | None]
    fallback: Callable[[], list[str]] | None = None
    #: Which check ``expected`` holds; see :func:`check_pass`.
    kind: str = STORED


@dataclass
class PassResult:
    wall_s: float
    #: Item name → seconds its pipeline took.
    item_s: dict[str, float]
    outcomes: dict[str, Outcome]
    #: Item name → why it failed (raised, or output mismatch).
    failures: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    #: Check kind → number of items checked that way.
    checks: dict[str, int] = field(default_factory=dict)

    def quality(self) -> dict[str, float]:
        """The Table 4 style quality metrics over the items that ran."""
        outcomes = list(self.outcomes.values())
        if not outcomes:
            return {}
        return {
            "calls_removed_pct": 100 * statistics.fmean(o.call_decrease for o in outcomes),
            "code_growth_pct": 100 * statistics.fmean(o.code_increase for o in outcomes),
            "dyn_il_ratio": sum(o.il_after for o in outcomes)
            / sum(o.il_before for o in outcomes),
        }

    @property
    def failed_frac(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Set-up: build the items of one workload


def setup(workload: str, seed: int, reference: dict) -> list[Item]:
    if workload == "suite-small":
        return [
            _suite_item(benchmark, "small", benchmark.make_runs("small"), reference)
            for benchmark in benchmark_suite()
        ]
    if workload == "suite-long":
        return [
            _suite_item(_with_runs(benchmark, specs), "full", specs, reference)
            for benchmark, specs in draw_long_inputs(seed, reference)
        ]
    if workload == "inline-fuzz":
        return [
            _fuzz_item(name, source, reference["fuzz"])
            for name, source in fuzz_programs(seed)
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def draw_long_inputs(seed: int, reference: dict) -> list[tuple[Benchmark, list[RunSpec]]]:
    """One seeded full-scale input for each of the 12 programs.

    Candidates are the inputs whose reference IL is within
    ``LENGTH_TOLERANCE`` of the program's median full-scale input (at
    least the ``MIN_CANDIDATES`` closest); the seed picks one.
    """
    rng = random.Random(seed)
    draws = []
    for benchmark in benchmark_suite():
        specs = benchmark.make_runs("full")
        known = reference["suite"][benchmark.name]
        try:
            il = [known[input_key(spec)]["il"] for spec in specs]
        except KeyError:
            raise ValueError(
                f"reference.json has no entry for a full-scale {benchmark.name}"
                " input; regenerate it with perfbench/make_reference.py"
            ) from None
        target = statistics.median(il)
        order = sorted(range(len(specs)), key=lambda index: (abs(il[index] - target), index))
        close = [index for index in order if abs(il[index] - target) <= LENGTH_TOLERANCE * target]
        pick = rng.choice(close if len(close) >= MIN_CANDIDATES else order[:MIN_CANDIDATES])
        draws.append((benchmark, [specs[pick]]))
    return draws


def fuzz_programs(seed: int) -> list[tuple[str, str]]:
    """(name, source) of the ``FUZZ_PROGRAMS`` programs for ``seed``."""
    return [
        (f"fuzz-{seed + index}", generate_program(seed + index))
        for index in range(FUZZ_PROGRAMS)
    ]


def _with_runs(benchmark: Benchmark, specs: list[RunSpec]) -> Benchmark:
    return Benchmark(
        name=benchmark.name,
        source=benchmark.source,
        input_description=benchmark.input_description,
        runs_factory=lambda scale: list(specs),
    )


def _suite_item(benchmark: Benchmark, scale: str, specs: list[RunSpec], reference: dict) -> Item:
    known = reference["suite"].get(benchmark.name, {})

    def pipeline() -> Outcome:
        result = experiment.run_benchmark(benchmark, scale)
        if not result.outputs_match:
            raise RuntimeError("; ".join(result.output_divergences))
        return Outcome(
            call_decrease=result.call_decrease,
            code_increase=result.code_increase,
            il_before=result.profile.total.il,
            il_after=result.post_profile.total.il,
            module=result.inline.module,
        )

    expected = [known.get(input_key(spec), {}).get("digest") for spec in specs]
    return Item(benchmark.name, pipeline, specs, expected)


def _fuzz_item(name: str, source: str, stored: dict) -> Item:
    spec = RunSpec(label=name)

    def pipeline() -> Outcome:
        module = compiler.compile_program(source, filename=f"{name}.c")
        opt.optimize_module(module)
        before = profiler.profile_module(module, [spec], check_exit=False)
        result = inliner.inline_module(module, before, FUZZ_PARAMS)
        after = profiler.profile_module(result.module, [spec], check_exit=False)
        return Outcome(
            call_decrease=max(0.0, 1.0 - after.avg_calls / before.avg_calls)
            if before.avg_calls
            else 0.0,
            code_increase=result.code_increase,
            il_before=before.total.il,
            il_after=after.total.il,
            module=result.module,
        )

    def fallback() -> list[str]:
        return [run_digest(compiler.compile_program(source, filename=f"{name}.c"), spec)]

    return Item(name, pipeline, [spec], [stored.get(source_key(source))], fallback)


# ----------------------------------------------------------------------
# One pass


def run_pass(items: list[Item], tracer=None) -> PassResult:
    """Run every item once; time the pass and each item.

    With a :class:`~layers.LayerTracer` the pass runs traced: the
    caller holds the tracer open, and each item's pipeline becomes a
    ``driver`` span. Outputs are checked afterwards by :func:`check_pass`.
    """
    result = PassResult(wall_s=0.0, item_s={}, outcomes={})
    start = perf_counter()
    for item in items:
        pipeline = item.pipeline if tracer is None else tracer.wrap("driver", item.pipeline)
        result.attempted += 1
        began = perf_counter()
        try:
            outcome = pipeline()
        except Exception as error:  # an item that raises or traps counts as failed
            result.failures[item.name] = f"{type(error).__name__}: {error}"
            continue
        result.item_s[item.name] = perf_counter() - began
        result.outcomes[item.name] = outcome
    result.wall_s = perf_counter() - start
    return result


def check_pass(items: list[Item], result: PassResult) -> None:
    """Compare each item's outputs with its reference (outside timing).

    Items missing from the stored reference are compared with their
    un-optimised, un-inlined build instead; ``result.checks`` counts
    which check ran. A mismatch moves the item into ``result.failures``.
    Each checked module is released, so that memory held from earlier
    passes does not grow ``peak_rss_mb`` with the number of passes.
    """
    for item in items:
        outcome = result.outcomes.get(item.name)
        if outcome is None:
            continue
        module, outcome.module = outcome.module, None
        if None in item.expected and item.fallback is not None:
            item.expected, item.kind = item.fallback(), UNOPTIMISED
        result.checks[item.kind] = result.checks.get(item.kind, 0) + 1
        for spec, want in zip(item.specs, item.expected):
            got = run_digest(module, spec)
            if got != want:
                label = spec.label or "input"
                result.failures[item.name] = (
                    f"{label}: output digest {got} != {item.kind} {want}"
                )
                del result.outcomes[item.name]
                break
