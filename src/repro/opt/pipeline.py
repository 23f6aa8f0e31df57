"""The optimization pipeline: one fixed five-pass loop.

Runs fold → copy-propagate → cse → jump-optimize → DCE rounds until a
round changes nothing (or :data:`MAX_ROUNDS` hits). The paper applies
constant folding and jump optimization before inlining and recommends
the full set afterwards (§4.4); callers choose where in their pipeline
to invoke this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.il.function import ILFunction
from repro.il.module import ILModule
from repro.observability import resolve
from repro.opt.constant_fold import fold_constants
from repro.opt.copy_prop import propagate_copies
from repro.opt.cse import eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code
from repro.opt.jump_opt import optimize_jumps
from repro.pipeline.passes import run_timed

#: The five passes in the order every round runs them.
PASSES = (
    ("constant-fold", fold_constants),
    ("copy-propagate", propagate_copies),
    ("cse", eliminate_common_subexpressions),
    ("jump-optimize", optimize_jumps),
    ("dead-code", eliminate_dead_code),
)

#: Upper bound on the rounds one function gets.
MAX_ROUNDS = 8


@dataclass
class OptimizationStats:
    """Per-pass change counts accumulated over all rounds."""

    rounds: int = 0
    by_pass: dict[str, int] = field(default_factory=dict)

    @property
    def total_changes(self) -> int:
        return sum(self.by_pass.values())


@dataclass
class _Memo:
    """One function optimized once: its content before, its result after."""

    key: tuple
    optimized: ILFunction | None = None
    stats: OptimizationStats | None = None


#: Function name -> memo, for the functions registered by
#: :func:`optimize_once`. Only libc's are, so the table is bounded.
_MEMO: dict[str, _Memo] = {}


def optimize_once(functions) -> None:
    """Optimize functions with these contents at most once per process.

    Optimizing a function reads nothing but its content key (see
    :meth:`~repro.il.function.ILFunction.content_key`), so when a
    registered function comes back unchanged the first result is
    installed instead of running the passes again. The libc image
    registers libc's functions, which every program links.
    """
    for function in functions:
        _MEMO[function.name] = _Memo(function.content_key())


def optimize_function(function: ILFunction, obs=None) -> OptimizationStats:
    """Optimize one function in place to a fixpoint.

    With a live ``obs`` each pass invocation reports its wall time as
    ``pipeline.pass.<name>.seconds`` and its changes as
    ``pipeline.pass.<name>.changes``. A function registered with
    :func:`optimize_once` reports the same changes, and no invocations,
    when its stored result is installed.
    """
    metrics = resolve(obs).metrics
    memo = _MEMO.get(function.name)
    if memo is None or memo.key != function.content_key():
        return _fixpoint(function, metrics)
    if memo.optimized is None:
        memo.stats = _fixpoint(function, metrics)
        memo.optimized = function.clone()
    else:
        optimized = memo.optimized.clone()
        function.params = optimized.params
        function.body = optimized.body
        function.slots = optimized.slots
        function.frame_size = optimized.frame_size
        function.next_temp = optimized.next_temp
        function.next_label = optimized.next_label
        if metrics.enabled:
            for name, count in memo.stats.by_pass.items():
                if count:
                    metrics.inc(f"pipeline.pass.{name}.changes", count)
    return OptimizationStats(memo.stats.rounds, dict(memo.stats.by_pass))


def _fixpoint(function: ILFunction, metrics) -> OptimizationStats:
    """Run the five passes in rounds until a round changes nothing."""
    stats = OptimizationStats()
    for _ in range(MAX_ROUNDS):
        round_changes = 0
        for name, fn in PASSES:
            count = run_timed(name, fn, function, metrics)
            stats.by_pass[name] = stats.by_pass.get(name, 0) + count
            round_changes += count
        stats.rounds += 1
        if round_changes == 0:
            break
    return stats


def optimize_module(module: ILModule, obs=None) -> OptimizationStats:
    """Optimize every function of the module in place.

    ``obs`` is an optional :class:`repro.observability.Observability`;
    when given, per-pass change counts and the phase's wall time are
    reported into it.
    """
    obs = resolve(obs)
    total = OptimizationStats()
    with obs.tracer.span("opt.module", functions=len(module.functions)) as attrs:
        for function in module.functions.values():
            stats = optimize_function(function, obs)
            total.rounds = max(total.rounds, stats.rounds)
            for name, count in stats.by_pass.items():
                total.by_pass[name] = total.by_pass.get(name, 0) + count
        attrs["changes"] = total.total_changes
    if obs.metrics.enabled:
        for name, count in total.by_pass.items():
            obs.metrics.inc(f"opt.changes.{name}", count)
        obs.metrics.inc("opt.modules_optimized")
    return total
