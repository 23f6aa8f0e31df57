"""The register-pressure experiment.

Quantifies the §1.1 trade: before inlining, every dynamic call would
save/restore registers at the boundary (the cost register windows
attack); after inlining the calls are gone but merged live ranges raise
the pressure inside the caller. The report weights both effects by the
profile:

- ``save_restore_events``: dynamic calls × the registers a convention
  would save (bounded by the callee's coloring),
- ``spill_events``: per-function static spill costs × execution counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.pipeline import run_pipeline
from repro.il.module import ILModule
from repro.inliner.params import InlineParameters
from repro.opt import optimize_module
from repro.profiler.profile import ProfileData, RunSpec
from repro.regalloc.coloring import allocate_module


@dataclass
class PressureReport:
    """Pressure numbers for one module under a K-register machine."""

    k: int
    total_spilled_registers: int = 0
    #: Profile-weighted spill events (memory accesses from spills).
    spill_events: float = 0.0
    #: Profile-weighted save/restore traffic at call boundaries.
    save_restore_events: float = 0.0
    per_function_spills: dict[str, int] = field(default_factory=dict)

    @property
    def total_memory_events(self) -> float:
        return self.spill_events + self.save_restore_events


def measure_pressure(
    module: ILModule, profile: ProfileData, k: int = 16
) -> PressureReport:
    """Allocate every function and weight the outcome by the profile."""
    report = PressureReport(k)
    allocations = allocate_module(module, k)
    for name, allocation in allocations.items():
        report.total_spilled_registers += allocation.spill_count
        report.per_function_spills[name] = allocation.spill_count
        weight = profile.node_weight(name)
        report.spill_events += weight * allocation.spill_cost()
    # Save/restore: per dynamic call, the convention moves
    # min(K, registers the callee actually uses) registers to memory
    # and back (callee-saved discipline).
    for name, allocation in allocations.items():
        calls_into = profile.node_weight(name)
        report.save_restore_events += (
            2 * calls_into * min(k, allocation.registers_used)
        )
    return report


def pressure_experiment(
    module: ILModule,
    specs: list[RunSpec],
    ks: tuple[int, ...] = (8, 16, 32),
    params: InlineParameters | None = None,
) -> list[tuple[int, PressureReport, PressureReport]]:
    """(K, before, after) pressure reports across register-file sizes.

    Expected shape: inlining trades save/restore traffic (large before,
    tiny after) for extra spills (small before, moderate after), with a
    large net win for realistic K — the software counterpart of the
    paper's "register windows become unnecessary" claim.
    """
    working = module.clone()
    optimize_module(working)
    run = run_pipeline(
        working, specs, params, optimize_after=True, check_exit=False
    )

    results = []
    for k in ks:
        before = measure_pressure(working, run.profile, k)
        after = measure_pressure(run.inline.module, run.post_profile, k)
        results.append((k, before, after))
    return results
