"""The inline expansion driver (§3).

Ties the phases together, on a *copy* of the input module:

1. profile-weighted call graph construction,
2. linearization (sort functions by execution count),
3. expansion-site selection via the cost function,
4. physical expansion in linear order (each function's expansions are
   finished before any function later in the sequence starts, so the
   most recent definition of every callee can be cached — our in-memory
   modules make the paper's write-back definition cache implicit),
5. conservative unreachable-function elimination.

Each phase is a :class:`~repro.pipeline.passes.ModulePass` in
:data:`PHASES`; :meth:`InlineExpander.run` applies them in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.callgraph.build import build_call_graph
from repro.callgraph.graph import ArcStatus, CallGraph
from repro.callgraph.reachability import eliminate_unreachable
from repro.errors import ILError, InlineError
from repro.il.module import ILModule
from repro.il.verifier import verify_module
from repro.inliner.classify import ClassifiedSites, classify_sites
from repro.inliner.expand import ExpansionRecord, expand_call_site
from repro.inliner.linearize import linearize
from repro.inliner.params import InlineParameters
from repro.inliner.select import SelectionResult, select_sites
from repro.observability import Observability, resolve
from repro.observability.audit import InlineDecision
from repro.pipeline.passes import ModulePass, PassContext, run_timed
from repro.profiler.profile import ProfileData


def _phase_callgraph(ctx: PassContext) -> int:
    ctx.state["graph"] = build_call_graph(ctx.module, ctx.profile, obs=ctx.obs)
    return 0


def _phase_classify(ctx: PassContext) -> int:
    ctx.state["classified"] = classify_sites(
        ctx.module, ctx.state["graph"], ctx.profile, ctx.params
    )
    return 0


def _phase_linearize(ctx: PassContext) -> int:
    ctx.state["sequence"] = linearize(
        ctx.module, ctx.profile, ctx.seed, ctx.linearize_method
    )
    return 0


def _phase_select(ctx: PassContext) -> int:
    selection = select_sites(
        ctx.module,
        ctx.state["graph"],
        ctx.profile,
        ctx.state["sequence"],
        ctx.params,
        seed=ctx.seed,
        obs=ctx.obs,
    )
    ctx.state["selection"] = selection
    return len(selection.selected)


def _phase_expand(ctx: PassContext) -> int:
    # Physical expansion follows the linear sequence: every selected
    # arc whose caller is the current function is expanded, so each
    # callee is final before anyone inlines it (minimal expansions,
    # §2.7).
    by_caller: dict[str, list] = {}
    for arc in ctx.state["selection"].selected:
        by_caller.setdefault(arc.caller, []).append(arc)
    records = ctx.state.setdefault("records", [])
    for name in ctx.state["sequence"]:
        for arc in by_caller.get(name, ()):
            records.append(expand_call_site(ctx.module, arc.caller, arc.site))
            arc.status = ArcStatus.EXPANDED
    # Snapshot the post-expansion size before cleanup removes
    # unreachable bodies: this is the number the selection's
    # projected_size must reproduce exactly.
    ctx.state["pre_cleanup_size"] = ctx.module.total_code_size()
    return len(records)


def _phase_cleanup(ctx: PassContext) -> int:
    removed = eliminate_unreachable(ctx.module, build_call_graph(ctx.module))
    ctx.state["removed"] = removed
    return len(removed)


#: The §3 phases in the order :meth:`InlineExpander.run` applies them.
PHASES = (
    ModulePass("callgraph", _phase_callgraph),
    ModulePass("classify", _phase_classify),
    ModulePass("linearize", _phase_linearize),
    ModulePass("select", _phase_select),
    ModulePass("expand", _phase_expand),
    ModulePass("cleanup", _phase_cleanup),
)

#: The ``inline.<phase>`` span attribute that records a phase's count.
_COUNT_ATTRS = {"expand": "expansions", "cleanup": "removed_functions"}


def _verify_after(phase: ModulePass, ctx: PassContext, obs: Observability) -> None:
    """Re-verify IL well-formedness after one phase (``--check``).

    Any :class:`~repro.errors.ILError` raised here names the phase that
    broke the invariant, so transformation bugs are pinned to the phase
    that introduced them rather than surfacing later.
    """
    with obs.tracer.span("verify.after_pass", pass_name=phase.name):
        try:
            verify_module(ctx.module)
        except ILError as error:
            raise ILError(
                f"IL verification failed after pass {phase.name!r}: {error}"
            ) from error
    if obs.metrics.enabled:
        obs.metrics.inc("verify.pass_checks")


@dataclass
class InlineResult:
    """Everything the expansion produced, plus the numbers Table 4 needs."""

    module: ILModule
    graph: CallGraph
    sequence: list[str]
    selection: SelectionResult
    classified: ClassifiedSites
    records: list[ExpansionRecord] = field(default_factory=list)
    removed_functions: list[str] = field(default_factory=list)
    original_size: int = 0
    final_size: int = 0
    #: Code size right after physical expansion, before unreachable
    #: bodies are cleaned up — the number ``selection.projected_size``
    #: must reproduce exactly (asserted by :class:`InlineExpander`).
    pre_cleanup_size: int = 0

    @property
    def code_increase(self) -> float:
        """Static code growth fraction (Table 4's *code inc*)."""
        if self.original_size == 0:
            return 0.0
        return (self.final_size - self.original_size) / self.original_size

    @property
    def expanded_sites(self) -> set[int]:
        return {record.site for record in self.records}

    @property
    def decisions(self) -> list[InlineDecision]:
        """The audit log: one reason-coded record per considered arc."""
        return self.selection.decisions


class InlineExpander:
    """Runs the complete §3 pipeline on a copy of the module."""

    def __init__(
        self,
        module: ILModule,
        profile: ProfileData,
        params: InlineParameters | None = None,
        seed: int = 0,
        linearize_method: str = "hybrid",
        check: bool = False,
        obs: Observability | None = None,
    ):
        self._input = module
        self._profile = profile
        self._params = params or InlineParameters()
        self._seed = seed
        self._check = check
        self._linearize_method = linearize_method
        self._obs = resolve(obs)

    def run(self) -> InlineResult:
        obs = self._obs
        tracer = obs.tracer
        module = self._input.clone()
        original_size = module.total_code_size()

        ctx = PassContext(
            module=module,
            profile=self._profile,
            params=self._params,
            seed=self._seed,
            linearize_method=self._linearize_method,
            obs=obs,
        )
        for phase in PHASES:
            with tracer.span(f"inline.{phase.name}") as attrs:
                if phase.name == "linearize":
                    attrs["method"] = ctx.linearize_method
                count = run_timed(phase.name, phase.run, ctx, obs.metrics)
                if phase.name in _COUNT_ATTRS:
                    attrs[_COUNT_ATTRS[phase.name]] = count
            if self._check:
                _verify_after(phase, ctx, obs)
        graph = ctx.state["graph"]
        classified = ctx.state["classified"]
        sequence = ctx.state["sequence"]
        selection = ctx.state["selection"]
        records: list[ExpansionRecord] = ctx.state["records"]
        removed: list[str] = ctx.state["removed"]
        pre_cleanup_size = ctx.state["pre_cleanup_size"]
        self._reconcile(selection, records, original_size, pre_cleanup_size, obs)
        with tracer.span("inline.verify"):
            verify_module(module)
        if obs.enabled:
            obs.metrics.inc("inliner.expansions_performed", len(records))
            obs.metrics.inc("inliner.functions_removed", len(removed))
            obs.metrics.observe(
                "inliner.code_growth",
                (module.total_code_size() - original_size) / original_size
                if original_size
                else 0.0,
            )
        return InlineResult(
            module=module,
            graph=graph,
            sequence=sequence,
            selection=selection,
            classified=classified,
            records=records,
            removed_functions=removed,
            original_size=original_size,
            final_size=module.total_code_size(),
            pre_cleanup_size=pre_cleanup_size,
        )

    @staticmethod
    def _reconcile(
        selection: SelectionResult,
        records: list[ExpansionRecord],
        original_size: int,
        pre_cleanup_size: int,
        obs: Observability,
    ) -> None:
        """Assert the cost model's bookkeeping matches physical reality.

        Two exact identities must hold after every run (no epsilon):
        the selection's projected program size equals the measured
        post-expansion code size, and the per-record instruction deltas
        sum to the same growth. A violation means the cost model and
        :func:`~repro.inliner.expand.expand_call_site` have drifted
        apart — the silent-contract bug this check exists to catch.
        """
        recorded_growth = sum(record.added_instructions for record in records)
        if original_size + recorded_growth != pre_cleanup_size:
            raise InlineError(
                "expansion records do not reconcile: original size"
                f" {original_size} + recorded growth {recorded_growth}"
                f" != measured post-expansion size {pre_cleanup_size}"
            )
        if selection.projected_size != pre_cleanup_size:
            raise InlineError(
                "cost model drifted from physical expansion:"
                f" projected size {selection.projected_size}"
                f" != measured post-expansion size {pre_cleanup_size}"
                f" ({len(records)} expansions from size {original_size})"
            )
        if obs.enabled:
            obs.metrics.inc("inliner.reconciliations")
            obs.tracer.event(
                "inline.reconcile",
                projected_size=selection.projected_size,
                measured_size=pre_cleanup_size,
                expansions=len(records),
            )


def inline_module(
    module: ILModule,
    profile: ProfileData,
    params: InlineParameters | None = None,
    seed: int = 0,
    linearize_method: str = "hybrid",
    check: bool = False,
    obs: Observability | None = None,
) -> InlineResult:
    """One-call convenience wrapper around :class:`InlineExpander`."""
    return InlineExpander(
        module,
        profile,
        params,
        seed,
        linearize_method=linearize_method,
        check=check,
        obs=obs,
    ).run()
