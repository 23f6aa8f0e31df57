"""The unit the §3 inline-expansion phases run as, and pass timing.

:class:`~repro.inliner.manager.InlineExpander` runs its six phases
(``callgraph → classify → linearize → select → expand → cleanup``) in
order, each a :class:`ModulePass` over one shared :class:`PassContext`.
Both they and the five optimizer passes of :mod:`repro.opt.pipeline`
run through :func:`run_timed`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.observability import NULL_OBS, Observability


def run_timed(name: str, fn: Callable[[Any], int], arg, metrics) -> int:
    """Run one pass invocation ``fn(arg)`` and return its change count.

    With live ``metrics`` its wall time goes to the
    ``pipeline.pass.<name>.seconds`` histogram and a non-zero count to
    the ``pipeline.pass.<name>.changes`` counter.
    """
    if not metrics.enabled:
        return fn(arg)
    start = time.perf_counter()
    count = fn(arg)
    metrics.observe(f"pipeline.pass.{name}.seconds", time.perf_counter() - start)
    if count:
        metrics.inc(f"pipeline.pass.{name}.changes", count)
    return count


@dataclass
class PassContext:
    """Everything a phase may need, plus the inter-phase scratch state.

    Phases communicate through ``state``: the callgraph phase deposits
    ``state["graph"]``, linearization ``state["sequence"]``, selection
    ``state["selection"]``, expansion ``state["records"]``, and cleanup
    ``state["removed"]`` — mirroring the §3 dataflow.
    """

    module: Any = None
    profile: Any = None
    params: Any = None
    seed: int = 0
    linearize_method: str = "hybrid"
    obs: Observability = field(default_factory=lambda: NULL_OBS)
    state: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ModulePass:
    """One named phase over the whole module and the shared context."""

    name: str
    fn: Callable[[PassContext], int]

    def run(self, ctx: PassContext) -> int:
        """Apply the phase; return the number of changes made."""
        return self.fn(ctx)
