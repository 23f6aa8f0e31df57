"""Multi-run profiling of IL modules."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.il.module import ILModule
from repro.observability import Observability, resolve
from repro.vm.counters import Counters
from repro.vm.machine import Machine, RunResult
from repro.vm.os import VirtualOS


@dataclass
class RunSpec:
    """One profiling input: stdin bytes, a file system, and argv."""

    stdin: bytes = b""
    files: dict[str, bytes] = field(default_factory=dict)
    argv: list[str] = field(default_factory=list)
    #: Free-form tag, used in experiment logs.
    label: str = ""

    def make_os(self) -> VirtualOS:
        return VirtualOS(stdin=self.stdin, files=dict(self.files), argv=list(self.argv))


@dataclass
class ProfileData:
    """Averaged dynamic statistics over a set of runs.

    ``node_weights`` maps function names to expected execution counts
    per typical run; ``arc_weights`` maps static call-site ids to
    expected invocation counts — exactly the weighted-call-graph inputs
    of §2.2. Totals over all runs are kept in ``total``.

    ``outputs`` holds one :func:`output_digest` per run, in input
    order, so two profiles over the same inputs can be checked for
    equal program outputs without running anything again. It is
    ``None`` for profiles that were not measured here (loaded from a
    file, or estimated statically).
    """

    runs: int
    total: Counters
    node_weights: dict[str, float] = field(default_factory=dict)
    arc_weights: dict[int, float] = field(default_factory=dict)
    outputs: list[str] | None = None

    @property
    def avg_il(self) -> float:
        return self.total.il / self.runs if self.runs else 0.0

    @property
    def avg_ct(self) -> float:
        return self.total.ct / self.runs if self.runs else 0.0

    @property
    def avg_calls(self) -> float:
        return self.total.calls / self.runs if self.runs else 0.0

    def node_weight(self, name: str) -> float:
        return self.node_weights.get(name, 0.0)

    def arc_weight(self, site: int) -> float:
        return self.arc_weights.get(site, 0.0)

    @classmethod
    def from_counters(
        cls, total: Counters, runs: int, outputs: list[str] | None = None
    ) -> "ProfileData":
        profile = cls(runs=runs, total=total, outputs=outputs)
        divisor = runs if runs else 1
        profile.node_weights = {
            name: count / divisor for name, count in total.func_counts.items()
        }
        profile.arc_weights = {
            site: count / divisor for site, count in total.site_counts.items()
        }
        return profile


def output_digest(result: RunResult) -> str:
    """A sha256 over the exit code, stdout and written files of a run.

    These are the channels
    :func:`~repro.experiments.pipeline.compare_outputs` compares; stderr
    is left out. Files go in sorted by path, and every chunk is prefixed
    by its length, so no two different outputs frame to the same bytes.
    """
    digest = hashlib.sha256()

    def chunk(data: bytes) -> None:
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)

    chunk(str(result.exit_code).encode())
    chunk(bytes(result.os.stdout))
    files = result.os.written_files
    for path in sorted(files):
        chunk(path.encode())
        chunk(files[path])
    return digest.hexdigest()


def run_once(
    module: ILModule,
    spec: RunSpec | None = None,
    fuel: int = 2_000_000_000,
    collect_branches: bool = False,
    obs: Observability | None = None,
    engine: str = "counting",
) -> RunResult:
    """Execute ``module`` once under ``spec`` and return the result."""
    obs = resolve(obs)
    os = spec.make_os() if spec is not None else VirtualOS()
    machine = Machine(
        module,
        os,
        fuel=fuel,
        collect_branches=collect_branches,
        metrics=obs.metrics if obs.metrics.enabled else None,
        engine=engine,
    )
    return machine.run()


def profile_module(
    module: ILModule,
    specs: list[RunSpec],
    fuel: int = 2_000_000_000,
    check_exit: bool = True,
    obs: Observability | None = None,
    engine: str = "counting",
) -> ProfileData:
    """Profile ``module`` over every input in ``specs``.

    Each run's :func:`output_digest` is kept in ``outputs``, so the
    profile doubles as a record of what the program printed and wrote.
    Raises RuntimeError when a run exits non-zero and ``check_exit`` is
    set, because a crashed run would silently poison the weights.
    """
    if not specs:
        raise ValueError("profiling requires at least one input")
    obs = resolve(obs)
    total = Counters()
    outputs: list[str] = []
    with obs.tracer.span("profile.module", runs=len(specs)):
        for index, spec in enumerate(specs):
            label = spec.label or f"run {index}"
            with obs.tracer.span("profile.run", label=label) as attrs:
                result = run_once(
                    module, spec, fuel=fuel, obs=obs, engine=engine
                )
                attrs["exit_code"] = result.exit_code
                attrs["il"] = result.counters.il
                attrs["calls"] = result.counters.calls
            if check_exit and result.exit_code != 0:
                raise RuntimeError(
                    f"profiling input {label!r} exited with {result.exit_code};"
                    f" stderr: {result.os.stderr_text()[:200]!r}"
                )
            total.merge(result.counters)
            outputs.append(output_digest(result))
    if obs.metrics.enabled:
        obs.metrics.inc("profiler.runs", len(specs))
    return ProfileData.from_counters(total, len(specs), outputs)
