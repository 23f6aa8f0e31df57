"""Tests for the two fixed pass sequences: the optimizer's five-pass
fixpoint loop and the inliner's six §3 phases."""

import pytest

from repro.compiler import compile_program
from repro.errors import ILError
from repro.experiments.pipeline import run_suite
from repro.il.printer import format_module
from repro.inliner import manager as inline_manager
from repro.inliner.manager import PHASES, InlineExpander
from repro.inliner.params import InlineParameters
from repro.observability import Observability
from repro.observability.bench import pass_timings
from repro.opt import optimize_function, optimize_module
from repro.opt.pipeline import MAX_ROUNDS, PASSES
from repro.pipeline import ModulePass, PassContext
from repro.profiler.profile import RunSpec, profile_module

SOURCE = """
#include <sys.h>
int square(int x) { return x * x; }
int add(int a, int b) { return a + b; }
int main(void) {
    int i; int total = 0;
    for (i = 0; i < 50; i = i + 1) total = add(total, square(i));
    print_int(total); putchar(10);
    return 0;
}
"""

OPT_PASSES = [
    "constant-fold", "copy-propagate", "cse", "jump-optimize", "dead-code",
]
PHASE_NAMES = ["callgraph", "classify", "linearize", "select", "expand", "cleanup"]


def _fresh_module():
    return compile_program(SOURCE, "passmanager_test.c")


class TestFunctionPipeline:
    def test_five_pass_order(self):
        assert [name for name, _ in PASSES] == OPT_PASSES
        assert MAX_ROUNDS == 8

    def test_optimize_function_matches_optimize_module(self):
        reference = _fresh_module()
        stats_ref = optimize_module(reference)

        per_function = _fresh_module()
        by_pass: dict[str, int] = {}
        rounds = 0
        for function in per_function.functions.values():
            stats = optimize_function(function)
            rounds = max(rounds, stats.rounds)
            for name, count in stats.by_pass.items():
                by_pass[name] = by_pass.get(name, 0) + count

        assert format_module(per_function) == format_module(reference)
        assert by_pass == stats_ref.by_pass
        assert list(stats_ref.by_pass) == OPT_PASSES
        assert rounds == stats_ref.rounds

    def test_fixpoint_is_idempotent(self):
        module = _fresh_module()
        assert optimize_module(module).total_changes > 0
        again = optimize_module(module)
        assert again.total_changes == 0
        assert again.rounds == 1

    def test_per_pass_metrics_reported(self):
        obs = Observability.create()
        module = _fresh_module()
        stats = optimize_module(module, obs=obs)
        snapshot = obs.metrics.snapshot()
        for name in OPT_PASSES:
            assert f"pipeline.pass.{name}.seconds" in snapshot["histograms"]
            assert snapshot["counters"].get(f"opt.changes.{name}", 0) == (
                stats.by_pass[name]
            )
        assert snapshot["counters"]["opt.modules_optimized"] == 1


class TestInlinePhases:
    def test_phases_populate_context_state(self):
        assert [phase.name for phase in PHASES] == PHASE_NAMES
        module = _fresh_module()
        profile = profile_module(module, [RunSpec()])
        ctx = PassContext(
            module=module.clone(), profile=profile, params=InlineParameters()
        )
        for phase in PHASES:
            phase.run(ctx)
        assert "graph" in ctx.state
        assert "main" in ctx.state["sequence"]
        assert ctx.state["selection"].selected
        assert ctx.state["records"]

    def test_expander_equivalent_to_manual_phases(self):
        module = _fresh_module()
        profile = profile_module(module, [RunSpec()])
        ctx = PassContext(
            module=module.clone(), profile=profile, params=InlineParameters()
        )
        for phase in PHASES:
            phase.run(ctx)
        result = InlineExpander(module, profile).run()
        assert format_module(result.module) == format_module(ctx.module)
        assert result.module.total_code_size() == result.final_size
        # Each phase runs in its inline.<phase> span, with the
        # historical attributes.
        obs = Observability.create()
        InlineExpander(module, profile, obs=obs).run()
        spans = {
            r["name"]: r.get("attrs", {})
            for r in obs.tracer.records
            if r["type"] == "span"
        }
        for name in PHASE_NAMES:
            assert f"inline.{name}" in spans
        assert spans["inline.linearize"] == {"method": "hybrid"}
        assert spans["inline.expand"] == {"expansions": len(result.records)}
        assert spans["inline.cleanup"] == {
            "removed_functions": len(result.removed_functions)
        }

    def test_check_verifies_after_every_phase(self):
        module = _fresh_module()
        profile = profile_module(module, [RunSpec()])
        obs = Observability.create()
        InlineExpander(module, profile, check=True, obs=obs).run()
        assert obs.metrics.counters["verify.pass_checks"] == len(PHASES)
        checked = [
            r["attrs"]["pass_name"]
            for r in obs.tracer.records
            if r["type"] == "span" and r["name"] == "verify.after_pass"
        ]
        assert checked == PHASE_NAMES

    def test_check_names_the_phase_that_breaks_il(self, monkeypatch):
        def vandalize(ctx):
            ctx.module.functions["main"].body.clear()  # falls off the end
            return 1

        planted = PHASES[:5] + (ModulePass("vandal", vandalize),) + PHASES[5:]
        monkeypatch.setattr(inline_manager, "PHASES", planted)
        module = _fresh_module()
        profile = profile_module(module, [RunSpec()])
        with pytest.raises(ILError, match="after pass 'vandal'"):
            InlineExpander(module, profile, check=True).run()
        # Without --check the final verification still rejects the
        # module, but cannot say which phase broke it.
        with pytest.raises(ILError) as info:
            InlineExpander(module, profile).run()
        assert "vandal" not in str(info.value)


class TestPassTimings:
    def test_pass_timings_names_after_suite_run(self):
        obs = Observability.create()
        run_suite("small", names=["wc"], obs=obs)
        assert set(pass_timings(obs.metrics)) == set(OPT_PASSES + PHASE_NAMES)
