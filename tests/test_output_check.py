"""The output check: a digest diff over the two profiling passes.

``run_benchmark`` no longer runs any input a third or fourth time to
compare outputs. Each profiling run records an output digest, and only
inputs whose digests differ are re-run through ``compare_outputs`` to
describe the divergence. These tests pin the execution count and show
that the divergence messages are exactly what ``compare_outputs``
reports when it runs every input itself.
"""

import pytest

from repro.compiler import compile_program
from repro.experiments.pipeline import (
    compare_outputs,
    diff_outputs,
    run_benchmark,
)
from repro.inliner.manager import InlineExpander
from repro.observability import Observability
from repro.pipeline.session import CompilationSession
from repro.profiler.profile import RunSpec, output_digest, profile_module, run_once
from repro.profiler.serialize import dump_profile, load_profile
from repro.vm.machine import Machine
from repro.workloads.suite import Benchmark, benchmark_by_name

#: Copies stdin to stdout and to ``out.txt``.
ORIGINAL = """\
#include <sys.h>
int main(void)
{
    int fd = open("out.txt", O_WRITE);
    int c = getchar();
    while (c != EOF) {
        putchar(c);
        fputc(c, fd);
        c = getchar();
    }
    close(fd);
    return 0;
}
"""

#: Behaves like ORIGINAL except where the first input byte asks for a
#: divergence: 's' extra stdout, 'm' no out.txt, 'e' an extra file,
#: 'd' a different out.txt byte, 'q' exit code 3.
MUTANT = """\
#include <sys.h>
int main(void)
{
    int first = getchar();
    int c = first;
    int fd = EOF;
    if (first != 'm')
        fd = open("out.txt", O_WRITE);
    if (first == 'e') {
        int extra = open("extra.txt", O_WRITE);
        fputc('!', extra);
        close(extra);
    }
    while (c != EOF) {
        putchar(c);
        if (fd != EOF) {
            if (first == 'd' && c == 'z')
                fputc('Z', fd);
            else
                fputc(c, fd);
        }
        c = getchar();
    }
    if (first == 's')
        putchar('+');
    if (fd != EOF)
        close(fd);
    if (first == 'q')
        return 3;
    return 0;
}
"""

#: Every input exits 0 on both programs, so profiling accepts them.
SPECS = [
    RunSpec(stdin=b"hello"),
    RunSpec(stdin=b"sxyz"),
    RunSpec(stdin=b"mab"),
    RunSpec(stdin=b"abc"),
    RunSpec(stdin=b"ezz"),
    RunSpec(stdin=b"dz", label="probe"),
    RunSpec(stdin=b"dzz"),
]


class _RunCounter:
    """Counts ``Machine.run`` calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = Machine.run

        def run(machine):
            self.calls += 1
            return original(machine)

        monkeypatch.setattr(Machine, "run", run)


def _planted(monkeypatch):
    """Make the inliner hand back MUTANT instead of the inlined module."""
    original = InlineExpander.run

    def run(expander):
        result = original(expander)
        result.module = compile_program(MUTANT)
        return result

    monkeypatch.setattr(InlineExpander, "run", run)


def _today(specs):
    """What compare_outputs reports when it runs every input itself."""
    return compare_outputs(
        compile_program(ORIGINAL), compile_program(MUTANT), specs
    ).divergences


class TestExecutionCount:
    @pytest.mark.parametrize("name", ["cmp", "tee"])
    def test_each_input_runs_once_per_module(self, monkeypatch, name):
        benchmark = benchmark_by_name(name)
        counter = _RunCounter(monkeypatch)
        obs = Observability.create()
        result = run_benchmark(benchmark, "small", obs=obs)
        assert result.outputs_match
        assert counter.calls == 2 * len(benchmark.make_runs("small"))
        assert result.vm_runs == counter.calls
        assert len(result.profile.outputs) == result.runs
        assert result.profile.outputs == result.post_profile.outputs

    def test_vm_runs_needs_metrics(self):
        result = run_benchmark(benchmark_by_name("wc"), "small")
        assert result.vm_runs is None


class TestPlantedDivergence:
    def test_messages_match_compare_outputs(self, monkeypatch):
        _planted(monkeypatch)
        counter = _RunCounter(monkeypatch)
        benchmark = Benchmark("planted", ORIGINAL, "planted", lambda _s: SPECS)
        obs = Observability.create()
        result = run_benchmark(benchmark, "small", obs=obs)
        # Two profiling passes, plus both modules on the five suspects.
        assert counter.calls == 2 * len(SPECS) + 2 * 5
        assert result.vm_runs == counter.calls
        assert not result.outputs_match
        assert result.output_divergences == _today(SPECS)
        assert result.output_divergences == [
            "input 1: stdout differs at byte 4 (lengths 4 vs 5)",
            "input 2: written files differ: out.txt missing after inlining",
            "input 4: written files differ: extra.txt only written after"
            " inlining",
            "probe: written files differ: out.txt content differs at byte 1",
            "input 6: written files differ: out.txt content differs at byte 1",
        ]

    def test_exit_code_divergence(self):
        # Profiling rejects a non-zero exit inside run_benchmark, so the
        # exit-code channel is checked on diff_outputs directly.
        specs = [RunSpec(stdin=b"abc"), RunSpec(stdin=b"xy"), RunSpec(stdin=b"qa")]
        original = compile_program(ORIGINAL)
        mutant = compile_program(MUTANT)
        comparison = diff_outputs(
            original,
            mutant,
            specs,
            profile_module(original, specs, check_exit=False),
            profile_module(mutant, specs, check_exit=False),
        )
        assert comparison.divergences == _today(specs)
        assert comparison.divergences == ["input 2: exit code 0 != 3"]
        assert comparison.rechecked == 1

    def test_profiles_without_digests_recheck_every_input(self):
        original = compile_program(ORIGINAL)
        mutant = compile_program(MUTANT)
        loaded = load_profile(dump_profile(profile_module(original, SPECS)))
        assert loaded.outputs is None
        comparison = diff_outputs(
            original, mutant, SPECS, loaded, profile_module(mutant, SPECS)
        )
        assert comparison.rechecked == len(SPECS)
        assert comparison.divergences == _today(SPECS)

    def test_matching_digests_run_nothing(self, monkeypatch):
        module = compile_program(ORIGINAL)
        profile = profile_module(module, SPECS)
        counter = _RunCounter(monkeypatch)
        comparison = diff_outputs(module, module, SPECS, profile, profile)
        assert comparison.matches and comparison.rechecked == 0
        assert counter.calls == 0


class TestDigest:
    def test_digest_covers_every_compared_channel(self):
        module = compile_program(ORIGINAL)
        mutant = compile_program(MUTANT)
        for spec in SPECS[1:3] + SPECS[4:]:
            assert output_digest(run_once(module, spec)) != output_digest(
                run_once(mutant, spec)
            )
        for spec in (SPECS[0], SPECS[3]):
            assert output_digest(run_once(module, spec)) == output_digest(
                run_once(mutant, spec)
            )

    @pytest.mark.parametrize("name", ["wc", "cmp", "tee"])
    def test_engines_record_identical_digests(self, name):
        benchmark = benchmark_by_name(name)
        module = benchmark.compile()
        specs = benchmark.make_runs("small")
        counting = profile_module(module, specs, engine="counting")
        fast = profile_module(module, specs, engine="fast")
        assert counting.outputs == fast.outputs
        assert len(set(counting.outputs)) > 1


class TestSessionServedCheck:
    def test_cold_then_warm_disk_store(self, tmp_path, monkeypatch):
        benchmark = benchmark_by_name("cmp")
        runs = len(benchmark.make_runs("small"))
        cache_dir = str(tmp_path / "cache")
        counter = _RunCounter(monkeypatch)
        cold = run_benchmark(
            benchmark, "small", session=CompilationSession(cache_dir=cache_dir)
        )
        assert counter.calls == 2 * runs
        counter.calls = 0
        # A fresh session only has the disk store to go on.
        warm = run_benchmark(
            benchmark, "small", session=CompilationSession(cache_dir=cache_dir)
        )
        assert counter.calls == 0
        for result in (cold, warm):
            assert result.outputs_match
            assert len(result.profile.outputs) == runs
            assert result.post_profile.outputs == result.profile.outputs
