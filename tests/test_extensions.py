"""Tests for the paper's extension features: tail-recursion
elimination (§2.2), pointer-callee refinement (§2.5), and the
instruction-cache substrate (§5)."""

import pytest

from repro.callgraph import analyze_pointer_calls, build_call_graph
from repro.callgraph.graph import POINTER_NODE
from repro.compiler import compile_program
from repro.il.verifier import verify_module
from repro.opt import eliminate_tail_recursion, eliminate_tail_recursion_module
from repro.icache import InstructionCache, icache_experiment
from repro.profiler.profile import RunSpec, run_once
from repro.vm.machine import Machine
from repro.vm.os import VirtualOS


class TestTailRecursion:
    def test_gcd_rewritten_and_correct(self):
        module = compile_program(
            "#include <sys.h>\n"
            "int gcd(int a, int b) { if (b == 0) return a;"
            " return gcd(b, a % b); }\n"
            "int main(void) { print_int(gcd(462, 1071)); return 0; }"
        )
        before = run_once(module).stdout
        rewrites = eliminate_tail_recursion_module(module)
        verify_module(module)
        assert rewrites == 1
        assert run_once(module).stdout == before == "21"

    def test_calls_eliminated(self):
        module = compile_program(
            "int down(int n) { if (n == 0) return 0; return down(n - 1); }\n"
            "int main(void) { return down(100); }"
        )
        baseline_calls = run_once(module).counters.calls
        eliminate_tail_recursion_module(module)
        assert run_once(module).counters.calls < baseline_calls / 10

    def test_deep_recursion_no_longer_overflows(self):
        module = compile_program(
            "int count(int n, int acc) { if (n == 0) return acc;"
            " return count(n - 1, acc + 1); }\n"
            "int main(void) { return count(300000, 0) == 300000 ? 0 : 1; }"
        )
        eliminate_tail_recursion_module(module)
        assert run_once(module, fuel=50_000_000).exit_code == 0

    def test_void_tail_call(self):
        module = compile_program(
            "#include <sys.h>\n"
            "void spin(int n) { if (n <= 0) return; putchar('.'); spin(n - 1); }\n"
            "int main(void) { spin(4); return 0; }"
        )
        eliminate_tail_recursion_module(module)
        verify_module(module)
        assert run_once(module).stdout == "...."

    def test_argument_swap_is_safe(self):
        # f(b, a): naive param assignment would clobber; shadows must
        # preserve the simultaneous-assignment semantics.
        module = compile_program(
            "#include <sys.h>\n"
            "int swap_walk(int a, int b) { if (a == 0) return b;"
            " return swap_walk(b - 1, a); }\n"
            "int main(void) { print_int(swap_walk(5, 9)); return 0; }"
        )
        before = run_once(module).stdout
        eliminate_tail_recursion_module(module)
        assert run_once(module).stdout == before

    def test_non_tail_recursion_untouched(self):
        module = compile_program(
            "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\n"
            "int main(void) { return fact(5) == 120 ? 0 : 1; }"
        )
        assert eliminate_tail_recursion_module(module) == 0
        assert run_once(module).exit_code == 0

    def test_idempotent(self):
        module = compile_program(
            "int down(int n) { if (n == 0) return 0; return down(n - 1); }\n"
            "int main(void) { return down(10); }"
        )
        eliminate_tail_recursion_module(module)
        again = eliminate_tail_recursion(module.functions["down"])
        assert again == 0
        verify_module(module)

    def test_benchmark_survives_pass(self):
        from repro.workloads import benchmark_by_name

        benchmark = benchmark_by_name("make")  # recursive build()
        module = benchmark.compile()
        spec = benchmark.make_runs("small")[0]
        before = run_once(module, spec).stdout
        eliminate_tail_recursion_module(module)
        verify_module(module)
        assert run_once(module, spec).stdout == before


POINTER_PROGRAM = """
#include <sys.h>
int unary(int x) { return x; }
int binary(int a, int b) { return a + b; }
int hidden(int x) { return x; }
int main(void) {
    int (*p)(int v) = unary;
    int (*q)(int a, int b) = binary;
    putchar('x');
    return p(1) + q(1, 2) + hidden(0);
}
"""


class TestPointerAnalysis:
    def test_arity_narrowing(self):
        module = compile_program(POINTER_PROGRAM, link_libc=False)
        summary = analyze_pointer_calls(module)
        sets = sorted(
            tuple(sorted(s)) for s in summary.callees_by_site.values()
        )
        assert sets == [("binary",), ("unary",)]

    def test_non_address_taken_excluded(self):
        module = compile_program(POINTER_PROGRAM, link_libc=False)
        summary = analyze_pointer_calls(module)
        assert "hidden" not in summary.all_targets
        assert "main" not in summary.all_targets

    def test_refined_graph_smaller_than_worst_case(self):
        module = compile_program(POINTER_PROGRAM, link_libc=False)
        worst = build_call_graph(module)
        refined = build_call_graph(module, refine_pointers=True)
        assert refined.successors(POINTER_NODE) < worst.successors(POINTER_NODE)

    def test_refinement_keeps_actual_targets(self):
        module = compile_program(POINTER_PROGRAM, link_libc=False)
        refined = build_call_graph(module, refine_pointers=True)
        assert {"unary", "binary"} <= refined.successors(POINTER_NODE)

    def test_externals_flag(self):
        module = compile_program(POINTER_PROGRAM, link_libc=False)
        summary = analyze_pointer_calls(module)
        assert summary.may_reach_external  # putchar is declared external


class TestInstructionCache:
    def test_direct_mapped_conflict(self):
        cache = InstructionCache(64, 16, 1)  # 4 sets
        assert not cache.access(0)  # miss
        assert cache.access(0)  # hit
        assert not cache.access(64)  # same set, evicts
        assert not cache.access(0)  # conflict miss

    def test_two_way_keeps_both(self):
        cache = InstructionCache(128, 16, 2)  # 4 sets, 2 ways
        cache.access(0)
        cache.access(64)
        assert cache.access(0)
        assert cache.access(64)

    def test_lru_eviction(self):
        cache = InstructionCache(128, 16, 2)
        cache.access(0)
        cache.access(64)
        cache.access(0)  # 64 is now LRU
        cache.access(128)  # evicts 64
        assert cache.access(0)
        assert not cache.access(64)

    def test_line_granularity(self):
        cache = InstructionCache(64, 16, 1)
        cache.access(0)
        assert cache.access(4)
        assert cache.access(12)
        assert cache.stats.misses == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            InstructionCache(100, 16, 1)
        with pytest.raises(ValueError):
            InstructionCache(64, 12, 1)

    def test_vm_trace_counts_match(self):
        module = compile_program(
            "#include <sys.h>\n"
            "int main(void) { int i; for (i = 0; i < 50; i++) putchar('x');"
            " return 0; }"
        )
        cache = InstructionCache(1024, 16, 1)
        result = Machine(module, VirtualOS(), icache=cache).run()
        assert cache.stats.accesses == result.counters.il

    def test_layouts_execute_identically(self):
        module = compile_program(
            "#include <sys.h>\n"
            "int h(int x) { return x * 3; }\n"
            "int main(void) { print_int(h(4)); return 0; }"
        )
        sequential = Machine(module, VirtualOS(), code_layout="sequential").run()
        scattered = Machine(module, VirtualOS(), code_layout="scattered").run()
        assert sequential.stdout == scattered.stdout
        assert sequential.counters.il == scattered.counters.il

    def test_experiment_reports_points(self):
        from repro.workloads import benchmark_by_name

        # Exact miss ratios: the experiment's profile → inline →
        # optimize sequence must not drift.
        expected = {
            "cmp": (0.07891472868217055, 0.0032016099524332237),
            "compress": (0.09064688916357644, 0.039361446294436345),
        }
        for name, (before, after) in expected.items():
            benchmark = benchmark_by_name(name)
            module = benchmark.compile()
            specs = benchmark.make_runs("small")[:1]
            points = icache_experiment(
                module, specs, configs=[(512, 16, 1)], seeds=(0, 1)
            )
            [point] = points
            assert (point.miss_before, point.miss_after) == (before, after)
