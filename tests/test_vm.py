"""Unit tests for the VM: counters, memory, traps, OS, builtins."""

import pytest

from repro.errors import ILError, VMTrap
from repro.compiler import compile_program
from repro.profiler.profile import RunSpec, run_once
from repro.vm.counters import Counters
from repro.vm.machine import Machine
from repro.vm.os import VirtualOS

from helpers import c_main, c_output, run_c


class TestCounters:
    def test_il_counts_real_instructions(self):
        result = run_c(c_main("print_int(1);"))
        assert result.counters.il > 0

    def test_ct_excludes_calls(self):
        # A straight-line program: the only CTs come from libc bodies
        # that never run, so zero control transfers in main itself.
        source = (
            "#include <sys.h>\n"
            "int main(void) { putchar('a'); return 0; }"
        )
        result = run_c(source, link_libc=False)
        assert result.counters.ct == 0
        assert result.counters.calls == 1

    def test_loop_counts_cts(self):
        source = (
            "#include <sys.h>\n"
            "int main(void) { int i; for (i = 0; i < 10; i++) ; return 0; }"
        )
        result = run_c(source, link_libc=False)
        # One cjump per iteration check (11 checks) + one jump per
        # iteration (10).
        assert result.counters.ct == 21

    def test_calls_and_returns_balance(self):
        result = run_c(c_main("print_int(strlen(\"abcd\"));"))
        assert result.counters.calls == result.counters.returns

    def test_site_counts_sum_to_calls(self):
        result = run_c(c_main("print_int(strlen(\"abcd\") + strlen(\"x\"));"))
        assert sum(result.counters.site_counts.values()) == result.counters.calls

    def test_func_counts_track_entries(self):
        source = c_main(
            "int i; for (i = 0; i < 7; i++) helper();",
            prelude="int calls = 0; void helper(void) { calls++; }",
        )
        result = run_c(source)
        assert result.counters.func_counts["helper"] == 7
        assert result.counters.func_counts["main"] == 1

    def test_branch_profiling_optional(self):
        module = compile_program(c_main("int i; for (i = 0; i < 3; i++) ;"))
        plain = Machine(module, VirtualOS()).run()
        assert plain.counters.branch_counts == {}
        profiled = Machine(module, VirtualOS(), collect_branches=True).run()
        assert profiled.counters.branch_counts
        taken = sum(pair[0] + pair[1] for pair in profiled.counters.branch_counts.values())
        assert taken > 0

    def test_merge_accumulates(self):
        a = Counters(il=10, ct=2, calls=1, site_counts={0: 1}, func_counts={"f": 1})
        b = Counters(il=5, ct=1, calls=2, site_counts={0: 2, 1: 1})
        a.merge(b)
        assert a.il == 15 and a.site_counts == {0: 3, 1: 1}
        assert a.func_counts == {"f": 1}

    def test_merge_all_fields(self):
        a = Counters(
            il=10,
            ct=2,
            calls=1,
            returns=1,
            func_counts={"f": 1},
            branch_counts={("f", 3): [2, 1]},
        )
        b = Counters(
            il=5,
            ct=1,
            calls=2,
            returns=2,
            func_counts={"f": 2, "g": 1},
            branch_counts={("f", 3): [1, 1], ("g", 0): [4, 0]},
        )
        a.merge(b)
        assert a.returns == 3
        assert a.func_counts == {"f": 3, "g": 1}
        assert a.branch_counts == {("f", 3): [3, 2], ("g", 0): [4, 0]}

    def test_merge_empty_is_identity(self):
        a = Counters(il=7, ct=3, calls=2, returns=2, site_counts={4: 9})
        before = (a.il, a.ct, a.calls, a.returns, dict(a.site_counts))
        a.merge(Counters())
        assert (a.il, a.ct, a.calls, a.returns, dict(a.site_counts)) == before

    def test_scaled_averages_every_field(self):
        total = Counters(
            il=100,
            ct=40,
            calls=20,
            returns=20,
            site_counts={0: 10, 1: 5},
            func_counts={"main": 4},
            branch_counts={("main", 2): [8, 4]},
        )
        avg = total.scaled(4)
        assert (avg.il, avg.ct, avg.calls, avg.returns) == (25, 10, 5, 5)
        assert avg.site_counts == {0: 2.5, 1: 1.25}
        assert avg.func_counts == {"main": 1.0}
        assert avg.branch_counts == {("main", 2): [2.0, 1.0]}
        # scaling never mutates the source counters
        assert total.il == 100 and total.site_counts == {0: 10, 1: 5}

    def test_to_summary_round_trips_scalars(self):
        counters = Counters(il=9, ct=4, calls=3, returns=2)
        summary = counters.to_summary()
        assert summary == {"il": 9, "ct": 4, "calls": 3, "returns": 2}
        import json

        assert json.loads(json.dumps(summary)) == summary


class TestMemory:
    def test_malloc_returns_distinct_regions(self):
        source = c_main(
            "char *a = malloc(10); char *b = malloc(10);"
            " a[0] = 'x'; b[0] = 'y'; print_int(a[0] != b[0]);"
            " print_int(a != b);"
        )
        assert c_output(source) == "11"

    def test_malloc_zeroed(self):
        assert c_output(c_main(
            "int *p = (int *)malloc(8); print_int(p[0] + p[1]);"
        )) == "0"

    def test_word_round_trip_negative(self):
        assert c_output(c_main(
            "int *p = (int *)malloc(4); *p = -123456; print_int(*p);"
        )) == "-123456"

    def test_byte_store_truncates(self):
        assert c_output(c_main(
            "char *p = malloc(1); *p = 0x141; print_int(*p);"
        )) == "65"

    def test_function_pointer_survives_memory(self):
        source = c_main(
            "int (**slot)(int v) = (int (**)(int v))malloc(4);"
            " *slot = bump; print_int((*slot)(4));",
            prelude="int bump(int v) { return v + 1; }",
        )
        assert c_output(source) == "5"

    def test_out_of_range_load_traps(self):
        with pytest.raises(VMTrap):
            run_c(c_main("int *p = (int *)99999999; print_int(*p);"))

    def test_fuel_limit_stops_infinite_loop(self):
        module = compile_program(c_main("while (1) ;"))
        with pytest.raises(VMTrap, match="fuel"):
            Machine(module, VirtualOS(), fuel=10_000).run()


class TestArgv:
    def test_argc_argv(self):
        source = """
        #include <sys.h>
        #include <string.h>
        int main(int argc, char **argv) {
            print_int(argc);
            putchar(' ');
            print_str(argv[1]);
            return 0;
        }
        """
        assert c_output(source, argv=["hello", "world"]) == "3 hello"

    def test_argv0_is_program_name(self):
        source = """
        #include <sys.h>
        int main(int argc, char **argv) { print_str(argv[0]); return 0; }
        """
        assert c_output(source) == "main"

    def test_wrong_main_arity_rejected(self):
        module = compile_program("int main(int only) { return only; }")
        with pytest.raises(ILError, match="parameters"):
            Machine(module).run()


class TestVirtualOS:
    def test_stdin_eof(self):
        source = c_main("print_int(getchar()); print_int(getchar());")
        assert c_output(source, stdin=b"A") == "65-1"

    def test_stdout_capture(self):
        result = run_c(c_main("putchar('h'); putchar('i');"))
        assert bytes(result.os.stdout) == b"hi"

    def test_stderr_separate(self):
        result = run_c(c_main("eputc('e'); putchar('o');"))
        assert result.os.stderr_text() == "e"
        assert result.stdout == "o"

    def test_file_read(self):
        source = c_main(
            'int fd = open("in.txt", O_READ);'
            " print_int(fgetc(fd)); print_int(fsize(fd)); close(fd);"
        )
        assert c_output(source, files={"in.txt": b"XY"}) == "882"

    def test_file_write_visible_after_close(self):
        source = c_main(
            'int fd = open("out.txt", O_WRITE);'
            " fputc('o', fd); fputc('k', fd); close(fd);"
        )
        result = run_c(source)
        assert result.os.written_files["out.txt"] == b"ok"

    def test_open_missing_file_returns_eof(self):
        assert c_output(c_main(
            'print_int(open("ghost", O_READ));'
        )) == "-1"

    def test_rewind(self):
        source = c_main(
            'int fd = open("f", O_READ);'
            " fgetc(fd); fgetc(fd); rewindf(fd); print_int(fgetc(fd));"
        )
        assert c_output(source, files={"f": b"AB"}) == "65"

    def test_fputc_to_stdout_fd(self):
        assert c_output(c_main("fputc('z', 1);")) == "z"

    def test_bad_fd_traps(self):
        with pytest.raises(VMTrap):
            run_c(c_main("fgetc(42);"))

    def test_exit_builtin(self):
        result = run_c(c_main("putchar('a'); exit(3); putchar('b');"))
        assert result.exit_code == 3
        assert result.stdout == "a"

    def test_abort_traps(self):
        with pytest.raises(VMTrap, match="abort"):
            run_c(c_main("abort();"))


class TestBlockIO:
    def test_read_stdin_block(self):
        source = c_main(
            "char buf[8]; int n = read_stdin(buf, 8);"
            " print_int(n); putchar(' ');"
            " { int i; for (i = 0; i < n; i++) putchar(buf[i]); }"
        )
        assert c_output(source, stdin=b"abc") == "3 abc"

    def test_write_stdout_block(self):
        source = c_main(
            'char buf[4]; buf[0] = \'h\'; buf[1] = \'i\'; write_stdout(buf, 2);'
        )
        assert c_output(source) == "hi"

    def test_buffered_reader_matches_getchar(self):
        data = bytes(range(1, 200)) * 3
        direct = run_c(c_main(
            "int c = getchar(); int s = 0;"
            " while (c != EOF) { s += c; c = getchar(); } print_int(s);"
        ), stdin=data)
        buffered = run_c(
            "#include <sys.h>\n#include <bio.h>\n"
            "int main(void) { int c = bgetchar(); int s = 0;"
            " while (c != EOF) { s += c; c = bgetchar(); }"
            " print_int(s); return 0; }",
            stdin=data,
        )
        assert direct.stdout == buffered.stdout
        # Buffered I/O issues far fewer external read calls.
        direct_ext = direct.counters.func_counts.get("getchar", 0)
        buffered_ext = buffered.counters.func_counts.get("read_stdin", 0)
        assert buffered_ext * 10 < direct_ext

    def test_buffered_file_reader(self):
        source = (
            "#include <sys.h>\n#include <bio.h>\n"
            "int main(void) {"
            ' int fd = open("f", O_READ); int c = bfgetc(fd); int n = 0;'
            " while (c != EOF) { n++; c = bfgetc(fd); }"
            " print_int(n); return 0; }"
        )
        assert c_output(source, files={"f": b"x" * 500}) == "500"

    def test_buffered_output_flushes(self):
        source = (
            "#include <sys.h>\n#include <bio.h>\n"
            "int main(void) { int i;"
            " for (i = 0; i < 300; i++) bputchar('a' + i % 26);"
            " bflush(); return 0; }"
        )
        out = c_output(source)
        assert len(out) == 300 and out.startswith("abc")


class TestExternalsWithoutLibc:
    def test_unlinked_libc_calls_are_external(self):
        module = compile_program(
            "#include <string.h>\n#include <sys.h>\n"
            "int main(void) { return 0; }",
            link_libc=False,
        )
        assert "strlen" in module.externals

    def test_calling_unimplemented_external_traps(self):
        module = compile_program(
            "int mystery(int x);\n"
            "int main(void) { return mystery(1); }",
            link_libc=False,
        )
        with pytest.raises(VMTrap, match="unavailable external"):
            Machine(module).run()


class TestSoundnessFixes:
    """Regression tests for the VM soundness bugfix batch."""

    def test_direct_call_arity_mismatch_rejected_at_link(self):
        # A direct CALL with the wrong argument count is a malformed
        # module; it must be rejected when the Machine links it, not
        # silently overwrite callee temporaries at run time.
        from repro.il.instructions import Opcode

        module = compile_program(c_main(
            "print_int(one(1));",
            prelude="int one(int a) { return a; }",
        ))
        for instr in module.functions["main"].body:
            if instr.op is Opcode.CALL and instr.name == "one":
                instr.args.append(7)
        with pytest.raises(ILError, match="expected 1"):
            Machine(module)

    def test_write_stdout_negative_length_reports_zero(self):
        source = c_main("char b[4]; print_int(write_stdout(b, -5));")
        result = run_c(source)
        assert result.stdout == "0"

    def test_write_block_negative_length_reports_zero(self):
        source = c_main("char b[4]; print_int(write_block(1, b, -3));")
        result = run_c(source)
        assert result.stdout == "0"

    def test_read_stdin_negative_maximum_reads_nothing(self):
        source = c_main(
            "char b[4]; print_int(read_stdin(b, -2));"
            " print_int(getchar());"
        )
        # The clamp must not consume input: the next getchar still
        # sees the first stdin byte.
        assert c_output(source, stdin=b"A") == "065"

    def test_read_block_negative_maximum_reads_nothing(self):
        source = c_main(
            'int fd = open("f", O_READ);'
            " print_int(read_block(fd, (char *)0, -1));"
            " print_int(fgetc(fd));"
        )
        assert c_output(source, files={"f": b"B"}) == "066"

    def test_machine_is_single_shot(self):
        module = compile_program(c_main("putchar('x');"))
        machine = Machine(module, VirtualOS())
        machine.run()
        with pytest.raises(ILError, match="single-shot"):
            machine.run()

    def test_heap_limit_traps(self):
        module = compile_program(c_main("while (1) malloc(4096);"))
        with pytest.raises(VMTrap, match="out of heap memory"):
            Machine(module, VirtualOS(), heap_limit=1 << 16).run()

    def test_default_heap_limit_allows_normal_allocation(self):
        assert c_output(c_main(
            "char *p = malloc(1 << 20); p[0] = 'y'; putchar(p[0]);"
        )) == "y"


class TestIndirectCallCorners:
    def test_function_pointer_to_external(self):
        # Taking the address of an external (body-less) function and
        # calling through it must dispatch to the builtin.
        source = c_main(
            "int (*emit)(int c) = putchar; emit('o'); emit('k');"
        )
        assert c_output(source) == "ok"

    def test_icall_arity_mismatch_traps(self):
        source = """
        #include <sys.h>
        int two(int a, int b) { return a + b; }
        int main(void) {
            int (*p)(int v) = (int (*)(int v))two;  /* wrong arity */
            return p(1);
        }
        """
        with pytest.raises(VMTrap, match="args"):
            run_c(source)

    def test_icall_through_garbage_traps(self):
        source = c_main("int (*p)(int v) = (int (*)(int v))12345; p(1);")
        with pytest.raises(VMTrap, match="bad pointer"):
            run_c(source)

    def test_function_pointer_equality(self):
        source = c_main(
            "int (*p)(int c) = putchar; int (*q)(int c) = putchar;"
            " print_int(p == q);"
        )
        assert c_output(source) == "1"

    def test_function_pointer_in_struct(self):
        source = c_main(
            "struct op row; row.apply = dbl; print_int(row.apply(21));",
            prelude=(
                "int dbl(int x) { return 2 * x; }"
                "struct op { int (*apply)(int x); };"
            ),
        )
        assert c_output(source) == "42"


class TestLinkMemo:
    """A machine links from a per-module memo; edits must never hit it stale."""

    @pytest.mark.parametrize("engine", ["counting", "fast"])
    def test_in_place_edit_is_relinked(self, engine):
        from repro.il.instructions import Opcode

        module = compile_program("int main(void) { return 3; }", link_libc=False)
        assert Machine(module, engine=engine).run().exit_code == 3
        for instr in module.functions["main"].body:
            if instr.op is Opcode.RET and instr.a == 3:
                instr.a = 42
        assert Machine(module.clone(), engine=engine).run().exit_code == 42
        assert Machine(module, engine=engine).run().exit_code == 42
