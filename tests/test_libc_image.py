"""The libc image: each program compiles as if libc's text came first.

``compile_program`` reuses libc compiled once per process. The oracle
below is the single translation unit it replaces: one preprocessor run
over libc and then the program, one parse, one analysis, one lowering.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.compiler import compile_program, libc_image
from repro.errors import ReproError
from repro.frontend.parser import parse_translation_unit
from repro.frontend.preprocessor import Preprocessor
from repro.frontend.sema import analyze
from repro.il.instructions import Opcode
from repro.il.lowering import lower_unit
from repro.il.printer import format_function, format_module
from repro.il.verifier import verify_module
from repro.observability import NULL_OBS, Observability
from repro.opt.pipeline import _fixpoint, optimize_function
from repro.runtime import LIBC_SOURCE, standard_headers
from repro.verify.fuzz import generate_program
from repro.workloads.suite import benchmark_suite


def single_unit(source: str, filename: str = "<input>"):
    """Today's compile without the image: libc and the program in one unit."""
    preprocessor = Preprocessor(standard_headers())
    text = (
        preprocessor.process(LIBC_SOURCE, "<libc>")
        + "\n"
        + preprocessor.process(source, filename)
    )
    module = lower_unit(analyze(parse_translation_unit(text, filename)))
    verify_module(module)
    return module


def facts(module):
    return (
        format_module(module),
        list(module.globals),
        sorted(module.externals),
        sorted(module.address_taken),
        module._next_site,
        module._next_string,
    )


def outcome(compile_fn, source: str):
    """The module's facts, or the error's type and message."""
    try:
        return facts(compile_fn(source, "prog.c"))
    except ReproError as error:
        return type(error), str(error)


HAND_CASES = {
    "eof-without-include": "int main(void) { return EOF + 1; }",
    "strlen-without-header": 'int main(void) { return strlen("abc"); }',
    "libc-address-taken": (
        "int main(void) { int (*f)(char *s) = strlen; return f(\"ab\"); }"
    ),
    "global-string-initializers": (
        'char *greeting = "hi"; char buf[4] = "abc";\n'
        'int main(void) { print_str("hi"); return greeting[0] + buf[1]; }'
    ),
    "reads-rand-state": "int main(void) { return _rand_state; }",
    "headers-again": (
        "#include <sys.h>\n#include <string.h>\n#include <stdlib.h>\n"
        "#ifdef _SYS_H\nint size = _BIO_SIZE;\n#endif\n"
        "int main(void) { return strlen(\"x\") + abs(-2) + size; }"
    ),
    "prototype-of-libc-function": (
        "int atoi(char *s);\nint main(void) { return atoi(\"7\"); }"
    ),
    "defines-a-builtin": (
        "int putchar(int c) { return c; }\n"
        'int main(void) { bputs("x"); return putchar(3); }'
    ),
    "unused-prototype": "int helper(int x);\nint main(void) { return 0; }",
}


class TestMatchesTheSingleUnit:
    @pytest.mark.parametrize("program", benchmark_suite(), ids=lambda b: b.name)
    def test_suite_program(self, program):
        assert facts(compile_program(program.source, "p.c")) == facts(
            single_unit(program.source, "p.c")
        )

    def test_fuzz_programs(self):
        for seed in range(50):
            source = generate_program(seed)
            assert facts(compile_program(source)) == facts(single_unit(source)), seed

    @pytest.mark.parametrize("name", sorted(HAND_CASES))
    def test_hand_case(self, name):
        source = HAND_CASES[name]
        got = outcome(compile_program, source)
        assert not isinstance(got[0], type), got
        assert got == outcome(single_unit, source)


REDEFINITIONS = {
    "libc-function": "int strlen(char *s) { return 0; }\nint main(void) { return 0; }",
    "libc-global": "int _rand_state;\nint main(void) { return 0; }",
    "libc-global-as-function": "int _bin_pos(void) { return 0; }\nint main(void) { return 0; }",
    "libc-function-as-global": "int strcmp = 1;\nint main(void) { return 0; }",
    "prototype-count-clash": "int atoi(char *s, int base);\nint main(void) { return 0; }",
    "builtin-count-clash": "int putchar(void) { return 0; }\nint main(void) { return 0; }",
}


@pytest.mark.parametrize("name", sorted(REDEFINITIONS))
def test_redefinition_raises_as_the_single_unit_does(name):
    source = REDEFINITIONS[name]
    got = outcome(compile_program, source)
    assert isinstance(got[0], type), got
    assert got == outcome(single_unit, source)


class TestOptimizeOnce:
    @staticmethod
    def _state(function, stats):
        slots = [(s.name, s.size, s.align, s.offset) for s in function.slots.values()]
        return (
            format_function(function),
            slots,
            function.frame_size,
            function.next_temp,
            function.next_label,
            stats.rounds,
            stats.by_pass,
        )

    def test_memo_hit_equals_a_fresh_optimize(self):
        for original in libc_image().module.functions.values():
            fresh = original.clone()
            want = self._state(fresh, _fixpoint(fresh, NULL_OBS.metrics))
            optimize_function(original.clone())  # fills the memo if empty
            hit = original.clone()
            obs = Observability.create()
            assert self._state(hit, optimize_function(hit, obs)) == want
            assert not any(
                name.endswith(".seconds") for name in obs.metrics._histograms
            ), original.name
            changes = {
                name.split(".")[2]: count
                for name, count in obs.metrics.counters.items()
                if name.endswith(".changes")
            }
            assert changes == {k: v for k, v in want[-1].items() if v}

    def test_function_edited_in_place_misses(self):
        original = libc_image().module.functions["strlen"]
        edited, fresh = original.clone(), original.clone()
        for function in (edited, fresh):
            const = next(i for i in function.body if i.op is Opcode.CONST)
            const.a += 1
        want = self._state(fresh, _fixpoint(fresh, NULL_OBS.metrics))
        obs = Observability.create()
        assert self._state(edited, optimize_function(edited, obs)) == want
        assert "pipeline.pass.dead-code.seconds" in obs.metrics._histograms


def test_libc_is_compiled_once_per_process_and_not_on_import():
    script = (
        "import repro, repro.compiler as compiler\n"
        "from repro.frontend.preprocessor import Preprocessor\n"
        "assert compiler._LIBC_IMAGE is None\n"
        "seen = []\n"
        "process = Preprocessor.process\n"
        "def counted(self, text, filename='<input>'):\n"
        "    seen.append(filename)\n"
        "    return process(self, text, filename)\n"
        "Preprocessor.process = counted\n"
        "for body in ('return 0;', 'return strlen(\"ab\");', 'return EOF;'):\n"
        "    compiler.compile_program('int main(void) { ' + body + ' }')\n"
        "print(seen.count('<libc>'), len(seen))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert result.stdout.split() == ["1", "4"]
