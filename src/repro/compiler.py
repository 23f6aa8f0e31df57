"""End-to-end compilation driver: C source text to a linked IL module.

Every program links libc, which is written in the C subset
(:data:`~repro.runtime.LIBC_SOURCE`), so library functions have visible
bodies. libc is compiled once per process, on the first compile that
links it, into a :class:`LibcImage`. A program is then preprocessed
from the macros libc leaves defined, analysed against libc's symbols
and lowered into a clone of libc's module. The result is the module
that the single translation unit "libc, then the program" lowers to,
numbering included. The optimizer optimizes each libc function once
(:func:`repro.opt.pipeline.optimize_once`).

>>> from repro.compiler import compile_program
>>> module = compile_program('''
... #include <sys.h>
... int main(void) { putchar('h'); putchar('i'); return 0; }
... ''')
>>> from repro.vm import Machine
>>> Machine(module).run().stdout
'hi'
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.parser import parse_translation_unit
from repro.frontend.preprocessor import Macro, Preprocessor
from repro.frontend.sema import AnalyzedUnit, analyze
from repro.il.lowering import lower_unit
from repro.il.module import ILModule
from repro.il.verifier import verify_function, verify_module
from repro.observability import Observability, resolve
from repro.opt.pipeline import optimize_once
from repro.runtime import LIBC_SOURCE, standard_headers


@dataclass(frozen=True)
class LibcImage:
    """libc compiled once: the state every program's compile starts from."""

    #: The preprocessor's macros after libc, include guards among them.
    macros: dict[str, Macro]
    #: The line a program's text starts on in the single translation unit.
    first_line: int
    #: libc's syntax tree and top-level symbols.
    analysis: AnalyzedUnit
    #: libc lowered and verified; each program extends a clone of it.
    module: ILModule


_LIBC_IMAGE: LibcImage | None = None


def libc_image() -> LibcImage:
    """The process's libc image, built on first use."""
    global _LIBC_IMAGE
    if _LIBC_IMAGE is None:
        preprocessor = Preprocessor(standard_headers())
        text = preprocessor.process(LIBC_SOURCE, "<libc>")
        analysis = analyze(parse_translation_unit(text, "<libc>"))
        module = lower_unit(analysis)
        for function in module.functions.values():
            verify_function(module, function)
        optimize_once(module.functions.values())
        # The single unit joins libc's text and the program's with "\n".
        _LIBC_IMAGE = LibcImage(
            preprocessor.macros, text.count("\n") + 2, analysis, module
        )
    return _LIBC_IMAGE


def compile_to_analysis(
    source: str,
    filename: str = "<input>",
    link_libc: bool = True,
    obs: Observability | None = None,
) -> AnalyzedUnit:
    """Preprocess, parse, and semantically analyze a program.

    With ``link_libc`` (the default) the program is read as if it
    followed libc's text in one translation unit: libc's macros and
    include guards are in force, its functions and globals are in scope
    without a header, and a clash with them raises the error that unit
    would. libc itself comes from the :func:`libc_image` and is not
    analysed again. Without it, libc calls resolve against header
    prototypes only and become external functions.
    """
    obs = resolve(obs)
    image = libc_image() if link_libc else None
    preprocessor = Preprocessor(standard_headers())
    if image is not None:
        preprocessor.macros = dict(image.macros)
    with obs.tracer.span("frontend.preprocess"):
        text = preprocessor.process(source, filename)
    with obs.tracer.span("frontend.parse"):
        unit = parse_translation_unit(
            text, filename, obs=obs, first_line=image.first_line if image else 1
        )
    with obs.tracer.span("frontend.analyze"):
        return analyze(unit, image.analysis if image else None)


def compile_program(
    source: str,
    filename: str = "<input>",
    link_libc: bool = True,
    entry: str = "main",
    verify: bool = True,
    obs: Observability | None = None,
) -> ILModule:
    """Compile C-subset source text into a verified, linked IL module."""
    obs = resolve(obs)
    with obs.tracer.span("frontend.compile", file=filename):
        analysis = compile_to_analysis(source, filename, link_libc, obs=obs)
        base = libc_image().module.clone() if link_libc else None
        with obs.tracer.span("frontend.lower"):
            module = lower_unit(analysis, entry, base)
        if verify:
            with obs.tracer.span("frontend.verify"):
                verify_module(module)
    if obs.metrics.enabled:
        obs.metrics.inc("frontend.modules_compiled")
        obs.metrics.inc("frontend.functions_lowered", len(module.functions))
        obs.metrics.inc("frontend.il_instructions_emitted", module.total_code_size())
    return module
