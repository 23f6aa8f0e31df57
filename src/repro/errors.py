"""Common exception types and source locations for the repro toolchain.

Every stage of the pipeline (preprocessor, lexer, parser, semantic
analysis, lowering, VM) raises a subclass of :class:`ReproError` so that
callers can catch one type at the toolchain boundary.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SourceLocation:
    """A position in a source file: 1-based line and column."""

    filename: str = "<input>"
    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


#: Location used when no better information is available.
UNKNOWN_LOCATION = SourceLocation("<unknown>", 0, 0)


class ReproError(Exception):
    """Base class for every error raised by the toolchain."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location
        #: The message without its location prefix.
        self.message = message
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class PreprocessorError(ReproError):
    """Raised for malformed preprocessor directives or macro misuse."""


class LexError(ReproError):
    """Raised for characters or literals the lexer cannot tokenize."""


class ParseError(ReproError):
    """Raised when the token stream does not match the C-subset grammar."""


class SemanticError(ReproError):
    """Raised for type errors, undeclared identifiers, and the like."""


class LoweringError(ReproError):
    """Raised when the AST-to-IL lowering meets an unsupported construct."""


class ILError(ReproError):
    """Raised for malformed IL (verifier failures, bad linkage)."""


class VMError(ReproError):
    """Base class for runtime errors inside the IL virtual machine."""


class VMTrap(VMError):
    """A memory fault, undefined behaviour, or resource exhaustion."""


class InlineError(ReproError):
    """Raised when a physical inline expansion cannot be performed."""


class VerifyError(ReproError):
    """Raised when the differential-correctness harness finds a
    divergence or a broken invariant (see :mod:`repro.verify`)."""
