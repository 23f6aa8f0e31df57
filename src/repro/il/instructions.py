"""IL instruction set.

One uniform :class:`Instr` class covers every opcode; the fields each
opcode uses are documented in :class:`Opcode`. Register operands are
strings (virtual registers, renameable for inlining), immediate operands
are Python ints. Labels are strings local to a function.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Union

Operand = Union[str, int]


class Opcode(enum.IntEnum):
    """IL opcodes and the Instr fields they use.

    ======== ==========================================================
    opcode   fields
    ======== ==========================================================
    LABEL    label
    CONST    dst, a (int immediate)
    MOV      dst, a (register)
    BIN      dst, op2 (operator string), a, b
    UN       dst, op2 (operator string), a
    LOAD     dst, a (address operand), size (1 or 4)
    STORE    a (address operand), b (value operand), size
    FRAME    dst, name (frame-slot name; resolves to fp + offset)
    GADDR    dst, name (global name)
    FADDR    dst, name (function name; yields a function-pointer value)
    CALL     dst (or None), name (callee), args, site (call-site id)
    ICALL    dst (or None), a (function-pointer operand), args, site
    RET      a (operand or None)
    JUMP     label
    CJUMP    a (condition operand), label (true), label2 (false)
    SWITCH   a (operand), cases (list of (value,label)), label2 (default)
    ======== ==========================================================
    """

    LABEL = 0
    CONST = 1
    MOV = 2
    BIN = 3
    UN = 4
    LOAD = 5
    STORE = 6
    FRAME = 7
    GADDR = 8
    FADDR = 9
    CALL = 10
    ICALL = 11
    RET = 12
    JUMP = 13
    CJUMP = 14
    SWITCH = 15


#: Opcodes that transfer control, *excluding* call/return — the paper's
#: definition of a "control transfer" (Table 1 counts CTs "other than
#: function call/return").
CONTROL_TRANSFER_OPS = frozenset({Opcode.JUMP, Opcode.CJUMP, Opcode.SWITCH})

#: Opcodes counted as real instructions for code-size purposes.
#: Labels are positional markers, not instructions.
_PSEUDO_OPS = frozenset({Opcode.LABEL})


class Instr:
    """One IL instruction. See :class:`Opcode` for field usage."""

    __slots__ = ("op", "dst", "op2", "a", "b", "name", "args", "label", "label2", "cases", "size", "site")

    def __init__(
        self,
        op: Opcode,
        dst: Optional[str] = None,
        op2: Optional[str] = None,
        a: Optional[Operand] = None,
        b: Optional[Operand] = None,
        name: Optional[str] = None,
        args: Optional[list[Operand]] = None,
        label: Optional[str] = None,
        label2: Optional[str] = None,
        cases: Optional[list[tuple[int, str]]] = None,
        size: int = 4,
        site: int = -1,
    ):
        self.op = op
        self.dst = dst
        self.op2 = op2
        self.a = a
        self.b = b
        self.name = name
        self.args = args if args is not None else []
        self.label = label
        self.label2 = label2
        self.cases = cases if cases is not None else []
        self.size = size
        self.site = site

    def copy(self) -> "Instr":
        return Instr(
            self.op,
            self.dst,
            self.op2,
            self.a,
            self.b,
            self.name,
            list(self.args),
            self.label,
            self.label2,
            [tuple(c) for c in self.cases],
            self.size,
            self.site,
        )

    def key(self) -> tuple:
        """Every field as a tuple of plain values: equal keys mean equal
        instructions. The opcode is an int so that the key marshals."""
        return (
            int(self.op),
            self.dst,
            self.op2,
            self.a,
            self.b,
            self.name,
            tuple(self.args),
            self.label,
            self.label2,
            tuple(self.cases),
            self.size,
            self.site,
        )

    # ------------------------------------------------------------------
    # operand introspection, used by the verifier and optimizer

    def sources(self) -> Iterable[Operand]:
        """All value operands this instruction reads."""
        op = self.op
        if op is Opcode.CONST:
            return ()
        if op in (Opcode.MOV, Opcode.UN, Opcode.LOAD, Opcode.RET, Opcode.CJUMP, Opcode.SWITCH, Opcode.ICALL):
            base = [self.a] if self.a is not None else []
            if op is Opcode.ICALL:
                base.extend(self.args)
            return base
        if op in (Opcode.BIN, Opcode.STORE):
            return [x for x in (self.a, self.b) if x is not None]
        if op is Opcode.CALL:
            return list(self.args)
        return ()

    def source_regs(self) -> list[str]:
        return [s for s in self.sources() if isinstance(s, str)]

    def replace_regs(self, mapping: dict[str, str]) -> None:
        """Rename register operands (and dst) in place via ``mapping``."""
        if isinstance(self.a, str):
            self.a = mapping.get(self.a, self.a)
        if isinstance(self.b, str):
            self.b = mapping.get(self.b, self.b)
        if self.dst is not None:
            self.dst = mapping.get(self.dst, self.dst)
        if self.args:
            self.args = [
                mapping.get(arg, arg) if isinstance(arg, str) else arg
                for arg in self.args
            ]

    def labels_used(self) -> list[str]:
        """Labels this instruction may transfer control to."""
        result = []
        if self.op is Opcode.JUMP and self.label is not None:
            result.append(self.label)
        elif self.op is Opcode.CJUMP:
            if self.label is not None:
                result.append(self.label)
            if self.label2 is not None:
                result.append(self.label2)
        elif self.op is Opcode.SWITCH:
            result.extend(label for _, label in self.cases)
            if self.label2 is not None:
                result.append(self.label2)
        return result

    def retarget_labels(self, mapping: dict[str, str]) -> None:
        if self.label is not None:
            self.label = mapping.get(self.label, self.label)
        if self.label2 is not None:
            self.label2 = mapping.get(self.label2, self.label2)
        if self.cases:
            self.cases = [
                (value, mapping.get(label, label)) for value, label in self.cases
            ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.il.printer import format_instr

        return f"<Instr {format_instr(self)}>"


def is_real(instr: Instr) -> bool:
    """True when ``instr`` counts toward code size (i.e. not a label)."""
    return instr.op not in _PSEUDO_OPS


def is_control_transfer(instr: Instr) -> bool:
    """True for jumps/branches/switches (not call/return), per Table 1."""
    return instr.op in CONTROL_TRANSFER_OPS


def is_terminator(instr: Instr) -> bool:
    """True when control never falls through to the next instruction."""
    return instr.op in (Opcode.JUMP, Opcode.RET, Opcode.SWITCH) or (
        instr.op is Opcode.CJUMP and instr.label2 is not None
    )
