"""Lowering from the typed AST to three-address IL.

Storage assignment: scalar locals and parameters whose address is never
taken live in virtual registers; address-taken scalars, arrays, and
structs get frame slots. Globals and string literals become module data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LoweringError
from repro.frontend import ast
from repro.frontend.constexpr import wrap32
from repro.frontend.sema import AnalyzedUnit, FunctionInfo
from repro.frontend.symbols import FunctionSymbol, VarSymbol
from repro.frontend.typesys import (
    ArrayType,
    CType,
    PointerType,
    StructType,
    decay,
)
from repro.il.function import ILFunction
from repro.il.instructions import Instr, Opcode, Operand
from repro.il.module import GlobalData, ILModule, InitItem

_WORD = 4


@dataclass(frozen=True, slots=True)
class _Place:
    """An assignable location: a register or a memory address."""

    kind: str  # "reg" | "mem"
    reg: str = ""
    addr: Operand = 0
    size: int = _WORD
    ctype: CType | None = None


class _FunctionLowerer:
    """Lowers one function body."""

    def __init__(self, module: ILModule, info: FunctionInfo):
        self._module = module
        self._info = info
        definition = info.definition
        assert definition.signature is not None
        returns_value = not definition.signature.type.return_type.is_void
        self._fn = ILFunction(
            definition.name,
            [],
            returns_value,
            definition.inline_hint,
        )
        self._storage: dict[int, tuple[str, str]] = {}
        self._break_stack: list[str] = []
        self._continue_stack: list[str] = []

    # ------------------------------------------------------------------

    def lower(self) -> ILFunction:
        self._assign_storage()
        body = self._info.definition.body
        assert body is not None
        self._stmt(body)
        # Guarantee every path returns: append a fallback return.
        self._emit(Instr(Opcode.RET, a=0 if self._fn.returns_value else None))
        self._fn.layout_frame()
        return self._fn

    def _assign_storage(self) -> None:
        for symbol in self._info.params:
            reg = f"p.{symbol.name}.{symbol.uid}"
            self._fn.params.append(reg)
            if symbol.address_taken:
                slot_name = f"s.{symbol.name}.{symbol.uid}"
                ctype = symbol.ctype
                self._fn.add_slot(slot_name, ctype.size(), ctype.alignment())
                self._storage[id(symbol)] = ("slot", slot_name)
                # Spill the incoming parameter into its slot at entry.
                addr = self._fn.new_temp()
                self._emit(Instr(Opcode.FRAME, dst=addr, name=slot_name))
                self._emit(
                    Instr(Opcode.STORE, a=addr, b=reg, size=min(ctype.size(), _WORD))
                )
            else:
                self._storage[id(symbol)] = ("reg", reg)
        for symbol in self._info.locals:
            ctype = symbol.ctype
            needs_slot = (
                symbol.address_taken or ctype.is_array or ctype.is_struct
            )
            if needs_slot:
                slot_name = f"s.{symbol.name}.{symbol.uid}"
                self._fn.add_slot(slot_name, ctype.size(), ctype.alignment())
                self._storage[id(symbol)] = ("slot", slot_name)
            else:
                self._storage[id(symbol)] = ("reg", f"v.{symbol.name}.{symbol.uid}")

    # ------------------------------------------------------------------
    # emission helpers

    def _emit(self, instr: Instr) -> None:
        self._fn.body.append(instr)

    def _emit_label(self, label: str) -> None:
        self._emit(Instr(Opcode.LABEL, label=label))

    def _to_reg(self, operand: Operand) -> str:
        """Materialize an operand into a register when one is required."""
        if isinstance(operand, str):
            return operand
        temp = self._fn.new_temp()
        self._emit(Instr(Opcode.CONST, dst=temp, a=operand))
        return temp

    def _binary(self, op: str, a: Operand, b: Operand) -> str:
        dst = self._fn.new_temp()
        self._emit(Instr(Opcode.BIN, dst=dst, op2=op, a=a, b=b))
        return dst

    def _scale(self, index: Operand, element_size: int) -> Operand:
        if element_size == 1:
            return index
        if isinstance(index, int):
            return wrap32(index * element_size)
        return self._binary("*", index, element_size)

    # ------------------------------------------------------------------
    # statements

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for sub in stmt.statements:
                self._stmt(sub)
        elif isinstance(stmt, ast.DeclStmt):
            self._decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, ast.While):
            self._while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._for(stmt)
        elif isinstance(stmt, ast.Switch):
            self._switch(stmt)
        elif isinstance(stmt, ast.Break):
            if not self._break_stack:
                raise LoweringError("break outside loop/switch", stmt.location)
            self._emit(Instr(Opcode.JUMP, label=self._break_stack[-1]))
        elif isinstance(stmt, ast.Continue):
            if not self._continue_stack:
                raise LoweringError("continue outside loop", stmt.location)
            self._emit(Instr(Opcode.JUMP, label=self._continue_stack[-1]))
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self._emit(Instr(Opcode.RET, a=None))
            else:
                self._emit(Instr(Opcode.RET, a=self._expr(stmt.value)))
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        else:  # pragma: no cover
            raise LoweringError(f"unhandled statement {type(stmt).__name__}")

    def _decl(self, decl: ast.DeclStmt) -> None:
        symbol = decl.symbol
        assert isinstance(symbol, VarSymbol)
        if decl.init is None:
            return
        kind, name = self._storage[id(symbol)]
        if isinstance(decl.init, ast.InitList) or (
            isinstance(decl.init, ast.StringLiteral) and symbol.ctype.is_array
        ):
            assert kind == "slot"
            base = self._fn.new_temp()
            self._emit(Instr(Opcode.FRAME, dst=base, name=name))
            self._init_memory(base, 0, symbol.ctype, decl.init)
            return
        value = self._expr(decl.init)
        if kind == "reg":
            value = self._coerce_char(value, symbol.ctype)
            self._emit(Instr(Opcode.MOV, dst=name, a=self._to_reg(value)))
        else:
            addr = self._fn.new_temp()
            self._emit(Instr(Opcode.FRAME, dst=addr, name=name))
            self._emit(
                Instr(
                    Opcode.STORE,
                    a=addr,
                    b=value,
                    size=min(symbol.ctype.size(), _WORD),
                )
            )

    def _init_memory(
        self, base: str, offset: int, ctype: CType, init: ast.Initializer
    ) -> None:
        """Lower a brace/string initializer into stores at base+offset."""
        if isinstance(init, ast.StringLiteral) and isinstance(ctype, ArrayType):
            data = init.value.encode("latin-1", errors="replace") + b"\x00"
            for index, byte in enumerate(data):
                addr = self._binary("+", base, offset + index)
                self._emit(Instr(Opcode.STORE, a=addr, b=byte, size=1))
            return
        if isinstance(init, ast.InitList):
            if isinstance(ctype, ArrayType):
                element_size = ctype.element.size()
                for index, item in enumerate(init.items):
                    self._init_memory(
                        base, offset + index * element_size, ctype.element, item
                    )
                return
            if isinstance(ctype, StructType):
                for item, field_entry in zip(init.items, ctype.fields):
                    self._init_memory(
                        base, offset + field_entry.offset, field_entry.type, item
                    )
                return
            raise LoweringError(f"brace initializer for scalar {ctype}", init.location)
        value = self._expr(init)
        addr = self._binary("+", base, offset) if offset else base
        self._emit(
            Instr(Opcode.STORE, a=addr, b=value, size=min(ctype.size(), _WORD))
        )

    def _if(self, stmt: ast.If) -> None:
        then_label = self._fn.new_label()
        end_label = self._fn.new_label()
        else_label = self._fn.new_label() if stmt.otherwise is not None else end_label
        cond = self._expr(stmt.cond)
        self._emit(Instr(Opcode.CJUMP, a=cond, label=then_label, label2=else_label))
        self._emit_label(then_label)
        self._stmt(stmt.then)
        if stmt.otherwise is not None:
            self._emit(Instr(Opcode.JUMP, label=end_label))
            self._emit_label(else_label)
            self._stmt(stmt.otherwise)
        self._emit_label(end_label)

    def _while(self, stmt: ast.While) -> None:
        head = self._fn.new_label()
        body = self._fn.new_label()
        end = self._fn.new_label()
        self._emit_label(head)
        cond = self._expr(stmt.cond)
        self._emit(Instr(Opcode.CJUMP, a=cond, label=body, label2=end))
        self._emit_label(body)
        self._loop_body(stmt.body, break_to=end, continue_to=head)
        self._emit(Instr(Opcode.JUMP, label=head))
        self._emit_label(end)

    def _do_while(self, stmt: ast.DoWhile) -> None:
        body = self._fn.new_label()
        check = self._fn.new_label()
        end = self._fn.new_label()
        self._emit_label(body)
        self._loop_body(stmt.body, break_to=end, continue_to=check)
        self._emit_label(check)
        cond = self._expr(stmt.cond)
        self._emit(Instr(Opcode.CJUMP, a=cond, label=body, label2=end))
        self._emit_label(end)

    def _for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._stmt(stmt.init)
        head = self._fn.new_label()
        body = self._fn.new_label()
        step = self._fn.new_label()
        end = self._fn.new_label()
        self._emit_label(head)
        if stmt.cond is not None:
            cond = self._expr(stmt.cond)
            self._emit(Instr(Opcode.CJUMP, a=cond, label=body, label2=end))
        self._emit_label(body)
        self._loop_body(stmt.body, break_to=end, continue_to=step)
        self._emit_label(step)
        if stmt.step is not None:
            self._expr(stmt.step)
        self._emit(Instr(Opcode.JUMP, label=head))
        self._emit_label(end)

    def _loop_body(self, body: ast.Stmt | None, break_to: str, continue_to: str) -> None:
        self._break_stack.append(break_to)
        self._continue_stack.append(continue_to)
        if body is not None:
            self._stmt(body)
        self._continue_stack.pop()
        self._break_stack.pop()

    def _switch(self, stmt: ast.Switch) -> None:
        value = self._expr(stmt.scrutinee)
        end = self._fn.new_label()
        default_label = end
        cases: list[tuple[int, str]] = []
        case_labels: list[str] = []
        for case in stmt.cases:
            label = self._fn.new_label("C")
            case_labels.append(label)
            if case.value is None:
                default_label = label
            else:
                cases.append((case.value, label))
        self._emit(
            Instr(Opcode.SWITCH, a=value, cases=cases, label2=default_label)
        )
        self._break_stack.append(end)
        for case, label in zip(stmt.cases, case_labels):
            self._emit_label(label)
            for sub in case.body:
                self._stmt(sub)
        self._break_stack.pop()
        self._emit_label(end)

    # ------------------------------------------------------------------
    # expressions (rvalue)

    def _expr(self, expr: ast.Expr | None) -> Operand:
        assert expr is not None
        if isinstance(expr, ast.IntLiteral):
            return wrap32(expr.value)
        if isinstance(expr, ast.StringLiteral):
            name = self._module.intern_string(expr.value)
            dst = self._fn.new_temp()
            self._emit(Instr(Opcode.GADDR, dst=dst, name=name))
            return dst
        if isinstance(expr, ast.Identifier):
            return self._identifier_value(expr)
        if isinstance(expr, ast.Unary):
            return self._unary(expr)
        if isinstance(expr, ast.PostIncDec):
            return self._incdec(expr.operand, expr.op, post=True)
        if isinstance(expr, ast.Binary):
            return self._binary_expr(expr)
        if isinstance(expr, ast.Assign):
            return self._assign(expr)
        if isinstance(expr, ast.Conditional):
            return self._conditional(expr)
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Index):
            return self._load_place(self._index_place(expr))
        if isinstance(expr, ast.Member):
            return self._load_place(self._member_place(expr))
        if isinstance(expr, ast.Cast):
            value = self._expr(expr.operand)
            return self._coerce_char(value, expr.target_type)
        if isinstance(expr, ast.SizeofType):
            assert expr.target_type is not None
            return expr.target_type.size()
        raise LoweringError(f"unhandled expression {type(expr).__name__}", expr.location)

    def _coerce_char(self, value: Operand, target: CType | None) -> Operand:
        """Truncate + sign-extend when converting to char."""
        if target is None or not (target.is_integer and target.size() == 1):
            return value
        if isinstance(value, int):
            byte = value & 0xFF
            return byte - 256 if byte > 127 else byte
        dst = self._fn.new_temp()
        self._emit(Instr(Opcode.UN, dst=dst, op2="sxt8", a=value))
        return dst

    def _identifier_value(self, expr: ast.Identifier) -> Operand:
        symbol = expr.symbol
        if isinstance(symbol, FunctionSymbol):
            dst = self._fn.new_temp()
            self._emit(Instr(Opcode.FADDR, dst=dst, name=symbol.name))
            return dst
        assert isinstance(symbol, VarSymbol)
        ctype = symbol.ctype
        if symbol.is_global:
            addr = self._fn.new_temp()
            self._emit(Instr(Opcode.GADDR, dst=addr, name=symbol.name))
            if ctype.is_array or ctype.is_struct:
                return addr
            dst = self._fn.new_temp()
            self._emit(Instr(Opcode.LOAD, dst=dst, a=addr, size=min(ctype.size(), _WORD)))
            return dst
        kind, name = self._storage[id(symbol)]
        if kind == "reg":
            return name
        addr = self._fn.new_temp()
        self._emit(Instr(Opcode.FRAME, dst=addr, name=name))
        if ctype.is_array or ctype.is_struct:
            return addr
        dst = self._fn.new_temp()
        self._emit(Instr(Opcode.LOAD, dst=dst, a=addr, size=min(ctype.size(), _WORD)))
        return dst

    def _unary(self, expr: ast.Unary) -> Operand:
        assert expr.operand is not None
        op = expr.op
        if op == "&":
            return self._address_of(expr.operand)
        if op == "*":
            pointee = expr.ctype
            assert pointee is not None
            address = self._expr(expr.operand)
            if pointee.is_array or pointee.is_struct:
                return address
            dst = self._fn.new_temp()
            self._emit(
                Instr(Opcode.LOAD, dst=dst, a=address, size=min(pointee.size(), _WORD))
            )
            return dst
        if op == "sizeof":
            operand_type = expr.operand.ctype
            assert operand_type is not None
            return operand_type.size()
        if op in ("++", "--"):
            return self._incdec(expr.operand, op, post=False)
        value = self._expr(expr.operand)
        if isinstance(value, int):
            from repro.frontend.constexpr import apply_unary

            return apply_unary(op, value)
        dst = self._fn.new_temp()
        self._emit(Instr(Opcode.UN, dst=dst, op2=op, a=value))
        return dst

    def _address_of(self, expr: ast.Expr) -> Operand:
        if isinstance(expr, ast.Identifier):
            symbol = expr.symbol
            if isinstance(symbol, FunctionSymbol):
                dst = self._fn.new_temp()
                self._emit(Instr(Opcode.FADDR, dst=dst, name=symbol.name))
                return dst
            assert isinstance(symbol, VarSymbol)
            if symbol.is_global:
                dst = self._fn.new_temp()
                self._emit(Instr(Opcode.GADDR, dst=dst, name=symbol.name))
                return dst
            kind, name = self._storage[id(symbol)]
            if kind != "slot":
                raise LoweringError(
                    f"address of register variable {symbol.name!r}", expr.location
                )
            dst = self._fn.new_temp()
            self._emit(Instr(Opcode.FRAME, dst=dst, name=name))
            return dst
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return self._expr(expr.operand)
        if isinstance(expr, ast.Index):
            return self._index_place(expr).addr
        if isinstance(expr, ast.Member):
            return self._member_place(expr).addr
        raise LoweringError("cannot take address of expression", expr.location)

    def _incdec(self, target: ast.Expr | None, op: str, post: bool) -> Operand:
        assert target is not None
        place = self._place(target)
        old = self._load_place(place)
        old_reg = self._to_reg(old)
        if post and place.kind == "reg":
            # For register places _load_place returns the live register
            # itself; snapshot it or the store below would clobber the
            # value a postfix expression must yield.
            snapshot = self._fn.new_temp()
            self._emit(Instr(Opcode.MOV, dst=snapshot, a=old_reg))
            old_reg = snapshot
        ctype = decay(target.ctype) if target.ctype is not None else None
        delta = 1
        if ctype is not None and isinstance(ctype, PointerType):
            delta = max(ctype.pointee.size(), 1)
        new = self._binary("+" if op == "++" else "-", old_reg, delta)
        new = self._to_reg(self._coerce_char(new, place.ctype))
        self._store_place(place, new)
        return old_reg if post else new

    def _binary_expr(self, expr: ast.Binary) -> Operand:
        assert expr.left is not None and expr.right is not None
        op = expr.op
        if op == ",":
            self._expr(expr.left)
            return self._expr(expr.right)
        if op in ("&&", "||"):
            return self._short_circuit(expr)
        left_type = decay(expr.left.ctype) if expr.left.ctype else None
        right_type = decay(expr.right.ctype) if expr.right.ctype else None
        left = self._expr(expr.left)
        right = self._expr(expr.right)
        # Pointer arithmetic scaling.
        if op in ("+", "-") and isinstance(left_type, PointerType) and (
            right_type is not None and right_type.is_integer
        ):
            right = self._scale(right, max(left_type.pointee.size(), 1))
        elif op == "+" and isinstance(right_type, PointerType) and (
            left_type is not None and left_type.is_integer
        ):
            left = self._scale(left, max(right_type.pointee.size(), 1))
        result = self._binary(op, left, right)
        if (
            op == "-"
            and isinstance(left_type, PointerType)
            and isinstance(right_type, PointerType)
        ):
            element = max(left_type.pointee.size(), 1)
            if element != 1:
                result = self._binary("/", result, element)
        return result

    def _short_circuit(self, expr: ast.Binary) -> Operand:
        """Lower && / || with control flow, as the paper's IL would."""
        result = self._fn.new_temp()
        right_label = self._fn.new_label()
        true_label = self._fn.new_label()
        false_label = self._fn.new_label()
        end = self._fn.new_label()
        left = self._expr(expr.left)
        if expr.op == "&&":
            self._emit(Instr(Opcode.CJUMP, a=left, label=right_label, label2=false_label))
        else:
            self._emit(Instr(Opcode.CJUMP, a=left, label=true_label, label2=right_label))
        self._emit_label(right_label)
        right = self._expr(expr.right)
        self._emit(Instr(Opcode.CJUMP, a=right, label=true_label, label2=false_label))
        self._emit_label(true_label)
        self._emit(Instr(Opcode.CONST, dst=result, a=1))
        self._emit(Instr(Opcode.JUMP, label=end))
        self._emit_label(false_label)
        self._emit(Instr(Opcode.CONST, dst=result, a=0))
        self._emit_label(end)
        return result

    def _conditional(self, expr: ast.Conditional) -> Operand:
        result = self._fn.new_temp()
        then_label = self._fn.new_label()
        else_label = self._fn.new_label()
        end = self._fn.new_label()
        cond = self._expr(expr.cond)
        self._emit(Instr(Opcode.CJUMP, a=cond, label=then_label, label2=else_label))
        self._emit_label(then_label)
        then_value = self._expr(expr.then)
        self._emit(Instr(Opcode.MOV, dst=result, a=self._to_reg(then_value)))
        self._emit(Instr(Opcode.JUMP, label=end))
        self._emit_label(else_label)
        else_value = self._expr(expr.otherwise)
        self._emit(Instr(Opcode.MOV, dst=result, a=self._to_reg(else_value)))
        self._emit_label(end)
        return result

    def _assign(self, expr: ast.Assign) -> Operand:
        assert expr.target is not None and expr.value is not None
        if expr.op == "=":
            target_type = expr.target.ctype
            if target_type is not None and target_type.is_struct:
                return self._struct_copy(expr)
            place = self._place(expr.target)
            value = self._expr(expr.value)
            value = self._coerce_char(value, place.ctype)
            self._store_place(place, value)
            return value
        # Compound assignment: read-modify-write.
        place = self._place(expr.target)
        old = self._to_reg(self._load_place(place))
        value = self._expr(expr.value)
        op = expr.op[:-1]
        target_type = decay(expr.target.ctype) if expr.target.ctype else None
        if (
            op in ("+", "-")
            and isinstance(target_type, PointerType)
            and expr.value.ctype is not None
            and decay(expr.value.ctype).is_integer
        ):
            value = self._scale(value, max(target_type.pointee.size(), 1))
        new = self._binary(op, old, value)
        new = self._to_reg(self._coerce_char(new, place.ctype))
        self._store_place(place, new)
        return new

    def _struct_copy(self, expr: ast.Assign) -> Operand:
        """Lower ``a = b`` for structs as a word-by-word copy."""
        assert expr.target is not None and expr.value is not None
        struct = expr.target.ctype
        assert isinstance(struct, StructType)
        dst_addr = self._to_reg(self._address_of(expr.target))
        src_addr = self._to_reg(self._expr(expr.value))
        offset = 0
        size = struct.size()
        while offset < size:
            chunk = _WORD if size - offset >= _WORD else 1
            src = self._binary("+", src_addr, offset) if offset else src_addr
            value = self._fn.new_temp()
            self._emit(Instr(Opcode.LOAD, dst=value, a=src, size=chunk))
            dst = self._binary("+", dst_addr, offset) if offset else dst_addr
            self._emit(Instr(Opcode.STORE, a=dst, b=value, size=chunk))
            offset += chunk
        return dst_addr

    def _call(self, expr: ast.Call) -> Operand:
        assert expr.callee is not None
        args: list[Operand] = [self._expr(arg) for arg in expr.args]
        returns_value = expr.ctype is not None and not expr.ctype.is_void
        dst = self._fn.new_temp() if returns_value else None
        callee = expr.callee
        direct_name: str | None = None
        if isinstance(callee, ast.Identifier) and isinstance(
            callee.symbol, FunctionSymbol
        ):
            direct_name = callee.symbol.name
        if direct_name is not None:
            self._emit(
                Instr(
                    Opcode.CALL,
                    dst=dst,
                    name=direct_name,
                    args=args,
                    site=self._module.new_site_id(),
                )
            )
        else:
            pointer = self._expr(callee)
            self._emit(
                Instr(
                    Opcode.ICALL,
                    dst=dst,
                    a=pointer,
                    args=args,
                    site=self._module.new_site_id(),
                )
            )
        return dst if dst is not None else 0

    # ------------------------------------------------------------------
    # places (lvalues)

    def _place(self, expr: ast.Expr) -> _Place:
        if isinstance(expr, ast.Identifier):
            symbol = expr.symbol
            assert isinstance(symbol, VarSymbol)
            ctype = symbol.ctype
            if symbol.is_global:
                addr = self._fn.new_temp()
                self._emit(Instr(Opcode.GADDR, dst=addr, name=symbol.name))
                return _Place("mem", addr=addr, size=min(ctype.size(), _WORD), ctype=ctype)
            kind, name = self._storage[id(symbol)]
            if kind == "reg":
                return _Place("reg", reg=name, ctype=ctype)
            addr = self._fn.new_temp()
            self._emit(Instr(Opcode.FRAME, dst=addr, name=name))
            return _Place("mem", addr=addr, size=min(ctype.size(), _WORD), ctype=ctype)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointee = expr.ctype
            assert pointee is not None
            addr = self._expr(expr.operand)
            return _Place("mem", addr=addr, size=min(pointee.size(), _WORD), ctype=pointee)
        if isinstance(expr, ast.Index):
            return self._index_place(expr)
        if isinstance(expr, ast.Member):
            return self._member_place(expr)
        raise LoweringError("expression is not assignable", expr.location)

    def _index_place(self, expr: ast.Index) -> _Place:
        assert expr.base is not None and expr.index is not None
        element = expr.ctype
        assert element is not None
        base = self._expr(expr.base)
        index = self._expr(expr.index)
        offset = self._scale(index, max(element.size(), 1))
        addr = self._binary("+", base, offset)
        return _Place("mem", addr=addr, size=min(element.size(), _WORD), ctype=element)

    def _member_place(self, expr: ast.Member) -> _Place:
        assert expr.base is not None
        if expr.arrow:
            base_type = decay(expr.base.ctype) if expr.base.ctype else None
            assert isinstance(base_type, PointerType)
            struct = base_type.pointee
            base = self._expr(expr.base)
        else:
            struct = expr.base.ctype
            base = self._address_of(expr.base)
        assert isinstance(struct, StructType)
        field_entry = struct.field(expr.name)
        addr = (
            self._binary("+", self._to_reg(base), field_entry.offset)
            if field_entry.offset
            else base
        )
        return _Place(
            "mem",
            addr=addr,
            size=min(field_entry.type.size(), _WORD),
            ctype=field_entry.type,
        )

    def _load_place(self, place: _Place) -> Operand:
        if place.kind == "reg":
            return place.reg
        ctype = place.ctype
        if ctype is not None and (ctype.is_array or ctype.is_struct):
            return place.addr
        dst = self._fn.new_temp()
        self._emit(Instr(Opcode.LOAD, dst=dst, a=place.addr, size=place.size))
        return dst

    def _store_place(self, place: _Place, value: Operand) -> None:
        if place.kind == "reg":
            self._emit(Instr(Opcode.MOV, dst=place.reg, a=self._to_reg(value)))
        else:
            self._emit(Instr(Opcode.STORE, a=place.addr, b=value, size=place.size))


# ----------------------------------------------------------------------
# globals


def _lower_global_init(
    module: ILModule,
    items: list[InitItem],
    offset: int,
    ctype: CType,
    init: ast.Initializer,
) -> None:
    if isinstance(init, ast.StringLiteral):
        if isinstance(ctype, ArrayType):
            data = init.value.encode("latin-1", errors="replace") + b"\x00"
            items.append(InitItem(offset, "bytes", data=data))
            return
        name = module.intern_string(init.value)
        items.append(InitItem(offset, "gaddr", symbol=name))
        return
    if isinstance(init, ast.InitList):
        if isinstance(ctype, ArrayType):
            element_size = ctype.element.size()
            for index, item in enumerate(init.items):
                _lower_global_init(
                    module, items, offset + index * element_size, ctype.element, item
                )
            return
        if isinstance(ctype, StructType):
            for item, field_entry in zip(init.items, ctype.fields):
                _lower_global_init(
                    module, items, offset + field_entry.offset, field_entry.type, item
                )
            return
        raise LoweringError(f"brace initializer for scalar {ctype}", init.location)
    # Scalar initializer: a constant, an address of a global, or a
    # function name (building the paper's call-through-pointer tables).
    if isinstance(init, ast.Identifier) and isinstance(init.symbol, FunctionSymbol):
        items.append(InitItem(offset, "faddr", symbol=init.symbol.name))
        return
    if isinstance(init, ast.Unary) and init.op == "&":
        operand = init.operand
        if isinstance(operand, ast.Identifier):
            if isinstance(operand.symbol, FunctionSymbol):
                items.append(InitItem(offset, "faddr", symbol=operand.symbol.name))
                return
            if isinstance(operand.symbol, VarSymbol) and operand.symbol.is_global:
                items.append(InitItem(offset, "gaddr", symbol=operand.symbol.name))
                return
        raise LoweringError("unsupported address in global initializer", init.location)
    if isinstance(init, ast.Identifier) and isinstance(init.symbol, VarSymbol):
        if init.symbol.is_global and init.symbol.ctype.is_array:
            items.append(InitItem(offset, "gaddr", symbol=init.symbol.name))
            return
    from repro.frontend.constexpr import eval_const_expr

    value = eval_const_expr(init)
    items.append(InitItem(offset, "int", value=value, size=min(ctype.size(), _WORD)))


def lower_unit(
    analyzed: AnalyzedUnit, entry: str = "main", base: ILModule | None = None
) -> ILModule:
    """Lower an analyzed translation unit to an IL module.

    With ``base`` — a module lowered from the unit's prelude (see
    :class:`~repro.frontend.sema.Analyzer`), which this call takes over
    and extends — the unit's globals and functions follow the base's,
    and its call sites and strings are numbered after them, as in the
    single translation unit. That holds as long as the base interned no
    strings, because a single unit lowers every global before any body.
    """
    if base is not None and base._next_string:
        raise LoweringError("a base module must not intern strings")
    module = base if base is not None else ILModule()
    module.entry = entry
    for decl in analyzed.unit.globals:
        assert decl.var_type is not None
        items: list[InitItem] = []
        if decl.init is not None:
            _lower_global_init(module, items, 0, decl.var_type, decl.init)
        module.add_global(
            GlobalData(decl.name, decl.var_type.size(), decl.var_type.alignment(), items)
        )
    for name, symbol in analyzed.functions.items():
        if symbol.is_external:
            module.declare_external(name)
        if symbol.address_taken:
            module.address_taken.add(name)
    for name, info in analyzed.function_info.items():
        module.add_function(_FunctionLowerer(module, info).lower())
    return module
