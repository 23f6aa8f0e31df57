"""Semantic analysis for the C subset.

Resolves identifiers to symbols, type-checks every expression (filling
in ``Expr.ctype``), verifies lvalue-ness and call signatures, and marks
address-taken variables and functions. The latter matters to the paper's
algorithm: functions whose addresses are used in computation form the
callee set of the ``###`` call-through-pointer node (§2.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import SemanticError
from repro.frontend import ast
from repro.frontend.symbols import FunctionSymbol, Scope, VarSymbol
from repro.frontend.typesys import (
    CHAR,
    INT,
    ArrayType,
    CType,
    FunctionType,
    PointerType,
    StructType,
    decay,
    is_assignable,
)

_COMPARISON_OPS = ("<", ">", "<=", ">=", "==", "!=")
_LOGICAL_OPS = ("&&", "||")


@dataclass
class FunctionInfo:
    """Per-function facts collected during analysis, used by lowering."""

    definition: ast.FunctionDef
    params: list[VarSymbol] = field(default_factory=list)
    locals: list[VarSymbol] = field(default_factory=list)
    has_return_value: bool = False


@dataclass
class AnalyzedUnit:
    """A translation unit plus its resolved symbol information."""

    unit: ast.TranslationUnit
    globals: dict[str, VarSymbol] = field(default_factory=dict)
    functions: dict[str, FunctionSymbol] = field(default_factory=dict)
    function_info: dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def external_functions(self) -> list[str]:
        """Functions declared but not defined — the paper's externals."""
        return sorted(
            name for name, sym in self.functions.items() if sym.is_external
        )

    @property
    def address_taken_functions(self) -> list[str]:
        return sorted(
            name for name, sym in self.functions.items() if sym.address_taken
        )


class Analyzer:
    """Walks a TranslationUnit, checking and annotating it in place.

    With a ``prelude`` — the analysis of a unit that comes first in the
    same translation unit, such as libc — the unit is analysed as if
    its text followed the prelude's: the prelude's functions and
    globals are in scope, its prototypes win over later ones, and a
    clash raises the error the single translation unit would. The
    prelude's symbols are copied, never mutated, and its bodies are
    not analysed again.
    """

    def __init__(
        self, unit: ast.TranslationUnit, prelude: AnalyzedUnit | None = None
    ):
        self._unit = unit
        self._prelude = prelude
        self._globals = Scope()
        self._scope = self._globals
        self._result = AnalyzedUnit(unit)
        self._current: FunctionInfo | None = None
        self._loop_depth = 0
        self._switch_depth = 0
        self._next_local_uid = 0

    # ------------------------------------------------------------------

    def analyze(self) -> AnalyzedUnit:
        functions = self._result.functions
        prelude = self._prelude
        if prelude is not None:
            for name, symbol in prelude.functions.items():
                symbol = replace(symbol)
                self._globals.declare(symbol)
                functions[name] = symbol
        for name, signature in self._unit.declared_only.items():
            if name in functions:
                continue
            symbol = FunctionSymbol(signature, defined=False)
            self._globals.declare(symbol)
            functions[name] = symbol
        if prelude is not None:
            # A prototype of a prelude function that the prelude never
            # declared precedes its definition in the single unit.
            for definition in prelude.unit.functions:
                name = definition.name
                signature = self._unit.declared_only.get(name)
                if signature is not None and name not in prelude.unit.declared_only:
                    self._in_this_file(
                        self._check_signature_match,
                        FunctionSymbol(signature),
                        definition,
                    )
        for function in self._unit.functions:
            assert function.signature is not None
            existing = functions.get(function.name)
            if existing is not None:
                self._check_signature_match(existing, function)
                existing.defined = True
            else:
                symbol = FunctionSymbol(
                    function.signature, defined=True, location=function.location
                )
                self._globals.declare(symbol)
                functions[function.name] = symbol
        if prelude is not None:
            for name, symbol in prelude.globals.items():
                symbol = replace(symbol)
                self._in_this_file(self._globals.declare, symbol)
                self._result.globals[name] = symbol
        for global_var in self._unit.globals:
            self._declare_global(global_var)
        for function in self._unit.functions:
            self._analyze_function(function)
        return self._result

    def _in_this_file(self, check, *args) -> None:
        """Run ``check`` on a prelude entity, reporting errors in this file.

        The single translation unit lexes the prelude's text under the
        program's file name, so that is where its errors point.
        """
        try:
            check(*args)
        except SemanticError as error:
            assert error.location is not None
            where = replace(error.location, filename=self._unit.location.filename)
            raise SemanticError(error.message, where) from None

    @staticmethod
    def _check_signature_match(
        symbol: FunctionSymbol, function: ast.FunctionDef
    ) -> None:
        declared = symbol.signature.type
        defined = function.signature.type if function.signature else None
        if defined is None:
            return
        if symbol.defined:
            raise SemanticError(
                f"redefinition of function {function.name!r}", function.location
            )
        if len(declared.param_types) != len(defined.param_types):
            raise SemanticError(
                f"conflicting parameter counts for {function.name!r}",
                function.location,
            )
        symbol.signature = function.signature  # prefer the definition's names

    def _declare_global(self, decl: ast.GlobalVar) -> None:
        assert decl.var_type is not None
        if decl.var_type.is_void:
            raise SemanticError(f"variable {decl.name!r} has type void", decl.location)
        symbol = VarSymbol(
            decl.name,
            decl.var_type,
            "global",
            uid=len(self._result.globals),
            location=decl.location,
        )
        self._globals.declare(symbol)
        self._result.globals[decl.name] = symbol
        if decl.init is not None:
            self._check_initializer(decl.var_type, decl.init, constant=True)

    # ------------------------------------------------------------------
    # functions

    def _analyze_function(self, function: ast.FunctionDef) -> None:
        assert function.signature is not None and function.body is not None
        info = FunctionInfo(function)
        self._current = info
        self._next_local_uid = 0
        self._result.function_info[function.name] = info
        self._scope = Scope(self._globals)
        for param in function.params:
            assert param.param_type is not None
            if not param.name:
                raise SemanticError(
                    f"unnamed parameter in {function.name!r}", function.location
                )
            symbol = VarSymbol(
                param.name,
                param.param_type,
                "param",
                uid=self._next_local_uid,
                location=param.location,
            )
            self._next_local_uid += 1
            self._scope.declare(symbol)
            info.params.append(symbol)
        self._visit_block(function.body, new_scope=True)
        self._scope = self._globals
        self._current = None

    # ------------------------------------------------------------------
    # statements

    def _visit_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._visit_block(stmt, new_scope=True)
        elif isinstance(stmt, ast.DeclStmt):
            self._visit_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._visit_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._require_scalar(self._visit_expr(stmt.cond), stmt)
            self._visit_stmt(stmt.then)
            if stmt.otherwise is not None:
                self._visit_stmt(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            self._require_scalar(self._visit_expr(stmt.cond), stmt)
            self._in_loop(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            self._in_loop(stmt.body)
            self._require_scalar(self._visit_expr(stmt.cond), stmt)
        elif isinstance(stmt, ast.For):
            previous = self._scope
            self._scope = Scope(previous)
            if stmt.init is not None:
                self._visit_stmt(stmt.init)
            if stmt.cond is not None:
                self._require_scalar(self._visit_expr(stmt.cond), stmt)
            if stmt.step is not None:
                self._visit_expr(stmt.step)
            self._in_loop(stmt.body)
            self._scope = previous
        elif isinstance(stmt, ast.Switch):
            ctype = self._visit_expr(stmt.scrutinee)
            if not decay(ctype).is_integer:
                raise SemanticError("switch needs an integer expression", stmt.location)
            self._switch_depth += 1
            for case in stmt.cases:
                for sub in case.body:
                    self._visit_stmt(sub)
            self._switch_depth -= 1
        elif isinstance(stmt, ast.Break):
            if self._loop_depth == 0 and self._switch_depth == 0:
                raise SemanticError("break outside loop or switch", stmt.location)
        elif isinstance(stmt, ast.Continue):
            if self._loop_depth == 0:
                raise SemanticError("continue outside loop", stmt.location)
        elif isinstance(stmt, ast.Return):
            self._visit_return(stmt)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        else:  # pragma: no cover - parser produces no other nodes
            raise SemanticError(f"unhandled statement {type(stmt).__name__}")

    def _in_loop(self, body: ast.Stmt | None) -> None:
        self._loop_depth += 1
        if body is not None:
            self._visit_stmt(body)
        self._loop_depth -= 1

    def _visit_block(self, block: ast.Block, new_scope: bool) -> None:
        previous = self._scope
        if new_scope:
            self._scope = Scope(previous)
        for stmt in block.statements:
            self._visit_stmt(stmt)
        self._scope = previous

    def _visit_decl(self, decl: ast.DeclStmt) -> None:
        assert decl.var_type is not None and self._current is not None
        if decl.var_type.is_void:
            raise SemanticError(f"variable {decl.name!r} has type void", decl.location)
        if isinstance(decl.var_type, StructType) and not decl.var_type.fields:
            raise SemanticError(
                f"variable {decl.name!r} has incomplete struct type", decl.location
            )
        symbol = VarSymbol(
            decl.name, decl.var_type, "local", uid=self._next_local_uid, location=decl.location
        )
        self._next_local_uid += 1
        self._scope.declare(symbol)
        self._current.locals.append(symbol)
        decl.symbol = symbol
        if decl.init is not None:
            self._check_initializer(decl.var_type, decl.init, constant=False)

    def _visit_return(self, stmt: ast.Return) -> None:
        assert self._current is not None
        signature = self._current.definition.signature
        assert signature is not None
        return_type = signature.type.return_type
        if stmt.value is None:
            if not return_type.is_void:
                # Classic C tolerates this; the subset requires a value.
                raise SemanticError(
                    f"non-void function {signature.name!r} returns no value",
                    stmt.location,
                )
            return
        if return_type.is_void:
            raise SemanticError(
                f"void function {signature.name!r} returns a value", stmt.location
            )
        value_type = self._visit_expr(stmt.value)
        if not is_assignable(return_type, value_type):
            raise SemanticError(
                f"cannot return {value_type} from function returning {return_type}",
                stmt.location,
            )
        self._current.has_return_value = True

    # ------------------------------------------------------------------
    # initializers

    def _check_initializer(
        self, target: CType, init: ast.Initializer, constant: bool
    ) -> None:
        if isinstance(init, ast.InitList):
            if isinstance(target, ArrayType):
                if len(init.items) > target.length:
                    raise SemanticError(
                        f"too many initializers ({len(init.items)}) for {target}",
                        init.location,
                    )
                for item in init.items:
                    self._check_initializer(target.element, item, constant)
            elif isinstance(target, StructType):
                if len(init.items) > len(target.fields):
                    raise SemanticError(
                        f"too many initializers for {target}", init.location
                    )
                for item, field_entry in zip(init.items, target.fields):
                    self._check_initializer(field_entry.type, item, constant)
            else:
                raise SemanticError(
                    f"brace initializer for scalar type {target}", init.location
                )
            return
        if isinstance(init, ast.StringLiteral) and isinstance(target, ArrayType):
            if not target.element.is_integer or target.element.size() != 1:
                raise SemanticError(
                    "string initializer needs a char array", init.location
                )
            if len(init.value) + 1 > target.length:
                raise SemanticError(
                    f"string too long for {target}", init.location
                )
            init.ctype = PointerType(CHAR)
            return
        value_type = self._visit_expr(init)
        if not is_assignable(target, value_type):
            raise SemanticError(
                f"cannot initialize {target} from {value_type}", init.location
            )

    # ------------------------------------------------------------------
    # expressions

    def _visit_expr(self, expr: ast.Expr | None) -> CType:
        assert expr is not None
        ctype = self._compute_type(expr)
        expr.ctype = ctype
        return ctype

    def _compute_type(self, expr: ast.Expr) -> CType:
        if isinstance(expr, ast.IntLiteral):
            return INT
        if isinstance(expr, ast.StringLiteral):
            return PointerType(CHAR)
        if isinstance(expr, ast.Identifier):
            return self._visit_identifier(expr)
        if isinstance(expr, ast.Unary):
            return self._visit_unary(expr)
        if isinstance(expr, ast.PostIncDec):
            operand = self._visit_expr(expr.operand)
            self._require_lvalue(expr.operand)
            self._require_scalar(decay(operand), expr)
            return decay(operand)
        if isinstance(expr, ast.Binary):
            return self._visit_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._visit_assign(expr)
        if isinstance(expr, ast.Conditional):
            self._require_scalar(self._visit_expr(expr.cond), expr)
            then = decay(self._visit_expr(expr.then))
            otherwise = decay(self._visit_expr(expr.otherwise))
            if then.is_pointer:
                return then
            return otherwise if otherwise.is_pointer else then
        if isinstance(expr, ast.Call):
            return self._visit_call(expr)
        if isinstance(expr, ast.Index):
            return self._visit_index(expr)
        if isinstance(expr, ast.Member):
            return self._visit_member(expr)
        if isinstance(expr, ast.Cast):
            self._visit_expr(expr.operand)
            assert expr.target_type is not None
            return expr.target_type
        if isinstance(expr, ast.SizeofType):
            return INT
        raise SemanticError(f"unhandled expression {type(expr).__name__}", expr.location)

    def _visit_identifier(self, expr: ast.Identifier) -> CType:
        symbol = self._scope.lookup(expr.name)
        if symbol is None:
            raise SemanticError(f"use of undeclared identifier {expr.name!r}", expr.location)
        expr.symbol = symbol
        if isinstance(symbol, FunctionSymbol):
            # A function name reached through the generic path is being
            # used as a value (argument, assignment, table entry): its
            # address escapes — it joins the ### callee set (§2.5). The
            # direct-call case bypasses this method from _visit_call.
            symbol.address_taken = True
            return symbol.signature.type
        return symbol.ctype

    def _visit_unary(self, expr: ast.Unary) -> CType:
        assert expr.operand is not None
        if expr.op == "&":
            operand_type = self._visit_expr(expr.operand)
            if isinstance(expr.operand, ast.Identifier):
                symbol = expr.operand.symbol
                if isinstance(symbol, FunctionSymbol):
                    symbol.address_taken = True
                    assert isinstance(operand_type, FunctionType)
                    return PointerType(operand_type)
                assert isinstance(symbol, VarSymbol)
                symbol.address_taken = True
                return PointerType(operand_type)
            self._require_lvalue(expr.operand)
            self._mark_address_taken(expr.operand)
            return PointerType(operand_type)
        operand_type = self._visit_expr(expr.operand)
        if expr.op == "*":
            decayed = decay(operand_type)
            if not decayed.is_pointer:
                raise SemanticError(
                    f"cannot dereference non-pointer {operand_type}", expr.location
                )
            assert isinstance(decayed, PointerType)
            return decayed.pointee
        if expr.op == "sizeof":
            return INT
        if expr.op in ("++", "--"):
            self._require_lvalue(expr.operand)
            self._require_scalar(decay(operand_type), expr)
            return decay(operand_type)
        if expr.op in ("-", "+", "~"):
            if not decay(operand_type).is_integer:
                raise SemanticError(
                    f"unary {expr.op!r} needs an integer, got {operand_type}",
                    expr.location,
                )
            return INT
        if expr.op == "!":
            self._require_scalar(decay(operand_type), expr)
            return INT
        raise SemanticError(f"unknown unary operator {expr.op!r}", expr.location)

    def _mark_address_taken(self, expr: ast.Expr) -> None:
        """Propagate &-taken through lvalue structure to the base symbol."""
        if isinstance(expr, ast.Identifier) and isinstance(expr.symbol, VarSymbol):
            expr.symbol.address_taken = True
        elif isinstance(expr, ast.Index) and expr.base is not None:
            self._mark_address_taken(expr.base)
        elif isinstance(expr, ast.Member) and not expr.arrow and expr.base is not None:
            self._mark_address_taken(expr.base)
        # Deref / arrow cases already go through a pointer: nothing to mark.

    def _visit_binary(self, expr: ast.Binary) -> CType:
        assert expr.left is not None and expr.right is not None
        if expr.op == ",":
            self._visit_expr(expr.left)
            return decay(self._visit_expr(expr.right))
        left = decay(self._visit_expr(expr.left))
        right = decay(self._visit_expr(expr.right))
        if expr.op in _LOGICAL_OPS:
            self._require_scalar(left, expr)
            self._require_scalar(right, expr)
            return INT
        if expr.op in _COMPARISON_OPS:
            self._require_scalar(left, expr)
            self._require_scalar(right, expr)
            return INT
        if expr.op == "+":
            if left.is_pointer and right.is_integer:
                return left
            if left.is_integer and right.is_pointer:
                return right
        if expr.op == "-":
            if left.is_pointer and right.is_integer:
                return left
            if left.is_pointer and right.is_pointer:
                return INT
        if left.is_integer and right.is_integer:
            return INT
        raise SemanticError(
            f"invalid operands to {expr.op!r}: {left} and {right}", expr.location
        )

    def _visit_assign(self, expr: ast.Assign) -> CType:
        assert expr.target is not None and expr.value is not None
        target = self._visit_expr(expr.target)
        self._require_lvalue(expr.target)
        value = self._visit_expr(expr.value)
        if expr.op == "=":
            if not is_assignable(target, value):
                raise SemanticError(
                    f"cannot assign {value} to {target}", expr.location
                )
            return decay(target)
        # Compound assignment: target op= value.
        op = expr.op[:-1]
        left = decay(target)
        right = decay(value)
        if op in ("+", "-") and left.is_pointer and right.is_integer:
            return left
        if left.is_integer and right.is_integer:
            return left
        raise SemanticError(
            f"invalid operands to {expr.op!r}: {target} and {value}", expr.location
        )

    def _visit_call(self, expr: ast.Call) -> CType:
        assert expr.callee is not None
        # Resolve a direct callee without the generic identifier path so
        # that the call position does not mark the function
        # address-taken (only value uses feed the ### node).
        if isinstance(expr.callee, ast.Identifier):
            symbol = self._scope.lookup(expr.callee.name)
            if symbol is None:
                raise SemanticError(
                    f"call to undeclared function {expr.callee.name!r}",
                    expr.location,
                )
            expr.callee.symbol = symbol
            if isinstance(symbol, FunctionSymbol):
                callee_type: CType = symbol.signature.type
            else:
                callee_type = symbol.ctype
            expr.callee.ctype = callee_type
        else:
            callee_type = self._visit_expr(expr.callee)
        function_type: FunctionType | None = None
        if isinstance(callee_type, FunctionType):
            function_type = callee_type
        else:
            decayed = decay(callee_type)
            if decayed.is_pointer and isinstance(decayed, PointerType) and isinstance(
                decayed.pointee, FunctionType
            ):
                function_type = decayed.pointee
            else:
                raise SemanticError(
                    f"called object has type {callee_type}, not a function",
                    expr.location,
                )
        if len(expr.args) != len(function_type.param_types):
            name = (
                expr.callee.name
                if isinstance(expr.callee, ast.Identifier)
                else "<indirect>"
            )
            raise SemanticError(
                f"call to {name} with {len(expr.args)} argument(s), expected"
                f" {len(function_type.param_types)}",
                expr.location,
            )
        for arg, param_type in zip(expr.args, function_type.param_types):
            arg_type = self._visit_expr(arg)
            if not is_assignable(param_type, arg_type):
                raise SemanticError(
                    f"cannot pass {arg_type} as parameter of type {param_type}",
                    expr.location,
                )
        return function_type.return_type

    def _visit_index(self, expr: ast.Index) -> CType:
        assert expr.base is not None and expr.index is not None
        base = decay(self._visit_expr(expr.base))
        index = decay(self._visit_expr(expr.index))
        if not base.is_pointer:
            raise SemanticError(f"cannot index non-pointer {base}", expr.location)
        if not index.is_integer:
            raise SemanticError(f"array index must be integer, got {index}", expr.location)
        assert isinstance(base, PointerType)
        return base.pointee

    def _visit_member(self, expr: ast.Member) -> CType:
        assert expr.base is not None
        base = self._visit_expr(expr.base)
        if expr.arrow:
            decayed = decay(base)
            if not (decayed.is_pointer and isinstance(decayed, PointerType)):
                raise SemanticError(
                    f"'->' on non-pointer type {base}", expr.location
                )
            struct = decayed.pointee
        else:
            struct = base
        if not isinstance(struct, StructType):
            raise SemanticError(f"member access on non-struct {struct}", expr.location)
        return struct.field(expr.name).type

    # ------------------------------------------------------------------
    # checks

    def _require_scalar(self, ctype: CType, node: ast.Node) -> None:
        if not decay(ctype).is_scalar:
            raise SemanticError(
                f"expected a scalar value, got {ctype}", node.location
            )

    def _require_lvalue(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Identifier):
            if isinstance(expr.symbol, FunctionSymbol):
                raise SemanticError(
                    f"function {expr.name!r} is not an lvalue", expr.location
                )
            if expr.ctype is not None and expr.ctype.is_array:
                raise SemanticError("array is not assignable", expr.location)
            return
        if isinstance(expr, (ast.Index, ast.Member)):
            return
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return
        raise SemanticError("expression is not an lvalue", expr.location)


def analyze(
    unit: ast.TranslationUnit, prelude: AnalyzedUnit | None = None
) -> AnalyzedUnit:
    """Run semantic analysis over ``unit``, annotating it in place.

    ``prelude`` is the analysis of the unit's leading part, see
    :class:`Analyzer`.
    """
    return Analyzer(unit, prelude).analyze()
