"""MiniPy code generation: AST → repro IR via the secure-value contract.

The lowering is deliberately boring: every MiniPy value is a 64-bit
integer (comparisons are i1 until used, byte-string literals are
``i8*`` like MiniC strings), every local is an entry-block ``alloca``
promoted by ``mem2reg``, and the surface `secure`/`public`
declarations disappear into colored IR types — by the time the secure
type analysis runs there is no way to tell which frontend produced
the module.

Cross-language composition falls out of the contract: when lowering
into a shared module (``repro.secval.compile_cross``), a MiniPy call
site resolves MiniC-defined functions (and the shared mini-libc
builtins) by name, with normal argument coercion to the callee's
parameter types.

Control flow, strings, truthiness, coercion and calls are the lowering
core's (:class:`repro.frontend.lowering.Lowering`); this module adds
only what is MiniPy's own: the flat function namespace and the
module-level ``secure``/``public`` globals.
"""

from __future__ import annotations

from typing import List

from repro.errors import FrontendError
from repro.frontend.lowering import (
    ARITH_OPCODES,
    CMP_PREDICATES,
    Lowering,
    LoweringPolicy,
)
from repro.frontend.minipy import ast_nodes as ast
from repro.frontend.minipy.parser import parse
from repro.ir import (
    ArrayType,
    Constant,
    Function,
    FunctionType,
    GlobalVariable,
    IRType,
    Module,
    PointerType,
    I8,
    I64,
)
from repro.secval.lowering import validate_annotation
from repro.secval.model import validate_color_name

#: Module-level declaration forms; calling these inside a function is
#: a frontend error (colors are static, paper §4).
_DECL_FORMS = ("secure", "public")


class CodeGenerator(Lowering):
    """Generates one IR module from one MiniPy program."""

    language = "minipy"
    policy = LoweringPolicy(truth_type=I64)
    parse = staticmethod(parse)

    # -- entry point --------------------------------------------------------------

    def generate(self, program: ast.Program) -> Module:
        functions = [d for d in program.body
                     if isinstance(d, ast.FunctionDef)]
        globals_ = [d for d in program.body
                    if isinstance(d, ast.GlobalDef)]

        for decl in globals_:
            self._define_global(decl)
        for decl in functions:
            self._declare_function(decl)
        for decl in functions:
            self._define_function(decl)
        return self.module

    # -- globals -----------------------------------------------------------------------

    def _define_global(self, decl: ast.GlobalDef) -> None:
        color = decl.color
        if color is not None:
            color = validate_color_name(color)
        if isinstance(decl.init, ast.IntLiteral):
            vtype: IRType = I64 if color is None else I64.with_color(color)
            init = Constant(vtype, decl.init.value)
        elif isinstance(decl.init, ast.StringLiteral):
            element = I8 if color is None else I8.with_color(color)
            vtype = ArrayType(element, len(decl.init.value) + 1)
            init = Constant(vtype, decl.init.value)
        else:
            raise FrontendError("a module-level value must be an int "
                                "or string literal",
                                decl.line, decl.column)
        self.module.add_global(GlobalVariable(decl.name, vtype, init))

    # -- functions ----------------------------------------------------------------------

    def _declare_function(self, decl: ast.FunctionDef) -> None:
        annotations = {validate_annotation(d.name, d.line, d.column)
                       for d in decl.decorators}
        ftype = FunctionType(I64, [I64] * len(decl.params))
        existing = self.module.functions.get(decl.name)
        if existing is not None:
            raise FrontendError(f"duplicate definition of {decl.name!r}",
                                decl.line, decl.column)
        fn = Function(decl.name, ftype, list(decl.params), annotations)
        self.module.add_function(fn)

    def _define_function(self, decl: ast.FunctionDef) -> None:
        self._begin_function(self.module.get_function(decl.name))
        # Python function semantics: one flat namespace.  Every name
        # the body assigns gets an i64 entry-block slot next to the
        # parameters' (promoted by mem2reg), so a value survives loop
        # iterations regardless of where the first assignment sits.
        # A name bound at module level stays global — assignment
        # writes through (C-style; MiniPy has no ``global`` keyword).
        for name in _assigned_names(decl.body):
            if self._slot(name) is not None:
                continue
            slot = self.builder.alloca(I64, name)
            self.builder.store(self.builder.const_i64(0), slot)
            self.scope.define(name, slot)
        self._gen_body(decl.body)
        self._end_function()

    # -- statements ------------------------------------------------------------------------

    def _gen_body(self, statements: List[ast.Node]) -> None:
        for stmt in statements:
            self._gen_statement(stmt)

    def _gen_statement(self, stmt: ast.Node) -> None:
        self.builder.set_loc(stmt)
        if isinstance(stmt, ast.Assign):
            self._gen_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._gen_rvalue(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt.cond, stmt.body, stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt.cond, stmt.body)
        elif isinstance(stmt, ast.Return):
            self._gen_return(stmt.value, stmt)
        elif isinstance(stmt, ast.Break):
            self._gen_break(stmt)
        elif isinstance(stmt, ast.Continue):
            self._gen_continue(stmt)
        elif isinstance(stmt, ast.Pass):
            pass
        else:
            raise FrontendError(f"cannot generate {type(stmt).__name__}",
                                stmt.line, stmt.column)

    def _gen_assign(self, stmt: ast.Assign) -> None:
        slot = self._slot(stmt.target)
        if slot is None:
            raise FrontendError(f"undefined variable {stmt.target!r}",
                                stmt.line, stmt.column)
        # Python loads the target of ``x op= e`` before evaluating e.
        old = self.builder.load(slot) if stmt.op is not None else None
        value, = self._gen_operands(stmt, stmt.value)
        if old is not None:
            value = self.builder.binop(
                _ARITH_MAP[stmt.op],
                self._coerce(old, I64, stmt),
                self._coerce(value, I64, stmt))
        value = self._coerce(value, slot.type.pointee, stmt)
        self.builder.store(value, slot)

    # -- expressions --------------------------------------------------------------------

    def _gen_rvalue(self, expr: ast.Node):
        self.builder.set_loc(expr)
        if isinstance(expr, ast.IntLiteral):
            return self.builder.const_i64(expr.value)
        if isinstance(expr, ast.StringLiteral):
            return self._gen_string(expr.value)
        if isinstance(expr, ast.Name):
            return self._gen_identifier(expr.name, expr)
        if isinstance(expr, ast.Call):
            return self._gen_call(expr)
        if isinstance(expr, ast.BinOp):
            return self._gen_binop(expr)
        if isinstance(expr, ast.Compare):
            return self._gen_compare(expr)
        if isinstance(expr, ast.BoolOp):
            return self._gen_short_circuit(expr.op == "and", expr.lhs,
                                           expr.rhs, expr)
        if isinstance(expr, ast.UnaryOp):
            return self._gen_unary(expr)
        raise FrontendError(f"cannot generate {type(expr).__name__}",
                            expr.line, expr.column)

    def _gen_call(self, expr: ast.Call):
        if expr.callee in _DECL_FORMS:
            raise FrontendError(
                f"{expr.callee}(...) declarations are only allowed at "
                f"module level; colors are fixed at compile time "
                f"(paper §4)", expr.line, expr.column)
        args = self._gen_operands(expr, *expr.args)
        callee = self._function_named(expr.callee)
        if callee is None:
            raise FrontendError(f"undefined function {expr.callee!r}",
                                expr.line, expr.column)
        return self._gen_call_to(callee, args, expr)

    def _gen_compare(self, expr: ast.Compare):
        lhs, rhs = self._gen_operands(expr, expr.lhs, expr.rhs)
        if not (isinstance(lhs.type, PointerType)
                and isinstance(rhs.type, PointerType)):
            lhs = self._coerce(lhs, I64, expr)
            rhs = self._coerce(rhs, I64, expr)
        return self.builder.cmp(CMP_PREDICATES[expr.op], lhs, rhs)

    def _gen_binop(self, expr: ast.BinOp):
        lhs, rhs = self._gen_operands(expr, expr.lhs, expr.rhs)
        lhs = self._coerce(lhs, I64, expr)
        rhs = self._coerce(rhs, I64, expr)
        return self.builder.binop(_ARITH_MAP[expr.op], lhs, rhs)

    def _gen_unary(self, expr: ast.UnaryOp):
        if expr.op == "not":
            return self._gen_not(expr.operand, expr)
        operand, = self._gen_operands(expr, expr.operand)
        operand = self._coerce(operand, I64, expr)
        if expr.op == "-":
            return self.builder.sub(Constant(I64, 0), operand)
        if expr.op == "~":
            return self.builder.binop("xor", operand, Constant(I64, -1))
        raise FrontendError(f"unsupported unary {expr.op!r}",
                            expr.line, expr.column)


#: ``//`` and ``%`` truncate toward zero, as in C (not Python's floor).
_ARITH_MAP = {**ARITH_OPCODES, "//": "sdiv"}


def _assigned_names(statements: List[ast.Node]) -> List[str]:
    """Every name the body assigns, in document order (Python's
    function-local namespace, computed statically)."""
    names: List[str] = []

    def visit(stmts: List[ast.Node]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                if stmt.target not in names:
                    names.append(stmt.target)
            elif isinstance(stmt, ast.If):
                visit(stmt.body)
                visit(stmt.orelse)
            elif isinstance(stmt, ast.While):
                visit(stmt.body)

    visit(statements)
    return names
