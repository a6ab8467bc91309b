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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import FrontendError
from repro.frontend.minipy import ast_nodes as ast
from repro.ir import (
    ArrayType,
    BasicBlock,
    Constant,
    Function,
    FunctionType,
    GlobalVariable,
    IRBuilder,
    IRType,
    Module,
    PointerType,
    I1,
    I8,
    I64,
)
from repro.ir.types import IntType
from repro.secval.lowering import auto_declare_builtin, validate_annotation
from repro.secval.model import validate_color_name

#: Module-level declaration forms; calling these inside a function is
#: a frontend error (colors are static, paper §4).
_DECL_FORMS = ("secure", "public")


class CodeGenerator:
    """Generates one IR module from one MiniPy program."""

    def __init__(self, module_name: str = "minipy",
                 module: Optional[Module] = None):
        # Lower into ``module`` when given (cross-language composition
        # via repro.secval.compile_cross), else into a fresh module.
        self.module = module if module is not None else Module(module_name)
        self._string_counter = 0
        # per-function state
        self.builder: Optional[IRBuilder] = None
        self.function: Optional[Function] = None
        self.locals: Dict[str, object] = {}
        self._loop_stack: List[Tuple[BasicBlock, BasicBlock]] = []

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
        fn = self.module.get_function(decl.name)
        self.function = fn
        self.locals = {}
        self._loop_stack = []
        entry = fn.add_block("entry")
        self.builder = IRBuilder(entry)

        # Python function semantics: one flat namespace.  Every
        # parameter and every name the body assigns gets an i64
        # entry-block slot (promoted by mem2reg), so a value survives
        # loop iterations regardless of where the first assignment
        # sits.
        for arg in fn.args:
            slot = self.builder.alloca(I64, f"{arg.name}.addr")
            self.builder.store(arg, slot)
            self.locals[arg.name] = slot
        # A name bound at module level stays global — assignment
        # writes through (C-style; MiniPy has no ``global`` keyword).
        for name in _assigned_names(decl.body):
            if name in self.locals or name in self.module.globals:
                continue
            slot = self.builder.alloca(I64, name)
            self.builder.store(self.builder.const_i64(0), slot)
            self.locals[name] = slot

        self._gen_body(decl.body)

        if self.builder.block is not None and \
                not self.builder.block.is_terminated:
            self.builder.ret(self.builder.const_i64(0))
        for block in fn.blocks:
            if not block.is_terminated:
                IRBuilder(block).ret(IRBuilder.const_i64(0))
        self.function = None
        self.builder = None
        self.locals = {}

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
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.Return):
            self._gen_return(stmt)
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
        slot = self.locals.get(stmt.target)
        if slot is None:
            gv = self.module.globals.get(stmt.target)
            if gv is None:
                raise FrontendError(
                    f"undefined variable {stmt.target!r}",
                    stmt.line, stmt.column)
            slot = gv
        value = self._gen_rvalue(stmt.value)
        if stmt.op is not None:
            old = self.builder.load(slot)
            value = self.builder.binop(
                _ARITH_MAP[stmt.op],
                self._coerce(old, I64, stmt),
                self._coerce(value, I64, stmt))
        self.builder.set_loc(stmt)
        value = self._coerce(value, slot.type.pointee, stmt)
        self.builder.store(value, slot)

    def _gen_if(self, stmt: ast.If) -> None:
        cond = self._gen_condition(stmt.cond)
        fn = self.function
        then_block = fn.add_block("if.then")
        merge_block = fn.add_block("if.end")
        else_block = fn.add_block("if.else") if stmt.orelse else merge_block
        self.builder.branch(cond, then_block, else_block)

        self.builder.position_at_end(then_block)
        self._gen_body(stmt.body)
        if not self.builder.block.is_terminated:
            self.builder.jump(merge_block)

        if stmt.orelse:
            self.builder.position_at_end(else_block)
            self._gen_body(stmt.orelse)
            if not self.builder.block.is_terminated:
                self.builder.jump(merge_block)

        self.builder.position_at_end(merge_block)

    def _gen_while(self, stmt: ast.While) -> None:
        fn = self.function
        cond_block = fn.add_block("while.cond")
        body_block = fn.add_block("while.body")
        end_block = fn.add_block("while.end")
        self.builder.jump(cond_block)

        self.builder.position_at_end(cond_block)
        cond = self._gen_condition(stmt.cond)
        self.builder.branch(cond, body_block, end_block)

        self.builder.position_at_end(body_block)
        self._loop_stack.append((end_block, cond_block))
        self._gen_body(stmt.body)
        self._loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.jump(cond_block)

        self.builder.position_at_end(end_block)

    def _gen_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            self.builder.ret(self.builder.const_i64(0))
        else:
            value = self._gen_rvalue(stmt.value)
            self.builder.ret(self._coerce(value, I64, stmt))
        self.builder.position_at_end(self.function.add_block("dead"))

    def _gen_break(self, stmt: ast.Break) -> None:
        if not self._loop_stack:
            raise FrontendError("break outside a loop", stmt.line,
                                stmt.column)
        self.builder.jump(self._loop_stack[-1][0])
        self.builder.position_at_end(self.function.add_block("dead"))

    def _gen_continue(self, stmt: ast.Continue) -> None:
        if not self._loop_stack:
            raise FrontendError("continue outside a loop", stmt.line,
                                stmt.column)
        self.builder.jump(self._loop_stack[-1][1])
        self.builder.position_at_end(self.function.add_block("dead"))

    # -- expressions --------------------------------------------------------------------

    def _gen_rvalue(self, expr: ast.Node):
        self.builder.set_loc(expr)
        if isinstance(expr, ast.IntLiteral):
            return self.builder.const_i64(expr.value)
        if isinstance(expr, ast.StringLiteral):
            return self._gen_string(expr.value)
        if isinstance(expr, ast.Name):
            return self._gen_name(expr)
        if isinstance(expr, ast.Call):
            return self._gen_call(expr)
        if isinstance(expr, ast.BinOp):
            return self._gen_binop(expr)
        if isinstance(expr, ast.Compare):
            return self._gen_compare(expr)
        if isinstance(expr, ast.BoolOp):
            return self._gen_bool_op(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._gen_unary(expr)
        raise FrontendError(f"cannot generate {type(expr).__name__}",
                            expr.line, expr.column)

    def _gen_string(self, text: str):
        # Same namespace as MiniC strings; skip names an earlier unit
        # in a cross-language module already claimed.
        name = f".str{self._string_counter}"
        self._string_counter += 1
        while name in self.module.globals:
            name = f".str{self._string_counter}"
            self._string_counter += 1
        arr_type = ArrayType(I8, len(text) + 1)
        gv = self.module.add_global(
            GlobalVariable(name, arr_type, Constant(arr_type, text)))
        zero = self.builder.const_int(0)
        return self.builder.gep(gv, [zero, zero])

    def _gen_name(self, expr: ast.Name):
        slot = self.locals.get(expr.name)
        if slot is None:
            gv = self.module.globals.get(expr.name)
            if gv is not None:
                slot = gv
            else:
                fn = self.module.functions.get(expr.name) or \
                    auto_declare_builtin(self.module, expr.name)
                if fn is not None:
                    return fn
                raise FrontendError(f"undefined variable {expr.name!r}",
                                    expr.line, expr.column)
        if isinstance(slot.type.pointee, ArrayType):
            zero = self.builder.const_int(0)
            return self.builder.gep(slot, [zero, zero])
        return self.builder.load(slot)

    def _gen_call(self, expr: ast.Call):
        if expr.callee in _DECL_FORMS:
            raise FrontendError(
                f"{expr.callee}(...) declarations are only allowed at "
                f"module level; colors are fixed at compile time "
                f"(paper §4)", expr.line, expr.column)
        args = [self._gen_rvalue(a) for a in expr.args]
        self.builder.set_loc(expr)
        callee = self.module.functions.get(expr.callee) or \
            auto_declare_builtin(self.module, expr.callee)
        if callee is None:
            raise FrontendError(f"undefined function {expr.callee!r}",
                                expr.line, expr.column)
        ftype = callee.ftype
        fixed = len(ftype.params)
        if len(args) < fixed or (len(args) > fixed and not ftype.vararg):
            raise FrontendError(
                f"call expects {fixed} arguments, got {len(args)}",
                expr.line, expr.column)
        coerced = [self._coerce(a, t, expr)
                   for a, t in zip(args, ftype.params)]
        coerced.extend(args[fixed:])
        return self.builder.call(callee, coerced)

    _CMP_MAP = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
                ">": "sgt", ">=": "sge"}

    def _gen_compare(self, expr: ast.Compare):
        lhs = self._gen_rvalue(expr.lhs)
        rhs = self._gen_rvalue(expr.rhs)
        self.builder.set_loc(expr)
        if not (isinstance(lhs.type, PointerType)
                and isinstance(rhs.type, PointerType)):
            lhs = self._coerce(lhs, I64, expr)
            rhs = self._coerce(rhs, I64, expr)
        return self.builder.cmp(self._CMP_MAP[expr.op], lhs, rhs)

    def _gen_binop(self, expr: ast.BinOp):
        lhs = self._gen_rvalue(expr.lhs)
        rhs = self._gen_rvalue(expr.rhs)
        self.builder.set_loc(expr)
        lhs = self._coerce(lhs, I64, expr)
        rhs = self._coerce(rhs, I64, expr)
        return self.builder.binop(_ARITH_MAP[expr.op], lhs, rhs)

    def _gen_bool_op(self, expr: ast.BoolOp):
        fn = self.function
        rhs_block = fn.add_block("sc.rhs")
        merge_block = fn.add_block("sc.end")
        lhs = self._to_bool(self._gen_rvalue(expr.lhs))
        lhs_block = self.builder.block
        if expr.op == "and":
            self.builder.branch(lhs, rhs_block, merge_block)
        else:
            self.builder.branch(lhs, merge_block, rhs_block)

        self.builder.position_at_end(rhs_block)
        rhs = self._to_bool(self._gen_rvalue(expr.rhs))
        rhs_end = self.builder.block
        self.builder.jump(merge_block)

        self.builder.position_at_end(merge_block)
        phi = self.builder.phi(I1)
        phi.add_incoming(self.builder.const_bool(expr.op == "or"),
                         lhs_block)
        phi.add_incoming(rhs, rhs_end)
        return phi

    def _gen_unary(self, expr: ast.UnaryOp):
        operand = self._gen_rvalue(expr.operand)
        self.builder.set_loc(expr)
        if expr.op == "not":
            as_bool = self._to_bool(operand)
            return self.builder.cmp("eq", as_bool,
                                    self.builder.const_bool(False))
        operand = self._coerce(operand, I64, expr)
        if expr.op == "-":
            return self.builder.sub(Constant(I64, 0), operand)
        if expr.op == "~":
            return self.builder.binop("xor", operand, Constant(I64, -1))
        raise FrontendError(f"unsupported unary {expr.op!r}",
                            expr.line, expr.column)

    # -- helpers ------------------------------------------------------------------------------------

    def _gen_condition(self, expr: ast.Node):
        return self._to_bool(self._gen_rvalue(expr))

    def _to_bool(self, value):
        if isinstance(value.type, IntType) and value.type.bits == 1:
            return value
        if isinstance(value.type, PointerType):
            as_int = self.builder.cast("ptrtoint", value, I64)
            return self.builder.cmp("ne", as_int, Constant(I64, 0))
        return self.builder.cmp("ne", self._coerce(value, I64, None),
                                Constant(I64, 0))

    def _coerce(self, value, to_type: IRType, node):
        """Convert ``value`` to ``to_type``, inserting casts as needed.

        Unlike C, a MiniPy boolean widens with ``zext`` so ``True``
        is 1, not -1.
        """
        from_type = value.type
        if from_type == to_type:
            return value
        if not isinstance(to_type, PointerType) and \
                from_type.strip_color() == to_type.strip_color():
            return value
        if isinstance(from_type, IntType) and isinstance(to_type, IntType):
            if isinstance(value, Constant):
                return Constant(to_type.strip_color(), value.value)
            if from_type.bits == to_type.bits:
                return value
            if from_type.bits > to_type.bits:
                kind = "trunc"
            else:
                kind = "zext" if from_type.bits == 1 else "sext"
            return self.builder.cast(kind, value, to_type.strip_color())
        if isinstance(from_type, PointerType) and isinstance(to_type,
                                                             PointerType):
            return self.builder.bitcast(value, to_type)
        if isinstance(to_type, PointerType) and isinstance(value, Constant) \
                and value.value == 0:
            return Constant(to_type, 0)
        if isinstance(from_type, PointerType) and isinstance(to_type,
                                                             IntType):
            return self.builder.cast("ptrtoint", value,
                                     to_type.strip_color())
        if isinstance(from_type, IntType) and isinstance(to_type,
                                                         PointerType):
            return self.builder.cast("inttoptr", value, to_type)
        raise FrontendError(
            f"cannot convert {from_type} to {to_type}",
            getattr(node, "line", 0), getattr(node, "column", 0))


_ARITH_MAP = {"+": "add", "-": "sub", "*": "mul", "//": "sdiv",
              "%": "srem", "&": "and", "|": "or", "^": "xor",
              "<<": "shl", ">>": "ashr"}


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
