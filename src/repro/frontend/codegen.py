"""MiniC code generation: AST → repro IR.

The lowering mirrors clang's: every local variable becomes an
``alloca`` (later promoted by ``mem2reg`` unless its address is taken
or it carries an explicit color), reads load, writes store, struct and
array accesses become GEPs, and the ``color`` qualifier is carried on
the IR types — the Privagic analyses only ever see the IR.

What MiniC shares with MiniPy (control flow, strings, truthiness,
coercion, calls, identifier lookup) lives in the lowering core,
:class:`repro.frontend.lowering.Lowering`; this module adds types and
records, lvalues and GEPs, ``for``/``do``, ``?:``, ``sizeof``, pointer
arithmetic and block scopes.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import FrontendError, SecureTypeError
from repro.frontend import ast_nodes as ast
from repro.frontend.lowering import (
    ARITH_OPCODES,
    CMP_PREDICATES,
    Lowering,
    LoweringPolicy,
    Scope,
)
from repro.frontend.parser import parse
from repro.ir import (
    ArrayType,
    Constant,
    Function,
    FunctionType,
    GlobalVariable,
    IRType,
    Module,
    PointerType,
    StructField,
    StructType,
    F32,
    F64,
    I8,
    I32,
    I64,
    VOID,
)
from repro.ir.types import FloatType, IntType

_BASE_TYPES: Dict[str, IRType] = {
    "void": VOID,
    "char": I8,
    "int": I32,
    "long": I64,
    "float": F32,
    "double": F64,
}


def _loc_of(node):
    """``(line, column)`` of an AST node, or None for synthesized
    nodes (position 0)."""
    line = getattr(node, "line", 0)
    return (line, getattr(node, "column", 0)) if line else None


class CodeGenerator(Lowering):
    """Generates one IR module from one translation unit."""

    language = "minic"
    policy = LoweringPolicy(truth_type=None)
    parse = staticmethod(parse)

    # -- entry point --------------------------------------------------------------

    def generate(self, unit: ast.TranslationUnit) -> Module:
        structs = [d for d in unit.decls
                   if isinstance(d, (ast.StructDecl, ast.UnionDecl))]
        functions = [d for d in unit.decls
                     if isinstance(d, ast.FunctionDecl)]
        globals_ = [d for d in unit.decls if isinstance(d, ast.GlobalDecl)]

        # Forward-declare all struct names so fields may reference them.
        for decl in structs:
            self.module.add_struct(StructType(decl.name))
        for decl in structs:
            self._define_record(decl)
        for decl in globals_:
            self._define_global(decl)
        for decl in functions:
            self._declare_function(decl)
        for decl in functions:
            if decl.body is not None:
                self._define_function(decl)
        return self.module

    # -- types ----------------------------------------------------------------------

    def resolve_type(self, expr) -> IRType:
        if isinstance(expr, ast.FuncPtrTypeExpr):
            ret = self.resolve_type(expr.ret)
            params = [self.resolve_type(p) for p in expr.params]
            return PointerType(FunctionType(ret, params))
        base = expr.base
        if isinstance(base, tuple):
            kind, name = base
            if name not in self.module.structs:
                raise FrontendError(f"unknown {kind} {name!r}",
                                    expr.line, expr.column)
            ir_type: IRType = self.module.structs[name]
            if expr.color is not None:
                # Color the whole record: color every field (used for
                # single-color data structures, paper §9.3).
                ir_type = self._colored_struct(ir_type, expr.color, expr)
        else:
            try:
                ir_type = _BASE_TYPES[base]
            except KeyError:
                raise FrontendError(f"unknown type {base!r}",
                                    expr.line, expr.column)
            if expr.color is not None:
                ir_type = ir_type.with_color(expr.color)
        if expr.pointer_depth:
            if ir_type is VOID:
                ir_type = I8  # void* is i8*
            for _ in range(expr.pointer_depth):
                ir_type = PointerType(ir_type)
        if expr.array_size is not None:
            ir_type = ArrayType(ir_type, expr.array_size)
        return ir_type

    def _colored_struct(self, struct: StructType, color: str,
                        node=None) -> StructType:
        name = f"{struct.name}.{color}"
        if name in self.module.structs:
            return self.module.structs[name]
        colored = StructType(name)
        self.module.add_struct(colored)
        colored.set_body([
            StructField(f.name, self._color_field_type(f.type, color,
                                                       node))
            for f in struct.fields])
        return colored

    def _color_field_type(self, type: IRType, color: str,
                          node=None) -> IRType:
        if isinstance(type, PointerType):
            return PointerType(self._color_field_type(type.pointee, color,
                                                      node))
        if isinstance(type, StructType):
            return self._colored_struct(type, color, node)
        if type.color is not None and type.color != color:
            raise SecureTypeError(
                "union", f"field already colored {type.color}, cannot "
                         f"recolor {color}", loc=_loc_of(node))
        return type.with_color(color)

    # -- records ----------------------------------------------------------------------

    def _define_record(self, decl) -> None:
        fields = [StructField(name, self.resolve_type(ftype))
                  for ftype, name in decl.fields]
        if isinstance(decl, ast.UnionDecl):
            colors = {f.type.color for f in fields
                      if f.type.color is not None}
            if len(colors) >= 2:
                # Paper §4: a memory location has at most one color; a
                # union with differently colored fields is rejected.
                raise SecureTypeError(
                    "union",
                    f"union {decl.name} mixes colors {sorted(colors)}",
                    loc=_loc_of(decl))
        self.module.structs[decl.name].set_body(fields)

    # -- globals -----------------------------------------------------------------------

    def _define_global(self, decl: ast.GlobalDecl) -> None:
        vtype = self.resolve_type(decl.type)
        init = None
        if decl.init is not None:
            init = self._constant_initializer(decl.init, vtype)
        self.module.add_global(GlobalVariable(decl.name, vtype, init))

    def _constant_initializer(self, expr: ast.Expr,
                              vtype: IRType) -> Constant:
        if isinstance(expr, ast.StringLiteral) and \
                not isinstance(vtype, ArrayType):
            raise FrontendError(
                "a string literal can only initialize a global char "
                "array (char name[N] = \"...\")", expr.line, expr.column)
        if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral,
                             ast.StringLiteral)):
            return Constant(vtype, expr.value)
        if isinstance(expr, ast.Unary) and expr.op == "-" and \
                isinstance(expr.operand, (ast.IntLiteral, ast.FloatLiteral)):
            return Constant(vtype, -expr.operand.value)
        raise FrontendError("global initializer must be a literal",
                            expr.line, expr.column)

    # -- functions ----------------------------------------------------------------------

    def _declare_function(self, decl: ast.FunctionDecl) -> None:
        ret = self.resolve_type(decl.ret)
        params = [self.resolve_type(p.type) for p in decl.params]
        ftype = FunctionType(ret, params, decl.vararg)
        existing = self.module.functions.get(decl.name)
        if existing is not None:
            if existing.ftype != ftype and existing.ftype.strip_color() \
                    != ftype.strip_color():
                raise FrontendError(
                    f"conflicting declarations of {decl.name}",
                    decl.line, decl.column)
            existing.attributes |= decl.annotations
            return
        fn = Function(decl.name, ftype, [p.name for p in decl.params],
                      decl.annotations)
        self.module.add_function(fn)

    def _define_function(self, decl: ast.FunctionDecl) -> None:
        self._begin_function(self.module.get_function(decl.name))
        self._gen_block(decl.body)
        self._end_function()

    # -- statements ------------------------------------------------------------------------

    def _gen_block(self, block: ast.Block) -> None:
        self.scope = Scope(self.scope)
        for stmt in block.statements:
            self._gen_statement(stmt)
        self.scope = self.scope.parent

    def _gen_statement(self, stmt: ast.Stmt) -> None:
        self.builder.set_loc(stmt)
        if isinstance(stmt, ast.Block):
            self._gen_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            self._gen_var_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._gen_rvalue(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt.cond, stmt.then, stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt.cond, stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            self._gen_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._gen_return(stmt.value, stmt)
        elif isinstance(stmt, ast.Break):
            self._gen_break(stmt)
        elif isinstance(stmt, ast.Continue):
            self._gen_continue(stmt)
        else:
            raise FrontendError(f"cannot generate {type(stmt).__name__}",
                                stmt.line, stmt.column)

    #: An ``if`` arm or loop body is one statement.
    _gen_body = _gen_statement

    def _gen_var_decl(self, stmt: ast.VarDecl) -> None:
        vtype = self.resolve_type(stmt.type)
        slot = self.builder.alloca(vtype, stmt.name)
        self.scope.define(stmt.name, slot)
        if stmt.init is not None:
            value, = self._gen_operands(stmt, stmt.init)
            self.builder.store(self._coerce(value, vtype, stmt), slot)

    def _gen_do_while(self, stmt: ast.DoWhile) -> None:
        fn = self.function
        body_block = fn.add_block("do.body")
        cond_block = fn.add_block("do.cond")
        end_block = fn.add_block("do.end")
        self.builder.jump(body_block)

        self.builder.position_at_end(body_block)
        self._gen_loop_body(stmt.body, end_block, cond_block)

        self.builder.position_at_end(cond_block)
        cond = self._gen_condition(stmt.cond)
        self.builder.branch(cond, body_block, end_block)

        self.builder.position_at_end(end_block)

    def _gen_for(self, stmt: ast.For) -> None:
        fn = self.function
        self.scope = Scope(self.scope)
        if stmt.init is not None:
            self._gen_statement(stmt.init)
        cond_block = fn.add_block("for.cond")
        body_block = fn.add_block("for.body")
        step_block = fn.add_block("for.step")
        end_block = fn.add_block("for.end")
        self.builder.jump(cond_block)

        self.builder.position_at_end(cond_block)
        if stmt.cond is not None:
            cond = self._gen_condition(stmt.cond)
            self.builder.branch(cond, body_block, end_block)
        else:
            self.builder.jump(body_block)

        self.builder.position_at_end(body_block)
        self._gen_loop_body(stmt.body, end_block, step_block)

        self.builder.position_at_end(step_block)
        if stmt.step is not None:
            self._gen_rvalue(stmt.step)
        self.builder.jump(cond_block)

        self.builder.position_at_end(end_block)
        self.scope = self.scope.parent

    # -- expressions: lvalues ------------------------------------------------------------------

    def _gen_lvalue(self, expr: ast.Expr):
        self.builder.set_loc(expr)
        if isinstance(expr, ast.Identifier):
            slot = self._slot(expr.name)
            if slot is not None:
                return slot
            raise FrontendError(f"undefined variable {expr.name!r}",
                                expr.line, expr.column)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return self._gen_rvalue(expr.operand)
        if isinstance(expr, ast.Index):
            return self._gen_index_ptr(expr)
        if isinstance(expr, ast.Member):
            return self._gen_member_ptr(expr)
        raise FrontendError("expression is not assignable",
                            expr.line, expr.column)

    def _gen_index_ptr(self, expr: ast.Index):
        index = self._gen_rvalue(expr.index)
        base_type = self._type_of(expr.base)
        if isinstance(base_type, ArrayType):
            base_ptr = self._gen_lvalue(expr.base)
            self.builder.set_loc(expr)
            return self.builder.gep(base_ptr,
                                    [self.builder.const_int(0), index])
        base, = self._gen_operands(expr, expr.base)
        if not isinstance(base.type, PointerType):
            raise FrontendError("cannot index a non-pointer",
                                expr.line, expr.column)
        return self.builder.gep(base, [index])

    def _gen_member_ptr(self, expr: ast.Member):
        if expr.arrow:
            base_ptr = self._gen_rvalue(expr.base)
        else:
            base_ptr = self._gen_lvalue(expr.base)
        self.builder.set_loc(expr)
        pointee = base_ptr.type.pointee
        if not isinstance(pointee, StructType):
            raise FrontendError(
                f"member access on non-struct {pointee}",
                expr.line, expr.column)
        index = pointee.field_index(expr.field)
        return self.builder.struct_field_ptr(base_ptr, index)

    # -- expressions: rvalues --------------------------------------------------------------------

    def _gen_rvalue(self, expr: ast.Expr):
        self.builder.set_loc(expr)
        if isinstance(expr, ast.IntLiteral):
            # A literal that does not fit an int is a long.
            return self.builder.const_int(
                expr.value, I64 if expr.value >= 2**31 else I32)
        if isinstance(expr, ast.FloatLiteral):
            return self.builder.const_float(expr.value)
        if isinstance(expr, ast.StringLiteral):
            return self._gen_string(expr.value)
        if isinstance(expr, ast.Identifier):
            return self._gen_identifier(expr.name, expr)
        if isinstance(expr, ast.Unary):
            return self._gen_unary(expr)
        if isinstance(expr, ast.Postfix):
            return self._gen_increment(expr, prefix=False)
        if isinstance(expr, ast.Binary):
            return self._gen_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._gen_assign(expr)
        if isinstance(expr, ast.Conditional):
            return self._gen_conditional(expr)
        if isinstance(expr, ast.CallExpr):
            return self._gen_call(expr)
        if isinstance(expr, (ast.Index, ast.Member)):
            return self._load(self._gen_lvalue(expr))
        if isinstance(expr, ast.CastExpr):
            return self._gen_cast(expr)
        if isinstance(expr, ast.SizeofExpr):
            return self._gen_sizeof(expr)
        raise FrontendError(f"cannot generate {type(expr).__name__}",
                            expr.line, expr.column)

    def _gen_unary(self, expr: ast.Unary):
        op = expr.op
        if op == "&":
            return self._gen_lvalue(expr.operand)
        if op == "!":
            return self._gen_not(expr.operand, expr)
        if op in ("++", "--"):
            return self._gen_increment(expr, prefix=True)
        operand, = self._gen_operands(expr, expr.operand)
        if op == "*":
            if not isinstance(operand.type, PointerType):
                raise FrontendError("cannot dereference a non-pointer",
                                    expr.line, expr.column)
            return self.builder.load(operand)
        if op == "-":
            if isinstance(operand.type, FloatType):
                return self.builder.binop(
                    "fsub", self.builder.const_float(0.0, operand.type),
                    operand)
            return self.builder.sub(
                Constant(operand.type.strip_color(), 0), operand)
        if op == "~":
            return self.builder.binop(
                "xor", operand, Constant(operand.type.strip_color(), -1))
        raise FrontendError(f"unsupported unary {op!r}",
                            expr.line, expr.column)

    def _gen_increment(self, expr, prefix: bool):
        """``++``/``--``: the new value as a prefix, the old as a
        postfix."""
        ptr = self._gen_lvalue(expr.operand)
        self.builder.set_loc(expr)
        old = self.builder.load(ptr)
        delta = Constant(old.type if isinstance(old.type, IntType)
                         else I32, 1)
        new = self.builder.binop("add" if expr.op == "++" else "sub",
                                 old, delta)
        self.builder.store(new, ptr)
        return new if prefix else old

    _ARITH_MAP = {**ARITH_OPCODES, "/": "sdiv"}

    def _gen_binary(self, expr: ast.Binary):
        if expr.op in ("&&", "||"):
            return self._gen_short_circuit(expr.op == "&&", expr.lhs,
                                           expr.rhs, expr)
        lhs, rhs = self._gen_operands(expr, expr.lhs, expr.rhs)
        return self._binary(expr.op, lhs, rhs, expr)

    def _binary(self, op: str, lhs, rhs, expr):
        """Combine two lowered operands with binary operator ``op``."""
        if op in CMP_PREDICATES:
            lhs, rhs = self._unify(lhs, rhs, expr)
            predicate = CMP_PREDICATES[op]
            if isinstance(lhs.type, FloatType):
                predicate = "f" + predicate.lstrip("s")
            return self.builder.cmp(predicate, lhs, rhs)
        # Pointer arithmetic: p + n / p - n become GEPs.
        if isinstance(lhs.type, PointerType) and op in ("+", "-"):
            if op == "-" and isinstance(rhs.type, PointerType):
                a = self.builder.cast("ptrtoint", lhs, I64)
                b = self.builder.cast("ptrtoint", rhs, I64)
                return self.builder.sub(a, b)
            offset = rhs
            if op == "-":
                offset = self.builder.sub(
                    Constant(rhs.type.strip_color(), 0), rhs)
            return self.builder.gep(lhs, [offset])
        if op not in self._ARITH_MAP:
            raise FrontendError(f"unsupported operator {op!r}",
                                expr.line, expr.column)
        lhs, rhs = self._unify(lhs, rhs, expr)
        ir_op = self._ARITH_MAP[op]
        if isinstance(lhs.type, FloatType):
            float_map = {"add": "fadd", "sub": "fsub", "mul": "fmul",
                         "sdiv": "fdiv"}
            if ir_op not in float_map:
                raise FrontendError(f"operator {op!r} on floats",
                                    expr.line, expr.column)
            ir_op = float_map[ir_op]
        return self.builder.binop(ir_op, lhs, rhs)

    def _gen_assign(self, expr: ast.Assign):
        ptr = self._gen_lvalue(expr.target)
        if expr.op is None:
            value, = self._gen_operands(expr, expr.value)
        else:
            # Compound: the target is evaluated once, through ``ptr``.
            old = self.builder.load(ptr)
            value, = self._gen_operands(expr, expr.value)
            value = self._binary(expr.op, old, value, expr)
        value = self._coerce(value, ptr.type.pointee, expr)
        self.builder.store(value, ptr)
        return value

    def _gen_conditional(self, expr: ast.Conditional):
        fn = self.function
        then_block = fn.add_block("cond.then")
        else_block = fn.add_block("cond.else")
        merge_block = fn.add_block("cond.end")
        cond = self._gen_condition(expr.cond)
        self.builder.branch(cond, then_block, else_block)

        self.builder.position_at_end(then_block)
        then_value = self._gen_rvalue(expr.then)
        then_end = self.builder.block
        self.builder.jump(merge_block)

        self.builder.position_at_end(else_block)
        else_value = self._gen_rvalue(expr.orelse)
        else_value = self._coerce(else_value, then_value.type, expr)
        else_end = self.builder.block
        self.builder.jump(merge_block)

        self.builder.position_at_end(merge_block)
        self.builder.set_loc(expr)
        phi = self.builder.phi(then_value.type)
        phi.add_incoming(then_value, then_end)
        phi.add_incoming(else_value, else_end)
        return phi

    def _gen_call(self, expr: ast.CallExpr):
        args = self._gen_operands(expr, *expr.args)
        callee = None
        if isinstance(expr.callee, ast.Identifier):
            name = expr.callee.name
            callee = self._function_named(name)
            if callee is None:
                # Maybe a function-pointer variable.
                slot = self._slot(name)
                if slot is not None:
                    callee = self.builder.load(slot)
        if callee is None:
            callee, = self._gen_operands(expr, expr.callee)
        return self._gen_call_to(callee, args, expr)

    def _gen_cast(self, expr: ast.CastExpr):
        value, = self._gen_operands(expr, expr.operand)
        return self._coerce(value, self.resolve_type(expr.type), expr)

    def _gen_sizeof(self, expr: ast.SizeofExpr):
        if expr.type is not None:
            size = self.resolve_type(expr.type).size_slots()
        else:
            operand_type = self._type_of(expr.operand)
            size = operand_type.size_slots()
        return self.builder.const_i64(size)

    # -- helpers ------------------------------------------------------------------------------------

    def _unify(self, lhs, rhs, expr):
        """Apply the usual arithmetic conversions to a pair of values."""
        lt, rt = lhs.type, rhs.type
        if isinstance(lt, PointerType) and isinstance(rt, PointerType):
            return lhs, rhs
        if isinstance(lt, PointerType):
            return lhs, self._coerce(rhs, I64, expr)
        if isinstance(rt, PointerType):
            return self._coerce(lhs, I64, expr), rhs
        if isinstance(lt, FloatType) or isinstance(rt, FloatType):
            target = F64
            return (self._coerce(lhs, target, expr),
                    self._coerce(rhs, target, expr))
        bits = max(lt.bits, rt.bits)
        target = IntType(bits)
        return (self._coerce(lhs, target, expr),
                self._coerce(rhs, target, expr))

    def _type_of(self, expr: ast.Expr) -> IRType:
        """Static type of an expression, for sizeof/index decisions.

        Computed without emitting code for the common shapes; falls
        back to emitting for complex operands of ``sizeof`` (C also
        evaluates there in VLA cases, so this is acceptable).
        """
        if isinstance(expr, ast.Identifier):
            slot = self._slot(expr.name)
            if slot is not None:
                return slot.type.pointee
            fn = self.module.functions.get(expr.name)
            if fn is not None:
                return fn.type
            raise FrontendError(f"undefined variable {expr.name!r}",
                                expr.line, expr.column)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            inner = self._type_of(expr.operand)
            if isinstance(inner, PointerType):
                return inner.pointee
            raise FrontendError("dereferencing a non-pointer",
                                expr.line, expr.column)
        if isinstance(expr, ast.Member):
            base = self._type_of(expr.base)
            if expr.arrow:
                if not isinstance(base, PointerType):
                    raise FrontendError("-> on non-pointer",
                                        expr.line, expr.column)
                base = base.pointee
            if not isinstance(base, StructType):
                raise FrontendError("member of non-struct",
                                    expr.line, expr.column)
            return base.fields[base.field_index(expr.field)].type
        if isinstance(expr, ast.Index):
            base = self._type_of(expr.base)
            if isinstance(base, ArrayType):
                return base.element
            if isinstance(base, PointerType):
                return base.pointee
            raise FrontendError("indexing a non-array",
                                expr.line, expr.column)
        if isinstance(expr, ast.IntLiteral):
            return I32
        if isinstance(expr, ast.FloatLiteral):
            return F64
        if isinstance(expr, ast.StringLiteral):
            return PointerType(I8)
        # Fall back: emit the expression and look at its type.
        return self._gen_rvalue(expr).type
