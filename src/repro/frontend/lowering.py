"""The lowering core MiniC and MiniPy share.

Each frontend keeps its lexer, its parser and an AST-to-core dispatch.
:class:`Lowering` owns the rest, once: the builder and source
positions, the function prologue and epilogue, ``if``/``while``/
``break``/``continue``/``return``, string interning, short-circuit
``and``/``or``, truthiness and ``not``, coercion, calls, identifier
lookup, and the driver pair ``lower_source``/``compile_source``.
Where the languages differ, a :class:`LoweringPolicy` says how, as
data.  An instruction that combines operands carries its own
expression's source position, re-stamped after the operands are
lowered (:meth:`Lowering._gen_operands`).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import FrontendError
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
    VOID,
)
from repro.ir.types import FloatType, IntType
from repro.secval.lowering import auto_declare_builtin, run_frontend_pipeline


#: Integer opcodes of the binary operators both languages spell alike
#: (division is spelled ``/`` in MiniC and ``//`` in MiniPy).
ARITH_OPCODES = {"+": "add", "-": "sub", "*": "mul", "%": "srem",
                 "&": "and", "|": "or", "^": "xor", "<<": "shl",
                 ">>": "ashr"}
#: Signed integer predicates of the comparison operators.
CMP_PREDICATES = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
                  ">": "sgt", ">=": "sge"}


class LoweringPolicy(NamedTuple):
    """The per-language choices of the shared lowering."""

    #: The type a non-``i1`` integer is widened to before it is
    #: compared with 0, or None to compare at its own width.
    truth_type: Optional[IntType]


class Scope:
    """Lexical scope mapping names to lvalue pointers."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.vars: Dict[str, object] = {}

    def lookup(self, name: str):
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None

    def define(self, name: str, value) -> None:
        self.vars[name] = value


class Lowering:
    """Lowers one source unit into one IR module.

    A frontend subclasses this, sets :attr:`language`, :attr:`policy`
    and :attr:`parse`, and implements ``generate(tree)``,
    ``_gen_rvalue(expr)`` and ``_gen_body(body)`` over its own AST.
    """

    #: Default module name of :meth:`compile_source`.
    language: str
    policy: LoweringPolicy
    #: ``parse(source, filename)`` -> the frontend's AST.
    parse = None

    def __init__(self, module: Module):
        # Cross-language composition (repro.secval.compile_cross)
        # lowers several units into one shared module.
        self.module = module
        self._string_counter = 0
        # per-function state
        self.builder: Optional[IRBuilder] = None
        self.function: Optional[Function] = None
        self.scope: Optional[Scope] = None
        self._loop_stack: List[Tuple[BasicBlock, BasicBlock]] = []

    # -- driver contract ------------------------------------------------------

    @classmethod
    def lower_source(cls, source: str, module: Module,
                     filename: str = "<source>") -> None:
        """Lower one source text into an existing IR module (the
        cross-language primitive of :func:`repro.secval.compile_cross`)."""
        cls(module).generate(cls.parse(source, filename))

    @classmethod
    def compile_source(cls, source: str, module_name: str = "",
                       verify: bool = True, passes=None) -> Module:
        """Compile source text into an IR module.

        This is the classical toolchain of paper Figure 5: it produces
        the "LLVM bitcode" Privagic takes as input, with secure-type
        colors carried as type annotations.  The module is run through
        the shared frontend pass pipeline (structural verification by
        default; ``passes`` overrides it, ``verify=False`` skips it).
        """
        module_name = module_name or cls.language
        module = Module(module_name)
        cls.lower_source(source, module, filename=module_name)
        return run_frontend_pipeline(module, verify=verify, passes=passes)

    # -- functions ------------------------------------------------------------

    def _begin_function(self, fn: Function) -> None:
        """Open ``fn``'s entry block and spill every parameter into an
        alloca (clang-style; ``mem2reg`` promotes the ones whose
        address is never taken)."""
        self.function = fn
        self.scope = Scope()
        self._loop_stack = []
        self.builder = IRBuilder(fn.add_block("entry"))
        for arg in fn.args:
            slot = self.builder.alloca(arg.type, f"{arg.name}.addr")
            self.builder.store(arg, slot)
            self.scope.define(arg.name, slot)

    def _end_function(self) -> None:
        """Return the zero value from the end of the body and from
        every dead block a ``return``, ``break`` or ``continue``
        opened."""
        fn = self.function
        if not self.builder.block.is_terminated:
            self.builder.ret(self._default_return())
        for block in fn.blocks:
            if not block.is_terminated:
                IRBuilder(block).ret(self._default_return())
        self.function = None
        self.builder = None
        self.scope = None

    def _default_return(self) -> Optional[Constant]:
        ret = self.function.ftype.ret
        return None if ret == VOID else self._zero_of(ret)

    @staticmethod
    def _zero_of(type: IRType) -> Constant:
        if isinstance(type, PointerType):
            return Constant(type, 0)
        if isinstance(type, FloatType):
            return Constant(type.strip_color(), 0.0)
        return Constant(type.strip_color(), 0)

    # -- structured control flow ----------------------------------------------

    def _gen_if(self, cond, then, orelse) -> None:
        cond = self._gen_condition(cond)
        fn = self.function
        then_block = fn.add_block("if.then")
        merge_block = fn.add_block("if.end")
        else_block = fn.add_block("if.else") if orelse else merge_block
        self.builder.branch(cond, then_block, else_block)
        self._gen_arm(then_block, then, merge_block)
        if orelse:
            self._gen_arm(else_block, orelse, merge_block)
        self.builder.position_at_end(merge_block)

    def _gen_arm(self, block: BasicBlock, body, merge: BasicBlock) -> None:
        self.builder.position_at_end(block)
        self._gen_body(body)
        if not self.builder.block.is_terminated:
            self.builder.jump(merge)

    def _gen_while(self, cond, body) -> None:
        fn = self.function
        cond_block = fn.add_block("while.cond")
        body_block = fn.add_block("while.body")
        end_block = fn.add_block("while.end")
        self.builder.jump(cond_block)

        self.builder.position_at_end(cond_block)
        self.builder.branch(self._gen_condition(cond), body_block,
                            end_block)

        self.builder.position_at_end(body_block)
        self._gen_loop_body(body, end_block, cond_block)
        self.builder.position_at_end(end_block)

    def _gen_loop_body(self, body, end_block: BasicBlock,
                       next_block: BasicBlock) -> None:
        """Lower a loop body in which ``break`` jumps to ``end_block``
        and ``continue`` (and falling off the end) to ``next_block``."""
        self._loop_stack.append((end_block, next_block))
        self._gen_body(body)
        self._loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.jump(next_block)

    def _gen_break(self, stmt) -> None:
        self._leave_loop(stmt, "break", 0)

    def _gen_continue(self, stmt) -> None:
        self._leave_loop(stmt, "continue", 1)

    def _leave_loop(self, stmt, keyword: str, target: int) -> None:
        if not self._loop_stack:
            raise FrontendError(f"{keyword} outside a loop", stmt.line,
                                stmt.column)
        self.builder.jump(self._loop_stack[-1][target])
        self._open_dead_block()

    def _gen_return(self, value_expr, stmt) -> None:
        if value_expr is None:
            self.builder.ret(self._default_return())
        else:
            value = self._gen_rvalue(value_expr)
            self.builder.ret(self._coerce(value, self.function.ftype.ret,
                                          stmt))
        self._open_dead_block()

    def _open_dead_block(self) -> None:
        # Statements after a jump are unreachable; give them a fresh
        # block, which the epilogue seals.
        self.builder.position_at_end(self.function.add_block("dead"))

    # -- expressions ----------------------------------------------------------

    def _gen_operands(self, node, *exprs) -> list:
        """Lower ``exprs`` in order, then re-stamp ``node``'s own source
        position for the instructions that combine them."""
        values = list(map(self._gen_rvalue, exprs))
        self.builder.set_loc(node)
        return values

    def _gen_string(self, text: str):
        # Skip names an earlier unit already claimed (cross-language
        # lowering shares one module across generators).
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

    def _slot(self, name: str):
        """The lvalue pointer of a local or global, or None."""
        slot = self.scope.lookup(name)
        return slot if slot is not None else self.module.globals.get(name)

    def _function_named(self, name: str) -> Optional[Function]:
        # The shared mini-libc of the secure-value contract: every
        # frontend auto-declares the same signatures (paper §6.3).
        return self.module.functions.get(name) or \
            auto_declare_builtin(self.module, name)

    def _gen_identifier(self, name: str, node):
        slot = self._slot(name)
        if slot is None:
            fn = self._function_named(name)
            if fn is not None:
                return fn
            raise FrontendError(f"undefined variable {name!r}",
                                node.line, node.column)
        return self._load(slot)

    def _load(self, ptr):
        """Read through ``ptr``; an array decays to a pointer to its
        first element."""
        if isinstance(ptr.type.pointee, ArrayType):
            zero = self.builder.const_int(0)
            return self.builder.gep(ptr, [zero, zero])
        return self.builder.load(ptr)

    def _gen_call_to(self, callee, args: list, node):
        """Call ``callee`` with lowered ``args``: check the arity and
        coerce each fixed argument to its parameter type; arguments
        past a vararg signature's fixed ones pass as they are."""
        ftype = callee.type.pointee if isinstance(
            callee.type, PointerType) else callee.type
        if not isinstance(ftype, FunctionType):
            raise FrontendError("calling a non-function",
                                node.line, node.column)
        fixed = len(ftype.params)
        if len(args) < fixed or (len(args) > fixed and not ftype.vararg):
            raise FrontendError(
                f"call expects {fixed} arguments, got {len(args)}",
                node.line, node.column)
        coerced = [self._coerce(a, t, node)
                   for a, t in zip(args, ftype.params)]
        coerced.extend(args[fixed:])
        return self.builder.call(callee, coerced)

    def _gen_short_circuit(self, is_and: bool, lhs_expr, rhs_expr, node):
        fn = self.function
        rhs_block = fn.add_block("sc.rhs")
        merge_block = fn.add_block("sc.end")
        lhs = self._gen_condition(lhs_expr)
        lhs_block = self.builder.block
        if is_and:
            self.builder.branch(lhs, rhs_block, merge_block)
        else:
            self.builder.branch(lhs, merge_block, rhs_block)

        self.builder.position_at_end(rhs_block)
        rhs = self._gen_condition(rhs_expr)
        rhs_end = self.builder.block
        self.builder.jump(merge_block)

        self.builder.position_at_end(merge_block)
        self.builder.set_loc(node)
        phi = self.builder.phi(I1)
        phi.add_incoming(self.builder.const_bool(not is_and), lhs_block)
        phi.add_incoming(rhs, rhs_end)
        return phi

    def _gen_not(self, operand_expr, node):
        operand, = self._gen_operands(node, operand_expr)
        return self.builder.cmp("eq", self._to_bool(operand),
                                self.builder.const_bool(False))

    def _gen_condition(self, expr):
        return self._to_bool(self._gen_rvalue(expr))

    def _to_bool(self, value):
        vtype = value.type
        if isinstance(vtype, IntType) and vtype.bits == 1:
            return value
        if isinstance(vtype, FloatType):
            return self.builder.cmp("fne", value,
                                    self.builder.const_float(0.0))
        if isinstance(vtype, PointerType):
            as_int = self.builder.cast("ptrtoint", value, I64)
            return self.builder.cmp("ne", as_int, Constant(I64, 0))
        if self.policy.truth_type is not None:
            value = self._coerce(value, self.policy.truth_type, None)
        return self.builder.cmp("ne", value,
                                Constant(value.type.strip_color(), 0))

    def _coerce(self, value, to_type: IRType, node):
        """Convert ``value`` to ``to_type``, inserting casts as needed."""
        from_type = value.type
        if from_type == to_type:
            return value
        # Scalars may differ only in color qualifiers (register values
        # carry no color); pointers may NOT — a pointee-color change
        # must materialize as a bitcast so the secure type system can
        # judge it (rule 4 of §4 forbids recoloring casts).
        if not isinstance(to_type, PointerType) and \
                from_type.strip_color() == to_type.strip_color():
            return value
        # int <-> int
        if isinstance(from_type, IntType) and isinstance(to_type, IntType):
            if isinstance(value, Constant):
                return Constant(to_type.strip_color(), value.value)
            if from_type.bits == to_type.bits:
                return value
            if from_type.bits > to_type.bits:
                kind = "trunc"
            elif from_type.bits == 1:
                kind = "zext"  # a true comparison widens to 1
            else:
                kind = "sext"
            return self.builder.cast(kind, value, to_type.strip_color())
        # int <-> float
        if isinstance(from_type, IntType) and isinstance(to_type, FloatType):
            if isinstance(value, Constant):
                return Constant(to_type.strip_color(), float(value.value))
            return self.builder.cast("sitofp", value, to_type.strip_color())
        if isinstance(from_type, FloatType) and isinstance(to_type, IntType):
            return self.builder.cast("fptosi", value, to_type.strip_color())
        if isinstance(from_type, FloatType) and isinstance(to_type,
                                                           FloatType):
            return value  # single float representation at runtime
        # pointer <-> pointer
        if isinstance(from_type, PointerType) and isinstance(to_type,
                                                             PointerType):
            return self.builder.bitcast(value, to_type)
        # null pointer literal
        if isinstance(to_type, PointerType) and isinstance(value, Constant) \
                and value.value == 0:
            return Constant(to_type, 0)
        # pointer <-> integer (explicit casts, thread_create args, ...)
        if isinstance(from_type, PointerType) and isinstance(to_type,
                                                             IntType):
            return self.builder.cast("ptrtoint", value, to_type.strip_color())
        if isinstance(from_type, IntType) and isinstance(to_type,
                                                         PointerType):
            return self.builder.cast("inttoptr", value, to_type)
        raise FrontendError(
            f"cannot convert {from_type} to {to_type}",
            getattr(node, "line", 0), getattr(node, "column", 0))
