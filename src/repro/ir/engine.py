"""Pre-decoded ("threaded-code") execution engine for the IR
interpreter.

The legacy :meth:`ExecutionContext.step` re-decodes every
instruction on every step: a ~15-branch ``isinstance`` chain, operand
resolution through :meth:`ExecutionContext.value_of` (four more
``isinstance`` checks per operand), property walks (``instr.ptr`` is a
list slice per access) and a full GEP type-walk per address
computation.  Real interpreters compile the IR *once* into a directly
executable form; this module does the same for the abstract machine:

* each :class:`~repro.ir.instructions.Instruction` is translated into
  one specialized Python closure ``op(ctx, frame) -> advanced`` with
  its operands pre-resolved — constants (and loaded global addresses)
  become captured values, SSA registers become direct
  ``frame.values`` lookups, GEP offset chains are pre-flattened for
  constant indices, and branch targets are pre-bound to the target
  block's closure list;
* :meth:`DecodedExecutionContext.step` is then "fetch closure, call
  it" — no per-step decoding at all.

The translation is a *faithful substitution*: step-at-a-time
semantics, step counts, ``BLOCK``/retry, trampoline :class:`PushCall`
handling, access policies, access observers and every fault message
are preserved exactly (``tests/ir/test_engine_equivalence.py`` and
``tests/ir/test_opcode_semantics.py`` run both engines
differentially).  Neither engine owns the opcode semantics: results
and fault messages of every binop, comparison and cast come from the
tables in :mod:`repro.ir.interp` (``BINOP_SEMANTICS``,
``CMP_SEMANTICS``, ``CAST_SEMANTICS``), and external-call results go
through the shared :meth:`ExecutionContext._call_external`.  What the
decoder adds is specialization on operand shape (register, constant,
lazily resolved value), never semantics, and every instruction the IR
can build decodes: there is no fallback onto the legacy step.
Lazily-allocated machine state (string interning, function code
addresses) stays lazy so the two engines produce bit-identical memory
images.

Decoded code is cached per :class:`~repro.ir.module.Function` on the
owning :class:`~repro.ir.interp.Machine` and revalidated against a
structural fingerprint (opcode identities, operand identities,
branch/phi targets — not just shape, so same-shape in-place mutation
is caught too), so IR mutated between runs (passes, partitioning) is
re-decoded automatically; mutating a function *while* it is
executing additionally requires :meth:`Machine.invalidate_decoded`.
Fingerprints are O(instructions), so they are recomputed only when
the machine's decode epoch advances (each :meth:`Machine.spawn`) —
per-call lookups within one run are a dict hit plus an int compare.
The cache itself is bounded (:data:`~repro.ir.interp.DECODE_CACHE_CAP`
entries, oldest evicted first): compiled closures strongly reference
the IR they execute, so weak keying could never collect an entry, and
without eviction a long-running machine that replaces modules would
retain every dead function body forever.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.errors import IRError, RuntimeFault
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Cmp,
    GEP,
    Instruction,
    Jump,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir.interp import (
    BINOP_SEMANTICS,
    ExecutionContext,
    Frame,
    Machine,
    binop_function,
    cast_function,
    cmp_function,
    int_width,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.types import StructType
from repro.ir.values import Constant, GlobalVariable, UndefValue, Value

#: A decoded instruction: returns True when the context advanced
#: (the legacy step's contract; False means blocked).
Op = Callable[["DecodedExecutionContext", Frame], bool]

#: Sentinel distinguishing "slot not mapped" from a stored None.
_UNMAPPED = object()


class OpList(list):
    """A block's closure list, annotated with its fused burst form.

    ``burst[i]`` is either None (execute ``self[i]`` alone) or a
    closure running the maximal straight-line run of pure ops starting
    at ``i``; ``blen[i]`` is that run's length in steps (used to keep
    step budgets exact — a fused run is never entered when it could
    overshoot the remaining limit).
    """

    __slots__ = ("burst", "blen")


#: Instructions that always advance ``frame.index`` to their own
#: successor and can neither block, push/pop frames, nor spawn
#: contexts — safe to fuse into a straight-line run.
_SEQUENTIAL = (Alloca, Load, Store, BinOp, Cmp, GEP, Cast, Select)

#: Instructions that end a fused run after executing (they leave the
#: current closure list or always fault).
_TERMINAL = (Branch, Jump, Unreachable)


class DecodedFunction:
    """The decoded form of one function: a closure list per block."""

    __slots__ = ("function", "fingerprint", "block_ops", "entry_ops",
                 "epoch")

    def __init__(self, function: Function, fingerprint: Tuple,
                 block_ops: Dict[BasicBlock, List[Op]]):
        self.function = function
        self.fingerprint = fingerprint
        self.block_ops = block_ops
        self.entry_ops: List[Op] = (
            block_ops[function.entry_block] if function.blocks else [])
        #: Decode epoch this code was last validated in (see
        #: :func:`decode_function`).
        self.epoch = -1


def _fingerprint(fn: Function) -> Tuple[int, int, int]:
    """Structural fingerprint of ``fn``'s body.

    Covers instruction identities and opcodes, operand identities,
    control-flow targets (branch/jump successors, phi predecessor
    blocks) and the per-instruction variant fields the decoder bakes
    into closures (binop opcode, cmp predicate, cast kind) — so any
    in-place mutation a pass can make invalidates the compiled code,
    including count-preserving ones like operand replacement or
    branch retargeting that the old ``(n_blocks, n_instrs)`` shape
    check missed.
    """
    acc: List[int] = [len(fn.blocks)]
    push = acc.append
    for block in fn.blocks:
        push(id(block))
        push(len(block.instructions))
        for instr in block.instructions:
            push(id(instr))
            push(id(type(instr)))
            for operand in instr.operands:
                push(id(operand))
            if isinstance(instr, Branch):
                push(id(instr.then_block))
                push(id(instr.else_block))
            elif isinstance(instr, Jump):
                push(id(instr.target))
            elif isinstance(instr, Phi):
                for pred in instr.incoming_blocks:
                    push(id(pred))
            elif isinstance(instr, BinOp):
                push(hash(instr.op))
            elif isinstance(instr, Cmp):
                push(hash(instr.predicate))
            elif isinstance(instr, Cast):
                push(hash(instr.kind))
                push(id(instr.to_type))
            elif isinstance(instr, Alloca):
                push(id(instr.allocated_type))
    return (len(fn.blocks), len(acc), hash(tuple(acc)))


def decode_function(machine: Machine, fn: Function) -> DecodedFunction:
    """Return (building and caching on demand) the decoded code of
    ``fn`` for ``machine``.

    The structural fingerprint is O(instructions), and this function
    runs on every executed call instruction — so cached code is
    trusted within a decode epoch (advanced by every
    :meth:`Machine.spawn`, i.e. at run boundaries) and refingerprinted
    only when the epoch moved.  Mutating IR *while* it executes still
    requires :meth:`Machine.invalidate_decoded`, exactly as before.
    """
    code = machine._decoded_cache.get(fn)
    if code is not None and code.epoch == machine._decode_epoch:
        return code
    return _revalidate(machine, fn, code)


def _revalidate(machine: Machine, fn: Function,
                code) -> DecodedFunction:
    fp = _fingerprint(fn)
    if code is not None and code.fingerprint == fp:
        code.epoch = machine._decode_epoch
        return code
    code = _decode(machine, fn, fp)
    code.epoch = machine._decode_epoch
    cache = machine._decoded_cache
    cache[fn] = code
    cache.move_to_end(fn)
    while len(cache) > machine._decoded_cache_cap:
        cache.popitem(last=False)
    return code


def _decode(machine: Machine, fn: Function,
            fp: Tuple[int, int]) -> DecodedFunction:
    block_ops: Dict[BasicBlock, OpList] = {}
    worklist: List[BasicBlock] = list(fn.blocks)
    for block in worklist:
        block_ops[block] = OpList()

    def ensure(block: BasicBlock) -> OpList:
        # Branch targets normally live in fn.blocks; tolerate foreign
        # blocks (hand-spliced IR) by decoding them into this code too.
        ops = block_ops.get(block)
        if ops is None:
            ops = block_ops[block] = OpList()
            worklist.append(block)
        return ops

    kinds_by_block: Dict[BasicBlock, List[str]] = {}
    i = 0
    while i < len(worklist):
        block = worklist[i]
        i += 1
        ops = block_ops[block]
        kinds = kinds_by_block.setdefault(block, [])
        for index, instr in enumerate(block.instructions):
            ops.append(_compile_instruction(machine, block, index, instr,
                                            ensure))
            if isinstance(instr, _SEQUENTIAL):
                kinds.append("seq")
            elif isinstance(instr, _TERMINAL):
                kinds.append("term")
            elif isinstance(instr, Phi):
                kinds.append("phi")
            else:
                kinds.append("solo")  # Call / Ret
    for block, ops in block_ops.items():
        _build_burst(machine, ops, kinds_by_block.get(block, []))
    return DecodedFunction(fn, fp, block_ops)


def _build_burst(machine: Machine, ops: OpList,
                 kinds: List[str]) -> None:
    """Annotate ``ops`` with its fused straight-line runs (used only
    by :meth:`DecodedExecutionContext.run_burst`; single stepping
    always dispatches one closure per instruction)."""
    n = len(ops)
    burst: List = [None] * n
    blen: List[int] = [1] * n
    for i in range(n):
        if kinds[i] == "phi":
            if i != 0:
                continue  # placeholder indices are never executed
            # The group op at index 0 executes ALL phis atomically
            # (one step) and jumps past the group — fuse it as the
            # head of the segment that follows the group.
            p = 0
            while p < n and kinds[p] == "phi":
                p += 1
            j = p
            while j < n and kinds[j] == "seq":
                j += 1
            if j < n and kinds[j] == "term":
                j += 1
            if j > p:
                burst[0] = _fuse(machine, [ops[0]] + list(ops[p:j]))
                blen[0] = 1 + (j - p)
            continue
        j = i
        while j < n and kinds[j] == "seq":
            j += 1
        if j < n and kinds[j] == "term":
            j += 1
        if j - i >= 2:
            burst[i] = _fuse(machine, ops[i:j])
            blen[i] = j - i
    ops.burst = burst
    ops.blen = blen


def _fuse(machine: Machine, seg: List[Op]):
    """One closure executing a straight-line run of pure ops.  Step
    counters update in a ``finally`` so they are exact even when an op
    faults partway through the run."""
    def fused(ctx, frame):
        n = 0
        try:
            for op in seg:
                op(ctx, frame)
                n += 1
        finally:
            if n:
                ctx.steps += n
                machine.total_steps += n
    return fused


# -- operand pre-resolution ------------------------------------------------------


def _raise_undef(ctx, frame, *registers):
    """Raise the legacy undefined-value fault for the first register
    in operand-evaluation order that is actually missing."""
    values = frame.values
    for register in registers:
        if register not in values:
            raise RuntimeFault(
                f"{ctx.name}: use of undefined value {register.short()} "
                f"in @{frame.function.name}")
    raise RuntimeFault(
        f"{ctx.name}: use of undefined value in @{frame.function.name}")


def _operand(machine: Machine, value: Value):
    """Pre-resolve one operand into ``(kind, payload)``.

    ``("const", v)``   — compile-time constant, capture ``v``;
    ``("reg", value)`` — an SSA register, read ``frame.values[value]``;
    ``("getter", fn)`` — resolved at execution time by
    ``fn(ctx, frame)`` (lazy string interning / function addresses,
    so memory allocation order matches the legacy engine exactly).
    """
    if isinstance(value, Constant):
        payload = value.value
        if isinstance(payload, str):
            text = payload

            def getter(ctx, frame):
                return machine.intern_string(text)
            return "getter", getter
        return "const", payload
    if isinstance(value, UndefValue):
        return "const", 0
    if isinstance(value, GlobalVariable):
        try:
            return "const", machine.global_address(value)
        except RuntimeFault:
            gv = value

            def getter(ctx, frame):
                return machine.global_address(gv)
            return "getter", getter
    if isinstance(value, Function):
        fn = value

        def getter(ctx, frame):
            return machine.function_address(fn)
        return "getter", getter
    return "reg", value


def _kind_getter(kind: str, payload):
    """Wrap a pre-resolved operand into an always-callable getter."""
    if kind == "const":
        captured = payload
        return lambda ctx, frame: captured
    if kind == "reg":
        register = payload

        def getter(ctx, frame):
            try:
                return frame.values[register]
            except KeyError:
                _raise_undef(ctx, frame, register)
        return getter
    return payload


def _getter(machine: Machine, value: Value):
    kind, payload = _operand(machine, value)
    return _kind_getter(kind, payload)


# -- per-instruction compilation -------------------------------------------------


def _compile_instruction(machine: Machine, block: BasicBlock, index: int,
                         instr: Instruction, ensure) -> Op:
    nxt = index + 1

    if isinstance(instr, Phi):
        return _compile_phi(machine, block)

    if isinstance(instr, Alloca):
        size = instr.allocated_type.size_slots()
        label = f"alloca:{instr.name or 'tmp'}"

        def op(ctx, frame):
            addr = machine.memory.alloc(size, machine.stack_region(ctx),
                                        label)
            frame.values[instr] = addr
            frame.index = nxt
            return True
        return op

    if isinstance(instr, Load):
        return _compile_load(machine, instr, nxt)

    if isinstance(instr, Store):
        return _compile_store(machine, instr, nxt)

    if isinstance(instr, BinOp):
        return _compile_binop(machine, instr, nxt)

    if isinstance(instr, Cmp):
        return _compile_binary(instr, nxt, cmp_function(instr.predicate),
                               *_operand(machine, instr.lhs),
                               *_operand(machine, instr.rhs))

    if isinstance(instr, GEP):
        return _compile_gep(machine, instr, nxt)

    if isinstance(instr, Cast):
        return _compile_cast(machine, instr, nxt)

    if isinstance(instr, Select):
        true_get = _getter(machine, instr.true_value)
        false_get = _getter(machine, instr.false_value)
        ckind, cond = _operand(machine, instr.cond)
        if ckind == "reg":
            creg = cond

            def op(ctx, frame):
                try:
                    c = frame.values[creg]
                except KeyError:
                    _raise_undef(ctx, frame, creg)
                chosen = true_get if c else false_get
                frame.values[instr] = chosen(ctx, frame)
                frame.index = nxt
                return True
            return op
        cget = _kind_getter(ckind, cond)

        def op(ctx, frame):
            chosen = true_get if cget(ctx, frame) else false_get
            frame.values[instr] = chosen(ctx, frame)
            frame.index = nxt
            return True
        return op

    if isinstance(instr, Call):
        return _compile_call(machine, instr)

    if isinstance(instr, Branch):
        return _compile_branch(machine, instr, ensure)

    if isinstance(instr, Jump):
        target = instr.target
        target_ops = ensure(target)

        def op(ctx, frame):
            frame.prev_block = frame.block
            frame.block = target
            frame.ops = target_ops
            frame.index = 0
            return True
        return op

    if isinstance(instr, Ret):
        if instr.value is None:
            def op(ctx, frame):
                ctx._do_return(None)
                return True
            return op
        vkind, val = _operand(machine, instr.value)
        if vkind == "const":
            def op(ctx, frame):
                ctx._do_return(val)
                return True
            return op
        if vkind == "reg":
            vreg = val

            def op(ctx, frame):
                try:
                    result = frame.values[vreg]
                except KeyError:
                    _raise_undef(ctx, frame, vreg)
                ctx._do_return(result)
                return True
            return op
        vget = val

        def op(ctx, frame):
            ctx._do_return(vget(ctx, frame))
            return True
        return op

    if isinstance(instr, Unreachable):
        def op(ctx, frame):
            raise RuntimeFault(
                f"{ctx.name}: reached unreachable in "
                f"@{frame.function.name}")
        return op

    raise IRError(f"cannot decode a {type(instr).__name__} instruction")


def _compile_load(machine: Machine, instr: Load, nxt: int) -> Op:
    slots = machine.memory._slots
    pkind, ptr = _operand(machine, instr.ptr)
    if pkind == "reg":
        preg = ptr

        def op(ctx, frame):
            values = frame.values
            try:
                addr = values[preg]
            except KeyError:
                _raise_undef(ctx, frame, preg)
            if machine.access_policy is None and not machine.access_hooks:
                v = slots.get(addr, _UNMAPPED)
                if v is _UNMAPPED:
                    v = machine.mem_read(ctx, addr)  # precise fault
            else:
                v = machine.mem_read(ctx, addr)
            values[instr] = v
            frame.index = nxt
            return True
        return op
    if pkind == "const":
        addr_c = ptr

        def op(ctx, frame):
            if machine.access_policy is None and not machine.access_hooks:
                v = slots.get(addr_c, _UNMAPPED)
                if v is _UNMAPPED:
                    v = machine.mem_read(ctx, addr_c)
            else:
                v = machine.mem_read(ctx, addr_c)
            frame.values[instr] = v
            frame.index = nxt
            return True
        return op
    pget = ptr

    def op(ctx, frame):
        frame.values[instr] = machine.mem_read(ctx, pget(ctx, frame))
        frame.index = nxt
        return True
    return op


def _compile_store(machine: Machine, instr: Store, nxt: int) -> Op:
    slots = machine.memory._slots
    pkind, ptr = _operand(machine, instr.ptr)
    vkind, val = _operand(machine, instr.value)
    if pkind == "getter" or vkind == "getter":
        pget = _kind_getter(pkind, ptr)
        vget = _kind_getter(vkind, val)

        def op(ctx, frame):
            # Legacy order: resolve the pointer, then the stored value.
            addr = pget(ctx, frame)
            machine.mem_write(ctx, addr, vget(ctx, frame))
            frame.index = nxt
            return True
        return op

    if pkind == "reg" and vkind == "reg":
        preg, vreg = ptr, val

        def op(ctx, frame):
            values = frame.values
            try:
                addr = values[preg]
                v = values[vreg]
            except KeyError:
                _raise_undef(ctx, frame, preg, vreg)
            if machine.access_policy is None and not machine.access_hooks:
                if addr in slots:
                    slots[addr] = v
                else:
                    machine.mem_write(ctx, addr, v)  # precise fault
            else:
                machine.mem_write(ctx, addr, v)
            frame.index = nxt
            return True
        return op

    if pkind == "reg":
        preg, vc = ptr, val

        def op(ctx, frame):
            try:
                addr = frame.values[preg]
            except KeyError:
                _raise_undef(ctx, frame, preg)
            if machine.access_policy is None and not machine.access_hooks:
                if addr in slots:
                    slots[addr] = vc
                else:
                    machine.mem_write(ctx, addr, vc)
            else:
                machine.mem_write(ctx, addr, vc)
            frame.index = nxt
            return True
        return op

    if vkind == "reg":
        pc, vreg = ptr, val

        def op(ctx, frame):
            try:
                v = frame.values[vreg]
            except KeyError:
                _raise_undef(ctx, frame, vreg)
            if machine.access_policy is None and not machine.access_hooks:
                if pc in slots:
                    slots[pc] = v
                else:
                    machine.mem_write(ctx, pc, v)
            else:
                machine.mem_write(ctx, pc, v)
            frame.index = nxt
            return True
        return op

    pc, vc = ptr, val

    def op(ctx, frame):
        if machine.access_policy is None and not machine.access_hooks:
            if pc in slots:
                slots[pc] = vc
            else:
                machine.mem_write(ctx, pc, vc)
        else:
            machine.mem_write(ctx, pc, vc)
        frame.index = nxt
        return True
    return op


def _compile_binop(machine: Machine, instr: BinOp, nxt: int) -> Op:
    bits = int_width(instr.type)
    coerce, fn, fault = BINOP_SEMANTICS[instr.op]
    lkind, lv = _operand(machine, instr.lhs)
    rkind, rv = _operand(machine, instr.rhs)
    if coerce is not int or fault is not None or "getter" in (lkind, rkind) \
            or lkind == rkind == "const":
        return _compile_binary(instr, nxt, binop_function(instr.op, bits),
                               lkind, lv, rkind, rv)

    # Total integer ops, the loop-body workhorses (add, sub, mul): the
    # table's operator and the wrap to width are inlined.  Calling the
    # generic evaluator here instead costs 11-28% on the fig7 compute
    # loop.
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    mod = 1 << bits
    if lkind == "reg" and rkind == "reg":
        lreg, rreg = lv, rv

        def op(ctx, frame):
            values = frame.values
            try:
                r = fn(int(values[lreg]), int(values[rreg])) & mask
            except KeyError:
                _raise_undef(ctx, frame, lreg, rreg)
            values[instr] = r - mod if r >= sign else r
            frame.index = nxt
            return True
        return op
    if lkind == "reg":
        lreg, rc = lv, int(rv)

        def op(ctx, frame):
            values = frame.values
            try:
                r = fn(int(values[lreg]), rc) & mask
            except KeyError:
                _raise_undef(ctx, frame, lreg)
            values[instr] = r - mod if r >= sign else r
            frame.index = nxt
            return True
        return op
    lc, rreg = int(lv), rv

    def op(ctx, frame):
        values = frame.values
        try:
            r = fn(lc, int(values[rreg])) & mask
        except KeyError:
            _raise_undef(ctx, frame, rreg)
        values[instr] = r - mod if r >= sign else r
        frame.index = nxt
        return True
    return op


def _compile_binary(instr: Instruction, nxt: int, evaluate,
                    lkind: str, lv, rkind: str, rv) -> Op:
    """A two-operand instruction computing ``evaluate(lhs, rhs)`` from
    the semantics tables, specialized on its operands' shapes."""
    if lkind == "const" and rkind == "const":
        try:
            folded = evaluate(lv, rv)
        except RuntimeFault as fault:
            message = str(fault)

            def op(ctx, frame):
                raise RuntimeFault(message)
            return op

        def op(ctx, frame):
            frame.values[instr] = folded
            frame.index = nxt
            return True
        return op

    if lkind == "getter" or rkind == "getter":
        lget = _kind_getter(lkind, lv)
        rget = _kind_getter(rkind, rv)

        def op(ctx, frame):
            frame.values[instr] = evaluate(lget(ctx, frame),
                                           rget(ctx, frame))
            frame.index = nxt
            return True
        return op

    if lkind == "reg" and rkind == "reg":
        lreg, rreg = lv, rv

        def op(ctx, frame):
            values = frame.values
            try:
                a = values[lreg]
                b = values[rreg]
            except KeyError:
                _raise_undef(ctx, frame, lreg, rreg)
            values[instr] = evaluate(a, b)
            frame.index = nxt
            return True
        return op
    if lkind == "reg":
        lreg, rc = lv, rv

        def op(ctx, frame):
            values = frame.values
            try:
                a = values[lreg]
            except KeyError:
                _raise_undef(ctx, frame, lreg)
            values[instr] = evaluate(a, rc)
            frame.index = nxt
            return True
        return op
    lc, rreg = lv, rv

    def op(ctx, frame):
        values = frame.values
        try:
            b = values[rreg]
        except KeyError:
            _raise_undef(ctx, frame, rreg)
        values[instr] = evaluate(lc, b)
        frame.index = nxt
        return True
    return op


def _compile_branch(machine: Machine, instr: Branch, ensure) -> Op:
    then_block, else_block = instr.then_block, instr.else_block
    then_ops = ensure(then_block)
    else_ops = ensure(else_block)
    ckind, cond = _operand(machine, instr.cond)

    if ckind == "const":
        target = then_block if cond else else_block
        target_ops = then_ops if cond else else_ops

        def op(ctx, frame):
            frame.prev_block = frame.block
            frame.block = target
            frame.ops = target_ops
            frame.index = 0
            return True
        return op

    if ckind == "reg":
        creg = cond

        def op(ctx, frame):
            try:
                c = frame.values[creg]
            except KeyError:
                _raise_undef(ctx, frame, creg)
            frame.prev_block = frame.block
            if c:
                frame.block = then_block
                frame.ops = then_ops
            else:
                frame.block = else_block
                frame.ops = else_ops
            frame.index = 0
            return True
        return op

    cget = cond

    def op(ctx, frame):
        frame.prev_block = frame.block
        if cget(ctx, frame):
            frame.block = then_block
            frame.ops = then_ops
        else:
            frame.block = else_block
            frame.ops = else_ops
        frame.index = 0
        return True
    return op


def _compile_phi(machine: Machine, block: BasicBlock) -> Op:
    """One closure executes the whole phi group atomically, exactly
    like the legacy engine (reads first, then writes).

    Incomings are pre-tagged ``(kind, payload)`` so the hot loop-header
    case (register/constant incomings) never allocates a getter call.
    """
    phis = block.phis
    pairs = []
    for phi in phis:
        table = {}
        for value, pred in phi.incomings:
            if pred not in table:
                table[pred] = _operand(machine, value)
        pairs.append((phi, table))
    next_index = block.first_non_phi_index()

    def resolve(ctx, frame, values, phi, table):
        entry = table.get(frame.prev_block)
        if entry is None:
            raise IRError(
                f"phi {phi.short()} has no incoming for "
                f"{frame.prev_block}")
        kind, payload = entry
        if kind == "reg":
            try:
                return values[payload]
            except KeyError:
                _raise_undef(ctx, frame, payload)
        if kind == "const":
            return payload
        return payload(ctx, frame)

    if len(pairs) == 1:
        # A single phi needs no staging: one read, one write.
        phi0, table0 = pairs[0]

        def op(ctx, frame):
            values = frame.values
            entry = table0.get(frame.prev_block)
            if entry is None:
                resolve(ctx, frame, values, phi0, table0)  # raises
            kind, payload = entry
            if kind == "reg":
                try:
                    values[phi0] = values[payload]
                except KeyError:
                    _raise_undef(ctx, frame, payload)
            elif kind == "const":
                values[phi0] = payload
            else:
                values[phi0] = payload(ctx, frame)
            frame.index = next_index
            return True
        return op

    if len(pairs) == 2:
        (phi0, table0), (phi1, table1) = pairs

        def op(ctx, frame):
            values = frame.values
            prev = frame.prev_block
            e0 = table0.get(prev)
            e1 = table1.get(prev)
            if e0 is None or e1 is None:
                # Missing incoming: fall back for the exact IRError.
                a = resolve(ctx, frame, values, phi0, table0)
                b = resolve(ctx, frame, values, phi1, table1)
            else:
                k0, p0 = e0
                if k0 == "reg":
                    try:
                        a = values[p0]
                    except KeyError:
                        _raise_undef(ctx, frame, p0)
                elif k0 == "const":
                    a = p0
                else:
                    a = p0(ctx, frame)
                k1, p1 = e1
                if k1 == "reg":
                    try:
                        b = values[p1]
                    except KeyError:
                        _raise_undef(ctx, frame, p1)
                elif k1 == "const":
                    b = p1
                else:
                    b = p1(ctx, frame)
            values[phi0] = a
            values[phi1] = b
            frame.index = next_index
            return True
        return op

    def op(ctx, frame):
        values = frame.values
        staged = [resolve(ctx, frame, values, phi, table)
                  for phi, table in pairs]
        for (phi, _table), value in zip(pairs, staged):
            values[phi] = value
        frame.index = next_index
        return True
    return op


def _compile_gep(machine: Machine, instr: GEP, nxt: int) -> Op:
    bkind, base = _operand(machine, instr.ptr)
    current = instr.ptr.type.pointee
    indices = instr.indices

    static = 0
    dynamic: List[Tuple[str, object, int]] = []

    lkind, lead = _operand(machine, indices[0])
    if lkind == "const":
        static += int(lead) * current.size_slots()
    else:
        dynamic.append((lkind, lead, current.size_slots()))

    # GEP construction guarantees every index past the first drills
    # into a struct (by a constant) or an array.
    for idx in indices[1:]:
        if isinstance(current, StructType):
            field = int(idx.value)
            static += current.field_offset_slots(field)
            current = current.fields[field].type
        else:
            element_size = current.element.size_slots()
            ikind, ival = _operand(machine, idx)
            if ikind == "const":
                static += int(ival) * element_size
            else:
                dynamic.append((ikind, ival, element_size))
            current = current.element

    if not dynamic:
        if bkind == "const":
            addr = base + static

            def op(ctx, frame):
                frame.values[instr] = addr
                frame.index = nxt
                return True
            return op
        if bkind == "reg":
            breg = base

            def op(ctx, frame):
                values = frame.values
                try:
                    a = values[breg]
                except KeyError:
                    _raise_undef(ctx, frame, breg)
                values[instr] = a + static
                frame.index = nxt
                return True
            return op
        bget = base

        def op(ctx, frame):
            frame.values[instr] = bget(ctx, frame) + static
            frame.index = nxt
            return True
        return op

    if len(dynamic) == 1 and dynamic[0][0] == "reg":
        _kind, ireg, scale = dynamic[0]
        if bkind == "const":
            offset = base + static

            def op(ctx, frame):
                values = frame.values
                try:
                    i = values[ireg]
                except KeyError:
                    _raise_undef(ctx, frame, ireg)
                values[instr] = offset + int(i) * scale
                frame.index = nxt
                return True
            return op
        if bkind == "reg":
            breg = base

            def op(ctx, frame):
                values = frame.values
                try:
                    a = values[breg]
                    i = values[ireg]
                except KeyError:
                    _raise_undef(ctx, frame, breg, ireg)
                values[instr] = a + static + int(i) * scale
                frame.index = nxt
                return True
            return op

    bget = _kind_getter(bkind, base)
    getters = [(_kind_getter(k, v), scale) for k, v, scale in dynamic]

    def op(ctx, frame):
        addr = bget(ctx, frame) + static
        for getter, scale in getters:
            addr += int(getter(ctx, frame)) * scale
        frame.values[instr] = addr
        frame.index = nxt
        return True
    return op


def _compile_cast(machine: Machine, instr: Cast, nxt: int) -> Op:
    convert = cast_function(instr.kind, int_width(instr.to_type))
    vkind, val = _operand(machine, instr.value)

    if vkind == "const":
        try:
            folded = val if convert is None else convert(val)
        except RuntimeFault as fault:
            message = str(fault)

            def op(ctx, frame):
                raise RuntimeFault(message)
            return op

        def op(ctx, frame):
            frame.values[instr] = folded
            frame.index = nxt
            return True
        return op
    if vkind == "reg":
        vreg = val

        def op(ctx, frame):
            values = frame.values
            try:
                v = values[vreg]
            except KeyError:
                _raise_undef(ctx, frame, vreg)
            values[instr] = v if convert is None else convert(v)
            frame.index = nxt
            return True
        return op
    vget = val

    def op(ctx, frame):
        v = vget(ctx, frame)
        frame.values[instr] = v if convert is None else convert(v)
        frame.index = nxt
        return True
    return op


def _compile_call(machine: Machine, instr: Call) -> Op:
    callee = instr.callee
    arg_getters = [_getter(machine, arg) for arg in instr.args]

    if not isinstance(callee, Function):
        # Indirect call: the target is known only at run time.
        callee_get = _getter(machine, callee)

        def op(ctx, frame):
            target = machine.definition_of(
                machine.function_at(callee_get(ctx, frame)))
            args = [g(ctx, frame) for g in arg_getters]
            if target.is_declaration:
                return ctx._call_external(frame, instr, target.name, args)
            ctx._push_call(target, args, call_site=instr)
            return True
        return op

    # The name map is fixed at machine load time, so a declaration
    # resolves once here instead of on every call.
    resolved = machine.definition_of(callee)

    if resolved.is_declaration:
        name = resolved.name

        def op(ctx, frame):
            return ctx._call_external(
                frame, instr, name, [g(ctx, frame) for g in arg_getters])
        return op

    formals = list(resolved.args)
    target = resolved
    if len(arg_getters) != len(formals):
        def op(ctx, frame):
            # The generic push raises the arity fault.
            ctx._push_call(target, [g(ctx, frame) for g in arg_getters],
                           call_site=instr)
        return op

    def op(ctx, frame):
        args = [g(ctx, frame) for g in arg_getters]
        new_frame = Frame(target, instr, False)
        new_frame.values = dict(zip(formals, args))
        new_frame.ops = decode_function(machine, target).entry_ops
        ctx.stack.append(new_frame)
        return True
    return op


# -- the decoded execution context ----------------------------------------------


class DecodedExecutionContext(ExecutionContext):
    """An :class:`ExecutionContext` that dispatches pre-decoded
    closures: fetch ``frame.ops[frame.index]``, call it.  Everything
    else (call stack, returns, trampolines, blocking) is inherited.
    Every frame gets its decoded code when it is pushed, so there is
    no fallback onto the legacy step."""

    def _push_call(self, function: Function, args,
                   call_site, replay: bool = False) -> None:
        super()._push_call(function, args, call_site, replay)
        frame = self.stack[-1]
        frame.ops = decode_function(self.machine, function).entry_ops

    def step(self) -> None:
        """Execute one instruction (or retry a blocked external call)."""
        if self.finished or not self.stack:
            return
        frame = self.stack[-1]
        ops = frame.ops
        try:
            advanced = ops[frame.index](self, frame)
        except RuntimeFault:
            self.finished = True
            raise
        except IndexError:
            if frame.index >= len(ops):
                raise RuntimeFault(
                    f"{self.name}: fell off block {frame.block.name} in "
                    f"@{frame.function.name}") from None
            raise
        if advanced:
            self.steps += 1
            self.machine.total_steps += 1

    def run_burst(self, limit: int, contexts) -> Tuple[int, bool]:
        """Inlined step loop (see :meth:`ExecutionContext.run_burst`):
        same step sequence, without the per-step method dispatch.
        Straight-line runs of pure ops execute through their fused
        closure — one dispatch per run instead of per instruction
        (fused runs cannot block, spawn, or cross a frame boundary,
        so this is unobservable apart from speed)."""
        machine = self.machine
        stack = self.stack
        tracer = machine.tracer
        t0 = tracer.now_us() if tracer is not None else 0.0
        start_steps = self.steps
        n_ctx = len(contexts)
        attempts = 0
        advanced_any = False
        while attempts < limit:
            if self.finished or not stack:
                break
            frame = stack[-1]
            ops = frame.ops
            index = frame.index
            try:
                fused = ops.burst[index]
                if fused is not None and \
                        ops.blen[index] <= limit - attempts:
                    # Hot loop: a fused run cannot block, spawn,
                    # finish a frame or fault-free change the stack,
                    # so while the next index is fused too (the hot
                    # loop case) chain the runs without re-checking
                    # any of that.
                    before = self.steps
                    while True:
                        fused(self, frame)
                        ops = frame.ops
                        index = frame.index
                        fused = ops.burst[index]
                        if fused is None or ops.blen[index] > \
                                limit - attempts - (self.steps - before):
                            break
                    attempts += self.steps - before
                    advanced_any = True
                    continue
                advanced = ops[index](self, frame)
            except RuntimeFault:
                self.finished = True
                raise
            except IndexError:
                if index >= len(ops):
                    raise RuntimeFault(
                        f"{self.name}: fell off block {frame.block.name} "
                        f"in @{frame.function.name}") from None
                raise
            attempts += 1
            if advanced:
                self.steps += 1
                machine.total_steps += 1
                advanced_any = True
            else:
                break
            if len(contexts) != n_ctx:
                break
        if tracer is not None and self.steps > start_steps:
            tracer.step_burst(self.name, self.mode,
                              self.steps - start_steps, t0)
        return attempts, advanced_any
