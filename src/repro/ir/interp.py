"""Step-based IR interpreter with a simulated flat address space.

This is the abstract machine of paper §2.2: typed registers plus a
memory.  Three properties matter for the reproduction:

* **Step-based execution contexts.**  Each simulated thread is an
  :class:`ExecutionContext` advanced one instruction at a time, so a
  scheduler can interleave threads deterministically.  The Figure 3
  experiment *requires* this: it demonstrates the data-flow-analysis
  failure by driving two threads through a specific interleaving.

* **Region-tagged memory.**  Every allocation lives in a region
  (``unsafe`` or an enclave).  A pluggable access policy implements
  the SGX isolation semantics (normal mode cannot touch enclaves,
  enclave mode cannot touch other enclaves — paper §2.1), and access
  observers feed the cost model.

* **External function registry.**  Calls to declarations dispatch to
  Python callables, which is how libc stand-ins (``malloc``,
  ``printf``, ``memcpy``, ...), threading and the Privagic runtime
  primitives (``spawn`` / ``cont`` / ``wait``) are provided.  An
  external may return :data:`BLOCK` to make the calling context retry
  later (how ``wait`` blocks on an empty channel).
"""

from __future__ import annotations

import bisect
import functools
import operator
import os
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.printer import print_instruction
from repro.ir.types import ArrayType, IntType, IRType, StructType
from repro.ir.values import Constant, GlobalVariable, UndefValue, Value

#: Sentinel returned by an external function to block the caller; the
#: context will re-execute the same call on its next step.
BLOCK = object()


class PushCall:
    """Returned by an external function to run an IR function *inside*
    the calling context before the external call completes.

    This is how the Privagic runtime implements trampolines (paper
    §7.3.2): a blocked ``wait`` that finds a ``spawn`` message in its
    queue starts the spawned chunk in place, then retries the wait.
    When ``replay`` is true the external call re-executes after the
    pushed function returns; otherwise the pushed function's result
    becomes the call's result.
    """

    def __init__(self, function, args, replay: bool = True):
        self.function = function
        self.args = list(args)
        self.replay = replay
        #: Optional callback receiving the pushed function's result.
        self.on_return = None

#: Region name of ordinary (non-enclave) memory.
UNSAFE_REGION = "unsafe"

#: Sentinel distinguishing "slot not mapped" from a stored None.
_UNMAPPED_SLOT = object()


def enclave_region(color: str) -> str:
    """Region name of the enclave with the given color."""
    return f"enclave:{color}"


class Allocation:
    """One allocated object in the simulated address space."""

    __slots__ = ("base", "size", "region", "label", "live")

    def __init__(self, base: int, size: int, region: str, label: str):
        self.base = base
        self.size = size
        self.region = region
        self.label = label
        self.live = True

    def __repr__(self) -> str:
        return (f"<Allocation {self.label} @{self.base} "
                f"size={self.size} region={self.region}>")


class Memory:
    """Slot-granular simulated memory.

    Addresses are integers; each address holds one scalar (int, float
    or pointer).  Address 0 is the null pointer and never allocated.
    """

    def __init__(self):
        self._slots: Dict[int, object] = {}
        self._next = 0x1000
        self._bases: List[int] = []
        self._allocs: List[Allocation] = []

    def alloc(self, size: int, region: str = UNSAFE_REGION,
              label: str = "") -> int:
        if size < 0:
            raise RuntimeFault(f"negative allocation size {size}")
        base = self._next
        # Keep a guard slot between objects so off-by-one writes fault.
        self._next += max(size, 1) + 1
        allocation = Allocation(base, size, region, label)
        index = bisect.bisect_left(self._bases, base)
        self._bases.insert(index, base)
        self._allocs.insert(index, allocation)
        for i in range(size):
            self._slots[base + i] = 0
        return base

    def free(self, addr: int) -> None:
        allocation = self.allocation_at(addr)
        if allocation.base != addr:
            raise RuntimeFault(f"free of interior pointer {addr}")
        allocation.live = False
        for i in range(allocation.size):
            self._slots.pop(allocation.base + i, None)

    def allocation_at(self, addr: int) -> Allocation:
        index = bisect.bisect_right(self._bases, addr) - 1
        if index >= 0:
            allocation = self._allocs[index]
            if allocation.live and \
                    allocation.base <= addr < allocation.base + allocation.size:
                return allocation
        raise RuntimeFault(f"wild address {addr}")

    def region_of(self, addr: int) -> str:
        return self.allocation_at(addr).region

    def read(self, addr: int) -> object:
        if addr not in self._slots:
            self.allocation_at(addr)  # raise a precise fault
            raise RuntimeFault(f"read of unmapped address {addr}")
        return self._slots[addr]

    def write(self, addr: int, value: object) -> None:
        if addr not in self._slots:
            self.allocation_at(addr)
            raise RuntimeFault(f"write to unmapped address {addr}")
        self._slots[addr] = value

    def live_allocations(self) -> List[Allocation]:
        return [a for a in self._allocs if a.live]


class Frame:
    """One activation record."""

    __slots__ = ("function", "block", "index", "values", "prev_block",
                 "call_site", "replay", "on_return", "ops")

    def __init__(self, function: Function,
                 call_site: Optional[Instruction] = None,
                 replay: bool = False):
        self.function = function
        self.block: BasicBlock = function.entry_block
        self.index = 0
        self.values: Dict[Value, object] = {}
        self.prev_block: Optional[BasicBlock] = None
        self.call_site = call_site
        #: Pre-decoded closure list of the current block (parallel to
        #: ``block.instructions``); ``None`` under the legacy engine.
        self.ops: Optional[list] = None
        #: When true, returning does not advance the caller — the
        #: caller re-executes its current (external-call) instruction.
        self.replay = replay
        #: Optional callback invoked with the return value when this
        #: frame returns (the runtime's trampoline reply, §7.3.2).
        self.on_return = None


class ExecutionContext:
    """A simulated thread: a call stack advanced step by step.

    ``mode`` is the simulated processor mode: ``None`` for normal mode
    or an enclave color for enclave mode.  The runtime's per-enclave
    worker threads are contexts whose mode is their enclave.
    """

    _next_id = 1

    def __init__(self, machine: "Machine", function: Function,
                 args: Sequence[object] = (), mode: Optional[str] = None,
                 name: str = ""):
        self.machine = machine
        self.ctx_id = ExecutionContext._next_id
        ExecutionContext._next_id += 1
        self.name = name or f"ctx{self.ctx_id}"
        self.mode = mode
        self.stack: List[Frame] = []
        self.finished = False
        self.result: object = None
        self.steps = 0
        self.trap: Optional[BaseException] = None
        #: Workers set this: an empty stack means idle, not finished.
        self.keep_alive = False
        if function is not None:
            self._push_call(function, args, call_site=None)

    @property
    def idle(self) -> bool:
        return not self.stack and not self.finished

    # -- call management -------------------------------------------------------

    def _push_call(self, function: Function, args: Sequence[object],
                   call_site: Optional[Instruction],
                   replay: bool = False) -> None:
        if function.is_declaration:
            raise RuntimeFault(
                f"cannot start context in declaration @{function.name}")
        if len(args) != len(function.args):
            raise RuntimeFault(
                f"@{function.name} called with {len(args)} args, "
                f"expects {len(function.args)}")
        frame = Frame(function, call_site, replay)
        for formal, actual in zip(function.args, args):
            frame.values[formal] = actual
        self.stack.append(frame)

    def push_external_call(self, function: Function,
                           args: Sequence[object]) -> None:
        """Push a call from outside IR execution (used by the runtime
        to start a spawned chunk on an idle worker)."""
        self._push_call(function, args, call_site=None)

    @property
    def frame(self) -> Frame:
        return self.stack[-1]

    # -- value resolution --------------------------------------------------------

    def value_of(self, value: Value) -> object:
        if isinstance(value, Constant):
            return self.machine.constant_value(value)
        if isinstance(value, UndefValue):
            return 0
        if isinstance(value, GlobalVariable):
            return self.machine.global_address(value)
        if isinstance(value, Function):
            return self.machine.function_address(value)
        frame = self.frame
        if value in frame.values:
            return frame.values[value]
        raise RuntimeFault(
            f"{self.name}: use of undefined value {value.short()} in "
            f"@{frame.function.name}")

    # -- stepping ------------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction (or retry a blocked external call)."""
        if self.finished or not self.stack:
            return
        frame = self.frame
        if frame.index >= len(frame.block.instructions):
            raise RuntimeFault(
                f"{self.name}: fell off block {frame.block.name} in "
                f"@{frame.function.name}")
        instr = frame.block.instructions[frame.index]
        try:
            advanced = self._execute(frame, instr)
        except RuntimeFault:
            self.finished = True
            raise
        if advanced:
            self.steps += 1
            self.machine.total_steps += 1

    def run_burst(self, limit: int, contexts) -> Tuple[int, bool]:
        """Step up to ``limit`` times; stop when blocked, finished,
        idle, or the machine's context list changes (a spawn).

        This is the schedulers' fast path for a *lone* runnable
        context: the resulting step sequence is exactly what
        round-robin over that single context would produce, minus the
        per-round bookkeeping.  Returns ``(attempts, advanced_any)``.
        """
        tracer = self.machine.tracer
        t0 = tracer.now_us() if tracer is not None else 0.0
        start_steps = self.steps
        n_ctx = len(contexts)
        attempts = 0
        advanced_any = False
        while attempts < limit and not self.finished and self.stack:
            before = self.steps
            attempts += 1
            self.step()
            if self.steps == before:
                break
            advanced_any = True
            if len(contexts) != n_ctx:
                break
        if tracer is not None and self.steps > start_steps:
            tracer.step_burst(self.name, self.mode,
                              self.steps - start_steps, t0)
        return attempts, advanced_any

    def _execute(self, frame: Frame, instr: Instruction) -> bool:
        """Execute ``instr``; return False if the context blocked."""
        machine = self.machine

        if isinstance(instr, Phi):
            # Execute the whole phi group atomically against prev_block.
            block = frame.block
            phis = block.phis
            values = [self.value_of(p.incoming_for(frame.prev_block))
                      for p in phis]
            for phi, v in zip(phis, values):
                frame.values[phi] = v
            frame.index = block.first_non_phi_index()
            return True

        if isinstance(instr, Alloca):
            region = machine.stack_region(self)
            addr = machine.memory.alloc(
                instr.allocated_type.size_slots(), region,
                f"alloca:{instr.name or 'tmp'}")
            frame.values[instr] = addr
            frame.index += 1
            return True

        if isinstance(instr, Load):
            addr = self.value_of(instr.ptr)
            frame.values[instr] = machine.mem_read(self, addr)
            frame.index += 1
            return True

        if isinstance(instr, Store):
            addr = self.value_of(instr.ptr)
            machine.mem_write(self, addr, self.value_of(instr.value))
            frame.index += 1
            return True

        if isinstance(instr, BinOp):
            lhs = self.value_of(instr.lhs)
            rhs = self.value_of(instr.rhs)
            frame.values[instr] = binop_function(
                instr.op, int_width(instr.type))(lhs, rhs)
            frame.index += 1
            return True

        if isinstance(instr, Cmp):
            lhs = self.value_of(instr.lhs)
            rhs = self.value_of(instr.rhs)
            frame.values[instr] = cmp_function(instr.predicate)(lhs, rhs)
            frame.index += 1
            return True

        if isinstance(instr, GEP):
            frame.values[instr] = self._gep_address(instr)
            frame.index += 1
            return True

        if isinstance(instr, Cast):
            value = self.value_of(instr.value)
            convert = cast_function(instr.kind, int_width(instr.to_type))
            frame.values[instr] = value if convert is None else \
                convert(value)
            frame.index += 1
            return True

        if isinstance(instr, Select):
            cond = self.value_of(instr.cond)
            chosen = instr.true_value if cond else instr.false_value
            frame.values[instr] = self.value_of(chosen)
            frame.index += 1
            return True

        if isinstance(instr, Call):
            return self._execute_call(frame, instr)

        if isinstance(instr, Branch):
            cond = self.value_of(instr.cond)
            target = instr.then_block if cond else instr.else_block
            self._enter_block(frame, target)
            return True

        if isinstance(instr, Jump):
            self._enter_block(frame, instr.target)
            return True

        if isinstance(instr, Ret):
            result = (self.value_of(instr.value)
                      if instr.value is not None else None)
            self._do_return(result)
            return True

        if isinstance(instr, Unreachable):
            raise RuntimeFault(
                f"{self.name}: reached unreachable in "
                f"@{frame.function.name}")

        raise RuntimeFault(f"cannot execute {print_instruction(instr)}")

    def _enter_block(self, frame: Frame, target: BasicBlock) -> None:
        frame.prev_block = frame.block
        frame.block = target
        frame.index = 0

    def _do_return(self, result: object) -> None:
        frame = self.stack.pop()
        if frame.on_return is not None:
            frame.on_return(result)
        if not self.stack:
            if self.keep_alive:
                self.result = result  # worker goes idle, stays alive
            else:
                self.finished = True
                self.result = result
            return
        if frame.replay:
            # A trampoline frame: the caller re-executes its current
            # (external wait) instruction.
            return
        caller = self.frame
        call = frame.call_site
        if call is not None and not call.is_void:
            caller.values[call] = result
        if call is not None:
            caller.index += 1

    def _gep_address(self, instr: GEP) -> int:
        addr = self.value_of(instr.ptr)
        current: IRType = instr.ptr.type.pointee
        indices = instr.indices
        # Leading index: whole objects of the pointee type.
        lead = self.value_of(indices[0])
        addr += int(lead) * current.size_slots()
        for idx in indices[1:]:
            i = int(self.value_of(idx))
            if isinstance(current, StructType):
                addr += current.field_offset_slots(i)
                current = current.fields[i].type
            elif isinstance(current, ArrayType):
                addr += i * current.element.size_slots()
                current = current.element
            else:
                raise RuntimeFault(f"gep into scalar type {current}")
        return addr

    def _execute_call(self, frame: Frame, instr: Call) -> bool:
        machine = self.machine
        callee = instr.callee
        if not isinstance(callee, Function):
            # Indirect call: resolve the function address.
            callee = machine.function_at(self.value_of(callee))
        callee = machine.definition_of(callee)
        args = [self.value_of(a) for a in instr.args]
        if callee.is_declaration:
            return self._call_external(frame, instr, callee.name, args)
        self._push_call(callee, args, call_site=instr)
        return True

    def _call_external(self, frame: Frame, instr: Call, name: str,
                       args: List[object]) -> bool:
        """Run the external ``name`` for call ``instr`` and apply its
        result: :data:`BLOCK` retries the call later (returns False),
        a :class:`PushCall` runs an IR function first, anything else is
        the call's value.  Shared by both engines."""
        machine = self.machine
        handler = machine.externals.get(name)
        if handler is None:
            raise RuntimeFault(
                f"{self.name}: call to unknown external @{name}")
        result = handler(machine, self, args)
        if result is BLOCK:
            machine.blocked_steps += 1
            return False
        if isinstance(result, PushCall):
            self._push_call(result.function, result.args,
                            call_site=instr if not result.replay
                            else None,
                            replay=result.replay)
            if result.on_return is not None:
                self.stack[-1].on_return = result.on_return
            return True
        if not instr.is_void:
            frame.values[instr] = result
        frame.index += 1
        return True

    def __repr__(self) -> str:
        state = "done" if self.finished else (
            f"@{self.frame.function.name}" if self.stack else "empty")
        return f"<ExecutionContext {self.name} mode={self.mode} {state}>"


# -- instruction semantics --------------------------------------------------------
#
# Each opcode's meaning is written once, in the three tables below.
# The legacy step, the decoded engine's closures (repro.ir.engine) and
# constant folding (repro.ir.passes.constfold) all evaluate through
# them, so a fold, a legacy step and a decoded step cannot disagree.

_INT64_MASK = (1 << 64) - 1


def _wrap_signed(value: int, bits: int) -> int:
    mask = (1 << bits) - 1
    value &= mask
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def _fptosi(bits: int) -> Callable:
    """fptosi to a ``bits``-wide integer: truncate toward zero, and
    fault on NaN, an infinity or a value the width cannot hold."""
    low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1

    def convert(value):
        try:
            result = int(value)
        except (OverflowError, ValueError):
            result = None
        if result is None or not low <= result <= high:
            raise RuntimeFault(
                f"fptosi of {value!r} does not fit in i{bits}")
        return result
    return convert


def _trunc_div(a: int, b: int) -> int:
    """C-style truncated integer division (exact — no float detour,
    which would corrupt 64-bit hash values)."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _unsigned(value) -> int:
    return int(value) & _INT64_MASK


_DIV_FAULT = "integer division by zero"
_REM_FAULT = "integer remainder by zero"

#: Binary opcode -> ``(coerce, fn, zero_fault)``: ``fn`` applied to
#: both operands after ``coerce``; integer results then wrap to the
#: instruction's width.  ``zero_fault`` is the fault raised when the
#: coerced right operand is zero (None: the op is total).  Keys are
#: exactly ``BINARY_OPS``.
BINOP_SEMANTICS: Dict[str, Tuple[Callable, Callable, Optional[str]]] = {
    "add": (int, operator.add, None),
    "sub": (int, operator.sub, None),
    "mul": (int, operator.mul, None),
    "sdiv": (int, _trunc_div, _DIV_FAULT),
    "udiv": (int, lambda a, b: (a & _INT64_MASK) // (b & _INT64_MASK),
             _DIV_FAULT),
    "srem": (int, lambda a, b: a - _trunc_div(a, b) * b, _REM_FAULT),
    "urem": (int, lambda a, b: (a & _INT64_MASK) % (b & _INT64_MASK),
             _REM_FAULT),
    "and": (int, operator.and_, None),
    "or": (int, operator.or_, None),
    "xor": (int, operator.xor, None),
    "shl": (int, lambda a, b: a << (b & 63), None),
    "lshr": (int, lambda a, b: (a & _INT64_MASK) >> (b & 63), None),
    "ashr": (int, lambda a, b: a >> (b & 63), None),
    "fadd": (float, operator.add, None),
    "fsub": (float, operator.sub, None),
    "fmul": (float, operator.mul, None),
    "fdiv": (float, operator.truediv, "float division by zero"),
}

#: Comparison predicate -> ``(coerce, compare)``; the result is 1 or
#: 0.  Keys are exactly ``CMP_PREDICATES``.
CMP_SEMANTICS: Dict[str, Tuple[Callable, Callable]] = {
    "eq": (int, operator.eq), "ne": (int, operator.ne),
    "slt": (int, operator.lt), "sle": (int, operator.le),
    "sgt": (int, operator.gt), "sge": (int, operator.ge),
    "ult": (_unsigned, operator.lt), "ule": (_unsigned, operator.le),
    "ugt": (_unsigned, operator.gt), "uge": (_unsigned, operator.ge),
    "feq": (float, operator.eq), "fne": (float, operator.ne),
    "flt": (float, operator.lt), "fle": (float, operator.le),
    "fgt": (float, operator.gt), "fge": (float, operator.ge),
}

#: Cast kind -> ``make(bits)`` returning the one-argument converter to
#: a ``bits``-wide destination, or None: the value passes through
#: unchanged (pointers keep their provenance for the memory model).
#: Only fptosi can fault.
#: Keys are exactly ``CAST_KINDS``.
CAST_SEMANTICS: Dict[str, Optional[Callable]] = {
    "bitcast": None, "inttoptr": None, "ptrtoint": None,
    "trunc": lambda bits: lambda value: _wrap_signed(int(value), bits),
    "zext": lambda bits: int, "sext": lambda bits: int,
    "fptosi": _fptosi,
    "sitofp": lambda bits: float,
}


def int_width(type: IRType) -> int:
    """Bit width integer results of ``type`` wrap to (64 for
    pointers and other non-integer types)."""
    return type.bits if isinstance(type, IntType) else 64


@functools.lru_cache(maxsize=None)
def binop_function(op: str, bits: int) -> Callable:
    """``evaluate(lhs, rhs)`` for binary ``op`` at width ``bits``,
    built from :data:`BINOP_SEMANTICS` (memoized: the key space is
    the opcodes times the integer widths)."""
    coerce, fn, fault = BINOP_SEMANTICS[op]
    if coerce is float:
        def evaluate(a, b):
            a, b = float(a), float(b)
            if fault is not None and not b:
                raise RuntimeFault(fault)
            return fn(a, b)
        return evaluate
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    mod = 1 << bits

    def evaluate(a, b):
        a, b = int(a), int(b)
        if fault is not None and not b:
            raise RuntimeFault(fault)
        r = fn(a, b) & mask
        return r - mod if r >= sign else r
    return evaluate


@functools.lru_cache(maxsize=None)
def cmp_function(predicate: str) -> Callable:
    """``evaluate(lhs, rhs) -> 1 | 0`` for ``predicate``, built from
    :data:`CMP_SEMANTICS`."""
    coerce, compare = CMP_SEMANTICS[predicate]
    return lambda a, b: 1 if compare(coerce(a), coerce(b)) else 0


@functools.lru_cache(maxsize=None)
def cast_function(kind: str, bits: int) -> Optional[Callable]:
    """The converter of cast ``kind`` to a ``bits``-wide destination
    (None for a pass-through cast), from :data:`CAST_SEMANTICS`."""
    make = CAST_SEMANTICS[kind]
    return None if make is None else make(bits)


# -- the machine ----------------------------------------------------------------

ExternalFn = Callable[["Machine", ExecutionContext, List[object]], object]
AccessHook = Callable[[ExecutionContext, int, str, str], None]

#: Known execution engines: ``decoded`` pre-compiles each function
#: into closures (repro.ir.engine); ``legacy`` walks the isinstance
#: dispatch chain above.  Both are step-observably identical.
ENGINES = ("decoded", "legacy")

#: Bound on the per-machine decoded-code cache.  Compiled closures
#: strongly reference the IR they execute (instructions -> parent
#: blocks -> function), so weak keying can never collect an entry;
#: insertion-order eviction at this cap is what keeps a long-running
#: machine that replaces or respecializes functions from retaining
#: every dead Function body forever.
DECODE_CACHE_CAP = 256

#: Engine used when neither the ``Machine(engine=...)`` argument nor
#: the ``REPRO_ENGINE`` environment variable selects one.
DEFAULT_ENGINE = "decoded"


class Machine:
    """A simulated machine running one or more modules.

    Parameters
    ----------
    modules:
        The module(s) to load.  Functions and globals from all modules
        share one namespace, mirroring a linked executable; each module
        may declare a *placement* color (``module.placement``) in which
        case its globals are allocated in that enclave's region.
    engine:
        ``"decoded"`` (default) pre-compiles each function into
        directly executable closures; ``"legacy"`` re-decodes every
        instruction per step.
        ``REPRO_ENGINE`` overrides the default.
    """

    def __init__(self, modules, externals: Optional[Dict[str,
                                                         ExternalFn]] = None,
                 engine: Optional[str] = None):
        if isinstance(modules, Module):
            modules = [modules]
        self.modules: List[Module] = list(modules)
        if engine is None:
            engine = os.environ.get("REPRO_ENGINE") or DEFAULT_ENGINE
        if engine not in ENGINES:
            raise IRError(f"unknown execution engine {engine!r}; "
                          f"expected one of {ENGINES}")
        self.engine = engine
        #: The engine's ExecutionContext subclass.  Resolved here, so
        #: the decoded engine is imported while the machine is built
        #: rather than in the middle of its first run.
        self._context_class = ExecutionContext
        if engine == "decoded":
            from repro.ir.engine import DecodedExecutionContext
            self._context_class = DecodedExecutionContext
        #: Per-Function pre-decoded code (managed by repro.ir.engine):
        #: an insertion-ordered dict bounded at ``_decoded_cache_cap``
        #: entries, oldest evicted first.
        self._decoded_cache: "OrderedDict[Function, object]" = OrderedDict()
        self._decoded_cache_cap = DECODE_CACHE_CAP
        #: Cached decoded code is refingerprinted whenever this epoch
        #: advances (every spawn, i.e. every run boundary) — per-call
        #: lookups inside one run skip the O(instrs) structural hash.
        self._decode_epoch = 0
        self.memory = Memory()
        self.externals: Dict[str, ExternalFn] = dict(DEFAULT_EXTERNALS)
        if externals:
            self.externals.update(externals)
        self.contexts: List[ExecutionContext] = []
        self.output: List[str] = []
        self.total_steps = 0
        self.blocked_steps = 0
        #: Hooks called as hook(ctx, addr, region, "read"/"write").
        self.access_hooks: List[AccessHook] = []
        #: Policy called before each access; may raise SGXAccessViolation.
        self.access_policy: Optional[AccessHook] = None
        #: Optional :class:`repro.obs.tracer.Tracer` recording
        #: step-burst events; guarded like ``access_hooks`` (one
        #: ``is not None`` check per burst, never per step).
        self.tracer = None

        self._globals: Dict[int, int] = {}          # id(gv) -> address
        self._functions_by_name: Dict[str, Function] = {}
        self._function_addr: Dict[str, int] = {}
        self._addr_function: Dict[int, Function] = {}
        self._string_cache: Dict[str, int] = {}
        self._mutexes: Dict[int, Optional[int]] = {}
        self._load_modules()

    # -- loading ------------------------------------------------------------------

    def _load_modules(self) -> None:
        for module in self.modules:
            placement = getattr(module, "placement", None)
            region = (enclave_region(placement)
                      if placement else UNSAFE_REGION)
            for gv in module.globals.values():
                gv_region = region
                if gv.color is not None:
                    gv_region = enclave_region(gv.color)
                self._alloc_global(gv, gv_region)
            for fn in module.functions.values():
                existing = self._functions_by_name.get(fn.name)
                if existing is None or existing.is_declaration:
                    self._functions_by_name[fn.name] = fn

    def _alloc_global(self, gv: GlobalVariable, region: str) -> None:
        size = gv.value_type.size_slots()
        addr = self.memory.alloc(size, region, f"global:@{gv.name}")
        self._globals[id(gv)] = addr
        init = gv.initializer
        if init is not None:
            self._write_initializer(addr, gv.value_type, init)

    def _write_initializer(self, addr: int, type: IRType,
                           init: Constant) -> None:
        if isinstance(init.value, str):
            for i, ch in enumerate(init.value):
                self.memory.write(addr + i, ord(ch))
            if isinstance(type, ArrayType) and len(init.value) < type.count:
                self.memory.write(addr + len(init.value), 0)
        elif isinstance(init.value, (list, tuple)):
            offset = 0
            element = type.element if isinstance(type, ArrayType) else None
            for item in init.value:
                self.memory.write(addr + offset, item)
                offset += element.size_slots() if element else 1
        else:
            self.memory.write(addr, init.value)

    # -- symbol resolution ----------------------------------------------------------

    def function_named(self, name: str) -> Function:
        try:
            return self._functions_by_name[name]
        except KeyError:
            raise RuntimeFault(f"no function @{name} loaded")

    def global_address(self, gv: GlobalVariable) -> int:
        try:
            return self._globals[id(gv)]
        except KeyError:
            # Same-named global from another module copy (after cloning
            # / partitioning): resolve by name.
            for module in self.modules:
                candidate = module.globals.get(gv.name)
                if candidate is not None and id(candidate) in self._globals:
                    return self._globals[id(candidate)]
            raise RuntimeFault(f"global @{gv.name} not loaded")

    def function_address(self, fn: Function) -> int:
        name = fn.name
        if name not in self._function_addr:
            addr = self.memory.alloc(1, UNSAFE_REGION, f"code:@{name}")
            self._function_addr[name] = addr
            self._addr_function[addr] = self._functions_by_name.get(name, fn)
        return self._function_addr[name]

    def function_at(self, addr: int) -> Function:
        try:
            return self._addr_function[addr]
        except KeyError:
            raise RuntimeFault(f"indirect call to non-function address {addr}")

    def definition_of(self, fn: Function) -> Function:
        """The function a call to ``fn`` runs: a forward declaration
        may be satisfied by a definition in another loaded module
        (chunks reference each other this way); otherwise ``fn``
        itself, an external when it is a declaration."""
        if fn.is_declaration:
            defined = self._functions_by_name.get(fn.name)
            if defined is not None and not defined.is_declaration:
                return defined
        return fn

    def constant_value(self, const: Constant) -> object:
        if isinstance(const.value, str):
            return self.intern_string(const.value)
        return const.value

    def intern_string(self, text: str) -> int:
        """Materialise a string constant in unsafe memory; returns its
        address (characters + NUL, one slot each)."""
        if text not in self._string_cache:
            addr = self.memory.alloc(len(text) + 1, UNSAFE_REGION,
                                     f"str:{text[:16]!r}")
            for i, ch in enumerate(text):
                self.memory.write(addr + i, ord(ch))
            self.memory.write(addr + len(text), 0)
            self._string_cache[text] = addr
        return self._string_cache[text]

    # -- memory access with policy/hooks ----------------------------------------------

    def mem_read(self, ctx: ExecutionContext, addr: int) -> object:
        # Un-observed runs skip the region lookup entirely; the read
        # itself still faults precisely on wild/unmapped addresses.
        if self.access_policy is None and not self.access_hooks:
            return self.memory.read(addr)
        region = self.memory.region_of(addr)
        if self.access_policy is not None:
            self.access_policy(ctx, addr, region, "read")
        for hook in self.access_hooks:
            hook(ctx, addr, region, "read")
        return self.memory.read(addr)

    def mem_write(self, ctx: ExecutionContext, addr: int,
                  value: object) -> None:
        if self.access_policy is None and not self.access_hooks:
            self.memory.write(addr, value)
            return
        region = self.memory.region_of(addr)
        if self.access_policy is not None:
            self.access_policy(ctx, addr, region, "write")
        for hook in self.access_hooks:
            hook(ctx, addr, region, "write")
        self.memory.write(addr, value)

    def stack_region(self, ctx: ExecutionContext) -> str:
        """Region for stack allocations of a context: its enclave when
        in enclave mode, unsafe memory otherwise."""
        return enclave_region(ctx.mode) if ctx.mode else UNSAFE_REGION

    # -- context / scheduling -----------------------------------------------------------

    def new_context(self, function, args: Sequence[object] = (),
                    mode: Optional[str] = None,
                    name: str = "") -> ExecutionContext:
        """Create (but do not register) a context on this machine's
        engine.  ``function`` may be ``None`` for an idle worker."""
        return self._context_class(self, function, args, mode, name)

    def invalidate_decoded(self) -> None:
        """Drop all pre-decoded code.  Call after mutating loaded IR
        (running passes, splicing instructions) mid-machine-lifetime;
        loading and partitioning before the first run needs nothing."""
        self._decoded_cache.clear()

    def spawn(self, function, args: Sequence[object] = (),
              mode: Optional[str] = None, name: str = "") -> ExecutionContext:
        if isinstance(function, str):
            function = self.function_named(function)
        # A spawn is a run boundary: force cached decoded code to be
        # refingerprinted so IR mutated since the last run re-decodes.
        self._decode_epoch += 1
        ctx = self.new_context(function, args, mode, name)
        self.contexts.append(ctx)
        return ctx

    def run(self, max_steps: int = 2_000_000,
            schedule: Optional[Sequence[int]] = None) -> None:
        """Run all contexts to completion.

        ``schedule`` optionally fixes the interleaving: a sequence of
        context indices (into :attr:`contexts`); each entry steps that
        context once.  After the schedule is exhausted (or if none is
        given) contexts are stepped round-robin.
        """
        steps = 0
        if schedule:
            for index in schedule:
                ctx = self.contexts[index]
                if not ctx.finished:
                    ctx.step()
                steps += 1
                if steps > max_steps:
                    raise RuntimeFault("schedule exceeded max_steps")
        while True:
            alive = [c for c in self.contexts if not c.finished]
            if not alive:
                return
            if len(alive) == 1:
                # A lone runnable context: burst it without the
                # per-round list rebuild.  Same step sequence, same
                # deadlock / max_steps faults as the general loop.
                ctx = alive[0]
                attempts, progressed = ctx.run_burst(
                    max_steps - steps + 1, self.contexts)
                steps += attempts
                if steps > max_steps:
                    raise RuntimeFault(
                        f"execution exceeded {max_steps} steps")
                if not progressed and not ctx.finished:
                    raise RuntimeFault(
                        "deadlock: every live context is blocked")
                continue
            progressed = False
            for ctx in alive:
                if ctx.finished:
                    continue
                before = ctx.steps
                ctx.step()
                progressed = progressed or ctx.steps > before
                steps += 1
                if steps > max_steps:
                    raise RuntimeFault(
                        f"execution exceeded {max_steps} steps")
            if not progressed:
                raise RuntimeFault(
                    "deadlock: every live context is blocked")

    def run_function(self, name: str, args: Sequence[object] = (),
                     mode: Optional[str] = None,
                     max_steps: int = 2_000_000) -> object:
        """Convenience: spawn ``name`` and run everything; returns the
        context's result."""
        ctx = self.spawn(name, args, mode)
        self.run(max_steps=max_steps)
        return ctx.result

    # -- C-string helpers -------------------------------------------------------------

    def read_cstring(self, addr: int, limit: int = 4096) -> str:
        # Hot in the partitioned runtime (every protocol message names
        # its chunk / color by C string): read straight out of the
        # slot dict, falling back to Memory.read only to raise its
        # precise fault on unmapped addresses.
        slots = self.memory._slots
        chars = []
        for i in range(addr, addr + limit):
            c = slots.get(i, _UNMAPPED_SLOT)
            if c is _UNMAPPED_SLOT:
                c = self.memory.read(i)
            if c == 0:
                break
            chars.append(chr(int(c)))
        return "".join(chars)

    @property
    def stdout(self) -> str:
        return "".join(self.output)


# -- default external functions (mini-libc stand-ins) --------------------------------


def _ext_malloc(machine: Machine, ctx: ExecutionContext, args):
    size = int(args[0])
    region = machine.stack_region(ctx)
    return machine.memory.alloc(size, region, "heap")


def _ext_malloc_in(machine: Machine, ctx: ExecutionContext, args):
    """__privagic_alloc(color_string_addr, size): allocate in a given
    enclave region (used by the §7.2 multi-color struct rewriting)."""
    color = machine.read_cstring(int(args[0]))
    size = int(args[1])
    region = enclave_region(color) if color else UNSAFE_REGION
    return machine.memory.alloc(size, region, f"heap:{color}")


def _ext_free(machine: Machine, ctx: ExecutionContext, args):
    addr = int(args[0])
    if addr:
        machine.memory.free(addr)
    return None


def _ext_memcpy(machine: Machine, ctx: ExecutionContext, args):
    dst, src, n = int(args[0]), int(args[1]), int(args[2])
    for i in range(n):
        machine.mem_write(ctx, dst + i, machine.mem_read(ctx, src + i))
    return dst


def _ext_memset(machine: Machine, ctx: ExecutionContext, args):
    dst, byte, n = int(args[0]), int(args[1]), int(args[2])
    for i in range(n):
        machine.mem_write(ctx, dst + i, byte)
    return dst


def _ext_strncpy(machine: Machine, ctx: ExecutionContext, args):
    dst, src, n = int(args[0]), int(args[1]), int(args[2])
    i = 0
    while i < n:
        c = machine.mem_read(ctx, src + i)
        machine.mem_write(ctx, dst + i, c)
        i += 1
        if c == 0:
            break
    return dst


def _ext_strlen(machine: Machine, ctx: ExecutionContext, args):
    addr = int(args[0])
    n = 0
    while machine.mem_read(ctx, addr + n) != 0:
        n += 1
    return n


def _ext_strcmp(machine: Machine, ctx: ExecutionContext, args):
    a, b = int(args[0]), int(args[1])
    i = 0
    while True:
        ca = int(machine.mem_read(ctx, a + i))
        cb = int(machine.mem_read(ctx, b + i))
        if ca != cb:
            return -1 if ca < cb else 1
        if ca == 0:
            return 0
        i += 1


def _format_printf(machine: Machine, ctx: ExecutionContext,
                   fmt: str, args: List[object]) -> str:
    out = []
    it = iter(args)
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        i += 1
        # Skip width/precision flags.
        while i < len(fmt) and (fmt[i].isdigit() or fmt[i] in ".-+l"):
            i += 1
        if i >= len(fmt):
            break
        spec = fmt[i]
        i += 1
        if spec == "%":
            out.append("%")
        elif spec in "du":
            out.append(str(int(next(it))))
        elif spec == "x":
            out.append(format(int(next(it)), "x"))
        elif spec == "f":
            out.append(f"{float(next(it)):.6f}")
        elif spec == "c":
            out.append(chr(int(next(it))))
        elif spec == "s":
            out.append(machine.read_cstring(int(next(it))))
        elif spec == "p":
            out.append(hex(int(next(it))))
        else:
            out.append(spec)
    return "".join(out)


def _ext_printf(machine: Machine, ctx: ExecutionContext, args):
    fmt = machine.read_cstring(int(args[0]))
    text = _format_printf(machine, ctx, fmt, args[1:])
    machine.output.append(text)
    return len(text)


def _ext_puts(machine: Machine, ctx: ExecutionContext, args):
    machine.output.append(machine.read_cstring(int(args[0])) + "\n")
    return 0


def _ext_putchar(machine: Machine, ctx: ExecutionContext, args):
    machine.output.append(chr(int(args[0])))
    return int(args[0])


def _ext_abort(machine: Machine, ctx: ExecutionContext, args):
    raise RuntimeFault(f"{ctx.name}: abort() called")


def _ext_thread_create(machine: Machine, ctx: ExecutionContext, args):
    fn = machine.function_at(int(args[0]))
    arg = args[1] if len(args) > 1 else 0
    child = machine.spawn(fn, [arg], mode=ctx.mode,
                          name=f"{ctx.name}.child")
    return child.ctx_id


def _ext_thread_join(machine: Machine, ctx: ExecutionContext, args):
    tid = int(args[0])
    for other in machine.contexts:
        if other.ctx_id == tid:
            return None if other.finished else BLOCK
    raise RuntimeFault(f"join of unknown thread {tid}")


def _ext_mutex_lock(machine: Machine, ctx: ExecutionContext, args):
    key = int(args[0])
    owner = machine._mutexes.get(key)
    if owner is None:
        machine._mutexes[key] = ctx.ctx_id
        return 0
    if owner == ctx.ctx_id:
        raise RuntimeFault(f"{ctx.name}: recursive mutex_lock")
    return BLOCK


def _ext_mutex_unlock(machine: Machine, ctx: ExecutionContext, args):
    key = int(args[0])
    if machine._mutexes.get(key) != ctx.ctx_id:
        raise RuntimeFault(f"{ctx.name}: unlock of mutex not held")
    machine._mutexes[key] = None
    return 0


def _ext_hash(machine: Machine, ctx: ExecutionContext, args):
    """A small deterministic integer hash (FNV-style)."""
    value = int(args[0]) & _INT64_MASK
    h = 0xcbf29ce484222325
    for _ in range(8):
        h ^= value & 0xff
        h = (h * 0x100000001b3) & _INT64_MASK
        value >>= 8
    return _wrap_signed(h, 64)


DEFAULT_EXTERNALS: Dict[str, ExternalFn] = {
    "malloc": _ext_malloc,
    "__privagic_alloc": _ext_malloc_in,
    "free": _ext_free,
    "memcpy": _ext_memcpy,
    "memset": _ext_memset,
    "strncpy": _ext_strncpy,
    "strlen": _ext_strlen,
    "strcmp": _ext_strcmp,
    "printf": _ext_printf,
    "puts": _ext_puts,
    "putchar": _ext_putchar,
    "abort": _ext_abort,
    "thread_create": _ext_thread_create,
    "thread_join": _ext_thread_join,
    "mutex_lock": _ext_mutex_lock,
    "mutex_unlock": _ext_mutex_unlock,
    "hash64": _ext_hash,
}
