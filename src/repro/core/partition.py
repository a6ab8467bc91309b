"""Application partitioning (paper §7).

After the type analysis has colored every instruction, the partitioner
rewrites the program into one module per color:

* **Chunks** (§7.3.1).  For every specialized function ``f`` and every
  color ``C`` of its (transitive) color set, a chunk ``f@C`` is
  generated holding the ``C`` instructions of ``f`` plus a replica of
  its pure-F computation; dead replicas are removed by DCE.

* **Control flow** (Rule 4 payoff).  A conditional branch on a
  ``D``-colored condition only exists in the ``D`` chunk; every other
  chunk jumps straight to the branch's immediate postdominator — the
  influenced blocks contain only ``D`` instructions, so nothing is
  lost.

* **Calls** (§7.3.2).  If the caller chunk's color is in the callee's
  color set, the chunk calls the matching callee chunk directly.  The
  caller's *leader* chunk additionally sends ``spawn`` messages for
  the callee colors the caller does not have, carrying the F arguments
  (the ``cont`` payload); the runtime trampoline receives them and
  invokes the chunk.  In hardened mode, sending a computed F value to
  another enclave is refused (paper §7.3.2).

* **Value transfers** (the ``cont`` / ``wait`` machinery of §7.3.2).
  An F value that can only be produced in one chunk — a value loaded
  from S, the result of an external call, a declassified result — is
  sent with ``cont`` messages to the chunks that consume it.

* **Synchronization barriers** (§7.3.3).  Instructions with a visible
  effect (stores to S, external calls) wait for a token from every
  other chunk of the function, preserving the source's sequential
  order of observable actions.

* **Interface versions** (§7.3.4).  Every entry point and every
  address-taken function gets an interface function in the untrusted
  module that keeps the original name, spawns the missing chunks and
  runs the untrusted chunk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PartitionError
from repro.core.analysis import (
    AnalysisResult,
    FunctionAnalysis,
    REPLICATED,
)
from repro.core.colors import F, HARDENED, S, U, is_named, is_untrusted
from repro.ir.cfg import DominatorTree
from repro.ir.instructions import (
    Alloca,
    Branch,
    Call,
    Instruction,
    Jump,
    Load,
    Phi,
    Ret,
    Store,
)
from repro.ir.module import BasicBlock, Function, Module, clone_function
from repro.ir.printer import print_instruction
from repro.ir.types import (
    ArrayType,
    FunctionType,
    PointerType,
    I8,
    I64,
    VOID,
)
from repro.ir.values import (
    Argument,
    Constant,
    GlobalVariable,
    UndefValue,
    Value,
)
from repro.ir.passes.dce import dead_code_elimination

#: Names of the runtime primitives chunks call (implemented by
#: :mod:`repro.runtime`).
SPAWN = "__privagic_spawn"
SEND = "__privagic_send"
RECV = "__privagic_recv"
TOKEN_SEND = "__privagic_token_send"
TOKEN_RECV = "__privagic_token_recv"

_RUNTIME_SIGNATURES = {
    SPAWN: FunctionType(VOID, [PointerType(I8), PointerType(I8)],
                        vararg=True),
    SEND: FunctionType(VOID, [PointerType(I8), I64]),
    RECV: FunctionType(I64, [PointerType(I8)]),
    TOKEN_SEND: FunctionType(VOID, [PointerType(I8)]),
    TOKEN_RECV: FunctionType(VOID, [PointerType(I8)]),
}


def chunk_name(spec: str, color: str) -> str:
    return f"{spec}@{color}"


def _cstr(text: str) -> Constant:
    return Constant(ArrayType(I8, len(text) + 1), text)


class CallSiteInfo:
    """Static protocol decisions for one call site (§7.3.2)."""

    def __init__(self, call: Call, callee_spec: str,
                 direct: Set[str], spawns: Set[str],
                 leader: str, sender: Optional[str],
                 reply_to: Optional[str]):
        self.call = call
        self.callee_spec = callee_spec
        #: caller chunks that call a callee chunk directly
        self.direct = direct
        #: callee colors the leader must spawn
        self.spawns = spawns
        #: the caller chunk responsible for spawning
        self.leader = leader
        #: the caller chunk that ends up holding an F result
        self.sender = sender
        #: color whose trampoline must send the return value back
        #: (only when no caller chunk calls the callee directly)
        self.reply_to = reply_to


class SpecPlan:
    """Partitioning plan for one specialized function."""

    def __init__(self, fa: FunctionAnalysis):
        self.fa = fa
        #: transitive color set (own colors + callees')
        self.color_set_star: Set[str] = set(fa.color_set)
        #: chunks to generate
        self.chunks: Set[str] = set()
        self.leader: str = ""
        #: call -> CallSiteInfo
        self.call_sites: Dict[Call, CallSiteInfo] = {}
        #: value -> set of chunk colors where it is materialized,
        #: or None meaning "replicated everywhere"
        self.avail: Dict[Value, Optional[Set[str]]] = {}
        #: value -> sorted list of destination colors to send to
        self.sends: Dict[Value, List[str]] = {}
        #: (value, chunk) pairs that receive instead of compute
        self.recvs: Set[Tuple[Value, str]] = set()


class PartitionedProgram:
    """The output of :class:`Partitioner`.

    Attributes
    ----------
    modules:
        One :class:`~repro.ir.Module` per color.  The untrusted module
        (key :attr:`untrusted`) holds the interface functions keeping
        the original entry-point names.
    chunk_colors:
        chunk function name -> color (the runtime's dispatch table).
    chunk_args:
        chunk function name -> argument colors of its specialization
        (the trampoline uses this to slot cont-carried F arguments).
    """

    def __init__(self, analysis: AnalysisResult):
        self.analysis = analysis
        self.mode = analysis.mode
        self.untrusted = analysis.untrusted
        self.modules: Dict[str, Module] = {}
        self.chunk_colors: Dict[str, str] = {}
        self.chunk_args: Dict[str, Tuple[str, ...]] = {}
        self.interfaces: Dict[str, str] = {}
        self.reply_chunks: Dict[str, str] = {}

    @property
    def colors(self) -> List[str]:
        return sorted(self.modules)

    def all_modules(self) -> List[Module]:
        return [self.modules[c] for c in self.colors]

    def tcb_instructions(self, color: str) -> int:
        """Instruction count inside the enclave ``color`` — the user
        code part of the Table 4 TCB metric."""
        return self.modules[color].instruction_count()

    def __repr__(self) -> str:
        sizes = {c: m.instruction_count() for c, m in self.modules.items()}
        return f"<PartitionedProgram {sizes}>"


class PartitionPlanner:
    """The *planning* half of partitioning: decides chunk sets, call
    protocols and value transfers without materializing any IR.

    Split out of :class:`Partitioner` so the placement optimizer
    (:mod:`repro.core.placement`) can build its partition graph from
    the exact protocol decisions the partitioner would make, run a
    policy over it, and hand both the plans and its decisions back to
    the materialization phase.  Planning is idempotent: :meth:`plan`
    computes once and is a no-op afterwards, so a planner can be
    shared between the ``optimize-placement`` pass and the
    ``partition`` pass of one pipeline run.
    """

    def __init__(self, analysis: AnalysisResult, cache=None):
        self.analysis = analysis
        if cache is None:
            from repro.pipeline.analyses import AnalysisCache
            cache = AnalysisCache()
        self.cache = cache
        self.mode = analysis.mode
        self.untrusted = analysis.untrusted
        self.plans: Dict[str, SpecPlan] = {}
        self._planned = False

    def plan(self) -> "PartitionPlanner":
        if self._planned:
            return self
        self._build_plans()
        for plan in self.plans.values():
            self._plan_call_sites(plan)
        for plan in self.plans.values():
            self._plan_transfers(plan)
        self._planned = True
        return self

    # == planning ================================================================

    def _build_plans(self) -> None:
        """Assign chunk sets: chunks(f) = the function's own color set
        (paper §7.3.1 — NOT transitive: main's color set in Figure 6 is
        {blue, U} even though it transitively reaches red).  Entry
        points and address-taken functions additionally get the
        untrusted chunk the interface invokes.  Pure-F functions are
        replicated on demand into every chunk that calls them."""
        for name, fa in self.analysis.functions.items():
            self.plans[name] = SpecPlan(fa)
        for name, plan in self.plans.items():
            plan.chunks = set(plan.color_set_star)
            is_entry = name in self.analysis.entry_specs.values()
            if is_entry or "address-taken" in plan.fa.fn.attributes:
                plan.chunks.add(self.untrusted)
        # Demand-driven replication of pure-F functions: every chunk of
        # a caller calls its own replica of a colorless callee.
        changed = True
        while changed:
            changed = False
            for plan in self.plans.values():
                for instr in plan.fa.fn.instructions():
                    if not isinstance(instr, Call):
                        continue
                    callee_plan = self._callee_plan(plan, instr)
                    if callee_plan is None or callee_plan.color_set_star:
                        continue
                    missing = plan.chunks - callee_plan.chunks
                    if missing:
                        callee_plan.chunks |= missing
                        changed = True
        for plan in self.plans.values():
            if not plan.chunks:
                plan.chunks.add(self.untrusted)
            plan.leader = (self.untrusted if self.untrusted in plan.chunks
                           else min(sorted(plan.chunks)))

    def _callee_plan(self, plan: SpecPlan, call: Call) -> Optional[SpecPlan]:
        callee = call.callee
        if not isinstance(callee, Function):
            return None
        if callee.is_declaration or callee.is_within or callee.is_ignore:
            return None
        arg_colors = tuple(plan.fa.color_of(a) for a in call.args)
        from repro.core.analysis import spec_name
        name = spec_name(callee.specialization_of or callee.name,
                         arg_colors)
        return self.plans.get(name)

    def _plan_call_sites(self, plan: SpecPlan) -> None:
        for instr in plan.fa.fn.instructions():
            if not isinstance(instr, Call):
                continue
            callee_plan = self._callee_plan(plan, instr)
            if callee_plan is None:
                continue
            # Target chunks of the callee: its own color set, or the
            # demand-replicated set for a pure-F callee.
            callee_cs = callee_plan.color_set_star or callee_plan.chunks
            if not callee_plan.color_set_star:
                # Pure-F callee: every chunk calls its own replica.
                info = CallSiteInfo(instr, callee_plan.fa.fn.name,
                                    direct=set(plan.chunks),
                                    spawns=set(), leader=plan.leader,
                                    sender=None, reply_to=None)
                plan.call_sites[instr] = info
                continue
            direct = plan.chunks & callee_cs
            # Chunks of the caller cover their colors by direct calls;
            # the leader spawns the rest (Fig 7: f.blue spawns g.red
            # and g.U).
            spawns = callee_cs - plan.chunks
            reply_to = None
            if not direct:
                # No caller chunk participates: the callee leader's
                # trampoline replies with the return value (Fig 7, c5).
                reply_to = callee_plan.leader if callee_plan.chunks else None
                if reply_to is None or reply_to not in callee_cs:
                    reply_to = min(sorted(callee_cs))
            sender = None
            if direct:
                sender = (self.untrusted if self.untrusted in direct
                          else min(sorted(direct)))
            elif reply_to is not None:
                sender = plan.leader  # leader receives the reply
            # A call inside a C-influenced block only exists in the C
            # chunk; spawning other chunks from there would replay the
            # branch decision in the open.  Only same-colored callees
            # are supported inside colored regions.
            region = plan.fa.block_colors.get(instr.parent, F)
            if region != F and (spawns or direct - {region}):
                raise PartitionError(
                    f"call to {callee_plan.fa.fn.name} inside a "
                    f"{region}-controlled block needs chunks "
                    f"{sorted((direct - {region}) | spawns)}; only "
                    f"{region}-only callees may be called under a "
                    f"colored condition")
            plan.call_sites[instr] = CallSiteInfo(
                instr, callee_plan.fa.fn.name, direct, spawns,
                plan.leader, sender, reply_to)

    # -- value availability and transfers ----------------------------------------------

    def _value_avail(self, plan: SpecPlan,
                     value: Value) -> Optional[Set[str]]:
        """Chunks where ``value`` is materialized (None = everywhere)."""
        if value in plan.avail:
            return plan.avail[value]
        result: Optional[Set[str]]
        if not isinstance(value, Instruction):
            # Constants, globals, arguments: arguments with a color are
            # only present in that chunk; F arguments reach every chunk
            # (direct calls and cont messages both carry them).
            from repro.ir.values import Argument
            if isinstance(value, Argument):
                color = plan.fa.color_of(value)
                result = None if color == F else {color}
            else:
                result = None
            plan.avail[value] = result
            return result
        color = self._home_color(plan, value) if isinstance(
            value, Instruction) else F
        if isinstance(value, Call) and value in plan.call_sites:
            info = plan.call_sites[value]
            ret_color = self.analysis.functions[
                info.callee_spec].return_color
            if ret_color != F:
                result = {ret_color}
            elif info.direct:
                result = set(info.direct)
            elif info.sender is not None:
                result = {info.sender}
            else:
                result = None
        elif color == F:
            result = None  # pure-F: replicated in every chunk
        else:
            result = {color}
        plan.avail[value] = result
        return result

    def _sender_of(self, plan: SpecPlan, value: Value) -> str:
        avail = self._value_avail(plan, value)
        assert avail, f"value {value.short()} has empty availability"
        if self.untrusted in avail:
            return self.untrusted
        return min(sorted(avail))

    def _plan_transfers(self, plan: SpecPlan) -> None:
        """Find every (value, chunk) pair where a chunk consumes an F
        value it cannot compute, and schedule a cont-message transfer
        from the chunk that has it (§7.3.2)."""
        for chunk in sorted(plan.chunks):
            for instr in plan.fa.fn.instructions():
                if not self._kept_in_chunk(plan, instr, chunk):
                    continue
                boundary_call = _is_ignore_call(instr)
                for op in self._transferable_operands(plan, instr, chunk):
                    avail = self._value_avail(plan, op)
                    if avail is None or chunk in avail:
                        continue
                    op_color = plan.fa.color_of(op)
                    if op_color != F and not (
                            boundary_call and is_untrusted(op_color)):
                        # Colored values never move chunks; untrusted
                        # values may reach an enclave only as arguments
                        # of a sanctioned ignore boundary call (§6.4 —
                        # the encrypt example's U output pointer).
                        continue
                    src = self._sender_of(plan, op)
                    if self.mode == HARDENED and \
                            not _is_ignore_result(op) and \
                            not boundary_call:
                        # §7.3.2: hardened mode refuses to feed an
                        # enclave a value computed elsewhere — except
                        # for classification/declassification results,
                        # which the developer sanctioned with the
                        # ignore annotation (§6.4).
                        raise PartitionError(
                            f"hardened mode cannot send the F value "
                            f"{op.short()} from {src} to {chunk} "
                            f"(paper §7.3.2); use relaxed mode or an "
                            f"ignore boundary function")
                    plan.recvs.add((op, chunk))
                    dests = plan.sends.setdefault(op, [])
                    if chunk not in dests:
                        dests.append(chunk)
        for dests in plan.sends.values():
            dests.sort()

    def _transferable_operands(self, plan: SpecPlan, instr: Instruction,
                               chunk: str):
        """Operands of a kept instruction that must hold real values in
        ``chunk`` (call arguments to foreign chunks are placeholders
        and excluded)."""
        if isinstance(instr, Call) and instr in plan.call_sites:
            info = plan.call_sites[instr]
            if chunk in info.direct:
                # Direct call: F and chunk-colored args are real.
                for arg in instr.args:
                    if plan.fa.color_of(arg) == F:
                        yield arg
            if chunk == info.leader and info.spawns:
                for arg in instr.args:
                    if plan.fa.color_of(arg) == F:
                        yield arg
            return
        if isinstance(instr, Ret):
            if instr.value is not None and \
                    plan.fa.color_of(instr.value) == F:
                yield instr.value
            return
        for op in instr.operands:
            if isinstance(op, (Instruction, Argument)):
                yield op

    def _kept_in_chunk(self, plan: SpecPlan, instr: Instruction,
                       chunk: str) -> bool:
        """Whether the chunk contains this instruction (before DCE)."""
        if isinstance(instr, (Jump, Ret)):
            return True
        if isinstance(instr, Branch):
            cond_color = plan.fa.color_of(instr.cond)
            return cond_color in (F, chunk)
        if isinstance(instr, Call) and instr in plan.call_sites:
            info = plan.call_sites[instr]
            return chunk in info.direct or chunk == info.leader or \
                (info.sender == chunk)
        color = self._home_color(plan, instr)
        return color in (F, chunk)

    def _home_color(self, plan: SpecPlan, instr: Instruction) -> str:
        """Placement color of a non-protocol instruction; ignore
        boundary calls with no enclave-colored argument run in the
        untrusted part (§6.4 classification)."""
        color = plan.fa.inst_colors.get(instr, F)
        if color == F and _is_ignore_call(instr):
            return self.untrusted
        return color

    def _is_visible_effect(self, plan: SpecPlan,
                           instr: Instruction) -> bool:
        """Visible effects (§7.3.3): stores to untrusted memory and
        external calls.  These are the instructions the sync-barrier
        token protocol orders."""
        if isinstance(instr, Store):
            return plan.fa.inst_colors.get(instr) == self.untrusted
        if isinstance(instr, Call):
            callee = instr.callee
            return (isinstance(callee, Function) and callee.is_declaration
                    and not callee.is_within and not callee.is_ignore
                    and not callee.name.startswith("__privagic"))
        return False

    def _barrier_home(self, plan: SpecPlan, instr: Instruction) -> str:
        """The chunk that hosts a visible effect and therefore waits
        for the barrier tokens (F-homed effects run untrusted)."""
        home = plan.fa.inst_colors.get(instr, F)
        if home == F:
            home = self.untrusted
        return home

    # Public aliases for the placement layer (repro.core.placement),
    # which reads protocol decisions off a shared planner.
    kept_in_chunk = _kept_in_chunk
    home_color = _home_color
    sender_of = _sender_of
    value_avail = _value_avail
    is_visible_effect = _is_visible_effect
    barrier_home = _barrier_home
    callee_plan = _callee_plan


class Partitioner:
    """Rewrites an analyzed module into per-color partitions.

    Materializes the IR the :class:`PartitionPlanner` decided on.  An
    optional ``placement`` object (a
    :class:`repro.core.placement.PlacementDecisions`) adjusts the
    materialization — today by exempting provably effect-free enclave
    chunks from sync-barrier token traffic.  With ``placement=None``
    (the default) the output is bit-identical to the historical
    monolithic partitioner.
    """

    def __init__(self, analysis: AnalysisResult,
                 sync_barriers: bool = True, dce: bool = True,
                 cache=None, planner: Optional[PartitionPlanner] = None,
                 placement=None):
        self.analysis = analysis
        self.planner = planner if planner is not None else \
            PartitionPlanner(analysis, cache=cache)
        self.cache = self.planner.cache
        self.mode = analysis.mode
        self.untrusted = analysis.untrusted
        self.sync_barriers = sync_barriers
        self.dce = dce
        self.placement = placement
        self.program = PartitionedProgram(analysis)
        self._runtime_decls: Dict[str, Function] = {
            name: Function(name, sig, attributes=["extern", "within"])
            for name, sig in _RUNTIME_SIGNATURES.items()}

    @property
    def plans(self) -> Dict[str, SpecPlan]:
        return self.planner.plans

    # -- planner delegation ------------------------------------------------------

    def _sender_of(self, plan: SpecPlan, value: Value) -> str:
        return self.planner._sender_of(plan, value)

    def _kept_in_chunk(self, plan: SpecPlan, instr: Instruction,
                       chunk: str) -> bool:
        return self.planner._kept_in_chunk(plan, instr, chunk)

    def _is_visible_effect(self, plan: SpecPlan,
                           instr: Instruction) -> bool:
        return self.planner._is_visible_effect(plan, instr)

    # == driver =================================================================

    def run(self) -> PartitionedProgram:
        self.planner.plan()
        for color in self._all_colors():
            self.program.modules[color] = Module(f"partition.{color}")
            self.program.modules[color].placement = (
                None if color == self.untrusted else color)
        self._place_globals()
        for plan in self.plans.values():
            for color in sorted(plan.chunks):
                self._build_chunk(plan, color)
        self._build_interfaces()
        self._declare_runtime()
        if self.dce:
            # Erase the uselessly replicated F instructions (§7.3.1).
            for module in self.program.modules.values():
                dead_code_elimination_chunks(module)
        return self.program

    def _all_colors(self) -> List[str]:
        colors = {self.untrusted}
        for fa in self.analysis.functions.values():
            colors |= {c for c in fa.color_set}
        colors = {c if c != U or self.mode == HARDENED else self.untrusted
                  for c in colors}
        return sorted(colors)

    # == globals (§7.1) ==============================================================

    def _place_globals(self) -> None:
        """Colored globals go to their enclave module; uncolored (S/U)
        globals go to the untrusted module.  Cross-module references
        resolve by identity at load time — the runtime's stand-in for
        the shared-block pointer of §7.1."""
        from repro.core.analysis import location_color
        for gv in self.analysis.module.globals.values():
            color = location_color(gv.value_type, self.mode)
            target = color if is_named(color) else self.untrusted
            module = self.program.modules[target]
            if gv.name not in module.globals:
                module.add_global(gv)

    # == chunk construction (§7.3.1) ==================================================

    def _build_chunk(self, plan: SpecPlan, chunk: str) -> None:
        fa = plan.fa
        spec = fa.fn
        name = chunk_name(spec.name, chunk)
        clone, value_map, block_map = clone_function(
            spec, name, return_maps=True)
        # The spec template is read-only here; when the cache is shared
        # with the analysis phase this tree was already computed for
        # Rule 4, and it is reused for every chunk of the same spec.
        pdt = self.cache.postdominators(spec)

        # 1. Prune control flow: branches on foreign-colored conditions
        # become jumps to their join point (Rule 4 payoff).
        removed_blocks = self._prune_branches(plan, chunk, spec, clone,
                                              value_map, block_map, pdt)

        # 2. Argument-value transfers (ignore-boundary arguments that
        # must reach another chunk) happen at function entry, before
        # any other instruction.
        self._materialize_argument_transfers(plan, chunk, spec, clone,
                                             value_map)

        # 3. Walk instructions in original order, rewriting.
        undef_cache: Dict[object, UndefValue] = {}
        for block in spec.blocks:
            new_block = block_map[block]
            if new_block in removed_blocks:
                continue
            for instr in list(block.instructions):
                mapped = value_map.get(instr)
                if mapped is None or mapped.parent is None:
                    continue
                self._rewrite_instruction(plan, chunk, instr, mapped,
                                          value_map, undef_cache)

        self._register_chunk(plan, chunk, clone)

    def _materialize_argument_transfers(self, plan: SpecPlan, chunk: str,
                                        spec: Function, clone: Function,
                                        value_map) -> None:
        entry = clone.entry_block
        position = 0
        for arg in spec.args:
            if arg in plan.sends and self._sender_of(plan, arg) == chunk:
                for dest in plan.sends[arg]:
                    send = Call(self._runtime_decls[SEND],
                                [_cstr(dest), value_map[arg]])
                    entry.insert(position, send)
                    position += 1
            if (arg, chunk) in plan.recvs:
                recv = Call(self._runtime_decls[RECV],
                            [_cstr(self._sender_of(plan, arg))],
                            name=f"recv.{arg.name}")
                entry.insert(position, recv)
                position += 1
                value_map[arg].replace_all_uses_with(recv)

    def _register_chunk(self, plan: SpecPlan, chunk: str,
                        clone: Function) -> None:
        module = self.program.modules[chunk]
        module.add_function(clone)
        self.program.chunk_colors[clone.name] = chunk
        self.program.chunk_args[clone.name] = plan.fa.arg_colors

    def _prune_branches(self, plan: SpecPlan, chunk: str, spec: Function,
                        clone: Function, value_map, block_map,
                        pdt: DominatorTree) -> Set[BasicBlock]:
        for block in spec.blocks:
            term = block.terminator
            if not isinstance(term, Branch):
                continue
            cond_color = plan.fa.color_of(term.cond)
            if cond_color in (F, chunk):
                continue
            join = pdt.immediate(block)
            new_branch = value_map[term]
            new_block = block_map[block]
            target = block_map[join] if join is not None else \
                block_map[term.then_block]
            new_branch.erase()
            jump = Jump(target)
            new_block.append(jump)
        # Drop now-unreachable blocks and fix phis.
        from repro.ir.cfg import reachable_blocks
        reachable = reachable_blocks(clone)
        removed: Set[BasicBlock] = set()
        for new_block in list(clone.blocks):
            if new_block in reachable:
                continue
            removed.add(new_block)
        for new_block in clone.blocks:
            if new_block in removed:
                continue
            preds = set(new_block.predecessors)
            for phi in list(new_block.phis):
                keep = [(v, b) for v, b in phi.incomings if b in preds]
                if len(keep) == len(phi.incomings):
                    continue
                if len(keep) == 1:
                    phi.replace_all_uses_with(keep[0][0])
                    phi.erase()
                elif len(keep) == 0:
                    phi.replace_all_uses_with(UndefValue(phi.type))
                    phi.erase()
                else:
                    phi.drop_operands()
                    phi.incoming_blocks = []
                    for v, b in keep:
                        phi.add_incoming(v, b)
        for dead in removed:
            for instr in list(dead.instructions):
                instr.replace_all_uses_with(UndefValue(instr.type))
                instr.erase()
            clone.blocks.remove(dead)
            dead.parent = None
        return removed

    # -- per-instruction rewriting ---------------------------------------------------------

    def _rewrite_instruction(self, plan: SpecPlan, chunk: str,
                             instr: Instruction, mapped: Instruction,
                             value_map, undef_cache) -> None:
        fa = plan.fa

        # (value, chunk) transfers: replace the computation by a recv.
        if (instr, chunk) in plan.recvs:
            src = self._sender_of(plan, instr)
            self._replace_with_recv(mapped, src)
            return

        # Synchronization barrier around a visible effect (§7.3.3):
        # the home chunk waits for tokens, every other chunk sends one
        # at the same program point — even though the effect itself
        # only exists in the home chunk.
        if self.sync_barriers and self._is_visible_effect(plan, instr):
            self._emit_barrier(plan, chunk, instr, mapped)

        if isinstance(instr, Call) and instr in plan.call_sites:
            self._rewrite_call(plan, chunk, instr, mapped, value_map)
            self._emit_sends(plan, chunk, instr, value_map)
            return

        if not self._kept_in_chunk(plan, instr, chunk):
            if not mapped.is_void:
                mapped.replace_all_uses_with(UndefValue(mapped.type))
            mapped.erase()
            return

        # Foreign colored operands surviving in kept instructions can
        # only be return values (other uses are colored and pruned);
        # replace them with placeholders.
        if isinstance(instr, Ret) and instr.value is not None:
            val_color = fa.color_of(instr.value)
            if val_color not in (F, chunk):
                mapped.set_operand(0, Constant(I64, 0))

        self._emit_sends(plan, chunk, instr, value_map)

    def _emit_sends(self, plan: SpecPlan, chunk: str, instr: Instruction,
                    value_map) -> None:
        if instr not in plan.sends:
            return
        if self._sender_of(plan, instr) != chunk:
            return
        mapped = value_map[instr]
        if mapped.parent is None:
            return
        block = mapped.parent
        index = block.instructions.index(mapped) + 1
        for dest in plan.sends[instr]:
            send = Call(self._runtime_decls[SEND],
                        [_cstr(dest), mapped])
            block.insert(index, send)
            index += 1

    def _replace_with_recv(self, mapped: Instruction, src: str) -> None:
        block = mapped.parent
        if isinstance(mapped, Phi):
            index = block.first_non_phi_index()
        else:
            index = block.instructions.index(mapped)
        recv = Call(self._runtime_decls[RECV], [_cstr(src)],
                    name=f"recv.{mapped.name or 'v'}")
        block.insert(index, recv)
        mapped.replace_all_uses_with(recv)
        mapped.erase()

    def _emit_barrier(self, plan: SpecPlan, chunk: str,
                      instr: Instruction, mapped: Instruction) -> None:
        """Before an instruction with a visible effect, wait for a
        token from every other chunk; the other chunks send theirs at
        the same program point (Fig 7: c3/c4 before printf).

        Chunks the placement policy exempted (provably effect-free, so
        their token cannot reorder any observable action) participate
        on neither side: the home chunk does not wait for them and
        they do not send.  Both sides filter by the same per-spec set,
        so send/recv pairs stay matched by construction."""
        home = self.planner._barrier_home(plan, instr)
        exempt = frozenset()
        if self.placement is not None:
            exempt = self.placement.barrier_exempt_chunks(
                plan.fa.fn.name)
        others = sorted(plan.chunks - {home} - exempt)
        if not others:
            return
        block = mapped.parent
        index = block.instructions.index(mapped)
        if chunk == home:
            for other in others:
                block.insert(index, Call(self._runtime_decls[TOKEN_RECV],
                                         [_cstr(other)]))
                index += 1
        elif chunk not in exempt:
            block.insert(index, Call(self._runtime_decls[TOKEN_SEND],
                                     [_cstr(home)]))

    # -- call rewriting (§7.3.2) ---------------------------------------------------------------

    def _rewrite_call(self, plan: SpecPlan, chunk: str, instr: Call,
                      mapped: Call, value_map) -> None:
        info = plan.call_sites[instr]
        fa = plan.fa
        block = mapped.parent
        index = block.instructions.index(mapped)

        # Leader spawns the callee chunks the caller cannot call.
        if chunk == info.leader and info.spawns:
            f_args = [a if self._spawned_needs(info, a)
                      else self._placeholder(a)
                      for a in instr.args if fa.color_of(a) == F]
            self._check_hardened_spawn(f_args, info)
            for dest in sorted(info.spawns):
                reply = info.reply_to if (
                    info.reply_to == dest and info.sender == chunk) else ""
                spawn_args: List[Value] = [
                    _cstr(chunk_name(info.callee_spec, dest)),
                    _cstr(reply)]
                spawn_args.extend(value_map.get(a, a) for a in f_args)
                block.insert(index, Call(self._runtime_decls[SPAWN],
                                         spawn_args))
                index += 1

        if chunk in info.direct:
            # Direct call to the matching callee chunk with real F/C
            # arguments and placeholders for foreign-colored ones.
            target = self.program.modules[chunk].functions.get(
                chunk_name(info.callee_spec, chunk))
            if target is None:
                # The chunk is built lazily; use a forward declaration
                # fixed up in _link_direct_calls.
                target = self._forward_chunk(info.callee_spec, chunk)
            mapped.set_operand(0, target)
            for i, arg in enumerate(instr.args):
                color = fa.color_of(arg)
                if color not in (F, chunk):
                    mapped.set_operand(i + 1, self._placeholder(arg))
            return

        if chunk == info.sender and info.reply_to is not None:
            # Leader without a direct call: wait for the trampoline's
            # reply carrying the return value (Fig 7: c5).
            recv = Call(self._runtime_decls[RECV],
                        [_cstr(info.reply_to)], name="reply")
            block.insert(index, recv)
            mapped.replace_all_uses_with(recv)
            mapped.erase()
            return

        # This chunk neither calls nor waits: the call disappears; any
        # use of the result was scheduled as a transfer recv.
        if not mapped.is_void:
            mapped.replace_all_uses_with(UndefValue(mapped.type))
        mapped.erase()

    def _spawned_needs(self, info: CallSiteInfo, arg: Value) -> bool:
        """Whether any spawned chunk of the callee consumes this F
        argument (unused ones become placeholders, which keeps the
        hardened no-computed-F-via-spawn rule from rejecting service
        patterns that never feed caller data to the enclave)."""
        callee_plan = self.plans.get(info.callee_spec)
        if callee_plan is None:
            return True
        index = None
        for i, call_arg in enumerate(info.call.args):
            if call_arg is arg:
                index = i
                break
        if index is None:
            return True
        formal = callee_plan.fa.fn.args[index]
        for user in formal.users:
            if not isinstance(user, Instruction) or user.parent is None:
                continue
            for dest in info.spawns:
                if self._kept_in_chunk(callee_plan, user, dest):
                    return True
        return False

    def _check_hardened_spawn(self, f_args: Sequence[Value],
                              info: CallSiteInfo) -> None:
        if self.mode != HARDENED:
            return
        for arg in f_args:
            if not isinstance(arg, Constant):
                raise PartitionError(
                    f"hardened mode cannot spawn chunk of "
                    f"{info.callee_spec} with the computed F argument "
                    f"{arg.short()} (paper §7.3.2)")

    _forward_decls: Dict[Tuple[str, str], Function]

    def _forward_chunk(self, callee_spec: str, chunk: str) -> Function:
        if not hasattr(self, "_fwd"):
            self._fwd = {}
        key = (callee_spec, chunk)
        if key not in self._fwd:
            spec_fn = self.analysis.module.get_function(callee_spec)
            self._fwd[key] = Function(chunk_name(callee_spec, chunk),
                                      spec_fn.ftype,
                                      [a.name for a in spec_fn.args],
                                      ["extern"])
        return self._fwd[key]

    @staticmethod
    def _placeholder(arg: Value) -> Value:
        if isinstance(arg.type, PointerType):
            return Constant(arg.type, 0)
        return Constant(arg.type.strip_color(), 0)

    # == interfaces (§7.3.4) ============================================================

    def _build_interfaces(self) -> None:
        module = self.program.modules[self.untrusted]
        for orig_name, spec in self.analysis.entry_specs.items():
            self._build_interface(module, orig_name, spec)
        for name in sorted(self.analysis.address_taken):
            if name in module.functions:
                continue
            spec = self._addr_taken_spec(name)
            if spec is not None:
                self._build_interface(module, name, spec)

    def _addr_taken_spec(self, name: str) -> Optional[str]:
        untrusted = U if self.mode == HARDENED else F
        fn = self.analysis.module.functions.get(name)
        if fn is None or fn.is_declaration:
            return None
        from repro.core.analysis import spec_name
        candidate = spec_name(name, tuple(untrusted for _ in fn.args))
        return candidate if candidate in self.plans else None

    def _build_interface(self, module: Module, public_name: str,
                         spec: str) -> None:
        plan = self.plans[spec]
        fa = plan.fa
        template = fa.fn
        iface = Function(public_name, template.ftype,
                         [a.name for a in template.args])
        module.add_function(iface)
        self.program.interfaces[public_name] = spec
        block = iface.add_block("entry")
        from repro.ir.builder import IRBuilder
        b = IRBuilder(block)

        enclave_chunks = sorted(plan.chunks - {self.untrusted})
        has_untrusted = self.untrusted in plan.chunks
        reply_to = None if has_untrusted else (
            min(enclave_chunks) if enclave_chunks else None)
        f_args = [arg for arg, color in zip(iface.args, fa.arg_colors)
                  if color == F]
        for dest in enclave_chunks:
            reply = dest if (reply_to == dest) else ""
            b.call(self._runtime_decls[SPAWN],
                   [_cstr(chunk_name(spec, dest)), _cstr(reply),
                    *f_args])
        if has_untrusted:
            target = self.program.modules[self.untrusted].functions.get(
                chunk_name(spec, self.untrusted)) or \
                self._forward_chunk(spec, self.untrusted)
            result = b.call(target, list(iface.args))
        elif reply_to is not None:
            result = b.call(self._runtime_decls[RECV], [_cstr(reply_to)],
                            "reply")
        else:
            result = None
        if iface.ftype.ret == VOID or result is None or result.is_void:
            b.ret()
        else:
            b.ret(result)

    # == runtime declarations ==============================================================

    def _declare_runtime(self) -> None:
        for module in self.program.modules.values():
            for name, fn in self._runtime_decls.items():
                if name not in module.functions:
                    module.add_function(
                        Function(name, fn.ftype,
                                 attributes=["extern", "within"]))


def _is_ignore_result(value: Value) -> bool:
    return (isinstance(value, Call)
            and isinstance(value.callee, Function)
            and value.callee.is_ignore)


def _is_ignore_call(instr: Instruction) -> bool:
    return _is_ignore_result(instr)


def dead_code_elimination_chunks(module: Module) -> int:
    """DCE variant for partitioned modules: calls to ``within``
    mini-libc functions whose results are unused are removable — this
    is what erases uselessly replicated F allocations (paper §7.3.1)."""
    removable = {"malloc", "hash64", "strlen", "strcmp",
                 "__privagic_alloc"}
    erased = 0
    changed = True
    while changed:
        changed = False
        for fn in module.defined_functions():
            for block in fn.blocks:
                for instr in list(block.instructions):
                    if not isinstance(instr, Call):
                        continue
                    callee = instr.callee
                    if not isinstance(callee, Function) or \
                            callee.name not in removable:
                        continue
                    if not any(u is not instr for u in instr.users):
                        instr.erase()
                        erased += 1
                        changed = True
    erased_dce = dead_code_elimination(module)
    return erased + erased_dce


def partition(analysis: AnalysisResult, sync_barriers: bool = True,
              dce: bool = True, cache=None, planner=None,
              placement=None) -> PartitionedProgram:
    """Partition an analyzed module (paper §7).

    ``planner`` reuses an already-planned :class:`PartitionPlanner`
    (from the ``optimize-placement`` pass); ``placement`` applies a
    :class:`repro.core.placement.PlacementDecisions` during
    materialization.  Both default to the historical behavior.
    """
    analysis.check()
    return Partitioner(analysis, sync_barriers, dce, cache=cache,
                       planner=planner, placement=placement).run()
