"""Taint analyses over the IR, in the three styles of Table 1.

All three take *sensitivity roots* (function parameters and globals
the developer marked sensitive, like Glamdring's annotations) and
compute the set of memory locations a sensitive value may flow into.
A partitioning tool then protects exactly those locations.

==================  ====================  =============================
class               models                known blind spot
==================  ====================  =============================
UseDefTaint         Privtrans [9]         no pointer support at all
AbstractInterpTaint Glamdring's Eva       *sequential*: flow-sensitive
                    [17, 23] — flow-      strong updates miss pointer
                    sensitive abstract    mutations performed by other
                    interpretation        threads (Figure 3)
AndersenTaint       points-to based       flow-insensitive: sound on
                    (Montsalvat/Civet     Figure 3 but coarse (protects
                    style [4, 42, 47])    everything a pointer may
                                          reach)
==================  ====================  =============================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.dataflow.pointsto import AndersenPointsTo, Location
from repro.ir.cfg import reverse_postorder
from repro.ir.instructions import (
    Alloca,
    Call,
    Cast,
    GEP,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.module import Function, Module
from repro.ir.values import Argument, Constant, GlobalVariable, Value


class DataflowPartition:
    """What a data-flow partitioning tool decides to protect."""

    def __init__(self, tool: str):
        self.tool = tool
        self.protected_globals: Set[str] = set()
        self.protected_allocas: Set[object] = set()
        self.tainted_values: Set[Value] = set()
        self.protected_functions: Set[str] = set()

    def __repr__(self) -> str:
        return (f"<DataflowPartition {self.tool} "
                f"globals={sorted(self.protected_globals)}>")


def _roots(module: Module,
           sensitive_params: Sequence[Tuple[str, str]],
           sensitive_globals: Sequence[str]):
    param_values: List[Argument] = []
    for fn_name, arg_name in sensitive_params:
        fn = module.get_function(fn_name)
        for arg in fn.args:
            if arg.name == arg_name:
                param_values.append(arg)
                break
        else:
            raise KeyError(f"{fn_name} has no parameter {arg_name!r}")
    globals_ = [module.get_global(name) for name in sensitive_globals]
    return param_values, globals_


class UseDefTaint:
    """Privtrans-style: pure use-def chains, no pointers [9].

    Taint flows through register operations and through *direct*
    stores/loads of globals and allocas; anything reached through a
    loaded pointer is invisible (Table 1: "does not support pointers").
    """

    def __init__(self, module: Module,
                 sensitive_params: Sequence[Tuple[str, str]] = (),
                 sensitive_globals: Sequence[str] = ()):
        self.module = module
        self.partition = DataflowPartition("usedef")
        self._run(*_roots(module, sensitive_params, sensitive_globals))

    def _run(self, param_roots, global_roots) -> None:
        tainted: Set[Value] = set(param_roots)
        tainted_locs: Set[object] = {gv for gv in global_roots}
        changed = True
        while changed:
            changed = False
            for fn in self.module.defined_functions():
                for instr in fn.instructions():
                    if isinstance(instr, Store):
                        anchor = instr.ptr
                        if isinstance(anchor, (GlobalVariable, Alloca)) \
                                and instr.value in tainted \
                                and anchor not in tainted_locs:
                            tainted_locs.add(anchor)
                            changed = True
                    elif isinstance(instr, Load):
                        if instr.ptr in tainted_locs and \
                                instr not in tainted:
                            tainted.add(instr)
                            changed = True
                    elif isinstance(instr, Call):
                        callee = instr.callee
                        if isinstance(callee, Function) and \
                                not callee.is_declaration:
                            for formal, actual in zip(callee.args,
                                                      instr.args):
                                if actual in tainted and \
                                        formal not in tainted:
                                    tainted.add(formal)
                                    changed = True
                    elif not instr.is_void:
                        if any(op in tainted for op in instr.operands) \
                                and instr not in tainted:
                            tainted.add(instr)
                            changed = True
        self._finish(tainted, tainted_locs)

    def _finish(self, tainted, tainted_locs) -> None:
        part = self.partition
        part.tainted_values = tainted
        for anchor in tainted_locs:
            if isinstance(anchor, GlobalVariable):
                part.protected_globals.add(anchor.name)
            else:
                part.protected_allocas.add(anchor)
        for fn in self.module.defined_functions():
            for instr in fn.instructions():
                if instr in tainted:
                    part.protected_functions.add(fn.name)
                    break


class AndersenTaint:
    """Flow-insensitive taint over Andersen points-to sets."""

    def __init__(self, module: Module,
                 sensitive_params: Sequence[Tuple[str, str]] = (),
                 sensitive_globals: Sequence[str] = ()):
        self.module = module
        self.pointsto = AndersenPointsTo(module)
        self.partition = DataflowPartition("andersen")
        self._run(*_roots(module, sensitive_params, sensitive_globals))

    def _run(self, param_roots, global_roots) -> None:
        tainted: Set[Value] = set(param_roots)
        tainted_locs: Set[Location] = {
            self.pointsto.location_of(gv) for gv in global_roots}
        changed = True
        while changed:
            changed = False
            for fn in self.module.defined_functions():
                for instr in fn.instructions():
                    if isinstance(instr, Store):
                        if instr.value in tainted:
                            for loc in self.pointsto.points_to(instr.ptr):
                                if loc not in tainted_locs:
                                    tainted_locs.add(loc)
                                    changed = True
                    elif isinstance(instr, Load):
                        if instr not in tainted and any(
                                loc in tainted_locs for loc in
                                self.pointsto.points_to(instr.ptr)):
                            tainted.add(instr)
                            changed = True
                    elif isinstance(instr, Call):
                        callee = instr.callee
                        if isinstance(callee, Function) and \
                                not callee.is_declaration:
                            for formal, actual in zip(callee.args,
                                                      instr.args):
                                if actual in tainted and \
                                        formal not in tainted:
                                    tainted.add(formal)
                                    changed = True
                    elif not instr.is_void:
                        if instr not in tainted and any(
                                op in tainted for op in instr.operands):
                            tainted.add(instr)
                            changed = True
        self._finish(tainted, tainted_locs)

    def _finish(self, tainted, tainted_locs) -> None:
        part = self.partition
        part.tainted_values = tainted
        for loc in tainted_locs:
            if loc.kind == "global":
                part.protected_globals.add(loc.anchor.name)
            elif loc.kind == "alloca":
                part.protected_allocas.add(loc.anchor)
        for fn in self.module.defined_functions():
            for instr in fn.instructions():
                if instr in tainted:
                    part.protected_functions.add(fn.name)
                    break


class _AbsVal:
    """Abstract value: may-point-to set + taint bit."""

    __slots__ = ("pts", "taint")

    def __init__(self, pts: Optional[Set[Location]] = None,
                 taint: bool = False):
        self.pts = set(pts) if pts else set()
        self.taint = taint

    def copy(self) -> "_AbsVal":
        return _AbsVal(self.pts, self.taint)

    def merge(self, other: "_AbsVal") -> bool:
        changed = False
        if other.pts - self.pts:
            self.pts |= other.pts
            changed = True
        if other.taint and not self.taint:
            self.taint = True
            changed = True
        return changed


class AbstractInterpTaint:
    """Flow-sensitive abstract interpretation in the style of
    Glamdring's Eva engine [10, 17, 23].

    The analysis walks each function's CFG in order, maintaining a
    per-point abstract state with *strong updates*: after ``x = &a``,
    the state says x points exactly to {a}.  That is what makes it
    precise sequentially — and wrong under concurrency: it cannot see
    the ``x = &b`` executed in parallel by another thread, exactly the
    Figure 3 failure.  Thread-start functions are analyzed one after
    the other, never interleaved (sequential tools explore no
    interleavings; §3).
    """

    def __init__(self, module: Module,
                 sensitive_params: Sequence[Tuple[str, str]] = (),
                 sensitive_globals: Sequence[str] = ()):
        self.module = module
        self.partition = DataflowPartition("abstract-interp")
        #: global, flow-insensitive summary of location states used as
        #: the entry state of each analyzed function
        self.loc_state: Dict[Location, _AbsVal] = {}
        self._locs: Dict[object, Location] = {}
        self._analyzed_returns: Dict[str, _AbsVal] = {}
        #: interprocedural argument summaries: join of the abstract
        #: values flowing into each formal parameter over all call
        #: sites (context-insensitive, like Eva's defaults)
        self._arg_summaries: Dict[Value, _AbsVal] = {}
        self._run(*_roots(module, sensitive_params, sensitive_globals))

    def _location(self, anchor) -> Location:
        if anchor not in self._locs:
            if isinstance(anchor, GlobalVariable):
                self._locs[anchor] = Location("global", anchor,
                                              f"@{anchor.name}")
            elif isinstance(anchor, Alloca):
                self._locs[anchor] = Location(
                    "alloca", anchor, f"%{anchor.name or 'alloca'}")
            else:
                self._locs[anchor] = Location("heap", anchor, "heap")
        return self._locs[anchor]

    def _run(self, param_roots, global_roots) -> None:
        for gv in global_roots:
            self.loc_state[self._location(gv)] = _AbsVal(taint=True)
        self._tainted_params = set(param_roots)
        # Sequential whole-module fixpoint: analyze every defined
        # function (entry points and thread bodies alike) until the
        # global location summary stabilizes.
        for _ in range(20):
            before = self._snapshot()
            for fn in self.module.defined_functions():
                self._analyze_function(fn)
            if before == self._snapshot():
                break
        self._finish()

    def _snapshot(self):
        return (
            {loc: (frozenset(v.pts), v.taint)
             for loc, v in self.loc_state.items()},
            {id(a): (frozenset(v.pts), v.taint)
             for a, v in self._arg_summaries.items()},
            {n: (frozenset(v.pts), v.taint)
             for n, v in self._analyzed_returns.items()},
        )

    # -- per-function flow-sensitive walk ------------------------------------------

    def _analyze_function(self, fn: Function) -> None:
        env: Dict[Value, _AbsVal] = {}
        for arg in fn.args:
            initial = _AbsVal(taint=arg in self._tainted_params)
            summary = self._arg_summaries.get(arg)
            if summary is not None:
                initial.merge(summary)
            env[arg] = initial
        # Block in-states: location map (flow-sensitive view).
        in_states: Dict[object, Dict[Location, _AbsVal]] = {}
        entry_state = {loc: v.copy() for loc, v in self.loc_state.items()}
        order = reverse_postorder(fn)
        if not order:
            return
        in_states[order[0]] = entry_state
        out_states: Dict[object, Dict[Location, _AbsVal]] = {}
        for _ in range(10):
            changed = False
            for block in order:
                state = {loc: v.copy()
                         for loc, v in in_states.get(block, {}).items()}
                for instr in block.instructions:
                    self._transfer(instr, env, state)
                out_states[block] = state
                for succ in block.successors:
                    target = in_states.setdefault(succ, {})
                    for loc, val in state.items():
                        if loc not in target:
                            target[loc] = val.copy()
                            changed = True
                        elif target[loc].merge(val):
                            changed = True
            if not changed:
                break
        # Publish the out-state of every block into the global location
        # summary (join over the function's program points).
        for block_state in out_states.values():
            for loc, val in block_state.items():
                current = self.loc_state.setdefault(loc, _AbsVal())
                current.merge(val)

    def _value(self, env, value: Value) -> _AbsVal:
        if isinstance(value, GlobalVariable):
            return _AbsVal(pts={self._location(value)})
        if isinstance(value, Constant):
            return _AbsVal()
        return env.setdefault(value, _AbsVal())

    def _transfer(self, instr: Instruction, env, state) -> None:
        if isinstance(instr, Alloca):
            env[instr] = _AbsVal(pts={self._location(instr)})
        elif isinstance(instr, Store):
            value = self._value(env, instr.value)
            targets = self._value(env, instr.ptr).pts
            if len(targets) == 1:
                # Strong update — the hallmark of flow sensitivity and
                # the root of the Figure 3 unsoundness.
                (loc,) = targets
                state[loc] = value.copy()
            else:
                for loc in targets:
                    state.setdefault(loc, _AbsVal()).merge(value)
        elif isinstance(instr, Load):
            result = _AbsVal()
            for loc in self._value(env, instr.ptr).pts:
                cell = state.get(loc) or self.loc_state.get(loc)
                if cell is not None:
                    result.merge(cell)
            env[instr] = result
        elif isinstance(instr, (Cast, GEP)):
            src = instr.operands[0] if isinstance(instr, Cast) else \
                instr.ptr
            env[instr] = self._value(env, src).copy()
        elif isinstance(instr, (Phi, Select)):
            result = _AbsVal()
            operands = (instr.operands if isinstance(instr, Phi)
                        else [instr.true_value, instr.false_value])
            for op in operands:
                result.merge(self._value(env, op))
            env[instr] = result
        elif isinstance(instr, Call):
            callee = instr.callee
            if isinstance(callee, Function) and callee.name == "malloc":
                env[instr] = _AbsVal(pts={self._location(instr)})
                return
            if isinstance(callee, Function) and not callee.is_declaration:
                for formal, actual in zip(callee.args, instr.args):
                    summary = self._arg_summaries.setdefault(
                        formal, _AbsVal())
                    summary.merge(self._value(env, actual))
                ret = self._analyzed_returns.get(callee.name)
                env[instr] = ret.copy() if ret else _AbsVal()
            else:
                env[instr] = _AbsVal()
        elif isinstance(instr, Ret):
            if instr.value is not None:
                fn_name = instr.parent.parent.name
                summary = self._analyzed_returns.setdefault(
                    fn_name, _AbsVal())
                summary.merge(self._value(env, instr.value))
        elif not instr.is_void:
            result = _AbsVal()
            for op in instr.operands:
                result.merge(self._value(env, op))
            result.pts = set(result.pts)
            env[instr] = result
        self._note_taint(instr, env)

    def _note_taint(self, instr: Instruction, env) -> None:
        val = env.get(instr)
        if val is not None and val.taint:
            self.partition.tainted_values.add(instr)

    def _finish(self) -> None:
        part = self.partition
        for loc, val in self.loc_state.items():
            if not val.taint:
                continue
            if loc.kind == "global":
                part.protected_globals.add(loc.anchor.name)
            elif loc.kind == "alloca":
                part.protected_allocas.add(loc.anchor)
        for fn in self.module.defined_functions():
            for instr in fn.instructions():
                if instr in part.tainted_values:
                    part.protected_functions.add(fn.name)
                    break


def apply_dataflow_placement(module: Module,
                             partition: DataflowPartition,
                             enclave: str = "dfenclave") -> List[str]:
    """Place the protected globals inside an enclave region, the way a
    Glamdring-style tool rewrites the program.  Returns the protected
    global names.  (The protection is exactly as good as the analysis
    that produced ``partition`` — the Figure 3 bench exploits this.)
    """
    protected = []
    for name in sorted(partition.protected_globals):
        gv = module.get_global(name)
        gv.value_type = gv.value_type.with_color(enclave)
        protected.append(name)
    return protected
