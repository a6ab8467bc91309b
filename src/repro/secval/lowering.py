"""The shared lowering API — the contract every frontend lowers to.

A frontend (MiniC, MiniPy, ...) owns its own lexer, parser and AST,
but the *output* is always the same: a :class:`repro.ir.Module` whose

* secure types are colors from :mod:`repro.secval.model`, carried on
  IR types via ``with_color`` (never invented by the frontend — named
  colors must pass :func:`~repro.secval.model.validate_color_name`);
* function annotations come from the :data:`ANNOTATIONS` vocabulary
  (``entry`` / ``within`` / ``ignore`` / ``extern``, paper §6.2–§6.4)
  stamped onto ``Function.attributes``;
* instructions carry ``loc = (line, column)`` source positions so the
  typed-error surface (:class:`repro.errors.SecureTypeError` with its
  ``(source line L:C)`` suffix) points back at the frontend's source;
* calls into the interpreter's mini-libc use the shared
  :data:`BUILTIN_SIGNATURES` (so every frontend agrees on the ABI of
  ``malloc``/``printf``/``hash64``/... and on which of them ship
  inside every enclave).

Everything downstream — the pass pipeline, the secure type analysis,
the partitioner, the placement optimizer, both engines, the
chaos harness and the serve stack — consumes only this contract and
never sees the source language again.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import FrontendError
from repro.ir import Function, FunctionType, Module, PointerType
from repro.ir.types import I8, I32, I64, VOID

#: The frontend-neutral function-annotation vocabulary (paper
#: §6.2–§6.4).  MiniC spells these as declaration keywords
#: (``entry int main()``), MiniPy as decorators (``@entry``); both
#: lower to the same strings on ``Function.attributes``.
ANNOTATIONS = frozenset({"entry", "within", "ignore", "extern"})


def validate_annotation(name: str, line: int = 0,
                        column: int = 0) -> str:
    """Reject annotations outside the shared vocabulary with a
    did-you-mean hint (the typed-error surface of the contract)."""
    if name in ANNOTATIONS:
        return name
    import difflib
    close = difflib.get_close_matches(name, sorted(ANNOTATIONS), n=1,
                                      cutoff=0.4)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    raise FrontendError(
        f"unknown function annotation {name!r}{hint} "
        f"(choose from: {', '.join(sorted(ANNOTATIONS))})",
        line, column)


#: Functions auto-declared on first use — the mini-libc of the
#: interpreter (see repro.ir.interp.DEFAULT_EXTERNALS).  Shared by
#: every frontend so cross-language programs agree on the ABI.
BUILTIN_SIGNATURES: Dict[str, FunctionType] = {
    "malloc": FunctionType(PointerType(I8), [I64]),
    "__privagic_alloc": FunctionType(PointerType(I8),
                                     [PointerType(I8), I64]),
    "free": FunctionType(VOID, [PointerType(I8)]),
    "memcpy": FunctionType(PointerType(I8),
                           [PointerType(I8), PointerType(I8), I64]),
    "memset": FunctionType(PointerType(I8), [PointerType(I8), I32, I64]),
    "strncpy": FunctionType(PointerType(I8),
                            [PointerType(I8), PointerType(I8), I64]),
    "strlen": FunctionType(I64, [PointerType(I8)]),
    "strcmp": FunctionType(I32, [PointerType(I8), PointerType(I8)]),
    "printf": FunctionType(I32, [PointerType(I8)], vararg=True),
    "puts": FunctionType(I32, [PointerType(I8)]),
    "putchar": FunctionType(I32, [I32]),
    "abort": FunctionType(VOID, []),
    "thread_create": FunctionType(I64, [PointerType(I8), I64]),
    "thread_join": FunctionType(VOID, [I64]),
    "mutex_lock": FunctionType(I32, [I64]),
    "mutex_unlock": FunctionType(I32, [I64]),
    "hash64": FunctionType(I64, [I64]),
}

#: The subset of builtins shipped inside every enclave (paper §6.3),
#: i.e. auto-annotated ``within``.
WITHIN_BUILTINS = frozenset({
    "malloc", "__privagic_alloc", "free", "memcpy", "memset",
    "strncpy", "strlen", "strcmp", "hash64",
})


def auto_declare_builtin(module: Module, name: str) -> Optional[Function]:
    """Declare mini-libc function ``name`` in ``module`` on first use,
    or return None when ``name`` is not a builtin."""
    sig = BUILTIN_SIGNATURES.get(name)
    if sig is None:
        return None
    fn = Function(name, sig, attributes=["extern"])
    if name in WITHIN_BUILTINS:
        fn.attributes.add("within")
    module.add_function(fn)
    return fn


def run_frontend_pipeline(module: Module, verify: bool = True,
                          passes=None) -> Module:
    """Run the frontend pass pipeline over a freshly lowered module.

    This is the tail of every frontend's ``compile_source``:
    structural verification by default, ``passes`` overrides the
    pipeline, ``verify=False`` skips it.  Centralized here so all
    frontends produce modules that met the same admission check.
    """
    from repro.pipeline import FRONTEND_PIPELINE, PassManager
    pipeline = passes if passes is not None else (
        FRONTEND_PIPELINE if verify else ())
    if pipeline:
        PassManager(pipeline).run(module)
    return module


# -- contract facts ------------------------------------------------------------


def declassifiers(module: Module) -> list:
    """The module's declassification boundary: every ``ignore``
    function (paper §6.4), by name."""
    return sorted(f.name for f in module.functions.values()
                  if f.is_ignore)


def secure_globals(module: Module) -> Dict[str, str]:
    """Map of colored global names to their declared color — the
    module's explicit secret surface, regardless of frontend."""
    colored = {}
    for name, gv in module.globals.items():
        color = gv.value_type.color
        if color is not None:
            colored[name] = color
    return colored


def effect_facts(module: Module) -> Dict[str, dict]:
    """Per-function secure-effect summary: annotations plus the named
    colors the function's code statically reads and writes (through
    colored globals and colored struct fields).

    These are *frontend-neutral* facts — consumers (tests, reports,
    future inter-module checks) can compare a MiniC and a MiniPy
    lowering of the same program without touching either AST.
    """
    from repro.ir.instructions import Load, Store
    from repro.ir.types import PointerType as Ptr
    from repro.secval.model import is_named

    facts: Dict[str, dict] = {}
    for fn in module.defined_functions():
        reads, writes = set(), set()
        for instr in fn.instructions():
            if isinstance(instr, (Load, Store)):
                ptr_type = instr.ptr.type
                color = ptr_type.pointee.color \
                    if isinstance(ptr_type, Ptr) else None
                if color is not None and is_named(color):
                    (reads if isinstance(instr, Load)
                     else writes).add(color)
        facts[fn.name] = {
            "annotations": sorted(fn.attributes & ANNOTATIONS),
            "declassifier": fn.is_ignore,
            "colors_read": sorted(reads),
            "colors_written": sorted(writes),
        }
    return facts
