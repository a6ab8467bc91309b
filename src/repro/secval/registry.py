"""Frontend registry: name → frontend, extension auto-detection, and
cross-language composition.

A registered frontend names the module that exports its
``compile_source``/``lower_source`` pair, the two classmethods of the
shared lowering core (:class:`repro.frontend.lowering.Lowering`):
``compile_source`` lowers one source text into a fresh module and runs
the frontend pipeline; ``lower_source`` lowers it into an existing
module, the primitive :func:`compile_cross` builds one module from
units in different languages with.  That module is imported on first
use.
"""

from __future__ import annotations

import difflib
import importlib
import os
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import FrontendError
from repro.ir import Module


class Frontend:
    """A registered source language."""

    def __init__(self, name: str, description: str,
                 extensions: Sequence[str], driver_module: str):
        self.name = name
        self.description = description
        self.extensions = tuple(extensions)
        self.driver_module = driver_module

    def _driver(self):
        return importlib.import_module(self.driver_module)

    def compile_source(self, source: str, module_name: str = "",
                       verify: bool = True, passes=None) -> Module:
        return self._driver().compile_source(
            source, module_name, verify=verify, passes=passes)

    def lower_source(self, source: str, module: Module,
                     filename: str = "<source>") -> None:
        self._driver().lower_source(source, module, filename)

    def __repr__(self) -> str:
        return f"<Frontend {self.name} ({', '.join(self.extensions)})>"


FRONTENDS: Dict[str, Frontend] = {}

#: The fallback when a file extension matches no registered frontend
#: (historic behavior: everything used to be MiniC).
DEFAULT_FRONTEND = "minic"


def register_frontend(frontend: Frontend) -> Frontend:
    if frontend.name in FRONTENDS:
        raise FrontendError(
            f"frontend {frontend.name!r} is already registered")
    for extension in frontend.extensions:
        owner = _extension_owner(extension)
        if owner is not None:
            raise FrontendError(
                f"extension {extension!r} is already claimed by "
                f"frontend {owner.name!r}")
    FRONTENDS[frontend.name] = frontend
    return frontend


def _extension_owner(extension: str) -> Optional[Frontend]:
    for frontend in FRONTENDS.values():
        if extension in frontend.extensions:
            return frontend
    return None


def frontend_names() -> Tuple[str, ...]:
    return tuple(sorted(FRONTENDS))


def frontend_by_name(name: str) -> Frontend:
    """Look up a frontend by name.

    Unknown names raise a :class:`~repro.errors.FrontendError` with a
    did-you-mean hint and the valid choices (mirrors
    :func:`repro.core.placement.optimize_placement`).
    """
    normalized = name.strip().lower()
    frontend = FRONTENDS.get(normalized)
    if frontend is not None:
        return frontend
    close = difflib.get_close_matches(normalized, frontend_names(),
                                      n=1, cutoff=0.4)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    raise FrontendError(
        f"unknown frontend {name!r}{hint} "
        f"(choose from: {', '.join(frontend_names())})")


def detect_frontend(path: str) -> Frontend:
    """The frontend for ``path``, by file extension; unknown
    extensions fall back to :data:`DEFAULT_FRONTEND`."""
    extension = os.path.splitext(path)[1].lower()
    owner = _extension_owner(extension)
    if owner is not None:
        return owner
    return FRONTENDS[DEFAULT_FRONTEND]


def resolve_frontend(name: Optional[str], path: str) -> Frontend:
    """The CLI resolution rule: an explicit ``--frontend`` name wins,
    otherwise the file extension decides."""
    if name is not None:
        return frontend_by_name(name)
    return detect_frontend(path)


def compile_cross(units: Sequence[Tuple[str, str, str]],
                  module_name: str = "cross", verify: bool = True,
                  passes=None) -> Module:
    """Lower several source units — each ``(frontend_name, source,
    filename)`` — into ONE IR module and run the frontend pipeline.

    Units are lowered in order into the same module, so later units
    see (and may call, with normal argument coercion) every function
    and global the earlier units defined: the cross-language story of
    ROADMAP item 4, e.g. MiniC enclave logic driven by a MiniPy
    workload script.  Name clashes raise the usual duplicate-symbol
    :class:`~repro.errors.IRError`.
    """
    from repro.secval.lowering import run_frontend_pipeline

    if not units:
        raise FrontendError("compile_cross needs at least one unit")
    module = Module(module_name)
    for frontend_name, source, filename in units:
        frontend = frontend_by_name(frontend_name)
        frontend.lower_source(source, module, filename)
    return run_frontend_pipeline(module, verify=verify, passes=passes)


# -- built-in frontends ---------------------------------------------------------

register_frontend(Frontend(
    "minic",
    "MiniC — the paper's C dialect with color(...) qualifiers",
    (".c", ".mc", ".minic"),
    "repro.frontend"))

register_frontend(Frontend(
    "minipy",
    "MiniPy — a Python-like secure scripting language with "
    "secure(...)/public(...) declarations",
    (".mpy", ".minipy"),
    "repro.frontend.minipy"))
