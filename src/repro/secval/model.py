"""The frontend-neutral secure-value model: the color lattice.

This is the Privagic color system of paper Table 2 and §5.3, lifted
out of the MiniC-specific compiler so every frontend lowers to the
same model (the SecV insight in PAPERS.md: partitioning works over
language-neutral *secure values*, not source-language types).

A *color* is a plain string.  Three colors are special:

``F`` (free)
    Initial color of registers and instructions; "the color will be
    deduced by type inference".  F is the only color compatible with
    every other color; F computations are replicated in each enclave.

``U`` (untrusted)
    Color of uncolored memory locations in **hardened** mode.  U
    behaves like any other enclave color: a value loaded from U stays
    U, so an enclave-colored instruction can never consume it — this
    is the Iago protection.

``S`` (shared)
    Color of uncolored memory locations in **relaxed** mode.  S is
    incompatible with every color, but a value loaded from S *becomes
    F*, so enclave code may consume values from shared memory (no Iago
    protection).

Every other string is a named enclave color (``"blue"``, ``"red"``,
...) chosen by the developer in source-level annotations — MiniC's
``color(...)`` qualifier or MiniPy's ``secure(...)`` declarations;
by the time the analyses run, the surface syntax is gone and only
these colors remain, carried on IR types.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import SecureTypeError

F = "F"
U = "U"
S = "S"

#: The two analysis modes (paper §5).
HARDENED = "hardened"
RELAXED = "relaxed"

_RESERVED = frozenset({F, U, S})


def is_free(color: str) -> bool:
    return color == F


def is_named(color: str) -> bool:
    """True for a developer-chosen enclave color."""
    return color not in _RESERVED


def untrusted_color(mode: str) -> str:
    """The color given to uncolored memory locations: U in hardened
    mode, S in relaxed mode (Table 2)."""
    return U if mode == HARDENED else S


def is_untrusted(color: str) -> bool:
    return color in (U, S)


def compatible(a: str, b: str) -> bool:
    """The compatibility relation of Table 3:
    ``a ~ b  ⇔  a == b or a == F or b == F``."""
    return a == b or a == F or b == F


def join(a: str, b: str, rule: str = "op", context: str = "") -> str:
    """The color a register takes when constrained by both ``a`` and
    ``b`` (the ``x ← ȳ`` operation of Table 3): the non-F one of the
    pair, or an error when two distinct non-F colors meet."""
    if a == b or b == F:
        return a
    if a == F:
        return b
    raise SecureTypeError(rule, f"incompatible colors {a} and {b}"
                          + (f" in {context}" if context else ""),
                          colors=(a, b))


def validate_color_name(name: str) -> str:
    """Reject developer annotations that collide with reserved colors."""
    if name in (F, S):
        raise SecureTypeError(
            "color-name", f"{name!r} is a reserved color and cannot be "
                          f"used as an enclave name")
    return name


def named_colors(colors: Iterable[str]) -> set:
    return {c for c in colors if is_named(c)}
