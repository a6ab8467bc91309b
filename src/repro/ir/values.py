"""IR values: the operands and results of instructions.

Values form a use-def graph: every value records its *users* (the
instructions that consume it), which gives the use-def chains the
analyses rely on (paper references [1]) and supports
``replace_all_uses_with`` for the rewriting passes.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.errors import IRError
from repro.ir.types import IRType, PointerType, VoidType

#: The IR edit generation: a one-element list (so hot readers can bind
#: it once) bumped by every edit made through the mutation API —
#: operand changes, instruction insertion and removal, new blocks and
#: phi incomings.  The decoded engine (:mod:`repro.ir.engine`)
#: revalidates its cached code only after it moved.
IR_GENERATION = [0]


def touch_ir() -> None:
    """Record an edit of the IR (see :data:`IR_GENERATION`)."""
    IR_GENERATION[0] += 1


class Value:
    """Base class of everything that can be an instruction operand."""

    def __init__(self, type: IRType, name: str = ""):
        self.type = type
        self.name = name
        #: Instructions using this value as an operand.
        self.users: Set["Value"] = set()

    # -- use-def maintenance -------------------------------------------------

    def replace_all_uses_with(self, replacement: "Value") -> None:
        """Rewrite every user of ``self`` to use ``replacement``."""
        if replacement is self:
            return
        for user in list(self.users):
            user._replace_operand(self, replacement)

    def _replace_operand(self, old: "Value", new: "Value") -> None:
        raise IRError(f"{type(self).__name__} has no operands")

    # -- convenience ---------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return isinstance(self.type, VoidType)

    def short(self) -> str:
        """Short printable reference (e.g. ``%x``, ``@g``, ``42``)."""
        return f"%{self.name}" if self.name else "%<unnamed>"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short()}: {self.type}>"


class Constant(Value):
    """A literal constant: int, float, bool, string or null pointer.

    ``value`` holds the Python payload.  Null pointers use ``0``;
    string constants use a ``str`` payload with an ``ArrayType(I8, n)``
    type, mirroring LLVM's constant character arrays.
    """

    def __init__(self, type: IRType, value):
        super().__init__(type)
        self.value = value

    def short(self) -> str:
        if isinstance(self.value, str):
            return f'c"{self.value}"'
        if isinstance(self.value, bool):
            return "1" if self.value else "0"
        return str(self.value)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Constant)
                and self.type == other.type
                and self.value == other.value)

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class UndefValue(Value):
    """An undefined value of a given type (LLVM ``undef``)."""

    def short(self) -> str:
        return "undef"


class GlobalVariable(Value):
    """A module-level variable.

    As in LLVM, the global *is* a pointer to its storage; the type of
    the stored value is ``value_type``.  The secure-type color of the
    variable is the color of ``value_type`` (paper Fig 6 lines 1-3).
    """

    def __init__(self, name: str, value_type: IRType,
                 initializer: Optional[Constant] = None):
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer

    @property
    def color(self) -> Optional[str]:
        return self.value_type.color

    def short(self) -> str:
        return f"@{self.name}"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, name: str, type: IRType, index: int):
        super().__init__(type, name)
        self.index = index
        self.parent = None  # set by Function

    def short(self) -> str:
        return f"%{self.name}"


