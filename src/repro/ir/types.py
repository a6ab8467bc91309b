"""IR types, including the secure-type ``color`` qualifier.

A type may carry a *color*: the name of the enclave the value lives in
(paper §1).  ``color=None`` means "uncolored" — the element will take
one of the initial colors of Table 2 (F for registers, U or S for
memory locations) at analysis time.

Rule 4 of the paper's confidentiality rules states that a pointer to a
``C`` memory location is itself ``C``; we therefore never color a
:class:`PointerType` directly — a pointer's color is *derived* from
its pointee (``pointee.color``).

Types are immutable and hashable so they can be shared freely between
modules and used as dictionary keys by the analyses.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import IRError


class IRType:
    """Base class of all IR types."""

    #: Optional secure-type color ("blue", "red", ...), or None.
    color: Optional[str] = None

    def size_slots(self) -> int:
        """Size of a value of this type in interpreter memory slots.

        The interpreter uses a slot-granular memory model: one slot per
        scalar (int, float or pointer).  Aggregates are laid out as the
        concatenation of their members, exactly like LLVM's flat layout
        but without padding.
        """
        raise NotImplementedError

    def with_color(self, color: Optional[str]) -> "IRType":
        """Return a copy of this type carrying ``color``."""
        raise IRError(f"type {self} cannot carry a color")

    def strip_color(self) -> "IRType":
        """Return this type without any color qualifier (recursively
        for pointers, shallowly otherwise)."""
        return self.with_color(None) if self.color is not None else self

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self, (ArrayType, StructType))

    def __eq__(self, other) -> bool:
        return isinstance(other, IRType) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        raise NotImplementedError

    def __repr__(self) -> str:
        return str(self)


class VoidType(IRType):
    """The type of instructions that produce no value."""

    def size_slots(self) -> int:
        return 0

    def _key(self) -> tuple:
        return ("void",)

    def __str__(self) -> str:
        return "void"


class IntType(IRType):
    """An integer of a given bit width (i1, i8, i32, i64...)."""

    def __init__(self, bits: int, color: Optional[str] = None):
        if bits <= 0:
            raise IRError(f"invalid integer width {bits}")
        self.bits = bits
        self.color = color

    def size_slots(self) -> int:
        return 1

    def with_color(self, color: Optional[str]) -> "IntType":
        return IntType(self.bits, color)

    def _key(self) -> tuple:
        return ("int", self.bits, self.color)

    def __str__(self) -> str:
        base = f"i{self.bits}"
        return f"{base} color({self.color})" if self.color else base


class FloatType(IRType):
    """An IEEE float of a given bit width (f32 or f64)."""

    def __init__(self, bits: int = 64, color: Optional[str] = None):
        if bits not in (32, 64):
            raise IRError(f"invalid float width {bits}")
        self.bits = bits
        self.color = color

    def size_slots(self) -> int:
        return 1

    def with_color(self, color: Optional[str]) -> "FloatType":
        return FloatType(self.bits, color)

    def _key(self) -> tuple:
        return ("float", self.bits, self.color)

    def __str__(self) -> str:
        base = f"f{self.bits}"
        return f"{base} color({self.color})" if self.color else base


class PointerType(IRType):
    """A pointer to a value of type ``pointee``.

    Pointers never carry their own color: per the paper's fourth
    confidentiality rule, the color of a pointer is the color of the
    memory it points to (``pointee.color``).
    """

    def __init__(self, pointee: IRType):
        self.pointee = pointee

    def size_slots(self) -> int:
        return 1

    def with_color(self, color: Optional[str]) -> "PointerType":
        if color is not None:
            raise IRError("pointers derive their color from their pointee")
        return self

    def strip_color(self) -> "PointerType":
        stripped = self.pointee.strip_color()
        return self if stripped is self.pointee else PointerType(stripped)

    def _key(self) -> tuple:
        return ("ptr", self.pointee._key())

    def __str__(self) -> str:
        return f"{self.pointee}*"


class ArrayType(IRType):
    """A fixed-size array ``[count x element]``."""

    def __init__(self, element: IRType, count: int):
        if count < 0:
            raise IRError(f"invalid array count {count}")
        self.element = element
        self.count = count

    @property
    def color(self) -> Optional[str]:  # type: ignore[override]
        return self.element.color

    def size_slots(self) -> int:
        return self.element.size_slots() * self.count

    def with_color(self, color: Optional[str]) -> "ArrayType":
        return ArrayType(self.element.with_color(color), self.count)

    def strip_color(self) -> "ArrayType":
        stripped = self.element.strip_color()
        return self if stripped is self.element else ArrayType(stripped, self.count)

    def _key(self) -> tuple:
        return ("array", self.element._key(), self.count)

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


class StructField:
    """A named struct field; its type may carry a color (paper Fig 1)."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: IRType):
        self.name = name
        self.type = type

    @property
    def color(self) -> Optional[str]:
        return self.type.color

    def _key(self) -> tuple:
        return (self.name, self.type._key())

    def __repr__(self) -> str:
        return f"StructField({self.name!r}, {self.type})"


class StructType(IRType):
    """A named structure type with ordered fields.

    Struct types are the unit on which the developer expresses
    multi-color data (Figure 1 of the paper: a blue ``name`` field and
    a red ``balance`` field in the same ``account`` struct).
    """

    def __init__(self, name: str, fields: Sequence[StructField] = ()):
        self.name = name
        self.fields: Tuple[StructField, ...] = tuple(fields)

    def set_body(self, fields: Sequence[StructField]) -> None:
        """Fill in the fields of a forward-declared struct."""
        self.fields = tuple(fields)

    def field_index(self, name: str) -> int:
        for i, field in enumerate(self.fields):
            if field.name == name:
                return i
        raise IRError(f"struct {self.name} has no field {name!r}")

    def field_offset_slots(self, index: int) -> int:
        if not 0 <= index < len(self.fields):
            raise IRError(
                f"struct {self.name} has no field index {index}")
        return sum(f.type.size_slots() for f in self.fields[:index])

    def colors_used(self) -> Tuple[str, ...]:
        """The distinct explicit colors of the fields, in field order."""
        seen = []
        for field in self.fields:
            if field.color is not None and field.color not in seen:
                seen.append(field.color)
        return tuple(seen)

    @property
    def is_multicolor(self) -> bool:
        """True when fields carry at least two distinct explicit colors
        (the §7.2 case requiring field indirection)."""
        return len(self.colors_used()) >= 2

    def size_slots(self) -> int:
        return sum(f.type.size_slots() for f in self.fields)

    def _key(self) -> tuple:
        # Struct identity is nominal, like LLVM named structs.
        return ("struct", self.name)

    def __str__(self) -> str:
        return f"%{self.name}"


class FunctionType(IRType):
    """The type of a function: return type and parameter types."""

    def __init__(self, ret: IRType, params: Sequence[IRType] = (),
                 vararg: bool = False):
        self.ret = ret
        self.params: Tuple[IRType, ...] = tuple(params)
        self.vararg = vararg

    def size_slots(self) -> int:
        return 1  # a function value is a code pointer

    def _key(self) -> tuple:
        return ("fn", self.ret._key(),
                tuple(p._key() for p in self.params), self.vararg)

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.vararg:
            params = f"{params}, ..." if params else "..."
        return f"{self.ret} ({params})"


def register_type(value_type: IRType) -> IRType:
    """The type a register holding a value of ``value_type`` gets.

    Scalar registers drop the color qualifier — register colors are
    tracked by the analysis, not by the type.  Pointer registers keep
    their pointee colors: the pointee color *is* the secure type the
    analysis reads (paper's fourth confidentiality rule).
    """
    if isinstance(value_type, PointerType):
        return value_type
    return value_type.strip_color()


# Common singletons.  These are uncolored; call ``with_color`` to get a
# colored variant.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)
