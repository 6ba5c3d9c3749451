"""C type model: type objects, sizes, layout, and classification helpers.

The model targets an LP64 ABI (the paper's evaluation platform is Linux):
char=1, short=2, int=4, long=8, long long=8, pointers=8.
"""

from __future__ import annotations

from typing import Optional


class CType:
    """Base class for all C types."""

    qualifiers: frozenset = frozenset()

    def with_qualifiers(self, quals: set[str]) -> "CType":
        if not quals:
            return self
        clone = self._shallow_copy()
        clone.qualifiers = self.qualifiers | frozenset(quals)
        return clone

    def _shallow_copy(self) -> "CType":
        import copy
        return copy.copy(self)

    # -- classification helpers used throughout analyses and transforms ----

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, (IntType, BoolType, EnumType))

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_arithmetic(self) -> bool:
        return self.is_integer or self.is_float

    @property
    def is_scalar(self) -> bool:
        return self.is_arithmetic or self.is_pointer

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_function(self) -> bool:
        return isinstance(self, FunctionType)

    @property
    def is_char(self) -> bool:
        return isinstance(self, IntType) and self.kind == "char"

    @property
    def is_char_pointer(self) -> bool:
        return self.is_pointer and self.pointee.is_char

    @property
    def is_char_array(self) -> bool:
        return self.is_array and self.element.is_char

    def decay(self) -> "CType":
        """Array-to-pointer and function-to-pointer decay."""
        if isinstance(self, ArrayType):
            return PointerType(self.element)
        if isinstance(self, FunctionType):
            return PointerType(self)
        return self

    def sizeof(self) -> int:
        raise TypeError(f"sizeof on incomplete or non-object type {self}")

    def alignof(self) -> int:
        return self.sizeof()

    def __str__(self) -> str:  # pragma: no cover - subclass responsibility
        return type(self).__name__


class VoidType(CType):
    def sizeof(self) -> int:
        raise TypeError("sizeof(void)")

    def __str__(self) -> str:
        return "void"

    def __eq__(self, other):
        return isinstance(other, VoidType)

    def __hash__(self):
        return hash("void")


_INT_SIZES = {
    "char": 1, "short": 2, "int": 4, "long": 8, "long long": 8,
}

_INT_RANKS = {"char": 1, "short": 2, "int": 3, "long": 4, "long long": 5}


class IntType(CType):
    __match_args__ = ("kind", "signed")

    def __init__(self, kind: str = "int", signed: bool = True):
        if kind not in _INT_SIZES:
            raise ValueError(f"bad integer kind {kind!r}")
        self.kind = kind
        self.signed = signed

    def sizeof(self) -> int:
        return _INT_SIZES[self.kind]

    @property
    def rank(self) -> int:
        return _INT_RANKS[self.kind]

    def min_value(self) -> int:
        if not self.signed:
            return 0
        return -(1 << (8 * self.sizeof() - 1))

    def max_value(self) -> int:
        bits = 8 * self.sizeof()
        return (1 << (bits - (1 if self.signed else 0))) - 1

    def wrap(self, value: int) -> int:
        """Wrap a Python int into this type's representable range."""
        bits = 8 * self.sizeof()
        value &= (1 << bits) - 1
        if self.signed and value >= (1 << (bits - 1)):
            value -= 1 << bits
        return value

    def __str__(self) -> str:
        prefix = "" if self.signed else "unsigned "
        return prefix + self.kind

    def __eq__(self, other):
        return (isinstance(other, IntType) and other.kind == self.kind
                and other.signed == self.signed)

    def __hash__(self):
        return hash((self.kind, self.signed))


class BoolType(CType):
    def sizeof(self) -> int:
        return 1

    def wrap(self, value: int) -> int:
        return 1 if value else 0

    @property
    def signed(self) -> bool:
        return False

    def __str__(self) -> str:
        return "_Bool"

    def __eq__(self, other):
        return isinstance(other, BoolType)

    def __hash__(self):
        return hash("_Bool")


class FloatType(CType):
    def __init__(self, kind: str = "double"):
        if kind not in ("float", "double", "long double"):
            raise ValueError(f"bad float kind {kind!r}")
        self.kind = kind

    def sizeof(self) -> int:
        return {"float": 4, "double": 8, "long double": 16}[self.kind]

    def __str__(self) -> str:
        return self.kind

    def __eq__(self, other):
        return isinstance(other, FloatType) and other.kind == self.kind

    def __hash__(self):
        return hash(("float", self.kind))


class PointerType(CType):
    def __init__(self, pointee: CType):
        self.pointee = pointee

    def sizeof(self) -> int:
        return 8

    def __str__(self) -> str:
        return f"{self.pointee}*"

    def __eq__(self, other):
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self):
        return hash(("ptr", self.pointee))


class ArrayType(CType):
    def __init__(self, element: CType, length: Optional[int]):
        self.element = element
        self.length = length        # None for incomplete arrays

    def sizeof(self) -> int:
        if self.length is None:
            raise TypeError("sizeof on incomplete array")
        return self.element.sizeof() * self.length

    def alignof(self) -> int:
        return self.element.alignof()

    def __str__(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.element}[{n}]"

    def __eq__(self, other):
        return (isinstance(other, ArrayType)
                and other.element == self.element
                and other.length == self.length)

    def __hash__(self):
        return hash(("array", self.element, self.length))


class FunctionType(CType):
    def __init__(self, return_type: CType,
                 params: list[tuple[Optional[str], CType]],
                 variadic: bool = False):
        self.return_type = return_type
        self.params = params
        self.variadic = variadic

    def sizeof(self) -> int:
        raise TypeError("sizeof on function type")

    def __str__(self) -> str:
        args = ", ".join(str(t) for _, t in self.params)
        if self.variadic:
            args += ", ..." if args else "..."
        return f"{self.return_type}({args})"

    def __eq__(self, other):
        return (isinstance(other, FunctionType)
                and other.return_type == self.return_type
                and [t for _, t in other.params] == [t for _, t in self.params]
                and other.variadic == self.variadic)

    def __hash__(self):
        return hash(("fn", self.return_type, self.variadic, len(self.params)))


class StructType(CType):
    """A struct or union.  ``members`` is None while incomplete."""

    def __init__(self, tag: Optional[str], is_union: bool = False):
        self.tag = tag
        self.is_union = is_union
        self.members: Optional[list[tuple[str, CType]]] = None
        self._layout: Optional[dict[str, tuple[int, CType]]] = None
        self._size: Optional[int] = None
        self._align: Optional[int] = None

    def define(self, members: list[tuple[str, CType]]) -> None:
        self.members = members
        self._layout = None

    @property
    def is_complete(self) -> bool:
        return self.members is not None

    def _compute_layout(self) -> None:
        if self.members is None:
            raise TypeError(f"sizeof on incomplete struct {self.tag}")
        layout: dict[str, tuple[int, CType]] = {}
        offset = 0
        align = 1
        size = 0
        for name, mtype in self.members:
            malign = mtype.alignof()
            msize = mtype.sizeof()
            align = max(align, malign)
            if self.is_union:
                layout[name] = (0, mtype)
                size = max(size, msize)
            else:
                offset = _round_up(offset, malign)
                layout[name] = (offset, mtype)
                offset += msize
        if not self.is_union:
            size = offset
        self._layout = layout
        self._size = _round_up(size, align) if size else max(size, 1)
        self._align = align

    def sizeof(self) -> int:
        if self._size is None:
            self._compute_layout()
        return self._size

    def alignof(self) -> int:
        if self._align is None:
            self._compute_layout()
        return self._align

    def member_offset(self, name: str) -> tuple[int, CType]:
        if self._layout is None:
            self._compute_layout()
        if name not in self._layout:
            raise KeyError(f"struct {self.tag} has no member {name!r}")
        return self._layout[name]

    def member_type(self, name: str) -> CType:
        return self.member_offset(name)[1]

    def has_member(self, name: str) -> bool:
        return bool(self.members) and any(n == name for n, _ in self.members)

    def __str__(self) -> str:
        kw = "union" if self.is_union else "struct"
        return f"{kw} {self.tag or '<anon>'}"


class EnumType(CType):
    def __init__(self, tag: Optional[str]):
        self.tag = tag
        self.constants: dict[str, int] = {}

    def sizeof(self) -> int:
        return 4

    @property
    def signed(self) -> bool:
        return True

    @property
    def kind(self) -> str:
        return "int"

    def wrap(self, value: int) -> int:
        return IntType("int").wrap(value)

    def __str__(self) -> str:
        return f"enum {self.tag or '<anon>'}"


class VaListType(CType):
    def sizeof(self) -> int:
        return 24

    def __str__(self) -> str:
        return "va_list"

    def __eq__(self, other):
        return isinstance(other, VaListType)

    def __hash__(self):
        return hash("va_list")


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


# Shared singletons for the common types.
VOID = VoidType()
CHAR = IntType("char")
UCHAR = IntType("char", signed=False)
SHORT = IntType("short")
USHORT = IntType("short", signed=False)
INT = IntType("int")
UINT = IntType("int", signed=False)
LONG = IntType("long")
ULONG = IntType("long", signed=False)
LLONG = IntType("long long")
ULLONG = IntType("long long", signed=False)
FLOAT = FloatType("float")
DOUBLE = FloatType("double")
BOOL = BoolType()
SIZE_T = ULONG
CHAR_PTR = PointerType(CHAR)
VOID_PTR = PointerType(VOID)


def integer_promote(ctype: CType) -> CType:
    """C integer promotions: small ints promote to int."""
    if isinstance(ctype, (BoolType, EnumType)):
        return INT
    if isinstance(ctype, IntType) and ctype.rank < _INT_RANKS["int"]:
        return INT
    return ctype


def usual_arithmetic_conversions(a: CType, b: CType) -> CType:
    """The usual arithmetic conversions (C99 6.3.1.8), simplified."""
    if isinstance(a, FloatType) or isinstance(b, FloatType):
        for kind in ("long double", "double", "float"):
            if (isinstance(a, FloatType) and a.kind == kind) or \
               (isinstance(b, FloatType) and b.kind == kind):
                return FloatType(kind)
    a = integer_promote(a)
    b = integer_promote(b)
    if not isinstance(a, IntType) or not isinstance(b, IntType):
        return INT
    if a == b:
        return a
    if a.signed == b.signed:
        return a if a.rank >= b.rank else b
    signed, unsigned = (a, b) if a.signed else (b, a)
    if unsigned.rank >= signed.rank:
        return unsigned
    if signed.sizeof() > unsigned.sizeof():
        return signed
    return IntType(signed.kind, signed=False)
