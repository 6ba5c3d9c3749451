"""VM memory model: blocks, typed pointers, byte-accurate bounds checking.

Every object (global, local, heap allocation, string literal) lives in its
own :class:`Block`.  A pointer value is ``(block_id, offset)``; any read or
write outside ``[0, size)`` of its block raises a :class:`MemoryFault`
naming the CWE-style direction (overflow/underflow, read/write) — this is
what lets the evaluation *observe* that a SAMATE bad function overflows
before transformation and does not after.

``malloc_usable_size`` rounds allocation sizes up to 8 bytes (glibc-like),
so the paper's memcpy clamp logic is exercised with usable > requested.
"""

from __future__ import annotations



class VMError(Exception):
    """Base class for all VM runtime errors."""


class MemoryFault(VMError):
    """An out-of-bounds / invalid memory operation."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(f"{kind}: {message}")


class StepLimitExceeded(VMError):
    """The interpreter's step budget ran out (runaway loop)."""


_USABLE_ALIGN = 8


def usable_size(requested: int) -> int:
    """glibc-style rounding of heap allocation sizes."""
    if requested <= 0:
        return _USABLE_ALIGN
    return (requested + _USABLE_ALIGN - 1) // _USABLE_ALIGN * _USABLE_ALIGN


class Pointer:
    """A typed machine pointer: block id + byte offset.

    Offsets outside the block are representable (C allows forming
    one-past-the-end and even wilder pointers); only *dereferencing* them
    faults.

    Plain ``__slots__`` class rather than a frozen dataclass: pointers
    are created on nearly every VM memory operation, and the frozen
    ``__init__`` (which funnels through ``object.__setattr__``) showed
    up in pipeline profiles.  Value semantics are preserved by the
    explicit ``__eq__``/``__hash__``.
    """

    __slots__ = ("block", "offset")

    def __init__(self, block: int, offset: int):
        self.block = block
        self.offset = offset

    @property
    def is_null(self) -> bool:
        return self.block == 0

    def moved(self, delta: int) -> "Pointer":
        return Pointer(self.block, self.offset + delta)

    def __eq__(self, other) -> bool:
        return isinstance(other, Pointer) and \
            self.block == other.block and self.offset == other.offset

    def __hash__(self) -> int:
        return hash((self.block, self.offset))

    def __repr__(self) -> str:
        if self.block == 0:
            return "NULL"
        return f"Ptr(b{self.block}+{self.offset})"


NULL = Pointer(0, 0)

# Pointers stored *in memory* are encoded into 8 bytes with a sentinel top
# byte, so integer data and pointer data remain distinguishable when read
# back.  Small-model assumptions (<= 2^28 blocks, <= 2^28 byte offsets)
# hold by orders of magnitude for every program the suite runs.
_PTR_SENTINEL = 0x55
_PTR_TAG = _PTR_SENTINEL << 56


def encode_pointer(ptr: Pointer) -> int:
    if ptr.is_null:
        return 0
    if not (0 <= ptr.block < (1 << 28)):
        raise VMError(f"unencodable pointer block {ptr.block}")
    # Offsets are stored as 28-bit two's complement so that before-the-
    # beginning pointers (underwrite tests!) survive a memory round-trip.
    offset = ptr.offset & ((1 << 28) - 1)
    return _PTR_TAG | (ptr.block << 28) | offset


def decode_pointer(value: int) -> Pointer | None:
    """Decode an 8-byte integer back to a Pointer, or None if not tagged."""
    if value == 0:
        return NULL
    if (value >> 56) & 0xFF == _PTR_SENTINEL:
        offset = value & ((1 << 28) - 1)
        if offset >= 1 << 27:
            offset -= 1 << 28
        return Pointer((value >> 28) & ((1 << 28) - 1), offset)
    return None


class Block:
    """One allocation."""

    __slots__ = ("bid", "size", "data", "kind", "label", "freed",
                 "requested")

    def __init__(self, bid: int, size: int, kind: str, label: str,
                 requested: int | None = None):
        self.bid = bid
        self.size = size
        self.data = bytearray(size)
        self.kind = kind            # stack | heap | global | string | file
        self.label = label
        self.freed = False
        self.requested = requested if requested is not None else size

    def __repr__(self) -> str:
        state = " freed" if self.freed else ""
        return f"Block#{self.bid}({self.kind}:{self.label}, {self.size}B{state})"


class Memory:
    """The VM's address space.

    ``limit_bytes`` (when set) is a *cumulative* allocation budget: once
    the total bytes ever allocated would exceed it, further allocations
    raise ``MemoryFault('mem-limit', …)``.  Cumulative rather than live
    so a runaway allocation loop trips the budget even if it frees as it
    goes; like ``step-limit``, ``mem-limit`` is a resource fault, not a
    memory-safety trap (it is excluded from
    :data:`~repro.vm.interp.MEMORY_TRAP_KINDS`).
    """

    def __init__(self, limit_bytes: int | None = None):
        # Block 0 is reserved so that block id 0 means NULL.
        self._blocks: dict[int, Block] = {}
        self._next_bid = 1
        self.fault_on_uninitialized = False
        self.limit_bytes = limit_bytes
        self.allocated_bytes = 0

    # ----------------------------------------------------------- allocation

    def alloc(self, size: int, kind: str, label: str = "",
              requested: int | None = None) -> Pointer:
        if size < 0:
            raise MemoryFault("bad-alloc", f"negative size {size}")
        if self.limit_bytes is not None and \
                self.allocated_bytes + size > self.limit_bytes:
            raise MemoryFault(
                "mem-limit",
                f"allocation of {size}B for {kind}:{label or '?'} would "
                f"exceed the {self.limit_bytes}B budget "
                f"({self.allocated_bytes}B already allocated)")
        self.allocated_bytes += size
        block = Block(self._next_bid, size, kind, label, requested)
        self._blocks[self._next_bid] = block
        self._next_bid += 1
        return Pointer(block.bid, 0)

    def alloc_heap(self, requested: int, label: str = "heap") -> Pointer:
        return self.alloc(usable_size(requested), "heap", label,
                          requested=requested)

    def alloc_bytes(self, data: bytes, kind: str, label: str = "") -> Pointer:
        ptr = self.alloc(len(data), kind, label)
        self._blocks[ptr.block].data[:] = data
        return ptr

    def free(self, ptr: Pointer) -> None:
        if ptr.is_null:
            return
        block = self._blocks.get(ptr.block)
        if block is None:
            raise MemoryFault("invalid-free", f"free of unknown {ptr}")
        if block.freed:
            raise MemoryFault("double-free", f"double free of {block}")
        if block.kind != "heap":
            raise MemoryFault("invalid-free",
                              f"free of non-heap {block}")
        if ptr.offset != 0:
            raise MemoryFault("invalid-free",
                              f"free of interior pointer {ptr}")
        block.freed = True

    def release(self, ptr: Pointer) -> None:
        """Stack-frame teardown: mark the block dead (dangling detection)."""
        block = self._blocks.get(ptr.block)
        if block is not None:
            block.freed = True

    # ------------------------------------------------------------- queries

    def block_of(self, ptr: Pointer) -> Block:
        if ptr.block == 0:
            raise MemoryFault("null-dereference", "access through NULL")
        block = self._blocks.get(ptr.block)
        if block is None:
            raise MemoryFault("wild-pointer", f"access through {ptr}")
        if block.freed:
            raise MemoryFault("use-after-free",
                              f"access to freed {block}")
        return block

    def usable_size_of(self, ptr: Pointer) -> int:
        block = self.block_of(ptr)
        if block.kind != "heap":
            # Real malloc_usable_size on a non-heap pointer is undefined
            # behaviour (the paper notes it segfaults); surface it.
            raise MemoryFault(
                "invalid-usable-size",
                f"malloc_usable_size on non-heap {block}")
        return block.size

    # ------------------------------------------------------------ accessors

    def _check(self, ptr: Pointer, size: int, writing: bool) -> Block:
        block = self.block_of(ptr)
        start = ptr.offset
        end = start + size
        if start < 0:
            kind = "buffer-underwrite" if writing else "buffer-underread"
            raise MemoryFault(kind,
                              f"{'write' if writing else 'read'} at "
                              f"offset {start} before {block}")
        if end > block.size:
            kind = "buffer-overflow" if writing else "buffer-overread"
            raise MemoryFault(kind,
                              f"{'write' if writing else 'read'} of "
                              f"{size}B at offset {start} past "
                              f"{block} ({block.size}B)")
        return block

    def read_bytes(self, ptr: Pointer, size: int) -> bytes:
        block = self._check(ptr, size, writing=False)
        return bytes(block.data[ptr.offset:ptr.offset + size])

    def write_bytes(self, ptr: Pointer, data: bytes) -> None:
        block = self._check(ptr, len(data), writing=True)
        block.data[ptr.offset:ptr.offset + len(data)] = data

    def read_int(self, ptr: Pointer, size: int, signed: bool) -> int:
        # Happy path fully inlined (one dict probe + bounds compares);
        # every failure falls back to _check/block_of for the precise
        # fault kind.  int.from_bytes accepts the bytearray slice
        # directly — no intermediate bytes copy on this very hot path.
        block = self._blocks.get(ptr.block)
        offset = ptr.offset
        end = offset + size
        if block is None or block.freed or ptr.block == 0 or \
                offset < 0 or end > block.size:
            block = self._check(ptr, size, writing=False)
        return int.from_bytes(block.data[offset:end],
                              "little", signed=signed)

    def write_int(self, ptr: Pointer, value: int, size: int) -> None:
        block = self._blocks.get(ptr.block)
        offset = ptr.offset
        end = offset + size
        if block is None or block.freed or ptr.block == 0 or \
                offset < 0 or end > block.size:
            block = self._check(ptr, size, writing=True)
        value &= (1 << (8 * size)) - 1
        block.data[offset:end] = value.to_bytes(size, "little")

    def read_cstring(self, ptr: Pointer, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated string; walking past the block faults."""
        block = self.block_of(ptr)
        out = bytearray()
        offset = ptr.offset
        while len(out) < limit:
            if offset < 0:
                raise MemoryFault("buffer-underread",
                                  f"string read before {block}")
            if offset >= block.size:
                raise MemoryFault("buffer-overread",
                                  f"unterminated string read past {block}")
            byte = block.data[offset]
            if byte == 0:
                return bytes(out)
            out.append(byte)
            offset += 1
        raise MemoryFault("runaway-string", "string longer than limit")

    def memset(self, ptr: Pointer, byte: int, size: int) -> None:
        block = self._check(ptr, size, writing=True)
        block.data[ptr.offset:ptr.offset + size] = bytes([byte & 0xFF]) * size

    def memcopy(self, dst: Pointer, src: Pointer, size: int) -> None:
        data = self.read_bytes(src, size)
        self.write_bytes(dst, data)

    @property
    def live_heap_blocks(self) -> int:
        return sum(1 for b in self._blocks.values()
                   if b.kind == "heap" and not b.freed)
