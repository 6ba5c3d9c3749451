"""Native C library implementations for the VM.

The *unsafe* functions here behave exactly like their C counterparts — they
write as many bytes as the input demands — so out-of-bounds writes surface
as :class:`MemoryFault` from the memory model, not as silent corruption.
The *safe* alternatives (``g_strlcpy`` and friends) truncate to the given
size, which is how a transformed program avoids the fault.

The printf engine implements flags/width/precision including ``%.3o``,
needed to reproduce the LibTIFF tiff2pdf sign-extension overflow (§IV-A2).
"""

from __future__ import annotations

from .interp import InputTape
from .memory import MemoryFault, NULL, Pointer, VMError, usable_size

# ------------------------------------------------------------------ helpers


def _cstr(interp, ptr) -> bytes:
    if not isinstance(ptr, Pointer):
        raise VMError("expected a string pointer")
    return interp.memory.read_cstring(ptr)


def _ptr(value) -> Pointer:
    if isinstance(value, Pointer):
        return value
    if value == 0:
        return NULL
    raise VMError(f"expected a pointer, got {value!r}")


def _int(value) -> int:
    if isinstance(value, Pointer):
        from .memory import encode_pointer
        return encode_pointer(value)
    return int(value)


class _ByteSink:
    """Destination abstraction for the printf engine."""

    def put(self, byte: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def finish(self) -> None:
        pass


class _StreamSink(_ByteSink):
    def __init__(self, buffer: bytearray):
        self.buffer = buffer
        self.count = 0

    def put(self, byte: int) -> None:
        self.buffer.append(byte)
        self.count += 1


class _MemorySink(_ByteSink):
    """sprintf: unbounded writes, each one bounds-checked -> faults."""

    def __init__(self, interp, dest: Pointer):
        self.interp = interp
        self.dest = dest
        self.count = 0

    def put(self, byte: int) -> None:
        self.interp.memory.write_bytes(self.dest.moved(self.count),
                                       bytes([byte]))
        self.count += 1

    def finish(self) -> None:
        self.interp.memory.write_bytes(self.dest.moved(self.count), b"\x00")


class _BoundedMemorySink(_ByteSink):
    """snprintf family: writes at most size-1 chars plus NUL."""

    def __init__(self, interp, dest: Pointer, size: int):
        self.interp = interp
        self.dest = dest
        self.size = size
        self.count = 0          # chars that *would* have been written

    def put(self, byte: int) -> None:
        if self.count < self.size - 1:
            self.interp.memory.write_bytes(self.dest.moved(self.count),
                                           bytes([byte]))
        self.count += 1

    def finish(self) -> None:
        if self.size > 0:
            terminator = min(self.count, self.size - 1)
            self.interp.memory.write_bytes(self.dest.moved(terminator),
                                           b"\x00")


# ------------------------------------------------------------ printf engine

_INT_CONVERSIONS = "diuxXoc"


def _format(interp, sink: _ByteSink, fmt: bytes, args: list) -> int:
    arg_index = 0

    def next_arg():
        nonlocal arg_index
        if arg_index >= len(args):
            raise VMError("printf: more conversions than arguments")
        value = args[arg_index]
        arg_index += 1
        return value

    i = 0
    n = len(fmt)
    while i < n:
        byte = fmt[i]
        if byte != 0x25:            # '%'
            sink.put(byte)
            i += 1
            continue
        i += 1
        if i < n and fmt[i] == 0x25:
            sink.put(0x25)
            i += 1
            continue
        # flags
        flags = set()
        while i < n and chr(fmt[i]) in "-+ 0#":
            flags.add(chr(fmt[i]))
            i += 1
        # width
        width = 0
        if i < n and fmt[i] == ord("*"):
            width = _int(next_arg())
            i += 1
        else:
            while i < n and 0x30 <= fmt[i] <= 0x39:
                width = width * 10 + (fmt[i] - 0x30)
                i += 1
        # precision
        precision = None
        if i < n and fmt[i] == ord("."):
            i += 1
            precision = 0
            if i < n and fmt[i] == ord("*"):
                precision = _int(next_arg())
                i += 1
            else:
                while i < n and 0x30 <= fmt[i] <= 0x39:
                    precision = precision * 10 + (fmt[i] - 0x30)
                    i += 1
        # length modifiers
        length = ""
        while i < n and chr(fmt[i]) in "hlLzjt":
            length += chr(fmt[i])
            i += 1
        if i >= n:
            break
        conv = chr(fmt[i])
        i += 1
        _emit(interp, sink, conv, flags, width, precision, length, next_arg)
    sink.finish()
    return getattr(sink, "count", 0)


def _emit(interp, sink, conv, flags, width, precision, length, next_arg):
    if conv in "di":
        value = _to_signed(_int(next_arg()), length)
        text = _pad_int(str(abs(value)), value < 0, flags, width, precision)
    elif conv == "u":
        value = _to_unsigned(_int(next_arg()), length)
        text = _pad_int(str(value), False, flags, width, precision)
    elif conv in "xX":
        value = _to_unsigned(_int(next_arg()), length)
        digits = format(value, "x" if conv == "x" else "X")
        if "#" in flags and value != 0:
            digits = ("0x" if conv == "x" else "0X") + digits
        text = _pad_int(digits, False, flags, width, precision)
    elif conv == "o":
        value = _to_unsigned(_int(next_arg()), length)
        digits = format(value, "o")
        text = _pad_int(digits, False, flags, width, precision)
    elif conv == "c":
        text = chr(_int(next_arg()) & 0xFF)
        text = _pad_str(text, flags, width)
    elif conv == "s":
        ptr = next_arg()
        if isinstance(ptr, Pointer) and ptr.is_null:
            raw = b"(null)"
        else:
            raw = _cstr(interp, ptr)
        if precision is not None:
            raw = raw[:precision]
        padded = _pad_str(raw.decode("latin-1"), flags, width)
        for ch in padded.encode("latin-1"):
            sink.put(ch)
        return
    elif conv == "p":
        ptr = next_arg()
        if isinstance(ptr, Pointer):
            text = "(nil)" if ptr.is_null else \
                f"0x{(ptr.block << 16 | (ptr.offset & 0xFFFF)):x}"
        else:
            text = f"0x{_int(ptr):x}"
        text = _pad_str(text, flags, width)
    elif conv in "fFeEgG":
        value = next_arg()
        number = float(value if not isinstance(value, Pointer) else 0.0)
        prec = 6 if precision is None else precision
        spec = {"f": "f", "F": "f", "e": "e", "E": "E",
                "g": "g", "G": "G"}[conv]
        text = format(number, f".{prec}{spec}")
        text = _pad_str(text, flags, width)
    else:
        raise VMError(f"printf: unsupported conversion %{conv}")
    for ch in text.encode("latin-1"):
        sink.put(ch)


def _to_signed(value: int, length: str) -> int:
    bits = 64 if "l" in length or "z" in length or "j" in length else 32
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def _to_unsigned(value: int, length: str) -> int:
    bits = 64 if "l" in length or "z" in length or "j" in length else 32
    return value & ((1 << bits) - 1)


def _pad_int(digits: str, negative: bool, flags, width, precision) -> str:
    if precision is not None and len(digits) < precision:
        digits = "0" * (precision - len(digits)) + digits
    sign = "-" if negative else ("+" if "+" in flags else "")
    body = sign + digits
    if len(body) >= width:
        return body
    if "-" in flags:
        return body + " " * (width - len(body))
    if "0" in flags and precision is None:
        return sign + "0" * (width - len(body)) + digits
    return " " * (width - len(body)) + body


def _pad_str(text: str, flags, width) -> str:
    if len(text) >= width:
        return text
    if "-" in flags:
        return text + " " * (width - len(text))
    return " " * (width - len(text)) + text


# ------------------------------------------------------------ stdio natives

def _stream_sink(interp, stream) -> _StreamSink:
    handle = interp.files.get(stream.block) if isinstance(stream, Pointer) \
        else None
    if handle is not None and handle.get("std") == "err":
        return _StreamSink(interp.stderr_buffer())
    return _StreamSink(interp.stdout)


def native_printf(interp, args):
    fmt = _cstr(interp, args[0])
    sink = _StreamSink(interp.stdout)
    return _format(interp, sink, fmt, args[1:])


def native_fprintf(interp, args):
    stream = args[0]
    fmt = _cstr(interp, args[1])
    sink = _stream_sink(interp, stream)
    return _format(interp, sink, fmt, args[2:])


def native_sprintf(interp, args):
    dest = _ptr(args[0])
    fmt = _cstr(interp, args[1])
    return _format(interp, _MemorySink(interp, dest), fmt, args[2:])


def native_snprintf(interp, args):
    dest = _ptr(args[0])
    size = _int(args[1])
    fmt = _cstr(interp, args[2])
    return _format(interp, _BoundedMemorySink(interp, dest, size), fmt,
                   args[3:])


def native_vsprintf(interp, args):
    dest = _ptr(args[0])
    fmt = _cstr(interp, args[1])
    state = interp.valist_for(args[2])
    return _format(interp, _MemorySink(interp, dest), fmt,
                   state.args[state.index:])


def native_vsnprintf(interp, args):
    dest = _ptr(args[0])
    size = _int(args[1])
    fmt = _cstr(interp, args[2])
    state = interp.valist_for(args[3])
    return _format(interp, _BoundedMemorySink(interp, dest, size), fmt,
                   state.args[state.index:])


def native_g_snprintf(interp, args):
    return native_snprintf(interp, args)


def native_g_vsnprintf(interp, args):
    return native_vsnprintf(interp, args)


def native_puts(interp, args):
    interp.write_stdout(_cstr(interp, args[0]) + b"\n")
    return 0


def native_putchar(interp, args):
    interp.write_stdout(bytes([_int(args[0]) & 0xFF]))
    return _int(args[0])


def native_fputs(interp, args):
    sink = _stream_sink(interp, args[1])
    for byte in _cstr(interp, args[0]):
        sink.put(byte)
    return 0


def native_fputc(interp, args):
    sink = _stream_sink(interp, args[1])
    sink.put(_int(args[0]) & 0xFF)
    return _int(args[0])


def native_perror(interp, args):
    message = _cstr(interp, args[0]) if isinstance(args[0], Pointer) and \
        not args[0].is_null else b"error"
    interp.stderr_buffer().extend(message + b"\n")
    return 0


def native_gets(interp, args):
    """The inherently dangerous one: unbounded copy from stdin."""
    dest = _ptr(args[0])
    line = interp.stdin.line()
    if line is None:
        return NULL
    body = line[:-1] if line.endswith(b"\n") else line
    # Byte-by-byte so the exact overflowing byte faults.
    for i, byte in enumerate(body):
        interp.memory.write_bytes(dest.moved(i), bytes([byte]))
    interp.memory.write_bytes(dest.moved(len(body)), b"\x00")
    return dest


def native_fgets(interp, args):
    dest = _ptr(args[0])
    size = _int(args[1])
    if size <= 0:
        return NULL
    # Read at most size-1 bytes, stopping after a newline; unlike gets,
    # unread characters stay in the stream.
    body = _read_stream(interp, args[2], lambda tape: tape.line(size - 1))
    if body is None:
        return NULL
    interp.memory.write_bytes(dest, body)
    interp.memory.write_bytes(dest.moved(len(body)), b"\x00")
    return dest


def native_getchar(interp, args):
    return interp.stdin.getc()


def native_fgetc(interp, args):
    return _read_stream(interp, args[0], InputTape.getc)


# ------------------------------------------------------------- file natives

def native_fopen(interp, args):
    name = _cstr(interp, args[0]).decode("latin-1")
    mode = _cstr(interp, args[1]).decode("latin-1")
    vfs = interp.virtual_fs()
    if "r" in mode and name not in vfs:
        return NULL
    handle_ptr = interp.memory.alloc(1, "file", f"FILE:{name}")
    if "w" in mode:
        vfs[name] = bytearray()
    data = vfs.setdefault(name, bytearray())
    pos = len(data) if "a" in mode else 0
    interp.files[handle_ptr.block] = {"name": name, "pos": pos,
                                      "mode": mode}
    return handle_ptr


def _file_of(interp, stream) -> dict:
    handle = interp.files.get(stream.block) \
        if isinstance(stream, Pointer) else None
    if handle is None:
        raise VMError("operation on invalid FILE*")
    return handle


def _read_stream(interp, stream, read):
    """``read(tape)`` on the input behind ``stream``: the run's stdin tape
    for a std handle, else a tape over the file's virtual-FS buffer from
    the handle's position, which then moves past what was read."""
    handle = _file_of(interp, stream)
    if "std" in handle:
        return read(interp.stdin)
    tape = InputTape(interp.virtual_fs()[handle["name"]], handle["pos"])
    value = read(tape)
    handle["pos"] = tape.pos
    return value


def native_fclose(interp, args):
    handle = _file_of(interp, args[0])
    handle["closed"] = True
    return 0


def native_fread(interp, args):
    dest = _ptr(args[0])
    size = _int(args[1]) * _int(args[2])
    data = _read_stream(interp, args[3], lambda tape: tape.read(size))
    interp.memory.write_bytes(dest, data)
    item = max(_int(args[1]), 1)
    return len(data) // item


def native_fwrite(interp, args):
    src = _ptr(args[0])
    size = _int(args[1]) * _int(args[2])
    data = interp.memory.read_bytes(src, size)
    handle = _file_of(interp, args[3])
    if handle.get("std") == "out":
        interp.write_stdout(data)
    elif handle.get("std") == "err":
        interp.stderr_buffer().extend(data)
    else:
        buffer = interp.virtual_fs()[handle["name"]]
        pos = handle["pos"]
        buffer[pos:pos + size] = data
        handle["pos"] = pos + size
    return _int(args[2])


def native_fflush(interp, args):
    return 0


def native_feof(interp, args):
    return 1 if _read_stream(interp, args[0], InputTape.at_eof) else 0


def native_ferror(interp, args):
    return 0


def native_fseek(interp, args):
    handle = _file_of(interp, args[0])
    offset = _int(args[1])
    whence = _int(args[2])
    size = len(interp.virtual_fs().get(handle.get("name", ""), b""))
    base = {0: 0, 1: handle.get("pos", 0), 2: size}.get(whence, 0)
    handle["pos"] = base + offset
    return 0


def native_ftell(interp, args):
    return _file_of(interp, args[0]).get("pos", 0)


def native_remove(interp, args):
    name = _cstr(interp, args[0]).decode("latin-1")
    interp.virtual_fs().pop(name, None)
    return 0


# ------------------------------------------------------------ string natives

def native_strlen(interp, args):
    return len(_cstr(interp, args[0]))


def native_strcpy(interp, args):
    dest = _ptr(args[0])
    src = _cstr(interp, args[1])
    for i, byte in enumerate(src):
        interp.memory.write_bytes(dest.moved(i), bytes([byte]))
    interp.memory.write_bytes(dest.moved(len(src)), b"\x00")
    return dest


def native_strncpy(interp, args):
    dest = _ptr(args[0])
    src = _cstr(interp, args[1])
    n = _int(args[2])
    body = src[:n]
    for i, byte in enumerate(body):
        interp.memory.write_bytes(dest.moved(i), bytes([byte]))
    for i in range(len(body), n):
        interp.memory.write_bytes(dest.moved(i), b"\x00")
    return dest


def native_strcat(interp, args):
    dest = _ptr(args[0])
    old = _cstr(interp, dest)
    src = _cstr(interp, args[1])
    start = len(old)
    for i, byte in enumerate(src):
        interp.memory.write_bytes(dest.moved(start + i), bytes([byte]))
    interp.memory.write_bytes(dest.moved(start + len(src)), b"\x00")
    return dest


def native_strncat(interp, args):
    dest = _ptr(args[0])
    old = _cstr(interp, dest)
    src = _cstr(interp, args[1])[:_int(args[2])]
    start = len(old)
    for i, byte in enumerate(src):
        interp.memory.write_bytes(dest.moved(start + i), bytes([byte]))
    interp.memory.write_bytes(dest.moved(start + len(src)), b"\x00")
    return dest


def native_g_strlcpy(interp, args):
    """glib: copy at most dest_size-1 chars, always NUL-terminate."""
    dest = _ptr(args[0])
    src = _cstr(interp, args[1])
    size = _int(args[2])
    if size > 0:
        body = src[:size - 1]
        interp.memory.write_bytes(dest, body)
        interp.memory.write_bytes(dest.moved(len(body)), b"\x00")
    return len(src)


def native_g_strlcat(interp, args):
    dest = _ptr(args[0])
    src = _cstr(interp, args[1])
    size = _int(args[2])
    old = _cstr(interp, dest)
    if len(old) >= size:
        return size + len(src)
    room = size - len(old) - 1
    body = src[:max(room, 0)]
    interp.memory.write_bytes(dest.moved(len(old)), body)
    interp.memory.write_bytes(dest.moved(len(old) + len(body)), b"\x00")
    return len(old) + len(src)


def native_strcmp(interp, args):
    a = _cstr(interp, args[0])
    b = _cstr(interp, args[1])
    return 0 if a == b else (-1 if a < b else 1)


def native_strncmp(interp, args):
    n = _int(args[2])
    a = _cstr(interp, args[0])[:n]
    b = _cstr(interp, args[1])[:n]
    return 0 if a == b else (-1 if a < b else 1)


def native_strchr(interp, args):
    base = _ptr(args[0])
    needle = _int(args[1]) & 0xFF
    text = _cstr(interp, base)
    if needle == 0:
        return base.moved(len(text))
    idx = text.find(bytes([needle]))
    return NULL if idx == -1 else base.moved(idx)


def native_strcspn(interp, args):
    text = _cstr(interp, args[0])
    reject = _cstr(interp, args[1])
    for idx, byte in enumerate(text):
        if byte in reject:
            return idx
    return len(text)


def native_strrchr(interp, args):
    base = _ptr(args[0])
    needle = _int(args[1]) & 0xFF
    text = _cstr(interp, base)
    idx = text.rfind(bytes([needle]))
    return NULL if idx == -1 else base.moved(idx)


def native_strstr(interp, args):
    base = _ptr(args[0])
    haystack = _cstr(interp, base)
    needle = _cstr(interp, args[1])
    idx = haystack.find(needle)
    return NULL if idx == -1 else base.moved(idx)


def native_strdup(interp, args):
    text = _cstr(interp, args[0])
    ptr = interp.memory.alloc_heap(len(text) + 1, "strdup")
    interp.memory.write_bytes(ptr, text + b"\x00")
    return ptr


def native_memcpy(interp, args):
    dest = _ptr(args[0])
    src = _ptr(args[1])
    n = _int(args[2])
    # Byte-by-byte from the source so partial overlap and exact fault
    # offsets behave like the real function.
    data = interp.memory.read_bytes(src, n)
    interp.memory.write_bytes(dest, data)
    return dest


def native_memmove(interp, args):
    return native_memcpy(interp, args)


def native_memset(interp, args):
    dest = _ptr(args[0])
    interp.memory.memset(dest, _int(args[1]), _int(args[2]))
    return dest


def native_memcmp(interp, args):
    n = _int(args[2])
    a = interp.memory.read_bytes(_ptr(args[0]), n)
    b = interp.memory.read_bytes(_ptr(args[1]), n)
    return 0 if a == b else (-1 if a < b else 1)


def native_memchr(interp, args):
    base = _ptr(args[0])
    n = _int(args[2])
    data = interp.memory.read_bytes(base, n)
    idx = data.find(bytes([_int(args[1]) & 0xFF]))
    return NULL if idx == -1 else base.moved(idx)


# ------------------------------------------------------------- heap natives

def native_malloc(interp, args):
    return interp.memory.alloc_heap(_int(args[0]), "malloc")


def native_calloc(interp, args):
    return interp.memory.alloc_heap(_int(args[0]) * _int(args[1]), "calloc")


def native_realloc(interp, args):
    old = args[0]
    size = _int(args[1])
    new = interp.memory.alloc_heap(size, "realloc")
    if isinstance(old, Pointer) and not old.is_null:
        block = interp.memory.block_of(old)
        keep = min(block.size - old.offset, size)
        interp.memory.write_bytes(new,
                                  interp.memory.read_bytes(old, keep))
        interp.memory.free(old)
    return new


def native_free(interp, args):
    interp.memory.free(_ptr(args[0]))
    return 0


def native_alloca(interp, args):
    ptr = interp.memory.alloc(_int(args[0]), "stack", "alloca")
    if interp._frames:
        interp._frames[-1].blocks.append(ptr)
    return ptr


def native_malloc_usable_size(interp, args):
    return interp.memory.usable_size_of(_ptr(args[0]))


# ----------------------------------------------------------- misc natives

def native_atoi(interp, args):
    text = _cstr(interp, args[0]).decode("latin-1").strip()
    sign = 1
    if text[:1] in "+-":
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    digits = ""
    for ch in text:
        if not ch.isdigit():
            break
        digits += ch
    return sign * int(digits) if digits else 0


def native_atol(interp, args):
    return native_atoi(interp, args)


def native_atof(interp, args):
    text = _cstr(interp, args[0]).decode("latin-1").strip()
    try:
        return float(text)
    except ValueError:
        return 0.0


def native_strtol(interp, args):
    text = _cstr(interp, args[0]).decode("latin-1")
    base = _int(args[2]) if len(args) > 2 else 10
    stripped = text.lstrip()
    sign = 1
    index = len(text) - len(stripped)
    if stripped[:1] in "+-":
        sign = -1 if stripped[0] == "-" else 1
        stripped = stripped[1:]
        index += 1
    if base == 0:
        base = 16 if stripped[:2].lower() == "0x" else \
            8 if stripped[:1] == "0" else 10
    if base == 16 and stripped[:2].lower() == "0x":
        stripped = stripped[2:]
        index += 2
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"[:base]
    value = 0
    consumed = 0
    for ch in stripped:
        if ch.lower() not in digits:
            break
        value = value * base + digits.index(ch.lower())
        consumed += 1
    endptr = args[1]
    if isinstance(endptr, Pointer) and not endptr.is_null:
        from ..cfront.ctypes_model import CHAR_PTR
        interp._store(endptr, CHAR_PTR,
                      _ptr(args[0]).moved(index + consumed))
    return sign * value


def native_strtoul(interp, args):
    return native_strtol(interp, args) & ((1 << 64) - 1)


def native_abort(interp, args):
    raise MemoryFault("abort", "program called abort()")


def native_exit(interp, args):
    from .interp import ExitProgram
    raise ExitProgram(_int(args[0]) if args else 0)


def native_abs(interp, args):
    return abs(_int(args[0]))


def native_rand(interp, args):
    # Deterministic LCG so before/after comparisons are reproducible.
    state = interp.env_vars.get("__rand_state", "12345")
    value = (int(state) * 1103515245 + 12345) & 0x7FFFFFFF
    interp.env_vars["__rand_state"] = str(value)
    return value


def native_srand(interp, args):
    interp.env_vars["__rand_state"] = str(_int(args[0]) & 0x7FFFFFFF)
    return 0


def native_getenv(interp, args):
    name = _cstr(interp, args[0]).decode("latin-1")
    value = interp.env_vars.get(name)
    if value is None:
        return NULL
    ptr = interp.memory.alloc_bytes(value.encode("latin-1") + b"\x00",
                                    "global", f"env:{name}")
    return ptr


def native_assert_fail(interp, args):
    expr = _cstr(interp, args[0]) if isinstance(args[0], Pointer) else b"?"
    raise MemoryFault("assertion-failure",
                      f"assertion failed: {expr.decode('latin-1')}")


def native_va_start(interp, args):
    interp.va_start(_ptr(args[0]))
    return 0


def native_va_end(interp, args):
    interp.va_end(_ptr(args[0]))
    return 0


def native_va_copy(interp, args):
    interp.va_copy(_ptr(args[0]), _ptr(args[1]))
    return 0


def native_time(interp, args):
    return 1_700_000_000        # deterministic


def native_clock(interp, args):
    return interp.steps


def _ctype_native(fn):
    def wrapper(interp, args):
        return fn(_int(args[0]) & 0xFF)
    return wrapper


def native_sscanf(interp, args):
    """Minimal sscanf: %d, %u, %s, %c (enough for corpus test suites)."""
    text = _cstr(interp, args[0])
    fmt = _cstr(interp, args[1])
    out_args = list(args[2:])
    from ..cfront.ctypes_model import INT
    pos = 0
    matched = 0
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch == 0x25 and i + 1 < len(fmt):
            conv = chr(fmt[i + 1])
            i += 2
            while pos < len(text) and text[pos:pos + 1].isspace():
                pos += 1
            if conv in "du":
                start = pos
                if pos < len(text) and text[pos:pos + 1] in b"+-":
                    pos += 1
                while pos < len(text) and \
                        chr(text[pos]).isdigit():
                    pos += 1
                if pos == start:
                    break
                value = int(text[start:pos])
                interp._store(_ptr(out_args[matched]), INT, value)
                matched += 1
            elif conv == "s":
                start = pos
                while pos < len(text) and \
                        not text[pos:pos + 1].isspace():
                    pos += 1
                if pos == start:
                    break
                dest = _ptr(out_args[matched])
                interp.memory.write_bytes(dest, text[start:pos] + b"\x00")
                matched += 1
            elif conv == "c":
                if pos >= len(text):
                    break
                dest = _ptr(out_args[matched])
                interp.memory.write_bytes(dest, text[pos:pos + 1])
                pos += 1
                matched += 1
            else:
                break
        elif chr(ch).isspace():
            while pos < len(text) and text[pos:pos + 1].isspace():
                pos += 1
            i += 1
        else:
            if pos < len(text) and text[pos] == ch:
                pos += 1
                i += 1
            else:
                break
    return matched




# --------------------------------------------- C11 Annex K (TR 24731)

def _constraint_violation(interp, dest, size: int,
                          message: str = "runtime-constraint violation"):
    """Annex K runtime-constraint handling (abort-less): empty the
    destination, invoke any installed handler, and report failure via
    the return value."""
    if isinstance(dest, Pointer) and not dest.is_null and size > 0:
        interp.memory.write_bytes(dest, b"\x00")
    handler = getattr(interp, "constraint_handler", None)
    if handler is not None:
        msg = interp.memory.alloc_bytes(
            message.encode("ascii", "replace") + b"\x00", "string",
            "constraint-msg")
        # handler(const char *msg, void *ptr, errno_t error)
        interp._call_value(handler, [msg, NULL, 22])
    return 22        # EINVAL-ish errno_t


def native_set_constraint_handler_s(interp, args):
    """Install a runtime-constraint handler; returns the previous one
    (NULL for the initial default, which silently ignores)."""
    previous = getattr(interp, "constraint_handler", None)
    handler = args[0] if args else None
    if isinstance(handler, Pointer) and handler.is_null:
        handler = None
    elif isinstance(handler, int) and handler == 0:
        handler = None
    interp.constraint_handler = handler
    return previous if previous is not None else NULL


def native_strcpy_s(interp, args):
    dest = _ptr(args[0])
    size = _int(args[1])
    src = _cstr(interp, args[2])
    if len(src) + 1 > size:
        return _constraint_violation(interp, dest, size,
                                     "strcpy_s: src too long")
    interp.memory.write_bytes(dest, src + b"\x00")
    return 0


def native_strcat_s(interp, args):
    dest = _ptr(args[0])
    size = _int(args[1])
    old = _cstr(interp, dest)
    src = _cstr(interp, args[2])
    if len(old) + len(src) + 1 > size:
        return _constraint_violation(interp, dest, size,
                                     "strcat_s: result too long")
    interp.memory.write_bytes(dest.moved(len(old)), src + b"\x00")
    return 0


def native_sprintf_s(interp, args):
    dest = _ptr(args[0])
    size = _int(args[1])
    fmt = _cstr(interp, args[2])
    sink = _BoundedMemorySink(interp, dest, size)
    written = _format(interp, sink, fmt, args[3:])
    if written >= size:
        # Annex K: the formatted output must fit entirely.
        _constraint_violation(interp, dest, size,
                              "sprintf_s: output too long")
        return -1
    return written


def native_vsprintf_s(interp, args):
    dest = _ptr(args[0])
    size = _int(args[1])
    fmt = _cstr(interp, args[2])
    state = interp.valist_for(args[3])
    sink = _BoundedMemorySink(interp, dest, size)
    written = _format(interp, sink, fmt, state.args[state.index:])
    if written >= size:
        _constraint_violation(interp, dest, size,
                              "vsprintf_s: output too long")
        return -1
    return written


def native_memcpy_s(interp, args):
    dest = _ptr(args[0])
    destsz = _int(args[1])
    src = _ptr(args[2])
    n = _int(args[3])
    if n > destsz:
        if destsz > 0:
            interp.memory.memset(dest, 0, destsz)
        return _constraint_violation(interp, NULL, 0,
                                     "memcpy_s: n exceeds destsz")
    interp.memory.memcopy(dest, src, n)
    return 0


def native_gets_s(interp, args):
    dest = _ptr(args[0])
    size = _int(args[1])
    line = interp.stdin.line()
    if line is None or size <= 0:
        return NULL
    body = line[:-1] if line.endswith(b"\n") else line
    if len(body) + 1 > size:
        # Runtime constraint: discard the line, empty the destination.
        _constraint_violation(interp, dest, size,
                              "gets_s: line too long")
        return NULL
    interp.memory.write_bytes(dest, body + b"\x00")
    return dest


# ----------------------------------- S3Library signature-preserving safety
#
# The s3lib fix backend renames unsafe calls to these wrappers *without*
# inserting a size argument: the wrapper discovers the destination's real
# capacity from the VM's allocation metadata (standing in for
# S3Library's interposed allocator bookkeeping) and truncates instead of
# overflowing.  Signatures — and return values on in-bounds inputs —
# match the unsafe originals exactly, which is the backend's whole point.

def _s3_capacity(interp, dest: Pointer) -> int:
    """Bytes available at ``dest`` within its allocation."""
    block = interp.memory.block_of(dest)
    return max(0, block.size - dest.offset)


def native_s3_strcpy(interp, args):
    dest = _ptr(args[0])
    src = _cstr(interp, args[1])
    cap = _s3_capacity(interp, dest)
    if cap > 0:
        body = src[:cap - 1]
        interp.memory.write_bytes(dest, body + b"\x00")
    return dest


def native_s3_strcat(interp, args):
    dest = _ptr(args[0])
    src = _cstr(interp, args[1])
    cap = _s3_capacity(interp, dest)
    old = _cstr(interp, dest)
    if len(old) < cap:
        room = cap - len(old) - 1
        body = src[:max(room, 0)]
        interp.memory.write_bytes(dest.moved(len(old)), body + b"\x00")
    return dest


def native_s3_sprintf(interp, args):
    dest = _ptr(args[0])
    fmt = _cstr(interp, args[1])
    cap = _s3_capacity(interp, dest)
    sink = _BoundedMemorySink(interp, dest, cap)
    written = _format(interp, sink, fmt, args[2:])
    # sprintf returns the chars written; report what actually landed.
    return min(written, max(cap - 1, 0))


def native_s3_vsprintf(interp, args):
    dest = _ptr(args[0])
    fmt = _cstr(interp, args[1])
    cap = _s3_capacity(interp, dest)
    state = interp.valist_for(args[2])
    sink = _BoundedMemorySink(interp, dest, cap)
    written = _format(interp, sink, fmt, state.args[state.index:])
    return min(written, max(cap - 1, 0))


def native_s3_gets(interp, args):
    dest = _ptr(args[0])
    cap = _s3_capacity(interp, dest)
    line = interp.stdin.line()
    if line is None or cap <= 0:
        return NULL
    body = line[:-1] if line.endswith(b"\n") else line
    interp.memory.write_bytes(dest, body[:cap - 1] + b"\x00")
    return dest


def native_s3_memcpy(interp, args):
    dest = _ptr(args[0])
    src = _ptr(args[1])
    n = _int(args[2])
    cap = _s3_capacity(interp, dest)
    data = interp.memory.read_bytes(src, min(n, cap))
    interp.memory.write_bytes(dest, data)
    return dest


NATIVE_FUNCTIONS = {
    "set_constraint_handler_s": native_set_constraint_handler_s,
    "s3_strcpy": native_s3_strcpy,
    "s3_strcat": native_s3_strcat,
    "s3_sprintf": native_s3_sprintf,
    "s3_vsprintf": native_s3_vsprintf,
    "s3_gets": native_s3_gets,
    "s3_memcpy": native_s3_memcpy,
    "printf": native_printf,
    "fprintf": native_fprintf,
    "sprintf": native_sprintf,
    "snprintf": native_snprintf,
    "vsprintf": native_vsprintf,
    "vsnprintf": native_vsnprintf,
    "g_snprintf": native_g_snprintf,
    "g_vsnprintf": native_g_vsnprintf,
    "puts": native_puts,
    "putchar": native_putchar,
    "fputs": native_fputs,
    "fputc": native_fputc,
    "perror": native_perror,
    "gets": native_gets,
    "gets_s": native_gets_s,
    "strcpy_s": native_strcpy_s,
    "strcat_s": native_strcat_s,
    "sprintf_s": native_sprintf_s,
    "vsprintf_s": native_vsprintf_s,
    "memcpy_s": native_memcpy_s,
    "fgets": native_fgets,
    "getchar": native_getchar,
    "fgetc": native_fgetc,
    "fopen": native_fopen,
    "fclose": native_fclose,
    "fread": native_fread,
    "fwrite": native_fwrite,
    "fflush": native_fflush,
    "feof": native_feof,
    "ferror": native_ferror,
    "fseek": native_fseek,
    "ftell": native_ftell,
    "remove": native_remove,
    "sscanf": native_sscanf,
    "strlen": native_strlen,
    "strcpy": native_strcpy,
    "strncpy": native_strncpy,
    "strcat": native_strcat,
    "strncat": native_strncat,
    "g_strlcpy": native_g_strlcpy,
    "g_strlcat": native_g_strlcat,
    "strcmp": native_strcmp,
    "strncmp": native_strncmp,
    "strchr": native_strchr,
    "strcspn": native_strcspn,
    "strrchr": native_strrchr,
    "strstr": native_strstr,
    "strdup": native_strdup,
    "memcpy": native_memcpy,
    "memmove": native_memmove,
    "memset": native_memset,
    "memcmp": native_memcmp,
    "memchr": native_memchr,
    "malloc": native_malloc,
    "calloc": native_calloc,
    "realloc": native_realloc,
    "free": native_free,
    "alloca": native_alloca,
    "malloc_usable_size": native_malloc_usable_size,
    "atoi": native_atoi,
    "atol": native_atol,
    "atof": native_atof,
    "strtol": native_strtol,
    "strtoul": native_strtoul,
    "abort": native_abort,
    "exit": native_exit,
    "abs": native_abs,
    "labs": native_abs,
    "rand": native_rand,
    "srand": native_srand,
    "getenv": native_getenv,
    "__assert_fail": native_assert_fail,
    "__builtin_va_start": native_va_start,
    "__builtin_va_end": native_va_end,
    "__builtin_va_copy": native_va_copy,
    "time": native_time,
    "clock": native_clock,
    "isalpha": _ctype_native(lambda c: 1 if chr(c).isalpha() else 0),
    "isdigit": _ctype_native(lambda c: 1 if chr(c).isdigit() else 0),
    "isalnum": _ctype_native(lambda c: 1 if chr(c).isalnum() else 0),
    "isspace": _ctype_native(lambda c: 1 if chr(c).isspace() else 0),
    "isupper": _ctype_native(lambda c: 1 if chr(c).isupper() else 0),
    "islower": _ctype_native(lambda c: 1 if chr(c).islower() else 0),
    "isprint": _ctype_native(lambda c: 1 if 32 <= c < 127 else 0),
    "toupper": _ctype_native(lambda c: ord(chr(c).upper()) if c < 128
                             else c),
    "tolower": _ctype_native(lambda c: ord(chr(c).lower()) if c < 128
                             else c),
}
