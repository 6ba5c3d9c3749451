"""The C interpreter.

Executes parsed (preprocessed) translation units against the bounds-checked
:class:`~repro.vm.memory.Memory`.  The evaluation harness runs each SAMATE
good/bad pair and each corpus test suite through this interpreter before
and after transformation; a buffer overflow manifests as a
:class:`MemoryFault` in the result rather than as silent corruption.
"""

from __future__ import annotations

import struct as _struct
import sys as _sys

from ..cfront import astnodes as ast
from ..cfront.ctypes_model import (
    ArrayType, BoolType, CHAR, CType, EnumType, FloatType, FunctionType,
    INT, IntType, PointerType, StructType, VaListType, VoidType,
    usual_arithmetic_conversions,
)
from .memory import (
    Memory, MemoryFault, NULL, Pointer, StepLimitExceeded, VMError,
    decode_pointer, encode_pointer,
)
from .values import FuncRef, StructValue, VaListState

_PTR_DIFF_T = IntType("long")


class _Signal(Exception):
    pass


class _Break(_Signal):
    pass


class _Continue(_Signal):
    pass


class _Return(_Signal):
    def __init__(self, value):
        self.value = value


class _Goto(_Signal):
    def __init__(self, label: str):
        self.label = label


class ExitProgram(Exception):
    def __init__(self, code: int):
        self.code = code


#: Fault kinds raised by the bounds-checked :class:`Memory` — the traps a
#: buffer-overflow fix is *supposed* to make disappear.  ``step-limit``,
#: ``mem-limit`` and ``vm-error`` are resource/harness faults, not memory
#: traps: a transformation that makes one of those vanish changed
#: semantics.
MEMORY_TRAP_KINDS = frozenset({
    "buffer-overflow", "buffer-underwrite", "buffer-overread",
    "buffer-underread", "null-dereference", "wild-pointer",
    "use-after-free", "double-free", "invalid-free", "bad-alloc",
    "stack-overflow", "runaway-string", "uninitialized-read",
})


class InputTape:
    """A byte stream that a program reads front to back: the run's stdin,
    or an open virtual-FS file from a handle's position.

    ``touched`` records whether the program looked at the stream at all;
    a read that only learns it is at EOF counts.  A run whose stdin tape
    stays untouched behaves the same on every stdin, because nothing
    else the VM does depends on it.
    """

    __slots__ = ("data", "pos", "touched")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos
        self.touched = False

    def at_eof(self) -> bool:
        self.touched = True
        return self.pos >= len(self.data)

    def read(self, size: int) -> bytes:
        """Up to ``size`` bytes (fewer at EOF)."""
        self.touched = True
        chunk = bytes(self.data[self.pos:self.pos + size])
        self.pos += len(chunk)
        return chunk

    def getc(self) -> int:
        """The next byte, or -1 at EOF."""
        chunk = self.read(1)
        return chunk[0] if chunk else -1

    def line(self, limit: int | None = None) -> bytes | None:
        """Bytes up to and including the next newline, at most ``limit``
        of them; None at EOF."""
        if self.at_eof():
            return None
        end = self.data.find(b"\n", self.pos)
        end = len(self.data) if end == -1 else end + 1
        if limit is not None:
            end = min(end, self.pos + limit)
        return self.read(end - self.pos)


class ExecutionResult:
    """Outcome of one program run."""

    def __init__(self, stdout: bytes, exit_code: int | None,
                 fault: str | None, fault_detail: str, steps: int,
                 entered: frozenset = frozenset(),
                 read_stdin: bool = True):
        self.stdout = stdout
        self.exit_code = exit_code
        self.fault = fault
        self.fault_detail = fault_detail
        self.steps = steps
        #: Names of user-defined functions the run entered — the
        #: incremental validator's reuse predicate (see
        #: ``Interpreter.entered``).
        self.entered = entered
        #: Did the run look at stdin at all (``InputTape.touched``)?  If
        #: not, the same program gives this result on every stdin.
        self.read_stdin = read_stdin

    @property
    def ok(self) -> bool:
        return self.fault is None

    @property
    def memory_trapped(self) -> bool:
        """Did the run die on a memory-safety trap (vs. running clean, or
        hitting a resource/harness fault)?"""
        return self.fault in MEMORY_TRAP_KINDS

    def observable(self) -> tuple[bytes, int | None, str | None]:
        """The behaviour the differential oracle compares: everything an
        external observer of the process could see.  Step counts and
        fault *details* (offsets, block labels) are deliberately
        excluded — they differ across equivalent programs."""
        return (self.stdout, self.exit_code, self.fault)

    @property
    def stdout_text(self) -> str:
        return self.stdout.decode("utf-8", errors="replace")

    def __repr__(self) -> str:
        if self.ok:
            return f"ExecutionResult(exit={self.exit_code}, " \
                   f"{len(self.stdout)}B stdout)"
        return f"ExecutionResult(FAULT {self.fault}: {self.fault_detail})"


class _Frame:
    __slots__ = ("scopes", "blocks", "valist_args", "function")

    def __init__(self, function: str):
        self.function = function
        self.scopes: list[dict[str, tuple[Pointer, CType]]] = [{}]
        self.blocks: list[Pointer] = []
        self.valist_args: list = []

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, ptr: Pointer, ctype: CType) -> None:
        self.scopes[-1][name] = (ptr, ctype)

    def lookup(self, name: str) -> tuple[Pointer, CType] | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None


class Interpreter:
    """Interprets one linked set of translation units."""

    #: Maximum C call-stack depth; exceeding it is a stack-overflow fault.
    MAX_CALL_DEPTH = 1200

    def __init__(self, units: list[ast.TranslationUnit],
                 *, stdin: bytes = b"", step_limit: int = 5_000_000,
                 mem_limit: int | None = None,
                 env: dict[str, str] | None = None):
        # Each C frame nests a few dozen Python frames; give the host
        # interpreter room for MAX_CALL_DEPTH C frames.
        if _sys.getrecursionlimit() < 100_000:
            _sys.setrecursionlimit(100_000)
        self.units = units
        self.memory = Memory(limit_bytes=mem_limit)
        self.stdout = bytearray()
        self.stdin = InputTape(stdin)
        self.env_vars = dict(env or {})
        self.steps = 0
        self.step_limit = step_limit
        #: User-defined functions entered at least once — every call,
        #: direct or through a function pointer, dispatches through
        #: :meth:`call_function`.  The incremental validator reuses a
        #: cached run iff no edited function appears in this set.
        self.entered: set[str] = set()
        self.functions: dict[str, ast.FunctionDef] = {}
        self.globals: dict[str, tuple[Pointer, CType]] = {}
        self._string_cache: dict[str, Pointer] = {}
        self._frames: list[_Frame] = []
        self._valists: dict[int, VaListState] = {}
        self._func_blocks: dict[str, Pointer] = {}
        self._block_func: dict[int, str] = {}
        self.files: dict[int, dict] = {}
        self.stderr = bytearray()
        self._vfs: dict[str, bytearray] = {}
        #: TR 24731 runtime-constraint handler installed via
        #: ``set_constraint_handler_s`` (a FuncRef/function pointer, or
        #: None for the default ignore-handler).
        self.constraint_handler = None

        from .libc import NATIVE_FUNCTIONS
        from .stralloc_rt import STRALLOC_NATIVES
        self.natives = dict(NATIVE_FUNCTIONS)
        self.natives.update(STRALLOC_NATIVES)

        self._load_program()
        self._setup_stdio()

    def stderr_buffer(self) -> bytearray:
        return self.stderr

    def virtual_fs(self) -> dict[str, bytearray]:
        return self._vfs

    def _setup_stdio(self) -> None:
        for name, std in (("stdin", "in"), ("stdout", "out"),
                          ("stderr", "err")):
            if name not in self.globals:
                continue
            handle = self.memory.alloc(1, "file", name)
            self.files[handle.block] = {"std": std}
            ptr, ctype = self.globals[name]
            if isinstance(ctype, PointerType):
                self._store(ptr, ctype, handle)

    # ------------------------------------------------------------- loading

    def _load_program(self) -> None:
        for unit in self.units:
            # The item scan is pure (functions by name, global declarators
            # in declaration order), so it is computed once per parsed unit
            # and replayed by every interpreter built over it.
            index = unit._vm_index
            if index is None:
                functions = {}
                global_decls = []
                for item in unit.items:
                    if isinstance(item, ast.FunctionDef):
                        functions[item.name] = item
                    elif isinstance(item, ast.Declaration) and \
                            not item.is_typedef:
                        for declarator in item.declarators:
                            # Prototypes and unnamed declarators never get
                            # storage (_load_global's first early-out).
                            if declarator.name and not isinstance(
                                    declarator.ctype, FunctionType):
                                global_decls.append((item, declarator))
                index = unit._vm_index = (functions, global_decls)
            self.functions.update(index[0])
        # Globals: allocate then initialize in declaration order.
        for unit in self.units:
            for item, declarator in unit._vm_index[1]:
                self._load_global(item, declarator)

    def _load_global(self, decl: ast.Declaration,
                     declarator: ast.Declarator) -> None:
        ctype = declarator.ctype
        name = declarator.name
        if isinstance(ctype, FunctionType) or not name:
            return
        if decl.storage_class == "extern" and declarator.init is None:
            # Builtins like stdin/stdout/errno get storage too, so that
            # programs can read/compare them.
            if name in self.globals:
                return
        if name in self.globals and declarator.init is None:
            return
        if name not in self.globals:
            size = self._sizeof(ctype)
            ptr = self.memory.alloc(size, "global", name)
            self.globals[name] = (ptr, ctype)
        if declarator.init is not None:
            ptr, _ = self.globals[name]
            self._initialize(ptr, ctype, declarator.init)

    # ---------------------------------------------------------------- run

    def run(self, entry: str = "main", args: list | None = None
            ) -> ExecutionResult:
        try:
            value = self.call_function(entry, args or [])
            code = value if isinstance(value, int) else 0
            return self._result(code, None, "")
        except ExitProgram as exc:
            return self._result(exc.code, None, "")
        except MemoryFault as exc:
            return self._result(None, exc.kind, str(exc))
        except StepLimitExceeded as exc:
            return self._result(None, "step-limit", str(exc))
        except VMError as exc:
            return self._result(None, "vm-error", str(exc))

    def _result(self, code: int | None, fault: str | None,
                detail: str) -> ExecutionResult:
        return ExecutionResult(bytes(self.stdout), code, fault, detail,
                               self.steps, frozenset(self.entered),
                               self.stdin.touched)

    # ------------------------------------------------------------ calling

    def call_function(self, name: str, args: list):
        fn = self.functions.get(name)
        if fn is None:
            native = self.natives.get(name)
            if native is not None:
                return native(self, args)
            raise VMError(f"call to undefined function {name!r}")
        if len(self._frames) >= self.MAX_CALL_DEPTH:
            raise MemoryFault("stack-overflow",
                              f"call depth exceeded {self.MAX_CALL_DEPTH} "
                              f"frames (runaway recursion?)")
        self.entered.add(name)
        frame = _Frame(name)
        params = fn.params
        for i, param in enumerate(params):
            ctype = param.ctype
            value = args[i] if i < len(args) else 0
            ptr = self.memory.alloc(self._sizeof(ctype), "stack",
                                    f"{name}:{param.name}")
            frame.blocks.append(ptr)
            self._store(ptr, ctype, value)
            if param.name:
                frame.declare(param.name, ptr, ctype)
        frame.valist_args = list(args[len(params):])
        self._frames.append(frame)
        try:
            self._exec_block(fn.body, new_scope=False)
            result = 0
        except _Return as ret:
            result = ret.value if ret.value is not None else 0
        except _Goto as goto:
            raise VMError(f"goto to undefined label {goto.label!r} "
                          f"in {name}") from None
        finally:
            popped = self._frames.pop()
            for ptr in popped.blocks:
                self.memory.release(ptr)
        return result

    # -------------------------------------------------------- declarations

    def _exec_declaration(self, decl: ast.Declaration) -> None:
        if decl.is_typedef:
            return
        frame = self._frames[-1]
        for declarator in decl.declarators:
            ctype = declarator.ctype
            if isinstance(ctype, FunctionType) or not declarator.name:
                continue
            if decl.storage_class == "static":
                key = f"{frame.function}::{declarator.name}"
                if key not in self.globals:
                    ptr = self.memory.alloc(self._sizeof(ctype), "global",
                                            key)
                    self.globals[key] = (ptr, ctype)
                    if declarator.init is not None:
                        self._initialize(ptr, ctype, declarator.init)
                ptr, _ = self.globals[key]
                frame.declare(declarator.name, ptr, ctype)
                continue
            ptr = self.memory.alloc(self._sizeof(ctype), "stack",
                                    f"{frame.function}:{declarator.name}")
            frame.blocks.append(ptr)
            frame.declare(declarator.name, ptr, ctype)
            if declarator.init is not None:
                self._initialize(ptr, ctype, declarator.init)

    def _initialize(self, ptr: Pointer, ctype: CType,
                    init: ast.Expression) -> None:
        if isinstance(init, ast.InitList):
            self._init_list(ptr, ctype, init)
            return
        if isinstance(ctype, ArrayType) and \
                isinstance(init, ast.StringLiteral):
            data = init.value + b"\x00"
            if ctype.length is not None and len(data) > ctype.length:
                data = data[:ctype.length]
            self.memory.write_bytes(ptr, data)
            return
        value = self._eval(init)
        self._store(ptr, ctype, value)

    def _init_list(self, ptr: Pointer, ctype: CType,
                   init: ast.InitList) -> None:
        if isinstance(ctype, ArrayType):
            elem_size = self._sizeof(ctype.element)
            for i, item in enumerate(init.items):
                self._initialize(ptr.moved(i * elem_size), ctype.element,
                                 item)
        elif isinstance(ctype, StructType) and ctype.is_complete:
            for i, item in enumerate(init.items):
                if i >= len(ctype.members):
                    break
                mname, mtype = ctype.members[i]
                offset, _ = ctype.member_offset(mname)
                self._initialize(ptr.moved(offset), mtype, item)
        else:
            if init.items:
                self._store(ptr, ctype, self._eval(init.items[0]))

    # ---------------------------------------------------------- statements

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_limit:
            raise StepLimitExceeded(
                f"exceeded {self.step_limit} interpreter steps")

    def _exec(self, stmt: ast.Node) -> None:
        # Hot loop: exact-type dict dispatch (the AST hierarchy is flat,
        # so ``stmt.__class__`` identifies the handler) with the step
        # accounting of ``_tick`` inlined.
        self.steps = steps = self.steps + 1
        if steps > self.step_limit:
            raise StepLimitExceeded(
                f"exceeded {self.step_limit} interpreter steps")
        handler = _EXEC_DISPATCH.get(stmt.__class__)
        if handler is None:
            raise VMError(f"cannot execute {type(stmt).__name__}")
        handler(self, stmt)

    def _exec_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        if stmt.expr is not None:
            self._eval(stmt.expr)

    def _exec_if(self, stmt: ast.IfStmt) -> None:
        if self._truthy(self._eval(stmt.cond)):
            self._exec(stmt.then_stmt)
        elif stmt.else_stmt is not None:
            self._exec(stmt.else_stmt)

    def _exec_while(self, stmt: ast.WhileStmt) -> None:
        while self._truthy(self._eval(stmt.cond)):
            self._tick()
            try:
                self._exec(stmt.body)
            except _Break:
                break
            except _Continue:
                continue

    def _exec_do_while(self, stmt: ast.DoWhileStmt) -> None:
        while True:
            self._tick()
            try:
                self._exec(stmt.body)
            except _Break:
                break
            except _Continue:
                pass
            if not self._truthy(self._eval(stmt.cond)):
                break

    def _exec_for(self, stmt: ast.ForStmt) -> None:
        self._frames[-1].push()
        try:
            if stmt.init is not None:
                self._exec(stmt.init)
            while stmt.cond is None or \
                    self._truthy(self._eval(stmt.cond)):
                self._tick()
                try:
                    self._exec(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.advance is not None:
                    self._eval(stmt.advance)
        finally:
            self._frames[-1].pop()

    def _exec_return(self, stmt: ast.ReturnStmt) -> None:
        value = self._eval(stmt.value) if stmt.value is not None else None
        raise _Return(value)

    def _exec_break(self, stmt: ast.BreakStmt) -> None:
        raise _Break()

    def _exec_continue(self, stmt: ast.ContinueStmt) -> None:
        raise _Continue()

    def _exec_empty(self, stmt: ast.EmptyStmt) -> None:
        pass

    def _exec_labelled_body(self, stmt: ast.Node) -> None:
        self._exec(stmt.body)

    def _exec_goto(self, stmt: ast.GotoStmt) -> None:
        raise _Goto(stmt.label)

    def _exec_block(self, block: ast.CompoundStmt,
                    *, new_scope: bool = True) -> None:
        frame = self._frames[-1]
        if new_scope:
            frame.push()
        try:
            index = 0
            items = block.items
            while index < len(items):
                try:
                    self._exec(items[index])
                except _Goto as goto:
                    target = self._find_label(items, goto.label)
                    if target is None:
                        raise
                    index = target
                    continue
                index += 1
        finally:
            if new_scope:
                frame.pop()

    @staticmethod
    def _find_label(items: list, label: str) -> int | None:
        for i, item in enumerate(items):
            node = item
            while isinstance(node, ast.LabelStmt):
                if node.name == label:
                    return i
                node = node.body
        return None

    def _exec_switch(self, stmt: ast.SwitchStmt) -> None:
        selector = self._as_int(self._eval(stmt.cond))
        body = stmt.body
        if not isinstance(body, ast.CompoundStmt):
            return
        # Locate the matching case (or default) among the top-level items.
        start = None
        default = None
        for i, item in enumerate(body.items):
            node = item
            while isinstance(node, (ast.CaseStmt, ast.DefaultStmt)):
                if isinstance(node, ast.DefaultStmt):
                    if default is None:
                        default = i
                    node = node.body
                else:
                    if start is None and \
                            self._as_int(self._eval(node.value)) == selector:
                        start = i
                        break
                    node = node.body
            if start is not None:
                break
        begin = start if start is not None else default
        if begin is None:
            return
        frame = self._frames[-1]
        frame.push()
        try:
            index = begin
            while index < len(body.items):
                try:
                    self._exec(body.items[index])
                except _Goto as goto:
                    target = self._find_label(body.items, goto.label)
                    if target is None:
                        raise
                    index = target
                    continue
                index += 1
        except _Break:
            pass
        finally:
            frame.pop()

    # ---------------------------------------------------------- expressions

    def _eval(self, expr: ast.Expression):
        # Same dispatch scheme as _exec: exact type -> handler.
        self.steps = steps = self.steps + 1
        if steps > self.step_limit:
            raise StepLimitExceeded(
                f"exceeded {self.step_limit} interpreter steps")
        handler = _EVAL_DISPATCH.get(expr.__class__)
        if handler is None:
            raise VMError(f"cannot evaluate {type(expr).__name__}")
        return handler(self, expr)

    def _eval_literal(self, expr):
        return expr.value

    def _eval_load_lvalue(self, expr):
        ptr, ctype = self._lvalue(expr)
        return self._load(ptr, ctype)

    def _eval_conditional(self, expr: ast.Conditional):
        if self._truthy(self._eval(expr.cond)):
            return self._eval(expr.then_expr)
        return self._eval(expr.else_expr)

    def _eval_cast(self, expr: ast.Cast):
        return self._convert(self._eval(expr.operand), expr.target_type)

    def _eval_sizeof_expr(self, expr: ast.SizeofExpr):
        ctype = expr.operand.ctype
        if ctype is None:
            raise VMError("sizeof on untyped expression")
        return self._sizeof(ctype)

    def _eval_sizeof_type(self, expr: ast.SizeofType):
        return self._sizeof(expr.target_type)

    def _eval_comma(self, expr: ast.Comma):
        self._eval(expr.lhs)
        return self._eval(expr.rhs)

    def _eval_init_list(self, expr: ast.InitList):
        # Compound literal in expression position: evaluate first item.
        return self._eval(expr.items[0]) if expr.items else 0

    def _eval_identifier(self, expr: ast.Identifier):
        name = expr.name
        location = self._lookup(name)
        if location is None:
            if name in self.functions or name in self.natives:
                return FuncRef(name)
            raise VMError(f"use of undeclared identifier {name!r}")
        ptr, ctype = location
        if isinstance(ctype, ArrayType):
            return ptr                  # decay
        return self._load(ptr, ctype)

    def _lookup(self, name: str) -> tuple[Pointer, CType] | None:
        if self._frames:
            found = self._frames[-1].lookup(name)
            if found is not None:
                return found
        if name in self.globals:
            return self.globals[name]
        # Enum constants live in expression position via symbols; the
        # parser resolves them into the tag scope, so fall through.
        return None

    def _string_pointer(self, expr: ast.StringLiteral) -> Pointer:
        cached = self._string_cache.get(expr.text)
        if cached is None:
            cached = self.memory.alloc_bytes(expr.value + b"\x00", "string",
                                             "literal")
            self._string_cache[expr.text] = cached
        return cached

    # lvalues ---------------------------------------------------------------

    def _lvalue(self, expr: ast.Expression) -> tuple[Pointer, CType]:
        if isinstance(expr, ast.Identifier):
            location = self._lookup(expr.name)
            if location is None:
                raise VMError(f"no storage for {expr.name!r}")
            return location
        if isinstance(expr, ast.ArrayAccess):
            base = self._eval(expr.base)
            index_value = self._eval(expr.index)
            elem = self._element_type(expr)
            if not isinstance(base, Pointer) and \
                    isinstance(index_value, Pointer):
                # C's commutative subscript: 1[buf] == buf[1].
                base, index_value = index_value, base
            if not isinstance(base, Pointer):
                raise VMError("subscript on non-pointer value")
            index = self._as_int(index_value)
            return base.moved(index * self._sizeof(elem)), elem
        if isinstance(expr, ast.FieldAccess):
            if expr.arrow:
                base_value = self._eval(expr.base)
                if not isinstance(base_value, Pointer):
                    raise VMError("-> on non-pointer value")
                base_ptr = base_value
                stype = self._pointee_struct(expr.base)
            else:
                base_ptr, base_type = self._lvalue(expr.base)
                stype = base_type
            if not isinstance(stype, StructType):
                raise VMError(f"member access on non-struct {stype}")
            offset, mtype = stype.member_offset(expr.member)
            return base_ptr.moved(offset), mtype
        if isinstance(expr, ast.Unary) and expr.op == "*":
            value = self._eval(expr.operand)
            if not isinstance(value, Pointer):
                raise VMError("dereference of non-pointer value")
            pointee = self._pointee_type(expr.operand)
            return value, pointee
        if isinstance(expr, ast.Cast):
            ptr, _ = self._lvalue(expr.operand)
            return ptr, expr.target_type
        raise VMError(f"not an lvalue: {type(expr).__name__}")

    def _element_type(self, expr: ast.ArrayAccess) -> CType:
        if expr.ctype is not None:
            return expr.ctype
        base_type = expr.base.ctype
        if base_type is not None:
            decayed = base_type.decay()
            if isinstance(decayed, PointerType):
                return decayed.pointee
        return CHAR

    def _pointee_type(self, operand: ast.Expression) -> CType:
        ctype = operand.ctype
        if ctype is not None:
            decayed = ctype.decay()
            if isinstance(decayed, PointerType):
                return decayed.pointee
        return CHAR

    def _pointee_struct(self, operand: ast.Expression) -> CType:
        pointee = self._pointee_type(operand)
        return pointee

    # unary/binary ----------------------------------------------------------

    def _eval_unary(self, expr: ast.Unary):
        op = expr.op
        if op == "&":
            operand = expr.operand
            if isinstance(operand, ast.Identifier) and \
                    self._lookup(operand.name) is None and \
                    (operand.name in self.functions or
                     operand.name in self.natives):
                return self._function_pointer(operand.name)
            ptr, _ = self._lvalue(operand)
            return ptr
        if op == "*":
            ptr, ctype = self._lvalue(expr)
            return self._load(ptr, ctype)
        if op in ("++", "--"):
            ptr, ctype = self._lvalue(expr.operand)
            old = self._load(ptr, ctype)
            delta = 1 if op == "++" else -1
            if isinstance(old, Pointer):
                pointee = ctype.pointee if isinstance(ctype, PointerType) \
                    else CHAR
                new = old.moved(delta * self._sizeof(pointee))
            else:
                new = old + delta
            self._store(ptr, ctype, new)
            return old if expr.is_postfix else self._load(ptr, ctype)
        value = self._eval(expr.operand)
        if op == "-":
            result = -self._as_number(value)
            return self._wrap_arith(result, expr)
        if op == "+":
            return self._as_number(value)
        if op == "~":
            return self._wrap_arith(~self._as_int(value), expr)
        if op == "!":
            return 0 if self._truthy(value) else 1
        raise VMError(f"unknown unary operator {op!r}")

    def _eval_binary(self, expr: ast.Binary):
        op = expr.op
        if op == "&&":
            if not self._truthy(self._eval(expr.lhs)):
                return 0
            return 1 if self._truthy(self._eval(expr.rhs)) else 0
        if op == "||":
            if self._truthy(self._eval(expr.lhs)):
                return 1
            return 1 if self._truthy(self._eval(expr.rhs)) else 0
        lhs = self._eval(expr.lhs)
        rhs = self._eval(expr.rhs)
        return self._binop(op, lhs, rhs, expr)

    def _binop(self, op: str, lhs, rhs, expr: ast.Binary):
        lhs_ptr = isinstance(lhs, Pointer)
        rhs_ptr = isinstance(rhs, Pointer)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return self._compare(op, lhs, rhs)
        if lhs_ptr or rhs_ptr:
            return self._pointer_arith(op, lhs, rhs, expr)
        lhs_n = self._as_number(lhs)
        rhs_n = self._as_number(rhs)
        if isinstance(lhs_n, float) or isinstance(rhs_n, float):
            return self._float_op(op, float(lhs_n), float(rhs_n))
        return self._int_op(op, lhs_n, rhs_n, expr)

    def _pointer_arith(self, op: str, lhs, rhs, expr: ast.Binary):
        if op == "-" and isinstance(lhs, Pointer) and \
                isinstance(rhs, Pointer):
            if lhs.block != rhs.block:
                raise MemoryFault("wild-pointer",
                                  "subtraction of unrelated pointers")
            size = self._sizeof(self._pointee_type(expr.lhs))
            return (lhs.offset - rhs.offset) // max(size, 1)
        if isinstance(lhs, Pointer) and not isinstance(rhs, Pointer):
            size = self._sizeof(self._pointee_type(expr.lhs))
            delta = self._as_int(rhs) * size
            return lhs.moved(delta if op == "+" else -delta)
        if isinstance(rhs, Pointer) and op == "+":
            size = self._sizeof(self._pointee_type(expr.rhs))
            return rhs.moved(self._as_int(lhs) * size)
        raise VMError(f"bad pointer arithmetic {op!r}")

    def _compare(self, op: str, lhs, rhs) -> int:
        if isinstance(lhs, Pointer) or isinstance(rhs, Pointer):
            lhs_k = self._pointer_key(lhs)
            rhs_k = self._pointer_key(rhs)
            table = {"==": lhs_k == rhs_k, "!=": lhs_k != rhs_k,
                     "<": lhs_k < rhs_k, ">": lhs_k > rhs_k,
                     "<=": lhs_k <= rhs_k, ">=": lhs_k >= rhs_k}
            return 1 if table[op] else 0
        lhs_n = self._as_number(lhs)
        rhs_n = self._as_number(rhs)
        table = {"==": lhs_n == rhs_n, "!=": lhs_n != rhs_n,
                 "<": lhs_n < rhs_n, ">": lhs_n > rhs_n,
                 "<=": lhs_n <= rhs_n, ">=": lhs_n >= rhs_n}
        return 1 if table[op] else 0

    @staticmethod
    def _pointer_key(value) -> tuple[int, int]:
        if isinstance(value, Pointer):
            return (value.block, value.offset)
        if isinstance(value, FuncRef):
            return (-1, hash(value.name) & 0xFFFF)
        return (0, int(value))

    def _int_op(self, op: str, lhs: int, rhs: int, expr: ast.Binary) -> int:
        if op in ("/", "%") and rhs == 0:
            raise MemoryFault("divide-by-zero", "integer division by zero")
        if op == "/":
            quotient = abs(lhs) // abs(rhs)
            result = quotient if (lhs >= 0) == (rhs >= 0) else -quotient
        elif op == "%":
            quotient = abs(lhs) // abs(rhs)
            signed_q = quotient if (lhs >= 0) == (rhs >= 0) else -quotient
            result = lhs - signed_q * rhs
        elif op == "+":
            result = lhs + rhs
        elif op == "-":
            result = lhs - rhs
        elif op == "*":
            result = lhs * rhs
        elif op == "<<":
            result = lhs << (rhs & 63)
        elif op == ">>":
            result = lhs >> (rhs & 63)
        elif op == "&":
            result = lhs & rhs
        elif op == "|":
            result = lhs | rhs
        elif op == "^":
            result = lhs ^ rhs
        else:
            raise VMError(f"unknown binary operator {op!r}")
        return self._wrap_arith(result, expr)

    @staticmethod
    def _float_op(op: str, lhs: float, rhs: float):
        if op in ("/",) and rhs == 0.0:
            return float("inf") if lhs > 0 else float("-inf") if lhs < 0 \
                else float("nan")
        table = {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs,
                 "/": lhs / rhs if rhs != 0.0 else 0.0}
        if op not in table:
            raise VMError(f"bad float operator {op!r}")
        return table[op]

    def _wrap_arith(self, value: int, expr: ast.Expression) -> int:
        ctype = expr.ctype
        if isinstance(ctype, (IntType, BoolType, EnumType)):
            return ctype.wrap(value)
        return IntType("long").wrap(value)

    # assignment ------------------------------------------------------------

    def _eval_assignment(self, expr: ast.Assignment):
        ptr, ctype = self._lvalue(expr.lhs)
        if expr.op == "=":
            value = self._eval(expr.rhs)
            self._store(ptr, ctype, value)
            return self._load(ptr, ctype) \
                if not isinstance(ctype, (ArrayType, StructType)) else value
        old = self._load(ptr, ctype)
        rhs = self._eval(expr.rhs)
        op = expr.op[:-1]
        if isinstance(old, Pointer):
            size = self._sizeof(ctype.pointee
                                if isinstance(ctype, PointerType) else CHAR)
            delta = self._as_int(rhs) * size
            new = old.moved(delta if op == "+" else -delta)
        else:
            new = self._binop(op, old, rhs, _FakeBinary(expr, op))
        self._store(ptr, ctype, new)
        return new

    # calls -----------------------------------------------------------------

    def _eval_call(self, expr: ast.Call):
        func = expr.func
        args = [self._eval(a) for a in expr.args]
        if isinstance(func, ast.Identifier):
            name = func.name
            location = self._lookup(name)
            if location is not None and \
                    isinstance(location[1], PointerType):
                target = self._load(*location)
                return self._call_value(target, args)
            return self.call_function(name, args)
        target = self._eval(func)
        return self._call_value(target, args)

    def _call_value(self, target, args):
        if isinstance(target, FuncRef):
            return self.call_function(target.name, args)
        if isinstance(target, Pointer):
            name = self._block_func.get(target.block)
            if name is not None:
                return self.call_function(name, args)
        raise VMError("call through non-function value")

    def _function_pointer(self, name: str) -> Pointer:
        found = self._func_blocks.get(name)
        if found is None:
            found = self.memory.alloc(1, "func", name)
            self._func_blocks[name] = found
            self._block_func[found.block] = name
        return found

    # va_list ---------------------------------------------------------------

    def _eval_va_arg(self, expr: ast.VaArg):
        ptr, _ = self._lvalue(expr.ap)
        state = self._valists.get(ptr.block)
        if state is None:
            raise VMError("va_arg on un-started va_list")
        return self._convert(state.next(), expr.target_type)

    def va_start(self, ap_ptr: Pointer) -> None:
        frame = self._frames[-1]
        self._valists[ap_ptr.block] = VaListState(frame.valist_args)

    def va_end(self, ap_ptr: Pointer) -> None:
        self._valists.pop(ap_ptr.block, None)

    def va_copy(self, dst_ptr: Pointer, src_ptr: Pointer) -> None:
        src = self._valists.get(src_ptr.block)
        if src is not None:
            self._valists[dst_ptr.block] = src.copy()

    def valist_for(self, value) -> VaListState:
        """Resolve a va_list argument value passed to a native (vsprintf)."""
        if isinstance(value, VaListState):
            return value
        if isinstance(value, Pointer):
            state = self._valists.get(value.block)
            if state is not None:
                return state
        raise VMError("expected a va_list value")

    # loads/stores ----------------------------------------------------------

    def _load(self, ptr: Pointer, ctype: CType):
        if isinstance(ctype, ArrayType):
            return ptr
        if isinstance(ctype, (IntType, BoolType, EnumType)):
            size = ctype.sizeof()
            signed = bool(getattr(ctype, "signed", True))
            return self.memory.read_int(ptr, size, signed)
        if isinstance(ctype, FloatType):
            raw = self.memory.read_bytes(ptr, ctype.sizeof())
            fmt = "<f" if ctype.kind == "float" else "<d"
            if ctype.kind == "long double":
                raw = raw[:8]
                fmt = "<d"
            return _struct.unpack(fmt, raw)[0]
        if isinstance(ctype, PointerType):
            raw = self.memory.read_int(ptr, 8, signed=False)
            decoded = decode_pointer(raw)
            if decoded is not None:
                return decoded
            return Pointer(0, raw)      # integer reinterpreted as pointer
        if isinstance(ctype, StructType):
            return StructValue(self.memory.read_bytes(ptr, ctype.sizeof()),
                               ctype)
        if isinstance(ctype, VaListType):
            return ptr
        raise VMError(f"cannot load type {ctype}")

    def _store(self, ptr: Pointer, ctype: CType, value) -> None:
        if isinstance(ctype, (IntType, BoolType, EnumType)):
            if isinstance(value, Pointer):
                self.memory.write_int(ptr, encode_pointer(value),
                                      ctype.sizeof())
                return
            if isinstance(value, float):
                value = int(value)
            self.memory.write_int(ptr, ctype.wrap(self._as_int(value)),
                                  ctype.sizeof())
            return
        if isinstance(ctype, FloatType):
            fmt = "<f" if ctype.kind == "float" else "<d"
            size = 4 if ctype.kind == "float" else 8
            raw = _struct.pack(fmt, float(self._as_number(value)))
            if ctype.kind == "long double":
                raw = raw + b"\x00" * 8
            self.memory.write_bytes(ptr, raw)
            return
        if isinstance(ctype, PointerType):
            if isinstance(value, FuncRef):
                value = self._function_pointer(value.name)
            if isinstance(value, Pointer):
                self.memory.write_int(ptr, encode_pointer(value), 8)
            else:
                self.memory.write_int(ptr, self._as_int(value), 8)
            return
        if isinstance(ctype, StructType):
            if isinstance(value, StructValue):
                self.memory.write_bytes(ptr, value.data[:ctype.sizeof()])
                return
            if isinstance(value, int) and value == 0:
                self.memory.write_bytes(ptr, bytes(ctype.sizeof()))
                return
            raise VMError(f"cannot store {value!r} into struct")
        if isinstance(ctype, ArrayType):
            if isinstance(value, Pointer):
                size = min(self._sizeof(ctype),
                           self.memory.block_of(value).size - value.offset)
                self.memory.write_bytes(ptr,
                                        self.memory.read_bytes(value, size))
                return
            raise VMError("cannot assign to array")
        if isinstance(ctype, VaListType):
            return      # va_list assignment handled via va_copy
        raise VMError(f"cannot store type {ctype}")

    # conversions -----------------------------------------------------------

    def _convert(self, value, ctype: CType):
        if isinstance(ctype, PointerType):
            if isinstance(value, Pointer):
                return value
            if isinstance(value, FuncRef):
                return self._function_pointer(value.name)
            return Pointer(0, self._as_int(value))
        if isinstance(ctype, (IntType, BoolType, EnumType)):
            if isinstance(value, Pointer):
                return ctype.wrap(encode_pointer(value))
            if isinstance(value, float):
                return ctype.wrap(int(value))
            return ctype.wrap(self._as_int(value))
        if isinstance(ctype, FloatType):
            return float(self._as_number(value))
        if isinstance(ctype, VoidType):
            return 0
        return value

    # helpers ---------------------------------------------------------------

    @staticmethod
    def _truthy(value) -> bool:
        if isinstance(value, Pointer):
            return not value.is_null
        if isinstance(value, FuncRef):
            return True
        if isinstance(value, StructValue):
            return True
        return bool(value)

    @staticmethod
    def _as_int(value) -> int:
        if isinstance(value, Pointer):
            return encode_pointer(value)
        if isinstance(value, float):
            return int(value)
        if isinstance(value, FuncRef):
            return 1
        return int(value)

    @staticmethod
    def _as_number(value):
        if isinstance(value, Pointer):
            return encode_pointer(value)
        if isinstance(value, (int, float)):
            return value
        if isinstance(value, FuncRef):
            return 1
        raise VMError(f"not a number: {value!r}")

    def _sizeof(self, ctype: CType) -> int:
        return ctype.sizeof()

    # stdio plumbing shared with libc ----------------------------------------

    def write_stdout(self, data: bytes) -> None:
        self.stdout.extend(data)


# Exact-type dispatch tables for the interpreter's two hot loops.  The
# AST hierarchy is flat (no concrete node subclasses another), so keying
# on the node class is equivalent to the isinstance chains it replaced.
_EXEC_DISPATCH = {
    ast.ExprStmt: Interpreter._exec_expr_stmt,
    ast.Declaration: Interpreter._exec_declaration,
    ast.CompoundStmt: Interpreter._exec_block,
    ast.IfStmt: Interpreter._exec_if,
    ast.WhileStmt: Interpreter._exec_while,
    ast.DoWhileStmt: Interpreter._exec_do_while,
    ast.ForStmt: Interpreter._exec_for,
    ast.ReturnStmt: Interpreter._exec_return,
    ast.BreakStmt: Interpreter._exec_break,
    ast.ContinueStmt: Interpreter._exec_continue,
    ast.SwitchStmt: Interpreter._exec_switch,
    ast.EmptyStmt: Interpreter._exec_empty,
    ast.LabelStmt: Interpreter._exec_labelled_body,
    ast.GotoStmt: Interpreter._exec_goto,
    ast.CaseStmt: Interpreter._exec_labelled_body,
    ast.DefaultStmt: Interpreter._exec_labelled_body,
}

_EVAL_DISPATCH = {
    ast.IntLiteral: Interpreter._eval_literal,
    ast.FloatLiteral: Interpreter._eval_literal,
    ast.CharLiteral: Interpreter._eval_literal,
    ast.StringLiteral: Interpreter._string_pointer,
    ast.Identifier: Interpreter._eval_identifier,
    ast.ArrayAccess: Interpreter._eval_load_lvalue,
    ast.FieldAccess: Interpreter._eval_load_lvalue,
    ast.Call: Interpreter._eval_call,
    ast.Unary: Interpreter._eval_unary,
    ast.Binary: Interpreter._eval_binary,
    ast.Assignment: Interpreter._eval_assignment,
    ast.Conditional: Interpreter._eval_conditional,
    ast.Cast: Interpreter._eval_cast,
    ast.SizeofExpr: Interpreter._eval_sizeof_expr,
    ast.SizeofType: Interpreter._eval_sizeof_type,
    ast.Comma: Interpreter._eval_comma,
    ast.VaArg: Interpreter._eval_va_arg,
    ast.InitList: Interpreter._eval_init_list,
}


class _FakeBinary:
    """Adapter giving _binop the typed context of a compound assignment."""

    def __init__(self, assignment: ast.Assignment, op: str):
        self.lhs = assignment.lhs
        self.rhs = assignment.rhs
        self.op = op
        self.ctype = assignment.lhs.ctype


def run_source(text: str, *, stdin: bytes = b"",
               step_limit: int = 5_000_000,
               mem_limit: int | None = None,
               entry: str = "main") -> ExecutionResult:
    """Parse preprocessed C text, type it, and run it.

    The parse/bind/typecheck prologue goes through the shared
    :class:`~repro.core.session.AnalysisSession` — running a text that a
    transformation just produced (or verified) reuses its cached unit.
    The interpreter treats the AST as read-only, so cached units are
    safe to execute any number of times.
    """
    from ..core.session import get_session
    parsed = get_session().parse(text, "<program>")
    interp = Interpreter([parsed.unit], stdin=stdin,
                         step_limit=step_limit, mem_limit=mem_limit)
    return interp.run(entry)


def run_program_files(files: dict[str, str], *, stdin: bytes = b"",
                      step_limit: int = 5_000_000,
                      mem_limit: int | None = None,
                      entry: str = "main") -> ExecutionResult:
    """Parse, link, and run several preprocessed translation units."""
    from ..core.session import get_session
    session = get_session()
    units = [session.parse(text, name).unit
             for name, text in files.items()]
    interp = Interpreter(units, stdin=stdin,
                         step_limit=step_limit, mem_limit=mem_limit)
    return interp.run(entry)
