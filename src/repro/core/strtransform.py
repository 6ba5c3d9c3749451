"""SAFE TYPE REPLACEMENT (STR) — paper §II-B and §III-C.

Replaces local ``char*`` / ``char[]`` variables with ``stralloc*`` safe
strings and rewrites every use site following the replacement patterns of
Table II.  Preconditions (paper §II-B2):

* the variable is a char pointer or char array;
* it is locally declared — never a global, function parameter, or struct
  member (STR must not edit external files);
* it is not used in an unsupported C library function;
* when passed to a user-defined function, the interprocedural analysis
  must show the callee does not write through it (§III-C); and
* (batch consistency) a variable assigned to/from another char buffer is
  transformable only if that buffer is transformed too — candidate groups
  connected by assignments succeed or fail together.

The paper reports STR replacing 100% of the variables that pass its
preconditions; this implementation queues no edits at all for a variable
unless every one of its uses matches a supported pattern, so a transformed
program always parses and preserves behaviour.
"""

from __future__ import annotations

from ..cfront import astnodes as ast
from ..cfront.ctypes_model import ArrayType, PointerType
from ..cfront.rewriter import line_indent
from ..analysis.libcinfo import is_known_libc
from ..analysis.symtab import Symbol
from .transform import (
    PRECONDITION_FAILED, SiteOutcome, TRANSFORMED, Transformation,
)

#: Table II in code form: pattern id -> short description.  The renderer
#: implements these; tests assert each one individually.
REPLACEMENT_PATTERNS: dict[int, str] = {
    1: "identifier expression: no change",
    2: "declaration statement -> stralloc declaration + init",
    3: "allocation of buffer -> member assignments",
    4: "assignment to null: no change",
    5: "assignment to other (transformed) buffer: no change",
    6: "assignment to string literal -> stralloc_copybuf",
    7: "assignment to cast expression -> analyze rhs",
    8: "increment expression -> stralloc_increment_by",
    9: "decrement expression -> stralloc_decrement_by",
    10: "binary expression: sizeof(buf) -> buf->a",
    11: "array access -> stralloc_get_dereferenced_char_at",
    12: "assignment to array element -> stralloc_dereference_replace_by",
    13: "array element to array element -> replace_by(get_char_at(...))",
    14: "dereference assignment -> stralloc_dereference_replace_by",
    15: "dereferenced assignment to binary expr -> replace_by",
    16: "argument in C library function: function dependent",
    17: "argument in user-defined function -> foo(buf->s) if safe",
    18: "conditional/iteration statement: examine and replace expression",
}

# C library functions STR supports when a transformed buffer appears in
# them, with how each argument position is handled:
#   'dest'  — the buffer is written: a stralloc_* analog replaces the call
#   'read'  — the buffer is only read: pass buf->s (or buf->len for strlen)
_SUPPORTED_LIBC: dict[str, str] = {
    "strlen": "strlen",          # strlen(buf) -> buf->len
    "strcpy": "copy",            # strcpy(buf, x) -> stralloc_copys/copybuf
    "strcat": "cat",
    "memset": "memset",
    "memcpy": "memcpy",
    "strcmp": "readonly",
    "strncmp": "readonly",
    "strchr": "readonly",
    "strrchr": "readonly",
    "strstr": "readonly",
    "printf": "readonly",
    "fprintf": "readonly",
    "puts": "readonly",
    "fputs": "readonly",
    "sscanf": "readonly",
    "atoi": "readonly",
    "atol": "readonly",
    "atof": "readonly",
    "free": "free",              # free(buf) -> stralloc_free(buf)
}


class _Candidate:
    """One local char buffer variable under consideration."""

    __slots__ = ("symbol", "declarator", "declaration", "function",
                 "uses", "failure", "group")

    def __init__(self, symbol: Symbol, declarator: ast.Declarator,
                 declaration: ast.Declaration, function: ast.FunctionDef):
        self.symbol = symbol
        self.declarator = declarator
        self.declaration = declaration
        self.function = function
        self.uses: list[ast.Identifier] = []
        self.failure: tuple[str, str] | None = None
        self.group: set[int] = {symbol.uid}

    @property
    def name(self) -> str:
        return self.symbol.name

    @property
    def is_array(self) -> bool:
        return isinstance(self.symbol.ctype, ArrayType)

    @property
    def array_length(self) -> int | None:
        ctype = self.symbol.ctype
        return ctype.length if isinstance(ctype, ArrayType) else None

    def fail(self, reason: str, detail: str) -> None:
        if self.failure is None:
            self.failure = (reason, detail)


class SafeTypeReplacement(Transformation):
    """Batch (or single-variable) application of STR."""

    name = "STR"

    def __init__(self, text: str, filename: str = "<unit>", **kwargs):
        super().__init__(text, filename, **kwargs)
        self._accepted: dict[int, _Candidate] = {}
        self._any_transformed = False

    # ------------------------------------------------------------- targets

    def find_targets(self) -> list[_Candidate]:
        candidates: list[_Candidate] = []
        for fn in self.unit.functions():
            for node in fn.body.walk():
                if not isinstance(node, ast.Declaration):
                    continue
                for declarator in node.declarators:
                    symbol = declarator.symbol
                    if symbol is None or not symbol.is_local:
                        continue
                    if _is_char_buffer(symbol.ctype):
                        candidates.append(
                            _Candidate(symbol, declarator, node, fn))
        return candidates

    # --------------------------------------------------------------- driver

    def run(self, targets=None):
        candidates = targets if targets is not None else self.find_targets()
        by_uid = {c.symbol.uid: c for c in candidates}

        self._collect_uses(by_uid)
        for candidate in candidates:
            self._check_init(candidate, by_uid)
            self._check_preconditions(candidate, by_uid)
        self._propagate_group_failures(candidates, by_uid)

        self._accepted = {c.symbol.uid: c for c in candidates
                          if c.failure is None}
        for candidate in candidates:
            base = dict(transformation=self.name, target=candidate.name,
                        function=candidate.function.name,
                        line=self.line_of(candidate.declarator))
            if candidate.failure is None:
                self.outcomes.append(SiteOutcome(**base, status=TRANSFORMED))
            else:
                reason, detail = candidate.failure
                self.outcomes.append(SiteOutcome(
                    **base, status=PRECONDITION_FAILED, reason=reason,
                    detail=detail))

        self._rewrite()
        return self._result()

    # ------------------------------------------------------------ use scan

    def _collect_uses(self, by_uid: dict[int, _Candidate]) -> None:
        for fn in self.unit.functions():
            for node in fn.body.walk():
                if isinstance(node, ast.Identifier) and \
                        node.symbol is not None and \
                        node.symbol.uid in by_uid:
                    by_uid[node.symbol.uid].uses.append(node)

    # ------------------------------------------------------- preconditions

    def _check_init(self, candidate: _Candidate,
                    by_uid: dict[int, _Candidate]) -> None:
        """The declarator's initializer must itself be a Table II pattern."""
        init = candidate.declarator.init
        if init is None:
            return
        stripped = _strip_casts(init)
        if isinstance(stripped, (ast.StringLiteral, ast.InitList)):
            return
        if _is_null(stripped):
            return
        if isinstance(stripped, ast.Call) and \
                stripped.callee_name in ("malloc", "calloc", "alloca"):
            return
        if isinstance(stripped, ast.Identifier) and \
                stripped.symbol is not None and \
                stripped.symbol.uid in by_uid:
            candidate.group.add(stripped.symbol.uid)
            return
        candidate.fail(
            "unsupported-assignment",
            f"{candidate.name} initialized from a "
            f"{type(stripped).__name__}, not a Table II pattern")

    def _check_preconditions(self, candidate: _Candidate,
                             by_uid: dict[int, _Candidate]) -> None:
        for use in candidate.uses:
            self._check_use(candidate, use, by_uid)

    def _check_use(self, candidate: _Candidate, use: ast.Identifier,
                   by_uid: dict[int, _Candidate]) -> None:
        parent = use.parent
        name = candidate.name

        # Address of the buffer variable itself escapes its representation.
        if isinstance(parent, ast.Unary) and parent.op == "&":
            candidate.fail("address-taken", f"&{name} escapes")
            return
        if isinstance(parent, ast.ReturnStmt):
            candidate.fail("returned", f"{name} is returned from "
                           f"{candidate.function.name}")
            return
        if isinstance(parent, ast.Call):
            self._check_call_use(candidate, use, parent, by_uid)
            return
        if isinstance(parent, ast.Assignment):
            if parent.lhs is use and parent.op == "=":
                self._check_assigned_value(candidate, parent.rhs, by_uid)
                return
            if parent.lhs is use and parent.op in ("+=", "-="):
                return      # patterns 8/9
            if parent.rhs is use:
                # buf appears as a whole on some RHS: fine when the LHS is
                # a transformed buffer (pattern 5) or when buf->s
                # substitution is safe (read-only flow into non-pointer).
                lhs = parent.lhs
                if isinstance(lhs, ast.Identifier) and \
                        lhs.symbol is not None:
                    if lhs.symbol.uid in by_uid:
                        candidate.group.add(lhs.symbol.uid)
                        return
                    lhs_type = lhs.symbol.ctype
                    if isinstance(lhs_type, (PointerType, ArrayType)):
                        candidate.fail(
                            "escapes-assignment",
                            f"{name} assigned to untransformed pointer "
                            f"{lhs.symbol.name}")
                    return
                return
        # Uses nested inside a call argument (e.g. memset(buf - 1, ...)):
        # the rewrite passes a raw derived pointer, which is only safe in
        # read-only positions.
        call = use.find_ancestor(ast.Call)
        if call is not None:
            containing = next((i for i, a in enumerate(call.args)
                               if a is use or _contains(a, use)), None)
            if containing is not None and call.args[containing] is not use:
                callee = call.callee_name
                if callee is None:
                    candidate.fail("indirect-call",
                                   f"{name} passed through a function "
                                   f"pointer")
                elif is_known_libc(callee):
                    from ..analysis.libcinfo import libc_writes_through
                    if libc_writes_through(callee, containing):
                        candidate.fail(
                            "unsupported-libfn",
                            f"derived pointer of {name} written by "
                            f"{callee}")
                elif self.analysis.interproc.call_may_write_arg(
                        call, containing):
                    candidate.fail(
                        "callee-may-write",
                        f"{callee}() may modify {name} through a derived "
                        f"pointer")

    def _check_assigned_value(self, candidate: _Candidate,
                              rhs: ast.Expression,
                              by_uid: dict[int, _Candidate]) -> None:
        rhs = _strip_casts(rhs)
        if isinstance(rhs, ast.Identifier) and rhs.symbol is not None:
            if rhs.symbol.uid in by_uid:
                candidate.group.add(rhs.symbol.uid)     # pattern 5
                return
            if _is_char_buffer(rhs.symbol.ctype):
                candidate.fail(
                    "source-not-transformed",
                    f"{candidate.name} assigned from untransformed buffer "
                    f"{rhs.symbol.name}")
            return
        if _is_null(rhs) or isinstance(rhs, ast.StringLiteral):
            return                                      # patterns 4 and 6
        if isinstance(rhs, ast.Call):
            callee = rhs.callee_name
            if callee in ("malloc", "calloc", "alloca"):
                stmt = rhs.find_ancestor(ast.ExprStmt)
                assign = rhs.parent
                if not (isinstance(assign, ast.Assignment) and
                        isinstance(assign.parent, ast.ExprStmt)):
                    candidate.fail(
                        "nested-allocation",
                        f"{candidate.name} allocated inside a larger "
                        f"expression")
                return                                  # pattern 3
            candidate.fail("assigned-from-call",
                           f"{candidate.name} = {callee}(...) has no "
                           f"stralloc analog")
            return
        if isinstance(rhs, ast.Binary) and rhs.op in ("+", "-"):
            base = _strip_casts(rhs.lhs)
            if isinstance(base, ast.Identifier) and base.symbol is not None \
                    and base.symbol.uid in by_uid:
                return      # buf = buf2 + n handled via increment pattern
        candidate.fail("unsupported-assignment",
                       f"{candidate.name} = <{type(rhs).__name__}> not a "
                       f"Table II pattern")

    def _check_call_use(self, candidate: _Candidate, use: ast.Identifier,
                        call: ast.Call,
                        by_uid: dict[int, _Candidate]) -> None:
        callee = call.callee_name
        if callee is None:
            candidate.fail("indirect-call",
                           f"{candidate.name} passed through a function "
                           f"pointer")
            return
        arg_index = next((i for i, a in enumerate(call.args) if a is use),
                         None)
        if arg_index is None:       # the use is nested deeper in an arg
            return
        if is_known_libc(callee):
            if callee in _SUPPORTED_LIBC:
                return
            # Other known libc functions are fine in read-only positions
            # (the call gets buf->s); a *written* position has no stralloc
            # analog, so the precondition fails (paper: "not used in an
            # unsupported C library function").
            from ..analysis.libcinfo import libc_writes_through
            if libc_writes_through(callee, arg_index):
                candidate.fail(
                    "unsupported-libfn",
                    f"{candidate.name} written by unsupported C library "
                    f"function {callee}")
            return
        # User-defined function: interprocedural write check (§III-C).
        if self.analysis.interproc.call_may_write_arg(call, arg_index):
            candidate.fail(
                "callee-may-write",
                f"{callee}() may modify {candidate.name} through "
                f"parameter {arg_index}")

    def _propagate_group_failures(self, candidates: list[_Candidate],
                                  by_uid: dict[int, _Candidate]) -> None:
        # Union groups to a fixed point, then fail whole groups together.
        changed = True
        while changed:
            changed = False
            for candidate in candidates:
                merged = set(candidate.group)
                for uid in candidate.group:
                    other = by_uid.get(uid)
                    if other is not None:
                        merged |= other.group
                if merged != candidate.group:
                    candidate.group = merged
                    changed = True
        for candidate in candidates:
            if candidate.failure is not None:
                continue
            for uid in candidate.group:
                other = by_uid.get(uid)
                if other is not None and other.failure is not None:
                    candidate.fail(
                        "group-member-failed",
                        f"{candidate.name} is assignment-connected to "
                        f"{other.name} ({other.failure[0]})")
                    break

    # -------------------------------------------------------------- rewrite

    def _rewrite(self) -> None:
        if not self._accepted:
            return
        self._any_transformed = True
        rewritten_decls: set[int] = set()
        for candidate in self._accepted.values():
            if id(candidate.declaration) not in rewritten_decls:
                self._rewrite_declaration(candidate.declaration)
                rewritten_decls.add(id(candidate.declaration))
        # Rewrite use sites statement by statement.
        for fn in self.unit.functions():
            self._rewrite_statements(fn.body)

    # ----- declarations (pattern 2, with array capacity and initializers)

    def _rewrite_declaration(self, decl: ast.Declaration) -> None:
        indent = line_indent(self.text, decl.extent.start)
        kept: list[str] = []
        names: list[str] = []
        shadows: list[str] = []
        inits: list[str] = []

        prefix = self.text[decl.extent.start:
                           decl.declarators[0].extent.start].rstrip()
        for declarator in decl.declarators:
            symbol = declarator.symbol
            if symbol is None or symbol.uid not in self._accepted:
                kept.append(f"{prefix} {self.src(declarator)};")
                continue
            name = declarator.name
            names.append(name)
            shadows.append(f"ssss_{name} = {{0,0,0}}")
            inits.append(f"{name} = &ssss_{name};")
            candidate = self._accepted[symbol.uid]
            if candidate.is_array and candidate.array_length is not None:
                inits.append(f"{name}->a = {candidate.array_length};")
            if declarator.init is not None:
                inits.extend(self._init_statements(name, declarator.init))

        lines: list[str] = []
        lines.extend(kept)
        if names:
            lines.append("stralloc " +
                         ", ".join(f"*{n}" for n in names) + ";")
            lines.append("stralloc " + ", ".join(shadows) + ";")
            lines.extend(inits)
        body = ("\n" + indent).join(lines)
        self.rewriter.replace(decl.extent, body)

    def _init_statements(self, name: str, init: ast.Expression) -> list[str]:
        init = _strip_casts(init)
        if isinstance(init, ast.StringLiteral):
            text = init.text
            return [f"stralloc_copybuf({name}, {text}, strlen({text}));"]
        if isinstance(init, ast.Call) and \
                init.callee_name in ("malloc", "calloc", "alloca"):
            size = self._allocation_size_text(init)
            return [f"{name}->s = malloc({size});",
                    f"{name}->f = {name}->s;",
                    f"{name}->a = {size};"]
        if _is_null(init):
            return []
        if isinstance(init, ast.Identifier) and init.symbol is not None \
                and init.symbol.uid in self._accepted:
            return [f"{name} = {init.name};"]
        if isinstance(init, ast.InitList):
            # char buf[N] = {...}: write elements one by one.
            out = []
            for i, item in enumerate(init.items):
                out.append(f"stralloc_dereference_replace_by({name}, {i}, "
                           f"{self._render(item)});")
            return out
        return [f"stralloc_copys({name}, {self._render(init)});"]

    def _allocation_size_text(self, call: ast.Call) -> str:
        if call.callee_name == "calloc" and len(call.args) == 2:
            return (f"({self._render(call.args[0])}) * "
                    f"({self._render(call.args[1])})")
        if call.args:
            return self._render(call.args[0])
        return "0"

    # -------------------------------------------------- statement rewriting

    def _rewrite_statements(self, node: ast.Node) -> None:
        if isinstance(node, ast.CompoundStmt):
            for item in node.items:
                self._rewrite_statements(item)
        elif isinstance(node, ast.ExprStmt):
            if node.expr is not None:
                self._replace_expr(node.expr)
        elif isinstance(node, ast.IfStmt):
            self._replace_expr(node.cond)
            self._rewrite_statements(node.then_stmt)
            if node.else_stmt is not None:
                self._rewrite_statements(node.else_stmt)
        elif isinstance(node, ast.WhileStmt):
            self._replace_expr(node.cond)
            self._rewrite_statements(node.body)
        elif isinstance(node, ast.DoWhileStmt):
            self._rewrite_statements(node.body)
            self._replace_expr(node.cond)
        elif isinstance(node, ast.ForStmt):
            if isinstance(node.init, ast.ExprStmt) and \
                    node.init.expr is not None:
                self._replace_expr(node.init.expr)
            elif isinstance(node.init, ast.Declaration):
                pass        # declarations handled in _rewrite_declaration
            if node.cond is not None:
                self._replace_expr(node.cond)
            if node.advance is not None:
                self._replace_expr(node.advance)
            self._rewrite_statements(node.body)
        elif isinstance(node, ast.ReturnStmt):
            if node.value is not None:
                self._replace_expr(node.value)
        elif isinstance(node, ast.SwitchStmt):
            self._replace_expr(node.cond)
            self._rewrite_statements(node.body)
        elif isinstance(node, (ast.CaseStmt, ast.DefaultStmt,
                               ast.LabelStmt)):
            self._rewrite_statements(node.body)
        elif isinstance(node, ast.Declaration):
            # Declarations of *other* variables may still use the buffer in
            # their initializers.
            if not any(d.symbol is not None and
                       d.symbol.uid in self._accepted
                       for d in node.declarators):
                for declarator in node.declarators:
                    if declarator.init is not None:
                        self._replace_expr(declarator.init)

    def _replace_expr(self, expr: ast.Expression) -> None:
        if not self._involves_candidate(expr):
            return
        rendered = self._render(expr)
        if rendered != self.src(expr):
            self.rewriter.replace(expr.extent, rendered)

    def _involves_candidate(self, expr: ast.Node) -> bool:
        return any(isinstance(n, ast.Identifier) and n.symbol is not None
                   and n.symbol.uid in self._accepted
                   for n in expr.walk())

    # ------------------------------------------------------------ rendering

    def _render(self, expr: ast.Expression) -> str:
        """Render an expression with Table II patterns applied."""
        if not self._involves_candidate(expr):
            return self.src(expr)

        if isinstance(expr, ast.Assignment):
            return self._render_assignment(expr)

        if isinstance(expr, ast.Unary) and expr.op in ("++", "--"):
            target = _strip_casts(expr.operand)
            if self._candidate_of(target) is not None:
                fn = "stralloc_increment_by" if expr.op == "++" \
                    else "stralloc_decrement_by"
                return f"{fn}({self._cand_name(target)}, 1)"     # 8 / 9
            # (*buf)++ and buf[i]++ fall back to read+write pairs.
            inner = self._deref_target(expr.operand)
            if inner is not None:
                name, index = inner
                op = "+" if expr.op == "++" else "-"
                return (f"stralloc_dereference_replace_by({name}, {index}, "
                        f"stralloc_get_dereferenced_char_at({name}, "
                        f"{index}) {op} 1)")
            return self._render_generic(expr)

        if isinstance(expr, ast.ArrayAccess):
            base = _strip_casts(expr.base)
            if self._candidate_of(base) is not None:             # 11
                return (f"stralloc_get_dereferenced_char_at("
                        f"{self._cand_name(base)}, "
                        f"{self._render(expr.index)})")
            return self._render_generic(expr)

        if isinstance(expr, ast.Unary) and expr.op == "*":
            inner = self._deref_target(expr)
            if inner is not None:
                name, index = inner
                return (f"stralloc_get_dereferenced_char_at({name}, "
                        f"{index})")
            return self._render_generic(expr)

        if isinstance(expr, ast.SizeofExpr):
            target = _strip_casts(expr.operand)
            if self._candidate_of(target) is not None:           # 10
                return f"{self._cand_name(target)}->a"
            return self._render_generic(expr)

        if isinstance(expr, ast.Call):
            return self._render_call(expr)

        if isinstance(expr, ast.Identifier):
            candidate = self._candidate_of(expr)
            if candidate is not None:
                # Bare identifier in an rvalue context: the raw data
                # pointer (read-only contexts passed the feasibility scan).
                return f"{expr.name}->s"
            return self.src(expr)

        return self._render_generic(expr)

    def _render_assignment(self, expr: ast.Assignment) -> str:
        lhs = expr.lhs
        lhs_stripped = _strip_casts(lhs)

        # Compound assignment on the buffer pointer: patterns 8/9.
        if expr.op in ("+=", "-=") and \
                self._candidate_of(lhs_stripped) is not None:
            fn = "stralloc_increment_by" if expr.op == "+=" \
                else "stralloc_decrement_by"
            return (f"{fn}({self._cand_name(lhs_stripped)}, "
                    f"{self._render(expr.rhs)})")

        if expr.op != "=":
            return self._render_generic(expr)

        # buf = ... (patterns 3, 4, 5, 6, 7)
        if self._candidate_of(lhs_stripped) is not None:
            name = self._cand_name(lhs_stripped)
            rhs = _strip_casts(expr.rhs)
            if _is_null(rhs):                                     # 4
                return self.src(expr)
            if isinstance(rhs, ast.Identifier) and \
                    self._candidate_of(rhs) is not None:          # 5
                return f"{name} = {rhs.name}"
            if isinstance(rhs, ast.StringLiteral):                # 6
                return (f"stralloc_copybuf({name}, {rhs.text}, "
                        f"strlen({rhs.text}))")
            if isinstance(rhs, ast.Call) and \
                    rhs.callee_name in ("malloc", "calloc", "alloca"):
                size = self._allocation_size_text(rhs)            # 3
                return (f"({name}->s = malloc({size}), "
                        f"{name}->f = {name}->s, {name}->a = {size})")
            if isinstance(rhs, ast.Binary) and rhs.op in ("+", "-"):
                base = _strip_casts(rhs.lhs)
                if isinstance(base, ast.Identifier) and \
                        self._candidate_of(base) is not None:
                    fn = "stralloc_increment_by" if rhs.op == "+" \
                        else "stralloc_decrement_by"
                    prefix = "" if base.name == name else \
                        f"{name} = {base.name}, "
                    return (f"({prefix}{fn}({name}, "
                            f"{self._render(rhs.rhs)}))")
            return self._render_generic(expr)

        # buf[i] = v and *(buf+k) = v (patterns 12-15)
        if isinstance(lhs_stripped, ast.ArrayAccess):
            base = _strip_casts(lhs_stripped.base)
            if self._candidate_of(base) is not None:
                return (f"stralloc_dereference_replace_by("
                        f"{self._cand_name(base)}, "
                        f"{self._render(lhs_stripped.index)}, "
                        f"{self._render(expr.rhs)})")
        if isinstance(lhs_stripped, ast.Unary) and lhs_stripped.op == "*":
            inner = self._deref_target(lhs_stripped)
            if inner is not None:
                name, index = inner
                return (f"stralloc_dereference_replace_by({name}, {index}, "
                        f"{self._render(expr.rhs)})")
        return self._render_generic(expr)

    def _render_call(self, call: ast.Call) -> str:
        callee = call.callee_name
        args = call.args

        def cand(i: int) -> _Candidate | None:
            return self._candidate_of(_strip_casts(args[i])) \
                if i < len(args) else None

        if callee == "strlen" and len(args) == 1 and cand(0) is not None:
            return f"{self._cand_name(args[0])}->len"             # 16
        if callee == "strcpy" and len(args) == 2 and cand(0) is not None:
            dest = self._cand_name(args[0])
            if cand(1) is not None:
                src = self._cand_name(args[1])
                return f"stralloc_copybuf({dest}, {src}->s, {src}->len)"
            return f"stralloc_copys({dest}, {self._render(args[1])})"
        if callee == "strcat" and len(args) == 2 and cand(0) is not None:
            dest = self._cand_name(args[0])
            if cand(1) is not None:
                src = self._cand_name(args[1])
                return f"stralloc_catbuf({dest}, {src}->s, {src}->len)"
            return f"stralloc_cats({dest}, {self._render(args[1])})"
        if callee == "memset" and len(args) == 3 and cand(0) is not None:
            return (f"stralloc_memset({self._cand_name(args[0])}, "
                    f"{self._render(args[1])}, {self._render(args[2])})")
        if callee == "memcpy" and len(args) == 3 and cand(0) is not None:
            dest = self._cand_name(args[0])
            source = _strip_casts(args[1])
            if self._candidate_of(source) is not None:
                src = self._cand_name(source)
                return (f"stralloc_copybuf({dest}, {src}->s, "
                        f"{self._render(args[2])})")
            return (f"stralloc_copybuf({dest}, {self._render(args[1])}, "
                    f"{self._render(args[2])})")
        if callee == "free" and len(args) == 1 and cand(0) is not None:
            return f"stralloc_free({self._cand_name(args[0])})"
        # Anything else — libc read-only positions and user-defined
        # functions that passed the write check — takes the raw data
        # pointer (pattern 17: foo(buf) -> foo(buf->s)).
        return self._render_generic(call)

    def _render_generic(self, expr: ast.Expression) -> str:
        """Rebuild this expression's text, splicing in rendered children."""
        pieces: list[tuple[int, int, str]] = []
        for child in expr.children():
            if isinstance(child, ast.Expression) and \
                    self._involves_candidate(child):
                pieces.append((child.extent.start, child.extent.end,
                               self._render(child)))
        if not pieces:
            return self.src(expr)
        pieces.sort()
        base = expr.extent.start
        text = self.src(expr)
        out: list[str] = []
        cursor = 0
        for start, end, replacement in pieces:
            out.append(text[cursor:start - base])
            out.append(replacement)
            cursor = end - base
        out.append(text[cursor:])
        return "".join(out)

    # -------------------------------------------------------------- helpers

    def _candidate_of(self, expr: ast.Node) -> _Candidate | None:
        if isinstance(expr, ast.Identifier) and expr.symbol is not None:
            return self._accepted.get(expr.symbol.uid)
        return None

    def _cand_name(self, expr: ast.Node) -> str:
        stripped = _strip_casts(expr)
        assert isinstance(stripped, ast.Identifier)
        return stripped.name

    def _deref_target(self, expr: ast.Node) -> tuple[str, str] | None:
        """Match *(buf + k) / *buf for a candidate buf; returns (name,
        index_text)."""
        if not (isinstance(expr, ast.Unary) and expr.op == "*"):
            return None
        inner = _strip_casts(expr.operand)
        if self._candidate_of(inner) is not None:
            return (self._cand_name(inner), "0")
        if isinstance(inner, ast.Binary) and inner.op in ("+", "-"):
            base = _strip_casts(inner.lhs)
            if self._candidate_of(base) is not None:
                offset = self._render(inner.rhs)
                if inner.op == "-":
                    offset = f"-({offset})"
                return (self._cand_name(base), offset)
        return None

    def finalize(self) -> None:
        for block in finalize_blocks(self.text, self._any_transformed):
            self.rewriter.insert_before(0, block)


def finalize_blocks(text: str, any_transformed: bool) -> list[str]:
    """The finalize-stage blocks STR inserts at offset 0, as a pure
    function of the input text and whether any site was rewritten —
    shared with the incremental engine, which reconstructs the block
    from cached per-function outcomes."""
    if not any_transformed:
        return []
    if "stralloc_ready" in text:
        return []       # stralloc.h already included / previously added
    from .stralloc import STRALLOC_DECLARATIONS
    return ["/* Declarations added by SAFE TYPE REPLACEMENT. */\n"
            + STRALLOC_DECLARATIONS + "\n"]


def _contains(root: ast.Node, target: ast.Node) -> bool:
    return any(node is target for node in root.walk())


def _is_char_buffer(ctype) -> bool:
    """Plain ``char`` buffers only: STR replaces *string* buffers.

    ``unsigned char`` arrays are byte buffers (checksums, pixel rows, wire
    data), not C strings — replacing them with a string type would change
    their meaning, so they are not candidates.
    """
    if isinstance(ctype, PointerType):
        element = ctype.pointee
    elif isinstance(ctype, ArrayType):
        element = ctype.element
    else:
        return False
    return element.is_char and getattr(element, "signed", True)


def _is_null(expr: ast.Node) -> bool:
    expr_inner = expr
    while isinstance(expr_inner, ast.Cast):
        expr_inner = expr_inner.operand
    return isinstance(expr_inner, ast.IntLiteral) and expr_inner.value == 0


def _strip_casts(expr: ast.Node) -> ast.Node:
    while isinstance(expr, ast.Cast):
        expr = expr.operand
    return expr


def apply_str(text: str, filename: str = "<unit>"):
    """Convenience: run STR over all local char buffers in ``text``."""
    return SafeTypeReplacement(text, filename).run()
