"""SAFE LIBRARY REPLACEMENT (SLR) — paper §II-A and §III-B.

Replaces the six unsafe functions the paper targets with bounds-aware
alternatives, computing the destination buffer's size via Algorithm 1:

====================  ==========================================
unsafe                safe replacement
====================  ==========================================
``strcpy(d, s)``      ``g_strlcpy(d, s, LEN)``
``strcat(d, s)``      ``g_strlcat(d, s, LEN)``
``sprintf(d, f, …)``  ``g_snprintf(d, LEN, f, …)``
``vsprintf(d, f, a)`` ``g_vsnprintf(d, LEN, f, a)``
``gets(d)``           ``fgets(d, LEN, stdin)`` + newline strip
``memcpy(d, s, n)``   length clamped to LEN (Option 1 assigns the
                      length variable beforehand when it is used
                      later; Option 2 inlines a ternary)
====================  ==========================================

LEN is ``sizeof(buf)`` for static buffers and ``malloc_usable_size(p)``
for heap buffers (Algorithm 1).  When the buffer size cannot be
established, the precondition fails and the site is left untouched — the
failure reason is recorded for the evaluation tables.

Two *replacement profiles* implement Table I's alternative families:

* ``profile="glib"`` (default, the paper's Linux implementation):
  truncating glib functions, shown above;
* ``profile="c11"`` — ISO/IEC TR 24731 / C11 Annex K bounds-checked
  functions (``strcpy_s``, ``strcat_s``, ``sprintf_s``, ``vsprintf_s``,
  ``memcpy_s``, ``gets_s``), whose runtime-constraint semantics *reject*
  an oversized operation (empty destination, nonzero errno_t) instead of
  truncating — the paper's "Windows analogs can be implemented" remark.
"""

from __future__ import annotations

import re

from ..cfront import astnodes as ast
from ..cfront.rewriter import end_of_line, line_indent
from .bufferlen import BufferLength, BufferLengthAnalyzer, LengthFailure
from .transform import (
    PRECONDITION_FAILED, SiteOutcome, TRANSFORMED, Transformation,
)

#: Table I (excerpt): the unsafe functions SLR replaces and their safe
#: glib/C99 alternatives (the default profile).
SAFE_ALTERNATIVES: dict[str, str] = {
    "strcpy": "g_strlcpy",
    "strcat": "g_strlcat",
    "sprintf": "g_snprintf",
    "vsprintf": "g_vsnprintf",
    "gets": "fgets",
    "memcpy": "memcpy",        # kept, with a clamped length parameter
}

#: Table I: the ISO/IEC TR 24731 (C11 Annex K) alternative family.
C11_ALTERNATIVES: dict[str, str] = {
    "strcpy": "strcpy_s",
    "strcat": "strcat_s",
    "sprintf": "sprintf_s",
    "vsprintf": "vsprintf_s",
    "gets": "gets_s",
    "memcpy": "memcpy_s",
}

PROFILES = ("glib", "c11")

UNSAFE_FUNCTIONS = frozenset(SAFE_ALTERNATIVES)

# Declarations injected into the transformed (preprocessed) text when the
# program did not already declare the safe alternatives — the moral
# equivalent of the paper adding '-lglib-2.0' to the Makefile plus the
# header include.
_DECLARATIONS: dict[str, str] = {
    "g_strlcpy": "unsigned long g_strlcpy(char *dest, const char *src, "
                 "unsigned long dest_size);",
    "g_strlcat": "unsigned long g_strlcat(char *dest, const char *src, "
                 "unsigned long dest_size);",
    "g_snprintf": "int g_snprintf(char *string, unsigned long n, "
                  "const char *format, ...);",
    "g_vsnprintf": "int g_vsnprintf(char *string, unsigned long n, "
                   "const char *format, __builtin_va_list args);",
    "malloc_usable_size":
        "unsigned long malloc_usable_size(void *ptr);",
    "strchr": "char *strchr(const char *s, int c);",
    "strcspn": "unsigned long strcspn(const char *s, const char *reject);",
    "strcpy_s": "int strcpy_s(char *dest, unsigned long destsz, "
                "const char *src);",
    "strcat_s": "int strcat_s(char *dest, unsigned long destsz, "
                "const char *src);",
    "sprintf_s": "int sprintf_s(char *dest, unsigned long destsz, "
                 "const char *format, ...);",
    "vsprintf_s": "int vsprintf_s(char *dest, unsigned long destsz, "
                  "const char *format, __builtin_va_list args);",
    "memcpy_s": "int memcpy_s(void *dest, unsigned long destsz, "
                "const void *src, unsigned long n);",
    "gets_s": "char *gets_s(char *dest, unsigned long destsz);",
}


class SafeLibraryReplacement(Transformation):
    """Batch (or single-site) application of SLR to one translation unit."""

    name = "SLR"

    def __init__(self, text: str, filename: str = "<unit>",
                 profile: str = "glib", *, check_aliases: bool = True,
                 memcpy_option1: bool = True,
                 fix_ternary_alloc: bool = False,
                 reserved_names: frozenset = frozenset(), **kwargs):
        super().__init__(text, filename, **kwargs)
        if profile not in PROFILES:
            raise ValueError(f"unknown SLR profile {profile!r}; "
                             f"choose from {PROFILES}")
        self.profile = profile
        self.alternatives = SAFE_ALTERNATIVES if profile == "glib" \
            else C11_ALTERNATIVES
        self.lengths = BufferLengthAnalyzer(
            self.analysis, text, check_aliases=check_aliases,
            fix_ternary_alloc=fix_ternary_alloc)
        # Ablation switch: with Option 1 disabled, memcpy always gets the
        # inline ternary even when the length variable is read later.
        self.memcpy_option1 = memcpy_option1
        self._needed_decls: set[str] = set()
        self._site_function: str = ""
        #: Extra identifiers fresh names must avoid.  The incremental
        #: engine passes the identifier set of the *full* file here when
        #: transforming a reduced unit, making name allocation identical
        #: to a whole-file run.
        self.reserved_names = frozenset(reserved_names)
        self._base_names: set[str] | None = None
        self._allocated: dict[str, set[str]] = {}

    # ------------------------------------------------------------- targets

    def find_targets(self) -> list[ast.Call]:
        targets = []
        for fn in self.unit.functions():
            for node in fn.body.walk():
                if isinstance(node, ast.Call) and \
                        node.callee_name in UNSAFE_FUNCTIONS:
                    targets.append(node)
        # Apply sites bottom-up so queued edits never overlap when two
        # targets share a line.
        targets.sort(key=lambda c: c.extent.start, reverse=True)
        return targets

    # ------------------------------------------------------------ dispatch

    def apply_to(self, call: ast.Call) -> SiteOutcome:
        callee = call.callee_name or "<indirect>"
        base = dict(transformation=self.name, target=callee,
                    function=self.function_of(call), line=self.line_of(call))
        if callee not in UNSAFE_FUNCTIONS:
            return SiteOutcome(**base, status=PRECONDITION_FAILED,
                               reason="not-unsafe-function",
                               detail=f"{callee} is not handled by SLR")
        self._site_function = base["function"] or ""
        handler = {
            "strcpy": self._replace_str2,
            "strcat": self._replace_str2,
            "sprintf": self._replace_sprintf,
            "vsprintf": self._replace_sprintf,
            "gets": self._replace_gets,
            "memcpy": self._replace_memcpy,
        }[callee]
        return handler(call, base)

    # ------------------------------------------------------- strcpy/strcat

    def _replace_str2(self, call: ast.Call, base: dict) -> SiteOutcome:
        if len(call.args) != 2:
            return self._fail(base, "bad-arity",
                              f"{base['target']} call with "
                              f"{len(call.args)} arguments")
        length = self.lengths.get_buffer_length(call.args[0])
        if isinstance(length, LengthFailure):
            return self._fail(base, length.reason, length.detail)
        new_name = self.alternatives[base["target"]]
        self._rename_callee(call, new_name)
        if self.profile == "glib":
            # g_strlcpy(dest, src, size)
            self.rewriter.insert_after(call.args[1].extent,
                                       f", {length.render()}")
        else:
            # strcpy_s(dest, destsz, src)
            self.rewriter.insert_after(call.args[0].extent,
                                       f", {length.render()}")
        self._note_decls(new_name, length)
        return self._ok(base)

    # ---------------------------------------------------- sprintf/vsprintf

    def _replace_sprintf(self, call: ast.Call, base: dict) -> SiteOutcome:
        if len(call.args) < 2:
            return self._fail(base, "bad-arity",
                              f"{base['target']} call with "
                              f"{len(call.args)} arguments")
        length = self.lengths.get_buffer_length(call.args[0])
        if isinstance(length, LengthFailure):
            return self._fail(base, length.reason, length.detail)
        new_name = self.alternatives[base["target"]]
        self._rename_callee(call, new_name)
        # Size parameter goes between the destination and the format
        # (both glib and Annex K families use this signature).
        self.rewriter.insert_after(call.args[0].extent,
                                   f", {length.render()}")
        self._note_decls(new_name, length)
        return self._ok(base)

    # ---------------------------------------------------------------- gets

    def _replace_gets(self, call: ast.Call, base: dict) -> SiteOutcome:
        if len(call.args) != 1:
            return self._fail(base, "bad-arity", "gets takes one argument")
        length = self.lengths.get_buffer_length(call.args[0])
        if isinstance(length, LengthFailure):
            return self._fail(base, length.reason, length.detail)
        stmt = call.enclosing_statement()
        if stmt is None:
            return self._fail(base, "unsupported-expr",
                              "gets outside a statement")
        if self.profile == "c11":
            # gets_s(dest, destsz): no stream argument, no newline kept —
            # no epilogue needed.
            self._rename_callee(call, "gets_s")
            self.rewriter.insert_after(call.args[0].extent,
                                       f", {length.render()}")
            self._note_decls("gets_s", length)
            return self._ok(base)
        dest_text = self.src(call.args[0])
        value_used = not (isinstance(stmt, ast.ExprStmt)
                          and stmt.expr is call)
        if value_used:
            # The return value is consumed (`if (gets(line)) ...`): a
            # statement-level epilogue would strip the newline only
            # after the consumer already ran.  Rewrite the call itself
            # into an expression that strips before yielding the value:
            #     (fgets(d, N, stdin)
            #        ? (d[strcspn(d, "\n")] = '\0', d) : (char *)0)
            # The destination is evaluated more than once, so only a
            # plain identifier qualifies.
            if not isinstance(call.args[0], ast.Identifier):
                return self._fail(
                    base, "unsupported-expr",
                    "gets value consumed and destination is not a "
                    "simple identifier")
            self._rename_callee(call, "fgets")
            self.rewriter.insert_after(call.args[0].extent,
                                       f", {length.render()}, stdin")
            self.rewriter.insert_before(call.extent.start, "(")
            self.rewriter.insert_after(
                call.extent,
                f" ? ({dest_text}[strcspn({dest_text}, \"\\n\")] = "
                f"'\\0', {dest_text}) : (char *)0)")
            self._note_decl("strcspn")
            self._note_decl("fgets")
            self._note_decls("fgets", length)
            return self._ok(base)
        self._rename_callee(call, "fgets")
        self.rewriter.insert_after(call.args[0].extent,
                                   f", {length.render()}, stdin")
        # fgets keeps the trailing newline that gets strips: add the
        # newline-removal epilogue after the statement (paper §III-B2).
        check = self._fresh_name("check", self._site_function)
        if self._owns_its_lines(stmt):
            indent = line_indent(self.text, stmt.extent.start)
            epilogue = (
                f"{indent}char *{check} = strchr({dest_text}, '\\n');\n"
                f"{indent}if ({check}) {{\n"
                f"{indent}    *{check} = '\\0';\n"
                f"{indent}}}\n"
            )
            insert_at = end_of_line(self.text, stmt.extent.end - 1)
            self.rewriter.insert_before(insert_at, epilogue)
        else:
            # The statement is a brace-less if/else/loop body (or shares
            # its line with other code): an epilogue inserted after the
            # line would run even when the body is skipped, and could
            # steal a dangling `else`.  Wrap statement + epilogue in one
            # block so they execute (or not) together.
            self.rewriter.insert_before(stmt.extent.start, "{ ")
            self.rewriter.insert_before(
                stmt.extent.end,
                f" char *{check} = strchr({dest_text}, '\\n'); "
                f"if ({check}) {{ *{check} = '\\0'; }} }}")
        self._note_decl("strchr")
        # Added directly (not via _note_decls): "fgets" has no entry in
        # _DECLARATIONS — its prototype rides with the FILE/stdin block
        # below — but finalize keys that block on this set membership.
        self._note_decl("fgets")
        self._note_decls("fgets", length)
        return self._ok(base)

    # -------------------------------------------------------------- memcpy

    def _replace_memcpy(self, call: ast.Call, base: dict) -> SiteOutcome:
        if len(call.args) != 3:
            return self._fail(base, "bad-arity",
                              "memcpy takes three arguments")
        dest_type = call.args[0].ctype
        if dest_type is not None:
            decayed = dest_type.decay()
            pointee = decayed.pointee if decayed.is_pointer else None
            if pointee is not None and not (pointee.is_char or
                                            pointee.is_void):
                return self._fail(
                    base, "non-char-buffer",
                    "memcpy destination is not a character buffer")
        length = self.lengths.get_buffer_length(call.args[0])
        if isinstance(length, LengthFailure):
            return self._fail(base, length.reason, length.detail)
        if self.profile == "c11":
            # memcpy_s(dest, destsz, src, n): the runtime check replaces
            # the clamp entirely.
            self._rename_callee(call, "memcpy_s")
            self.rewriter.insert_after(call.args[0].extent,
                                       f", {length.render()}")
            self._note_decls("memcpy_s", length)
            return self._ok(base)
        size_arg = call.args[2]
        dst_len = length.render()
        stmt = call.enclosing_statement()
        used_later = self.memcpy_option1 and \
            self._length_used_later(size_arg, call)
        if used_later and isinstance(size_arg, ast.Identifier) and \
                stmt is not None and self._owns_its_lines(stmt):
            # Option 1: clamp the length variable before the call, since
            # later statements (e.g. NUL termination) read it.  Only
            # valid when the statement sits directly in a compound block
            # and owns its line — a clamp hoisted above a brace-less
            # `if (c) memcpy(...)` would mutate the variable even on the
            # untaken branch (Option 2 below stays conditional).
            name = size_arg.name
            indent = line_indent(self.text, stmt.extent.start)
            clamp = (f"{indent}{name} = {dst_len} > {name} ? "
                     f"{name} : {dst_len};\n")
            line_start = self.text.rfind("\n", 0, stmt.extent.start) + 1
            self.rewriter.insert_before(line_start, clamp)
        else:
            # Option 2: inline ternary replaces the length argument.
            size_text = self.src(size_arg)
            self.rewriter.replace(
                size_arg.extent,
                f"{dst_len} > {size_text} ? {size_text} : {dst_len}")
        self._note_decls("memcpy", length)
        return self._ok(base)

    def _length_used_later(self, size_arg: ast.Expression,
                           call: ast.Call) -> bool:
        """Is the length expression's variable read in control-flow
        successors of the call (paper's Option 1 trigger)?"""
        if not isinstance(size_arg, ast.Identifier) or \
                size_arg.symbol is None:
            return False
        fn = call.enclosing_function()
        if fn is None:
            return False
        stmt = call.enclosing_statement()
        cfg = self.analysis.cfg_of(fn.name)
        if stmt is None or cfg is None:
            return False
        call_node = cfg.node_for(stmt)
        if call_node is None:
            return False
        # Any CFG node reachable from the call that mentions the symbol.
        seen = set()
        frontier = list(call_node.succs)
        while frontier:
            node = frontier.pop()
            if node.nid in seen:
                continue
            seen.add(node.nid)
            if node.stmt is not None:
                for sub in node.stmt.walk():
                    if isinstance(sub, ast.Identifier) and \
                            sub.symbol is size_arg.symbol:
                        return True
            frontier.extend(node.succs)
        return False

    # -------------------------------------------------------------- helpers

    def _owns_its_lines(self, stmt: ast.Statement) -> bool:
        """Can whole lines be inserted around ``stmt`` without changing
        control flow?

        True only when the statement sits directly inside a compound
        block (so an adjacent line executes iff the statement does) and
        shares its first/last line with nothing else (so line-granular
        insertion points fall inside the same block).
        """
        if not isinstance(stmt.parent, ast.CompoundStmt):
            return False
        line_start = self.text.rfind("\n", 0, stmt.extent.start) + 1
        if self.text[line_start:stmt.extent.start].strip():
            return False
        eol = end_of_line(self.text, stmt.extent.end - 1)
        if self.text[stmt.extent.end:eol].strip():
            return False
        return True

    def _rename_callee(self, call: ast.Call, new_name: str) -> None:
        self.rewriter.replace(call.func.extent, new_name)

    def _note_decl(self, name: str) -> None:
        self._needed_decls.add(name)
        self.decls_by_function.setdefault(self._site_function,
                                          set()).add(name)

    def _note_decls(self, new_name: str, length: BufferLength) -> None:
        if new_name in _DECLARATIONS:
            self._note_decl(new_name)
        if length.kind == "heap":
            self._note_decl("malloc_usable_size")

    def _fresh_name(self, base: str, scope: str | None = None) -> str:
        """A temporary name nothing in the unit already uses — a bare
        ``check`` would otherwise capture (or redeclare) a user variable
        of the same name in scope.

        Names are allocated per ``scope`` (the enclosing function):
        serials restart in every function, so the name chosen for a site
        depends only on that function's own text and earlier sites — not
        on how many sites other functions contain.  That independence is
        what lets the incremental engine re-run one function and obtain
        the bytes a whole-file run would have produced.  ``scope=None``
        (finalize-level names) additionally avoids every per-function
        allocation.
        """
        if self._base_names is None:
            names = set(_IDENTIFIER.findall(self.text))
            names.update(s.name
                         for s in self.analysis.symbols.all_symbols)
            names.update(self.reserved_names)
            self._base_names = names
        taken = self._allocated.setdefault(scope or "", set())
        avoid = self._base_names | taken
        if scope is None:
            for allocated in self._allocated.values():
                avoid = avoid | allocated
        candidate = base
        serial = 1
        while candidate in avoid:
            serial += 1
            candidate = f"{base}_{serial}"
        taken.add(candidate)
        return candidate

    def _ok(self, base: dict) -> SiteOutcome:
        return SiteOutcome(**base, status=TRANSFORMED)

    def _fail(self, base: dict, reason: str, detail: str) -> SiteOutcome:
        return SiteOutcome(**base, status=PRECONDITION_FAILED,
                           reason=reason, detail=detail)

    def finalize(self) -> None:
        for block in finalize_blocks(self.text, self._needed_decls):
            self.rewriter.insert_before(0, block)


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")

#: String/char literals and comments, blanked before brace counting so a
#: lone ``"{"`` in a format string cannot skew the scope depth.
_LITERAL_OR_COMMENT = re.compile(
    r'"(?:[^"\\\n]|\\.)*"'
    r"|'(?:[^'\\\n]|\\.)*'"
    r"|/\*.*?\*/"
    r"|//[^\n]*", re.S)


def _already_declared(text: str, name: str) -> bool:
    """Does the (preprocessed) text declare ``name`` at file scope?

    Only a ``name(`` token at brace depth zero counts — a declaration or
    a definition.  Call sites always sit inside a function body (depth
    >= 1), so a program that merely *calls* e.g. ``fgets`` through a K&R
    implicit declaration no longer suppresses the injected prototype.
    """
    stripped = _LITERAL_OR_COMMENT.sub('""', text)
    scanner = re.compile(r"[{}]|\b" + re.escape(name) + r"\s*\(")
    depth = 0
    for match in scanner.finditer(stripped):
        token = match.group(0)
        if token == "{":
            depth += 1
        elif token == "}":
            depth = max(0, depth - 1)
        elif depth == 0:
            return True
    return False


def finalize_blocks(text: str, needed_decls: set) -> list[str]:
    """The finalize-stage blocks SLR inserts at offset 0, in queue
    order, as a pure function of the input text and the union of
    per-site declaration needs.

    Shared between :meth:`SafeLibraryReplacement.finalize` and the
    incremental engine, which recomputes the blocks from merged cached
    per-function needs instead of re-running every site.
    """
    blocks = []
    decls = [
        _DECLARATIONS[name]
        for name in sorted(needed_decls)
        if name in _DECLARATIONS and not _already_declared(text, name)
    ]
    if decls:
        blocks.append("/* Declarations added by SAFE LIBRARY REPLACEMENT "
                      "(link with -lglib-2.0). */\n" + "\n".join(decls)
                      + "\n\n")
    # fgets needs FILE/stdin; declare them if the program lacks stdio.
    if "fgets" in needed_decls and "stdin" not in text:
        blocks.append("typedef struct _FILE FILE;\n"
                      "extern FILE *stdin;\n"
                      "char *fgets(char *s, int size, FILE *stream);\n\n")
    return blocks


def apply_slr(text: str, filename: str = "<unit>",
              profile: str = "glib"):
    """Convenience: run SLR over all unsafe calls in ``text``."""
    return SafeLibraryReplacement(text, filename, profile=profile).run()
