"""Recursive-descent parser for the C99 subset.

Consumes preprocessed text (see :mod:`repro.cfront.preprocessor`) and builds
the AST of :mod:`repro.cfront.astnodes`.  The parser is typedef-aware (it
keeps scoped typedef and tag tables, as any C parser must) and records exact
source extents on every node so the rewriter can edit the original text.

Most of a preprocessed unit is its header preamble, and the pipeline
parses many texts that start with the same one: every file of a batch
that includes the same headers, and SLR's output and the final text
of each file.  A cold parse therefore records a :class:`Preamble` at
the last top-level ``;`` before its first function definition: the
prefix text, its tokens and top-level declarations, and the file-scope
tables at that point.  A later text that starts with a recorded prefix
lexes and parses only the rest, from copies of those tables, and its
unit shares the preamble's declarations read-only;
:class:`~repro.analysis.symtab.Binder` likewise binds them once per
process.  Whenever the rest would write into a shared object (it
completes a struct or union the preamble left incomplete, or defines a
function the preamble declares) the parser starts again from byte 0,
so the result is always the cold parse's.  The table of preambles
(:data:`_PREAMBLES`) is per process, holds :data:`PREAMBLE_TABLE_SIZE`
entries, and is neither read nor written under ``REPRO_CACHE=0``.
"""

from __future__ import annotations

from . import astnodes as ast
from .cache import PrefixCache, caches_enabled
from .ctypes_model import (
    BOOL, CHAR, CType, DOUBLE, EnumType, FLOAT, FloatType, FunctionType, INT,
    ArrayType, IntType, PointerType, StructType, VOID, VaListType,
)
from .lexer import Lexer, splice_lines
from .literals import parse_char_constant, parse_number, parse_string_literal
from .source import ParseError, SourceExtent, SourceFile
from .tokens import CHAR_CONST, EOF, ID, KEYWORD, NUMBER, PUNCT, STRING, Token

_TYPE_SPECIFIER_KEYWORDS = frozenset({
    "void", "char", "short", "int", "long", "float", "double", "signed",
    "unsigned", "_Bool", "struct", "union", "enum",
})
_TAG_KEYWORDS = frozenset({"struct", "union", "enum"})
_INT_PARTS = frozenset({"void", "char", "short", "int", "long", "float",
                        "double", "signed", "unsigned", "_Bool"})
_STORAGE_CLASSES = frozenset({"typedef", "extern", "static", "auto",
                              "register"})
_QUALIFIERS = frozenset({"const", "volatile", "restrict", "inline"})

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
                         "^=", "<<=", ">>="})
_UNARY_OPS = frozenset({"&", "*", "+", "-", "~", "!"})

# (precedence, right-assoc) for binary operators, parsed by precedence
# climbing.  Higher binds tighter.
_BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class _Scope:
    """Parser-level scope: typedef names, struct/union/enum tags, enum
    constants."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.typedefs: dict[str, CType] = {}
        self.tags: dict[str, CType] = {}
        self.enum_constants: dict[str, int] = {}
        # Names declared as ordinary identifiers (shadowing typedef names).
        self.ordinary: set[str] = set()

    def lookup_typedef(self, name: str) -> CType | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.ordinary:
                return None
            if name in scope.typedefs:
                return scope.typedefs[name]
            scope = scope.parent
        return None

    def lookup_tag(self, name: str) -> CType | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.tags:
                return scope.tags[name]
            scope = scope.parent
        return None

    def lookup_enum_constant(self, name: str) -> int | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.ordinary:
                return None         # shadowed by an ordinary declaration
            if name in scope.enum_constants:
                return scope.enum_constants[name]
            scope = scope.parent
        return None


class Preamble:
    """The parsed prefix of a text, shared read-only by every unit whose
    (spliced) text starts with it.

    Recorded only when nothing in it can be written to later: it holds no
    initializer (the only expressions a declaration holds, so typing
    never writes into it), the function header that ends it names no
    struct, union or enum (so the file-scope tables are still the
    preamble's own), and the rest of the recording text passes the same
    checks a sharing text must.  ``bound`` is filled in by
    :class:`~repro.analysis.symtab.Binder` the first time a unit that
    shares the preamble is bound.  The top-level items keep the
    ``parent`` the recording parse gave them.
    """

    __slots__ = ("text", "tokens", "items", "typedefs", "tags",
                 "enum_constants", "ordinary", "bound")

    def __init__(self, text: str, tokens: list[Token],
                 items: tuple[ast.Declaration, ...], scope: _Scope):
        self.text = text
        self.tokens = tokens
        self.items = items
        self.typedefs = dict(scope.typedefs)
        self.tags = dict(scope.tags)
        self.enum_constants = dict(scope.enum_constants)
        self.ordinary = frozenset(scope.ordinary)
        self.bound = None

    def file_scope(self) -> _Scope:
        """A fresh file scope holding copies of the preamble's tables."""
        scope = _Scope()
        scope.typedefs = dict(self.typedefs)
        scope.tags = dict(self.tags)
        scope.enum_constants = dict(self.enum_constants)
        scope.ordinary = set(self.ordinary)
        return scope


#: Entries in the per-process preamble table.  A lookup compares the
#: text against every entry; a 120-file synth batch meets 6 preambles.
PREAMBLE_TABLE_SIZE = 64
_PREAMBLES = PrefixCache(PREAMBLE_TABLE_SIZE)


class _Unshareable(Exception):
    """The rest of a text would write into its shared preamble."""


class Parser:
    """Parse one preprocessed translation unit."""

    def __init__(self, text: str, filename: str = "<string>"):
        self.text = text
        self.filename = filename
        self.source = SourceFile(filename, splice_lines(text))
        self._start(_PREAMBLES.longest(self.source.text)
                    if caches_enabled() else None)

    # ------------------------------------------------------------ plumbing

    def _start(self, preamble: Preamble | None) -> None:
        """Lex and set up the file scope: for the whole text, or for what
        follows ``preamble``.  A parse from byte 0 with the caches on
        records a preamble at its first function definition."""
        self._preamble = preamble
        self._shared = preamble is not None
        self._recording = preamble is None and caches_enabled()
        if preamble is None:
            self.tokens = Lexer(self.source).tokenize()
            self.pos = 0
            self.scope = _Scope()
            self._install_builtins()
        else:
            tokens = preamble.tokens
            self.tokens = tokens + Lexer(self.source).tokenize(
                len(preamble.text), tokens[-1].line)
            self.pos = len(tokens)
            self.scope = preamble.file_scope()

    def _install_builtins(self) -> None:
        self.scope.typedefs["__builtin_va_list"] = VaListType()

    def _peek(self, offset: int = 0) -> Token:
        # Hottest function in the parser: the EOF sentinel is the last
        # token and the stream never advances past it, so a plain index
        # with an exception guard beats a bounds check per call.
        try:
            return self.tokens[self.pos + offset]
        except IndexError:
            return self.tokens[-1]

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not EOF:
            self.pos += 1
        return tok

    def _prev_end(self) -> int:
        return self.tokens[self.pos - 1].end if self.pos else 0

    def _error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self._peek()
        return ParseError(message, self.filename, tok.line, tok.col)

    def _expect_punct(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not PUNCT or tok.text != text:
            raise self._error(f"expected {text!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def _expect_id(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not ID:
            raise self._error(f"expected identifier, found {tok.text!r}")
        self.pos += 1
        return tok

    def _accept_punct(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind is PUNCT and tok.text == text:
            self.pos += 1
            return True
        return False

    def _accept_keyword(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind is KEYWORD and tok.text == text:
            self.pos += 1
            return True
        return False

    def _extent_from(self, start: int) -> SourceExtent:
        return SourceExtent(start, self._prev_end())

    def _push_scope(self) -> None:
        self.scope = _Scope(self.scope)

    def _pop_scope(self) -> None:
        assert self.scope.parent is not None
        self.scope = self.scope.parent

    # ------------------------------------------------------------ top level

    def parse(self) -> ast.TranslationUnit:
        # Expression grammars recurse one Python level per nesting level;
        # give deeply parenthesized legacy code room.
        import sys
        if sys.getrecursionlimit() < 20_000:
            sys.setrecursionlimit(20_000)
        try:
            return self._translation_unit()
        except _Unshareable:
            self._start(None)
            return self._translation_unit()

    def _translation_unit(self) -> ast.TranslationUnit:
        items: list[ast.Node] = \
            list(self._preamble.items) if self._shared else []
        self._items = items
        while self._peek().kind != EOF:
            if self._accept_punct(";"):
                continue
            items.append(self._external_declaration())
        preamble = self._preamble
        unit = ast.TranslationUnit(SourceExtent(0, len(self.text)), items,
                                   self.filename, preamble)
        if self._shared:
            for item in items[len(preamble.items):]:
                item.parent = unit
                ast.set_parents(item)
        else:
            ast.set_parents(unit)
            if preamble is not None:
                _PREAMBLES.add(preamble.text, preamble)
        return unit

    def _external_declaration(self) -> ast.Node:
        tokens = self.tokens
        first = self.pos
        start = tokens[first].offset
        base_type, storage, is_typedef = self._declaration_specifiers()
        tok = tokens[self.pos]
        if tok.kind is PUNCT and tok.text == ";":
            # struct/union/enum definition with no declarators
            self.pos += 1
            return ast.Declaration(self._extent_from(start), [], storage,
                                   is_typedef, base_type)
        decl_start = tok.offset
        name, ctype, name_extent = self._declarator(base_type)
        if isinstance(ctype, FunctionType) and \
                tokens[self.pos].is_punct("{") \
                and not is_typedef:
            self._enter_function(first, name)
            return self._function_definition(start, name, ctype, name_extent,
                                             storage)
        return self._finish_declaration(start, decl_start, base_type, storage,
                                        is_typedef, name, ctype, name_extent)

    # -------------------------------------------------------- preamble

    def _enter_function(self, first: int, name: str) -> None:
        """At a top-level function definition whose first token is
        ``tokens[first]``, before its body: record the preamble if this
        is a cold parse's first one, and keep the binder from rewriting a
        shared symbol (it points a declared function at its definition)."""
        if self._recording:
            self._recording = False
            self._preamble = self._record(first)
        if self._preamble is not None and name in self._preamble.ordinary:
            self._unshare()

    def _record(self, first: int) -> Preamble | None:
        items = self._items
        if not items or any(declarator.init is not None
                            for item in items
                            for declarator in item.declarators):
            return None
        if any(tok.kind is KEYWORD and tok.text in _TAG_KEYWORDS
               for tok in self.tokens[first:self.pos]):
            return None
        return Preamble(self.source.text[:self.tokens[first - 1].end],
                        self.tokens[:first], tuple(items), self.scope)

    def _unshare(self) -> None:
        """The rest of the text is about to write into a preamble object:
        a sharing parse starts again cold; a recording parse keeps going
        and records nothing."""
        if self._shared:
            raise _Unshareable
        self._preamble = None

    def _function_definition(self, start: int, name: str,
                             ctype: FunctionType,
                             name_extent: SourceExtent,
                             storage: str | None) -> ast.FunctionDef:
        self._push_scope()
        params: list[ast.ParamDecl] = []
        for pname, ptype in ctype.params:
            pdecl = ast.ParamDecl(name_extent, pname, ptype)
            params.append(pdecl)
            if pname:
                self.scope.ordinary.add(pname)
        body = self._compound_statement(new_scope=False)
        self._pop_scope()
        self.scope.ordinary.add(name)
        return ast.FunctionDef(self._extent_from(start), name, ctype, params,
                               body, storage, name_extent)

    def _finish_declaration(self, start: int, decl_start: int, base_type,
                            storage, is_typedef, name, ctype,
                            name_extent) -> ast.Declaration:
        declarators: list[ast.Declarator] = []
        while True:
            init = None
            if self._accept_punct("="):
                init = self._initializer()
            self._register_name(name, ctype, is_typedef)
            declarators.append(ast.Declarator(
                self._extent_from(decl_start), name, ctype, init,
                name_extent))
            if not self._accept_punct(","):
                break
            decl_start = self._peek().offset
            name, ctype, name_extent = self._declarator(base_type)
        self._expect_punct(";")
        return ast.Declaration(self._extent_from(start), declarators,
                               storage, is_typedef, base_type)

    def _register_name(self, name: str, ctype: CType,
                       is_typedef: bool) -> None:
        if is_typedef:
            self.scope.typedefs[name] = ctype
        elif name:
            self.scope.ordinary.add(name)

    # ------------------------------------------------ declaration specifiers

    def _starts_type(self, tok: Token) -> bool:
        if tok.kind == KEYWORD:
            return (tok.text in _TYPE_SPECIFIER_KEYWORDS
                    or tok.text in _QUALIFIERS
                    or tok.text in _STORAGE_CLASSES)
        if tok.kind == ID:
            return self.scope.lookup_typedef(tok.text) is not None
        return False

    def _declaration_specifiers(self) -> tuple[CType, str | None, bool]:
        storage: str | None = None
        is_typedef = False
        quals: set[str] = set()
        base: CType | None = None
        int_parts: list[str] = []

        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            kind = tok.kind
            if kind is KEYWORD:
                text = tok.text
                if text in _INT_PARTS:
                    self.pos += 1
                    int_parts.append(text)
                elif text in _STORAGE_CLASSES:
                    self.pos += 1
                    if text == "typedef":
                        is_typedef = True
                    else:
                        storage = text
                elif text in _QUALIFIERS:
                    self.pos += 1
                    quals.add(text)
                elif text == "struct" or text == "union":
                    base = self._struct_or_union_specifier()
                elif text == "enum":
                    base = self._enum_specifier()
                else:
                    break
            elif kind is ID and not int_parts and base is None:
                td = self.scope.lookup_typedef(tok.text)
                if td is not None:
                    # Only treat as type if what follows makes sense.
                    self.pos += 1
                    base = td
                else:
                    break
            else:
                break

        if base is None:
            base = _combine_int_parts(int_parts, self)
        elif int_parts:
            raise self._error("conflicting type specifiers")
        return base.with_qualifiers(quals), storage, is_typedef

    def _struct_or_union_specifier(self) -> CType:
        kw = self._next()           # 'struct' or 'union'
        is_union = kw.text == "union"
        tag = None
        if self._peek().kind == ID:
            tag = self._next().text
        if self._peek().is_punct("{"):
            stype = None
            if tag is not None:
                existing = self.scope.tags.get(tag)
                if isinstance(existing, StructType) and \
                        existing.is_union == is_union and \
                        not existing.is_complete:
                    if self._preamble is not None and \
                            self._preamble.tags.get(tag) is existing:
                        self._unshare()
                    stype = existing
            if stype is None:
                stype = StructType(tag, is_union)
                if tag is not None:
                    self.scope.tags[tag] = stype
            self._next()            # '{'
            members: list[tuple[str, CType]] = []
            while not self._peek().is_punct("}"):
                base, _, _ = self._declaration_specifiers()
                if self._peek().is_punct(";"):    # anonymous struct member
                    self._next()
                    if isinstance(base, StructType) and base.is_complete:
                        members.extend(base.members)
                    continue
                while True:
                    mname, mtype, _ = self._declarator(base)
                    if self._accept_punct(":"):   # bit-field width, ignored
                        self._conditional_expression()
                    members.append((mname, mtype))
                    if not self._accept_punct(","):
                        break
                self._expect_punct(";")
            self._next()            # '}'
            stype.define(members)
            return stype
        if tag is None:
            raise self._error("struct/union needs a tag or a body")
        existing = self.scope.lookup_tag(tag)
        if isinstance(existing, StructType) and existing.is_union == is_union:
            return existing
        stype = StructType(tag, is_union)
        self.scope.tags[tag] = stype
        return stype

    def _enum_specifier(self) -> CType:
        self._next()                # 'enum'
        tag = None
        if self._peek().kind == ID:
            tag = self._next().text
        if self._peek().is_punct("{"):
            etype = EnumType(tag)
            if tag is not None:
                self.scope.tags[tag] = etype
            self._next()
            value = 0
            while not self._peek().is_punct("}"):
                const_name = self._expect_id().text
                if self._accept_punct("="):
                    expr = self._conditional_expression()
                    value = self._const_value(expr)
                etype.constants[const_name] = value
                self.scope.enum_constants[const_name] = value
                value += 1
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            return etype
        if tag is None:
            raise self._error("enum needs a tag or a body")
        existing = self.scope.lookup_tag(tag)
        if isinstance(existing, EnumType):
            return existing
        etype = EnumType(tag)
        self.scope.tags[tag] = etype
        return etype

    # ------------------------------------------------------------ declarators

    def _declarator(self, base: CType) -> tuple[str, CType, SourceExtent]:
        """Parse a (possibly nested) declarator; returns (name, type,
        name_extent)."""
        ctype = self._pointer_suffix(base)
        return self._direct_declarator(ctype, abstract=False)

    def _abstract_declarator(self, base: CType) -> CType:
        ctype = self._pointer_suffix(base)
        name, ctype, _ = self._direct_declarator(ctype, abstract=True)
        if name:
            raise self._error("unexpected identifier in type name")
        return ctype

    def _pointer_suffix(self, ctype: CType) -> CType:
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind is not PUNCT or tok.text != "*":
                return ctype
            self.pos += 1
            quals: set[str] = set()
            tok = tokens[self.pos]
            while tok.kind is KEYWORD and tok.text in _QUALIFIERS:
                quals.add(tok.text)
                self.pos += 1
                tok = tokens[self.pos]
            ctype = PointerType(ctype).with_qualifiers(quals)

    def _direct_declarator(self, ctype: CType, *, abstract: bool
                           ) -> tuple[str, CType, SourceExtent]:
        tok = self.tokens[self.pos]
        name = ""
        name_extent = SourceExtent(tok.offset, tok.offset)
        inner_marker = None

        if tok.kind is ID:
            self.pos += 1
            name = tok.text
            name_extent = tok.extent
        elif tok.kind is PUNCT and tok.text == "(" and \
                self._is_nested_declarator():
            self.pos += 1
            # Parse the inner declarator against a placeholder; re-apply
            # suffixes afterwards (standard two-pass trick).
            inner_marker = _Placeholder()
            inner_base = self._pointer_suffix(inner_marker)
            name, inner_type, name_extent = self._direct_declarator(
                inner_base, abstract=abstract)
            self._expect_punct(")")
        elif not abstract:
            raise self._error(f"expected declarator, found {tok.text!r}")

        suffixed = self._declarator_suffixes(ctype)
        if inner_marker is not None:
            ctype = _replace_placeholder(inner_type, inner_marker, suffixed)
        else:
            ctype = suffixed
        return name, ctype, name_extent

    def _is_nested_declarator(self) -> bool:
        """Disambiguate '(' in declarators: nested declarator vs parameter
        list."""
        nxt = self._peek(1)
        if nxt.is_punct("*") or nxt.is_punct("("):
            return True
        if nxt.kind == ID and self.scope.lookup_typedef(nxt.text) is None:
            return True
        return False

    def _declarator_suffixes(self, ctype: CType) -> CType:
        # Collect suffixes left-to-right, then fold right-to-left so that
        # e.g. `int x[2][3]` is array-2 of array-3 of int.
        suffixes: list[tuple] = []
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind is PUNCT:
                text = tok.text
                if text == "[":
                    self.pos += 1
                    length = None
                    if not tokens[self.pos].is_punct("]"):
                        expr = self._conditional_expression()
                        length = self._const_value(expr)
                    self._expect_punct("]")
                    suffixes.append(("array", length))
                    continue
                if text == "(":
                    self.pos += 1
                    params, variadic = self._parameter_list()
                    self._expect_punct(")")
                    suffixes.append(("function", params, variadic))
                    continue
            break
        for suffix in reversed(suffixes):
            if suffix[0] == "array":
                ctype = ArrayType(ctype, suffix[1])
            else:
                ctype = FunctionType(ctype, suffix[1], suffix[2])
        return ctype

    def _parameter_list(self) -> tuple[list[tuple[str | None, CType]], bool]:
        params: list[tuple[str | None, CType]] = []
        variadic = False
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok.kind is PUNCT and tok.text == ")":
            return params, variadic
        if tok.kind is KEYWORD and tok.text == "void" and \
                tokens[self.pos + 1].is_punct(")"):
            self.pos += 1
            return params, variadic
        while True:
            tok = tokens[self.pos]
            if tok.kind is PUNCT and tok.text == "...":
                self.pos += 1
                variadic = True
                break
            base, _, _ = self._declaration_specifiers()
            tok = tokens[self.pos]
            if tok.kind is PUNCT and (tok.text == "," or tok.text == ")"):
                ptype: CType = base
                pname: str | None = None
            else:
                pname_s, ptype, _ = self._maybe_abstract_declarator(base)
                pname = pname_s or None
            # Parameter decay: arrays and functions become pointers.
            ptype = ptype.decay() if isinstance(ptype, (ArrayType,
                                                        FunctionType)) \
                else ptype
            params.append((pname, ptype))
            tok = tokens[self.pos]
            if tok.kind is PUNCT and tok.text == ",":
                self.pos += 1
            else:
                break
        return params, variadic

    def _maybe_abstract_declarator(self, base: CType
                                   ) -> tuple[str, CType, SourceExtent]:
        ctype = self._pointer_suffix(base)
        tok = self.tokens[self.pos]
        if tok.kind is ID:
            return self._direct_declarator(ctype, abstract=False)
        if tok.kind is PUNCT and (tok.text == "(" or tok.text == "["):
            return self._direct_declarator(ctype, abstract=True)
        return "", ctype, SourceExtent(tok.offset, tok.offset)

    def _type_name(self) -> CType:
        base, storage, is_typedef = self._declaration_specifiers()
        if storage or is_typedef:
            raise self._error("storage class in type name")
        return self._abstract_declarator(base)

    # ------------------------------------------------------------ statements

    def _compound_statement(self, *, new_scope: bool = True
                            ) -> ast.CompoundStmt:
        start = self._expect_punct("{").offset
        if new_scope:
            self._push_scope()
        items: list[ast.Node] = []
        while not self._peek().is_punct("}"):
            if self._peek().kind == EOF:
                raise self._error("unterminated block")
            items.append(self._block_item())
        self._next()        # '}'
        if new_scope:
            self._pop_scope()
        return ast.CompoundStmt(self._extent_from(start), items)

    def _block_item(self) -> ast.Node:
        tok = self._peek()
        if self._starts_type(tok) and not self._is_label():
            start = tok.offset
            base_type, storage, is_typedef = self._declaration_specifiers()
            if self._peek().is_punct(";"):
                self._next()
                return ast.Declaration(self._extent_from(start), [], storage,
                                       is_typedef, base_type)
            decl_start = self._peek().offset
            name, ctype, name_extent = self._declarator(base_type)
            return self._finish_declaration(start, decl_start, base_type,
                                            storage, is_typedef, name, ctype,
                                            name_extent)
        return self._statement()

    def _is_label(self) -> bool:
        return self._peek().kind == ID and self._peek(1).is_punct(":")

    def _statement(self) -> ast.Statement:
        tok = self._peek()
        start = tok.offset

        if tok.is_punct("{"):
            return self._compound_statement()
        if tok.is_punct(";"):
            self._next()
            return ast.EmptyStmt(self._extent_from(start))
        if tok.kind == KEYWORD:
            handler = {
                "if": self._if_statement,
                "while": self._while_statement,
                "do": self._do_statement,
                "for": self._for_statement,
                "return": self._return_statement,
                "break": self._break_statement,
                "continue": self._continue_statement,
                "switch": self._switch_statement,
                "case": self._case_statement,
                "default": self._default_statement,
                "goto": self._goto_statement,
            }.get(tok.text)
            if handler is not None:
                return handler()
        if self._is_label():
            name = self._next().text
            self._next()        # ':'
            body = self._statement()
            return ast.LabelStmt(self._extent_from(start), name, body)
        expr = self._expression()
        self._expect_punct(";")
        return ast.ExprStmt(self._extent_from(start), expr)

    def _if_statement(self) -> ast.IfStmt:
        start = self._next().offset         # 'if'
        self._expect_punct("(")
        cond = self._expression()
        self._expect_punct(")")
        then_stmt = self._statement()
        else_stmt = None
        if self._accept_keyword("else"):
            else_stmt = self._statement()
        return ast.IfStmt(self._extent_from(start), cond, then_stmt,
                          else_stmt)

    def _while_statement(self) -> ast.WhileStmt:
        start = self._next().offset
        self._expect_punct("(")
        cond = self._expression()
        self._expect_punct(")")
        body = self._statement()
        return ast.WhileStmt(self._extent_from(start), cond, body)

    def _do_statement(self) -> ast.DoWhileStmt:
        start = self._next().offset
        body = self._statement()
        if not self._accept_keyword("while"):
            raise self._error("expected 'while' after do-body")
        self._expect_punct("(")
        cond = self._expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.DoWhileStmt(self._extent_from(start), body, cond)

    def _for_statement(self) -> ast.ForStmt:
        start = self._next().offset
        self._expect_punct("(")
        self._push_scope()
        init: ast.Node | None = None
        if not self._peek().is_punct(";"):
            if self._starts_type(self._peek()):
                init = self._block_item()       # consumes the ';'
            else:
                expr_start = self._peek().offset
                expr = self._expression()
                self._expect_punct(";")
                init = ast.ExprStmt(self._extent_from(expr_start), expr)
        else:
            self._next()
        cond = None
        if not self._peek().is_punct(";"):
            cond = self._expression()
        self._expect_punct(";")
        advance = None
        if not self._peek().is_punct(")"):
            advance = self._expression()
        self._expect_punct(")")
        body = self._statement()
        self._pop_scope()
        return ast.ForStmt(self._extent_from(start), init, cond, advance,
                           body)

    def _return_statement(self) -> ast.ReturnStmt:
        start = self._next().offset
        value = None
        if not self._peek().is_punct(";"):
            value = self._expression()
        self._expect_punct(";")
        return ast.ReturnStmt(self._extent_from(start), value)

    def _break_statement(self) -> ast.BreakStmt:
        start = self._next().offset
        self._expect_punct(";")
        return ast.BreakStmt(self._extent_from(start))

    def _continue_statement(self) -> ast.ContinueStmt:
        start = self._next().offset
        self._expect_punct(";")
        return ast.ContinueStmt(self._extent_from(start))

    def _switch_statement(self) -> ast.SwitchStmt:
        start = self._next().offset
        self._expect_punct("(")
        cond = self._expression()
        self._expect_punct(")")
        body = self._statement()
        return ast.SwitchStmt(self._extent_from(start), cond, body)

    def _case_statement(self) -> ast.CaseStmt:
        start = self._next().offset
        value = self._conditional_expression()
        self._expect_punct(":")
        body = self._statement()
        return ast.CaseStmt(self._extent_from(start), value, body)

    def _default_statement(self) -> ast.DefaultStmt:
        start = self._next().offset
        self._expect_punct(":")
        body = self._statement()
        return ast.DefaultStmt(self._extent_from(start), body)

    def _goto_statement(self) -> ast.GotoStmt:
        start = self._next().offset
        label = self._expect_id().text
        self._expect_punct(";")
        return ast.GotoStmt(self._extent_from(start), label)

    # ----------------------------------------------------------- initializer

    def _initializer(self) -> ast.Expression:
        if self._peek().is_punct("{"):
            start = self._next().offset
            items: list[ast.Expression] = []
            while not self._peek().is_punct("}"):
                # Designators are parsed and skipped (we keep positional
                # semantics, which covers the corpus and SAMATE programs).
                while True:
                    if self._peek().is_punct("."):
                        self._next()
                        self._expect_id()
                    elif self._peek().is_punct("["):
                        self._next()
                        self._conditional_expression()
                        self._expect_punct("]")
                    else:
                        break
                if self._peek().is_punct("="):
                    self._next()
                items.append(self._initializer())
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            return ast.InitList(self._extent_from(start), items)
        return self._assignment_expression()

    # ----------------------------------------------------------- expressions

    def _expression(self) -> ast.Expression:
        start = self._peek().offset
        expr = self._assignment_expression()
        while self._peek().is_punct(","):
            self._next()
            rhs = self._assignment_expression()
            expr = ast.Comma(self._extent_from(start), expr, rhs)
        return expr

    def _assignment_expression(self) -> ast.Expression:
        start = self._peek().offset
        lhs = self._conditional_expression()
        tok = self._peek()
        if tok.kind == PUNCT and tok.text in _ASSIGN_OPS:
            self._next()
            rhs = self._assignment_expression()
            return ast.Assignment(self._extent_from(start), tok.text, lhs,
                                  rhs)
        return lhs

    def _conditional_expression(self) -> ast.Expression:
        start = self._peek().offset
        cond = self._binary_expression(1)
        if self._peek().is_punct("?"):
            self._next()
            then_expr = self._expression()
            self._expect_punct(":")
            else_expr = self._conditional_expression()
            return ast.Conditional(self._extent_from(start), cond, then_expr,
                                   else_expr)
        return cond

    def _binary_expression(self, min_prec: int) -> ast.Expression:
        tokens = self.tokens
        start = tokens[self.pos].offset
        lhs = self._cast_expression()
        prec_of = _BINARY_PRECEDENCE.get
        while True:
            tok = tokens[self.pos]
            if tok.kind is not PUNCT:
                return lhs
            prec = prec_of(tok.text)
            if prec is None or prec < min_prec:
                return lhs
            self.pos += 1
            rhs = self._binary_expression(prec + 1)
            lhs = ast.Binary(self._extent_from(start), tok.text, lhs, rhs)

    def _cast_expression(self) -> ast.Expression:
        tok = self._peek()
        if tok.is_punct("(") and self._starts_type(self._peek(1)):
            start = tok.offset
            self._next()
            target = self._type_name()
            self._expect_punct(")")
            if self._peek().is_punct("{"):
                # Compound literal: parse the init list; model as a cast of
                # the initializer (adequate for our corpus programs).
                init = self._initializer()
                return ast.Cast(self._extent_from(start), target, init)
            operand = self._cast_expression()
            return ast.Cast(self._extent_from(start), target, operand)
        return self._unary_expression()

    def _unary_expression(self) -> ast.Expression:
        tok = self.tokens[self.pos]
        start = tok.offset
        if tok.kind is PUNCT:
            text = tok.text
            if text == "++" or text == "--":
                self.pos += 1
                operand = self._unary_expression()
                return ast.Unary(self._extent_from(start), text, operand)
            if text in _UNARY_OPS:
                self.pos += 1
                operand = self._cast_expression()
                return ast.Unary(self._extent_from(start), text, operand)
        if tok.is_keyword("sizeof"):
            self._next()
            if self._peek().is_punct("(") and \
                    self._starts_type(self._peek(1)):
                self._next()
                target = self._type_name()
                self._expect_punct(")")
                return ast.SizeofType(self._extent_from(start), target)
            operand = self._unary_expression()
            return ast.SizeofExpr(self._extent_from(start), operand)
        return self._postfix_expression()

    def _postfix_expression(self) -> ast.Expression:
        tokens = self.tokens
        start = tokens[self.pos].offset
        expr = self._primary_expression()
        while True:
            tok = tokens[self.pos]
            if tok.kind is not PUNCT:
                return expr
            text = tok.text
            if text == "[":
                self.pos += 1
                index = self._expression()
                self._expect_punct("]")
                expr = ast.ArrayAccess(self._extent_from(start), expr, index)
            elif text == "(":
                self.pos += 1
                args: list[ast.Expression] = []
                if not tokens[self.pos].is_punct(")"):
                    args.append(self._assignment_expression())
                    while self._accept_punct(","):
                        args.append(self._assignment_expression())
                self._expect_punct(")")
                expr = ast.Call(self._extent_from(start), expr, args)
            elif text == ".":
                self.pos += 1
                member = self._expect_member_name()
                expr = ast.FieldAccess(self._extent_from(start), expr,
                                       member, arrow=False)
            elif text == "->":
                self.pos += 1
                member = self._expect_member_name()
                expr = ast.FieldAccess(self._extent_from(start), expr,
                                       member, arrow=True)
            elif text == "++" or text == "--":
                self.pos += 1
                expr = ast.Unary(self._extent_from(start), text, expr,
                                 is_postfix=True)
            else:
                return expr

    def _expect_member_name(self) -> str:
        tok = self._peek()
        if tok.kind not in (ID, KEYWORD):
            raise self._error(f"expected member name, found {tok.text!r}")
        self._next()
        return tok.text

    def _primary_expression(self) -> ast.Expression:
        tok = self._peek()
        start = tok.offset

        if tok.kind == NUMBER:
            self._next()
            value, is_float, unsigned, longs = parse_number(tok.text)
            extent = self._extent_from(start)
            if is_float:
                return ast.FloatLiteral(extent, float(value), tok.text)
            node = ast.IntLiteral(extent, int(value), tok.text)
            return node
        if tok.kind == CHAR_CONST:
            self._next()
            return ast.CharLiteral(self._extent_from(start),
                                   parse_char_constant(tok.text), tok.text)
        if tok.kind == STRING:
            # Adjacent string literals concatenate.
            parts: list[bytes] = []
            texts: list[str] = []
            while self._peek().kind == STRING:
                stok = self._next()
                parts.append(parse_string_literal(stok.text))
                texts.append(stok.text)
            return ast.StringLiteral(self._extent_from(start),
                                     b"".join(parts), " ".join(texts))
        if tok.kind == ID:
            if tok.text == "__builtin_va_arg":
                return self._va_arg_expression()
            self._next()
            enum_value = self.scope.lookup_enum_constant(tok.text)
            if enum_value is not None:
                # Enum constants fold to literals (they are rvalues with a
                # compile-time value); the extent keeps the original name so
                # rewrites remain faithful.
                return ast.IntLiteral(self._extent_from(start), enum_value,
                                      tok.text)
            return ast.Identifier(self._extent_from(start), tok.text)
        if tok.is_punct("("):
            self._next()
            expr = self._expression()
            self._expect_punct(")")
            # Keep the parenthesized extent: the rewriter must replace the
            # whole '(expr)' when it replaces expr.
            expr.extent = self._extent_from(start)
            return expr
        raise self._error(f"unexpected token {tok.text!r} in expression")

    def _va_arg_expression(self) -> ast.VaArg:
        start = self._next().offset     # __builtin_va_arg
        self._expect_punct("(")
        ap = self._assignment_expression()
        self._expect_punct(",")
        target = self._type_name()
        self._expect_punct(")")
        return ast.VaArg(self._extent_from(start), ap, target)

    # ----------------------------------------------------- const evaluation

    def _const_value(self, expr: ast.Expression) -> int:
        value = self._try_const_value(expr)
        if value is None:
            raise self._error("expected integer constant expression")
        return value

    def _try_const_value(self, expr: ast.Expression) -> int | None:
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.CharLiteral):
            return expr.value
        if isinstance(expr, ast.Identifier):
            return self.scope.lookup_enum_constant(expr.name)
        if isinstance(expr, ast.Unary) and not expr.is_postfix:
            value = self._try_const_value(expr.operand)
            if value is None:
                return None
            return {"-": lambda v: -v, "+": lambda v: v,
                    "~": lambda v: ~v, "!": lambda v: int(not v)} \
                .get(expr.op, lambda v: None)(value)
        if isinstance(expr, ast.Binary):
            lhs = self._try_const_value(expr.lhs)
            rhs = self._try_const_value(expr.rhs)
            if lhs is None or rhs is None:
                return None
            try:
                return _eval_binop(expr.op, lhs, rhs)
            except ZeroDivisionError:
                return None
        if isinstance(expr, ast.Conditional):
            cond = self._try_const_value(expr.cond)
            if cond is None:
                return None
            return self._try_const_value(
                expr.then_expr if cond else expr.else_expr)
        if isinstance(expr, ast.SizeofType):
            try:
                return expr.target_type.sizeof()
            except TypeError:
                return None
        if isinstance(expr, ast.SizeofExpr):
            # sizeof(expr) in array bounds: only literals supported here.
            if isinstance(expr.operand, ast.StringLiteral):
                return len(expr.operand.value) + 1
            return None
        if isinstance(expr, ast.Cast):
            return self._try_const_value(expr.operand)
        return None


def _eval_binop(op: str, lhs: int, rhs: int) -> int | None:
    table = {
        "+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: _c_div(a, b), "%": lambda a, b: _c_mod(a, b),
        "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b,
        "&": lambda a, b: a & b, "|": lambda a, b: a | b,
        "^": lambda a, b: a ^ b,
        "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
        "<": lambda a, b: int(a < b), ">": lambda a, b: int(a > b),
        "<=": lambda a, b: int(a <= b), ">=": lambda a, b: int(a >= b),
        "&&": lambda a, b: int(bool(a) and bool(b)),
        "||": lambda a, b: int(bool(a) or bool(b)),
    }
    fn = table.get(op)
    return None if fn is None else fn(lhs, rhs)


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_mod(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError
    return a - _c_div(a, b) * b


class _Placeholder(CType):
    """Marks the position of the inner declarator's base type."""

    def sizeof(self) -> int:  # pragma: no cover
        raise TypeError("placeholder type")


def _replace_placeholder(ctype: CType, marker: "_Placeholder",
                         replacement: CType) -> CType:
    if ctype is marker:
        return replacement
    if isinstance(ctype, PointerType):
        return PointerType(_replace_placeholder(ctype.pointee, marker,
                                                replacement))
    if isinstance(ctype, ArrayType):
        return ArrayType(_replace_placeholder(ctype.element, marker,
                                              replacement), ctype.length)
    if isinstance(ctype, FunctionType):
        return FunctionType(
            _replace_placeholder(ctype.return_type, marker, replacement),
            ctype.params, ctype.variadic)
    return ctype


# Specifier combinations form a tiny closed vocabulary, and the resulting
# base types are immutable value objects (``with_qualifiers`` copies before
# touching them), so the combine step is memoized process-wide.
_INT_PARTS_CACHE: dict[tuple[str, ...], CType] = {}


def _combine_int_parts(parts: list[str], parser: Parser) -> CType:
    if not parts:
        raise parser._error("expected type specifier")
    key = tuple(parts)
    cached = _INT_PARTS_CACHE.get(key)
    if cached is not None:
        return cached
    counts = {p: parts.count(p) for p in set(parts)}
    if "void" in counts:
        ctype: CType = VOID
    elif "_Bool" in counts:
        ctype = BOOL
    elif "float" in counts:
        ctype = FLOAT
    elif "double" in counts:
        ctype = FloatType("long double") if "long" in counts else DOUBLE
    else:
        signed = "unsigned" not in counts
        long_count = counts.get("long", 0)
        if "char" in counts:
            ctype = IntType("char", signed=signed)
        elif long_count >= 2:
            ctype = IntType("long long", signed=signed)
        elif long_count == 1:
            ctype = IntType("long", signed=signed)
        elif "short" in counts:
            ctype = IntType("short", signed=signed)
        else:
            ctype = IntType("int", signed=signed)
    _INT_PARTS_CACHE[key] = ctype
    return ctype


def parse_translation_unit(text: str,
                           filename: str = "<string>") -> ast.TranslationUnit:
    """Parse preprocessed C text into an AST."""
    return Parser(text, filename).parse()


def preprocess_and_parse(text: str, filename: str = "<string>",
                         include_paths: dict[str, str] | None = None,
                         predefined: dict[str, str] | None = None,
                         ) -> tuple[ast.TranslationUnit, str]:
    """Preprocess then parse; returns (AST, preprocessed_text)."""
    from .preprocessor import Preprocessor
    pp = Preprocessor(include_paths, predefined)
    result = pp.preprocess(text, filename)
    unit = parse_translation_unit(result.text, filename)
    return unit, result.text
