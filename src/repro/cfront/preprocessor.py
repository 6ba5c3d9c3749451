"""A C preprocessor.

Supports ``#include`` (over a virtual filesystem of header texts),
object-like and function-like ``#define`` (with ``#`` stringize, ``##``
paste, and ``__VA_ARGS__``), ``#undef``, the full conditional family
(``#if``/``#ifdef``/``#ifndef``/``#elif``/``#else``/``#endif``) with
constant-expression evaluation and ``defined()``, plus ``#error``,
``#warning``, ``#pragma`` and ``#line`` (the last two are ignored).

The paper's transformations run on *preprocessed* source (its corpus sizes
are quoted in "PP KLOC"), so the preprocessor's job here is to produce a
clean, self-contained C text that the parser and rewriter operate on.
"""

from __future__ import annotations

from .lexer import splice_lines, tokenize
from .source import UNDECODABLE, PreprocessorError, SourceFile
from .tokens import (
    CHAR_CONST, EOF, HASH, ID, INDENT, KEYWORD, NEWLINE, NUMBER, PUNCT,
    STRING, Token, tokens_to_text,
)

#: Shared header-text -> token-list memo (see ``_process_text``).  Keyed by
#: the full header text, so an include path remapping the same name to
#: different content can never alias.  Headers form a small closed set, so
#: the memo needs no eviction.
_TOKEN_CACHE: dict[str, list[Token]] = {}


class Macro:
    """A ``#define`` entry."""

    __slots__ = ("name", "params", "variadic", "body", "is_function")

    def __init__(self, name: str, params: list[str] | None,
                 variadic: bool, body: list[Token]):
        self.name = name
        self.params = params
        self.variadic = variadic
        self.body = body
        self.is_function = params is not None

    def __repr__(self) -> str:
        if self.is_function:
            sig = ", ".join(self.params + (["..."] if self.variadic else []))
            return f"Macro({self.name}({sig}))"
        return f"Macro({self.name})"


class PreprocessedSource:
    """Result of preprocessing: text plus bookkeeping the evaluation uses."""

    def __init__(self, text: str, name: str, included: list[str],
                 macros: dict[str, Macro]):
        self.text = text
        self.name = name
        self.included = included
        self.macros = macros

    @property
    def line_count(self) -> int:
        return sum(1 for line in self.text.splitlines() if line.strip())


class Preprocessor:
    """Preprocess one translation unit.

    ``include_paths`` maps header names (as written between quotes/brackets)
    to header text.  Standard headers needed by the corpus and SAMATE
    programs are provided by :mod:`repro.cfront.headers` and merged in unless
    ``use_builtin_headers`` is False.
    """

    MAX_EXPANSION_DEPTH = 512

    def __init__(self, include_paths: dict[str, str] | None = None,
                 predefined: dict[str, str] | None = None,
                 *, use_builtin_headers: bool = True):
        self.includes: dict[str, str] = {}
        if use_builtin_headers:
            from .headers import BUILTIN_HEADERS
            self.includes.update(BUILTIN_HEADERS)
        if include_paths:
            self.includes.update(include_paths)
        self.macros: dict[str, Macro] = {}
        self.included_files: list[str] = []
        self._include_stack: list[str] = []
        for name, value in (predefined or {}).items():
            self.define_from_string(name, value)

    # ------------------------------------------------------------------ API

    def define_from_string(self, name: str, value: str = "1") -> None:
        body = [t for t in tokenize(value, f"<define {name}>")
                if t.kind != EOF]
        self.macros[name] = Macro(name, None, False, body)

    def preprocess(self, text: str, name: str = "<string>") -> PreprocessedSource:
        out_tokens = self._process_text(text, name)
        rendered = tokens_to_text(out_tokens)
        rendered = _squeeze_blank_lines(rendered)
        return PreprocessedSource(rendered, name, list(self.included_files),
                                  dict(self.macros))

    # --------------------------------------------------------- main driver

    def _process_text(self, text: str, name: str,
                      *, cache_tokens: bool = False) -> list[Token]:
        # Header texts recur across every translation unit in a batch run
        # (the builtin headers especially), and raw token lists are safe to
        # share: expansion only ever mutates clones, never source tokens.
        tokens = _TOKEN_CACHE.get(text) if cache_tokens else None
        if tokens is None:
            _check_decodable(text, name)
            spliced = splice_lines(text)
            source = SourceFile(name, spliced)
            from .lexer import Lexer
            tokens = Lexer(source, preprocessor_mode=True).tokenize()
            if cache_tokens:
                _TOKEN_CACHE[text] = tokens
        return self._process_tokens(tokens, name)

    def _process_tokens(self, tokens: list[Token], name: str) -> list[Token]:
        out: list[Token] = []
        # cond_stack entries: [taken_now, taken_ever, seen_else]
        cond_stack: list[list[bool]] = []
        i = 0
        n = len(tokens)
        while i < n:
            tok = tokens[i]
            if tok.kind == EOF:
                break
            if tok.kind == HASH:
                line_toks, i = _collect_line(tokens, i + 1)
                self._directive(line_toks, out, cond_stack, name)
                continue
            if cond_stack and not cond_stack[-1][0]:
                # Skipping an inactive conditional branch.
                _, i = _collect_line(tokens, i)
                continue
            line_toks, i = _collect_line(tokens, i)
            expanded = self._expand(line_toks, name)
            if expanded and tok.col > 1:
                out.append(Token(INDENT, " " * (tok.col - 1)))
            out.extend(expanded)
            out.append(Token(NEWLINE, "\n"))
        if cond_stack:
            raise PreprocessorError("unterminated #if", name)
        return out

    # ----------------------------------------------------------- directives

    def _directive(self, line: list[Token], out: list[Token],
                   cond_stack: list[list[bool]], name: str) -> None:
        if not line:            # a lone '#' is a null directive
            return
        head = line[0]
        directive = head.text
        args = line[1:]
        active = all(frame[0] for frame in cond_stack)

        if directive == "if":
            parent_active = active
            value = bool(self._eval_condition(args, name)) if parent_active else False
            cond_stack.append([parent_active and value, value, False])
        elif directive in ("ifdef", "ifndef"):
            parent_active = active
            if not args or args[0].kind not in (ID, KEYWORD):
                raise PreprocessorError(f"#{directive} expects a name", name,
                                        head.line, head.col)
            defined = args[0].text in self.macros
            value = defined if directive == "ifdef" else not defined
            cond_stack.append([parent_active and value, value, False])
        elif directive == "elif":
            if not cond_stack:
                raise PreprocessorError("#elif without #if", name,
                                        head.line, head.col)
            frame = cond_stack[-1]
            if frame[2]:
                raise PreprocessorError("#elif after #else", name,
                                        head.line, head.col)
            parent_active = all(f[0] for f in cond_stack[:-1])
            if frame[1] or not parent_active:
                frame[0] = False
            else:
                value = bool(self._eval_condition(args, name))
                frame[0] = value
                frame[1] = frame[1] or value
        elif directive == "else":
            if not cond_stack:
                raise PreprocessorError("#else without #if", name,
                                        head.line, head.col)
            frame = cond_stack[-1]
            if frame[2]:
                raise PreprocessorError("duplicate #else", name,
                                        head.line, head.col)
            parent_active = all(f[0] for f in cond_stack[:-1])
            frame[0] = parent_active and not frame[1]
            frame[1] = True
            frame[2] = True
        elif directive == "endif":
            if not cond_stack:
                raise PreprocessorError("#endif without #if", name,
                                        head.line, head.col)
            cond_stack.pop()
        elif not active:
            return
        elif directive == "define":
            self._define(args, name)
        elif directive == "undef":
            if args and args[0].kind in (ID, KEYWORD):
                self.macros.pop(args[0].text, None)
        elif directive == "include":
            self._include(args, out, name)
        elif directive == "error":
            message = tokens_to_text(args).strip()
            raise PreprocessorError(f"#error {message}", name,
                                    head.line, head.col)
        elif directive in ("warning", "pragma", "line"):
            pass
        else:
            raise PreprocessorError(f"unknown directive #{directive}", name,
                                    head.line, head.col)

    def _define(self, args: list[Token], name: str) -> None:
        if not args or args[0].kind not in (ID, KEYWORD):
            raise PreprocessorError("#define expects a name", name)
        macro_name = args[0].text
        rest = args[1:]
        params: list[str] | None = None
        variadic = False
        # Function-like only when '(' immediately follows the name.
        if rest and rest[0].is_punct("(") and not rest[0].space_before:
            params = []
            i = 1
            if i < len(rest) and rest[i].is_punct(")"):
                i += 1
            else:
                while True:
                    if i >= len(rest):
                        raise PreprocessorError(
                            f"unterminated parameter list for {macro_name}",
                            name)
                    tok = rest[i]
                    if tok.is_punct("..."):
                        variadic = True
                        i += 1
                    elif tok.kind in (ID, KEYWORD):
                        params.append(tok.text)
                        i += 1
                    else:
                        raise PreprocessorError(
                            f"bad macro parameter {tok.text!r}", name,
                            tok.line, tok.col)
                    if i < len(rest) and rest[i].is_punct(","):
                        i += 1
                        continue
                    if i < len(rest) and rest[i].is_punct(")"):
                        i += 1
                        break
                    raise PreprocessorError(
                        f"expected ',' or ')' in macro {macro_name}", name)
            body = rest[i:]
        else:
            body = rest
        self.macros[macro_name] = Macro(macro_name, params, variadic,
                                        [t.clone() for t in body])

    def _include(self, args: list[Token], out: list[Token], name: str) -> None:
        header = self._include_target(args, name)
        if header in self._include_stack:
            return  # cycle: headers here are all effectively once-only
        if header not in self.includes:
            raise PreprocessorError(f"header not found: {header!r}", name)
        self.included_files.append(header)
        self._include_stack.append(header)
        try:
            out.extend(self._process_text(self.includes[header], header,
                                          cache_tokens=True))
        finally:
            self._include_stack.pop()

    def _include_target(self, args: list[Token], name: str) -> str:
        if args and args[0].kind == STRING:
            return args[0].text[1:-1]
        if args and args[0].is_punct("<"):
            parts = []
            for tok in args[1:]:
                if tok.is_punct(">"):
                    return "".join(parts)
                parts.append(tok.text)
        raise PreprocessorError("malformed #include", name)

    # ------------------------------------------------------ macro expansion

    def _expand(self, tokens: list[Token], name: str,
                depth: int = 0) -> list[Token]:
        if depth > self.MAX_EXPANSION_DEPTH:
            raise PreprocessorError("macro expansion too deep", name)
        out: list[Token] = []
        i = 0
        n = len(tokens)
        while i < n:
            tok = tokens[i]
            if tok.kind not in (ID, KEYWORD):
                out.append(tok)
                i += 1
                continue
            macro = self.macros.get(tok.text)
            hidden = tok.expanded_from or frozenset()
            if macro is None or tok.text in hidden:
                out.append(tok)
                i += 1
                continue
            if macro.is_function:
                j = i + 1
                if j >= n or not tokens[j].is_punct("("):
                    out.append(tok)     # name not followed by '(' — literal
                    i += 1
                    continue
                call_args, j = _collect_arguments(tokens, j, name)
                replaced = self._substitute(macro, call_args, name)
                new_hidden = hidden | {macro.name}
                for r in replaced:
                    r.expanded_from = (r.expanded_from or frozenset()) | new_hidden
                out.extend(self._expand(replaced, name, depth + 1))
                i = j
            else:
                replaced = [t.clone() for t in macro.body]
                new_hidden = hidden | {macro.name}
                for r in replaced:
                    r.expanded_from = (r.expanded_from or frozenset()) | new_hidden
                if replaced:
                    replaced[0].space_before = tok.space_before
                out.extend(self._expand(replaced, name, depth + 1))
                i += 1
        return out

    def _substitute(self, macro: Macro, args: list[list[Token]],
                    name: str) -> list[Token]:
        params = macro.params or []
        if macro.variadic:
            if len(args) < len(params):
                args = args + [[] for _ in range(len(params) - len(args))]
            va_args = args[len(params):]
            named = args[:len(params)]
        else:
            if len(args) == 1 and not args[0] and not params:
                args = []
            if len(args) != len(params):
                raise PreprocessorError(
                    f"macro {macro.name} expects {len(params)} args, "
                    f"got {len(args)}", name)
            va_args = []
            named = args
        arg_map = dict(zip(params, named))

        def lookup(param_tok: Token) -> list[Token] | None:
            if param_tok.kind in (ID, KEYWORD):
                if param_tok.text in arg_map:
                    return arg_map[param_tok.text]
                if param_tok.text == "__VA_ARGS__" and macro.variadic:
                    joined: list[Token] = []
                    for k, a in enumerate(va_args):
                        if k:
                            joined.append(Token(PUNCT, ","))
                        joined.extend(t.clone() for t in a)
                    return joined
            return None

        out: list[Token] = []
        body = macro.body
        i = 0
        n = len(body)
        while i < n:
            tok = body[i]
            # '#' stringize
            if tok.is_punct("#") and i + 1 < n:
                arg = lookup(body[i + 1])
                if arg is not None:
                    text = tokens_to_text(arg).strip().replace("\\", "\\\\") \
                                              .replace('"', '\\"')
                    out.append(Token(STRING, f'"{text}"',
                                     space_before=tok.space_before))
                    i += 2
                    continue
            # '##' paste
            if i + 1 < n and body[i + 1].is_punct("##"):
                left = lookup(tok)
                left_toks = ([t.clone() for t in left] if left is not None
                             else [tok.clone()])
                i += 2
                if i >= n:
                    raise PreprocessorError("'##' at end of macro body", name)
                right = lookup(body[i])
                right_toks = ([t.clone() for t in right] if right is not None
                              else [body[i].clone()])
                i += 1
                pasted = _paste(left_toks, right_toks, name)
                out.extend(pasted)
                continue
            arg = lookup(tok)
            if arg is not None:
                expanded_arg = self._expand([t.clone() for t in arg], name)
                if expanded_arg:
                    expanded_arg[0].space_before = tok.space_before
                out.extend(expanded_arg)
            else:
                out.append(tok.clone())
            i += 1
        return out

    # ------------------------------------------------- #if expression eval

    def _eval_condition(self, tokens: list[Token], name: str) -> int:
        # Handle 'defined X' / 'defined(X)' before macro expansion.
        resolved: list[Token] = []
        i = 0
        n = len(tokens)
        while i < n:
            tok = tokens[i]
            if tok.kind == ID and tok.text == "defined":
                i += 1
                if i < n and tokens[i].is_punct("("):
                    i += 1
                    if i >= n or tokens[i].kind not in (ID, KEYWORD):
                        raise PreprocessorError("bad defined()", name)
                    target = tokens[i].text
                    i += 1
                    if i >= n or not tokens[i].is_punct(")"):
                        raise PreprocessorError("bad defined()", name)
                    i += 1
                elif i < n and tokens[i].kind in (ID, KEYWORD):
                    target = tokens[i].text
                    i += 1
                else:
                    raise PreprocessorError("bad defined", name)
                resolved.append(Token(
                    NUMBER, "1" if target in self.macros else "0"))
            else:
                resolved.append(tok)
                i += 1
        expanded = self._expand(resolved, name)
        # Remaining identifiers evaluate to 0 (C11 6.10.1p4).
        final: list[Token] = []
        for tok in expanded:
            if tok.kind in (ID, KEYWORD):
                final.append(Token(NUMBER, "0"))
            else:
                final.append(tok)
        return _CondParser(final, name).parse()


# ---------------------------------------------------------------- helpers

def _check_decodable(text: str, name: str) -> None:
    """Reject a text (a file or a header it includes) that holds a byte
    that is not UTF-8, naming the file, line and byte."""
    found = UNDECODABLE.search(text)
    if found is not None:
        at = found.start()
        raise PreprocessorError(
            f"byte 0x{ord(found.group()) - 0xDC00:02x} is not UTF-8", name,
            text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def _collect_line(tokens: list[Token], i: int) -> tuple[list[Token], int]:
    """Collect tokens up to (excluding) the next NEWLINE; skip the newline."""
    out = []
    n = len(tokens)
    while i < n and tokens[i].kind not in (NEWLINE, EOF):
        out.append(tokens[i])
        i += 1
    if i < n and tokens[i].kind == NEWLINE:
        i += 1
    return out, i


def _collect_arguments(tokens: list[Token], i: int,
                       name: str) -> tuple[list[list[Token]], int]:
    """Collect macro call arguments; ``i`` points at '('. Returns (args, next)."""
    assert tokens[i].is_punct("(")
    i += 1
    args: list[list[Token]] = []
    current: list[Token] = []
    depth = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind in (NEWLINE,):
            i += 1
            continue
        if tok.kind == EOF:
            break
        if tok.is_punct("(") or tok.is_punct("[") or tok.is_punct("{"):
            depth += 1
            current.append(tok)
        elif tok.is_punct(")") and depth == 0:
            args.append(current)
            return args, i + 1
        elif tok.is_punct(")") or tok.is_punct("]") or tok.is_punct("}"):
            depth -= 1
            current.append(tok)
        elif tok.is_punct(",") and depth == 0:
            args.append(current)
            current = []
        else:
            current.append(tok)
        i += 1
    raise PreprocessorError("unterminated macro argument list", name)


def _paste(left: list[Token], right: list[Token], name: str) -> list[Token]:
    """Implement '##': join the last token of left with the first of right."""
    if not left:
        return right
    if not right:
        return left
    joined_text = left[-1].text + right[0].text
    rescanned = [t for t in tokenize(joined_text, "<paste>") if t.kind != EOF]
    if len(rescanned) != 1:
        raise PreprocessorError(
            f"pasting {left[-1].text!r} and {right[0].text!r} does not form "
            f"a valid token", name)
    rescanned[0].space_before = left[-1].space_before
    return left[:-1] + rescanned + right[1:]


def _parse_pp_number(text: str) -> int:
    """Parse an integer constant for #if evaluation."""
    t = text.rstrip("uUlL")
    try:
        return int(t, 0)
    except ValueError as exc:
        raise PreprocessorError(f"bad integer constant {text!r}") from exc


class _CondParser:
    """Precedence-climbing parser/evaluator for #if expressions."""

    _BINOPS = {
        "||": (1, lambda a, b: int(bool(a) or bool(b))),
        "&&": (2, lambda a, b: int(bool(a) and bool(b))),
        "|": (3, lambda a, b: a | b),
        "^": (4, lambda a, b: a ^ b),
        "&": (5, lambda a, b: a & b),
        "==": (6, lambda a, b: int(a == b)),
        "!=": (6, lambda a, b: int(a != b)),
        "<": (7, lambda a, b: int(a < b)),
        ">": (7, lambda a, b: int(a > b)),
        "<=": (7, lambda a, b: int(a <= b)),
        ">=": (7, lambda a, b: int(a >= b)),
        "<<": (8, lambda a, b: a << b),
        ">>": (8, lambda a, b: a >> b),
        "+": (9, lambda a, b: a + b),
        "-": (9, lambda a, b: a - b),
        "*": (10, lambda a, b: a * b),
        "/": (10, lambda a, b: a // b if b else 0),
        "%": (10, lambda a, b: a % b if b else 0),
    }

    def __init__(self, tokens: list[Token], name: str):
        self.tokens = tokens
        self.pos = 0
        self.name = name

    def parse(self) -> int:
        value = self._ternary()
        if self.pos != len(self.tokens):
            raise PreprocessorError("trailing tokens in #if expression",
                                    self.name)
        return value

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _ternary(self) -> int:
        cond = self._binary(0)
        tok = self._peek()
        if tok is not None and tok.is_punct("?"):
            self.pos += 1
            then = self._ternary()
            tok = self._peek()
            if tok is None or not tok.is_punct(":"):
                raise PreprocessorError("expected ':' in ?:", self.name)
            self.pos += 1
            other = self._ternary()
            return then if cond else other
        return cond

    def _binary(self, min_prec: int) -> int:
        left = self._unary()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != PUNCT or tok.text not in self._BINOPS:
                return left
            prec, fn = self._BINOPS[tok.text]
            if prec < min_prec:
                return left
            self.pos += 1
            right = self._binary(prec + 1)
            left = fn(left, right)

    def _unary(self) -> int:
        tok = self._peek()
        if tok is None:
            raise PreprocessorError("unexpected end of #if expression",
                                    self.name)
        if tok.is_punct("!"):
            self.pos += 1
            return int(not self._unary())
        if tok.is_punct("-"):
            self.pos += 1
            return -self._unary()
        if tok.is_punct("+"):
            self.pos += 1
            return self._unary()
        if tok.is_punct("~"):
            self.pos += 1
            return ~self._unary()
        if tok.is_punct("("):
            self.pos += 1
            value = self._ternary()
            closing = self._peek()
            if closing is None or not closing.is_punct(")"):
                raise PreprocessorError("missing ')' in #if expression",
                                        self.name)
            self.pos += 1
            return value
        if tok.kind == NUMBER:
            self.pos += 1
            return _parse_pp_number(tok.text)
        if tok.kind == CHAR_CONST:
            self.pos += 1
            from .literals import parse_char_constant
            return parse_char_constant(tok.text)
        raise PreprocessorError(
            f"unexpected token {tok.text!r} in #if expression", self.name)


def _squeeze_blank_lines(text: str) -> str:
    out: list[str] = []
    blank = False
    for line in text.splitlines():
        if line.strip():
            out.append(line)
            blank = False
        elif not blank:
            out.append("")
            blank = True
    return "\n".join(out) + ("\n" if out else "")
