"""C99 lexer.

One master-regex tokenizer serves both the preprocessor (which needs
newline-significant token streams and ``#`` directive detection) and the
parser (which consumes a newline-free stream of preprocessed tokens).
Comments and whitespace are skipped but recorded via ``space_before`` so the
preprocessor can regenerate readable text.

The hot loop dispatches on the master pattern's *group index* (an int
compare instead of a ``lastgroup`` string lookup), tracks line/column
incrementally instead of binary-searching the line table per token, and
replaces keyword/punctuator slices with their interned canonical
spellings (:data:`~repro.cfront.tokens.KEYWORD_SPELLINGS` /
:data:`~repro.cfront.tokens.PUNCT_SPELLINGS`).
"""

from __future__ import annotations

import re
from sys import intern as _intern

from .source import LexError, SourceFile
from .tokens import (
    CHAR_CONST, EOF, HASH, ID, KEYWORD, KEYWORD_SPELLINGS, NEWLINE, NUMBER,
    PUNCT, PUNCT_SPELLINGS, PUNCTUATORS, STRING, Token,
)

_PUNCT_ALTERNATION = "|".join(re.escape(p) for p in PUNCTUATORS)

# Order matters: comments and strings must win over punctuation; floats over
# ints.  Preprocessing numbers (C99 6.4.8) are matched loosely and validated
# later where it matters.
#
# Each mode's master pattern swallows the whitespace *preceding* a token in
# the same match (the optional ``ws`` prefix group), so the hot loop runs
# one regex match per token rather than one per whitespace run + one per
# token.  ``end`` matches only at end-of-input, so a trailing whitespace
# run still yields a successful (final) match.  The two modes differ in
# where newlines live: the preprocessor needs them as tokens, the parser
# only needs them counted, so the parser-mode pattern folds ``\n`` into
# the prefix and drops the ``newline`` group.
_CORE = r"""
    (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<unterminated_comment>/\*.*)
  %(newline)s
  | (?P<string>L?"(?:[^"\\\n]|\\.)*")
  | (?P<char>L?'(?:[^'\\\n]|\\.)+')
  | (?P<number>\.?[0-9](?:[eEpP][+-]|[0-9a-zA-Z_.])*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>%(punct)s)
  | (?P<end>\Z)
"""

_MASTER_PP = re.compile(
    r"(?P<ws>[ \t\r\f\v]+)?(?:" +
    _CORE % {"newline": r"| (?P<newline>\n)", "punct": _PUNCT_ALTERNATION} +
    r")",
    re.VERBOSE | re.DOTALL,
)
_MASTER_CC = re.compile(
    r"(?P<ws>[ \t\r\f\v\n]+)?(?:" +
    _CORE % {"newline": "", "punct": _PUNCT_ALTERNATION} +
    r")",
    re.VERBOSE | re.DOTALL,
)

# Group indices, for integer dispatch in the loop.  Groups shared by both
# patterns sit at the same indices (the pp-only ``newline`` group is last
# before ``string`` in _MASTER_PP, shifting the groups after it, so each
# pattern gets its own index table).


def _group_table(master: re.Pattern) -> dict[str, int]:
    return {name: master.groupindex[name]
            for name in master.groupindex}


_G_PP = _group_table(_MASTER_PP)
_G_CC = _group_table(_MASTER_CC)

_LINE_SPLICE = re.compile(r"\\\r?\n")


def splice_lines(text: str) -> str:
    """Remove backslash-newline line splices (translation phase 2).

    Replaces each splice with nothing; line numbers downstream refer to the
    spliced text, which is how the rest of the pipeline sees the file.
    """
    return _LINE_SPLICE.sub("", text)


class Lexer:
    """Tokenizes a :class:`SourceFile` into :class:`Token` objects."""

    def __init__(self, source: SourceFile, *, preprocessor_mode: bool = False):
        self.source = source
        self.preprocessor_mode = preprocessor_mode

    def tokenize(self, start: int = 0, line: int = 1) -> list[Token]:
        """Tokens from offset ``start`` (on 1-based ``line``) to the end.

        The parser resumes after a shared preamble this way.  ``start``
        must then be the end offset of a token of the same text, and in
        parser mode the result is exactly the tail of a lex from 0.
        """
        src = self.source
        text = src.text
        tokens: list[Token] = []
        append = tokens.append
        keyword_of = KEYWORD_SPELLINGS.get
        punct_of = PUNCT_SPELLINGS
        pp_mode = self.preprocessor_mode
        groups = _G_PP if pp_mode else _G_CC
        match_at = (_MASTER_PP if pp_mode else _MASTER_CC).match
        g_line_comment = groups["line_comment"]
        g_block_comment = groups["block_comment"]
        g_unterminated = groups["unterminated_comment"]
        g_newline = groups.get("newline", -1)
        g_string = groups["string"]
        g_char = groups["char"]
        g_number = groups["number"]
        g_id = groups["id"]
        g_end = groups["end"]
        pos = start
        length = len(text)
        space_pending = False
        # ``line`` is the 1-based line of ``pos``; ``line_begin`` the
        # offset of that line's first character.
        line_begin = text.rfind("\n", 0, pos) + 1
        at_line_start = pos == line_begin

        while pos < length:
            match = match_at(text, pos)
            if match is None:
                # Skip the whitespace prefix so the error names the actual
                # offending character, not the space before it.
                bad = pos
                ws_chars = " \t\r\f\v" if pp_mode else " \t\r\f\v\n"
                while bad < length and text[bad] in ws_chars:
                    if text[bad] == "\n":
                        line += 1
                        line_begin = bad + 1
                    bad += 1
                raise LexError(f"unexpected character {text[bad]!r}",
                               src.name, line, bad - line_begin + 1)
            group = match.lastindex
            start = match.start(group)
            if start != pos:
                # The optional ws prefix matched.
                space_pending = True
                if not pp_mode and "\n" in (ws := text[pos:start]):
                    line += ws.count("\n")
                    line_begin = pos + ws.rfind("\n") + 1
            pos = match.end()

            if group == g_end:
                break
            if group == g_id:
                tok_text = match.group(group)
                canonical = keyword_of(tok_text)
                if canonical is None:
                    tkind = ID
                    tok_text = _intern(tok_text)
                else:
                    tkind = KEYWORD
                    tok_text = canonical
            elif group == g_number:
                tkind = NUMBER
                tok_text = match.group(group)
            elif group == g_string:
                tkind = STRING
                tok_text = match.group(group)
            elif group == g_char:
                tkind = CHAR_CONST
                tok_text = match.group(group)
            elif group == g_line_comment:
                space_pending = True
                continue
            elif group == g_block_comment:
                space_pending = True
                tok_text = match.group(group)
                if "\n" in tok_text:
                    if pp_mode:
                        # A block comment spanning lines still ends the
                        # logical preprocessor line(s) it crosses.
                        nl = tok_text.find("\n")
                        while nl != -1:
                            off = start + nl
                            append(Token(NEWLINE, "\n", off, line,
                                         off - line_begin + 1))
                            line += 1
                            line_begin = off + 1
                            nl = tok_text.find("\n", nl + 1)
                        at_line_start = True
                    else:
                        line += tok_text.count("\n")
                        line_begin = start + tok_text.rfind("\n") + 1
                continue
            elif group == g_unterminated:
                raise LexError("unterminated block comment",
                               src.name, line, start - line_begin + 1)
            elif group == g_newline:
                append(Token(NEWLINE, "\n", start, line,
                             start - line_begin + 1))
                line += 1
                line_begin = pos
                at_line_start = True
                space_pending = False
                continue
            else:  # punct
                tok_text = match.group(group)
                if pp_mode and tok_text == "#" and at_line_start:
                    tkind = HASH
                else:
                    tkind = PUNCT
                tok_text = punct_of[tok_text]
            col = start - line_begin + 1
            append(Token(tkind, tok_text, start, line, col, space_pending))
            space_pending = False
            at_line_start = False
            if (tkind is STRING or tkind is CHAR_CONST) and \
                    "\n" in tok_text:
                # Only reachable on unspliced input (a backslash-newline
                # escape inside a literal); keep the line count honest.
                line += tok_text.count("\n")
                line_begin = start + tok_text.rfind("\n") + 1

        eof_line, eof_col = line, length - line_begin + 1
        if pp_mode and tokens and tokens[-1].kind != NEWLINE:
            append(Token(NEWLINE, "\n", length, eof_line, eof_col))
        append(Token(EOF, "", length, eof_line, eof_col))
        return tokens


def tokenize(text: str, name: str = "<string>",
             *, preprocessor_mode: bool = False) -> list[Token]:
    """Convenience wrapper: splice lines, build a SourceFile, tokenize."""
    spliced = splice_lines(text)
    return Lexer(SourceFile(name, spliced),
                 preprocessor_mode=preprocessor_mode).tokenize()
