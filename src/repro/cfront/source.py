"""Source-file model: files, positions, extents.

Every stage of the frontend (lexer, preprocessor, parser, rewriter) speaks in
terms of this module.  A :class:`SourceFile` owns the text; a
:class:`SourceExtent` is a half-open ``[start, end)`` byte range into that
text.  AST nodes carry extents so that transformations can make minimal,
faithful text edits.
"""

from __future__ import annotations

import bisect
import re

#: A byte that is not UTF-8, as :func:`repro.core.batch.read_source`
#: reads one: ``errors="surrogateescape"`` maps it to a lone surrogate.
UNDECODABLE = re.compile("[\udc80-\udcff]")


class SourceError(Exception):
    """Base class for all frontend errors carrying a source location."""

    def __init__(self, message: str, filename: str = "<unknown>",
                 line: int = 0, col: int = 0):
        self.message = message
        self.filename = filename
        self.line = line
        self.col = col
        super().__init__(f"{filename}:{line}:{col}: {message}")

    def __reduce__(self):
        # Rebuild from the structured fields, not the formatted string,
        # so errors crossing a multiprocessing pool round-trip exactly.
        return (type(self), (self.message, self.filename,
                             self.line, self.col))


class LexError(SourceError):
    """Raised when the lexer encounters an untokenizable character."""


class ParseError(SourceError):
    """Raised when the parser rejects the token stream."""


class PreprocessorError(SourceError):
    """Raised on malformed or unsupported preprocessor input."""


class SourceFile:
    """A named body of C source text with O(log n) offset->line/col mapping."""

    def __init__(self, name: str, text: str):
        self.name = name
        self.text = text
        # Offsets of the first character of each line; line numbers are
        # 1-based, columns are 1-based.
        self._line_starts = [0]
        find = text.find
        pos = find("\n")
        while pos != -1:
            self._line_starts.append(pos + 1)
            pos = find("\n", pos + 1)

    def __repr__(self) -> str:
        return f"SourceFile({self.name!r}, {len(self.text)} chars)"

    def line_col(self, offset: int) -> tuple[int, int]:
        """Map a byte offset to a (line, column) pair, both 1-based."""
        if offset < 0:
            offset = 0
        idx = bisect.bisect_right(self._line_starts, offset) - 1
        return idx + 1, offset - self._line_starts[idx] + 1

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line, without its newline."""
        if not 1 <= line <= len(self._line_starts):
            return ""
        start = self._line_starts[line - 1]
        end = (self._line_starts[line] - 1
               if line < len(self._line_starts) else len(self.text))
        return self.text[start:end]

    @property
    def line_count(self) -> int:
        return len(self._line_starts)

    def slice(self, start: int, end: int) -> str:
        return self.text[start:end]


class SourceExtent:
    """A half-open [start, end) range in a :class:`SourceFile`.

    Plain ``__slots__`` class rather than a frozen dataclass: one extent is
    built per AST node and per token ``.extent`` access, and the generated
    frozen ``__init__`` (which funnels through ``object.__setattr__``)
    dominated parse-stage profiles.  Value semantics are preserved by the
    explicit ``__eq__``/``__hash__``.
    """

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        if end < start:
            raise ValueError(f"backwards extent [{start}, {end})")
        self.start = start
        self.end = end

    def __eq__(self, other) -> bool:
        return isinstance(other, SourceExtent) and \
            self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"SourceExtent(start={self.start}, end={self.end})"

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains(self, other: "SourceExtent") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "SourceExtent") -> bool:
        return self.start < other.end and other.start < self.end

    def union(self, other: "SourceExtent") -> "SourceExtent":
        return SourceExtent(min(self.start, other.start),
                            max(self.end, other.end))


def count_source_lines(text: str) -> int:
    """Count non-blank source lines, the way KLOC figures are reported."""
    return sum(1 for line in text.splitlines() if line.strip())
