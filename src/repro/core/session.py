"""The shared analysis session behind the whole transformation pipeline.

Every pipeline stage — preprocessing, SLR, STR, the post-transform
"still parses" verify, and the VM's parse-bind-typecheck prologue —
consumes C text through one :class:`AnalysisSession`.  The session keys
parsed units by content hash, so a text that any stage has already
processed is never parsed, bound, or typechecked again within a
process: SLR's input unit is reused by the VM's "before" run, STR's
output unit by the verify step and the "after" run, and repeated
evaluation passes over the same corpus hit the cache outright.

Cached units are *annotated* (symbols bound, expression types assigned)
and carry a lazy :class:`~repro.analysis.ProgramAnalysis`, so the heavy
flow analyses are still only built for the stages that query them.
Units live in memory only.  What a later process needs from a parse is
the verify verdict, and :meth:`AnalysisSession.verify` persists just
that: a text that parsed once is never parsed again to learn it parses.

A miss on a *new* text still skips most of the work when the text
starts with a header preamble the process has parsed before: the parser
and the binder share that preamble's declarations and global symbols
read-only between the units (see :mod:`repro.cfront.parser`), so
cached units may hold the same preamble nodes and symbols.

A module-level default session (:func:`get_session`) serves code that
does not thread a session explicitly; worker processes forked by the
batch executor inherit the parent's warmed default session for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import ProgramAnalysis
from ..cfront.cache import (
    CacheStats, ContentCache, content_key, preprocess_cached,
)
from ..cfront.parser import parse_translation_unit
from ..cfront.preprocessor import PreprocessedSource
from . import profile


@dataclass
class ParsedUnit:
    """One cached parse: annotated AST + lazy analysis facade."""

    text: str
    filename: str
    unit: object                    # ast.TranslationUnit
    analysis: ProgramAnalysis


#: Verify verdicts, persisted: an entry means "this text parses".  A
#: failing text raises out of the build, so it is never stored and its
#: diagnostic is recomputed the same way on every run.
_VERIFY_CACHE = ContentCache("verify", family="verify")


class AnalysisSession:
    """Owns the parse/analysis cache and the preprocess entry point.

    The parse cache is keyed on text content alone (a unit is a pure
    function of its preprocessed text — the filename only labels
    diagnostics, so the first-seen name wins).
    """

    def __init__(self, *, cache_name: str = "parse"):
        self._parse_cache = ContentCache(cache_name)

    # ------------------------------------------------------------ pipeline

    def preprocess(self, text: str, filename: str = "<string>",
                   include_paths: dict[str, str] | None = None,
                   predefined: dict[str, str] | None = None,
                   ) -> PreprocessedSource:
        """Preprocess ``text`` through the content-keyed frontend cache;
        ``include_paths`` maps private header names to their text."""
        return preprocess_cached(text, filename, include_paths, predefined)

    def parse(self, text: str, filename: str = "<unit>") -> ParsedUnit:
        """Parse + bind + typecheck ``text``, cached by content.

        The returned unit is shared between callers and must be treated
        as read-only; transformations queue edits against the *text* in
        a separate rewriter, never against the AST.
        """
        key = content_key(text)

        def build() -> ParsedUnit:
            with profile.stage("parse"):
                unit = parse_translation_unit(text, filename)
            with profile.stage("analyze"):
                analysis = ProgramAnalysis(unit).ensure_types()
            return ParsedUnit(text, filename, unit, analysis)

        return self._parse_cache.get_or_build(key, build)

    def try_parse(self, text: str, filename: str = "<unit>"
                  ) -> tuple[ParsedUnit | None, Exception | None]:
        """:meth:`parse` with the failure contained: ``(unit, None)`` on
        success, ``(None, exception)`` on any parse/bind/typecheck error.

        The containment seam for the batch pipeline — a stage that wants
        the *reason* a text does not parse (to attach it to a
        :class:`~repro.core.diagnostics.FileDiagnostic`) uses this
        instead of re-raising through the cache layer.
        """
        try:
            return self.parse(text, filename), None
        except Exception as exc:
            return None, exc

    def verify(self, text: str, filename: str = "<transformed>"
               ) -> Exception | None:
        """The paper's 'no compilation errors' check: ``None`` when
        ``text`` parses, else the parse error.

        A success is remembered across processes, so a warm run learns
        the verdict without loading or building an AST; a miss parses
        through :meth:`try_parse` and leaves the unit in memory for
        downstream consumers (e.g. the VM run).
        """
        def build() -> bool:
            error = self.try_parse(text, filename)[1]
            if error is not None:
                raise error
            return True

        try:
            _VERIFY_CACHE.get_or_build(content_key("verify", text), build)
        except Exception as exc:
            return exc
        return None

    # ------------------------------------------------------------ counters

    @property
    def parse_stats(self) -> CacheStats:
        return self._parse_cache.stats

    def clear(self) -> None:
        self._parse_cache.clear()


_DEFAULT_SESSION: AnalysisSession | None = None


def get_session() -> AnalysisSession:
    """The process-wide default session (created on first use)."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = AnalysisSession()
    return _DEFAULT_SESSION


def reset_session() -> AnalysisSession:
    """Replace the default session with a fresh one (tests, tooling)."""
    global _DEFAULT_SESSION
    _DEFAULT_SESSION = AnalysisSession()
    return _DEFAULT_SESSION
