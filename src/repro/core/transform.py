"""Transformation framework.

A :class:`Transformation` runs against one preprocessed translation unit:
it finds candidate sites, checks per-site preconditions, queues text edits,
and reports a :class:`TransformResult` with per-site outcomes.  Mirrors how
the paper drives SLR/STR both interactively (one selected site) and as a
batch over all targets (§IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import ProgramAnalysis
from ..cfront import astnodes as ast
from ..cfront.rewriter import Rewriter
from ..cfront.source import SourceFile
from .session import AnalysisSession, get_session

TRANSFORMED = "transformed"
PRECONDITION_FAILED = "precondition-failed"
SITE_ERROR = "site-error"


@dataclass
class SiteOutcome:
    """What happened at one candidate site."""

    transformation: str         # 'SLR' | 'STR'
    target: str                 # callee name (SLR) / variable name (STR)
    function: str               # enclosing function
    line: int
    status: str                 # TRANSFORMED | PRECONDITION_FAILED
                                # | SITE_ERROR (handler raised, contained)
    reason: str = ""            # failure taxonomy key, empty on success
    detail: str = ""

    @property
    def transformed(self) -> bool:
        return self.status == TRANSFORMED


@dataclass
class TransformResult:
    """Result of running a transformation over a translation unit."""

    transformation: str
    original_text: str
    new_text: str
    outcomes: list[SiteOutcome] = field(default_factory=list)
    #: Registry id of the fix backend that produced this result (set by
    #: :meth:`repro.core.backends.FixBackend.run`; empty for results
    #: built outside the registry, e.g. direct ``apply_slr`` calls).
    backend: str = ""
    #: The ``(start, end, replacement)`` edits the sites queued, in
    #: queue order, and the whole-file edits :meth:`Transformation.finalize`
    #: queued after them (support declarations): the incremental engine
    #: slices a run into per-function records from these.
    site_edits: tuple = ()
    finalize_edits: tuple = ()
    #: function -> the support declarations its sites asked for (SLR).
    decls_by_function: dict[str, frozenset] = field(default_factory=dict)

    @property
    def changed(self) -> bool:
        return self.new_text != self.original_text

    @property
    def candidates(self) -> int:
        return len(self.outcomes)

    @property
    def transformed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.transformed)

    @property
    def failed_count(self) -> int:
        return self.candidates - self.transformed_count

    @property
    def percent_transformed(self) -> float:
        if not self.outcomes:
            return 0.0
        return 100.0 * self.transformed_count / self.candidates

    def failures_by_reason(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            if not outcome.transformed:
                counts[outcome.reason] = counts.get(outcome.reason, 0) + 1
        return counts

    def by_target(self) -> dict[str, tuple[int, int]]:
        """target -> (transformed, total)."""
        stats: dict[str, tuple[int, int]] = {}
        for outcome in self.outcomes:
            done, total = stats.get(outcome.target, (0, 0))
            stats[outcome.target] = (done + int(outcome.transformed),
                                     total + 1)
        return stats


class Transformation:
    """Base class: subclasses implement ``find_targets`` and ``apply_to``."""

    name = "transformation"

    def __init__(self, text: str, filename: str = "<unit>",
                 unit: ast.TranslationUnit | None = None,
                 analysis: ProgramAnalysis | None = None,
                 session: AnalysisSession | None = None):
        self.text = text
        self.filename = filename
        self.session = session if session is not None else get_session()
        if unit is None:
            parsed = self.session.parse(text, filename)
            unit = parsed.unit
            if analysis is None:
                analysis = parsed.analysis
        self.unit = unit
        self.analysis = analysis if analysis is not None \
            else ProgramAnalysis(unit).ensure_types()
        self.rewriter = Rewriter(text)
        self.source = SourceFile(filename, text)
        self.outcomes: list[SiteOutcome] = []
        #: function -> support declarations its sites need (SLR's
        #: finalize block is rebuilt from these).
        self.decls_by_function: dict[str, set[str]] = {}

    # -------------------------------------------------- subclass interface

    def find_targets(self) -> list:
        raise NotImplementedError

    def apply_to(self, target) -> SiteOutcome:
        raise NotImplementedError

    def finalize(self) -> None:
        """Hook for whole-file edits (e.g. adding declarations)."""

    # -------------------------------------------------------------- driver

    def run(self, targets: list | None = None) -> TransformResult:
        """Apply to all targets (or the given subset); returns the result.

        A site whose handler raises is contained: its queued edits are
        rolled back and it is recorded as a ``site-error`` outcome, so
        one pathological call site cannot take down the rest of the
        file's transformations (nor ship a half-applied rewrite).
        Injected whole-file faults (:mod:`repro.core.faults`) derive
        from :class:`BaseException` and still propagate.
        """
        for target in (targets if targets is not None
                       else self.find_targets()):
            mark = self.rewriter.checkpoint()
            try:
                outcome = self.apply_to(target)
            except Exception as exc:
                self.rewriter.rollback(mark)
                outcome = self._site_error_outcome(target, exc)
            self.outcomes.append(outcome)
        return self._result()

    def _result(self) -> TransformResult:
        """Run :meth:`finalize` after the sites and build the result."""
        site_edits = self.rewriter.edits_since(0)
        self.finalize()
        new_text = self.rewriter.apply() if self.rewriter.has_edits \
            else self.text
        return TransformResult(
            self.name, self.text, new_text, sort_outcomes(self.outcomes),
            site_edits=site_edits,
            finalize_edits=self.rewriter.edits_since(len(site_edits)),
            decls_by_function={name: frozenset(decls) for name, decls
                               in self.decls_by_function.items()})

    def _site_error_outcome(self, target, exc: Exception) -> SiteOutcome:
        """A contained per-site failure as a reportable outcome."""
        name = getattr(target, "callee_name", None) \
            or getattr(target, "name", None) or "<target>"
        try:
            function = self.function_of(target)
            line = self.line_of(target)
        except Exception:
            function, line = "<unknown>", 0
        return SiteOutcome(self.name, name, function, line,
                           status=SITE_ERROR, reason="internal-error",
                           detail=f"{type(exc).__name__}: {exc}")

    # -------------------------------------------------------------- helpers

    def line_of(self, node: ast.Node) -> int:
        return self.source.line_col(node.extent.start)[0]

    def function_of(self, node: ast.Node) -> str:
        fn = node.enclosing_function()
        return fn.name if fn is not None else "<global>"

    def src(self, node: ast.Node) -> str:
        return node.source_text(self.text)


def sort_outcomes(outcomes: list[SiteOutcome]) -> list[SiteOutcome]:
    """Source order (line, then target/transformation) — the application
    order is an implementation detail (SLR edits bottom-up), but reports
    must be byte-identical however the sites were visited."""
    return sorted(outcomes,
                  key=lambda o: (o.line, o.target, o.transformation))
