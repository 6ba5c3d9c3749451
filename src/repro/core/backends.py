"""Pluggable fix-backend registry and per-file best-fix arbitration.

The paper ships exactly two transformations (SLR, STR) and the pipeline
used to hardwire that pair.  This module generalizes the spine: a
:class:`FixBackend` is one registered way of producing a candidate fix
for a translation unit, identified by a stable id that salts every
content-addressed store key its artifacts are filed under.  Three
backends register by default:

``slr``
    SAFE LIBRARY REPLACEMENT with the truncating glib family (paper
    §II-A, Table I).
``str``
    SAFE TYPE REPLACEMENT onto stralloc safe strings (paper §II-B).
``s3lib``
    An S3Library-style *signature-preserving* safer library (Sun et
    al.): unsafe calls are renamed to ``s3_*`` wrappers with identical
    call shapes; the wrappers discover the destination's real capacity
    at runtime (the VM's bounds metadata stands in for S3Library's
    allocation interposition) and truncate instead of smashing.  Because
    no size expression is inserted, sites whose buffer length Algorithm
    1 cannot establish — SLR's main failure class — are still fixable.

**Arbitration** promotes the PR 2 differential oracle from gate to
judge: :func:`arbitrate_file` applies every requested backend to the
same input, validates each candidate against the original under the VM,
and selects the best verdict per file.  The ordering is
``overflow-prevented`` ≻ ``identical`` ≻ no change, and a candidate with
*any* ``semantics-changed`` divergence is disqualified outright — a
worse file is never shipped, extending the PR 5 graceful-degradation
contract to the backend search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfront.cache import ContentCache, content_key
from . import faults, profile
from .diagnostics import diagnostic_from_exception
from .session import AnalysisSession, get_session
from .transform import TransformResult, Transformation
from .validate import (
    VERDICT_BENIGN, VERDICT_PREVENTED,
    ValidationReport, default_inputs, validate_pair,
)

#: Salt for arbitrated reports' work keys: bumped when the arbitration
#: contract (scoring, statuses, candidate shape) changes in a way the
#: tool fingerprint alone would not capture.
ARBITRATION_VERSION = "arb2"

#: The legacy pipeline's backend chain — ``apply_batch`` without a
#: ``backends=`` request runs SLR then STR sequentially, exactly as
#: every PR before the registry did.
DEFAULT_BACKENDS = ("slr", "str")

#: Candidate statuses, best to worst.
CANDIDATE_SELECTED = "selected"            # won the arbitration
CANDIDATE_RUNNER_UP = "runner-up"          # valid fix, a better one won
CANDIDATE_REJECTED = "rejected"            # semantics-changed / no parse
CANDIDATE_NO_CHANGE = "no-change"          # sites found, none transformable
CANDIDATE_NOT_APPLICABLE = "not-applicable"  # no candidate sites at all
CANDIDATE_ERROR = "error"                  # backend raised (contained)


class FixBackend:
    """One registered fix strategy.

    Subclasses provide :meth:`build` (construct the
    :class:`~repro.core.transform.Transformation` for one unit — site
    discovery, per-site preconditions, and the checkpoint/rollback edit
    machinery all come from that base class) and may refine
    :meth:`config_key` when the backend has knobs that change its
    output.  ``id`` is the stable registry name: it appears in CLI
    ``--backends`` lists, scoreboards, diagnostics, and every store key
    the backend's candidates are cached under.
    """

    id: str = ""
    title: str = ""
    description: str = ""

    def build(self, text: str, filename: str,
              session: AnalysisSession) -> Transformation:
        raise NotImplementedError

    def config_key(self) -> str:
        """Extra key material when the backend's output depends on
        configuration beyond its id (e.g. an SLR profile)."""
        return ""

    def run(self, text: str, filename: str,
            session: AnalysisSession | None = None) -> TransformResult:
        """Apply this backend to ``text``; the result is tagged with the
        backend id so downstream consumers can attribute it."""
        session = session if session is not None else get_session()
        result = self.build(text, filename, session).run()
        result.backend = self.id
        return result


class SLRBackend(FixBackend):
    id = "slr"
    title = "Safe Library Replacement (glib)"
    description = ("replace strcpy/strcat/sprintf/vsprintf/gets/memcpy "
                   "with truncating g_strl* alternatives sized by "
                   "Algorithm 1")

    def __init__(self, profile: str = "glib"):
        self.profile = profile                  # "glib" or "c11"

    def build(self, text, filename, session):
        from .slr import SafeLibraryReplacement
        return SafeLibraryReplacement(text, filename, profile=self.profile,
                                      session=session)

    def config_key(self) -> str:
        return f"profile={self.profile}"


class STRBackend(FixBackend):
    id = "str"
    title = "Safe Type Replacement (stralloc)"
    description = ("replace local char buffers with stralloc safe "
                   "strings, rewriting all uses per Table II")

    def build(self, text, filename, session):
        from .strtransform import SafeTypeReplacement
        return SafeTypeReplacement(text, filename, session=session)


class S3LibBackend(FixBackend):
    id = "s3lib"
    title = "S3Library signature-preserving safer library"
    description = ("rename unsafe calls to s3_* wrappers with identical "
                   "signatures; capacity is discovered at runtime, so "
                   "no buffer-length precondition applies")

    def build(self, text, filename, session):
        from .s3lib import S3LibraryReplacement
        return S3LibraryReplacement(text, filename, session=session)


# --------------------------------------------------------------- registry

class UnknownBackendError(KeyError):
    """An unregistered backend id was requested.

    Subclasses :class:`KeyError` so existing ``except KeyError`` guards
    keep working, but renders as the plain message — ``str(KeyError)``
    repr-quotes its argument, which made a typo'd ``--backends`` id
    surface as a quoted blob (or, from entry points without a guard, a
    raw traceback).
    """

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


_REGISTRY: dict[str, FixBackend] = {}


def register_backend(backend: FixBackend, *, replace: bool = False) -> None:
    """Register ``backend`` under its id (tests register stubs; the three
    standard backends are installed at import time)."""
    if not backend.id:
        raise ValueError("backend must carry a non-empty id")
    if backend.id in _REGISTRY and not replace:
        raise ValueError(f"backend {backend.id!r} already registered")
    _REGISTRY[backend.id] = backend


def unregister_backend(backend_id: str) -> None:
    _REGISTRY.pop(backend_id, None)


def get_backend(backend_id: str) -> FixBackend:
    backend = _REGISTRY.get(backend_id)
    if backend is None:
        raise UnknownBackendError(
            f"unknown fix backend {backend_id!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}")
    return backend


def backend_ids() -> tuple[str, ...]:
    """Every registered backend id, in registration order."""
    return tuple(_REGISTRY)


def all_backends() -> list[FixBackend]:
    return list(_REGISTRY.values())


def resolve_backends(spec) -> tuple[str, ...]:
    """Normalize a backend request into an ordered tuple of known ids.

    Accepts a comma-separated string (the CLI's ``--backends a,b,c``),
    any iterable of ids, or ``"all"`` for every registered backend.
    Order is preserved — it is the arbitration tie-break — and
    duplicates collapse to their first occurrence.
    """
    if isinstance(spec, str):
        if spec.strip().lower() == "all":
            return backend_ids()
        names = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        names = [str(part).strip() for part in spec]
    if not names:
        raise ValueError("empty backend list")
    seen: list[str] = []
    for name in names:
        get_backend(name)                      # raise on unknown ids
        if name not in seen:
            seen.append(name)
    return tuple(seen)


for _backend in (SLRBackend(), STRBackend(), S3LibBackend()):
    register_backend(_backend)


# ------------------------------------------------------- cached execution

#: Whole transform results of every backend, persisted.  The key is
#: (backend id, config, text): backends and settings never collide, and
#: the SLR→STR chain, arbitration and Table III share every entry.
_BACKEND_CACHE = ContentCache("backend", family="backend")


def backend_cache_key(backend: FixBackend, text: str) -> str:
    return content_key("backend", backend.id, backend.config_key(), text)


def cached_backend_run(backend: FixBackend, text: str, filename: str,
                       session: AnalysisSession | None = None
                       ) -> TransformResult:
    """Run (or replay) ``backend`` over ``text``; results are shared and
    must be treated as immutable."""
    return _BACKEND_CACHE.get_or_build(
        backend_cache_key(backend, text),
        lambda: backend.run(text, filename, session))


def guarded_backend_run(backend: FixBackend, text: str, filename: str,
                        session: AnalysisSession | None = None,
                        diagnostics: list | None = None
                        ) -> tuple[TransformResult | None,
                                   Exception | None]:
    """:func:`cached_backend_run` inside the stage guard of every fix
    step: the ``backend.id`` profile stage and fault point, and
    containment.  Returns ``(result, None)``, or ``(None, exc)`` with a
    diagnostic for ``exc`` appended to ``diagnostics`` (when given)."""
    with profile.stage(backend.id):
        try:
            faults.check(backend.id, filename)
            return cached_backend_run(backend, text, filename,
                                      session), None
        except Exception as exc:
            if diagnostics is not None:
                diagnostics.append(diagnostic_from_exception(
                    backend.id, filename, exc))
            return None, exc


# ------------------------------------------------------------ arbitration

@dataclass
class BackendCandidate:
    """One backend's attempt at fixing one file, plus the judge's view."""

    backend: str
    result: TransformResult | None
    parses: bool = True
    validation: ValidationReport | None = None
    status: str = CANDIDATE_NO_CHANGE
    reason: str = ""

    @property
    def changed(self) -> bool:
        return self.result is not None and self.result.changed

    @property
    def transformed_count(self) -> int:
        return self.result.transformed_count if self.result else 0

    @property
    def candidates(self) -> int:
        return self.result.candidates if self.result else 0

    @property
    def overflows_prevented(self) -> int:
        return self.validation.overflows_prevented if self.validation \
            else 0

    @property
    def rejected(self) -> bool:
        return self.status == CANDIDATE_REJECTED

    def verdict_summary(self) -> str:
        if self.status == CANDIDATE_ERROR:
            return "error"
        # A rejected candidate the oracle never judged (its transformed
        # text did not parse, or the judge itself failed) must surface
        # its rejection reason — labelling it "unjudged" hid the parse
        # failure from the report table and scoreboard.
        if self.rejected and self.validation is None:
            return f"rejected: {self.reason}"
        if not self.changed:
            return "skip"
        if self.validation is None:
            return "unjudged"
        return self.validation.summary()

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "status": self.status,
            "reason": self.reason,
            "sites": [self.transformed_count, self.candidates],
            "changed": self.changed,
            "parses": self.parses,
            "verdicts": self.validation.counts()
            if self.validation is not None else None,
        }


@dataclass
class ArbitrationReport:
    """Per-file outcome of the backend search: every candidate, the
    winner, and why the rest lost."""

    filename: str
    backends: tuple[str, ...]
    candidates: list[BackendCandidate] = field(default_factory=list)
    winner: str | None = None

    @property
    def attempted(self) -> int:
        """Backends that ran, errors included."""
        return len(self.candidates)

    @property
    def rejected(self) -> int:
        """Candidates the judge disqualified (semantics-changed or a
        transformed text that no longer parses)."""
        return sum(1 for c in self.candidates if c.rejected)

    def candidate_for(self, backend_id: str) -> BackendCandidate | None:
        for candidate in self.candidates:
            if candidate.backend == backend_id:
                return candidate
        return None

    @property
    def winning_candidate(self) -> BackendCandidate | None:
        return self.candidate_for(self.winner) if self.winner else None

    def as_dict(self) -> dict:
        return {"filename": self.filename,
                "backends": list(self.backends),
                "winner": self.winner,
                "candidates": [c.as_dict() for c in self.candidates]}


def candidate_score(candidate: BackendCandidate,
                    order_index: int) -> tuple:
    """The arbitration ordering, descending (max wins).

    ``overflow-prevented`` counts dominate (a fix that demonstrably
    stops a smash beats one that merely leaves behaviour identical),
    then the number of sites actually transformed, then *fewer* benign
    truncation divergences; the final component prefers the backend
    listed first, which makes the whole ordering total and the winner
    deterministic at any worker count.
    """
    validation = candidate.validation
    benign = validation.counts().get(VERDICT_BENIGN, 0) \
        if validation is not None else 0
    return (candidate.overflows_prevented,
            candidate.transformed_count,
            -benign,
            -order_index)


def arbitrate_file(text: str, filename: str,
                   backends: tuple[str, ...], *,
                   session: AnalysisSession | None = None,
                   fuzz_seed: int | None = None,
                   diagnostics: list | None = None
                   ) -> tuple[str, bool, ValidationReport | None,
                              ArbitrationReport]:
    """Apply every backend in ``backends`` to ``text``, judge each
    candidate with the differential oracle, and select the best fix.

    Returns ``(final text, parses, winner validation, report)``.  The
    final text is the winning candidate's output, or the input verbatim
    when no valid candidate changed anything — arbitration can only
    ever improve a file, never degrade it.

    Fault isolation matches the PR 5 contract: a backend that raises is
    contained as a ``CANDIDATE_ERROR`` (with a
    :class:`~repro.core.diagnostics.FileDiagnostic` appended to
    ``diagnostics`` when a list is given) and the search continues with
    the remaining backends — the next-best candidate wins.  Injected
    whole-process faults (``BaseException`` subclasses) still propagate.
    """
    session = session if session is not None else get_session()
    inputs = default_inputs(filename, seed=fuzz_seed)
    report = ArbitrationReport(filename, tuple(backends))
    for backend_id in backends:
        result, error = guarded_backend_run(
            get_backend(backend_id), text, filename, session, diagnostics)
        if error is not None:
            report.candidates.append(BackendCandidate(
                backend_id, None, status=CANDIDATE_ERROR,
                reason=f"{type(error).__name__}: {error}"))
            continue
        candidate = BackendCandidate(backend_id, result)
        if result.candidates == 0:
            candidate.status = CANDIDATE_NOT_APPLICABLE
            candidate.reason = "no candidate sites"
        elif not result.changed:
            candidate.status = CANDIDATE_NO_CHANGE
            candidate.reason = "no site passed its preconditions"
        else:
            with profile.stage("verify"):
                candidate.parses = session.verify(
                    result.new_text, filename) is None
            if not candidate.parses:
                candidate.status = CANDIDATE_REJECTED
                candidate.reason = "transformed text does not parse"
            else:
                try:
                    faults.check("validate", filename)
                    # Judge wall time belongs to the validate stage
                    # (the parse check above is charged to verify); without
                    # the wrapper it leaked into the parent stage.
                    with profile.stage("validate"):
                        candidate.validation = validate_pair(
                            text, result.new_text, filename=filename,
                            inputs=inputs)
                except Exception as exc:
                    candidate.status = CANDIDATE_REJECTED
                    candidate.reason = (f"judge failed: "
                                        f"{type(exc).__name__}: {exc}")
                    if diagnostics is not None:
                        diagnostics.append(diagnostic_from_exception(
                            "validate", filename, exc))
                else:
                    if candidate.validation.semantics_changed:
                        candidate.status = CANDIDATE_REJECTED
                        candidate.reason = (
                            f"{candidate.validation.semantics_changed} "
                            f"semantics-changed divergence(s)")
                    else:
                        candidate.status = CANDIDATE_RUNNER_UP
        report.candidates.append(candidate)

    eligible = [(index, candidate)
                for index, candidate in enumerate(report.candidates)
                if candidate.status == CANDIDATE_RUNNER_UP]
    if not eligible:
        return text, True, None, report
    best = max(eligible,
               key=lambda pair: candidate_score(pair[1], pair[0]))[1]
    best.status = CANDIDATE_SELECTED
    report.winner = best.backend
    return best.result.new_text, True, best.validation, report


def scoreboard(reports: list[ArbitrationReport]
               ) -> dict[str, dict[str, int]]:
    """Aggregate per-backend tallies over many files' arbitrations.

    ``attempted`` counts files the backend ran on, ``selected`` files it
    won, ``rejected`` candidates the judge disqualified,
    ``overflow_prevented`` the total prevented-overflow probe verdicts
    across its (judged) candidates.
    """
    board: dict[str, dict[str, int]] = {}
    for report in reports:
        for candidate in report.candidates:
            row = board.setdefault(candidate.backend, {
                "attempted": 0, "changed": 0, "selected": 0,
                "runner_up": 0, "rejected": 0, "no_change": 0,
                "not_applicable": 0, "errors": 0,
                "overflow_prevented": 0, "sites_transformed": 0,
            })
            row["attempted"] += 1
            row["changed"] += int(candidate.changed)
            row["sites_transformed"] += candidate.transformed_count
            row["overflow_prevented"] += candidate.overflows_prevented
            key = {CANDIDATE_SELECTED: "selected",
                   CANDIDATE_RUNNER_UP: "runner_up",
                   CANDIDATE_REJECTED: "rejected",
                   CANDIDATE_NO_CHANGE: "no_change",
                   CANDIDATE_NOT_APPLICABLE: "not_applicable",
                   CANDIDATE_ERROR: "errors"}[candidate.status]
            row[key] += 1
    return board
