"""``repro watch`` — long-lived re-analysis loop over editing sessions.

Polls one file or every ``.c`` file directly inside a directory (the
files ``repro batch`` reads there) for mtime changes, debounces rapid
saves (``debounce_s`` seconds of quiet before a change is processed),
and pushes each settled edit through one warm
:class:`repro.core.incremental.IncrementalEngine` per file — so an
edit-to-verdict round trip touches only the functions the edit changed.
Diagnostics stream one line per update (mode, status, wall time,
invalidated functions, verdicts), or machine-readable JSON records with
``--json``.

The loop watches the program ``repro batch`` reads
(:func:`repro.core.batch.load_program`): the ``.h`` files beside the
``.c`` files are its private headers.  Once a change to any of them has
settled, the loop re-reads them and, if their texts changed, re-runs
every ``.c`` file with a new engine.  Each file's first report, and
every report after a header edit, is the report ``repro batch`` gives
the file: same text, site outcomes, verdicts and status.

The loop is deterministic and testable: the clock, the sleep function,
and the output stream are injectable, and ``run(max_scans=N)`` /
``repro watch --once`` bound the polling loop.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field

from .batch import header_dir, program_files, read_source, read_sources
from .diagnostics import STATUS_FAILED, STATUS_OK
from .incremental import IncrementalEngine, UpdateReport

__all__ = ["WatchLoop"]


@dataclass
class _Watched:
    """Debounce state of one watched ``.c`` file, or of the header set
    (whose "mtime" is its ``(name, mtime)`` listing, and which has no
    engine)."""

    engine: IncrementalEngine | None = None
    mtime: object = None                # last processed mtime
    pending_mtime: object = None        # seen changed, not yet settled
    pending_since: float = 0.0


@dataclass
class WatchLoop:
    """Poll ``target`` (a ``.c`` file or a directory of them) and stream
    one :class:`UpdateReport` per settled edit."""

    target: str
    profile: str = "glib"
    validate: bool = True
    fuzz_seed: int | None = None
    json_output: bool = False
    #: Quiet seconds a changed file must hold before it is re-analyzed,
    #: so rapid consecutive saves coalesce into one update.
    debounce_s: float = 0.2
    interval_s: float = 0.1             # polling period, seconds
    clock: object = time.monotonic
    sleep: object = time.sleep
    out: object = None                  # None = sys.stdout
    files: dict = field(default_factory=dict, init=False)   # path -> state
    headers: dict = field(default_factory=dict, init=False)  # name -> text
    _header_state: _Watched = field(default_factory=_Watched, init=False)

    # ------------------------------------------------------- discovery

    def watched_paths(self) -> list[str]:
        """Current watch set (rescanned every poll, so files created
        after startup are picked up): for a directory, the ``.c`` files
        directly inside it, which are the files ``repro batch`` reads."""
        if not os.path.isdir(self.target):
            return [self.target]
        try:
            names = program_files(self.target, ".c")
        except OSError:
            return []
        return [os.path.join(self.target, name) for name in names]

    def _engine(self, path: str) -> IncrementalEngine:
        return IncrementalEngine(
            os.path.basename(path), headers=self.headers,
            profile=self.profile, validate=self.validate,
            fuzz_seed=self.fuzz_seed)

    def _state(self, path: str) -> _Watched:
        state = self.files.get(path)
        if state is None:
            state = _Watched(self._engine(path))
            self.files[path] = state
        return state

    def _settled(self, state: _Watched, mtime, now: float,
                 force: bool) -> bool:
        """Is ``state``'s change to ``mtime`` due for processing: quiet
        for the debounce period, or ``force``d?"""
        if force:
            return True
        if mtime == state.mtime and state.pending_mtime is None:
            return False
        if mtime != state.pending_mtime:
            # New change: start (or restart) the quiet period.
            state.pending_mtime = mtime
            state.pending_since = now
            return False
        return now - state.pending_since >= self.debounce_s

    def _refresh_headers(self, now: float, force: bool) -> bool:
        """Re-read the ``.h`` files once a change to them has settled;
        returns whether their texts changed, which makes every engine
        stale."""
        directory = header_dir(self.target)
        try:
            listing = tuple(
                (name, os.stat(os.path.join(directory, name)).st_mtime)
                for name in program_files(directory, ".h"))
            if not self._settled(self._header_state, listing, now, force):
                return False
            headers = read_sources(directory, ".h")
        except OSError:
            # Raced a save: keep the headers read last, and retry on
            # the next poll.
            return False
        self._header_state.mtime = listing
        self._header_state.pending_mtime = None
        if headers == self.headers:
            return False
        self.headers = headers
        return True

    # ------------------------------------------------------------ scan

    def scan_once(self, *, force: bool = False) -> list[UpdateReport]:
        """One poll: process every watched file whose mtime changed and
        has been quiet for the debounce period, and every file when the
        headers' texts changed.  ``force`` processes everything
        immediately (startup / ``--once``)."""
        reports = []
        now = self.clock()
        headers_changed = self._refresh_headers(now, force)
        paths = self.watched_paths()
        # Directory watch: a file deleted between polls silently drops
        # out of the rescan — sweep its state (and emit its removal
        # record) instead of holding a dead engine forever.
        watched = set(paths)
        for path in [p for p in self.files if p not in watched]:
            removed = self._handle_removed(path, self.files[path])
            if removed is not None:
                reports.append(removed)
        for path in paths:
            state = self._state(path)
            if headers_changed:
                state.engine = self._engine(path)
            try:
                mtime = os.stat(path).st_mtime
            except OSError:
                removed = self._handle_removed(path, state)
                if removed is not None:
                    reports.append(removed)
                continue
            if not (headers_changed
                    or self._settled(state, mtime, now, force)):
                continue
            t0 = time.perf_counter()
            try:
                text = read_source(path)
            except OSError:
                # Deleted (or made unreadable) between the debounce
                # settling and the read — same removal handling as a
                # failed stat.
                removed = self._handle_removed(path, state)
                if removed is not None:
                    reports.append(removed)
                continue
            try:
                report = state.engine.update(text)
            except Exception as exc:
                # Whatever the engine did not contain must not kill the
                # loop: emit an error record and keep watching
                # everything else.
                report = self._error(path, exc, text, t0)
            state.mtime = mtime
            state.pending_mtime = None
            self._emit(path, report)
            reports.append(report)
        return reports

    @staticmethod
    def _error(path: str, exc: Exception, text: str,
               t0: float) -> UpdateReport:
        return UpdateReport(os.path.basename(path), "error", repr(exc),
                            final_text=text, parses=False,
                            status=STATUS_FAILED,
                            wall_s=time.perf_counter() - t0)

    def _handle_removed(self, path: str,
                        state: _Watched) -> UpdateReport | None:
        """A watched file vanished (deleted between polls, or between
        the debounce settling and the re-read).  Treat it as a removal:
        drop its engine state so a recreated file starts a fresh
        session, and emit exactly one ``removed`` diagnostic — but only
        for files the loop had actually seen (a file that appears and
        disappears before its first read was never watched content).
        The loop itself keeps running either way."""
        self.files.pop(path, None)
        if state.mtime is None and state.pending_mtime is None:
            return None
        report = UpdateReport(os.path.basename(path), "removed",
                              "watched file deleted", final_text="",
                              parses=True)
        self._emit(path, report)
        return report

    def run(self, max_scans: int | None = None) -> int:
        """Poll until interrupted (or for ``max_scans`` polls).  The
        first scan processes every file; later scans only settled
        edits."""
        self.scan_once(force=True)
        scans = 0
        try:
            while max_scans is None or scans < max_scans:
                self.sleep(self.interval_s)
                self.scan_once()
                scans += 1
        except KeyboardInterrupt:
            pass
        return 0

    # ------------------------------------------------------ diagnostics

    def _emit(self, path: str, report: UpdateReport) -> None:
        out = self.out if self.out is not None else sys.stdout
        if self.json_output:
            record = {"path": path, **report.as_dict()}
            print(json.dumps(record, sort_keys=True), file=out, flush=True)
            return
        wall_ms = report.wall_s * 1000.0
        parts = [f"[watch] {path}", report.mode, f"{wall_ms:.0f}ms"]
        if report.reason:
            parts.append(f"({report.reason})")
        if report.status != STATUS_OK:
            parts.append(report.status + "".join(
                f" {d.stage}:{d.kind}" for d in report.diagnostics))
        if report.invalidated:
            parts.append("invalidated=" + ",".join(sorted(report.invalidated)))
        if report.mode not in ("no-op", "removed"):
            parts.append(f"sites={len(report.slr_outcomes) + len(report.str_outcomes)}")
            parts.append("parses" if report.parses else "PARSE-ERROR")
        if report.validation is not None:
            summary = report.validation.summary() \
                if hasattr(report.validation, "summary") else ""
            if summary:
                parts.append(summary)
        if report.mode == "incremental":
            parts.append(f"func-cache {report.func_hits}h/"
                         f"{report.func_misses}m")
            parts.append(f"probes {report.probes_reused}r/"
                         f"{report.probes_executed}x")
        print(" ".join(parts), file=out, flush=True)
