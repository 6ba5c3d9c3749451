"""``repro watch`` — long-lived re-analysis loop over editing sessions.

Polls one file or every ``.c`` file under a directory for mtime
changes, debounces rapid saves (``debounce_s`` seconds of quiet
before a change is processed), and pushes each settled edit
through one warm :class:`repro.core.incremental.IncrementalEngine` per
file — so an edit-to-verdict round trip touches only the functions the
edit changed.  Diagnostics stream one line per update (mode, wall time,
invalidated functions, verdicts), or machine-readable JSON records with
``--json``.

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

from .incremental import IncrementalEngine, UpdateReport

__all__ = ["WatchLoop"]


@dataclass
class _WatchedFile:
    engine: IncrementalEngine
    mtime: float | None = None          # last processed mtime
    pending_mtime: float | None = None  # seen changed, not yet settled
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

    # ------------------------------------------------------- discovery

    def watched_paths(self) -> list[str]:
        """Current watch set (rescanned every poll, so files created
        after startup are picked up)."""
        if os.path.isdir(self.target):
            found = []
            for dirpath, _dirnames, filenames in os.walk(self.target):
                found.extend(os.path.join(dirpath, name)
                             for name in filenames if name.endswith(".c"))
            return sorted(found)
        return [self.target]

    def _state(self, path: str) -> _WatchedFile:
        state = self.files.get(path)
        if state is None:
            state = _WatchedFile(IncrementalEngine(
                os.path.basename(path), profile=self.profile,
                validate=self.validate, fuzz_seed=self.fuzz_seed))
            self.files[path] = state
        return state

    # ------------------------------------------------------------ scan

    def scan_once(self, *, force: bool = False) -> list[UpdateReport]:
        """One poll: process every watched file whose mtime changed and
        has been quiet for the debounce period.  ``force`` processes
        everything immediately (startup / ``--once``)."""
        reports = []
        now = self.clock()
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
            try:
                mtime = os.stat(path).st_mtime
            except OSError:
                removed = self._handle_removed(path, state)
                if removed is not None:
                    reports.append(removed)
                continue
            if not force:
                if mtime == state.mtime and state.pending_mtime is None:
                    continue
                if mtime != state.pending_mtime:
                    # New change: start (or restart) the quiet period.
                    state.pending_mtime = mtime
                    state.pending_since = now
                    continue
                if now - state.pending_since < self.debounce_s:
                    continue
            try:
                with open(path, encoding="utf-8", errors="replace") as fh:
                    text = fh.read()
            except OSError:
                # Deleted (or made unreadable) between the debounce
                # settling and the read — same removal handling as a
                # failed stat.
                removed = self._handle_removed(path, state)
                if removed is not None:
                    reports.append(removed)
                continue
            t0 = time.perf_counter()
            try:
                report = state.engine.update(text)
            except Exception as exc:
                # A file the pipeline cannot process at all (lex errors,
                # binary garbage) must not kill the loop — emit an error
                # record and keep watching everything else.
                report = UpdateReport(
                    os.path.basename(path), "error", repr(exc),
                    final_text=text, parses=False,
                    wall_s=time.perf_counter() - t0)
            state.mtime = mtime
            state.pending_mtime = None
            self._emit(path, report)
            reports.append(report)
        return reports

    def _handle_removed(self, path: str,
                        state: _WatchedFile) -> UpdateReport | None:
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
