"""Crash-safe run layer: write-ahead journal, quarantine, audit trail.

A 10k-file batch is only production-credible if it survives the parent
process dying: without a durable record, a mid-run crash throws away
every completed verdict and the whole batch re-runs from scratch.  This
module gives every journaled batch a *run directory* —
``REPRO_RUN_DIR`` (default ``<REPRO_CACHE_DIR>/runs``) ``/<run-id>/`` —
in the ARVO replay-log style: everything needed to audit or resume the
run lives in one directory.

* ``manifest.json`` — written once at run start: program name, the
  input manifest (per-file content hashes), the settings that determine
  the work (stages, profile, validate, backends), and the tool
  fingerprint.
* ``journal.jsonl`` — the write-ahead log: one JSON record per per-file
  lifecycle event (``dispatched`` → ``completed`` / ``failed`` /
  ``quarantined``), appended and flushed before the run moves on.  A
  crash can only ever lose the event being written; replay tolerates a
  torn final line.
* ``results/<key>.pkl`` — the one record per file: the full
  :class:`~repro.core.batch.FileTransformReport` behind each terminal
  event, quarantined files included, published with the artifact
  store's atomic writer (:func:`~repro.core.store.publish_atomic`) and
  named by the key its event journals.  For a computed file that is the
  task's work key, which is salted with the tool fingerprint, so a code
  change strands old results harmlessly.  The WAL ordering invariant:
  the record is published *before* its event is journaled, so a
  journaled completion always has a readable result.

The audit trail is built on read: ``repro runs show`` asks
:meth:`RunJournal.read_audit` for a file's ARVO-style audit — status,
diagnostics, per-site verdicts, the winning backend, and the unified
diff the run shipped — and gets it computed from that file's record.
A batch writes no audit of its own.

``repro batch --resume <run-id>`` (or ``--resume latest``) reopens the
run directory, replays every journaled completion whose work key still
matches the input, and re-dispatches only unfinished work — the resumed
batch is byte-identical to an uninterrupted one at any jobs count,
re-executing at most the stream window of work that was dispatched but
never completed.

**Quarantine** rides on the artifact store (family ``quarantine``,
version-dir salted by the tool fingerprint): a file that exhausts
``REPRO_TASK_RETRIES`` in a journaled run is recorded under the hash of
its source and header texts and skipped — shipped verbatim with status
``quarantined`` — by every later journaled run, without re-burning the
timeout/retry budget, until that content or the tool fingerprint
changes.

All journal I/O is best-effort: a full disk or unwritable run directory
degrades to a warn-once unjournaled run, never a failed batch
(:mod:`repro.core.faults` ``disk-full`` rules exercise exactly this).
"""

from __future__ import annotations

import io
import json
import os
import pickle
import time
import uuid
import warnings

from ..cfront.cache import content_key, header_key_parts
from ..fingerprint import tool_fingerprint
from . import faults
from .store import publish_atomic, remove_trees

__all__ = [
    "RunJournal", "RunNotFound", "gc_runs", "latest_run_id", "list_runs",
    "new_run_id", "quarantine_key", "quarantine_lookup",
    "quarantine_record", "runs_root",
]

#: Bumped when the journal/manifest schema changes incompatibly.
RUN_SCHEMA = 1

#: Journal event types (the per-file lifecycle).
EVENT_DISPATCHED = "dispatched"
EVENT_COMPLETED = "completed"
EVENT_FAILED = "failed"
EVENT_QUARANTINED = "quarantined"
TERMINAL_EVENTS = (EVENT_COMPLETED, EVENT_FAILED, EVENT_QUARANTINED)

#: Artifact-store family quarantine entries are filed under (content
#: hash → poison record); lives in the fingerprint-salted version dir,
#: so a tool change releases every quarantined file automatically.
QUARANTINE_FAMILY = "quarantine"


def runs_root() -> str:
    """Where run directories live (``REPRO_RUN_DIR``, default
    ``<cache dir>/runs``)."""
    env = os.environ.get("REPRO_RUN_DIR")
    if env:
        return env
    from .store import default_cache_dir
    return os.path.join(default_cache_dir(), "runs")


def new_run_id() -> str:
    """A fresh, sortable run id: UTC timestamp + random suffix."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


def _hash_text(text: str) -> str:
    """Input-manifest content hash (fingerprint-salted via
    :func:`content_key`, like every other key in the pipeline)."""
    return content_key("run-input", text)


class RunNotFound(FileNotFoundError):
    """``--resume`` named a run id with no journal on disk."""


class RunJournal:
    """One run's write-ahead journal and per-file result records.

    All methods are best-effort and exception-free (apart from injected
    whole-process faults): journaling must never be the reason a batch
    fails.  The first I/O error per operation warns; later ones are
    silent.
    """

    def __init__(self, run_id: str | None = None, *,
                 root: str | None = None):
        self.root = os.path.abspath(root if root is not None
                                    else runs_root())
        self.run_id = run_id if run_id else new_run_id()
        self.run_dir = os.path.join(self.root, self.run_id)
        self.manifest_path = os.path.join(self.run_dir, "manifest.json")
        self.journal_path = os.path.join(self.run_dir, "journal.jsonl")
        self.results_dir = os.path.join(self.run_dir, "results")
        self.manifest: dict = {}
        #: filename -> (event, work key) for the latest journaled
        #: terminal event per file (loaded by :meth:`load`).
        self.completed: dict[str, tuple[str, str]] = {}
        self._handle: io.TextIOWrapper | None = None
        self._warned: set[str] = set()
        self.resumed = False

    # ----------------------------------------------------------- plumbing

    def _warn_once(self, operation: str, exc: OSError) -> None:
        if operation in self._warned:
            return
        self._warned.add(operation)
        warnings.warn(
            f"run journal {operation} failed under {self.run_dir} "
            f"({type(exc).__name__}: {exc}); continuing without "
            f"journaling for affected records", RuntimeWarning,
            stacklevel=3)

    def _publish(self, path: str, data: bytes, subject: str) -> bool:
        """Publish one file atomically; ``journal:disk-full`` rules
        match ``subject``."""
        try:
            publish_atomic(path, data, "journal", subject)
        except OSError as exc:
            self._warn_once("write", exc)
            return False
        return True

    def _append_event(self, event: dict, subject: str) -> None:
        """Append one journal line and flush it to the kernel — after
        the flush an abrupt parent death cannot lose the record."""
        try:
            faults.check_disk_full("journal", subject)
            if self._handle is None:
                os.makedirs(self.run_dir, exist_ok=True)
                self._handle = open(self.journal_path, "a",
                                    encoding="utf-8")
            self._handle.write(json.dumps(event, sort_keys=True) + "\n")
            self._handle.flush()
        except OSError as exc:
            self._warn_once("append", exc)

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    # ----------------------------------------------------------- manifest

    def begin(self, program, settings: dict) -> None:
        """Write the run manifest (new runs only — a resumed run keeps
        its original manifest, so the audit trail names the inputs the
        run was started with)."""
        if self.resumed and self.manifest:
            return
        self.manifest = {
            "schema": RUN_SCHEMA,
            "run_id": self.run_id,
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                     time.gmtime()),
            "fingerprint": tool_fingerprint(),
            "program": getattr(program, "name", str(program)),
            "files": {name: _hash_text(text)
                      for name, text
                      in sorted(getattr(program, "files", {}).items())},
            "settings": dict(settings),
        }
        data = json.dumps(self.manifest, indent=2,
                          sort_keys=True).encode("utf-8") + b"\n"
        self._publish(self.manifest_path, data, "manifest")

    def read_manifest(self) -> dict:
        """The run's manifest (``{}`` when it is unreadable but the run
        has a journal).  Raises :class:`RunNotFound` when the run
        directory has neither: this is what makes a directory a run."""
        try:
            with open(self.manifest_path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            if not os.path.isfile(self.journal_path):
                raise RunNotFound(
                    f"no run {self.run_id!r} under {self.root} "
                    f"(no manifest.json or journal.jsonl)") from None
            return {}

    def load(self) -> None:
        """Reopen an existing run: parse the manifest and replay the
        journal into :attr:`completed`.  A torn final line (the crash
        cut a write short) is skipped; every fully written record
        counts.  Raises :class:`RunNotFound` when the run directory has
        no journal and no manifest."""
        self.manifest = self.read_manifest()
        for event in self.events():
            name = event.get("file")
            kind = event.get("event")
            if name and kind in TERMINAL_EVENTS:
                self.completed[name] = (kind, event.get("key", ""))
        self.resumed = True
        fp = self.manifest.get("fingerprint")
        if fp and fp != tool_fingerprint():
            warnings.warn(
                f"run {self.run_id} was recorded by a different tool "
                f"version; its completed results no longer match any "
                f"work key and will be recomputed", RuntimeWarning,
                stacklevel=3)

    # ------------------------------------------------------------- events

    def record_dispatched(self, filename: str, key: str) -> None:
        faults.check("dispatch", filename)
        self._append_event({"event": EVENT_DISPATCHED, "file": filename,
                            "key": key, "t": round(time.time(), 3)},
                           filename)

    def record_result(self, filename: str, key: str, report) -> None:
        """Journal a terminal report: publish its record first, then
        the WAL event — a journaled completion therefore always has a
        readable result behind it.  The injected
        ``journal:parent-kill`` fault fires between the two writes, the
        worst-ordered crash point the WAL must absorb.
        """
        status = getattr(report, "status", "")
        event = EVENT_FAILED if status == "failed" else EVENT_COMPLETED
        if not self.write_audit(key, report):
            return
        faults.check("journal", filename)
        self._append_event({"event": event, "file": filename,
                            "key": key, "status": status,
                            "t": round(time.time(), 3)}, filename)
        self.completed[filename] = (event, key)

    def record_quarantined(self, filename: str, key: str,
                           entry: dict) -> None:
        """Journal a quarantined file; its caller has already recorded
        the report under ``key`` (:meth:`write_audit`)."""
        self._append_event({"event": EVENT_QUARANTINED,
                            "file": filename, "key": key,
                            "reason": entry.get("message", ""),
                            "first_run": entry.get("run_id", ""),
                            "t": round(time.time(), 3)}, filename)
        self.completed[filename] = (EVENT_QUARANTINED, key)

    # ------------------------------------------------------------ records

    def _result_path(self, key: str) -> str:
        return os.path.join(self.results_dir, key + ".pkl")

    def write_audit(self, key: str, report) -> bool:
        """Publish a file's one record, the pickled report, under
        ``key``: :meth:`replay` serves it to ``--resume`` and
        :meth:`read_audit` builds the audit from it.  Returns whether
        the record was written."""
        try:
            data = pickle.dumps(report,
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        return self._publish(self._result_path(key), data,
                             report.filename)

    def _load_result(self, key: str):
        """The report recorded under ``key``, or ``None`` when the
        record is missing or unreadable."""
        try:
            with open(self._result_path(key), "rb") as handle:
                return pickle.loads(handle.read())
        except Exception:
            return None

    def replay(self, filename: str, key: str):
        """The journaled report for ``filename`` — or ``None`` when the
        file was never completed, its work key changed (content or tool
        edit), or its result record is unreadable (recompute, never
        trust a corrupt replay)."""
        recorded = self.completed.get(filename)
        if recorded is None or recorded[0] == EVENT_QUARANTINED \
                or recorded[1] != key:
            return None
        return self._load_result(key)

    def read_audit(self, filename: str) -> dict | None:
        """The ARVO-style audit of ``filename``'s latest terminal event,
        built from its record: the crash report (diagnostics), the fix
        (winning backend + unified diff), and the verdicts the oracle
        returned for it.  ``None`` when the file has no journaled
        outcome or its record is unreadable."""
        recorded = self.completed.get(filename)
        report = self._load_result(recorded[1]) \
            if recorded is not None else None
        if report is None:
            return None
        validation = report.validation
        arbitration = report.arbitration
        return {
            "filename": report.filename,
            "status": report.status,
            "parses": report.parses,
            "wall_s": round(report.wall_time, 4),
            "diagnostics": [d.as_dict() for d in report.diagnostics],
            "verdicts": dict(sorted(validation.counts().items()))
            if validation is not None else None,
            "divergences": [
                {"input": v.input.name, "kind": v.input.kind,
                 "verdict": v.verdict, "detail": v.detail}
                for v in validation.divergences()]
            if validation is not None else [],
            "winner": arbitration.winner
            if arbitration is not None else None,
            "candidates": [c.as_dict()
                           for c in arbitration.candidates]
            if arbitration is not None else None,
            "diff": _shipped_diff(report),
        }

    def events(self) -> list[dict]:
        """Every parseable journal record, in append order; a torn
        final line (a crash cut the write short) is skipped."""
        try:
            with open(self.journal_path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return []
        out = []
        for line in lines:
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                out.append(event)
        return out


def _shipped_diff(report) -> str | None:
    """The unified diff from the input of ``report``'s first stage (or
    backend candidate) to the text the run shipped; ``None`` when no
    stage saw the input or nothing changed."""
    candidates = report.arbitration.candidates \
        if report.arbitration is not None else []
    results = [c.result for c in candidates] + [report.slr, report.str_]
    original = next((r.original_text for r in results if r is not None),
                    None)
    if original is None or report.final_text == original:
        return None
    import difflib
    return "".join(difflib.unified_diff(
        original.splitlines(keepends=True),
        report.final_text.splitlines(keepends=True),
        fromfile=report.filename, tofile=report.filename + ".fixed"))


# --------------------------------------------------------------- registry

def list_runs(root: str | None = None) -> list[dict]:
    """Every run directory under ``root``, oldest first, with a summary
    (id, created, program, file counts, journaled event tallies)."""
    root = os.path.abspath(root if root is not None else runs_root())
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    runs = []
    for name in names:
        run_dir = os.path.join(root, name)
        if not os.path.isdir(run_dir):
            continue
        journal = RunJournal(name, root=root)
        try:
            journal.load()
        except RunNotFound:
            continue
        tallies: dict[str, int] = {}
        for kind, _key in journal.completed.values():
            tallies[kind] = tallies.get(kind, 0) + 1
        runs.append({
            "run_id": name,
            "created": journal.manifest.get("created", ""),
            "program": journal.manifest.get("program", ""),
            "files": len(journal.manifest.get("files", {})),
            "completed": tallies.get(EVENT_COMPLETED, 0),
            "failed": tallies.get(EVENT_FAILED, 0),
            "quarantined": tallies.get(EVENT_QUARANTINED, 0),
            "fingerprint": journal.manifest.get("fingerprint", ""),
        })
    return runs


def latest_run_id(root: str | None = None) -> str | None:
    """The most recently created run id (ids sort chronologically).

    Names are scanned newest first and the first directory that is a
    run (:meth:`RunJournal.read_manifest`) wins.  No journal is
    replayed, so the caller's own :meth:`RunJournal.load` is the only
    one, however many runs have piled up."""
    root = os.path.abspath(root if root is not None else runs_root())
    try:
        names = sorted(os.listdir(root), reverse=True)
    except OSError:
        return None
    for name in names:
        if not os.path.isdir(os.path.join(root, name)):
            continue
        try:
            RunJournal(name, root=root).read_manifest()
        except RunNotFound:
            continue
        return name
    return None


def resolve_run_id(run_id: str, root: str | None = None) -> str:
    """``latest`` → the newest run id; anything else passes through."""
    if run_id.strip().lower() == "latest":
        resolved = latest_run_id(root)
        if resolved is None:
            raise RunNotFound(
                f"no runs under {root if root is not None else runs_root()}")
        return resolved
    return run_id


def gc_runs(*, max_age_days: float | None = None,
            keep: int | None = None,
            root: str | None = None) -> dict[str, int]:
    """Prune old run directories; returns ``{removed_runs, freed_bytes}``.

    ``max_age_days`` removes runs whose directory mtime is older;
    ``keep`` retains only the newest N runs.  Both ``None`` removes
    nothing (callers must opt in — run directories are the audit
    trail).  Only directories :func:`list_runs` recognises are runs;
    anything else under ``root`` is never touched."""
    root = os.path.abspath(root if root is not None else runs_root())
    dirs = [run["run_id"] for run in list_runs(root)]
    doomed: set[str] = set()
    if keep is not None and keep >= 0 and len(dirs) > keep:
        doomed.update(dirs[: len(dirs) - keep])
    if max_age_days is not None:
        cutoff = time.time() - max_age_days * 86400.0
        for name in dirs:
            try:
                if os.path.getmtime(os.path.join(root, name)) < cutoff:
                    doomed.add(name)
            except OSError:
                continue
    _files, freed = remove_trees(os.path.join(root, name)
                                 for name in sorted(doomed))
    return {"removed_runs": len(doomed), "freed_bytes": freed}


# ------------------------------------------------------------- quarantine

def quarantine_key(task) -> str:
    """Quarantine entries are keyed by the content of a file's task —
    its source and the program's header texts — alone (plus the store's
    fingerprint salt): an edit to the file, to a header or to the tool
    releases it back into the pipeline."""
    return content_key(QUARANTINE_FAMILY, task.text,
                       *header_key_parts(task.headers))


def quarantine_lookup(task) -> dict | None:
    """The poison record for this task's content, or ``None``."""
    from .store import disk_enabled, get_store
    if not disk_enabled():
        return None
    hit, value, _nbytes = get_store().load(QUARANTINE_FAMILY,
                                           quarantine_key(task))
    return value if hit and isinstance(value, dict) else None


def quarantine_record(task, diagnostic, run_id: str) -> dict | None:
    """Record a poison file: called when a journaled run watched the
    file's task exhaust its whole ``REPRO_TASK_RETRIES`` budget.
    Cumulative attempts across runs are kept for the audit trail."""
    from .store import disk_enabled, get_store
    if not disk_enabled():
        return None
    store = get_store()
    key = quarantine_key(task)
    hit, previous, _nbytes = store.load(QUARANTINE_FAMILY, key)
    attempts = previous.get("attempts", 0) \
        if hit and isinstance(previous, dict) else 0
    entry = {
        "filename": task.filename,
        "stage": getattr(diagnostic, "stage", ""),
        "kind": getattr(diagnostic, "kind", ""),
        "message": getattr(diagnostic, "message", str(diagnostic)),
        "retries": getattr(diagnostic, "retries", 0),
        "attempts": attempts + 1 + getattr(diagnostic, "retries", 0),
        "run_id": run_id,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    store.store(QUARANTINE_FAMILY, key, entry)
    return entry
