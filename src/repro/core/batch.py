"""Batch application of the transformations to whole programs.

The paper evaluates SLR/STR by applying them *on all possible targets* in
benchmark and open-source programs (§IV).  This module provides the
program model (a named set of C source files plus headers) and a
pluggable batch driver: files are preprocessed and parsed through the
shared :class:`~repro.core.session.AnalysisSession` (content-keyed, so
no stage re-parses text another stage already processed), transformed by
SLR and/or STR, verified to still parse (the paper's "no compilation
errors" check), and aggregated with per-file wall time and cache-hit
counters.

Execution is pluggable: :class:`SerialExecutor` runs in-process;
:class:`ProcessPoolExecutor` fans files out over a ``multiprocessing``
fork pool (``jobs=N`` / ``REPRO_JOBS``).  Both produce byte-identical
results — tasks are ordered by filename and the pool preserves input
order — so a parallel run differs from a serial one only in wall clock.
Dispatch is one bounded stream, :class:`BatchStream`: its task source
yields, per file in filename order, either a :class:`FileTask` or a
report that is already final (a preprocess failure, a journal replay, a
quarantined file, a clean report an earlier run stored), and the
executor passes a final report through in its place.  The executor
pulls no more than :func:`stream_window` items ahead of emission and
emits in input order as results complete, so the parent's working set
is O(jobs + window) on every path, a resume included.
:func:`stream_batch` exposes the stream; :func:`apply_batch` collects it
into a :class:`BatchResult`.

The whole pipeline is *fault-isolated*: every stage (preprocess, parse,
SLR, STR, verify, validate) runs inside a guard that converts an
exception into a structured
:class:`~repro.core.diagnostics.FileDiagnostic` on the file's report.
Failures degrade gracefully — an STR crash still ships the SLR result,
a failed SLR call site is skipped, a file that cannot be processed at
all ships its input verbatim as a ``failed`` report — so one broken
file never takes down a batch.  The fork pool adds worker supervision:
a per-task wall-clock watchdog (``REPRO_TASK_TIMEOUT``), dead-worker
detection with automatic respawn, and bounded retry
(``REPRO_TASK_RETRIES``); results stay deterministic and input-ordered
through all of it.  :mod:`repro.core.faults` can inject failures at any
stage for chaos testing.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import time
from dataclasses import dataclass, field

from ..cfront.cache import ContentCache, content_key
from ..cfront.source import count_source_lines
from . import faults, profile
from .diagnostics import (
    KIND_QUARANTINED, KIND_TIMEOUT, KIND_WORKER_DIED, STATUS_FAILED,
    STATUS_OK, STATUS_QUARANTINED, FileDiagnostic,
    diagnostic_from_exception, status_of, supervisor_diagnostic,
)
from .backends import (
    ARBITRATION_VERSION, CANDIDATE_ERROR, ArbitrationReport,
    arbitrate_file, resolve_backends, scoreboard,
)
from ..envknobs import float_knob, int_knob
from .session import AnalysisSession, get_session
from .slr import SafeLibraryReplacement
from .strtransform import SafeTypeReplacement
from .transform import TransformResult
from .validate import ValidationReport, default_inputs, file_seed, \
    oracle_mem_limit, oracle_step_limit, validate_pair


def default_jobs() -> int:
    """Worker count when the caller does not pass one (``REPRO_JOBS``).

    Rejects non-integer and non-positive values with a warning (a bad
    knob must not silently serialize a production run), and caps the
    answer at the machine's CPU count — more fork workers than cores
    only adds memory pressure and scheduler churn.
    """
    jobs = int_knob("REPRO_JOBS", 1, fallback_note="running with 1 worker")
    return min(jobs, os.cpu_count() or 1)


def task_timeout() -> float | None:
    """Per-task wall-clock budget for supervised pool workers
    (``REPRO_TASK_TIMEOUT`` seconds; unset or <= 0 disables the
    watchdog)."""
    value = float_knob("REPRO_TASK_TIMEOUT", 0.0, minimum=-math.inf,
                       fallback_note="watchdog disabled")
    return value if value > 0 else None


def task_retries() -> int:
    """How many times a crashed/timed-out task is retried before it is
    recorded as failed (``REPRO_TASK_RETRIES``, default 1; negative
    values mean no retries)."""
    return max(0, int_knob("REPRO_TASK_RETRIES", 1, minimum=None,
                           fallback_note="using 1"))


def stream_window(jobs: int) -> int:
    """Dispatch-ahead bound for the streaming scheduler: how many tasks
    may be pulled from the task source but not yet emitted.  This is
    the parent's working-set bound — task texts and out-of-order
    results are held for at most ``window`` files — and the reorder
    budget that keeps emission input-ordered while workers complete out
    of order.  It scales with the worker count so the pool never idles
    waiting for the emission head.
    """
    return max(16, 4 * max(1, jobs))


def program_files(directory: str, suffix: str) -> list[str]:
    """The names of the ``suffix`` files directly inside ``directory``,
    sorted: what ``repro batch DIR`` reads and ``repro watch DIR``
    watches.  Subdirectories are not entered."""
    return [entry for entry in sorted(os.listdir(directory))
            if entry.endswith(suffix)
            and os.path.isfile(os.path.join(directory, entry))]


def read_source(path: str) -> str:
    """The text of one ``.c`` or ``.h`` file, as every command reads it."""
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def read_sources(directory: str, suffix: str) -> dict[str, str]:
    """Every ``suffix`` file directly inside ``directory``, by name."""
    return {name: read_source(os.path.join(directory, name))
            for name in program_files(directory, suffix)}


def header_dir(path: str) -> str:
    """Where the private headers of the program at ``path`` live: the
    directory itself, or the directory a ``.c`` file sits in."""
    return path if os.path.isdir(path) else os.path.dirname(path) or "."


@dataclass
class SourceProgram:
    """A C program: source files, private headers, predefined macros."""

    name: str
    files: dict[str, str]                       # .c file name -> text
    headers: dict[str, str] = field(default_factory=dict)
    predefined: dict[str, str] = field(default_factory=dict)
    main_file: str | None = None
    preprocessed: bool = False                  # files already preprocessed
    _pp_memo: "SourceProgram | None" = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def file_count(self) -> int:
        return len(self.files)

    def kloc(self) -> float:
        """Source KLOC over the .c files (blank lines excluded)."""
        return sum(count_source_lines(text)
                   for text in self.files.values()) / 1000.0

    def preprocess(self, session: AnalysisSession | None = None
                   ) -> "SourceProgram":
        """Preprocess every file; returns a new, preprocessed program.

        Memoized on the instance (Tables III–VI all query it, some more
        than once) and served from the session's content-keyed cache, so
        identical file text is only ever preprocessed once per process.
        """
        if self.preprocessed:
            return self
        if self._pp_memo is not None:
            return self._pp_memo
        session = session if session is not None else get_session()
        out = {filename: session.preprocess(text, filename, self.headers,
                                            self.predefined).text
               for filename, text in self.files.items()}
        self._pp_memo = SourceProgram(self.name, out, {}, {},
                                      self.main_file, preprocessed=True)
        return self._pp_memo

    def pp_kloc(self) -> float:
        """Preprocessed KLOC (the paper's 'PP KLOC' column)."""
        return self.preprocess().kloc()


class ProgramError(Exception):
    """No program can be read at a path; the message says why."""


def load_program(path: str) -> SourceProgram:
    """The program at ``path``: the ``.c`` files directly inside a
    directory, or one ``.c`` file, with the ``.h`` files beside them as
    its private headers.  ``batch``, ``validate``, ``fix``, ``run`` and
    ``analyze`` read this program; ``watch`` watches it.  Raises
    :class:`ProgramError` when nothing can be read."""
    try:
        if os.path.isdir(path):
            name = os.path.basename(os.path.abspath(path)) or "program"
            files = read_sources(path, ".c")
        else:
            name = os.path.basename(path)
            files = {name: read_source(path)}
        headers = read_sources(header_dir(path), ".h")
    except OSError as exc:
        raise ProgramError(f"cannot read {path}: {exc.strerror}") from exc
    if not files:
        raise ProgramError(f"no .c files in {path}")
    return SourceProgram(name, files, headers)


@dataclass(frozen=True)
class FileTask:
    """One file's transformation work order (picklable for the pool)."""

    filename: str
    text: str                                   # preprocessed text
    run_slr: bool = True
    run_str: bool = True
    profile: str = "glib"
    validate: bool = False                      # run the diff oracle
    fuzz_seed: int | None = None                # None = env/default seed
    #: Backend arbitration: when set, the legacy SLR→STR chain is
    #: replaced by :func:`repro.core.backends.arbitrate_file` over this
    #: backend id tuple (the oracle always judges in this mode).
    backends: tuple[str, ...] | None = None


@dataclass
class FileTransformReport:
    """One file's outcome, shipped back from whichever process ran it.

    ``status`` is ``ok`` (every requested stage succeeded), ``degraded``
    (some stage failed but a partial result shipped — e.g. STR died and
    SLR's output was kept), or ``failed`` (no transformation survived;
    ``final_text`` is the input, verbatim).  Contained failures are
    recorded on ``diagnostics``; ``parses`` covers only text the
    pipeline actually changed — a file shipped verbatim after a failure
    introduces no compile errors by construction.
    """

    filename: str
    slr: TransformResult | None
    str_: TransformResult | None
    final_text: str
    parses: bool
    wall_time: float = 0.0                      # seconds, in the worker
    validation: "ValidationReport | None" = None
    stage_times: dict[str, float] = field(default_factory=dict)
    status: str = STATUS_OK
    diagnostics: list[FileDiagnostic] = field(default_factory=list)
    #: Backend-arbitration outcome (``slr``/``str_`` stay ``None`` in
    #: that mode; the winner's oracle report lands on ``validation``).
    arbitration: ArbitrationReport | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


#: Whole-stage transform results, persisted across runs: an SLR/STR pass
#: is a pure function of (input text, profile, tool version), so a warm
#: process skips parsing *and* transforming texts any run has seen.
_SLR_CACHE = ContentCache("slr", family="slr")
_STR_CACHE = ContentCache("str", family="str")


def cached_slr(text: str, filename: str, profile_name: str = "glib",
               session: AnalysisSession | None = None) -> TransformResult:
    """Run (or replay) SLR over ``text``; results must be treated as
    immutable — the same object serves every caller."""
    key = content_key("slr", profile_name, text)
    return _SLR_CACHE.get_or_build(
        key, lambda: SafeLibraryReplacement(
            text, filename, profile=profile_name, session=session).run())


def cached_str(text: str, filename: str,
               session: AnalysisSession | None = None) -> TransformResult:
    """Run (or replay) STR over ``text``."""
    key = content_key("str", text)
    return _STR_CACHE.get_or_build(
        key, lambda: SafeTypeReplacement(
            text, filename, session=session).run())


#: Artifact-store family of whole clean reports, keyed by the task's
#: work key (:func:`_task_work_key`): :func:`transform_file` writes one
#: per clean report, and :class:`BatchStream` replays it instead of
#: dispatching the task again.
REPORT_FAMILY = "report"


def _clean(report) -> bool:
    """Is ``report`` a pure function of its work key?  Only a report
    with status ``ok`` and no diagnostics is: faults, timeouts, retries
    and quarantine all shape the others."""
    return isinstance(report, FileTransformReport) \
        and report.status == STATUS_OK and not report.diagnostics


def _report_store():
    """The store that keeps clean reports, or ``None``: with the disk
    layer off (``REPRO_DISK_CACHE=0``, ``--no-disk-cache``,
    ``REPRO_CACHE=0``), and while fault rules are set, so that a chaos
    run exercises every stage and leaves no report for a clean run to
    replay."""
    from .store import disk_enabled, get_store
    if faults.faults_enabled() or not disk_enabled():
        return None
    return get_store()


def _stored_report(key: str) -> FileTransformReport | None:
    """The clean report an earlier run stored under work key ``key``,
    or ``None``."""
    store = _report_store()
    if store is None:
        return None
    hit, report, _nbytes = store.load(REPORT_FAMILY, key)
    return report if hit and _clean(report) else None


def transform_file(task: FileTask,
                   session: AnalysisSession | None = None
                   ) -> FileTransformReport:
    """Run the SLR→STR chain over one preprocessed file, fault-isolated.

    When SLR queues no edits, STR's parse of the "new" text is a cache
    hit on SLR's input unit — the chain only rebuilds what changed.
    With ``task.validate`` set, the differential oracle then executes
    the original vs. transformed text on the standard probe set; the
    probe inputs depend only on filename and seed, so verdicts are
    byte-identical at any worker count.  Per-stage wall times land on
    the report's ``stage_times`` (exclusive, so they sum to the file's
    wall time).  A clean report (status ``ok``, no diagnostics) is
    stored under the task's work key, so a later batch over the same
    file and settings replays it (:func:`_stored_report`).

    Every stage runs inside a guard: an exception becomes a
    :class:`~repro.core.diagnostics.FileDiagnostic` on the report and
    the chain degrades instead of propagating — an STR failure still
    ships the SLR result, a failed SLR leaves the text for STR, a
    failed oracle leaves the transform (unvalidated).  Only the
    injected whole-process faults (:class:`~repro.core.faults
    .InjectedKill` / ``InjectedHang``, ``BaseException`` subclasses)
    abort the file, mirroring what a real worker death looks like.
    """
    session = session if session is not None else get_session()
    start = time.perf_counter()
    diagnostics: list[FileDiagnostic] = []
    arbitration: ArbitrationReport | None = None
    with profile.collect(task.filename) as stage_times:
        try:
            if task.backends:
                slr_result = str_result = None
                text, parses, validation, arbitration = arbitrate_file(
                    task.text, task.filename, task.backends,
                    session=session, fuzz_seed=task.fuzz_seed,
                    diagnostics=diagnostics)
            else:
                slr_result, str_result, text, parses, validation = \
                    _run_stages(task, session, diagnostics)
        except (faults.InjectedKill, faults.InjectedHang) as exc:
            kind = KIND_WORKER_DIED if isinstance(exc, faults.InjectedKill) \
                else KIND_TIMEOUT
            return FileTransformReport(
                task.filename, None, None, task.text, True,
                time.perf_counter() - start, None, dict(stage_times),
                status=STATUS_FAILED,
                diagnostics=[supervisor_diagnostic(task.filename, kind,
                                                   str(exc))])
    if task.backends:
        # Arbitration produced something as long as at least one backend
        # ran to a judged (or inapplicable) candidate.
        produced = any(c.status != CANDIDATE_ERROR
                       for c in arbitration.candidates)
    else:
        produced = (slr_result is not None or str_result is not None
                    or not (task.run_slr or task.run_str))
    # A text that does not parse fails SLR and STR with the *same*
    # reattributed parse error; one record carries all the signal.
    seen: set[tuple[str, str, str, str]] = set()
    diagnostics = [d for d in diagnostics
                   if (key := (d.stage, d.kind, d.message, d.location))
                   not in seen and not seen.add(key)]
    report = FileTransformReport(task.filename, slr_result, str_result,
                                 text, parses,
                                 time.perf_counter() - start, validation,
                                 dict(stage_times),
                                 status=status_of(diagnostics, produced),
                                 diagnostics=diagnostics,
                                 arbitration=arbitration)
    store = _report_store() if _clean(report) else None
    if store is not None:
        store.store(REPORT_FAMILY, _task_work_key(task), report)
    return report


def _run_stages(task: FileTask, session: AnalysisSession,
                diagnostics: list[FileDiagnostic]):
    """The guarded SLR → STR → verify → validate chain for one file."""
    text = task.text
    slr_result: TransformResult | None = None
    str_result: TransformResult | None = None
    if task.run_slr:
        with profile.stage("slr"):
            try:
                faults.check("slr", task.filename)
                slr_result = cached_slr(text, task.filename,
                                        task.profile, session)
                text = slr_result.new_text
            except Exception as exc:
                diagnostics.append(diagnostic_from_exception(
                    "slr", task.filename, exc))
    if task.run_str:
        with profile.stage("str"):
            try:
                faults.check("str", task.filename)
                str_result = cached_str(text, task.filename, session)
                text = str_result.new_text
            except Exception as exc:
                diagnostics.append(diagnostic_from_exception(
                    "str", task.filename, exc))
    changed = text != task.text
    with profile.stage("verify"):
        try:
            faults.check("verify", task.filename)
            if changed:
                parse_error = session.verify(text, task.filename)
                parses = parse_error is None
                if parse_error is not None:
                    diagnostics.append(diagnostic_from_exception(
                        "verify", task.filename, parse_error))
            else:
                # Nothing was edited: the output cannot have gained a
                # compile error the input did not already have.
                parses = True
        except Exception as exc:
            diagnostics.append(diagnostic_from_exception(
                "verify", task.filename, exc))
            parses = not changed
    validation: ValidationReport | None = None
    if task.validate and parses:
        try:
            faults.check("validate", task.filename)
            validation = validate_pair(
                task.text, text, filename=task.filename,
                inputs=default_inputs(task.filename, seed=task.fuzz_seed))
        except Exception as exc:
            diagnostics.append(diagnostic_from_exception(
                "validate", task.filename, exc))
    return slr_result, str_result, text, parses, validation


# ------------------------------------------------------------- executors

def _empty_supervision() -> dict[str, int]:
    return {"retries": 0, "timeouts": 0, "worker_deaths": 0,
            "respawns": 0}


class SerialExecutor:
    """Run every task in the calling process, in task order.  A
    finished :class:`FileTransformReport` among the tasks passes
    through in its place."""

    jobs = 1
    spawned = 0

    def __init__(self):
        self.supervision = _empty_supervision()
        self.max_inflight = 0

    def imap(self, tasks, *, window: int | None = None):
        """Stream ``(index, report)`` pairs in task order; the task
        source is consumed one item at a time, so parent memory never
        holds more than the in-flight file."""
        for index, task in enumerate(tasks):
            self.max_inflight = max(self.max_inflight, 1)
            yield index, task if isinstance(task, FileTransformReport) \
                else transform_file(task)


def _pool_worker(inbox, result_queue, lifeline) -> None:
    """Supervised-pool worker loop: pull tasks from this worker's own
    inbox, ship each report back pre-pickled, and leave when the
    scheduler closes the lifeline.

    Two protocol choices keep supervision race-free.  The parent assigns
    tasks to a *specific* worker's inbox and records the assignment
    before sending, so it always knows exactly which task a dead worker
    was holding — no "I started X" message that an abrupt ``os._exit``
    could lose in a feeder thread.  And results go over a ``SimpleQueue``
    (synchronous send): once ``put`` returns, the bytes are in the pipe,
    so a worker that dies between tasks cannot strand a completed result
    in a buffer.  Pre-pickling converts an unpicklable report into an
    ordinary contained failure instead of an invisible serialization
    error.

    An idle worker blocks on its inbox and on ``lifeline``, the read end
    of a pipe whose write end only the scheduler holds open (see
    :meth:`ProcessPoolExecutor._stream`).  The scheduler closes that end
    when the batch ends, and the kernel closes it when the scheduler
    dies without cleanup (crash, SIGKILL, an injected ``parent-kill``
    fault).  Either way the worker sees end-of-file and exits at once;
    once the lifeline is closed no result will be read, so a task still
    in the inbox is dropped.  A crashed batch therefore leaves no
    orphaned workers holding the terminal's pipes open.
    """
    from multiprocessing.connection import wait
    faults.mark_worker()
    while True:
        try:
            if lifeline in wait([inbox._reader, lifeline]):
                os._exit(0)                 # lifeline closed: batch over
            index, task = inbox.get()
        except (EOFError, OSError):
            os._exit(0)                     # inbox torn down under us
        try:
            report = transform_file(task)
        except BaseException as exc:    # last-ditch: never lose a task
            report = _supervisor_report(task, KIND_WORKER_DIED,
                                        f"worker raised "
                                        f"{type(exc).__name__}: {exc}")
        try:
            payload = pickle.dumps(report,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            payload = pickle.dumps(_supervisor_report(
                task, KIND_WORKER_DIED,
                f"report not picklable: {type(exc).__name__}: {exc}"))
        result_queue.put((index, payload))


def _supervisor_report(task: FileTask, kind: str, message: str, *,
                       retries: int = 0) -> FileTransformReport:
    """The failed report for a task whose worker died or timed out:
    input shipped verbatim, one ``worker``-stage diagnostic."""
    return FileTransformReport(
        task.filename, None, None, task.text, True, 0.0, None, {},
        status=STATUS_FAILED,
        diagnostics=[supervisor_diagnostic(task.filename, kind, message,
                                           retries=retries)])


class ProcessPoolExecutor:
    """Fan tasks out over a *supervised* ``multiprocessing`` fork pool.

    Workers are forked, so they inherit the parent's warmed default
    session (copy-on-write) — a pre-warmed cache benefits every worker.
    Result order matches task order, making parallel output
    byte-identical to serial.  Falls back to serial execution where the
    fork start method is unavailable.

    Supervision, on top of the plain pool the pipeline used to run:

    * **watchdog** — with ``REPRO_TASK_TIMEOUT`` set, a task holding a
      worker past the budget gets its worker killed and respawned;
    * **dead-worker detection** — a worker that exits (crash, OOM kill,
      injected ``os._exit``) while holding a task is noticed and
      replaced, and its task is not lost;
    * **bounded retry** — a crashed/timed-out task is re-queued up to
      ``REPRO_TASK_RETRIES`` times (short backoff between attempts)
      before it is recorded as a ``failed`` report with a ``worker``
      diagnostic.

    Results stay deterministic: they are keyed by task index, so retries
    and respawns reorder nothing.

    The supervisor never polls: with nothing to collect or emit it
    blocks until a result arrives, a worker exits (its process
    sentinel) or the earliest watchdog or retry deadline passes.
    Workers block on their inbox and leave when the scheduler's lifeline
    pipe closes (see :func:`_pool_worker`).
    """

    def __init__(self, jobs: int):
        self.jobs = max(1, jobs)
        self.timeout = task_timeout()
        self.retries = task_retries()
        self.supervision = _empty_supervision()
        self.max_inflight = 0
        self.spawned = 0                    # worker processes started
        self._deaths_to_respawn = 0

    def imap(self, tasks, *, window: int | None = None):
        """Stream ``(index, report)`` pairs back in task order as they
        complete, pulling from ``tasks`` (any iterable) no more than
        ``window`` files ahead of emission.  A finished
        :class:`FileTransformReport` among the tasks needs no worker: it
        takes its place in the window as a completed result.

        This is the streaming work-queue scheduler: the parent's
        working set — unpicked task texts, finished reports and
        out-of-order results waiting for the emission head, and the
        workers' in-flight tasks — is bounded by the window, so a
        10k-file batch costs the parent the same memory as a
        window-sized one.  Emission order is deterministic input order
        at any worker count, through every watchdog kill, dead-worker
        respawn and retry.
        """
        if window is None:
            window = stream_window(self.jobs)
        ctx = self._fork_context() if self.jobs > 1 else None
        if ctx is None:
            serial = SerialExecutor()
            yield from serial.imap(tasks)
            self.max_inflight = serial.max_inflight
            return
        yield from self._stream(ctx, iter(tasks), window=max(1, window))

    @staticmethod
    def _fork_context():
        import multiprocessing as mp
        try:
            return mp.get_context("fork")
        except ValueError:
            return None

    # ------------------------------------------------------- supervision

    class _Worker:
        """One supervised worker process plus its private task inbox."""

        __slots__ = ("inbox", "process", "task_index", "started_at")

        def __init__(self, ctx, result_queue, lifeline):
            self.inbox = ctx.SimpleQueue()
            self.process = ctx.Process(
                target=_pool_worker,
                args=(self.inbox, result_queue, lifeline), daemon=True)
            self.process.start()
            self.task_index: int | None = None
            self.started_at = 0.0

        def assign(self, index: int, task: FileTask) -> None:
            self.task_index = index
            self.started_at = time.monotonic()
            self.inbox.put((index, task))

    def _stream(self, ctx, task_iter, *, window: int):
        """The supervised streaming loop behind :meth:`imap`.

        ``held`` maps every pulled-but-unemitted task's index to the
        task (the retry source); ``ready`` holds completed and finished
        reports waiting for the emission head.  Both are bounded by the
        window, so the parent never retains the whole batch.  Workers
        are spawned on demand — at most ``jobs``, and never more than
        there are tasks to hand out — and a spawn that follows a death
        is counted as a respawn.

        An index is *settled* once it has a report in ``ready`` or was
        emitted.  The watchdog or the reaper can act on a worker whose
        result is already in the pipe and schedule a retry; the next
        drain settles the index, and a settled index is never dispatched
        again, retried or failed.

        Workers leave when the lifeline pipe's write end closes, so only
        this process may hold it: every ``multiprocessing`` child forked
        while it is open — this pool's workers and those of any other
        pool running alongside — closes its inherited copy before it
        runs (``register_after_fork``).
        """
        from multiprocessing.connection import wait
        from multiprocessing.util import register_after_fork
        result_queue = ctx.SimpleQueue()
        lifeline, lifeline_w = ctx.Pipe(duplex=False)
        register_after_fork(lifeline_w, type(lifeline_w).close)
        workers: list[ProcessPoolExecutor._Worker] = []
        held: dict[int, FileTask] = {}
        ready: dict[int, FileTransformReport] = {}
        attempts: dict[int, int] = {}
        pending: list[int] = []
        retry_at: list[tuple[float, int]] = []    # (eligible time, index)
        next_pull = 0                             # drawn from task_iter
        next_emit = 0
        exhausted = False
        self._deaths_to_respawn = 0
        try:
            while True:
                while next_emit in ready:
                    report = ready.pop(next_emit)
                    held.pop(next_emit, None)
                    attempts.pop(next_emit, None)
                    yield next_emit, report
                    next_emit += 1
                now = time.monotonic()
                for when, index in list(retry_at):
                    if when <= now:
                        retry_at.remove((when, index))
                        pending.append(index)
                while not exhausted and next_pull - next_emit < window:
                    try:
                        task = next(task_iter)
                    except StopIteration:
                        exhausted = True
                        break
                    if isinstance(task, FileTransformReport):
                        ready[next_pull] = task
                    else:
                        held[next_pull] = task
                        pending.append(next_pull)
                    next_pull += 1
                # After the pull: a source that yields no task at all
                # leaves nothing to wait for.
                if exhausted and next_emit == next_pull:
                    return
                self.max_inflight = max(self.max_inflight,
                                        next_pull - next_emit)
                pending = sorted(i for i in pending
                                 if i in held and i not in ready)
                for worker in workers:
                    if worker.task_index is None and pending:
                        index = pending.pop(0)
                        worker.assign(index, held[index])
                while pending and len(workers) < self.jobs:
                    worker = self._spawn(ctx, result_queue, lifeline)
                    workers.append(worker)
                    index = pending.pop(0)
                    worker.assign(index, held[index])
                # A finished report at the head has no worker to wake
                # the wait: loop round and emit it first.
                if next_emit not in ready \
                        and not self._drain(result_queue, ready, workers):
                    wait([result_queue._reader]
                         + [worker.process.sentinel for worker in workers],
                         self._next_deadline(workers, retry_at))
                self._check_deadlines(held, ready, attempts, workers,
                                      pending, retry_at)
                workers = self._reap_dead(held, ready, attempts, workers,
                                          pending, retry_at)
        finally:
            lifeline_w.close()              # idle workers see EOF, leave
            lifeline.close()
            for worker in workers:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=2.0)

    def _spawn(self, ctx, result_queue, lifeline):
        self.spawned += 1
        if self._deaths_to_respawn > 0:
            self._deaths_to_respawn -= 1
            self.supervision["respawns"] += 1
        return self._Worker(ctx, result_queue, lifeline)

    def _drain(self, result_queue, results, workers) -> bool:
        """Collect every completed result currently in the pipe; returns
        whether anything arrived (the caller waits for an event if
        not)."""
        got_any = False
        while not result_queue.empty():
            index, payload = result_queue.get()
            got_any = True
            # setdefault: a task can complete twice when a retry raced a
            # slow first attempt; the compute is deterministic, keep one.
            results.setdefault(index, pickle.loads(payload))
            for worker in workers:
                if worker.task_index == index:
                    worker.task_index = None
        return got_any

    def _next_deadline(self, workers, retry_at) -> float | None:
        """Seconds until the earliest watchdog or retry deadline, or
        ``None`` when none is pending — then only a result or a worker
        exit can move the batch on."""
        deadlines = [when for when, _index in retry_at]
        if self.timeout is not None:
            deadlines.extend(worker.started_at + self.timeout
                             for worker in workers
                             if worker.task_index is not None)
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _check_deadlines(self, held, ready, attempts, workers,
                         pending, retry_at) -> None:
        """Kill workers whose current task exceeded the wall budget."""
        if self.timeout is None:
            return
        now = time.monotonic()
        for worker in workers:
            index = worker.task_index
            if index is None or now - worker.started_at < self.timeout:
                continue
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.task_index = None
            self.supervision["timeouts"] += 1
            self._retry_or_fail(
                held, ready, attempts, pending, retry_at, index,
                KIND_TIMEOUT,
                f"task exceeded REPRO_TASK_TIMEOUT={self.timeout:g}s")

    def _reap_dead(self, held, ready, attempts, workers,
                   pending, retry_at) -> list:
        """Drop dead workers; rescue the tasks they were holding.

        Replacements are spawned by the dispatch loop the moment there
        is pending work for them (counted as respawns via
        ``_deaths_to_respawn``), so an idle tail of the batch never
        forks workers it cannot feed.
        """
        alive = []
        for worker in workers:
            if worker.process.is_alive():
                alive.append(worker)
                continue
            worker.process.join(timeout=1.0)
            self._deaths_to_respawn += 1
            index = worker.task_index
            if index is not None and index not in ready:
                self.supervision["worker_deaths"] += 1
                self._retry_or_fail(
                    held, ready, attempts, pending, retry_at, index,
                    KIND_WORKER_DIED,
                    f"worker pid {worker.process.pid} died with exit "
                    f"code {worker.process.exitcode}")
        return alive

    def _retry_or_fail(self, held, ready, attempts, pending, retry_at,
                       index: int, kind: str, message: str) -> None:
        if index in ready or index not in held:
            return                          # settled by a late result
        attempts[index] = attempts.get(index, 0) + 1
        if attempts[index] <= self.retries:
            self.supervision["retries"] += 1
            retry_at.append((time.monotonic()
                             + retry_backoff(attempts[index],
                                             held[index].filename),
                             index))
        else:
            ready[index] = _supervisor_report(
                held[index], kind, message, retries=attempts[index] - 1)


#: Retry backoff bounds for the supervised pool: first retry waits
#: around the base, each further attempt doubles it, and no retry ever
#: waits past the cap.
RETRY_BACKOFF_BASE_S = 0.05
RETRY_BACKOFF_CAP_S = 2.0


def retry_backoff(attempt: int, subject: str) -> float:
    """Seconds to wait before retry ``attempt`` (1-based) of ``subject``.

    Exponential (base × 2^(attempt-1)) with *deterministic* per-subject
    jitter in [0.5, 1.5) — a keyed hash of the subject name, not a PRNG
    — and a hard cap.  The jitter de-synchronizes a respawn storm (ten
    tasks orphaned by one dead worker no longer hammer the pool on the
    same tick) while keeping every run's schedule reproducible; the
    exponent stops a repeatedly-dying task from busy-looping the
    supervisor; the cap bounds the latency a transient failure can add.
    """
    base = RETRY_BACKOFF_BASE_S * (2 ** max(0, attempt - 1))
    digest = hashlib.blake2b(f"repro-backoff|{subject}".encode("utf-8"),
                             digest_size=8).digest()
    jitter = 0.5 + int.from_bytes(digest, "big") / float(1 << 64)
    return min(base * jitter, RETRY_BACKOFF_CAP_S)


def make_executor(jobs: int | None = None):
    jobs = default_jobs() if jobs is None else jobs
    return SerialExecutor() if jobs <= 1 else ProcessPoolExecutor(jobs)


# ------------------------------------------------------------- aggregation

@dataclass
class StreamInfo:
    """What a :class:`BatchStream` learned while it ran (final after the
    stream is exhausted)."""

    jobs: int = 1
    #: Files served straight from an attached run journal (``--resume``).
    replayed: int = 0
    #: Files served from the artifact store: a clean report an earlier
    #: run stored under the same work key.
    from_store: int = 0
    #: Files skipped because a previous journaled run quarantined their
    #: content (shipped verbatim, status ``quarantined``).
    quarantined: int = 0
    #: Supervision tallies from the executor (fork pool only): tasks
    #: retried, watchdog timeouts, workers that died, workers respawned.
    supervision: dict[str, int] = field(
        default_factory=_empty_supervision)
    #: Pool worker processes started; 0 when every file ran in this
    #: process.
    workers: int = field(default=0, init=False)


@dataclass
class BatchResult:
    """Aggregated outcome of batch-transforming one program."""

    program: SourceProgram
    reports: list[FileTransformReport]
    info: StreamInfo = field(default_factory=StreamInfo)
    wall_time: float = 0.0                      # seconds, in the parent

    @property
    def transformed_program(self) -> SourceProgram:
        return SourceProgram(
            self.program.name + "+fixed",
            {r.filename: r.final_text for r in self.reports},
            {}, {}, self.program.main_file, preprocessed=True)

    def _results(self, which: str) -> list[TransformResult]:
        out = []
        for report in self.reports:
            result = report.slr if which == "SLR" else report.str_
            if result is not None:
                out.append(result)
        return out

    def candidates(self, which: str) -> int:
        return sum(r.candidates for r in self._results(which))

    def transformed(self, which: str) -> int:
        return sum(r.transformed_count for r in self._results(which))

    def percent(self, which: str) -> float:
        total = self.candidates(which)
        if total == 0:
            return 0.0
        return 100.0 * self.transformed(which) / total

    def failures_by_reason(self, which: str) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self._results(which):
            for reason, n in result.failures_by_reason().items():
                counts[reason] = counts.get(reason, 0) + n
        return counts

    def by_target(self, which: str) -> dict[str, tuple[int, int]]:
        stats: dict[str, tuple[int, int]] = {}
        for result in self._results(which):
            for target, (done, total) in result.by_target().items():
                prev_done, prev_total = stats.get(target, (0, 0))
                stats[target] = (prev_done + done, prev_total + total)
        return stats

    @property
    def all_parse(self) -> bool:
        return all(r.parses for r in self.reports)

    # ------------------------------------------------ diagnostic rollups

    def diagnostics(self) -> list[FileDiagnostic]:
        """Every contained failure, in report (filename) order."""
        return [diag for report in self.reports
                for diag in report.diagnostics]

    def status_counts(self) -> dict[str, int]:
        """``{'ok': …, 'degraded': …, 'failed': …, 'quarantined': …}``
        over all files."""
        counts = {status: 0 for status in
                  ("ok", "degraded", "failed", "quarantined")}
        for report in self.reports:
            counts[report.status] = counts.get(report.status, 0) + 1
        return counts

    @property
    def failed_count(self) -> int:
        return sum(1 for r in self.reports if r.status == STATUS_FAILED)

    @property
    def fully_succeeded(self) -> bool:
        """Did every file come through with no contained failure?"""
        return all(r.status == STATUS_OK for r in self.reports)

    def stage_failure_counts(self) -> dict[str, int]:
        """Diagnostic tallies per stage (for the diagnostics table)."""
        counts: dict[str, int] = {}
        for diag in self.diagnostics():
            counts[diag.stage] = counts.get(diag.stage, 0) + 1
        return counts

    # ------------------------------------------------ arbitration rollups

    def arbitrations(self) -> list[ArbitrationReport]:
        """Per-file arbitration outcomes (empty outside backend mode)."""
        return [r.arbitration for r in self.reports
                if r.arbitration is not None]

    def winners(self) -> dict[str, str | None]:
        """filename -> winning backend id (None = no valid fix)."""
        return {r.filename: r.arbitration.winner for r in self.reports
                if r.arbitration is not None}

    def backend_scoreboard(self) -> dict[str, dict[str, int]]:
        """Per-backend tallies over every arbitrated file (see
        :func:`repro.core.backends.scoreboard`)."""
        return scoreboard(self.arbitrations())

    @property
    def backends_attempted(self) -> int:
        return sum(a.attempted for a in self.arbitrations())

    @property
    def backends_rejected(self) -> int:
        return sum(a.rejected for a in self.arbitrations())

    # ------------------------------------------------ validation rollups

    def validations(self) -> list[ValidationReport]:
        return [r.validation for r in self.reports
                if r.validation is not None]

    def validation_counts(self) -> dict[str, int]:
        """Verdict counters summed over every validated file."""
        totals: dict[str, int] = {}
        for report in self.validations():
            for verdict, n in report.counts().items():
                totals[verdict] = totals.get(verdict, 0) + n
        return totals

    @property
    def semantics_preserved(self) -> bool:
        """No validated file shows a ``semantics-changed`` divergence."""
        return all(report.ok for report in self.validations())


def _task_work_key(task: FileTask) -> str:
    """What a task's outcome depends on: the file name (diagnostics name
    it, the oracle seeds its probes with it, faults fire per name), the
    text and the settings.  Each file of a batch therefore has its own
    key, and so its own journal record."""
    parts = ["task", task.filename, task.text, str(task.run_slr),
             str(task.run_str), task.profile]
    # The oracle's verdicts depend on the probe bytes (the per-file
    # seed in effect) and on its step and allocation budgets.
    oracle = [str(file_seed(task.filename, task.fuzz_seed)),
              str(oracle_step_limit()), str(oracle_mem_limit())]
    if task.backends:
        # Arbitration outcomes depend on the backend chain and the
        # contract version — and the judge always runs.
        parts += ["backends", ARBITRATION_VERSION, *task.backends,
                  *oracle]
    if task.validate:
        parts += oracle
    return content_key(*parts)


def _preprocess_failure_report(filename: str, original_text: str,
                               diagnostic: FileDiagnostic,
                               wall: float) -> FileTransformReport:
    """The ``failed`` report for a file that never preprocessed: the
    original text ships verbatim (nothing was made worse)."""
    return FileTransformReport(
        filename, None, None, original_text, True, wall, None,
        {"preprocess": wall}, status=STATUS_FAILED,
        diagnostics=[diagnostic])


def _quarantined_report(filename: str, text: str, entry: dict,
                        seconds: float) -> FileTransformReport:
    """The report for a known poison file: input shipped verbatim with
    status ``quarantined`` and a diagnostic naming the run that first
    condemned it — no retry/timeout budget is spent."""
    message = (f"skipped: content quarantined by run "
               f"{entry.get('run_id', '?')} after "
               f"{entry.get('attempts', 1)} attempt(s) "
               f"({entry.get('kind', '?')}: {entry.get('message', '')})")
    return FileTransformReport(
        filename, None, None, text, True, 0.0, None,
        {"preprocess": seconds}, status=STATUS_QUARANTINED,
        diagnostics=[FileDiagnostic(filename, "worker", KIND_QUARANTINED,
                                    message)])


class BatchStream:
    """Stream one program's transform reports in filename order.

    The task source preprocesses each file in the parent as the
    executor asks for it (an incremental pre-warm of the store) and
    yields either the :class:`FileTask` a worker must compute or the
    report of a file that needs no worker: a preprocess failure, a
    journal replay (``--resume``), a quarantined file, a clean report
    stored under the task's work key by an earlier run.  The sources
    are tried in that order.  The executor passes such a report through
    in its place, inside the same :func:`stream_window`, so the parent
    holds O(window) reports on every path, a resume included;
    ``executor.max_inflight`` records the high-water mark.  Every file
    is computed under its own name: files with identical text share
    only the content-keyed preprocess, SLR, STR and verify caches.  The
    parent's preprocess seconds land on the ``stage_times`` of every
    report the stream makes or replays from the store; a replayed report
    otherwise keeps the times it was recorded with.

    Iterate it once; ``info`` is complete after exhaustion.
    :func:`apply_batch` collects it into a :class:`BatchResult`.
    """

    def __init__(self, program: SourceProgram, *, run_slr: bool = True,
                 run_str: bool = True, profile: str = "glib",
                 jobs: int | None = None,
                 validate: bool = False,
                 fuzz_seed: int | None = None,
                 backends=None,
                 session: AnalysisSession | None = None,
                 journal=None):
        self.program = program
        #: Optional :class:`repro.core.runlog.RunJournal`.  When set,
        #: completed files replay from the journal (``--resume``),
        #: terminal reports are journaled as they emit, and known
        #: poison content is quarantined instead of re-dispatched.
        self.journal = journal
        self.session = session if session is not None else get_session()
        self.run_slr = run_slr
        self.run_str = run_str
        self.profile = profile
        self.validate = validate
        self.fuzz_seed = fuzz_seed
        self.backend_ids = resolve_backends(backends) if backends else None
        executor = make_executor(jobs)
        self.info = StreamInfo(jobs=executor.jobs)
        # A single-file program gains nothing from forking; the
        # requested job count still lands in ``info.jobs``.
        self.executor = SerialExecutor() if program.file_count <= 1 \
            else executor
        #: index -> (work key, parent preprocess seconds) of every file
        #: computed or replayed from the store and not yet emitted.
        self._dispatched: dict[int, tuple[str, float]] = {}
        self._gen = self._run()

    def __iter__(self):
        return self._gen

    def __next__(self):
        return next(self._gen)

    def _sources(self):
        """Yield, per file in filename order, the task to compute or the
        report that is already final.  Runs in the parent, driven by the
        executor's dispatch window: each pull preprocesses exactly one
        more file."""
        program = self.program
        for index, filename in enumerate(sorted(program.files)):
            source = program.files[filename]
            start = time.perf_counter()
            if program.preprocessed:
                text = source
            else:
                try:
                    faults.check("preprocess", filename)
                    text = self.session.preprocess(
                        source, filename, program.headers,
                        program.predefined).text
                except Exception as exc:
                    failure = _preprocess_failure_report(
                        filename, source,
                        diagnostic_from_exception("preprocess", filename,
                                                  exc),
                        time.perf_counter() - start)
                    if self.journal is not None:
                        # No preprocessed text, so no work key: the
                        # record is keyed by name and source.
                        self.journal.record_result(
                            filename,
                            content_key("pp-fail", filename, source),
                            failure)
                    yield failure
                    continue
            seconds = time.perf_counter() - start
            task = FileTask(filename, text, self.run_slr, self.run_str,
                            self.profile, self.validate, self.fuzz_seed,
                            self.backend_ids)
            key = _task_work_key(task)
            if self.journal is not None:
                # Resume: a journaled completion whose work key still
                # matches (content, settings, tool all unchanged)
                # replays without dispatching; a key miss falls through
                # and recomputes.
                replayed = self.journal.replay(filename, key)
                if replayed is not None:
                    self.info.replayed += 1
                    yield replayed
                    continue
                from .runlog import quarantine_lookup
                entry = quarantine_lookup(text)
                if entry is not None:
                    self.info.quarantined += 1
                    report = _quarantined_report(filename, text, entry,
                                                 seconds)
                    self.journal.write_audit(key, report)
                    self.journal.record_quarantined(filename, key, entry)
                    yield report
                    continue
            # A stored report emits like a computed one: ``_run`` stamps
            # it and journals it, but no worker is woken for it.
            self._dispatched[index] = (key, seconds)
            stored = _stored_report(key)
            if stored is not None:
                self.info.from_store += 1
                yield stored
                continue
            if self.journal is not None:
                self.journal.record_dispatched(filename, key)
            yield task

    def _journal_emission(self, filename: str, key: str,
                          report: FileTransformReport) -> None:
        """Journal one computed or stored report as it emits — result
        pointer published first, then the WAL event — and quarantine
        content that burned the whole retry budget on a worker-stage
        death or timeout (the poison-file signature: the *machinery*
        around the file kept dying, so no per-stage guard could contain
        it)."""
        self.journal.record_result(filename, key, report)
        if report.status != STATUS_FAILED:
            return
        from .runlog import quarantine_record
        for diag in report.diagnostics:
            if diag.stage == "worker" \
                    and diag.kind in (KIND_TIMEOUT, KIND_WORKER_DIED):
                quarantine_record(report.final_text, filename, diag,
                                  self.journal.run_id)
                return

    def _run(self):
        for index, report in self.executor.imap(self._sources()):
            pending = self._dispatched.pop(index, None)
            if pending is not None:
                key, seconds = pending
                report.stage_times["preprocess"] = seconds
                if self.journal is not None:
                    self._journal_emission(report.filename, key, report)
            yield report
        self.info.supervision = dict(self.executor.supervision)
        self.info.workers = self.executor.spawned
        if self.journal is not None:
            self.journal.close()


def stream_batch(program: SourceProgram, **kwargs) -> BatchStream:
    """Streaming batch entry point: yields
    :class:`FileTransformReport` objects in filename order while the
    pool is still working on later files.  Accepts the same keyword
    arguments as :func:`apply_batch`."""
    return BatchStream(program, **kwargs)


def apply_batch(program: SourceProgram, *, run_slr: bool = True,
                run_str: bool = True, profile: str = "glib",
                jobs: int | None = None,
                validate: bool = False,
                fuzz_seed: int | None = None,
                backends=None,
                session: AnalysisSession | None = None,
                journal=None) -> BatchResult:
    """Preprocess and transform every file of ``program``: collect
    :func:`stream_batch` into a :class:`BatchResult`.

    Files are processed in filename order by the executor selected via
    ``jobs`` (1 = serial, N > 1 = fork pool, default from ``REPRO_JOBS``),
    so serial and parallel runs produce byte-identical reports.
    Preprocessing runs in the parent, pre-warming the shared caches (and
    the persistent store) before any worker needs them.

    ``validate=True`` runs the differential oracle on every transformed
    file; verdicts land on each report's ``validation`` and roll up via
    :meth:`BatchResult.validation_counts`.

    ``backends`` switches the per-file work from the legacy SLR→STR
    chain to oracle-arbitrated best-fix selection over the named fix
    backends (a comma-separated string, an iterable of ids, or
    ``"all"``); ``None`` runs the legacy chain.  Under arbitration the
    oracle always judges every candidate (``validate`` only controls
    whether the verdict table is *rendered*), the winner's validation
    lands on each report, and per-backend tallies roll up via
    :meth:`BatchResult.backend_scoreboard`.

    Fault isolation: a file whose preprocessing fails becomes a
    ``failed`` report (original text shipped verbatim, one
    ``preprocess`` diagnostic) while its siblings continue through the
    pipeline; downstream per-stage failures are contained inside
    :func:`transform_file` the same way.
    """
    start = time.perf_counter()
    stream = BatchStream(program, run_slr=run_slr, run_str=run_str,
                         profile=profile, jobs=jobs, validate=validate,
                         fuzz_seed=fuzz_seed, backends=backends,
                         session=session, journal=journal)
    reports = list(stream)
    return BatchResult(program, reports, stream.info,
                       time.perf_counter() - start)
