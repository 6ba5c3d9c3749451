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
Dispatch is a *streaming work queue*: the pool pulls tasks from a lazy
source no more than :func:`stream_window` files ahead of emission and
streams results back in input order as they complete, so the parent's
working set is O(jobs + window), not O(batch).  :func:`apply_batch`
collects the stream into a :class:`BatchResult`; :func:`stream_batch`
exposes it directly for batch sizes where retaining every report is the
bottleneck (the 10k-file bench legs run this way).

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

import dataclasses
import hashlib
import os
import pickle
import time
import warnings
from dataclasses import dataclass, field

from ..cfront.cache import CacheStats, ContentCache, content_key, \
    snapshot_stats
from ..cfront.source import count_source_lines
from . import faults, profile
from .diagnostics import (
    KIND_QUARANTINED, KIND_TIMEOUT, KIND_WORKER_DIED, STATUS_FAILED,
    STATUS_OK, STATUS_QUARANTINED, FileDiagnostic,
    diagnostic_from_exception, status_of, supervisor_diagnostic,
)
from .backends import (  # noqa: F401 (re-exported arbitration helpers)
    ARBITRATION_VERSION, CANDIDATE_ERROR, COMPOSITE_BACKEND,
    ArbitrationReport, arbitrate_file, arbitration_from_env,
    backends_from_env, reset_breakers, resolve_arbitration,
    resolve_backends, scoreboard,
)
from .session import AnalysisSession, get_session
from .slr import SafeLibraryReplacement
from .strtransform import SafeTypeReplacement
from .transform import TransformResult
from .validate import ValidationReport, default_inputs, validate_pair


def default_jobs() -> int:
    """Worker count when the caller does not pass one (``REPRO_JOBS``).

    Rejects non-integer and non-positive values with a warning (a bad
    knob must not silently serialize a production run), and caps the
    answer at the machine's CPU count — more fork workers than cores
    only adds memory pressure and scheduler churn.
    """
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        warnings.warn(f"ignoring non-integer REPRO_JOBS={raw!r}; "
                      f"running with 1 worker", RuntimeWarning,
                      stacklevel=2)
        return 1
    if jobs <= 0:
        warnings.warn(f"ignoring REPRO_JOBS={jobs} (must be >= 1); "
                      f"running with 1 worker", RuntimeWarning,
                      stacklevel=2)
        return 1
    return min(jobs, os.cpu_count() or 1)


def task_timeout() -> float | None:
    """Per-task wall-clock budget for supervised pool workers
    (``REPRO_TASK_TIMEOUT`` seconds; unset/0 disables the watchdog)."""
    raw = os.environ.get("REPRO_TASK_TIMEOUT", "")
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        warnings.warn(f"ignoring non-numeric REPRO_TASK_TIMEOUT={raw!r}",
                      RuntimeWarning, stacklevel=2)
        return None
    return value if value > 0 else None


def task_retries() -> int:
    """How many times a crashed/timed-out task is retried before it is
    recorded as failed (``REPRO_TASK_RETRIES``, default 1)."""
    raw = os.environ.get("REPRO_TASK_RETRIES", "1")
    try:
        return max(0, int(raw))
    except ValueError:
        warnings.warn(f"ignoring non-integer REPRO_TASK_RETRIES={raw!r}; "
                      f"using 1", RuntimeWarning, stacklevel=2)
        return 1


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


#: How many representative reports the streaming batch retains for
#: content deduplication.  A duplicate file whose representative was
#: already evicted is simply recomputed — correctness never depends on
#: the window, only the dedup hit rate does.
DEDUP_WINDOW = 4096


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

    def preprocess(self, session: AnalysisSession | None = None,
                   *, timings: dict[str, float] | None = None
                   ) -> "SourceProgram":
        """Preprocess every file; returns a new, preprocessed program.

        Memoized on the instance (Tables III–VI all query it, some more
        than once) and served from the session's content-keyed cache, so
        identical file text is only ever preprocessed once per process.
        ``timings`` (when given) receives per-file wall seconds for the
        stage profiler.
        """
        if self.preprocessed:
            return self
        if self._pp_memo is not None:
            return self._pp_memo
        session = session if session is not None else get_session()
        out = {}
        for filename, text in self.files.items():
            start = time.perf_counter()
            out[filename] = session.preprocess(text, filename,
                                               self.headers,
                                               self.predefined).text
            if timings is not None:
                timings[filename] = time.perf_counter() - start
        self._pp_memo = SourceProgram(self.name, out, {}, {},
                                      self.main_file, preprocessed=True)
        return self._pp_memo

    def pp_kloc(self) -> float:
        """Preprocessed KLOC (the paper's 'PP KLOC' column)."""
        return self.preprocess().kloc()


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
    #: Arbitration mode: ``file`` (whole-file winner, PR 6 behaviour) or
    #: ``site`` (per-site composition); only meaningful with ``backends``.
    arbitration: str = "file"


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
    wall time).

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
                    diagnostics=diagnostics,
                    arbitration=task.arbitration)
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
    return FileTransformReport(task.filename, slr_result, str_result,
                               text, parses,
                               time.perf_counter() - start, validation,
                               dict(stage_times),
                               status=status_of(diagnostics, produced),
                               diagnostics=diagnostics,
                               arbitration=arbitration)


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
                _unit, parse_error = session.try_parse(text, task.filename)
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
    """Run every task in the calling process, in task order."""

    jobs = 1

    def __init__(self):
        self.supervision = _empty_supervision()
        self.max_inflight = 0

    def imap(self, tasks, *, window: int | None = None):
        """Stream ``(index, report)`` pairs in task order; the task
        source is consumed one task at a time, so parent memory never
        holds more than the in-flight file."""
        for index, task in enumerate(tasks):
            self.max_inflight = max(self.max_inflight, 1)
            yield index, transform_file(task)


#: How often an idle pool worker wakes to check it has not been
#: orphaned by a dead scheduler.
_ORPHAN_POLL_S = 1.0


def _pool_worker(inbox, result_queue) -> None:
    """Supervised-pool worker loop: pull tasks from this worker's own
    inbox until the ``None`` sentinel, ship each report back pre-pickled.

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

    Idle waits poll rather than block: if the scheduler process dies
    without cleanup (crash, SIGKILL, an injected ``parent-kill`` fault),
    the worker notices its reparenting and exits instead of blocking on
    the inbox forever — a crashed batch must not leak a pool of orphaned
    workers holding the terminal's pipes open.
    """
    faults.mark_worker()
    parent = os.getppid()
    reader = getattr(inbox, "_reader", None)
    while True:
        try:
            if reader is not None:
                while not reader.poll(_ORPHAN_POLL_S):
                    if os.getppid() != parent:
                        os._exit(0)         # scheduler died; orphaned
            item = inbox.get()
        except (EOFError, OSError):
            os._exit(0)                     # inbox torn down under us
        if item is None:
            return
        index, task = item
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
    """

    #: Supervisor poll interval: bounds watchdog latency without
    #: busy-waiting the parent.
    POLL_S = 0.05

    def __init__(self, jobs: int, *, timeout: float | None = None,
                 retries: int | None = None):
        self.jobs = max(1, jobs)
        self.timeout = timeout if timeout is not None else task_timeout()
        self.retries = retries if retries is not None else task_retries()
        self.supervision = _empty_supervision()
        self.max_inflight = 0
        self._deaths_to_respawn = 0

    def imap(self, tasks, *, window: int | None = None):
        """Stream ``(index, report)`` pairs back in task order as they
        complete, pulling from ``tasks`` (any iterable) no more than
        ``window`` files ahead of emission.

        This is the streaming work-queue scheduler: the parent's
        working set — unpicked task texts, out-of-order results waiting
        for the emission head, and the workers' in-flight tasks — is
        bounded by the window, so a 10k-file batch costs the parent the
        same memory as a window-sized one.  Emission order is
        deterministic input order at any worker count, through every
        watchdog kill, dead-worker respawn and retry.
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

        def __init__(self, ctx, result_queue):
            self.inbox = ctx.SimpleQueue()
            self.process = ctx.Process(target=_pool_worker,
                                       args=(self.inbox, result_queue),
                                       daemon=True)
            self.process.start()
            self.task_index: int | None = None
            self.started_at = 0.0

        def assign(self, index: int, task: FileTask) -> None:
            self.task_index = index
            self.started_at = time.monotonic()
            self.inbox.put((index, task))

    def _stream(self, ctx, task_iter, *, window: int):
        """The supervised streaming loop behind :meth:`imap`.

        ``held`` maps every pulled-but-unemitted index to its task (the
        retry source); ``ready`` holds completed reports waiting for the
        emission head.  Both are bounded by the window, so the parent
        never retains the whole batch.  Workers are spawned on demand —
        at most ``jobs``, and never more than there are tasks to hand
        out — and a spawn that follows a death is counted as a respawn.
        """
        result_queue = ctx.SimpleQueue()
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
                emitted = False
                while next_emit in ready:
                    report = ready.pop(next_emit)
                    held.pop(next_emit, None)
                    attempts.pop(next_emit, None)
                    yield next_emit, report
                    next_emit += 1
                    emitted = True
                if exhausted and next_emit == next_pull:
                    return
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
                    held[next_pull] = task
                    pending.append(next_pull)
                    next_pull += 1
                self.max_inflight = max(self.max_inflight,
                                        next_pull - next_emit)
                pending.sort()
                for worker in workers:
                    if worker.task_index is None and pending:
                        index = pending.pop(0)
                        worker.assign(index, held[index])
                while pending and len(workers) < self.jobs:
                    worker = self._spawn(ctx, result_queue)
                    workers.append(worker)
                    index = pending.pop(0)
                    worker.assign(index, held[index])
                if not self._drain(result_queue, ready, workers) \
                        and not emitted:
                    time.sleep(self.POLL_S)
                self._check_deadlines(held, ready, attempts, workers,
                                      pending, retry_at)
                workers = self._reap_dead(held, ready, attempts, workers,
                                          pending, retry_at)
        finally:
            for worker in workers:
                if worker.process.is_alive():
                    worker.inbox.put(None)
            for worker in workers:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=2.0)

    def _spawn(self, ctx, result_queue):
        if self._deaths_to_respawn > 0:
            self._deaths_to_respawn -= 1
            self.supervision["respawns"] += 1
        return self._Worker(ctx, result_queue)

    def _drain(self, result_queue, results, workers) -> bool:
        """Collect every completed result currently in the pipe; returns
        whether anything arrived (the caller sleeps briefly if not)."""
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
        alive = [w for w in workers if w.process.is_alive()]
        if len(alive) == len(workers):
            return workers
        for worker in workers:
            if worker.process.is_alive():
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
class BatchStats:
    """Where the batch spent its time and how the caches fared.

    Cache counters are deltas over the run as seen by *this* process;
    a fork pool's in-worker hits show up in per-file wall times instead
    (worker caches are not merged back).  ``stage_times`` holds each
    file's per-stage breakdown (shipped back from workers, so it is
    complete at any worker count); ``stage_totals`` sums them.
    ``deduplicated`` counts tasks served by another task's result
    because their content was identical.
    """

    jobs: int
    wall_time: float
    file_walls: dict[str, float] = field(default_factory=dict)
    parse: CacheStats = field(default_factory=CacheStats)
    preprocess: CacheStats = field(default_factory=CacheStats)
    slr: CacheStats = field(default_factory=CacheStats)
    str_: CacheStats = field(default_factory=CacheStats)
    validate: CacheStats = field(default_factory=CacheStats)
    backend: CacheStats = field(default_factory=CacheStats)
    stage_times: dict[str, dict[str, float]] = field(default_factory=dict)
    deduplicated: int = 0
    #: Supervision tallies from the executor (fork pool only): tasks
    #: retried, watchdog timeouts, workers that died, workers respawned.
    supervision: dict[str, int] = field(default_factory=_empty_supervision)
    #: Arbitration tallies (zero outside ``--backends`` mode): candidate
    #: runs attempted across all files, and candidates the judge
    #: disqualified (semantics-changed or non-parsing output).
    backends_attempted: int = 0
    backends_rejected: int = 0
    #: Run-journal tallies (zero without ``--resume``/journaling):
    #: files replayed from the journal and files skipped as quarantined.
    replayed: int = 0
    quarantined: int = 0

    @property
    def stage_totals(self) -> dict[str, float]:
        return profile.merge_totals(self.stage_times)

    def as_dict(self) -> dict:
        return {"jobs": self.jobs,
                "wall_time_s": round(self.wall_time, 4),
                "file_walls_s": {name: round(wall, 4)
                                 for name, wall
                                 in sorted(self.file_walls.items())},
                "parse_cache": self.parse.as_dict(),
                "preprocess_cache": self.preprocess.as_dict(),
                "slr_cache": self.slr.as_dict(),
                "str_cache": self.str_.as_dict(),
                "validate_cache": self.validate.as_dict(),
                "backend_cache": self.backend.as_dict(),
                "stage_totals_s": {name: round(seconds, 4)
                                   for name, seconds
                                   in sorted(self.stage_totals.items())},
                "deduplicated": self.deduplicated,
                "supervision": dict(self.supervision),
                "backends_attempted": self.backends_attempted,
                "backends_rejected": self.backends_rejected,
                "replayed": self.replayed,
                "quarantined": self.quarantined}


@dataclass
class BatchResult:
    """Aggregated outcome of batch-transforming one program."""

    program: SourceProgram
    reports: list[FileTransformReport]
    stats: BatchStats | None = None

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
    def degraded_count(self) -> int:
        return sum(1 for r in self.reports if r.status == "degraded")

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

    def site_winner_totals(self) -> dict[str, int]:
        """backend id -> composite sites won, over every shipped
        site-mode composite (empty outside site mode)."""
        totals: dict[str, int] = {}
        for arb in self.arbitrations():
            if arb.winner == COMPOSITE_BACKEND:
                for backend, count in arb.site_winner_counts().items():
                    totals[backend] = totals.get(backend, 0) + count
        return totals

    @property
    def composites_shipped(self) -> int:
        """Files whose site-mode composite won the arbitration."""
        return sum(1 for a in self.arbitrations()
                   if a.winner == COMPOSITE_BACKEND)

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
    """What a task's outcome depends on — *not* the filename, except
    when validating (the oracle's fuzz probes are seeded per file) or
    when fault injection is armed (faults fire per file name, so
    identical content may legitimately diverge)."""
    parts = ["task", task.text, str(task.run_slr), str(task.run_str),
             task.profile]
    if task.backends:
        # Arbitration outcomes depend on the backend chain, the
        # arbitration mode, and the contract version — and the judge
        # always runs, with per-file seeded probes, so the filename is
        # part of the work.
        parts += ["backends", ARBITRATION_VERSION, task.arbitration,
                  *task.backends, task.filename, str(task.fuzz_seed)]
    if task.validate:
        parts += [task.filename, str(task.fuzz_seed)]
    if faults.faults_enabled() and faults.affects_results():
        # Scheduler-only faults (journal/dispatch parent-kill) never
        # change report content, so they stay out of the key — the run
        # they crash must resume onto the keys it journaled.
        parts += ["faults", task.filename]
    return content_key(*parts)


def _preprocess_failure_report(filename: str, original_text: str,
                               diagnostic: FileDiagnostic,
                               wall: float) -> FileTransformReport:
    """The ``failed`` report for a file that never preprocessed: the
    original text ships verbatim (nothing was made worse)."""
    return FileTransformReport(
        filename, None, None, original_text, True, wall, None, {},
        status=STATUS_FAILED, diagnostics=[diagnostic])


def _quarantined_report(filename: str, text: str,
                        entry: dict) -> FileTransformReport:
    """The report for a known poison file: input shipped verbatim with
    status ``quarantined`` and a diagnostic naming the run that first
    condemned it — no retry/timeout budget is spent."""
    message = (f"skipped: content quarantined by run "
               f"{entry.get('run_id', '?')} after "
               f"{entry.get('attempts', 1)} attempt(s) "
               f"({entry.get('kind', '?')}: {entry.get('message', '')})")
    return FileTransformReport(
        filename, None, None, text, True, 0.0, None, {},
        status=STATUS_QUARANTINED,
        diagnostics=[FileDiagnostic(filename, "worker", KIND_QUARANTINED,
                                    message)])


_PENDING = object()     # dedup sentinel: representative still computing

#: Slot kinds for the streaming emission queue.
_SLOT_REPORT = 0        # resolved report (preprocess failure)
_SLOT_UNIQUE = 1        # representative task, waiting on the executor
_SLOT_DUP = 2           # duplicate content, waiting on its representative


@dataclass
class StreamInfo:
    """What a :class:`BatchStream` learned while it ran (final after the
    stream is exhausted)."""

    jobs: int = 1
    window: int = 0
    #: Peak count of unemitted *reports* the parent held (executor
    #: in-flight plus resolved representatives awaiting their emission
    #: turn) — the memory-bound witness.  Duplicate-file bookkeeping is
    #: a constant-size tuple per file and is not counted.
    max_buffered: int = 0
    emitted: int = 0
    deduplicated: int = 0
    preprocess_failures: int = 0
    #: Files served straight from an attached run journal (``--resume``).
    replayed: int = 0
    #: Files skipped because a previous journaled run quarantined their
    #: content (shipped verbatim, status ``quarantined``).
    quarantined: int = 0
    supervision: dict[str, int] = field(
        default_factory=_empty_supervision)
    #: Per-file parent-side preprocess wall seconds (empty when the
    #: program was already preprocessed or served from its memo).
    pp_timings: dict[str, float] = field(default_factory=dict)


class BatchStream:
    """Stream one program's transform reports in filename order.

    The lazy counterpart of :func:`apply_batch`: files are preprocessed
    in the parent *as the scheduler asks for them* (incremental
    pre-warm), content deduplication runs against a bounded LRU of
    representative reports, and completed reports are yielded to the
    caller the moment their turn in filename order comes up.  The
    parent therefore holds O(window + dedup window) state instead of
    O(batch) — at 10k files it never retains 10k reports — while
    emission order, per-report content, and fault containment match
    :func:`apply_batch` exactly.

    Iterate it once; ``info`` is complete after exhaustion.  Consumers
    that need the whole batch in memory should use :func:`apply_batch`,
    which collects this stream and adds the cache-delta statistics.
    """

    def __init__(self, program: SourceProgram, *, run_slr: bool = True,
                 run_str: bool = True, profile: str = "glib",
                 jobs: int | None = None,
                 validate: bool | None = None,
                 fuzz_seed: int | None = None,
                 backends=None,
                 arbitration: str | None = None,
                 session: AnalysisSession | None = None,
                 window: int | None = None,
                 dedup_cap: int | None = None,
                 memoize_preprocess: bool = False,
                 journal=None):
        self.program = program
        #: Optional :class:`repro.core.runlog.RunJournal`.  When set,
        #: completed files replay from the journal (``--resume``),
        #: terminal reports are journaled as they emit, and known
        #: poison content is quarantined instead of re-dispatched.
        self.journal = journal
        # Fresh circuit-breaker state per batch, installed pre-fork so
        # every worker inherits closed breakers.
        reset_breakers()
        self.session = session if session is not None else get_session()
        self.run_slr = run_slr
        self.run_str = run_str
        self.profile = profile
        self.validate = self.session.validate if validate is None \
            else validate
        self.fuzz_seed = fuzz_seed
        if backends is None:
            backends = self.session.backends \
                if self.session.backends is not None else backends_from_env()
        self.backend_ids = resolve_backends(backends) if backends else None
        if arbitration is None:
            arbitration = arbitration_from_env()
        self.arbitration = resolve_arbitration(arbitration)
        if self.arbitration == "site" and self.backend_ids is None:
            raise ValueError(
                "site arbitration requires a backends selection "
                "(--backends/REPRO_BACKENDS)")
        self.executor = make_executor(jobs)
        self.window = window if window is not None \
            else stream_window(self.executor.jobs)
        self.dedup_cap = DEDUP_WINDOW if dedup_cap is None else dedup_cap
        self.memoize_preprocess = memoize_preprocess
        self.info = StreamInfo(jobs=self.executor.jobs,
                               window=self.window)
        self._reps: dict[str, object] = {}        # work key -> report
        self._pins: dict[str, int] = {}           # keys dup slots await
        self._gen = self._run()

    def __iter__(self):
        return self._gen

    def __next__(self):
        return next(self._gen)

    def _trim_reps(self) -> None:
        """Evict resolved, unpinned representatives beyond the cap
        (oldest first — plain dicts preserve insertion order)."""
        if self.dedup_cap <= 0:
            return
        while len(self._reps) > self.dedup_cap:
            for key, value in self._reps.items():
                if value is _PENDING or key in self._pins:
                    continue
                del self._reps[key]
                break
            else:
                return      # everything live; the cap yields to safety

    def _build_tasks(self, slots, unique_keys, pp_texts):
        """Generate unique tasks lazily, recording a slot per file.

        Runs in the parent, driven by the executor's dispatch window:
        each pull preprocesses (and thereby pre-warms the store for)
        exactly one more file.  Duplicate-content files pin their
        representative's entry and yield nothing.
        """
        program = self.program
        memo = program._pp_memo
        for filename in sorted(program.files):
            if program.preprocessed:
                text = program.files[filename]
            elif memo is not None:
                text = memo.files[filename]
            else:
                start = time.perf_counter()
                try:
                    faults.check("preprocess", filename)
                    text = self.session.preprocess(
                        program.files[filename], filename,
                        program.headers, program.predefined).text
                except Exception as exc:
                    wall = time.perf_counter() - start
                    self.info.pp_timings[filename] = wall
                    self.info.preprocess_failures += 1
                    failure = _preprocess_failure_report(
                        filename, program.files[filename],
                        diagnostic_from_exception(
                            "preprocess", filename, exc),
                        wall)
                    if self.journal is not None:
                        self.journal.record_result(
                            filename,
                            content_key("pp-fail",
                                        program.files[filename]),
                            failure)
                    slots.append((filename, _SLOT_REPORT, failure))
                    continue
                self.info.pp_timings[filename] = \
                    time.perf_counter() - start
                if pp_texts is not None:
                    pp_texts[filename] = text
            task = FileTask(filename, text, self.run_slr, self.run_str,
                            self.profile, self.validate, self.fuzz_seed,
                            self.backend_ids, self.arbitration)
            key = _task_work_key(task)
            if self.journal is not None:
                # Resume: a journaled completion whose work key still
                # matches (content, settings, tool all unchanged)
                # replays without dispatching; a key miss falls through
                # and recomputes.
                replayed = self.journal.replay(filename, key)
                if replayed is not None:
                    self.info.replayed += 1
                    slots.append((filename, _SLOT_REPORT, replayed))
                    continue
                from .runlog import quarantine_lookup
                entry = quarantine_lookup(text)
                if entry is not None:
                    self.info.quarantined += 1
                    report = _quarantined_report(filename, text, entry)
                    self.journal.record_quarantined(filename, key, entry)
                    self.journal.write_audit(report)
                    slots.append((filename, _SLOT_REPORT, report))
                    continue
            if key in self._reps:
                self.info.deduplicated += 1
                self._pins[key] = self._pins.get(key, 0) + 1
                slots.append((filename, _SLOT_DUP, key))
                continue
            self._reps[key] = _PENDING
            # The pin keeps a resolved-but-not-yet-emitted
            # representative safe from _trim_reps until its slot (and
            # every duplicate's) has been served.
            self._pins[key] = self._pins.get(key, 0) + 1
            self._trim_reps()
            unique_keys.append(key)
            slots.append((filename, _SLOT_UNIQUE, key))
            if self.journal is not None:
                self.journal.record_dispatched(filename, key)
            yield task

    def _journal_emission(self, filename: str, key: str,
                          report: FileTransformReport) -> None:
        """Journal one computed report as it emits — result pointer
        published first, then the WAL event — and quarantine content
        that burned the whole retry budget on a worker-stage death or
        timeout (the poison-file signature: the *machinery* around the
        file kept dying, so no per-stage guard could contain it)."""
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
        from collections import deque
        slots: deque = deque()
        unique_keys: deque = deque()
        pp_texts: dict[str, str] | None = \
            {} if self.memoize_preprocess else None
        # A single-file program gains nothing from forking (the
        # historical executor fallback for trivial batches); the
        # requested job count still lands in ``info.jobs``.
        runner = SerialExecutor() if self.program.file_count <= 1 \
            and self.executor.jobs > 1 else self.executor
        results = runner.imap(
            self._build_tasks(slots, unique_keys, pp_texts),
            window=self.window)
        exhausted = False
        resolved_unemitted = 0
        while True:
            buffered = len(unique_keys) + resolved_unemitted
            if buffered > self.info.max_buffered:
                self.info.max_buffered = buffered
            while slots:
                filename, kind, value = slots[0]
                if kind == _SLOT_REPORT:
                    slots.popleft()
                    self.info.emitted += 1
                    yield value
                    continue
                report = self._reps.get(value)
                if report is _PENDING:
                    break           # head still computing: pull results
                slots.popleft()
                self._pins[value] -= 1
                if not self._pins[value]:
                    del self._pins[value]
                if kind == _SLOT_UNIQUE:
                    resolved_unemitted -= 1
                elif report.filename != filename:
                    report = dataclasses.replace(
                        report, filename=filename)
                if self.journal is not None:
                    self._journal_emission(filename, value, report)
                self.info.emitted += 1
                yield report
            if exhausted and not slots:
                break
            try:
                _index, report = next(results)
            except StopIteration:
                exhausted = True
                continue
            key = unique_keys.popleft()
            resolved_unemitted += 1
            if key in self._reps:
                self._reps[key] = report
            self._trim_reps()
        self.info.supervision = dict(runner.supervision)
        if self.journal is not None:
            self.journal.close()
        program = self.program
        if pp_texts is not None and not program.preprocessed \
                and program._pp_memo is None \
                and not self.info.preprocess_failures \
                and len(pp_texts) == program.file_count:
            program._pp_memo = SourceProgram(
                program.name, dict(pp_texts), {}, {}, program.main_file,
                preprocessed=True)


def stream_batch(program: SourceProgram, **kwargs) -> BatchStream:
    """Streaming batch entry point: yields
    :class:`FileTransformReport` objects in filename order while the
    pool is still working on later files.  Accepts the same keyword
    arguments as :func:`apply_batch` plus ``window`` (dispatch-ahead
    bound, default :func:`stream_window`) and ``dedup_cap``
    (representative-retention bound, default :data:`DEDUP_WINDOW`)."""
    return BatchStream(program, **kwargs)


def apply_batch(program: SourceProgram, *, run_slr: bool = True,
                run_str: bool = True, profile: str = "glib",
                jobs: int | None = None,
                validate: bool | None = None,
                fuzz_seed: int | None = None,
                backends=None,
                arbitration: str | None = None,
                session: AnalysisSession | None = None,
                journal=None) -> BatchResult:
    """Preprocess and transform every file of ``program``.

    Files are processed in filename order by the executor selected via
    ``jobs`` (1 = serial, N > 1 = fork pool, default from ``REPRO_JOBS``),
    so serial and parallel runs produce byte-identical reports.

    Preprocessing runs in the parent — pre-warming the shared caches
    (and the persistent store) before any worker forks — and tasks with
    identical work keys are deduplicated, so no two workers ever
    transform the same content: the representative's report is cloned
    under each duplicate's filename.

    ``validate=True`` runs the differential oracle on every transformed
    file (``None`` defers to ``session.validate``); verdicts land on
    each report's ``validation`` and roll up via
    :meth:`BatchResult.validation_counts`.

    ``backends`` switches the per-file work from the legacy SLR→STR
    chain to oracle-arbitrated best-fix selection over the named fix
    backends (a comma-separated string, an iterable of ids, or
    ``"all"``).  ``None`` falls back to ``session.backends``, then the
    ``REPRO_BACKENDS`` environment knob, then legacy mode.  Under
    arbitration the oracle always judges every candidate (``validate``
    only controls whether the verdict table is *rendered*), the winner's
    validation lands on each report, and per-backend tallies roll up via
    :meth:`BatchResult.backend_scoreboard`.

    ``arbitration`` picks whole-file (``"file"``, the default) or
    per-site (``"site"``) winner selection; ``None`` defers to the
    ``REPRO_ARBITRATION`` environment knob.  Site mode requires a
    backend selection — it arbitrates between backends per call site.

    Fault isolation: a file whose preprocessing fails becomes a
    ``failed`` report (original text shipped verbatim, one
    ``preprocess`` diagnostic) while its siblings continue through the
    pipeline; downstream per-stage failures are contained inside
    :func:`transform_file` the same way.
    """
    before = snapshot_stats()
    start = time.perf_counter()
    # Unbounded window and dedup retention: apply_batch holds every
    # report anyway, so capping dispatch-ahead would only risk idling
    # workers behind a slow emission head; streaming consumers that
    # want the bounds use stream_batch directly.
    stream = BatchStream(program, run_slr=run_slr, run_str=run_str,
                         profile=profile, jobs=jobs, validate=validate,
                         fuzz_seed=fuzz_seed, backends=backends,
                         arbitration=arbitration, session=session,
                         window=max(1, program.file_count),
                         dedup_cap=0, memoize_preprocess=True,
                         journal=journal)
    reports = list(stream)
    wall = time.perf_counter() - start
    after = snapshot_stats()

    def delta(name: str) -> CacheStats:
        return after[name].delta(before[name]) if name in before \
            else CacheStats(name)

    pp_timings = stream.info.pp_timings
    stage_times = {}
    for report in reports:
        times = dict(report.stage_times)
        if report.filename in pp_timings:
            times["preprocess"] = times.get("preprocess", 0.0) \
                + pp_timings[report.filename]
        stage_times[report.filename] = times
    result = BatchResult(program, reports, None)
    stats = BatchStats(
        jobs=stream.info.jobs, wall_time=wall,
        file_walls={r.filename: r.wall_time for r in reports},
        parse=delta("parse"), preprocess=delta("preprocess"),
        slr=delta("slr"), str_=delta("str"), validate=delta("validate"),
        backend=delta("backend"),
        stage_times=stage_times,
        deduplicated=stream.info.deduplicated,
        supervision=stream.info.supervision,
        backends_attempted=result.backends_attempted,
        backends_rejected=result.backends_rejected,
        replayed=stream.info.replayed,
        quarantined=stream.info.quarantined)
    result.stats = stats
    return result
