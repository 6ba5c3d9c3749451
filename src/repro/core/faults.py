"""Deterministic fault injection for the transformation pipeline.

Fault-containment claims are only credible when they are *exercised*:
this module lets the chaos suite (``tests/test_fault_injection.py``) and
ad-hoc debugging plant failures at pipeline stage boundaries and then
prove that :func:`repro.core.batch.apply_batch` degrades exactly as
documented — one report per file, structured diagnostics for the faulted
files, byte-identical transforms for the rest, at any worker count.

Faults are configured through ``REPRO_FAULTS``, a comma-separated list
of ``stage:kind:rate`` rules:

``stage``
    Where to fire — ``preprocess``, ``slr``, ``str``, ``verify``,
    ``validate`` (the per-file stage guards in
    :func:`repro.core.batch.transform_file`), ``store`` (the
    persistent artifact store's read path), or the run-journal hooks
    ``dispatch`` / ``journal`` (fired by
    :class:`repro.core.runlog.RunJournal` around its write-ahead-log
    appends — the crash-recovery suite plants ``parent-kill`` there).
``kind``
    ``exception``    raise :class:`InjectedFault` at the stage boundary;
    ``hang``         stall the stage (``REPRO_FAULT_HANG_S`` seconds in
                     a supervised pool worker, where the watchdog is
                     expected to kill it; a short cooperative stall +
                     :class:`InjectedHang` elsewhere);
    ``kill``         die without cleanup — ``os._exit`` in a pool
                     worker (exercising dead-worker detection), a
                     raised :class:`InjectedKill` in-process;
    ``parent-kill``  ``os._exit`` in the *parent* (scheduler) process —
                     a no-op inside pool workers — simulating the whole
                     batch driver dying mid-run with no cleanup, the
                     crash ``--resume`` must recover from;
    ``corrupt``      flip bytes in a persistent-store entry before it
                     is unpickled (``store`` stage only);
    ``disk-full``    make the next matching journal/store write raise
                     ``OSError(ENOSPC)``, proving durable-run I/O
                     degrades warn-once instead of failing the batch
                     (consumed via :func:`check_disk_full`, not
                     :func:`check`).
``rate``
    Fraction of subjects the rule fires on, in ``[0, 1]``.

Which subjects fire is a pure function of ``(stage, kind, subject)`` —
a keyed hash, not a PRNG — so the same files fault in every process, at
every ``--jobs`` value, in every retry.  That determinism is what makes
"n reports, k diagnostics, identical at jobs=1 and jobs=4" a testable
property rather than a flaky one.

The module is inert unless ``REPRO_FAULTS`` is set: every hook begins
with a cached truthiness check of the environment value, so production
runs pay one dict lookup per stage.
"""

from __future__ import annotations

import errno
import hashlib
import os
import time
from dataclasses import dataclass

#: Stage names :func:`check` is called with (documentation + validation).
#: Under backend arbitration every registered backend id is also a stage
#: (``s3lib``, …) — an ``s3lib:exception:1.0`` rule fails exactly that
#: backend's candidates and lets the next-best fix win.
INJECTABLE_STAGES = ("preprocess", "slr", "str", "s3lib", "verify",
                     "validate", "store", "dispatch", "journal")

#: Supported fault kinds.
KINDS = ("exception", "hang", "kill", "parent-kill", "corrupt",
         "disk-full")

#: How long a ``hang`` fault stalls inside a supervised pool worker
#: (long enough that any sane ``REPRO_TASK_TIMEOUT`` expires first).
DEFAULT_HANG_S = 30.0

#: Exit status an injected ``kill`` dies with (recognizable in logs).
KILL_EXIT_CODE = 87


class InjectedFault(RuntimeError):
    """The ``exception`` fault kind: an ordinary in-stage failure."""


class InjectedHang(BaseException):
    """Raised after a cooperative (non-watchdog) hang stall.

    Derives from :class:`BaseException` so the per-stage guards (which
    catch :class:`Exception`) let it propagate to the per-file handler:
    a hang takes out the whole file attempt, exactly like a watchdog
    kill would, keeping serial and pool runs in agreement.
    """


class InjectedKill(BaseException):
    """In-process stand-in for an abrupt worker death (serial runs)."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed ``stage:kind:rate`` clause."""

    stage: str
    kind: str
    rate: float


def parse_spec(spec: str) -> list[FaultRule]:
    """Parse a ``REPRO_FAULTS`` value; malformed clauses are rejected.

    Raising (rather than skipping) on a bad clause is deliberate: a typo
    in a chaos run must not silently test nothing.
    """
    rules = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad REPRO_FAULTS clause {clause!r}; "
                             f"expected stage:kind:rate")
        stage, kind, rate_text = parts
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r} in {clause!r}; "
                             f"choose from {KINDS}")
        try:
            rate = float(rate_text)
        except ValueError:
            raise ValueError(f"bad fault rate {rate_text!r} in "
                             f"{clause!r}") from None
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate {rate} outside [0, 1] "
                             f"in {clause!r}")
        rules.append(FaultRule(stage, kind, rate))
    return rules


# Parsed-spec memo keyed on the raw env value, so repeated checks per
# stage cost one dict probe; tests that monkeypatch REPRO_FAULTS get a
# fresh parse automatically.
_SPEC_MEMO: tuple[str, list[FaultRule]] | None = None


def active_rules() -> list[FaultRule]:
    global _SPEC_MEMO
    spec = os.environ.get("REPRO_FAULTS", "")
    if not spec:
        return []
    if _SPEC_MEMO is not None and _SPEC_MEMO[0] == spec:
        return _SPEC_MEMO[1]
    rules = parse_spec(spec)
    _SPEC_MEMO = (spec, rules)
    return rules


def faults_enabled() -> bool:
    """Is any fault rule configured?  (One env lookup on the hot path.)"""
    return bool(os.environ.get("REPRO_FAULTS"))


def should_fire(rule: FaultRule, subject: str) -> bool:
    """Deterministic per-subject coin flip at the rule's rate.

    Uses a keyed blake2b hash — stable across processes, platforms, and
    ``PYTHONHASHSEED`` — so the faulted subset is a pure function of the
    rule and the subject name.
    """
    if rule.rate >= 1.0:
        return True
    if rule.rate <= 0.0:
        return False
    digest = hashlib.blake2b(
        f"repro-fault|{rule.stage}|{rule.kind}|{subject}".encode("utf-8"),
        digest_size=8).digest()
    fraction = int.from_bytes(digest, "big") / float(1 << 64)
    return fraction < rule.rate


def faulted_subjects(stage: str, kind: str, subjects) -> list[str]:
    """Which of ``subjects`` the active rules would fault at ``stage``
    with ``kind`` — the chaos suite uses this to compute its expected
    diagnostic set from the same coin flips the pipeline will make."""
    hits = []
    for subject in subjects:
        for rule in active_rules():
            if rule.stage == stage and rule.kind == kind \
                    and should_fire(rule, subject):
                hits.append(subject)
                break
    return hits


# ------------------------------------------------------------ worker mode

_IN_WORKER = False


def mark_worker() -> None:
    """Called once at supervised-pool-worker startup: ``kill`` faults may
    really ``os._exit`` here, and ``hang`` faults stall for real."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    return _IN_WORKER


def hang_seconds() -> float:
    try:
        return float(os.environ.get("REPRO_FAULT_HANG_S",
                                    str(DEFAULT_HANG_S)))
    except ValueError:
        return DEFAULT_HANG_S


# ------------------------------------------------------------ injection

def check(stage: str, subject: str) -> None:
    """Fire any matching fault at a stage boundary.

    Called by the pipeline's stage guards with the file name as the
    subject.  ``corrupt`` rules are ignored here (they live on the
    store's read path — see :func:`corrupt_entry`).
    """
    if not faults_enabled():
        return
    for rule in active_rules():
        if rule.stage != stage \
                or rule.kind in ("corrupt", "disk-full") \
                or not should_fire(rule, subject):
            continue
        if rule.kind == "exception":
            raise InjectedFault(
                f"injected {stage} fault for {subject}")
        if rule.kind == "hang":
            if in_worker():
                # Stall long enough for the watchdog; if no watchdog is
                # armed the worker recovers cooperatively afterwards.
                time.sleep(hang_seconds())
            else:
                time.sleep(min(hang_seconds(), 0.05))
            raise InjectedHang(
                f"injected {stage} hang for {subject}")
        if rule.kind == "kill":
            if in_worker():
                os._exit(KILL_EXIT_CODE)
            raise InjectedKill(
                f"injected {stage} kill for {subject}")
        if rule.kind == "parent-kill":
            # Only the scheduler dies; inside a pool worker this rule
            # is inert (killing a worker is what plain ``kill`` does).
            if not in_worker():
                os._exit(KILL_EXIT_CODE)


def check_disk_full(stage: str, subject: str) -> None:
    """Raise ``OSError(ENOSPC)`` when an active ``disk-full`` rule hits
    this write.

    The journal and store call it *inside* the try blocks that absorb a
    real ``OSError``, so the injected ENOSPC takes the same degradation
    path a full disk would.
    """
    if not faults_enabled():
        return
    for rule in active_rules():
        if rule.stage == stage and rule.kind == "disk-full" \
                and should_fire(rule, subject):
            raise OSError(errno.ENOSPC,
                          f"injected disk-full for {subject}")


def corrupt_entry(key: str, data: bytes) -> bytes:
    """Corrupt a persistent-store entry on its way to ``pickle.loads``.

    The store must treat the result as a miss and self-heal — a corrupt
    cache byte must never surface as a wrong value or a crash.
    """
    if not faults_enabled():
        return data
    for rule in active_rules():
        if rule.stage == "store" and rule.kind == "corrupt" \
                and should_fire(rule, key):
            # Flip the header and truncate: reliably unloadable.
            return b"\xff" + data[: max(0, len(data) // 2)]
    return data
