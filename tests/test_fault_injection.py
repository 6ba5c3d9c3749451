"""Chaos suite: prove the pipeline's fault-containment claims.

Uses :mod:`repro.core.faults` (``REPRO_FAULTS``) to plant deterministic
failures at stage boundaries and asserts the documented degradation:
N files with K injected faults produce exactly N reports, K of them
carrying diagnostics, N−K transformed exactly as a fault-free run would
— and the whole outcome is identical at ``jobs=1`` and ``jobs=4``.
"""

import contextlib
import os
import signal

import pytest

from repro.core import faults
from repro.core.batch import SourceProgram, apply_batch
from repro.core.diagnostics import (
    KIND_TIMEOUT, KIND_WORKER_DIED, STATUS_DEGRADED, STATUS_FAILED,
    STATUS_OK,
)


def chaos_program(count: int = 8) -> SourceProgram:
    """``count`` distinct files, each with one SLR-transformable site."""
    files = {}
    for i in range(count):
        files[f"file{i:02d}.c"] = (
            "#include <string.h>\n"
            f"void f{i}(void) {{\n"
            f"    char buf{i}[{16 + i}];\n"
            f"    strcpy(buf{i}, \"value-{i}\");\n"
            "}\n")
    return SourceProgram(f"chaos-{count}", files)


def outcome_shape(batch):
    """The cross-jobs comparison key: per-file status, diagnostic
    (stage, kind) pairs, and final text."""
    return [(r.filename, r.status,
             sorted((d.stage, d.kind) for d in r.diagnostics),
             r.final_text)
            for r in batch.reports]


@contextlib.contextmanager
def alarm_after(seconds: int):
    """Fail, instead of hanging the suite, when the block outlives
    ``seconds`` — a scheduler wait that lost its deadline never wakes."""
    def expire(signum, frame):
        raise TimeoutError(f"batch still running after {seconds}s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _fault_env(monkeypatch):
    """Every test starts fault-free; REPRO_FAULTS set per test."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    monkeypatch.delenv("REPRO_FAULT_HANG_S", raising=False)
    yield


class TestSpecParsing:
    def test_parse_clauses(self):
        rules = faults.parse_spec("slr:exception:0.5, store:corrupt:1")
        assert rules == [faults.FaultRule("slr", "exception", 0.5),
                         faults.FaultRule("store", "corrupt", 1.0)]

    def test_malformed_clause_raises(self):
        with pytest.raises(ValueError):
            faults.parse_spec("slr:exception")
        with pytest.raises(ValueError):
            faults.parse_spec("slr:meteor:0.5")
        with pytest.raises(ValueError):
            faults.parse_spec("slr:exception:1.5")
        with pytest.raises(ValueError):
            faults.parse_spec("slr:exception:lots")

    def test_deterministic_subject_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "slr:exception:0.5")
        names = [f"file{i:02d}.c" for i in range(40)]
        first = faults.faulted_subjects("slr", "exception", names)
        second = faults.faulted_subjects("slr", "exception", names)
        assert first == second
        assert 0 < len(first) < len(names)   # a real split, both sides


class TestExceptionFaults:
    def test_counts_and_determinism_across_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "slr:exception:0.5")
        program = chaos_program(8)
        names = sorted(program.files)
        faulted = set(faults.faulted_subjects("slr", "exception", names))
        assert 0 < len(faulted) < len(names)

        serial = apply_batch(chaos_program(8), jobs=1)
        pooled = apply_batch(chaos_program(8), jobs=4)

        for batch in (serial, pooled):
            assert len(batch.reports) == len(names)
            with_diags = {r.filename for r in batch.reports
                          if r.diagnostics}
            assert with_diags == faulted
            for report in batch.reports:
                if report.filename in faulted:
                    # SLR died but STR still produced: degraded.
                    assert report.status == STATUS_DEGRADED
                    assert report.diagnostics[0].stage == "slr"
                    assert report.diagnostics[0].kind == "InjectedFault"
                else:
                    assert report.status == STATUS_OK
                    # Clean siblings transformed exactly as normal.
                    assert report.slr.transformed_count == 1
        assert outcome_shape(serial) == outcome_shape(pooled)

    def test_clean_files_match_fault_free_run(self, monkeypatch):
        baseline = apply_batch(chaos_program(8), jobs=1)
        by_name = {r.filename: r.final_text for r in baseline.reports}
        monkeypatch.setenv("REPRO_FAULTS", "str:exception:0.5")
        chaotic = apply_batch(chaos_program(8), jobs=1)
        clean = [r for r in chaotic.reports if not r.diagnostics]
        assert clean
        for report in clean:
            assert report.final_text == by_name[report.filename]

    def test_validate_fault_keeps_transform(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "validate:exception:1.0")
        batch = apply_batch(chaos_program(2), jobs=1, validate=True)
        for report in batch.reports:
            assert report.status == STATUS_DEGRADED
            assert report.validation is None
            assert report.slr is not None       # transform survived
            stages = {d.stage for d in report.diagnostics}
            assert stages == {"validate"}

    def test_preprocess_fault_ships_original_text(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "preprocess:exception:1.0")
        program = chaos_program(3)
        originals = dict(program.files)
        batch = apply_batch(program, jobs=1)
        assert len(batch.reports) == 3
        for report in batch.reports:
            assert report.status == STATUS_FAILED
            assert report.final_text == originals[report.filename]
            assert report.diagnostics[0].stage == "preprocess"


class TestWorkerFaults:
    def test_kill_detected_serial_and_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "str:kill:0.5")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "0")
        names = sorted(chaos_program(4).files)
        killed = set(faults.faulted_subjects("str", "kill", names))
        assert 0 < len(killed) < len(names)

        preprocessed = chaos_program(4).preprocess().files
        serial = apply_batch(chaos_program(4), jobs=1)
        pooled = apply_batch(chaos_program(4), jobs=4)
        assert outcome_shape(serial) == outcome_shape(pooled)
        for batch in (serial, pooled):
            for report in batch.reports:
                if report.filename in killed:
                    assert report.status == STATUS_FAILED
                    assert [(d.stage, d.kind)
                            for d in report.diagnostics] == \
                        [("worker", KIND_WORKER_DIED)]
                    # Never made worse: the (preprocessed) input ships
                    # verbatim — no half-applied rewrite.
                    assert report.final_text == \
                        preprocessed[report.filename]
                else:
                    assert report.status == STATUS_OK
        assert pooled.info.supervision["worker_deaths"] == len(killed)

    def test_dead_workers_respawn_for_remaining_work(self, monkeypatch):
        # The first two files, which the two workers take first, are both
        # killed, so no worker ever finishes a task before a death is
        # reaped: six files are still pending then, and only a new
        # worker can take them.  (With a surviving worker, a slow exit
        # could let it drain the batch first, and nothing would respawn.)
        monkeypatch.setenv("REPRO_FAULTS", "str:kill:0.5")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "0")
        pool = chaos_program(40).files
        candidates = sorted(pool)
        hit = set(faults.faulted_subjects("str", "kill", candidates))
        first = next(i for i in range(len(candidates) - 1)
                     if {candidates[i], candidates[i + 1]} <= hit)
        names = candidates[first:first + 8]
        program = SourceProgram("chaos-respawn",
                                {name: pool[name] for name in names})
        killed = set(faults.faulted_subjects("str", "kill", names))
        assert 0 < len(killed) < len(names)
        assert {names[0], names[1]} <= killed
        pooled = apply_batch(program, jobs=2)
        assert len(pooled.reports) == len(names)
        assert {r.filename for r in pooled.reports
                if r.status == STATUS_FAILED} == killed
        assert pooled.info.supervision["respawns"] >= 1

    def test_hang_killed_by_watchdog(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "slr:hang:0.4")
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "30")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0.5")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "0")
        names = sorted(chaos_program(8).files)
        hung = set(faults.faulted_subjects("slr", "hang", names))
        assert 0 < len(hung) < len(names)

        pooled = apply_batch(chaos_program(8), jobs=4)
        for report in pooled.reports:
            if report.filename in hung:
                assert report.status == STATUS_FAILED
                assert [(d.stage, d.kind)
                        for d in report.diagnostics] == \
                    [("worker", KIND_TIMEOUT)]
            else:
                assert report.status == STATUS_OK
        assert pooled.info.supervision["timeouts"] == len(hung)

        # Serial runs stall cooperatively but reach the same shape.
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "0.01")
        serial = apply_batch(chaos_program(8), jobs=1)
        assert [(r.filename, r.status,
                 sorted((d.stage, d.kind) for d in r.diagnostics))
                for r in serial.reports] == \
            [(r.filename, r.status,
              sorted((d.stage, d.kind) for d in r.diagnostics))
             for r in pooled.reports]

    def test_retry_recovers_from_transient_timeout(self, monkeypatch):
        # Watchdog generous enough that the retry (which hangs again,
        # briefly) completes: the file must come through clean.
        monkeypatch.setenv("REPRO_FAULTS", "slr:hang:1.0")
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "0.01")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "30")
        serial = apply_batch(chaos_program(2), jobs=1)
        # Cooperative hangs raise InjectedHang → timeout diagnostics.
        assert all(r.status == STATUS_FAILED for r in serial.reports)
        assert all(d.kind == KIND_TIMEOUT
                   for r in serial.reports for d in r.diagnostics)

    def test_result_arriving_after_watchdog_kill_settles_file(
            self, monkeypatch):
        # A 1 ms budget makes the watchdog act on workers whose result
        # may already be in the pipe.  The retry it schedules for such
        # a file must be dropped once the next drain settles the file,
        # not dispatched or failed after the file was emitted.
        expected = {r.filename: r.final_text
                    for r in apply_batch(chaos_program(40),
                                         jobs=1).reports}
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0.001")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "2")
        with alarm_after(120):
            pooled = apply_batch(chaos_program(40), jobs=2)
        assert [r.filename for r in pooled.reports] == sorted(expected)
        for report in pooled.reports:
            if report.status == STATUS_OK:
                assert report.final_text == expected[report.filename]
            else:
                assert report.status == STATUS_FAILED
                assert [(d.stage, d.kind)
                        for d in report.diagnostics] == \
                    [("worker", KIND_TIMEOUT)]

    @pytest.mark.parametrize("spec,timeout,kind,counter", [
        ("slr:hang:1.0", "0.3", KIND_TIMEOUT, "timeouts"),
        ("str:kill:1.0", None, KIND_WORKER_DIED, "worker_deaths"),
    ])
    def test_deadlines_wake_scheduler_when_no_result_comes(
            self, monkeypatch, spec, timeout, kind, counter):
        # No attempt ever returns a result: only the watchdog deadline,
        # a worker's exit and the retry deadline can wake the scheduler.
        monkeypatch.setenv("REPRO_FAULTS", spec)
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "30")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "1")
        if timeout is not None:
            monkeypatch.setenv("REPRO_TASK_TIMEOUT", timeout)
        with alarm_after(60):
            pooled = apply_batch(chaos_program(3), jobs=2)
        assert [(r.status, [(d.stage, d.kind) for d in r.diagnostics])
                for r in pooled.reports] == \
            [(STATUS_FAILED, [("worker", kind)])] * 3
        assert pooled.info.supervision[counter] == 6
        assert pooled.info.supervision["retries"] == 3


    def test_pool_batch_with_no_task_returns(self):
        """At jobs=2, a batch whose every file fails to preprocess hands
        the pool no task; the scheduler must return, not wait."""
        missing = '#include "missing.h"\nint main(void) { return 0; }\n'
        program = SourceProgram("no-tasks", {"a.c": missing,
                                             "b.c": missing})
        with alarm_after(60):
            pooled = apply_batch(program, jobs=2)
        assert [(r.filename, r.status, [d.stage for d in r.diagnostics])
                for r in pooled.reports] == \
            [("a.c", STATUS_FAILED, ["preprocess"]),
             ("b.c", STATUS_FAILED, ["preprocess"])]


class TestCorruptStoreFaults:
    def test_corrupt_entries_self_heal(self, monkeypatch, fresh_store):
        # Warm the store, then corrupt every read: results must be
        # byte-identical and diagnostic-free — corruption is a miss,
        # never an error or a wrong value.
        baseline = apply_batch(chaos_program(4), jobs=1)
        monkeypatch.setenv("REPRO_FAULTS", "store:corrupt:1.0")
        chaotic = apply_batch(chaos_program(4), jobs=1)
        assert not chaotic.diagnostics()
        assert [r.final_text for r in chaotic.reports] == \
            [r.final_text for r in baseline.reports]
        assert all(r.status == STATUS_OK for r in chaotic.reports)


class TestDedupUnderFaults:
    def test_identical_content_not_shared_when_faults_armed(
            self, monkeypatch):
        # Faults fire per file name: two files with identical bytes must
        # not share one report while injection is armed.
        text = ("#include <string.h>\n"
                "void f(void) { char b[8]; strcpy(b, \"x\"); }\n")
        program = SourceProgram("twins", {"a.c": text, "b.c": text})
        monkeypatch.setenv("REPRO_FAULTS", "slr:exception:0.5")
        faulted = set(faults.faulted_subjects("slr", "exception",
                                              ["a.c", "b.c"]))
        batch = apply_batch(program, jobs=1)
        assert {r.filename for r in batch.reports
                if r.diagnostics} == faulted
        assert all(d.filename == r.filename for r in batch.reports
                   for d in r.diagnostics)
