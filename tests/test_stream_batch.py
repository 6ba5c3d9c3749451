"""Tests for the streaming work-queue scheduler (PR 9).

The streaming batch must be byte-identical to the collecting batch at
any worker count, emit in filename order, and keep the parent's working
set bounded by the stream window instead of the batch size, a resume
included.
"""

import gc
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

from repro.core.batch import (
    _SLR_CACHE, FileTask, ProcessPoolExecutor, SerialExecutor,
    SourceProgram, apply_batch, stream_batch, stream_window,
    transform_file,
)
from repro.core.report import render_diagnostics
from repro.core.runlog import RunJournal
from repro.core.session import AnalysisSession

SYNTAX_ERROR = (Path(__file__).resolve().parents[1] / "examples" / "c"
                / "bad" / "syntax_error.c").read_text()

BROKEN_TMPL = """\
#include <stdio.h>
#include <string.h>
int main(void) {{
    char buf[8];
    char line[64];
    if (fgets(line, 64, stdin)) {{
        strcpy(buf, line);
        printf("{tag}:%s", buf);
    }}
    return 0;
}}
"""


def distinct_program(count, name="stream"):
    return SourceProgram(name, {
        f"f{i:04d}.c": BROKEN_TMPL.format(tag=f"{name}-{i}")
        for i in range(count)})


def report_shape(report):
    """Everything observable about a report except wall-clock noise."""
    return (report.filename, report.final_text, report.parses,
            report.status,
            tuple(sorted((d.stage, d.kind, d.message)
                         for d in report.diagnostics)),
            None if report.validation is None
            else tuple(sorted(report.validation.counts().items())))


class TestStreamEquivalence:
    def test_stream_matches_apply_batch(self, fresh_store):
        program = distinct_program(6)
        collected = apply_batch(distinct_program(6), jobs=1,
                                validate=False)
        streamed = list(stream_batch(program, jobs=1, validate=False))
        assert [report_shape(r) for r in streamed] \
            == [report_shape(r) for r in collected.reports]

    def test_jobs_1_vs_4_byte_identical(self, fresh_store):
        serial = [report_shape(r) for r in
                  stream_batch(distinct_program(8), jobs=1,
                               validate=True)]
        pooled = [report_shape(r) for r in
                  stream_batch(distinct_program(8), jobs=4,
                               validate=True)]
        assert serial == pooled

    def test_emission_is_filename_ordered(self, fresh_store):
        names = [r.filename for r in
                 stream_batch(distinct_program(9), jobs=4,
                              validate=False)]
        assert names == sorted(names)

    def test_apply_batch_unchanged_with_duplicates(self, fresh_store):
        """A duplicate file is computed under its own name; the SLR
        cache serves its text, so it costs no second build."""
        src = BROKEN_TMPL.format(tag="dup")
        program = SourceProgram("dup", {"a.c": src, "b.c": src})
        before = _SLR_CACHE.stats.hits, _SLR_CACHE.stats.misses
        result = apply_batch(program, jobs=1, validate=False)
        assert (_SLR_CACHE.stats.hits - before[0],
                _SLR_CACHE.stats.misses - before[1]) == (1, 1)
        assert result.reports[0].final_text \
            == result.reports[1].final_text
        assert [r.filename for r in result.reports] == ["a.c", "b.c"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicate_failures_name_their_own_file(self, fresh_store,
                                                    jobs):
        """Two copies of a text that does not parse: each report's
        diagnostics name its own file, and the diagnostics table lists
        both files."""
        program = SourceProgram("twins", {"a.c": SYNTAX_ERROR,
                                          "b.c": SYNTAX_ERROR})
        result = apply_batch(program, jobs=jobs, validate=False)
        for report in result.reports:
            assert report.diagnostics
            for diag in report.diagnostics:
                assert diag.filename == report.filename
                assert diag.message.startswith(f"{report.filename}:")
        rows = render_diagnostics(result).splitlines()[2:4]
        assert [row.split()[0] for row in rows] == ["a.c", "b.c"]


class TestStreamLaziness:
    def test_first_report_before_batch_is_preprocessed(self,
                                                       fresh_store):
        """Pulling one report must not force the whole batch through
        preprocessing — the incremental pre-warm only runs as far as
        the dispatch window — and the report carries the parent's
        preprocess time."""
        session = AnalysisSession()
        preprocessed = []
        preprocess = session.preprocess

        def spy(text, filename, *args):
            preprocessed.append(filename)
            return preprocess(text, filename, *args)

        session.preprocess = spy
        stream = stream_batch(distinct_program(40), jobs=1,
                              validate=False, session=session)
        first = next(iter(stream))
        assert first.filename == "f0000.c"
        assert preprocessed == ["f0000.c"]
        assert first.stage_times["preprocess"] > 0.0

    def test_memory_bounded_thousand_file_batch(self, fresh_store):
        """A 1k-file batch must not retain all reports in the parent:
        emitted reports the consumer drops become garbage, and the
        buffered backlog stays within the window bounds."""
        unique = 8
        program = SourceProgram("big", {
            f"f{i:04d}.c": BROKEN_TMPL.format(tag=f"u{i % unique}")
            for i in range(1000)})
        builds = _SLR_CACHE.stats.misses
        stream = stream_batch(program, jobs=1, validate=False)
        alive = []
        peak_alive = 0
        count = 0
        for report in stream:
            alive.append(weakref.ref(report))
            count += 1
            del report
            if count % 100 == 0:
                gc.collect()
                live = sum(1 for ref in alive if ref() is not None)
                peak_alive = max(peak_alive, live)
        assert count == 1000
        gc.collect()
        assert peak_alive < 300          # never anywhere near O(batch)
        # The content caches serve the repeats: one build per text.
        assert _SLR_CACHE.stats.misses - builds == unique
        assert stream.executor.max_inflight == 1    # one file at a time

    @staticmethod
    def _finished_run(root, count):
        program = distinct_program(count, name=f"resume{count}")
        journal = RunJournal(f"run-{count}", root=root)
        journal.begin(program, {})
        apply_batch(program, jobs=1, validate=False, journal=journal)
        resumed = RunJournal(f"run-{count}", root=root)
        resumed.load()
        return program, resumed

    def test_resume_is_bounded_by_the_window(self, fresh_store,
                                             tmp_path):
        """Resuming a finished run replays every file through the
        executor's window: the parent's peak memory does not grow with
        the batch, and the pool holds at most a window of reports."""
        root = str(tmp_path / "runs")
        runs = {count: self._finished_run(root, count)
                for count in (100, 400)}

        def resume(count):
            program, journal = runs[count]
            return sum(1 for _report in stream_batch(
                program, jobs=1, validate=False, journal=journal))

        def peak(count):
            gc.collect()
            tracemalloc.start()
            try:
                assert resume(count) == count
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # A replay journals nothing, so a run can resume again and
        # again: one pass of each warms the interpreter's free lists,
        # and the least of three peaks drops the collector's timing.
        for count in runs:
            assert resume(count) == count
        peaks = {count: min(peak(count) for _ in range(3))
                 for count in runs}
        assert peaks[400] <= 1.2 * peaks[100], peaks

        program, journal = self._finished_run(root, 40)
        stream = stream_batch(program, jobs=2, validate=False,
                              journal=journal)
        assert len(list(stream)) == 40
        assert stream.info.replayed == 40
        assert 0 < stream.executor.max_inflight <= stream_window(2)


class TestStreamSupervisionAndKnobs:
    def test_window_defaults(self, fresh_store):
        assert stream_window(1) == 16
        assert stream_window(4) == 16
        assert stream_window(8) == 32
        # The pool's dispatch-ahead bound defaults to the stream window.
        pool = ProcessPoolExecutor(2)
        tasks = [FileTask(f"w{i}.c", "int w%d;\n" % i, validate=False)
                 for i in range(24)]
        assert len(list(pool.imap(iter(tasks)))) == 24
        assert pool.max_inflight == stream_window(2)

    def test_executor_imap_streams_in_order(self, fresh_store):
        tasks = [FileTask(f"t{i}.c",
                          BROKEN_TMPL.format(tag=f"imap-{i}"),
                          validate=False)
                 for i in range(6)]
        pool = ProcessPoolExecutor(3)
        indexed = list(pool.imap(iter(tasks), window=4))
        assert [i for i, _ in indexed] == list(range(6))
        assert [r.filename for _, r in indexed] \
            == [t.filename for t in tasks]
        assert pool.max_inflight <= 4

    def test_pool_parent_never_sleeps(self, fresh_store, monkeypatch):
        """The scheduler waits on results, worker exits and deadlines;
        it never sleeps on a timer.  Forked workers inherit the spy but
        record into their own copies, so only the parent's calls count."""
        calls = []
        monkeypatch.setattr(time, "sleep", calls.append)
        result = apply_batch(distinct_program(8), jobs=2, validate=False)
        assert [r.status for r in result.reports] == ["ok"] * 8
        assert calls == []

    def test_overlapping_pools_shut_down_promptly(self, fresh_store):
        """Workers forked for a second pool must not hold the first
        pool's lifeline open: its idle workers leave when it closes,
        instead of waiting out the 2 s join timeout and a kill."""
        def tasks(tag):
            return iter([FileTask(f"{tag}{i}.c",
                                  BROKEN_TMPL.format(tag=f"{tag}-{i}"),
                                  validate=False)
                         for i in range(3)])
        first = ProcessPoolExecutor(2).imap(tasks("first"))
        second = ProcessPoolExecutor(2).imap(tasks("second"))
        next(first)
        next(second)
        started = time.monotonic()
        assert len(list(first)) == 2
        assert time.monotonic() - started < 2.0
        assert len(list(second)) == 2

    def test_serial_imap_matches_map(self, fresh_store):
        tasks = [FileTask(f"t{i}.c",
                          BROKEN_TMPL.format(tag=f"ser-{i}"),
                          validate=False)
                 for i in range(3)]
        direct = [transform_file(task) for task in tasks]
        via_imap = [r for _, r in SerialExecutor().imap(iter(tasks))]
        assert [report_shape(r) for r in direct] \
            == [report_shape(r) for r in via_imap]

    def test_stream_survives_worker_death(self, fresh_store,
                                          monkeypatch):
        """The streaming path inherits the supervised pool: an injected
        worker kill still yields a failed report in order."""
        monkeypatch.setenv("REPRO_FAULTS", "str:kill:0.5")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "0")
        from repro.core import faults
        program = distinct_program(6, name="chaos")
        names = sorted(program.files)
        pp = {name: text for name, text in
              program.preprocess().files.items()}
        killed = set(faults.faulted_subjects("str", "kill", names))
        assert killed
        reports = list(stream_batch(distinct_program(6, name="chaos"),
                                    jobs=3, validate=False))
        assert [r.filename for r in reports] == names
        for report in reports:
            if report.filename in killed:
                assert report.status == "failed"
                assert report.final_text == pp[report.filename]
            else:
                assert report.status == "ok"
