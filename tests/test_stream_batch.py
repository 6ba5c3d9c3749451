"""Tests for the streaming work-queue scheduler (PR 9).

The streaming batch must be byte-identical to the collecting batch at
any worker count, emit in filename order, and keep the parent's working
set bounded by the stream/dedup windows instead of the batch size.
"""

import gc
import weakref

import pytest

from repro.core.batch import (
    DEDUP_WINDOW, BatchStream, ProcessPoolExecutor, SerialExecutor,
    SourceProgram, apply_batch, stream_batch, stream_window, transform_file,
)

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
        src = BROKEN_TMPL.format(tag="dup")
        program = SourceProgram("dup", {"a.c": src, "b.c": src})
        result = apply_batch(program, jobs=1, validate=False)
        assert result.stats.deduplicated == 1
        assert result.reports[0].final_text \
            == result.reports[1].final_text
        assert [r.filename for r in result.reports] == ["a.c", "b.c"]


class TestStreamLaziness:
    def test_first_report_before_batch_is_preprocessed(self,
                                                       fresh_store):
        """Pulling one report must not force the whole batch through
        preprocessing — the incremental pre-warm only runs as far as
        the dispatch window."""
        stream = stream_batch(distinct_program(40), jobs=1,
                              validate=False, window=2)
        first = next(iter(stream))
        assert first.filename == "f0000.c"
        assert len(stream.info.pp_timings) < 40

    def test_memory_bounded_thousand_file_batch(self, fresh_store):
        """A 1k-file batch must not retain all reports in the parent:
        emitted reports the consumer drops become garbage, and the
        buffered backlog stays within the window bounds."""
        unique = 8
        program = SourceProgram("big", {
            f"f{i:04d}.c": BROKEN_TMPL.format(tag=f"u{i % unique}")
            for i in range(1000)})
        stream = stream_batch(program, jobs=1, validate=False,
                              window=16, dedup_cap=32)
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
        assert stream.info.deduplicated == 1000 - unique
        assert stream.info.max_buffered <= 16   # bounded by the window

    def test_dedup_cap_trims_but_stays_correct(self, fresh_store):
        """With a tiny dedup window, later duplicates recompute instead
        of cloning — outputs identical, only the dedup count drops."""
        src_a = BROKEN_TMPL.format(tag="cap-a")
        src_b = BROKEN_TMPL.format(tag="cap-b")
        files = {}
        for i in range(6):
            files[f"f{i:02d}.c"] = src_a if i % 2 == 0 else src_b
        capped = list(stream_batch(SourceProgram("cap", dict(files)),
                                   jobs=1, validate=False, dedup_cap=1))
        uncapped = list(stream_batch(SourceProgram("cap", dict(files)),
                                     jobs=1, validate=False,
                                     dedup_cap=0))
        assert [report_shape(r) for r in capped] \
            == [report_shape(r) for r in uncapped]


class TestStreamSupervisionAndKnobs:
    def test_window_defaults(self):
        assert stream_window(1) == 16
        assert stream_window(4) == 16
        assert stream_window(8) == 32
        assert DEDUP_WINDOW == 4096
        stream = stream_batch(distinct_program(2), jobs=8)
        assert (stream.window, stream.dedup_cap) == (32, DEDUP_WINDOW)

    def test_executor_imap_streams_in_order(self, fresh_store):
        from repro.core.batch import FileTask
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

    def test_serial_imap_matches_map(self, fresh_store):
        from repro.core.batch import FileTask
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

    def test_site_arbitration_requires_backends_eagerly(self):
        with pytest.raises(ValueError, match="site arbitration"):
            BatchStream(distinct_program(2), arbitration="site")
