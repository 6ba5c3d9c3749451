"""Whole-report replay from the artifact store's ``report`` family.

A clean report (status ``ok``, no diagnostics) is stored under its
task's work key by :func:`~repro.core.batch.transform_file`; a later
batch whose task has the same key emits it without dispatching, and
journals it like a computed report.  Everything else recomputes:
reports that are not clean, runs under fault rules, runs with the disk
layer off; the last two write no report either.  The stream tries its sources in a fixed order: resume
replay, quarantine, store replay, dispatch.
"""

import pytest

from repro.cfront.cache import clear_all_caches
from repro.core import backends
from repro.core import batch as batch_module
from repro.core.batch import FileTask, SourceProgram, apply_batch
from repro.core.diagnostics import KIND_WORKER_DIED, FileDiagnostic
from repro.core.runlog import EVENT_DISPATCHED, RunJournal, \
    quarantine_record
from repro.core.session import reset_session

TEMPLATE = """\
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


def program(count=4, tag="replay"):
    return SourceProgram(tag, {f"f{i}.c": TEMPLATE.format(tag=f"{tag}{i}")
                               for i in range(count)})


def shape(report):
    """A report's fields, the times it was recorded with included."""
    return (report.filename, report.final_text, report.parses,
            report.status, report.wall_time, report.stage_times,
            [d.as_dict() for d in report.diagnostics],
            report.validation.as_dict() if report.validation else None)


def new_process():
    """Empty the memory caches, as a new process would find them."""
    clear_all_caches()
    reset_session()


@pytest.fixture
def computed(monkeypatch):
    """The files :func:`transform_file` computes in this process."""
    names = []
    real = batch_module.transform_file

    def spy(task, session=None):
        names.append(task.filename)
        return real(task, session)

    monkeypatch.setattr(batch_module, "transform_file", spy)
    return names


def journal(tmp_path, run_id):
    return RunJournal(run_id, root=str(tmp_path / "runs"))


class TestWarmReplay:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_warm_journaled_batch_forks_no_worker(self, fresh_store,
                                                  tmp_path, computed,
                                                  jobs):
        cold = apply_batch(program(), jobs=1, validate=True,
                           journal=journal(tmp_path, "cold"))
        assert computed == ["f0.c", "f1.c", "f2.c", "f3.c"]
        assert cold.info.from_store == 0
        new_process()
        computed.clear()
        warm = apply_batch(program(), jobs=jobs, validate=True,
                           journal=journal(tmp_path, "warm"))
        assert computed == []
        assert warm.info.workers == 0
        assert (warm.info.from_store, warm.info.replayed) == (4, 0)
        # Recorded times stay, the task's preprocess time among them.
        assert [shape(r) for r in warm.reports] \
            == [shape(r) for r in cold.reports]
        assert all(r.stage_times["preprocess"] > 0 for r in warm.reports)
        # One record per file, no dispatched event.
        reopened = journal(tmp_path, "warm")
        reopened.load()
        assert sorted(reopened.completed) == sorted(program().files)
        assert not [e for e in reopened.events()
                    if e["event"] == EVENT_DISPATCHED]
        assert [shape(reopened.replay(r.filename,
                                      reopened.completed[r.filename][1]))
                for r in warm.reports] == [shape(r) for r in warm.reports]

    def test_resume_replay_comes_before_the_store(self, fresh_store,
                                                  tmp_path):
        apply_batch(program(), jobs=1, journal=journal(tmp_path, "done"))
        resumed = journal(tmp_path, "done")
        resumed.load()
        result = apply_batch(program(), jobs=1, journal=resumed)
        assert (result.info.replayed, result.info.from_store) == (4, 0)

    def test_quarantine_comes_before_the_store(self, fresh_store,
                                               tmp_path):
        clean = apply_batch(program(2), jobs=1)
        assert [r.status for r in clean.reports] == ["ok", "ok"]
        poisoned = FileTask("f0.c", program(2).files["f0.c"])
        quarantine_record(poisoned, FileDiagnostic(
            "f0.c", "worker", KIND_WORKER_DIED, "died"), "earlier")
        result = apply_batch(program(2), jobs=1,
                             journal=journal(tmp_path, "after"))
        assert [r.status for r in result.reports] == ["quarantined", "ok"]
        assert (result.info.quarantined, result.info.from_store) == (1, 1)


class TestWhatIsNotReplayed:
    @pytest.mark.parametrize("failing,status", [
        (("str",), "degraded"),
        (("slr", "str"), "failed")])
    def test_unclean_report_is_recomputed(self, fresh_store, monkeypatch,
                                          computed, failing, status):
        real = backends.cached_backend_run

        def crash(backend, *args, **kwargs):
            if backend.id in failing:
                raise RuntimeError("stage bug")
            return real(backend, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(backends, "cached_backend_run", crash)
            broken = apply_batch(program(2), jobs=1, validate=True)
        assert [r.status for r in broken.reports] == [status] * 2
        new_process()
        computed.clear()
        clean = apply_batch(program(2), jobs=1, validate=True)
        assert computed == ["f0.c", "f1.c"]
        assert clean.info.from_store == 0
        assert [r.status for r in clean.reports] == ["ok", "ok"]

    def test_fault_rules_neither_read_nor_write_reports(
            self, fresh_store, monkeypatch, computed):
        # The rule fires on f0.c alone; the other three files must run
        # every stage too.
        monkeypatch.setenv("REPRO_FAULTS", "str:exception:0.5")
        chaos = apply_batch(program(), jobs=1, validate=True)
        assert [r.status for r in chaos.reports] \
            == ["degraded", "ok", "ok", "ok"]
        assert "report" not in fresh_store.usage()
        monkeypatch.delenv("REPRO_FAULTS")
        clean = apply_batch(program(), jobs=1, validate=True)
        assert clean.info.from_store == 0
        assert fresh_store.usage()["report"]["entries"] == 4
        new_process()
        computed.clear()
        monkeypatch.setenv("REPRO_FAULTS", "str:exception:0.5")
        again = apply_batch(program(), jobs=1, validate=True)
        assert computed == sorted(program().files)
        assert again.info.from_store == 0
        assert [shape(r)[:4] for r in again.reports] \
            == [shape(r)[:4] for r in chaos.reports]
        assert [shape(r)[:4] for r in again.reports[1:]] \
            == [shape(r)[:4] for r in clean.reports[1:]]

    @pytest.mark.parametrize("knob", ["REPRO_DISK_CACHE", "REPRO_CACHE"])
    def test_disk_layer_off_reads_and_writes_no_report(
            self, fresh_store, monkeypatch, computed, knob):
        apply_batch(program(), jobs=1)
        stored = fresh_store.usage()["report"]
        new_process()
        computed.clear()
        monkeypatch.setenv(knob, "0")
        off = apply_batch(program(), jobs=1)
        assert computed == sorted(program().files)
        assert off.info.from_store == 0
        apply_batch(program(4, tag="unseen"), jobs=1)
        assert fresh_store.usage()["report"] == stored
