"""Crash-safe run journal, resume, quarantine, and audit trail (PR 10).

Covers: the write-ahead journal round trip (manifest, events, result
pointers, audit records), ``--resume`` replay semantics (including
parent-kill crashes at the journal's worst-ordered write point, proven
byte-identical against an uninterrupted run at jobs 1 and 4, warm and
cold store), poison-file quarantine (skip without spending the retry
budget, re-entry on content change), disk-full
degradation, run GC, the ``repro runs`` CLI, and the supervised pool's
exponential retry backoff.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.core.batch import (
    RETRY_BACKOFF_BASE_S, RETRY_BACKOFF_CAP_S, FileTask, SourceProgram,
    _task_work_key, apply_batch, retry_backoff,
)
from repro.core.diagnostics import (
    KIND_WORKER_DIED, STATUS_FAILED, STATUS_QUARANTINED,
)
from repro.core.faults import KILL_EXIT_CODE, FaultRule, should_fire
from repro.core.runlog import (
    EVENT_COMPLETED, EVENT_DISPATCHED, EVENT_QUARANTINED, RunJournal,
    RunNotFound, gc_runs, latest_run_id, list_runs, quarantine_key,
    quarantine_lookup,
)

from .test_fault_injection import alarm_after

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")
SYNTAX_ERROR = (Path(REPO_SRC).parent / "examples" / "c" / "bad"
                / "syntax_error.c").read_text()


def make_files(count: int, tag: str = "") -> dict[str, str]:
    """``count`` distinct single-overflow C files (distinct content, so
    no two deduplicate into one work key)."""
    files = {}
    for i in range(count):
        files[f"file{i:02d}.c"] = (
            "#include <stdio.h>\n#include <string.h>\n"
            f"void f{i}(const char *s) {{\n"
            f"    char buf[{8 + i}];\n"
            "    strcpy(buf, s);\n"
            f'    printf("{i}{tag} %s\\n", buf);\n'
            "}\n")
    return files


def make_program(count: int = 3, tag: str = "") -> SourceProgram:
    return SourceProgram(f"runlog-prog{tag}", make_files(count, tag))


def report_essence(result):
    """Everything that must be byte-identical across a resume (wall
    times legitimately differ)."""
    return {r.filename: (r.status, r.final_text, r.parses,
                         [(d.stage, d.kind) for d in r.diagnostics])
            for r in result.reports}


# ------------------------------------------------------------ round trip


class TestJournalRoundTrip:
    def test_journaled_batch_writes_run_dir(self, fresh_store, tmp_path):
        # An empty store: every file is dispatched, none replayed.
        program = make_program(3)
        journal = RunJournal("run-a", root=str(tmp_path / "runs"))
        journal.begin(program, {"validate": False})
        result = apply_batch(program, jobs=1, validate=False,
                             journal=journal)
        assert all(r.status == "ok" for r in result.reports)

        manifest = json.loads(Path(journal.manifest_path).read_text())
        assert manifest["run_id"] == "run-a"
        assert sorted(manifest["files"]) == sorted(program.files)
        assert manifest["settings"] == {"validate": False}

        events = journal.events()
        dispatched = [e["file"] for e in events
                      if e["event"] == EVENT_DISPATCHED]
        completed = [e["file"] for e in events
                     if e["event"] == EVENT_COMPLETED]
        assert sorted(dispatched) == sorted(program.files)
        assert sorted(completed) == sorted(program.files)
        # WAL ordering: every completion's dispatch precedes it.
        for name in program.files:
            assert events.index(
                next(e for e in events if e["event"] == EVENT_DISPATCHED
                     and e["file"] == name)) < events.index(
                next(e for e in events if e["event"] == EVENT_COMPLETED
                     and e["file"] == name))

        # Result pointers and audit records exist for every file.
        assert len(os.listdir(journal.results_dir)) == 3
        for name in program.files:
            audit = journal.read_audit(name)
            assert audit["status"] == "ok"
            assert audit["diff"]            # strcpy fix → non-empty diff
            assert audit["parses"] is True

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_completed_run_replays_everything(self, tmp_path, jobs):
        program = make_program(3)
        root = str(tmp_path / "runs")
        first = RunJournal("run-a", root=root)
        first.begin(program, {"validate": False})
        clean = apply_batch(program, jobs=1, validate=False, journal=first)
        events_before = len(first.events())

        resumed = RunJournal("run-a", root=root)
        resumed.load()
        assert resumed.resumed
        # Every file replays, so no task reaches the pool at jobs=2.
        with alarm_after(60):
            replay = apply_batch(program, jobs=jobs, validate=False,
                                 journal=resumed)
        assert replay.info.replayed == 3
        assert report_essence(replay) == report_essence(clean)
        # Replayed files are not re-journaled: the WAL does not grow.
        assert len(resumed.events()) == events_before

    def test_run_directory_holds_one_record_per_file(self, tmp_path):
        """A journaled ``repro batch --validate`` leaves the manifest,
        the journal and one result record per file — no audit files —
        and never imports ``difflib``: audits are built when read."""
        src = tmp_path / "src"
        src.mkdir()
        for name, text in make_files(3, tag="-records").items():
            (src / name).write_text(text)
        script = (
            "import sys\n"
            f"sys.path.insert(0, {REPO_SRC!r})\n"
            "from repro.cli import main\n"
            f"code = main(['batch', {str(src)!r}, '--validate', '-j', '1',"
            " '--run-id', 'records'])\n"
            "assert code == 0, code\n"
            "print('difflib' in sys.modules)\n")
        env = {**os.environ, "REPRO_CACHE_DIR": str(tmp_path / "cache"),
               "REPRO_RUN_DIR": str(tmp_path / "runs")}
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        run_dir = tmp_path / "runs" / "records"
        stored = sorted(str(path.relative_to(run_dir))
                        for path in run_dir.rglob("*") if path.is_file())
        assert stored[:2] == ["journal.jsonl", "manifest.json"]
        assert len(stored) == 5
        assert all(name.startswith("results" + os.sep)
                   and name.endswith(".pkl") for name in stored[2:])

        journal = RunJournal("records", root=str(tmp_path / "runs"))
        journal.load()
        for name in sorted(make_files(3)):
            audit = journal.read_audit(name)
            assert audit["status"] == "ok"
            assert audit["diff"].startswith(f"--- {name}\n+++ {name}.fixed")
            assert sum(audit["verdicts"].values()) > 0

    def test_resume_unknown_run_raises(self, tmp_path):
        journal = RunJournal("nope", root=str(tmp_path / "runs"))
        with pytest.raises(RunNotFound):
            journal.load()

    def test_torn_final_line_tolerated(self, tmp_path):
        program = make_program(2)
        root = str(tmp_path / "runs")
        journal = RunJournal("run-torn", root=root)
        journal.begin(program, {})
        apply_batch(program, jobs=1, validate=False, journal=journal)
        with open(journal.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "comple')       # crash cut a write short
        reopened = RunJournal("run-torn", root=root)
        reopened.load()
        assert sorted(reopened.completed) == sorted(program.files)
        assert all(kind == EVENT_COMPLETED
                   for kind, _key in reopened.completed.values())

    def test_content_change_recomputes_only_edited_file(self, tmp_path):
        program = make_program(3)
        root = str(tmp_path / "runs")
        journal = RunJournal("run-a", root=root)
        journal.begin(program, {})
        apply_batch(program, jobs=1, validate=False, journal=journal)

        edited_files = dict(program.files)
        edited_files["file01.c"] = edited_files["file01.c"].replace(
            '"1 %s\\n"', '"one %s\\n"')
        edited = SourceProgram(program.name, edited_files)
        resumed = RunJournal("run-a", root=root)
        resumed.load()
        replay = apply_batch(edited, jobs=1, validate=False,
                             journal=resumed)
        assert replay.info.replayed == 2       # the edit missed its key
        assert '"one %s\\n"' in next(
            r.final_text for r in replay.reports
            if r.filename == "file01.c")


# --------------------------------------------------------- crash resume


DRIVER = """\
import json, os, sys
sys.path.insert(0, {src!r})
os.environ["REPRO_CACHE_DIR"] = {cache!r}
if {faults!r}:
    os.environ["REPRO_FAULTS"] = {faults!r}
from repro.core.batch import SourceProgram, apply_batch
from repro.core.runlog import RunJournal
program = SourceProgram("crash-prog", json.loads({files_json!r}))
journal = RunJournal({run_id!r}, root={runroot!r})
if {resume!r}:
    journal.load()
journal.begin(program, {{"validate": False}})
result = apply_batch(program, jobs={jobs}, validate=False,
                     backends={backends!r}, journal=journal)
record = {{"replayed": result.info.replayed,
           "reports": {{r.filename: [r.status, r.final_text, r.parses,
                                     [[d.stage, d.kind]
                                      for d in r.diagnostics]]
                        for r in result.reports}}}}
with open({out!r}, "w") as fh:
    json.dump(record, fh)
"""


def run_driver(tmp_path, name, files, *, jobs, cache, runroot,
               run_id=None, resume=False, faults=None, backends=None):
    out = str(tmp_path / f"{name}.json")
    script = DRIVER.format(src=REPO_SRC, cache=cache, faults=faults,
                           files_json=json.dumps(files), run_id=run_id,
                           runroot=runroot, resume=resume, jobs=jobs,
                           backends=backends, out=out)
    env = {**os.environ}
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    return proc, out


def pick_kill_rate(names, stage):
    """A deterministic fault rate whose first firing file is not the
    batch's first file (so a crashed run has completions to replay)."""
    ordered = sorted(names)
    for rate in (0.15, 0.3, 0.5, 0.7, 0.9):
        rule = FaultRule(stage, "parent-kill", rate)
        fired = [n for n in ordered if should_fire(rule, n)]
        if fired and ordered.index(fired[0]) > 0:
            return rate, fired
    return 1.0, ordered


class TestCrashResume:
    COUNT = 6

    @pytest.mark.parametrize("jobs,warm", [(1, True), (4, False)])
    def test_parent_kill_then_resume_is_byte_identical(
            self, tmp_path, jobs, warm):
        """A run killed mid-journal-append resumes byte-identically —
        at jobs 1 (warm store) and jobs 4 (cold store)."""
        files = make_files(self.COUNT, tag=f"-j{jobs}")
        rate, fired = pick_kill_rate(files, "journal")
        runroot = str(tmp_path / "runs")
        crash_cache = str(tmp_path / "cache-crash")

        clean_proc, clean_out = run_driver(
            tmp_path, "clean", files, jobs=jobs,
            cache=str(tmp_path / "cache-clean"),
            runroot=str(tmp_path / "runs-clean"))
        assert clean_proc.returncode == 0, clean_proc.stderr

        crash_proc, _ = run_driver(
            tmp_path, "crash", files, jobs=jobs, cache=crash_cache,
            runroot=runroot, run_id="crash-run",
            faults=f"journal:parent-kill:{rate}")
        assert crash_proc.returncode == KILL_EXIT_CODE, crash_proc.stderr

        # What the WAL actually captured before the kill: the resumed
        # run must replay exactly these and recompute the rest.
        crashed = RunJournal("crash-run", root=runroot)
        crashed.load()
        journaled = len(crashed.completed)
        # The journal-stage kill fires *between* the result publish and
        # the WAL append of the first fired file, so that file is never
        # journaled — completions stop strictly before it.
        assert journaled == sorted(files).index(fired[0])

        resume_cache = crash_cache if warm \
            else str(tmp_path / "cache-cold")
        resume_proc, resume_out = run_driver(
            tmp_path, "resume", files, jobs=jobs, cache=resume_cache,
            runroot=runroot, run_id="crash-run", resume=True)
        assert resume_proc.returncode == 0, resume_proc.stderr

        clean = json.load(open(clean_out))
        resumed = json.load(open(resume_out))
        assert resumed["replayed"] == journaled
        assert resumed["reports"] == clean["reports"]
        assert all(status == "ok"
                   for status, *_ in resumed["reports"].values())

    def test_dispatch_kill_then_resume_is_byte_identical(self, tmp_path):
        """Same recovery when the parent dies at the dispatch record —
        a different crash point in the file lifecycle."""
        files = make_files(self.COUNT, tag="-dispatch")
        rate, _fired = pick_kill_rate(files, "dispatch")
        runroot = str(tmp_path / "runs")
        cache = str(tmp_path / "cache")

        clean_proc, clean_out = run_driver(
            tmp_path, "clean", files, jobs=1,
            cache=str(tmp_path / "cache-clean"),
            runroot=str(tmp_path / "runs-clean"))
        assert clean_proc.returncode == 0, clean_proc.stderr

        crash_proc, _ = run_driver(
            tmp_path, "crash", files, jobs=1, cache=cache,
            runroot=runroot, run_id="crash-run",
            faults=f"dispatch:parent-kill:{rate}")
        assert crash_proc.returncode == KILL_EXIT_CODE, crash_proc.stderr

        crashed = RunJournal("crash-run", root=runroot)
        crashed.load()
        journaled = len(crashed.completed)

        resume_proc, resume_out = run_driver(
            tmp_path, "resume", files, jobs=1, cache=cache,
            runroot=runroot, run_id="crash-run", resume=True)
        assert resume_proc.returncode == 0, resume_proc.stderr
        clean = json.load(open(clean_out))
        resumed = json.load(open(resume_out))
        assert resumed["replayed"] == journaled
        assert resumed["reports"] == clean["reports"]

    def test_faulted_arbitration_resume_is_byte_identical(self, tmp_path):
        """An arbitrated run whose first backend fails on every file
        resumes byte-identically: the resumed run tries that backend on
        every file it recomputes, exactly as the uninterrupted run did."""
        files = make_files(16, tag="-arb")
        rate, _fired = pick_kill_rate(files, "journal")
        runroot = str(tmp_path / "runs")
        cache = str(tmp_path / "cache")
        s3lib_fails = "s3lib:exception:1.0"
        arbitrated = dict(jobs=1, backends="s3lib,slr,str")

        clean_proc, clean_out = run_driver(
            tmp_path, "clean", files, cache=str(tmp_path / "cache-clean"),
            runroot=str(tmp_path / "runs-clean"), faults=s3lib_fails,
            **arbitrated)
        assert clean_proc.returncode == 0, clean_proc.stderr

        crash_proc, _ = run_driver(
            tmp_path, "crash", files, cache=cache, runroot=runroot,
            run_id="crash-run",
            faults=f"{s3lib_fails},journal:parent-kill:{rate}",
            **arbitrated)
        assert crash_proc.returncode == KILL_EXIT_CODE, crash_proc.stderr

        crashed = RunJournal("crash-run", root=runroot)
        crashed.load()
        journaled = len(crashed.completed)

        resume_proc, resume_out = run_driver(
            tmp_path, "resume", files, cache=cache, runroot=runroot,
            run_id="crash-run", resume=True, faults=s3lib_fails,
            **arbitrated)
        assert resume_proc.returncode == 0, resume_proc.stderr
        clean = json.load(open(clean_out))
        resumed = json.load(open(resume_out))
        assert resumed["replayed"] == journaled
        assert resumed["reports"] == clean["reports"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="needs /proc to list a session's processes")
    def test_workers_exit_when_scheduler_dies(self, tmp_path):
        """A scheduler killed without cleanup leaves no pool workers
        behind: they wait on a pipe only the scheduler holds open, so
        its exit wakes them."""
        src = tmp_path / "src"
        src.mkdir()
        for name, text in make_files(30, tag="-orphan").items():
            (src / name).write_text(text)
        env = {**os.environ, "PYTHONPATH": REPO_SRC,
               "REPRO_FAULTS": "journal:parent-kill:0.2",
               "REPRO_CACHE_DIR": str(tmp_path / "cache"),
               "REPRO_RUN_DIR": str(tmp_path / "runs")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", str(src), "-j", "2"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True)
        assert proc.wait(timeout=300) == KILL_EXIT_CODE

        def live_members():
            """Processes of the batch's session that are not zombies."""
            members = []
            for stat in Path("/proc").glob("[0-9]*/stat"):
                try:
                    fields = stat.read_text().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                if int(fields[3]) == proc.pid and fields[0] != "Z":
                    members.append(stat.parent.name)
            return members

        deadline = time.monotonic() + 0.5
        while live_members() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert live_members() == []


# ----------------------------------------------------------- quarantine


class TestQuarantine:
    def _run(self, program, run_id, root, jobs=1):
        journal = RunJournal(run_id, root=root)
        journal.begin(program, {})
        return apply_batch(program, jobs=jobs, validate=False,
                           journal=journal)

    def test_poison_file_quarantined_then_skipped(
            self, fresh_store, tmp_path, monkeypatch):
        """A file whose worker keeps dying is quarantined by the first
        journaled run and skipped — shipped verbatim, no retry budget
        spent — by the next, until its content changes."""
        monkeypatch.setenv("REPRO_FAULTS", "slr:kill:1.0")
        root = str(tmp_path / "runs")
        program = make_program(2, tag="-poison")

        first = self._run(program, "q1", root)
        assert all(r.status == STATUS_FAILED for r in first.reports)
        assert first.info.quarantined == 0
        # The second run finds the quarantine entries before dispatch.
        second = self._run(program, "q2", root)
        assert all(r.status == STATUS_QUARANTINED
                   for r in second.reports)
        assert second.info.quarantined == 2
        for report in second.reports:
            assert report.wall_time == 0.0          # no budget spent
            diag = report.diagnostics[0]
            assert diag.kind == "quarantined"
            assert "run q1" in diag.message

    def test_content_change_releases_quarantine(
            self, fresh_store, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "slr:kill:1.0")
        root = str(tmp_path / "runs")
        program = make_program(1, tag="-release")
        self._run(program, "q1", root)

        edited = SourceProgram(program.name, {
            name: text + "/* edited */\n"
            for name, text in program.files.items()})
        third = self._run(edited, "q3", root)
        # Edited content re-enters the pipeline (and fails again under
        # the still-armed fault) instead of being skipped.
        assert third.info.quarantined == 0
        assert all(r.status == STATUS_FAILED for r in third.reports)

    def test_quarantined_files_have_records(
            self, fresh_store, tmp_path, monkeypatch):
        """Every terminal event has a record behind it, quarantined ones
        included, so ``runs show`` builds their audits too."""
        monkeypatch.setenv("REPRO_FAULTS", "slr:kill:1.0")
        root = str(tmp_path / "runs")
        program = make_program(2, tag="-qrec")
        self._run(program, "q1", root)
        self._run(program, "q2", root)

        journal = RunJournal("q2", root=root)
        journal.load()
        assert {kind for kind, _key in journal.completed.values()} == \
            {EVENT_QUARANTINED}
        assert sorted(os.listdir(journal.results_dir)) == sorted(
            key + ".pkl" for _kind, key in journal.completed.values())
        for name in program.files:
            audit = journal.read_audit(name)
            assert audit["status"] == STATUS_QUARANTINED
            assert audit["diff"] is None
            assert "run q1" in audit["diagnostics"][0]["message"]

    def test_file_condemned_mid_run_keeps_its_own_record(
            self, fresh_store, tmp_path, monkeypatch):
        """A worker death quarantines content mid-run, so a later file
        with that content is skipped as quarantined.  Each keeps its
        own record: the first still shows and replays as failed."""
        import repro.core.batch as batch_module
        files = make_files(2, tag="-mid")
        files["file99.c"] = files["file00.c"]
        program = SourceProgram("mid-run", files)
        transform = batch_module.transform_file

        def dies_on_file00(task, session=None):
            if task.filename == "file00.c":
                return task.failed(KIND_WORKER_DIED, "worker died")
            return transform(task, session)

        monkeypatch.setattr(batch_module, "transform_file", dies_on_file00)
        root = str(tmp_path / "runs")
        statuses = [STATUS_FAILED, "ok", STATUS_QUARANTINED]
        first = self._run(program, "mid", root)
        assert [r.status for r in first.reports] == statuses

        journal = RunJournal("mid", root=root)
        journal.load()
        assert [journal.read_audit(name)["status"]
                for name in sorted(files)] == statuses
        replay = apply_batch(program, jobs=1, validate=False,
                             journal=journal)
        assert replay.info.replayed == 2
        assert [r.status for r in replay.reports] == statuses

    def test_healthy_batch_records_no_quarantine(
            self, fresh_store, tmp_path):
        program = make_program(2, tag="-healthy")
        result = self._run(program, "q1", str(tmp_path / "runs"))
        assert all(r.status == "ok" for r in result.reports)
        for name, text in program.files.items():
            assert quarantine_lookup(FileTask(name, text)) is None


# ------------------------------------------------------------ disk full


class TestDiskFull:
    def test_journal_disk_full_degrades_warn_once(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "journal:disk-full:1.0")
        program = make_program(2, tag="-df")
        journal = RunJournal("dfull", root=str(tmp_path / "runs"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            journal.begin(program, {})
            result = apply_batch(program, jobs=1, validate=False,
                                 journal=journal)
        assert all(r.status == "ok" for r in result.reports)
        assert not os.path.exists(journal.journal_path)
        texts = [str(w.message) for w in caught]
        assert any("run journal" in t for t in texts)

    def test_store_disk_full_still_completes(
            self, fresh_store, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULTS", "store:disk-full:1.0")
        program = make_program(2, tag="-sdf")
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            result = apply_batch(program, jobs=1, validate=False)
        assert all(r.status == "ok" for r in result.reports)


# -------------------------------------------------------------- registry


class TestRunRegistry:
    def _make_run(self, root, run_id, count=1):
        program = make_program(count, tag=f"-{run_id}")
        journal = RunJournal(run_id, root=root)
        journal.begin(program, {})
        apply_batch(program, jobs=1, validate=False, journal=journal)

    def test_list_and_latest(self, tmp_path):
        root = str(tmp_path / "runs")
        self._make_run(root, "20260101-000000-aaaaaa")
        self._make_run(root, "20260102-000000-bbbbbb")
        runs = list_runs(root)
        assert [r["run_id"] for r in runs] == [
            "20260101-000000-aaaaaa", "20260102-000000-bbbbbb"]
        assert all(r["completed"] == 1 for r in runs)
        assert latest_run_id(root) == "20260102-000000-bbbbbb"

    def test_latest_opens_one_run(self, fresh_store, tmp_path,
                                  monkeypatch):
        """``latest`` recognises the newest run without replaying any
        journal, so ``runs show`` and ``batch --resume latest`` each
        load one run, once, however many runs have piled up."""
        root = str(tmp_path / "runs")
        for day in range(1, 5):
            self._make_run(root, f"2026010{day}-000000-aaaaaa")
        src = tmp_path / "src"
        src.mkdir()
        for name, text in make_files(1, tag="-latest").items():
            (src / name).write_text(text)
        monkeypatch.setenv("REPRO_RUN_DIR", root)
        opened = []
        load = RunJournal.load

        def spy(journal):
            opened.append(journal.run_id)
            return load(journal)

        monkeypatch.setattr(RunJournal, "load", spy)
        newest = "20260104-000000-aaaaaa"
        assert latest_run_id(root) == newest
        assert opened == []
        for argv in (["runs", "show"],
                     ["batch", src, "--resume", "latest"]):
            opened.clear()
            code, _out, err = run_cli(argv)
            assert code == 0, err
            assert opened == [newest], argv

    def test_gc_keep(self, tmp_path):
        root = str(tmp_path / "runs")
        for run_id in ("r1", "r2", "r3"):
            self._make_run(root, run_id)
        summary = gc_runs(keep=1, root=root)
        assert summary["removed_runs"] == 2
        assert summary["freed_bytes"] > 0
        assert [r["run_id"] for r in list_runs(root)] == ["r3"]

    def test_gc_defaults_remove_nothing(self, tmp_path):
        root = str(tmp_path / "runs")
        self._make_run(root, "r1")
        assert gc_runs(root=root) == {"removed_runs": 0,
                                      "freed_bytes": 0}
        assert len(list_runs(root)) == 1


# -------------------------------------------------------------- work key


class TestWorkKey:
    """A journaled verdict replays only onto the oracle settings it was
    judged under: the probe seed in effect and the oracle's budgets."""

    @pytest.fixture(autouse=True)
    def _oracle_env(self, monkeypatch):
        for name in ("REPRO_VALIDATE_SEED", "REPRO_VALIDATE_STEPS",
                     "REPRO_VALIDATE_MEM", "REPRO_FAULTS"):
            monkeypatch.delenv(name, raising=False)

    @staticmethod
    def probes(result):
        return {r.filename: [(v.input.name, v.input.stdin)
                             for v in r.validation.verdicts]
                for r in result.reports}

    def test_resume_under_changed_seed_recomputes(
            self, fresh_store, tmp_path, monkeypatch):
        program = make_program(2, tag="-seed")
        root = str(tmp_path / "runs")
        first = RunJournal("seeded", root=root)
        first.begin(program, {"validate": True})
        original = apply_batch(program, jobs=1, validate=True,
                               journal=first)

        monkeypatch.setenv("REPRO_VALIDATE_SEED", "987654")
        fresh = apply_batch(program, jobs=1, validate=True)
        resumed = RunJournal("seeded", root=root)
        resumed.load()
        replay = apply_batch(program, jobs=1, validate=True,
                             journal=resumed)
        assert replay.info.replayed == 0
        assert self.probes(replay) == self.probes(fresh)
        assert self.probes(replay) != self.probes(original)

    @pytest.mark.parametrize("knob,value", [
        ("REPRO_VALIDATE_SEED", "987654"),
        ("REPRO_VALIDATE_STEPS", "12345"),
        ("REPRO_VALIDATE_MEM", "4096"),
    ])
    @pytest.mark.parametrize("mode", [
        {"validate": True}, {"backends": ("slr", "str")}])
    def test_oracle_settings_change_the_key(self, monkeypatch, knob,
                                            value, mode):
        task = FileTask("a.c", "int main(void) { return 0; }\n", **mode)
        before = _task_work_key(task)
        monkeypatch.setenv(knob, value)
        assert _task_work_key(task) != before

    def test_explicit_seed_matches_environment_seed(self, monkeypatch):
        text = "int main(void) { return 0; }\n"
        monkeypatch.setenv("REPRO_VALIDATE_SEED", "987654")
        from_env = _task_work_key(FileTask("a.c", text, validate=True))
        monkeypatch.delenv("REPRO_VALIDATE_SEED")
        explicit = _task_work_key(FileTask("a.c", text, validate=True,
                                           fuzz_seed=987654))
        assert from_env == explicit


# ------------------------------------------------------------------- CLI


def run_cli(argv):
    from repro.cli import main
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main([str(a) for a in argv])
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


class TestRunsCli:
    @pytest.fixture(autouse=True)
    def _run_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))

    def _journaled_run(self, run_id="cli-run"):
        program = make_program(2, tag="-cli")
        journal = RunJournal(run_id)
        journal.begin(program, {"validate": False})
        apply_batch(program, jobs=1, validate=False, journal=journal)
        return journal

    def test_list_empty(self):
        code, out, _ = run_cli(["runs", "list"])
        assert code == 0
        assert "no runs under" in out

    def test_list_and_show(self):
        self._journaled_run()
        code, out, _ = run_cli(["runs", "list"])
        assert code == 0
        assert "cli-run" in out

        code, out, _ = run_cli(["runs", "show", "cli-run"])
        assert code == 0
        assert "run cli-run" in out
        assert "file00.c: ok" in out
        assert "diff:" in out           # hint line for the shipped fix

        code, out, _ = run_cli(["runs", "show", "latest", "--diff"])
        assert code == 0
        assert "+" in out               # the unified diff is printed

    def test_show_single_file(self):
        self._journaled_run()
        code, out, _ = run_cli(["runs", "show", "cli-run",
                                "--file", "file01.c"])
        assert code == 0
        assert "file01.c: ok" in out
        assert "file00.c" not in out

    def test_show_unknown_run(self):
        code, _, err = run_cli(["runs", "show", "missing"])
        assert code == 2
        assert "error:" in err

    def test_gc_requires_opt_in(self):
        self._journaled_run()
        code, _, err = run_cli(["runs", "gc"])
        assert code == 2
        assert "--max-age-days" in err

        code, out, _ = run_cli(["runs", "gc", "--keep", "0"])
        assert code == 0
        assert "removed 1 run(s)" in out
        code, out, _ = run_cli(["runs", "list"])
        assert "no runs under" in out

    def test_gc_leaves_directories_that_are_not_runs(self, tmp_path):
        photo = tmp_path / "runs" / "photos" / "cat.jpg"
        photo.parent.mkdir(parents=True)
        photo.write_bytes(b"\xff\xd8")
        code, out, _ = run_cli(["runs", "list"])
        assert "no runs under" in out
        code, out, _ = run_cli(["runs", "gc", "--keep", "0"])
        assert code == 0
        assert "removed 0 run(s)" in out
        self._journaled_run()
        code, out, _ = run_cli(["runs", "gc", "--keep", "0"])
        assert "removed 1 run(s)" in out
        assert photo.exists()


class TestBatchCliJournal:
    @pytest.fixture(autouse=True)
    def _run_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))

    @pytest.fixture
    def batch_dir(self, tmp_path):
        target = tmp_path / "prog"
        target.mkdir()
        for name, text in make_files(2, tag="-bcli").items():
            (target / name).write_text(text)
        return target

    def test_batch_prints_resume_hint(self, fresh_store, batch_dir,
                                      tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs2"))
        code, _, err = run_cli(["batch", batch_dir, "--run-id", "cli-batch"])
        assert code == 0
        assert "run cli-batch: journaled to" in err
        assert "--resume cli-batch" in err

    def test_batch_resume_replays(self, fresh_store, batch_dir,
                                  tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs2"))
        code, _, _ = run_cli(["batch", batch_dir,
                              "--run-id", "cli-batch"])
        assert code == 0
        code, _, err = run_cli(["batch", batch_dir,
                                "--resume", "cli-batch"])
        assert code == 0
        assert "(2 replayed, 0 quarantined)" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_duplicate_files_keep_their_own_records(
            self, fresh_store, tmp_path, jobs):
        """Two copies of one text are journaled under their own keys:
        ``runs show`` prints each file's own diagnostic, and a resume
        replays each file's own report."""
        twins = tmp_path / "twins"
        twins.mkdir()
        for name in ("a.c", "b.c"):
            (twins / name).write_text(SYNTAX_ERROR)
        code, _, err = run_cli(["batch", twins, "-j", jobs,
                                "--run-id", "twins"])
        assert code == 0, err
        for name, other in (("a.c", "b.c"), ("b.c", "a.c")):
            code, out, _ = run_cli(["runs", "show", "twins",
                                    "--file", name])
            assert code == 0
            assert f"{name}: failed" in out
            assert f"ParseError: {name}:3:13: unexpected token" in out
            assert other not in out

        payload = tmp_path / "resumed.json"
        code, _, err = run_cli(["batch", twins, "-j", jobs,
                                "--resume", "twins",
                                "--diagnostics-json", payload])
        assert code == 0, err
        assert "(2 replayed, 0 quarantined)" in err
        diagnostics = json.loads(payload.read_text())["diagnostics"]
        assert [(d["filename"], d["location"]) for d in diagnostics] \
            == [("a.c", "a.c:3:13"), ("b.c", "b.c:3:13")]

    def test_no_run_log_disables_journaling(self, fresh_store, batch_dir):
        code, _, err = run_cli(["batch", batch_dir,
                                "--no-run-log"])
        assert code == 0
        assert "journaled to" not in err

    def test_resume_without_journaling_is_an_error(
            self, fresh_store, batch_dir):
        code, _, err = run_cli(["batch", batch_dir, "--no-run-log",
                                "--resume", "latest"])
        assert code == 2
        assert "--resume requires run journaling" in err


# -------------------------------------------------------- retry backoff


class TestRetryBackoff:
    def test_exponential_and_capped(self):
        waits = [retry_backoff(attempt, "task.c")
                 for attempt in range(1, 12)]
        assert waits == sorted(waits)               # monotone
        assert waits[0] >= RETRY_BACKOFF_BASE_S * 0.5
        assert waits[0] < RETRY_BACKOFF_BASE_S * 1.5
        assert waits[-1] == RETRY_BACKOFF_CAP_S     # hard cap reached
        assert all(w <= RETRY_BACKOFF_CAP_S for w in waits)

    def test_jitter_is_deterministic_per_subject(self):
        assert retry_backoff(2, "a.c") == retry_backoff(2, "a.c")
        # Different subjects de-synchronize (distinct jitter draws).
        draws = {retry_backoff(1, f"f{i}.c") for i in range(8)}
        assert len(draws) > 1

    def test_quarantine_key_tracks_content(self):
        def key(text, headers=()):
            return quarantine_key(FileTask("a.c", text, headers))

        assert key("abc") == key("abc")
        assert key("abc") != key("abd")
        assert key("abc", (("h.h", "1"),)) != key("abc", (("h.h", "2"),))
        # Content alone: the same text under another name is the same
        # poison.
        assert quarantine_key(FileTask("b.c", "abc")) == key("abc")
