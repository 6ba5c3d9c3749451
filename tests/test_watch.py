"""``repro watch`` loop (core/watch.py) and its CLI surface."""

import io
import json
import os

import pytest

from repro.core.watch import WatchLoop


SRC = """#include <stdio.h>
#include <string.h>

void shout(const char *msg) {
    char buf[8];
    strcat(buf, msg);
    printf("%s!\\n", buf);
}

int main(void) {
    char line[24];
    fgets(line, sizeof line, stdin);
    printf("%s", line);
    return 0;
}
"""


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make_loop(tmp_path, **kwargs):
    path = tmp_path / "watched.c"
    path.write_text(SRC)
    clock = FakeClock()
    out = io.StringIO()
    loop = WatchLoop(str(path), fuzz_seed=3, clock=clock, sleep=lambda s: None,
                     out=out, **kwargs)
    return loop, path, clock, out


def touch(path, mtime):
    os.utime(path, (mtime, mtime))


def test_first_scan_is_full(tmp_path):
    loop, _path, _clock, out = make_loop(tmp_path)
    reports = loop.scan_once(force=True)
    assert len(reports) == 1
    assert reports[0].mode == "full"
    assert "[watch]" in out.getvalue()
    assert "full" in out.getvalue()


def test_edit_processes_after_debounce(tmp_path):
    loop, path, clock, _out = make_loop(tmp_path, debounce_s=0.5)
    loop.scan_once(force=True)

    path.write_text(SRC.replace('printf("%s!\\n", buf);',
                                'printf("%s!!\\n", buf);'))
    touch(path, 2000.0)
    # First sight of the change starts the quiet period.
    assert loop.scan_once() == []
    # Still inside the debounce window: nothing processed.
    clock.now += 0.2
    assert loop.scan_once() == []
    # Another save restarts the window.
    touch(path, 2001.0)
    clock.now += 0.4
    assert loop.scan_once() == []
    # Quiet long enough: exactly one update, incremental.
    clock.now += 0.6
    reports = loop.scan_once()
    assert len(reports) == 1
    assert reports[0].mode == "incremental"
    assert reports[0].invalidated == frozenset({"shout"})
    # Nothing left pending.
    assert loop.scan_once() == []


def test_unchanged_file_is_not_reprocessed(tmp_path):
    loop, _path, clock, _out = make_loop(tmp_path)
    loop.scan_once(force=True)
    clock.now += 10.0
    assert loop.scan_once() == []


def test_directory_watch_picks_up_new_files(tmp_path):
    (tmp_path / "a.c").write_text(SRC)
    out = io.StringIO()
    loop = WatchLoop(str(tmp_path), validate=False, clock=FakeClock(),
                     sleep=lambda s: None, out=out)
    assert len(loop.scan_once(force=True)) == 1
    (tmp_path / "b.c").write_text(SRC)
    assert len(loop.scan_once(force=True)) == 2   # a.c no-op + b.c full
    assert sorted(os.path.basename(p) for p in loop.files) == \
        ["a.c", "b.c"]


def test_directory_watch_lists_the_files_batch_reads(tmp_path):
    from repro.core.batch import load_program
    (tmp_path / "a.c").write_text(SRC)
    (tmp_path / "b.c").write_text(SRC)
    (tmp_path / "notes.h").write_text("int notes;\n")
    (tmp_path / "dir.c").mkdir()
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "nested.c").write_text(SRC)
    loop = WatchLoop(str(tmp_path), validate=False, clock=FakeClock(),
                     sleep=lambda s: None, out=io.StringIO())
    program = load_program(str(tmp_path))
    watched = [os.path.basename(p) for p in loop.watched_paths()]
    assert watched == sorted(program.files) == ["a.c", "b.c"]
    assert len(loop.scan_once(force=True)) == 2


def test_unprocessable_file_is_contained(tmp_path):
    (tmp_path / "good.c").write_text(SRC)
    (tmp_path / "garbage.c").write_text("int main() {\n\x01\x02\n}\n")
    out = io.StringIO()
    loop = WatchLoop(str(tmp_path), validate=False, clock=FakeClock(),
                     sleep=lambda s: None, out=out)
    reports = loop.scan_once(force=True)
    modes = {r.filename: r.mode for r in reports}
    assert modes["garbage.c"] == "error"
    assert modes["good.c"] == "full"
    assert "LexError" in next(r.reason for r in reports
                              if r.mode == "error")


def test_non_utf8_file_is_an_error_record(tmp_path):
    (tmp_path / "good.c").write_text(SRC)
    (tmp_path / "latin.c").write_bytes(
        b"/* caf\xe9 */\nint main(void) { return 0; }\n")
    loop = WatchLoop(str(tmp_path), validate=False, clock=FakeClock(),
                     sleep=lambda s: None, out=io.StringIO())
    reports = {r.filename: r for r in loop.scan_once(force=True)}
    assert reports["latin.c"].mode == "error"
    assert reports["latin.c"].status == "failed"
    assert "UnicodeDecodeError" in reports["latin.c"].reason
    assert reports["good.c"].mode == "full"


def test_json_output_streams_records(tmp_path):
    loop, _path, _clock, out = make_loop(tmp_path, json_output=True)
    loop.scan_once(force=True)
    record = json.loads(out.getvalue().strip())
    assert record["mode"] == "full"
    assert record["path"].endswith("watched.c")
    assert "verdicts" in record and "func_cache" in record


def test_run_bounded_scans(tmp_path):
    loop, _path, _clock, _out = make_loop(tmp_path)
    sleeps = []
    loop.sleep = sleeps.append
    assert loop.run(max_scans=3) == 0
    assert sleeps == [loop.interval_s] * 3


# ----------------------------------------------------------------- CLI

def test_cli_watch_once(tmp_path, capsys):
    from repro.cli import main
    path = tmp_path / "w.c"
    path.write_text(SRC)
    assert main(["watch", str(path), "--once", "--no-validate"]) == 0
    out = capsys.readouterr().out
    assert "[watch]" in out and "full" in out


def test_cli_watch_missing_path(tmp_path, capsys):
    from repro.cli import main
    assert main(["watch", str(tmp_path / "nope.c"), "--once"]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_cli_cache_stats_reports_func_family(tmp_path, capsys,
                                             fresh_store):
    from repro.cli import main
    from repro.core.incremental import IncrementalEngine
    engine = IncrementalEngine("stats.c", validate=False)
    engine.update(SRC)
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "func" in out


class TestDeletedWhileWatched:
    """PR 10 satellite: a watched file deleted under the loop — between
    polls, or in the race window between the debounce settling and the
    re-read — is treated as a removal: one ``removed`` record, engine
    state dropped, and the loop keeps watching."""

    def test_deleted_between_polls_emits_one_removal(self, tmp_path):
        loop, path, clock, out = make_loop(tmp_path, validate=False)
        loop.scan_once(force=True)
        os.remove(path)
        clock.now += 10.0
        reports = loop.scan_once()
        assert [r.mode for r in reports] == ["removed"]
        assert reports[0].reason == "watched file deleted"
        assert loop.files == {}
        assert "removed" in out.getvalue()
        # The loop keeps running; the gone file produces nothing more.
        clock.now += 10.0
        assert loop.scan_once() == []

    def test_deleted_between_debounce_and_read(self, tmp_path,
                                               monkeypatch):
        """The narrow race: stat saw the edit, the quiet period passed,
        and the file vanished before the re-read opened it."""
        loop, path, clock, _out = make_loop(tmp_path, validate=False,
                                            debounce_s=0.5)
        loop.scan_once(force=True)
        # The edit is observed (stat succeeds) but the file is gone by
        # the time the settled change is read back.
        real_stat = os.stat

        class _Stat:
            st_mtime = 2000.0
            st_mode = 0o100644          # regular file (isdir → False)

        def fake_stat(p, *args, **kwargs):
            if str(p) == str(path):
                return _Stat()
            return real_stat(p, *args, **kwargs)

        monkeypatch.setattr(os, "stat", fake_stat)
        os.remove(path)
        assert loop.scan_once() == []       # change seen, quiet begins
        clock.now += 1.0
        reports = loop.scan_once()          # settled → read → ENOENT
        assert [r.mode for r in reports] == ["removed"]
        assert loop.files == {}

    def test_recreated_file_starts_fresh(self, tmp_path):
        loop, path, clock, _out = make_loop(tmp_path, validate=False)
        loop.scan_once(force=True)
        os.remove(path)
        clock.now += 10.0
        assert [r.mode for r in loop.scan_once()] == ["removed"]
        path.write_text(SRC)
        touch(path, 3000.0)
        reports = loop.scan_once(force=True)
        assert [r.mode for r in reports] == ["full"]    # fresh session

    def test_directory_watch_sweeps_deleted_file(self, tmp_path):
        (tmp_path / "a.c").write_text(SRC)
        (tmp_path / "b.c").write_text(SRC)
        out = io.StringIO()
        loop = WatchLoop(str(tmp_path), validate=False, clock=FakeClock(),
                         sleep=lambda s: None, out=out)
        assert len(loop.scan_once(force=True)) == 2
        os.remove(tmp_path / "b.c")
        reports = loop.scan_once(force=True)
        by_file = {r.filename: r.mode for r in reports}
        assert by_file["b.c"] == "removed"
        assert sorted(os.path.basename(p) for p in loop.files) == ["a.c"]

    def test_never_read_file_vanishing_is_silent(self, tmp_path):
        """A file that appears and disappears before its first read was
        never watched content — no removal record."""
        loop, path, clock, _out = make_loop(tmp_path, validate=False)
        # No force scan: the file has never been processed.
        os.remove(path)
        assert loop.scan_once() == []
        assert loop.files == {}
