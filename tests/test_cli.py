"""Tests for the command-line interfaces."""

import io
import json
import os
import sys

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def broken_c(tmp_path):
    path = tmp_path / "broken.c"
    path.write_text(
        "#include <stdio.h>\n#include <string.h>\n"
        "int main(void) {\n"
        "    char buf[8];\n"
        '    strcpy(buf, "far far too long for this buffer");\n'
        '    printf("%s\\n", buf);\n'
        "    return 0;\n}\n")
    return path


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main([str(a) for a in argv])
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


class TestRunCommand:
    def test_faulting_program(self, broken_c):
        code, out, err = run_cli(["run", broken_c])
        assert code == 1
        assert "FAULT: buffer-overflow" in err

    def test_clean_program(self, tmp_path):
        path = tmp_path / "ok.c"
        path.write_text('#include <stdio.h>\n'
                        'int main(void){ printf("fine\\n"); return 7; }\n')
        code, out, err = run_cli(["run", path])
        assert code == 7
        assert out == "fine\n"

    def test_stdin_option(self, tmp_path):
        path = tmp_path / "echo.c"
        path.write_text(
            "#include <stdio.h>\nint main(void){ char b[32]; "
            "fgets(b, 32, stdin); "
            'printf("<%s>", b); return 0; }\n')
        code, out, _ = run_cli(["run", path, "--stdin", "hello\n"])
        assert out == "<hello\n>"


class TestFixCommand:
    def test_fix_to_stdout(self, broken_c):
        code, out, err = run_cli(["fix", broken_c])
        assert code == 0
        assert "g_strlcpy(buf" in out
        assert "[FIXED] SLR" in err

    def test_fix_to_file_then_run(self, broken_c, tmp_path):
        fixed = tmp_path / "fixed.c"
        code, _, err = run_cli(["fix", broken_c, "-o", fixed])
        assert code == 0
        assert fixed.exists()
        code, out, err = run_cli(["run", fixed])
        assert code == 0
        assert out == "far far\n"       # truncated to 7 chars + NUL

    def test_fix_c11_profile(self, broken_c):
        code, out, _ = run_cli(["fix", broken_c, "--profile", "c11",
                                "--no-str"])
        assert code == 0
        assert "strcpy_s(buf, sizeof(buf)," in out

    def test_no_slr_no_str_flags(self, broken_c):
        code, out, err = run_cli(["fix", broken_c, "--no-slr"])
        assert code == 0
        assert "g_strlcpy" not in out
        assert "SLR" not in err or "[FIXED] SLR" not in err

    def test_prints_what_batch_writes(self, broken_c, tmp_path):
        code, out, _ = run_cli(["fix", broken_c])
        assert code == 0
        code, _, _ = run_cli(["batch", broken_c, "--no-disk-cache",
                              "-o", tmp_path / "out"])
        assert code == 0
        assert out == (tmp_path / "out" / "broken.c").read_text() + "\n"

    def test_contained_stage_failure_is_one_line(self, broken_c,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "slr:exception:1.0")
        code, out, err = run_cli(["fix", broken_c])
        assert code == 0
        assert "Traceback" not in err
        lines = err.splitlines()
        assert lines[0] == ("[degraded] slr InjectedFault: injected slr "
                            "fault for broken.c")
        assert not any(line.startswith("[FIXED] SLR") for line in lines)
        assert any(line.startswith("[FIXED] STR") for line in lines)
        assert lines[-1].endswith(" sites transformed")
        assert "g_strlcpy" not in out and "stralloc" in out


class TestAnalyzeCommand:
    def test_analyze_output(self, broken_c):
        code, out, _ = run_cli(["analyze", broken_c])
        assert code == 0
        assert "== unsafe call sites ==" in out
        assert "strcpy(buf, ...): size = sizeof(buf)" in out

    def test_analyze_reports_unsizable(self, tmp_path):
        path = tmp_path / "param.c"
        path.write_text("#include <string.h>\n"
                        "void f(char *d){ strcpy(d, \"x\"); }\n")
        code, out, _ = run_cli(["analyze", path])
        assert code == 0
        assert "UNSIZABLE" in out


@pytest.fixture
def header_dir(tmp_path):
    """A program whose .c file includes a private header beside it."""
    target = tmp_path / "hdr"
    target.mkdir()
    (target / "f.h").write_text("#define NAME_LEN 8\n"
                                "void greet(const char *who);\n")
    (target / "f.c").write_text(
        '#include <stdio.h>\n#include <string.h>\n#include "f.h"\n'
        "void greet(const char *who) {\n"
        "    char buf[NAME_LEN];\n"
        "    strcpy(buf, who);\n"
        '    printf("%s\\n", buf);\n'
        "}\n"
        'int main(void) { greet("hi"); return 0; }\n')
    return target


class TestPrivateHeaders:
    """A single .c file gets the .h files beside it as its private
    headers, as a batch over its directory does."""

    def test_single_file_batch_matches_directory_batch(
            self, fresh_store, header_dir, tmp_path):
        code, _, err = run_cli(["batch", header_dir / "f.c",
                                "-o", tmp_path / "one"])
        assert code == 0, err
        code, _, err = run_cli(["batch", header_dir, "--no-disk-cache",
                                "-o", tmp_path / "all"])
        assert code == 0, err
        assert os.listdir(tmp_path / "one") == ["f.c"]
        assert os.listdir(tmp_path / "all") == ["f.c"]
        fixed = (tmp_path / "one" / "f.c").read_text()
        assert fixed == (tmp_path / "all" / "f.c").read_text()
        assert "g_strlcpy" in fixed

    @pytest.mark.parametrize("command", ["fix", "run", "analyze"])
    def test_single_file_commands_read_headers(self, header_dir,
                                               command):
        code, _, err = run_cli([command, header_dir / "f.c"])
        assert code == 0, err

    @pytest.mark.parametrize("command", ["fix", "run", "analyze"])
    def test_source_error_is_one_error_line(self, tmp_path, command):
        path = tmp_path / "missing.c"
        path.write_text('#include "nowhere.h"\n'
                        "int main(void) { return 0; }\n")
        code, out, err = run_cli([command, path])
        assert code == 1
        assert err.splitlines() == [
            f"error: {path}:0:0: header not found: 'nowhere.h'"]
        assert out == ""


class TestUnreadablePath:
    @pytest.mark.parametrize("command", ["batch", "validate", "fix",
                                         "run", "analyze"])
    def test_missing_path_exits_2(self, tmp_path, command):
        path = tmp_path / "nope.c"
        code, out, err = run_cli([command, path])
        assert code == 2
        assert err.splitlines() == [
            f"cannot read {path}: No such file or directory"]

    def test_directory_without_c_files_exits_2(self, tmp_path):
        code, _, err = run_cli(["batch", tmp_path])
        assert code == 2
        assert err.splitlines() == [f"no .c files in {tmp_path}"]


class TestParser:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fix", "x.c", "--profile", "win"])


@pytest.fixture
def batch_dir(tmp_path, broken_c):
    """A directory with one transformable .c file for batch commands."""
    target = tmp_path / "prog"
    target.mkdir()
    (target / "broken.c").write_text(broken_c.read_text())
    return target


class TestCacheCommand:
    def test_stats_on_empty_store(self, fresh_store):
        code, out, _ = run_cli(["cache", "stats"])
        assert code == 0
        assert "(store is empty)" in out
        assert "schema v" in out

    def test_stats_after_batch_reports_families(self, fresh_store,
                                                batch_dir):
        assert run_cli(["batch", batch_dir])[0] == 0
        code, out, _ = run_cli(["cache", "stats"])
        assert code == 0
        assert "preprocess" in out and "slr" in out
        assert "(total)" in out

    def test_stats_json_payload(self, fresh_store, batch_dir):
        from repro.cfront.cache import clear_all_caches
        assert run_cli(["batch", batch_dir])[0] == 0
        # Empty the memory LRUs, as a second process would start.
        clear_all_caches()
        assert run_cli(["batch", batch_dir])[0] == 0
        code, out, _ = run_cli(["cache", "stats", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["fingerprint", "root",
                                   "schema_version", "stale_versions",
                                   "usage"]
        assert payload["usage"]["preprocess"]["entries"] > 0

    def test_clear_empties_store(self, fresh_store, batch_dir):
        run_cli(["batch", batch_dir])
        code, out, _ = run_cli(["cache", "clear"])
        assert code == 0 and "cleared" in out
        assert fresh_store.usage() == {}

    def test_clear_keeps_runs_and_foreign_directories(
            self, fresh_store, batch_dir, monkeypatch):
        # Run journals default to <cache dir>/runs, and the cache dir
        # may be shared: clear owns only its version directories.
        monkeypatch.delenv("REPRO_RUN_DIR", raising=False)
        assert run_cli(["batch", batch_dir])[0] == 0
        notes = os.path.join(fresh_store.root, "unrelated-project",
                             "notes.txt")
        os.makedirs(os.path.dirname(notes))
        with open(notes, "w") as handle:
            handle.write("keep me\n")
        code, out, _ = run_cli(["cache", "clear"])
        assert code == 0 and "cleared" in out
        assert fresh_store.usage() == {}
        assert not os.path.exists(fresh_store.version_dir)
        assert os.path.exists(notes)
        code, out, _ = run_cli(["runs", "list"])
        assert code == 0 and "no runs" not in out
        code, _, err = run_cli(["batch", batch_dir, "--resume", "latest"])
        assert code == 0, err

    def test_gc_drops_only_version_directories(self, fresh_store):
        from repro.core.store import ArtifactStore
        stale = ArtifactStore(fresh_store.root, fingerprint="older")
        stale.store("slr", "abcd", "old-entry")
        clip = os.path.join(fresh_store.root, "videos", "clip.mp4")
        os.makedirs(os.path.dirname(clip))
        with open(clip, "wb") as handle:
            handle.write(b"\x00" * 16)
        code, out, _ = run_cli(["cache", "gc"])
        assert code == 0
        assert "dropped 1 stale version dir(s)" in out
        assert not os.path.exists(stale.version_dir)
        assert os.path.exists(clip)

    def test_gc_runs_clean(self, fresh_store, batch_dir):
        run_cli(["batch", batch_dir])
        code, out, _ = run_cli(["cache", "gc"])
        assert code == 0
        assert "removed 0 file(s)" in out
        code, out, _ = run_cli(["cache", "gc", "--max-age-days", "0"])
        assert code == 0
        assert "removed 0 file(s)" not in out

    def test_no_disk_cache_flag(self, fresh_store, batch_dir):
        from repro.cfront.cache import clear_all_caches
        clear_all_caches()
        code, _, _ = run_cli(["batch", batch_dir, "--no-disk-cache"])
        assert code == 0
        assert fresh_store.usage() == {}


class TestBatchProfileFlag:
    def test_profile_renders_stage_table(self, fresh_store, batch_dir):
        code, out, _ = run_cli(["batch", batch_dir, "--profile"])
        assert code == 0
        assert "mean ms/file" in out
        assert "slr" in out and "verify" in out

    def test_no_profile_no_stage_table(self, fresh_store, batch_dir):
        code, out, _ = run_cli(["batch", batch_dir])
        assert code == 0
        assert "mean ms/file" not in out


@pytest.fixture
def pool_dir(tmp_path, broken_c):
    """Two files, so ``-j 2`` forks pool workers."""
    target = tmp_path / "pool"
    target.mkdir()
    for name in ("a.c", "b.c"):
        (target / name).write_text(broken_c.read_text())
    return target


class TestBatchStatsFlag:
    def test_caption_only_when_pool_workers_ran(self, fresh_store,
                                                 pool_dir):
        code, out, _ = run_cli(["batch", pool_dir, "-j", "2", "--stats"])
        assert code == 0
        assert "parent process counters only; the 2 pool worker(s) " \
            "kept their own" in out
        code, out, _ = run_cli(["batch", pool_dir, "-j", "1", "--stats"])
        assert code == 0
        assert "pool worker" not in out
        assert "disk hits" in out                   # the table itself


class TestStoreSummary:
    @pytest.mark.parametrize("flags", [[], ["--no-run-log"]],
                             ids=["journaled", "no-run-log"])
    def test_warm_batch_is_served_from_the_store(self, fresh_store,
                                                 pool_dir, flags):
        code, _, err = run_cli(["batch", pool_dir, "-j", "2", *flags])
        assert code == 0
        assert "0/2 file(s) served from the artifact store; 2 pool " \
            "worker(s) started" in err
        code, _, err = run_cli(["batch", pool_dir, "-j", "2", *flags])
        assert code == 0
        assert "2/2 file(s) served from the artifact store; 0 pool " \
            "worker(s) started" in err


class TestFlagEnvironment:
    """A flag that sets an environment knob holds for one command."""

    KNOBS = ("REPRO_DISK_CACHE", "REPRO_TASK_TIMEOUT",
             "REPRO_TASK_RETRIES")

    def test_batch_leaves_the_environment_as_it_found_it(
            self, fresh_store, pool_dir, monkeypatch):
        from repro.core.store import disk_enabled
        for name in self.KNOBS:
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        code, _, err = run_cli(["batch", pool_dir, "-j", "2",
                                "--no-disk-cache", "--task-timeout", "60",
                                "--task-retries", "2"])
        assert code == 0, err
        # The pool workers forked inside the command saw the flag.
        assert fresh_store.usage() == {}
        assert dict(os.environ) == before
        assert disk_enabled()

    def test_restored_when_the_command_raises(self, fresh_store,
                                              batch_dir, monkeypatch):
        import repro.core.batch

        def interrupted(*args, **kwargs):
            raise RuntimeError("stopped")

        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        monkeypatch.setattr(repro.core.batch, "apply_batch", interrupted)
        with pytest.raises(RuntimeError):
            main(["batch", str(batch_dir), "--no-disk-cache"])
        assert "REPRO_DISK_CACHE" not in os.environ


class TestEvalCli:
    def test_eval_help(self):
        from repro.eval.__main__ import main as eval_main
        old_argv = sys.argv
        sys.argv = ["repro.eval", "--help"]
        out = io.StringIO()
        old_out = sys.stdout
        sys.stdout = out
        try:
            assert eval_main() == 0
        finally:
            sys.stdout = old_out
            sys.argv = old_argv
        assert "table3" in out.getvalue()

    def test_eval_unknown(self):
        from repro.eval.__main__ import main as eval_main
        old_argv = sys.argv
        sys.argv = ["repro.eval", "nonsense"]
        try:
            assert eval_main() == 2
        finally:
            sys.argv = old_argv
