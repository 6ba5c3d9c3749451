"""Tests for the command-line interfaces."""

import io
import json
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
        assert "misses=" in out             # live counters rendered

    def test_stats_json_payload(self, fresh_store, batch_dir):
        from repro.cfront.cache import clear_all_caches
        assert run_cli(["batch", batch_dir])[0] == 0
        # Empty the memory LRUs, as a second process would start.
        clear_all_caches()
        assert run_cli(["batch", batch_dir])[0] == 0
        code, out, _ = run_cli(["cache", "stats", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["counters", "fingerprint", "root",
                                   "schema_version", "stale_versions",
                                   "usage"]
        assert payload["counters"]["preprocess"]["hits"] > 0

    def test_clear_empties_store(self, fresh_store, batch_dir):
        run_cli(["batch", batch_dir])
        code, out, _ = run_cli(["cache", "clear"])
        assert code == 0 and "cleared" in out
        assert fresh_store.usage() == {}

    def test_gc_runs_clean(self, fresh_store, batch_dir):
        run_cli(["batch", batch_dir])
        code, out, _ = run_cli(["cache", "gc"])
        assert code == 0
        assert "removed 0 file(s)" in out
        code, out, _ = run_cli(["cache", "gc", "--max-age-days", "0"])
        assert code == 0
        assert "removed 0 file(s)" not in out

    def test_no_disk_cache_flag(self, fresh_store, batch_dir,
                                monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "1")
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

    def test_no_profile_no_stage_table(self, fresh_store, batch_dir,
                                       monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        code, out, _ = run_cli(["batch", batch_dir])
        assert code == 0
        assert "mean ms/file" not in out

    def test_repro_profile_env(self, fresh_store, batch_dir,
                               monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        code, out, _ = run_cli(["batch", batch_dir])
        assert code == 0
        assert "mean ms/file" in out


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
