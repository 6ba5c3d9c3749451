"""End-to-end: the malformed corpus under ``examples/c/bad`` flows
through ``repro batch`` producing diagnostics, not tracebacks, while the
well-formed sibling still transforms."""

import json
import os

import pytest

from repro.cli import main

BAD_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                       "examples", "c", "bad")

#: filename -> (expected status, expected failing stage or None)
EXPECTED = {
    "good_sibling.c": ("ok", None),
    "syntax_error.c": ("failed", "parse"),
    "missing_header.c": ("failed", "preprocess"),
    "garbage.c": ("failed", "preprocess"),
    "unsupported.c": ("failed", "parse"),
}


@pytest.fixture()
def run_batch(tmp_path, capsys):
    def run(*extra_args):
        diag_path = tmp_path / "diagnostics.json"
        code = main(["batch", BAD_DIR, "--jobs", "2",
                     "--diagnostics-json", str(diag_path), *extra_args])
        captured = capsys.readouterr()
        with open(diag_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        return code, captured, payload
    return run


class TestBadCorpus:
    def test_corpus_files_exist(self):
        assert sorted(os.listdir(BAD_DIR)) == sorted(EXPECTED)

    def test_batch_contains_failures(self, run_batch):
        code, captured, payload = run_batch()
        # Non-strict: contained failures do not fail the run.
        assert code == 0
        # No traceback ever reaches the user-facing output.
        assert "Traceback" not in captured.out
        assert "Traceback" not in captured.err
        assert payload["statuses"] == {
            name: status for name, (status, _stage) in EXPECTED.items()}
        by_file = {d["filename"]: d for d in payload["diagnostics"]}
        for name, (_status, stage) in EXPECTED.items():
            if stage is None:
                assert name not in by_file
            else:
                assert by_file[name]["stage"] == stage
                assert by_file[name]["message"]
                assert by_file[name]["location"].startswith(name)

    def test_good_sibling_still_transforms(self, run_batch):
        _code, captured, _payload = run_batch()
        # The well-formed sibling's unsafe calls were rewritten.
        assert "[FIXED] SLR good_sibling.c" in captured.err

    def test_strict_flag_fails_the_run(self, run_batch):
        code, _captured, payload = run_batch("--strict")
        assert code == 1
        assert payload["status_counts"]["failed"] == 4
        assert payload["status_counts"]["ok"] == 1

    def test_warm_rerun_diagnostics_identical(self, run_batch,
                                              fresh_store):
        """Failures are never stored, so a rerun on the same store
        recomputes every diagnostic, traceback included, identically."""
        from repro.cfront.cache import clear_all_caches
        from repro.core.session import reset_session
        _code, _captured, cold = run_batch()
        clear_all_caches()
        reset_session()
        _code, _captured, warm = run_batch()
        assert fresh_store.usage()["preprocess"]["entries"] >= 1
        assert warm == cold

    def test_diagnostics_table_rendered(self, run_batch):
        _code, captured, _payload = run_batch()
        assert "failures by stage:" in captured.out
        assert "ParseError" in captured.out
        assert "PreprocessorError" in captured.out
