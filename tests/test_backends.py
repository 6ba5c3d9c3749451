"""Tests for the pluggable fix-backend registry and oracle-arbitrated
per-file best-fix selection (PR 6).

Covers: the registry surface (register/resolve/env), the s3lib
backend's signature-preserving wrappers as a transform *and* under the
VM, why s3lib stays registered (it wins corpus files SLR cannot fully
fix), arbitration's verdict ordering and fault containment, determinism
across worker counts and cache states, and the batch/report/CLI
integration.
"""

from __future__ import annotations

import os

import pytest

from repro.core.backends import (
    ARBITRATION_VERSION, CANDIDATE_ERROR, CANDIDATE_REJECTED,
    CANDIDATE_SELECTED, DEFAULT_BACKENDS, FixBackend, arbitrate_file,
    backend_ids, cached_backend_run, get_backend,
    register_backend, resolve_backends, scoreboard, unregister_backend,
)
from repro.core.batch import SourceProgram, apply_batch
from repro.core.s3lib import apply_s3lib
from repro.core.session import get_session, reset_session
from repro.core.transform import TransformResult

from .helpers import pp, run

OVERFLOW_SRC = """\
#include <stdio.h>
#include <string.h>
int main(void) {
    char buf[8];
    char line[64];
    if (fgets(line, 64, stdin)) {
        strcpy(buf, line);
        printf("got:%s", buf);
    }
    return 0;
}
"""

#: SLR's Algorithm 1 cannot size ``d`` (pointer parameter, no local
#: declaration) — the s3lib backend has no such precondition.
UNSIZABLE_SRC = """\
#include <stdio.h>
#include <string.h>
void copy(char *d, const char *s) {
    strcpy(d, s);
}
int main(void) {
    char buf[8];
    copy(buf, "0123456789abcdef");
    printf("%s\\n", buf);
    return 0;
}
"""


@pytest.fixture(autouse=True)
def _no_fault_env(monkeypatch):
    """Faults come from each test, never the outer env."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


class TestRegistry:
    def test_standard_backends_registered(self):
        assert set(DEFAULT_BACKENDS) <= set(backend_ids())
        assert {"slr", "str", "s3lib"} <= set(backend_ids())

    def test_backend_metadata(self):
        for backend_id in ("slr", "str", "s3lib"):
            backend = get_backend(backend_id)
            assert backend.id == backend_id
            assert backend.title
            assert backend.description

    def test_register_duplicate_raises(self):
        with pytest.raises(ValueError):
            register_backend(get_backend("slr"))

    def test_register_replace_and_unregister(self):
        class Stub(FixBackend):
            id = "stub-reg"
            title = "stub"

            def build(self, text, filename, session):
                raise NotImplementedError

        register_backend(Stub())
        try:
            register_backend(Stub(), replace=True)   # no raise
            assert "stub-reg" in backend_ids()
        finally:
            unregister_backend("stub-reg")
        assert "stub-reg" not in backend_ids()

    def test_register_empty_id_raises(self):
        with pytest.raises(ValueError):
            register_backend(FixBackend())

    def test_resolve_comma_string(self):
        assert resolve_backends("slr, s3lib") == ("slr", "s3lib")

    def test_resolve_iterable_and_dedup_preserves_order(self):
        assert resolve_backends(["s3lib", "slr", "s3lib"]) \
            == ("s3lib", "slr")

    def test_resolve_all(self):
        assert resolve_backends("all") == backend_ids()

    def test_resolve_unknown_raises(self):
        with pytest.raises(KeyError):
            resolve_backends("slr,nope")

    def test_resolve_empty_raises(self):
        with pytest.raises(ValueError):
            resolve_backends("")


class TestS3LibBackend:
    def test_renames_calls_and_declares_wrappers(self):
        result = apply_s3lib(pp(OVERFLOW_SRC), "t.c")
        assert result.transformed_count == 1      # the strcpy site
        assert "s3_strcpy(" in result.new_text
        assert "char *s3_strcpy(" in result.new_text

    def test_no_buffer_length_precondition(self):
        """The pointer-parameter destination SLR cannot size is still
        transformable: s3lib never computes a length expression."""
        from repro.core.slr import apply_slr
        text = pp(UNSIZABLE_SRC)
        slr = apply_slr(text, "u.c")
        assert slr.transformed_count == 0         # Algorithm 1 fails
        s3 = apply_s3lib(text, "u.c")
        assert s3.transformed_count == 1

    def test_truncates_at_block_capacity_under_vm(self):
        text = pp(UNSIZABLE_SRC)
        s3 = apply_s3lib(text, "u.c")
        before = run(text, preprocess=False)
        after = run(s3.new_text, preprocess=False)
        assert before.fault is not None
        assert after.fault is None
        assert after.stdout == b"0123456\n"       # 8-byte buf, NUL kept

    def test_s3_gets_and_sprintf_natives(self):
        src = """\
int printf(const char *format, ...);
char *s3_gets(char *dest);
int s3_sprintf(char *dest, const char *format, ...);
int main(void) {
    char buf[6];
    char out[8];
    if (s3_gets(buf)) printf("g:%s\\n", buf);
    int n = s3_sprintf(out, "%s!", "0123456789");
    printf("s:%s:%d\\n", out, n);
    return 0;
}
"""
        result = run(src, stdin=b"abcdefghij\n", preprocess=False)
        assert result.fault is None
        assert b"g:abcde\n" in result.stdout      # capped at 6 - NUL
        assert b"s:0123456:7\n" in result.stdout  # capped at 8 - NUL

    def test_wins_corpus_sites_slr_cannot_size(self):
        """Why s3lib stays registered: on zlib's unsafe-call file it
        fixes every site, where SLR's Algorithm 1 sizes only 26 of 36."""
        from repro.corpus import build_all
        program = build_all()["zlib"].preprocess()
        text = program.files["sites_zlib.c"]
        *_, report = arbitrate_file(text, "sites_zlib.c",
                                    ("slr", "str", "s3lib"))
        assert report.winner == "s3lib"
        s3lib = report.candidate_for("s3lib")
        slr = report.candidate_for("slr")
        assert (s3lib.transformed_count, s3lib.candidates) == (36, 36)
        assert (slr.transformed_count, slr.candidates) == (26, 36)


def _stub_backend(backend_id, rewrite):
    """A FixBackend whose run() fabricates a TransformResult by applying
    ``rewrite`` to the text (no Transformation machinery)."""
    from repro.core.transform import SiteOutcome, TRANSFORMED

    class Stub(FixBackend):
        id = backend_id
        title = backend_id

        def build(self, text, filename, session):
            raise NotImplementedError

        def run(self, text, filename, session=None):
            new_text = rewrite(text)
            outcome = SiteOutcome(transformation=backend_id.upper(),
                                  target="stub", function="main", line=1,
                                  status=TRANSFORMED)
            result = TransformResult(backend_id.upper(), text, new_text,
                                     [outcome] if new_text != text else [])
            result.backend = backend_id
            return result

    return Stub()


@pytest.fixture
def stub_backends():
    registered = []

    def add(backend):
        register_backend(backend, replace=True)
        registered.append(backend.id)
        return backend

    yield add
    for backend_id in registered:
        unregister_backend(backend_id)


class TestArbitration:
    def test_winner_prevents_overflow_and_is_judged(self):
        text = pp(OVERFLOW_SRC)
        final, parses, validation, report = arbitrate_file(
            text, "o.c", ("slr", "str", "s3lib"))
        assert parses
        assert report.winner is not None
        winning = report.winning_candidate
        assert winning.status == CANDIDATE_SELECTED
        assert final == winning.result.new_text
        assert validation is winning.validation
        assert validation.semantics_changed == 0
        assert validation.overflows_prevented > 0

    def test_order_is_the_tie_break(self, stub_backends):
        same = lambda text: text + "/* fixed */\n"
        stub_backends(_stub_backend("stub-a", same))
        stub_backends(_stub_backend("stub-b", same))
        text = pp("int main(void) { return 0; }\n")
        *_, report_ab = arbitrate_file(text, "t.c", ("stub-a", "stub-b"))
        *_, report_ba = arbitrate_file(text, "t.c", ("stub-b", "stub-a"))
        assert report_ab.winner == "stub-a"
        assert report_ba.winner == "stub-b"

    def test_semantics_changed_candidate_never_selected(
            self, stub_backends):
        """A backend whose rewrite changes observable behaviour is
        disqualified; the honest backend wins instead."""
        stub_backends(_stub_backend(
            "breaker", lambda text: text.replace("got:", "BAD:")))
        text = pp(OVERFLOW_SRC)
        final, _, _, report = arbitrate_file(
            text, "o.c", ("breaker", "slr"))
        breaker = report.candidate_for("breaker")
        assert breaker.status == CANDIDATE_REJECTED
        assert "semantics-changed" in breaker.reason
        assert report.winner == "slr"
        assert "BAD:" not in final

    def test_no_eligible_candidate_ships_input_verbatim(
            self, stub_backends):
        stub_backends(_stub_backend(
            "breaker", lambda text: text.replace("got:", "BAD:")))
        text = pp(OVERFLOW_SRC)
        final, parses, validation, report = arbitrate_file(
            text, "o.c", ("breaker",))
        assert final == text
        assert parses
        assert validation is None
        assert report.winner is None

    def test_backend_failure_degrades_to_next_best(self, monkeypatch):
        """An injected backend crash is contained as a candidate error
        (with a diagnostic) and a surviving backend's fix ships — never
        a worse file."""
        monkeypatch.setenv("REPRO_FAULTS", "s3lib:exception:1.0")
        text = pp(OVERFLOW_SRC)
        diagnostics = []
        final, _, _, report = arbitrate_file(
            text, "o.c", ("s3lib", "slr"), diagnostics=diagnostics)
        failed = report.candidate_for("s3lib")
        assert failed.status == CANDIDATE_ERROR
        assert report.winner == "slr"
        assert final == report.winning_candidate.result.new_text
        assert [d.stage for d in diagnostics] == ["s3lib"]

    def test_all_backends_failed_ships_input_verbatim(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "s3lib:exception:1.0,str:exception:1.0")
        text = pp(OVERFLOW_SRC)
        final, parses, validation, report = arbitrate_file(
            text, "o.c", ("s3lib", "str"))
        assert final == text
        assert parses and validation is None and report.winner is None
        assert all(c.status == CANDIDATE_ERROR
                   for c in report.candidates)

    def test_scoreboard_aggregation(self):
        text = pp(OVERFLOW_SRC)
        *_, report = arbitrate_file(text, "o.c", ("slr", "s3lib"))
        board = scoreboard([report])
        assert board["slr"]["attempted"] == 1
        assert board["slr"]["selected"] + board["s3lib"]["selected"] == 1
        total = sum(row["selected"] + row["runner_up"] + row["rejected"]
                    + row["no_change"] + row["not_applicable"]
                    + row["errors"] for row in board.values())
        assert total == 2

    def test_backend_cache_shares_results(self, monkeypatch):
        from repro.core.backends import _BACKEND_CACHE
        text = pp(OVERFLOW_SRC)
        base = _BACKEND_CACHE.stats
        cached_backend_run("s3lib", text, "c.c")
        misses = base.misses
        again = cached_backend_run("s3lib", text, "c.c")
        assert base.misses == misses              # second call is a hit
        assert again.backend == "s3lib"


def _program(n=3):
    files = {f"f{i}.c": OVERFLOW_SRC.replace("got:", f"got{i}:")
             for i in range(n)}
    return SourceProgram("arbtest", files)


class TestBatchArbitration:
    def test_batch_selects_validated_fixes(self):
        batch = apply_batch(_program(), backends="slr,str,s3lib",
                            validate=True)
        assert batch.all_parse and batch.semantics_preserved
        for report in batch.reports:
            assert report.arbitration is not None
            assert report.slr is None and report.str_ is None
            winning = report.arbitration.winning_candidate
            assert winning is not None
            assert report.validation is winning.validation
            assert report.validation.semantics_changed == 0
        assert batch.backends_attempted == 3 * 3
        board = batch.backend_scoreboard()
        assert sum(row["selected"] for row in board.values()) == 3

    def test_oracle_always_judges_even_without_validate(self):
        batch = apply_batch(_program(1), backends="slr")
        report = batch.reports[0]
        assert report.validation is not None
        assert report.validation.overflows_prevented > 0

    def test_env_knob_does_not_reach_library_callers(self, monkeypatch):
        """``REPRO_BACKENDS`` is retired: a value left in the environment
        changes nothing, and the corpus's SLR-only batch still yields
        Table V's 259/317."""
        from repro.corpus import build_all
        monkeypatch.setenv("REPRO_BACKENDS", "slr,str")
        done = total = 0
        for program in build_all().values():
            batch = apply_batch(program, run_slr=True, run_str=False)
            assert not batch.arbitrations()
            done += batch.transformed("SLR")
            total += batch.candidates("SLR")
        assert (done, total) == (259, 317)

    def test_legacy_mode_untouched_without_backends(self):
        batch = apply_batch(_program(1))
        report = batch.reports[0]
        assert report.arbitration is None
        assert report.slr is not None

    def test_diagnostics_payload_backends_section(self):
        from repro.core.report import diagnostics_payload
        batch = apply_batch(_program(2), backends="slr,s3lib")
        payload = diagnostics_payload(batch)
        section = payload["backends"]
        assert section["requested"] == ["slr", "s3lib"]
        assert section["attempted"] == 4
        assert set(section["winners"]) == {"f0.c", "f1.c"}
        assert set(section["scoreboard"]) == {"slr", "s3lib"}
        assert len(section["arbitrations"]) == 2

    def test_render_surfaces_winner_and_scoreboard(self):
        from repro.core.report import (
            render_backend_scoreboard, render_batch_stats,
        )
        batch = apply_batch(_program(1), backends="slr,s3lib",
                            validate=True)
        stats_text = render_batch_stats(batch)
        winner = batch.reports[0].arbitration.winner
        assert "winner" in stats_text
        assert f"ok ({winner})" in stats_text
        board_text = render_backend_scoreboard(batch)
        assert "slr" in board_text and "s3lib" in board_text
        assert "candidate(s) attempted" in board_text


class TestArbitrationDeterminism:
    """PR 6 satellite: identical winners and scoreboards at any worker
    count and any cache state."""

    def _outcome(self, **kwargs):
        batch = apply_batch(_program(4), backends="slr,str,s3lib",
                            validate=True, **kwargs)
        return batch.winners(), batch.backend_scoreboard()

    def test_jobs_1_vs_jobs_4_identical(self):
        assert self._outcome(jobs=1) == self._outcome(jobs=4)

    def test_cache_off_vs_warm_store_identical(self, fresh_store,
                                               monkeypatch):
        warm_1 = self._outcome(jobs=1)            # populates the store
        warm_2 = self._outcome(jobs=1)            # replays from it
        monkeypatch.setenv("REPRO_CACHE", "0")
        reset_session()
        cold = self._outcome(jobs=1)
        assert warm_1 == warm_2 == cold

    def test_faulted_run_is_deterministic_and_never_worse(
            self, monkeypatch):
        """With one backend failing on every file, both worker counts
        pick the same (next-best) winners, report the same statuses and
        diagnostics, and every shipped file is a validated fix or the
        input verbatim.  Twelve files: a failing backend is tried on
        every one of them, however the files are spread over workers."""
        monkeypatch.setenv("REPRO_FAULTS", "s3lib:exception:1.0")
        batch_1 = apply_batch(_program(12),
                              backends="s3lib,slr,str", jobs=1)
        batch_4 = apply_batch(_program(12),
                              backends="s3lib,slr,str", jobs=4)

        def outcome(batch):
            return [(report.filename, report.status,
                     [(d.stage, d.kind) for d in report.diagnostics])
                    for report in batch.reports]

        assert outcome(batch_1) == outcome(batch_4)
        assert batch_1.winners() == batch_4.winners()
        assert batch_1.backend_scoreboard() \
            == batch_4.backend_scoreboard()
        for _, status, diagnostics in outcome(batch_1):
            assert status == "degraded"
            assert [stage for stage, _ in diagnostics] == ["s3lib"]
        board = batch_1.backend_scoreboard()
        assert board["s3lib"]["errors"] == 12
        for report in batch_1.reports:
            winning = report.arbitration.winning_candidate
            if winning is None:
                assert report.final_text == report.original_text
            else:
                assert winning.validation.semantics_changed == 0


class TestBackendsCLI:
    def test_backends_subcommand_lists_registry(self, capsys):
        from repro.cli import main
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for backend_id in ("slr", "str", "s3lib"):
            assert backend_id in out

    def test_batch_backends_flag(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.cli import main
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "a.c").write_text(OVERFLOW_SRC,
                                              encoding="utf-8")
        code = main(["batch", str(tmp_path / "src"), "--backends",
                     "slr,s3lib", "--validate", "--run-id", "flag"])
        captured = capsys.readouterr()
        assert code == 0
        assert "winner" in captured.out
        assert "arbitration: 1/1 file(s) fixed" in captured.err
        manifest = tmp_path / "runs" / "flag" / "manifest.json"
        settings = json.loads(manifest.read_text())["settings"]
        assert settings["backends"] == "slr,s3lib"

    def test_batch_unknown_backend_errors(self, tmp_path, capsys):
        from repro.cli import main
        (tmp_path / "a.c").write_text(OVERFLOW_SRC, encoding="utf-8")
        code = main(["batch", str(tmp_path), "--backends", "bogus"])
        assert code == 1
        assert "unknown fix backend" in capsys.readouterr().err

