"""Tests for the arbitration layer's reports and entry points.

Covers: rejected-candidate verdict summaries, profiler attribution of
the judge, clean unknown-backend errors from every entry point, the
report's JSON round trip, the scoreboard over mixed candidate statuses
(and its determinism across worker counts and cache states), and the
rewriter's edit capture that finalize edits and the incremental engine
rely on.
"""

from __future__ import annotations

import json

import pytest

from repro.core.backends import (
    CANDIDATE_ERROR, CANDIDATE_REJECTED, FixBackend, BackendCandidate,
    UnknownBackendError, arbitrate_file, register_backend,
    resolve_backends, unregister_backend,
)
from repro.core.batch import SourceProgram, apply_batch
from repro.core.session import reset_session
from repro.core.transform import (
    SiteOutcome, TRANSFORMED, TransformResult,
)

from .helpers import pp

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


@pytest.fixture(autouse=True)
def _no_fault_env(monkeypatch):
    """Faults come from each test, never the outer environment."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


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


class TestEditCapture:
    def test_rewriter_edits_since(self):
        from repro.cfront.rewriter import Rewriter
        rewriter = Rewriter("abcdef")
        mark = rewriter.checkpoint()
        rewriter.replace_range(1, 3, "X")
        assert rewriter.edits_since(mark) == ((1, 3, "X"),)
        assert rewriter.edits_since(rewriter.checkpoint()) == ()
        with pytest.raises(ValueError):
            rewriter.edits_since(99)


# ------------------------------------------------ verdict_summary rendering

class TestRejectedVerdictSummary:
    def _parse_breaker(self):
        class Breaker(FixBackend):
            id = "stub-noparse"
            title = "stub-noparse"

            def build(self, text, filename, session):
                raise NotImplementedError

            def run(self, text, filename, session=None):
                broken = text + "\nint oops( {\n"
                outcome = SiteOutcome(
                    transformation="STUB", target="oops",
                    function="main", line=1, status=TRANSFORMED)
                return TransformResult("STUB", text, broken, [outcome],
                                       backend="stub-noparse")

        return Breaker()

    def test_parse_rejected_candidate_reports_reason(self):
        candidate = BackendCandidate(
            "x", None, parses=False, status=CANDIDATE_REJECTED,
            reason="transformed text does not parse")
        assert candidate.verdict_summary() \
            == "rejected: transformed text does not parse"

    def test_error_and_skip_summaries_unchanged(self):
        assert BackendCandidate("x", None, status=CANDIDATE_ERROR) \
            .verdict_summary() == "error"
        assert BackendCandidate("x", None).verdict_summary() == "skip"

    def test_report_table_surfaces_parse_rejection(self, stub_backends,
                                                   tmp_path):
        from repro.core.report import (
            render_backend_scoreboard, render_batch_stats,
        )
        stub_backends(self._parse_breaker())
        batch = apply_batch(
            SourceProgram("p", {"a.c": OVERFLOW_SRC}),
            backends="stub-noparse", validate=True)
        report = batch.reports[0]
        assert report.arbitration.winner is None
        assert report.validation is None
        stats_text = render_batch_stats(batch)
        assert "stub-noparse rejected: transformed text does not parse" \
            in stats_text
        board_text = render_backend_scoreboard(batch)
        assert "rejected candidates:" in board_text
        assert "a.c stub-noparse: rejected: transformed text does " \
               "not parse" in board_text


# -------------------------------------------- profiler stage attribution

class TestJudgeStageAttribution:
    def test_judge_time_lands_in_validate_stage(self, monkeypatch):
        import time

        import repro.core.backends as backends_mod
        from repro.core import profile
        from repro.core.validate import ValidationReport

        def slow_judge(original, candidate_text, *, filename, inputs):
            time.sleep(0.05)
            return ValidationReport(filename, [], unchanged=False)

        monkeypatch.setattr(backends_mod, "validate_pair", slow_judge)
        text = pp(OVERFLOW_SRC)
        with profile.collect("o.c") as times:
            arbitrate_file(text, "o.c", ("slr",))
        # The judge stub does not self-report a stage, so only the
        # arbitration-side wrapper can attribute its wall time.
        assert times.get("validate", 0.0) >= 0.04
        assert times.get("slr", 0.0) < 0.04


# --------------------------------------------- clean unknown-backend errors

class TestUnknownBackendErrors:
    def test_error_type_and_message(self):
        with pytest.raises(UnknownBackendError) as err:
            resolve_backends("slr,bogus")
        assert isinstance(err.value, KeyError)
        message = str(err.value)
        assert message.startswith("unknown fix backend 'bogus'")
        assert "slr" in message          # lists the registered ids

    def test_cli_validate_unknown_backend(self, tmp_path, capsys):
        from repro.cli import main
        (tmp_path / "a.c").write_text(OVERFLOW_SRC, encoding="utf-8")
        code = main(["validate", str(tmp_path), "--backends", "bogus"])
        captured = capsys.readouterr()
        assert code == 1
        assert "unknown fix backend 'bogus'" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_eval_validate_unknown_backend(self, capsys):
        from repro.eval.validate import main
        with pytest.raises(SystemExit) as err:
            main(["--backends", "bogus", "--scale", "0.01",
                  "--limit", "1", "--no-corpus"])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "error: unknown fix backend 'bogus'" in captured.err
        assert "Traceback" not in captured.err


# ------------------------------------ report round-trip and aggregation

class TestReportRoundTrip:
    def test_as_dict_json_round_trip(self):
        *_, report = arbitrate_file(pp(OVERFLOW_SRC), "o.c",
                                    ("slr", "str", "s3lib"))
        payload = report.as_dict()
        assert sorted(payload) == ["backends", "candidates", "filename",
                                   "winner"]
        assert payload["winner"] is not None
        assert [c["backend"] for c in payload["candidates"]] \
            == ["slr", "str", "s3lib"]
        rebuilt = json.loads(json.dumps(payload, sort_keys=True))
        assert rebuilt == payload

    def _mixed_status_outcome(self, **kwargs):
        """A batch whose candidates span error / rejected / runner-up /
        selected statuses, for aggregation tests."""
        batch = apply_batch(
            SourceProgram("mix", {
                f"f{i}.c": OVERFLOW_SRC.replace("got:", f"got{i}:")
                for i in range(3)}),
            backends="s3lib,slr,str", validate=True, **kwargs)
        return batch

    def test_scoreboard_over_mixed_statuses(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "s3lib:exception:1.0")
        batch = self._mixed_status_outcome()
        board = batch.backend_scoreboard()
        assert board["s3lib"]["errors"] == 3
        assert sum(row["selected"] for row in board.values()) == 3
        rebuilt = json.loads(json.dumps(board, sort_keys=True))
        assert rebuilt == board

    def test_mixed_statuses_deterministic(self, fresh_store,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "s3lib:exception:1.0")

        def outcome(**kwargs):
            batch = self._mixed_status_outcome(**kwargs)
            return (batch.winners(), batch.backend_scoreboard())

        warm = outcome(jobs=1)
        assert warm == outcome(jobs=4)              # jobs determinism
        assert warm == outcome(jobs=1)              # warm-store replay
        monkeypatch.setenv("REPRO_CACHE", "0")
        reset_session()
        assert warm == outcome(jobs=1)              # cold determinism
