"""Tests for per-site backend composition (PR 7).

Covers: the mixed-site fixture where site mode provably beats every
whole-file candidate, the degradation ladder back to the PR 6 file-mode
answer, conflict-aware edit merging (with per-site fallback), per-site
edit capture in both the base ``Transformation.run`` path and STR's
cluster rewriter, determinism across worker counts and cache states,
and the arbitration-layer bug fixes riding along (rejected-candidate
verdict summaries, profiler attribution of the judge, clean
unknown-backend errors from every entry point).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.backends import (
    CANDIDATE_ERROR, CANDIDATE_REJECTED, COMPOSITE_BACKEND, FixBackend,
    BackendCandidate, SiteDecision, UnknownBackendError,
    arbitrate_file, arbitration_from_env, register_backend,
    resolve_arbitration, resolve_backends, scoreboard, unregister_backend,
)
from repro.core.batch import SourceProgram, apply_batch
from repro.core.session import get_session, reset_session
from repro.core.transform import (
    SiteOutcome, TRANSFORMED, TransformResult,
)

from .helpers import pp

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIXED_FIXTURE = os.path.join(REPO_ROOT, "examples", "c", "mixed",
                             "mixed_sites.c")

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
def _no_backend_env(monkeypatch):
    """Backend/arbitration selection comes from each test, never the
    outer environment."""
    monkeypatch.delenv("REPRO_BACKENDS", raising=False)
    monkeypatch.delenv("REPRO_ARBITRATION", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def mixed_text() -> str:
    with open(MIXED_FIXTURE, encoding="utf-8") as handle:
        return handle.read()


def mixed_program() -> SourceProgram:
    return SourceProgram("mixed", {"mixed_sites.c": mixed_text()})


# ----------------------------------------------------------- mode knob

class TestArbitrationKnob:
    def test_resolve_defaults_to_file(self):
        assert resolve_arbitration(None) == "file"
        assert resolve_arbitration("") == "file"

    def test_resolve_modes(self):
        assert resolve_arbitration("file") == "file"
        assert resolve_arbitration(" site ") == "site"

    def test_resolve_unknown_raises_listing_modes(self):
        with pytest.raises(ValueError) as err:
            resolve_arbitration("global")
        assert "file" in str(err.value) and "site" in str(err.value)

    def test_env_knob(self, monkeypatch):
        assert arbitration_from_env() is None
        monkeypatch.setenv("REPRO_ARBITRATION", "site")
        assert arbitration_from_env() == "site"

    def test_site_mode_requires_backends(self):
        with pytest.raises(ValueError) as err:
            apply_batch(mixed_program(), arbitration="site")
        assert "backends" in str(err.value)


# ------------------------------------------------- per-site edit capture

class TestEditCapture:
    def test_slr_outcomes_carry_edits(self):
        from repro.core.slr import apply_slr
        result = apply_slr(pp(mixed_text()), "mixed_sites.c")
        transformed = [o for o in result.outcomes if o.transformed]
        assert transformed
        assert all(o.edits for o in transformed)
        assert result.finalize_edits          # support-decl insertion

    def test_str_cluster_edits_attached(self):
        from repro.core.strtransform import apply_str
        result = apply_str(pp(mixed_text()), "mixed_sites.c")
        transformed = [o for o in result.outcomes if o.transformed]
        assert transformed
        # Every cluster's edits land on exactly one representative.
        assert any(o.edits for o in transformed)

    def test_edits_replay_to_whole_file_when_single_site(self):
        """One transformed site + finalize edits reproduce the whole
        transform byte-for-byte."""
        from repro.core.backends import _build_site_text
        from repro.core.slr import apply_slr
        text = pp(OVERFLOW_SRC)
        result = apply_slr(text, "o.c")
        transformed = [o for o in result.outcomes if o.transformed]
        assert len(transformed) == 1
        rebuilt = _build_site_text(text, transformed[0].edits,
                                   result.finalize_edits)
        assert rebuilt == result.new_text

    def test_rewriter_edits_since(self):
        from repro.cfront.rewriter import Rewriter
        rewriter = Rewriter("abcdef")
        mark = rewriter.checkpoint()
        rewriter.replace_range(1, 3, "X")
        assert rewriter.edits_since(mark) == ((1, 3, "X"),)
        assert rewriter.edits_since(rewriter.checkpoint()) == ()
        with pytest.raises(ValueError):
            rewriter.edits_since(99)


# ---------------------------------------------------- the mixed fixture

class TestMixedFixture:
    """The acceptance fixture: two overflow sites no single backend can
    fix together — SLR handles the strcpy, STR the index loop."""

    def _arbitrate(self, mode):
        return arbitrate_file(pp(mixed_text()), "mixed_sites.c",
                              ("slr", "str"), arbitration=mode)

    def test_file_mode_winner_misses_a_site(self):
        _, _, validation, report = self._arbitrate("file")
        best = max(c.overflows_prevented for c in report.candidates)
        assert validation.overflows_prevented == best
        assert report.mode == "file"
        assert "mode" not in report.as_dict()      # PR 6 JSON unchanged

    def test_site_mode_prevents_strictly_more(self):
        _, _, file_validation, file_report = self._arbitrate("file")
        final, parses, validation, report = self._arbitrate("site")
        assert parses
        assert report.winner == COMPOSITE_BACKEND
        assert report.composite_status == "shipped"
        assert validation.semantics_changed == 0
        best_whole_file = max(c.overflows_prevented
                              for c in file_report.candidates)
        assert validation.overflows_prevented > best_whole_file
        # Both backends contribute composed sites.
        winners = report.site_winner_counts()
        assert winners.get("slr", 0) >= 1
        assert winners.get("str", 0) >= 1
        assert final != pp(mixed_text())

    def test_site_decisions_recorded(self):
        *_, report = self._arbitrate("site")
        assert report.sites
        composed = [d for d in report.sites if d.composed]
        assert {d.winner for d in composed} == {"slr", "str"}
        for decision in composed:
            assert decision.site == (f"{decision.function}:"
                                     f"{decision.line}:{decision.target}")

    def test_default_mode_is_byte_identical_to_explicit_file(self):
        text = pp(mixed_text())
        default = arbitrate_file(text, "mixed_sites.c", ("slr", "str"))
        explicit = arbitrate_file(text, "mixed_sites.c", ("slr", "str"),
                                  arbitration="file")
        assert default[0] == explicit[0]
        assert default[3].winner == explicit[3].winner
        assert default[3].as_dict() == explicit[3].as_dict()

    def test_batch_site_mode_rollups(self):
        batch = apply_batch(mixed_program(), backends="slr,str",
                            arbitration="site", validate=True)
        assert batch.composites_shipped == 1
        totals = batch.site_winner_totals()
        assert totals.get("slr", 0) >= 1 and totals.get("str", 0) >= 1
        report = batch.reports[0]
        assert report.arbitration.winner == COMPOSITE_BACKEND
        assert report.validation.semantics_changed == 0


# --------------------------------------------- composition stub backends

def _edit_stub(backend_id, sites, finalize=()):
    """A FixBackend fabricating a TransformResult whose outcomes carry
    explicit per-site ``edits`` against the original text."""

    class Stub(FixBackend):
        id = backend_id
        title = backend_id

        def build(self, text, filename, session):
            raise NotImplementedError

        def run(self, text, filename, session=None):
            # The whole-file text only needs to be a changed, valid
            # file; a backend whose *own* sites conflict pairwise (the
            # scenario under test) could not replay them all anyway.
            outcomes = [
                SiteOutcome(
                    transformation=backend_id.upper(), target=target,
                    function=function, line=line, status=TRANSFORMED,
                    edits=tuple(edits))
                for function, line, target, edits in sites]
            new_text = text + f"/* {backend_id} */\n" if sites else text
            return TransformResult(backend_id.upper(), text, new_text,
                                   outcomes, backend=backend_id,
                                   finalize_edits=tuple(finalize))

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


class TestConflictMerging:
    """Overlapping winning edits fall back per site, deterministically,
    through the shared rewriter's checkpoint/rollback."""

    #: ``text[20:26]`` is ``"return"`` — both stubs rewrite whitespace
    #: around it so every composite stays valid, behaviour-identical C.
    SRC = "int main(void)\n{\n    return 0;\n}\n"

    def _run(self, backends):
        text = pp(self.SRC)
        ws = text.index("    return")
        tail = text.index(" 0;")
        # stub-p: site s1 and site s2 both rewrite the same indent run —
        # once s1 is composed, p's s2 edit conflicts with it.
        p = _edit_stub("stub-p", [
            ("main", 1, "s1", [(ws, ws + 4, "      ")]),
            ("main", 2, "s2", [(ws, ws + 2, "\t")]),
        ])
        # stub-q offers a non-conflicting fix for s2 elsewhere.
        q = _edit_stub("stub-q", [
            ("main", 2, "s2", [(tail, tail + 1, "  ")]),
        ])
        backends(p)
        backends(q)
        return arbitrate_file(text, "c.c", ("stub-p", "stub-q"),
                              arbitration="site")

    def test_conflicting_site_falls_back_to_next_backend(
            self, stub_backends):
        final, parses, validation, report = self._run(stub_backends)
        assert parses
        decisions = {d.target: d for d in report.sites}
        assert decisions["s1"].winner == "stub-p"
        fallback = decisions["s2"]
        assert fallback.composed and fallback.winner == "stub-q"
        assert "fell back from stub-p" in fallback.reason
        assert fallback.candidates == ("stub-p", "stub-q")

    def test_unresolvable_conflict_leaves_site_unfixed(
            self, stub_backends):
        text = pp(self.SRC)
        ws = text.index("    return")
        p = _edit_stub("stub-p", [
            ("main", 1, "s1", [(ws, ws + 4, "      ")]),
            ("main", 2, "s2", [(ws, ws + 2, "\t")]),
        ])
        stub_backends(p)
        *_, report = arbitrate_file(text, "c.c", ("stub-p",),
                                    arbitration="site")
        unfixed = [d for d in report.sites if not d.composed]
        assert len(unfixed) == 1
        assert "conflicts" in unfixed[0].reason

    def test_degrades_when_no_site_composable(self, stub_backends):
        """Candidates with no captured edits (or none eligible) degrade
        to the whole-file answer with an explicit rung recorded."""
        text = pp(self.SRC)
        stub_backends(_edit_stub("stub-none", []))
        final, parses, validation, report = arbitrate_file(
            text, "c.c", ("stub-none",), arbitration="site")
        assert report.composite_status == "degraded: no composable site"
        assert report.winner != COMPOSITE_BACKEND
        assert final == text

    def test_not_strictly_better_degrades_to_file_winner(
            self, stub_backends):
        """On a single-site file the composite can never beat the best
        whole-file candidate, so site mode ships the file-mode answer."""
        final_f, *_, report_f = arbitrate_file(
            pp(OVERFLOW_SRC), "o.c", ("slr",))
        final_s, *_, report_s = arbitrate_file(
            pp(OVERFLOW_SRC), "o.c", ("slr",), arbitration="site")
        assert report_s.composite_status.startswith("degraded:")
        assert "whole-file winner slr" in report_s.composite_status
        assert report_s.winner == "slr" == report_f.winner
        assert final_s == final_f


# ----------------------------------------------------------- determinism

class TestSiteDeterminism:
    def _outcome(self, **kwargs):
        batch = apply_batch(
            SourceProgram("mix", {
                "mixed_sites.c": mixed_text(),
                "plain.c": OVERFLOW_SRC,
            }),
            backends="slr,str", arbitration="site", validate=True,
            **kwargs)
        return (batch.winners(), batch.backend_scoreboard(),
                batch.site_winner_totals(), batch.composites_shipped)

    def test_jobs_1_vs_jobs_4_identical(self):
        assert self._outcome(jobs=1) == self._outcome(jobs=4)

    def test_cache_off_vs_warm_store_identical(self, fresh_store,
                                               monkeypatch):
        warm_1 = self._outcome(jobs=1)          # populates the store
        warm_2 = self._outcome(jobs=1)          # replays from it
        monkeypatch.setenv("REPRO_CACHE", "0")
        reset_session()
        cold = self._outcome(jobs=1)
        assert warm_1 == warm_2 == cold


# ------------------------------------- satellite: verdict_summary rendering

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


# --------------------------------- satellite: profiler stage attribution

class TestJudgeStageAttribution:
    def test_judge_time_lands_in_validate_stage(self, monkeypatch):
        import time

        import repro.core.backends as backends_mod
        from repro.core import profile
        from repro.core.validate import ValidationReport

        def slow_judge(original, candidate_text, filename, inputs):
            time.sleep(0.05)
            return ValidationReport(filename, [], unchanged=False)

        monkeypatch.setattr(backends_mod, "_judge", slow_judge)
        text = pp(OVERFLOW_SRC)
        with profile.collect("o.c") as times:
            arbitrate_file(text, "o.c", ("slr",))
        # The judge stub does not self-report a stage, so only the
        # arbitration-side wrapper can attribute its wall time.
        assert times.get("validate", 0.0) >= 0.04
        assert times.get("slr", 0.0) < 0.04


# ---------------------------------- satellite: clean unknown-backend errors

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

    def test_eval_validate_site_without_backends(self, capsys):
        from repro.eval.validate import main
        with pytest.raises(SystemExit) as err:
            main(["--arbitration", "site", "--scale", "0.01",
                  "--limit", "1", "--no-corpus"])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "error: site arbitration requires" in captured.err


# ------------------------- satellite: report round-trip and aggregation

class TestReportRoundTrip:
    def _site_report(self):
        *_, report = arbitrate_file(pp(mixed_text()), "mixed_sites.c",
                                    ("slr", "str"), arbitration="site")
        return report

    def test_as_dict_json_round_trip(self):
        report = self._site_report()
        payload = report.as_dict()
        assert payload["mode"] == "site"
        assert payload["composite_status"] == "shipped"
        assert payload["sites"]
        rebuilt = json.loads(json.dumps(payload, sort_keys=True))
        assert rebuilt == payload

    def test_site_decision_round_trip(self):
        decision = SiteDecision("main", "buf", 7, winner="slr",
                                composed=True, overflows_prevented=2,
                                candidates=("slr", "str"))
        rebuilt = json.loads(json.dumps(decision.as_dict()))
        assert rebuilt["site"] == "main:7:buf"
        assert rebuilt["candidates"] == ["slr", "str"]

    def _mixed_status_outcome(self, **kwargs):
        """A batch whose candidates span error / rejected / runner-up /
        selected statuses, for aggregation tests."""
        batch = apply_batch(
            SourceProgram("mix", {
                f"f{i}.c": OVERFLOW_SRC.replace("got:", f"got{i}:")
                for i in range(3)}),
            backends="tr24731,slr,s3lib", validate=True, **kwargs)
        return batch

    def test_scoreboard_over_mixed_statuses(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tr24731:exception:1.0")
        batch = self._mixed_status_outcome()
        board = batch.backend_scoreboard()
        assert board["tr24731"]["errors"] == 3
        assert sum(row["selected"] for row in board.values()) == 3
        assert "sites_won" not in board["slr"]     # file-mode shape
        rebuilt = json.loads(json.dumps(board, sort_keys=True))
        assert rebuilt == board

    def test_mixed_statuses_deterministic(self, fresh_store,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tr24731:exception:1.0")

        def outcome(**kwargs):
            batch = self._mixed_status_outcome(**kwargs)
            return (batch.winners(), batch.backend_scoreboard())

        warm = outcome(jobs=1)
        assert warm == outcome(jobs=4)              # jobs determinism
        assert warm == outcome(jobs=1)              # warm-store replay
        monkeypatch.setenv("REPRO_CACHE", "0")
        reset_session()
        assert warm == outcome(jobs=1)              # cold determinism

    def test_scoreboard_sites_won_only_in_site_mode(self):
        report = self._site_report()
        board = scoreboard([report])
        assert board["slr"]["sites_won"] >= 1
        assert board["str"]["sites_won"] >= 1
        *_, file_report = arbitrate_file(pp(OVERFLOW_SRC), "o.c",
                                         ("slr",))
        assert "sites_won" not in scoreboard([file_report])["slr"]


# ------------------------------------------------------ rendered surfaces

class TestSiteRendering:
    def _batch(self):
        return apply_batch(mixed_program(), backends="slr,str",
                           arbitration="site", validate=True)

    def test_scoreboard_renders_sites_won(self):
        from repro.core.report import render_backend_scoreboard
        text = render_backend_scoreboard(self._batch())
        assert "sites-won" in text
        assert "composite(s) shipped" in text
        assert "site winners:" in text

    def test_diagnostics_payload_site_section(self):
        from repro.core.report import diagnostics_payload
        payload = diagnostics_payload(self._batch())
        section = payload["backends"]
        assert section["arbitration_mode"] == "site"
        assert section["composites_shipped"] == 1
        assert section["site_winners"].get("slr", 0) >= 1
        arb = section["arbitrations"][0]
        assert arb["mode"] == "site"
        assert arb["winner"] == COMPOSITE_BACKEND
        json.dumps(payload, sort_keys=True)         # JSON-clean

    def test_eval_scoreboard_payload_and_render(self):
        from repro.eval.validate import (
            ValidationEvalResult, ValidationRow,
        )
        result = ValidationEvalResult(
            samate_rows=[ValidationRow("CWE-121", 1, 4,
                                       {"identical": 4})],
            backends=("slr", "str"), arbitration="site",
            scoreboard={"slr": {
                "attempted": 1, "changed": 1, "selected": 0,
                "rejected": 0, "errors": 0, "overflow_prevented": 2,
                "sites_won": 1}})
        payload = result.scoreboard_payload()
        assert payload["arbitration"] == "site"
        text = result.render()
        assert "[arbitration: site]" in text
        assert "Sites-won" in text

    def test_cli_batch_site_flag(self, tmp_path, capsys):
        from repro.cli import main
        (tmp_path / "mixed_sites.c").write_text(mixed_text(),
                                                encoding="utf-8")
        code = main(["batch", str(tmp_path), "--backends", "slr,str",
                     "--arbitration", "site", "--validate"])
        captured = capsys.readouterr()
        assert code == 0
        assert COMPOSITE_BACKEND in captured.out
        assert "composite(s) over" in captured.err
