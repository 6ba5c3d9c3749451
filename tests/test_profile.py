"""Tests for the stage-level profiler and its pipeline integration."""

import time

from repro.core import profile
from repro.core.batch import FileTask, SourceProgram, apply_batch, \
    transform_file
from repro.core.report import render_profile
from repro.core.session import get_session

SRC = """\
#include <stdio.h>
#include <string.h>
int main(void) {
    char buf[8];
    char line[64];
    if (fgets(line, 64, stdin)) {
        strcpy(buf, line);
        printf("profile-test:%s", buf);
    }
    return 0;
}
"""


class TestCollector:
    def test_stage_is_noop_without_collector(self):
        with profile.stage("slr"):
            pass                        # must not raise or record

    def test_collect_records_stage_times(self):
        with profile.collect("f.c") as times:
            with profile.stage("parse"):
                time.sleep(0.002)
        assert times["parse"] >= 0.002

    def test_nested_stage_times_are_exclusive(self):
        with profile.collect("f.c") as times:
            with profile.stage("slr"):
                time.sleep(0.004)
                with profile.stage("parse"):
                    time.sleep(0.004)
        # The inner parse is charged to "parse", not double-counted
        # under "slr"; both stages sum to the true wall time.
        assert times["parse"] >= 0.004
        assert times["slr"] >= 0.003
        assert times["slr"] + times["parse"] < 0.1

    def test_record_charges_innermost_collector(self):
        with profile.collect("outer.c") as outer:
            with profile.collect("inner.c") as inner:
                profile.record("preprocess", 1.5)
            profile.record("preprocess", 0.5)
        assert inner == {"preprocess": 1.5}
        assert outer == {"preprocess": 0.5}

    def test_record_without_collector_is_noop(self):
        profile.record("preprocess", 1.0)


class TestAnalyzeSubStages:
    def test_lazy_analyses_record_substages(self):
        from repro.core.session import AnalysisSession
        session = AnalysisSession()
        text = session.preprocess(SRC, "profile_sub.c").text
        with profile.collect("profile_sub.c") as times:
            analysis = session.parse(text, "profile_sub.c").analysis
            analysis.aliases
            for fn_name in analysis.cfgs:
                analysis.reaching_of(fn_name)
                analysis.dependence_of(fn_name)
        for sub in ("analyze:cfg", "analyze:reaching",
                    "analyze:pointsto", "analyze:alias",
                    "analyze:dependence"):
            assert sub in times, sub
            assert times[sub] >= 0.0

    def test_substages_render_in_canonical_order(self):
        per_file = {"a.c": {"analyze": 0.01, "analyze:pointsto": 0.004,
                            "analyze:cfg": 0.002, "slr": 0.01}}
        out = profile.render_profile(per_file, per_file_rows=False)
        lines = out.splitlines()
        order = [ln.split()[0] for ln in lines[2:] if ln]
        assert order.index("analyze") < order.index("analyze:cfg") \
            < order.index("analyze:pointsto") < order.index("slr")


class TestRendering:
    def test_merge_totals(self):
        per_file = {"a.c": {"parse": 1.0, "slr": 0.5},
                    "b.c": {"parse": 2.0}}
        assert profile.merge_totals(per_file) \
            == {"parse": 3.0, "slr": 0.5}

    def test_render_profile_tables(self):
        per_file = {"a.c": {"parse": 0.010, "slr": 0.005},
                    "b.c": {"parse": 0.020, "custom": 0.001}}
        out = profile.render_profile(per_file)
        assert "stage" in out and "mean ms/file" in out
        assert "parse" in out and "slr" in out
        assert "custom" in out                  # unknown stages render
        assert "a.c" in out and "b.c" in out

    def test_render_profile_caps_per_file_rows(self):
        per_file = {f"f{i:02d}.c": {"parse": float(i)}
                    for i in range(45)}
        out = profile.render_profile(per_file, max_files=40)
        assert "(… 5 more files omitted)" in out
        # The slowest files are the ones kept.
        assert "f44.c" in out and "f00.c" not in out

    def test_render_profile_summary_only(self):
        out = profile.render_profile({"a.c": {"parse": 0.01}},
                                     per_file_rows=False)
        assert "a.c" not in out and "parse" in out


class TestPipelineIntegration:
    def test_transform_file_ships_stage_times(self):
        session = get_session()
        text = session.preprocess(SRC, "profile_t.c").text
        report = transform_file(FileTask("profile_t.c", text))
        for stage_name in ("slr", "str", "verify"):
            assert stage_name in report.stage_times, stage_name
        assert all(t >= 0.0 for t in report.stage_times.values())
        # Exclusive accounting: stages sum to no more than the wall.
        assert sum(report.stage_times.values()) \
            <= report.wall_time + 0.005

    def test_batch_stage_totals(self):
        """The parent's preprocess time rides on the report with the
        worker's stages, and the profile renders every stage."""
        program = SourceProgram("prof", {"profile_b.c": SRC})
        result = apply_batch(program, jobs=1, validate=True)
        times = result.reports[0].stage_times
        rendered = render_profile(result)
        for stage_name in ("preprocess", "slr", "str", "verify",
                           "validate"):
            assert stage_name in times, stage_name
            assert f"\n{stage_name} " in rendered, stage_name
