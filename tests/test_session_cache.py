"""Tests for the shared AnalysisSession, the content-keyed frontend
caches, lazy analysis construction, and serial-vs-parallel batch
equivalence."""

import pytest

from repro.analysis import ProgramAnalysis
from repro.cfront.cache import (
    CacheStats, ContentCache, clear_all_caches, content_key,
    preprocess_cached,
)
from repro.cfront.parser import parse_translation_unit
from repro.core.batch import SourceProgram, apply_batch
from repro.core.session import AnalysisSession, get_session, reset_session
from repro.core.slr import SafeLibraryReplacement

SOURCE = (
    "#include <string.h>\n"
    "void f(void) {\n"
    "    char buf[16];\n"
    "    strcpy(buf, \"hi\");\n"
    "}\n"
)

# parse_translation_unit expects preprocessed text — no directives.
PLAIN = (
    "void f(void) {\n"
    "    char buf[16];\n"
    "    char *p = buf;\n"
    "    p[0] = 'x';\n"
    "}\n"
)


class TestContentCache:
    def test_hit_returns_same_object(self):
        cache = ContentCache("t-hit", maxsize=4)
        built = []
        value = cache.get_or_build("k", lambda: built.append(1) or [1])
        again = cache.get_or_build("k", lambda: built.append(1) or [2])
        assert value is again
        assert built == [1]
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_different_keys_miss(self):
        cache = ContentCache("t-miss", maxsize=4)
        a = cache.get_or_build("a", lambda: object())
        b = cache.get_or_build("b", lambda: object())
        assert a is not b
        assert cache.stats.misses == 2

    def test_lru_eviction(self):
        cache = ContentCache("t-lru", maxsize=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A2")      # refresh a
        cache.get_or_build("c", lambda: "C")       # evicts b (LRU)
        assert cache.stats.evictions == 1
        assert cache.get_or_build("a", lambda: "A3") == "A"    # survived
        assert cache.get_or_build("b", lambda: "B2") == "B2"   # rebuilt

    def test_failures_not_cached(self):
        cache = ContentCache("t-fail", maxsize=4)

        def boom():
            raise ValueError("nope")

        with pytest.raises(ValueError):
            cache.get_or_build("k", boom)
        assert len(cache) == 0
        assert cache.get_or_build("k", lambda: "ok") == "ok"

    def test_disable_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        cache = ContentCache("t-off", maxsize=4)
        a = cache.get_or_build("k", lambda: object())
        b = cache.get_or_build("k", lambda: object())
        assert a is not b
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_content_key_order_sensitive(self):
        assert content_key("ab", "c") != content_key("a", "bc")
        assert content_key("x") == content_key("x")

    def test_stats_delta(self):
        now = CacheStats("c", hits=5, misses=3, evictions=1)
        earlier = CacheStats("c", hits=2, misses=3, evictions=0)
        diff = now.delta(earlier)
        assert (diff.hits, diff.misses, diff.evictions) == (3, 0, 1)
        assert diff.hit_rate == 1.0


class TestPreprocessCache:
    def test_same_text_hits(self):
        clear_all_caches()
        first = preprocess_cached(SOURCE, "a.c")
        second = preprocess_cached(SOURCE, "a.c")
        assert first is second

    def test_edited_text_misses(self):
        clear_all_caches()
        first = preprocess_cached(SOURCE, "a.c")
        edited = preprocess_cached(SOURCE + "int tail;\n", "a.c")
        assert edited is not first
        assert "int tail;" in edited.text

    def test_header_change_misses(self):
        text = '#include "k.h"\nint v = K;\n'
        one = preprocess_cached(text, "h.c",
                                include_paths={"k.h": "#define K 1\n"})
        two = preprocess_cached(text, "h.c",
                                include_paths={"k.h": "#define K 2\n"})
        assert "int v = 1;" in one.text
        assert "int v = 2;" in two.text


class TestAnalysisSession:
    def test_parse_same_text_hits(self):
        session = AnalysisSession(cache_name="t-parse-hit")
        first = session.parse(PLAIN, "a.c")
        second = session.parse(PLAIN, "b.c")      # filename is a label only
        assert first is second
        assert session.parse_stats.hits == 1

    def test_parse_edited_text_misses(self):
        session = AnalysisSession(cache_name="t-parse-miss")
        first = session.parse(PLAIN)
        edited = session.parse(PLAIN.replace("buf[16]", "buf[32]"))
        assert edited is not first
        assert session.parse_stats.misses == 2

    def test_cached_unit_is_annotated(self):
        session = AnalysisSession(cache_name="t-parse-ann")
        parsed = session.parse(PLAIN)
        fn = parsed.unit.functions()[0]
        assert fn.name == "f"
        assert parsed.analysis.symbols.locals_of["f"]

    def test_verify_stores_successes_only(self, fresh_store):
        from repro.cfront.source import ParseError
        from repro.core.diagnostics import diagnostic_from_exception
        session = AnalysisSession(cache_name="t-verify")
        assert session.verify("int x;\n") is None
        usage = fresh_store.usage()
        assert list(usage) == ["verify"]
        assert usage["verify"]["entries"] == 1
        # A new process learns the verdict without parsing.
        clear_all_caches()
        parses_before = session.parse_stats.misses
        assert session.verify("int x;\n") is None
        assert session.parse_stats.misses == parses_before
        # A failure is returned, never stored: the same diagnostic,
        # traceback included, is recomputed cold and warm.
        first = session.verify("int x = ;\n", "bad.c")
        clear_all_caches()
        second = session.verify("int x = ;\n", "bad.c")
        assert isinstance(first, ParseError)
        assert isinstance(second, ParseError)
        cold = diagnostic_from_exception("verify", "bad.c", first)
        warm = diagnostic_from_exception("verify", "bad.c", second)
        assert cold.location == "bad.c:1:9"
        assert warm.as_dict() == cold.as_dict()
        assert fresh_store.usage()["verify"]["entries"] == 1

    def test_transformed_output_not_served_stale(self):
        """SLR's output text differs from its input, so the verify parse
        must see the *new* unit, never the cached input unit."""
        session = AnalysisSession(cache_name="t-stale")
        text = session.preprocess(SOURCE, "a.c").text
        result = SafeLibraryReplacement(text, "a.c", session=session).run()
        assert result.changed
        assert "g_strlcpy" in result.new_text
        before = session.parse(text, "a.c")
        after = session.parse(result.new_text, "a.c")
        assert after is not before
        assert "g_strlcpy" not in text
        calls = [n.callee_name for n in after.unit.walk()
                 if hasattr(n, "callee_name")]
        assert "g_strlcpy" in calls

    def test_reset_session_replaces_default(self):
        old = get_session()
        fresh = reset_session()
        try:
            assert fresh is not old
            assert get_session() is fresh
        finally:
            # leave a clean default for the rest of the suite
            reset_session()


class TestLazyAnalysis:
    def _unit(self):
        return parse_translation_unit(PLAIN, "a.c")

    def test_heavy_passes_lazy_after_ensure_types(self):
        pa = ProgramAnalysis(self._unit()).ensure_types()
        assert pa._pointsto is None
        assert pa._callgraph is None
        assert pa._cfgs is None

    def test_passes_built_on_first_query_and_memoized(self):
        pa = ProgramAnalysis(self._unit()).ensure_types()
        first = pa.pointsto
        assert pa._pointsto is not None
        assert pa.pointsto is first
        assert pa.aliases is pa.aliases

    def test_per_function_invalidation(self):
        pa = ProgramAnalysis(self._unit()).ensure_types()
        reaching = pa.reaching_of("f")
        cfg = pa.cfg_of("f")
        assert reaching is not None
        pa.invalidate("f")
        assert pa.reaching_of("f") is not reaching
        assert pa.cfg_of("f") is not cfg

    def test_full_invalidation(self):
        pa = ProgramAnalysis(self._unit()).ensure_types()
        pointsto = pa.pointsto
        pa.invalidate()
        assert pa._pointsto is None
        assert pa.pointsto is not pointsto


class TestSerialParallelEquivalence:
    def _outcome_tuples(self, batch):
        out = []
        for report in batch.reports:
            for result in (report.slr, report.str_):
                if result is None:
                    continue
                out.append([(o.transformation, o.target, o.function,
                             o.line, o.status, o.reason)
                            for o in result.outcomes])
        return out

    @pytest.mark.parametrize("name", ["zlib", "libpng"])
    def test_corpus_program_equivalent(self, name, monkeypatch):
        from repro.corpus import PROGRAM_BUILDERS
        # Both runs compute: neither replays a stored report.
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        program = PROGRAM_BUILDERS[name]()
        serial = apply_batch(program, jobs=1)
        parallel = apply_batch(program, jobs=2)
        assert [r.filename for r in serial.reports] == \
            [r.filename for r in parallel.reports]
        assert [r.final_text for r in serial.reports] == \
            [r.final_text for r in parallel.reports]
        assert [r.parses for r in serial.reports] == \
            [r.parses for r in parallel.reports]
        assert self._outcome_tuples(serial) == \
            self._outcome_tuples(parallel)
        for which in ("SLR", "STR"):
            assert serial.candidates(which) == parallel.candidates(which)
            assert serial.transformed(which) == parallel.transformed(which)
            assert serial.by_target(which) == parallel.by_target(which)

    def test_reports_in_filename_order(self):
        program = SourceProgram("p", {
            "zz.c": "int z;\n",
            "aa.c": "int a;\n",
            "mm.c": "int m;\n",
        })
        batch = apply_batch(program, jobs=2)
        assert [r.filename for r in batch.reports] == \
            ["aa.c", "mm.c", "zz.c"]
        assert batch.info.jobs == 2
        assert batch.wall_time > 0.0
        assert all(r.wall_time > 0.0 for r in batch.reports)


class TestOracleDeterminism:
    """The differential oracle's verdicts must not depend on worker
    count or on whether the content-keyed caches are enabled."""

    FILES = {
        "overflow.c": (
            "#include <stdio.h>\n#include <string.h>\n"
            "int main(void) {\n"
            "    char buf[8];\n"
            "    char line[8];\n"
            "    strcpy(buf, \"far far too long for this buffer\");\n"
            "    gets(line);\n"
            "    printf(\"%s %s\\n\", buf, line);\n"
            "    return 0;\n}\n"),
        "clean.c": (
            "#include <stdio.h>\n"
            "int main(void) { printf(\"ok\\n\"); return 0; }\n"),
    }

    def _verdicts(self, **kwargs):
        program = SourceProgram("p", dict(self.FILES))
        batch = apply_batch(program, validate=True, **kwargs)
        return [v.as_dict() for v in batch.validations()]

    def test_verdicts_identical_serial_vs_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert self._verdicts(jobs=1) == self._verdicts(jobs=4)

    def test_verdicts_identical_with_cache_off(self, monkeypatch):
        with_cache = self._verdicts(jobs=1)
        monkeypatch.setenv("REPRO_CACHE", "0")
        without_cache = self._verdicts(jobs=1)
        assert with_cache == without_cache


class TestDeterministicOutcomeOrdering:
    def test_outcomes_sorted_by_line(self):
        text = get_session().preprocess(
            "#include <string.h>\n"
            "void g(void) {\n"
            "    char b[8];\n"
            "    char c[8];\n"
            "    strcat(c, \"y\");\n"
            "    strcpy(b, \"x\");\n"
            "}\n", "o.c").text
        result = SafeLibraryReplacement(text, "o.c").run()
        lines = [o.line for o in result.outcomes]
        assert lines == sorted(lines)
        assert len(result.outcomes) == 2
