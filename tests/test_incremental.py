"""Function-granular incremental re-analysis (core/incremental.py).

The engine's contract is byte-identity: every update — incremental,
no-op, or fallback — must produce exactly the transformed text,
per-site outcomes, and oracle verdicts a cold
:func:`repro.core.batch.transform_file` run over the same raw text
would, at any worker count.  These tests enforce the differential
against both the serial and the fork-pool executors, plus the cache
and invalidation behaviour the latency win rests on.
"""

import os

import pytest

from repro.core.batch import FileTask, SourceProgram, apply_batch, \
    transform_file
from repro.core.incremental import IncrementalEngine, _FUNC_CACHE
from repro.core.session import get_session


BASE = """#include <stdio.h>
#include <string.h>

void copy_name(const char *src) {
    char buf[16];
    strcpy(buf, src);
    printf("name %s\\n", buf);
}

void copy_title(const char *src) {
    char buf[24];
    strcpy(buf, src);
    printf("title %s\\n", buf);
}

void copy_note(const char *src) {
    char note[12];
    strcat(note, src);
    printf("note %s\\n", note);
}

int main(void) {
    char line[32];
    fgets(line, sizeof line, stdin);
    copy_name(line);
    return 0;
}
"""

SEED = 11


def edit_note(text):
    """Touch only copy_note (uncalled from main)."""
    return text.replace('printf("note %s\\n", note);',
                        'printf("note: %s\\n", note);')


def edit_title(text):
    return text.replace("char buf[24];", "char buf[20];")


def cold_report(text, filename="inc.c"):
    session = get_session()
    pp = session.preprocess(text, filename).text
    return transform_file(FileTask(filename, pp, validate=True,
                                   fuzz_seed=SEED))


def cold_outcomes(report):
    out = []
    for result in (report.slr, report.str_):
        if result is not None:
            out.extend(result.outcomes)
    return out


def assert_matches_cold(update, cold):
    assert update.final_text == cold.final_text
    assert update.parses == cold.parses
    assert list(update.slr_outcomes) + list(update.str_outcomes) \
        == cold_outcomes(cold)
    assert update.verdict_counts() == cold.validation.counts()


def warm_engine(text=BASE, filename="inc.c"):
    engine = IncrementalEngine(filename, fuzz_seed=SEED)
    first = engine.update(text)
    assert first.mode == "full" and first.reason == "cold-start"
    assert engine._raw_text is not None, "warm-up state rebuild failed"
    return engine, first


def test_enabled_by_default():
    """No setting is needed: a warm engine takes the incremental path."""
    engine, _ = warm_engine()
    assert engine.update(edit_note(BASE)).mode == "incremental"


def test_warm_full_matches_cold_pipeline():
    _engine, first = warm_engine()
    assert_matches_cold(first, cold_report(BASE))


def test_one_function_edit_is_incremental_and_identical():
    engine, _ = warm_engine()
    edited = edit_note(BASE)
    update = engine.update(edited)
    assert update.mode == "incremental"
    assert update.changed == frozenset({"copy_note"})
    assert update.invalidated == frozenset({"copy_note"})
    assert_matches_cold(update, cold_report(edited))


def test_unchanged_functions_hit_function_cache(fresh_store):
    engine, _ = warm_engine()
    update = engine.update(edit_note(BASE))
    assert update.mode == "incremental"
    # copy_name/copy_title/main artifacts replay from the func family;
    # only copy_note's component (pp render + SLR + STR) recomputes.
    assert update.func_hits > 0, update.as_dict()
    assert 0 < update.func_misses <= 3, update.as_dict()


def test_probe_reuse_when_dirty_function_never_entered():
    engine, _ = warm_engine()
    update = engine.update(edit_note(BASE))
    # copy_note is never called: every probe's previous execution pair
    # still stands, so the oracle re-executes nothing.
    assert update.probes_executed == 0, update.as_dict()
    assert update.probes_reused > 0
    assert update.verdict_counts() == cold_report(edit_note(BASE)) \
        .validation.counts()


def test_called_function_edit_reexecutes_probes():
    engine, _ = warm_engine()
    edited = BASE.replace('printf("name %s\\n", buf);',
                          'printf("name: %s\\n", buf);')
    update = engine.update(edited)
    assert update.mode == "incremental"
    # main's component includes copy_name, so both are re-transformed
    # and every probe that entered copy_name re-executes.
    assert update.probes_executed > 0
    assert_matches_cold(update, cold_report(edited))


def test_comment_edit_is_no_op():
    engine, before = warm_engine()
    commented = BASE.replace("char buf[16];",
                             "char buf[16]; /* fixed-size scratch */")
    update = engine.update(commented)
    assert update.mode == "no-op"
    assert update.final_text == before.final_text
    assert update.func_misses == 0
    assert update.probes_executed == 0


def test_whitespace_edits_are_no_ops():
    engine, before = warm_engine()
    # The preprocessor renders one space between tokens regardless of
    # the raw spacing, so this is a genuine no-op — the cold pipeline
    # would produce the same bytes.
    spaced = BASE.replace("}\n\nint main", "}\n\nint  main")
    update = engine.update(spaced)
    assert update.mode == "no-op"
    assert update.final_text == cold_report(spaced).final_text
    # Extra blank line between functions: pp output differs only if the
    # blank-line structure survives squeezing; either way the engine
    # must match cold.
    gapped = BASE.replace("}\n\nint main", "}\n\n\nint main")
    update = engine.update(gapped)
    assert update.final_text == cold_report(gapped).final_text


def test_identical_input_is_no_op():
    engine, _ = warm_engine()
    update = engine.update(BASE)
    assert update.mode == "no-op"
    assert update.reason == "identical-input"


def test_insert_delete_rename_match_cold():
    engine, _ = warm_engine()
    inserted = BASE.replace(
        "int main(void) {",
        "void copy_extra(const char *src) {\n"
        "    char extra[10];\n"
        "    strcpy(extra, src);\n"
        "}\n\n"
        "int main(void) {")
    update = engine.update(inserted)
    assert update.mode == "incremental"
    assert update.inserted == frozenset({"copy_extra"})
    assert_matches_cold(update, cold_report(inserted))

    deleted = inserted.replace(
        "void copy_note(const char *src) {\n"
        "    char note[12];\n"
        "    strcat(note, src);\n"
        '    printf("note %s\\n", note);\n'
        "}\n\n", "")
    update = engine.update(deleted)
    assert update.mode == "incremental"
    assert update.deleted == frozenset({"copy_note"})
    assert_matches_cold(update, cold_report(deleted))

    renamed = deleted.replace("copy_extra", "copy_spare")
    update = engine.update(renamed)
    assert update.mode == "incremental"
    assert update.inserted == frozenset({"copy_spare"})
    assert update.deleted == frozenset({"copy_extra"})
    assert_matches_cold(update, cold_report(renamed))


def test_preamble_edit_falls_back_to_full():
    engine, _ = warm_engine()
    edited = BASE.replace("#include <string.h>",
                          "#include <string.h>\n#define LIMIT 8")
    update = engine.update(edited)
    assert update.mode == "full"
    assert update.reason == "preamble-changed"
    assert_matches_cold(update, cold_report(edited))
    # The fallback rebuilt warm state: the next small edit goes
    # incremental again.
    update = engine.update(edit_note(edited))
    assert update.mode == "incremental"
    assert_matches_cold(update, cold_report(edit_note(edited)))


def test_reorder_falls_back_but_matches():
    engine, _ = warm_engine()
    reordered = BASE.replace(
        "void copy_name(const char *src) {\n"
        "    char buf[16];\n"
        "    strcpy(buf, src);\n"
        '    printf("name %s\\n", buf);\n'
        "}\n\n"
        "void copy_title(const char *src) {\n"
        "    char buf[24];\n"
        "    strcpy(buf, src);\n"
        '    printf("title %s\\n", buf);\n'
        "}",
        "void copy_title(const char *src) {\n"
        "    char buf[24];\n"
        "    strcpy(buf, src);\n"
        '    printf("title %s\\n", buf);\n'
        "}\n\n"
        "void copy_name(const char *src) {\n"
        "    char buf[16];\n"
        "    strcpy(buf, src);\n"
        '    printf("name %s\\n", buf);\n'
        "}")
    assert reordered != BASE
    update = engine.update(reordered)
    assert update.mode == "full"
    assert update.reason == "functions-reordered"
    assert_matches_cold(update, cold_report(reordered))


def test_invalidate_wiring_on_retained_analysis():
    engine, _ = warm_engine()
    calls = []
    analysis = engine._analysis
    assert analysis is not None
    original = analysis.invalidate

    def recording(name=None):
        calls.append(name)
        return original(name)

    analysis.invalidate = recording
    update = engine.update(edit_title(BASE))
    assert update.mode == "incremental"
    assert calls == ["copy_title"]


def test_position_macro_is_permanently_unsupported():
    src = BASE.replace('printf("note %s\\n", note);',
                       'printf("note %d\\n", __LINE__);')
    engine = IncrementalEngine("line.c", fuzz_seed=SEED)
    engine.update(src)
    assert engine._unsupported == "position-dependent-macro"
    update = engine.update(edit_title(src))
    assert update.mode == "full"
    assert_matches_cold(update, cold_report(edit_title(src), "line.c"))


def test_validation_skipped_when_disabled():
    engine = IncrementalEngine("noval.c", validate=False)
    first = engine.update(BASE)
    assert first.validation is None
    update = engine.update(edit_note(BASE))
    assert update.mode == "incremental"
    assert update.validation is None
    assert update.final_text == cold_report(edit_note(BASE),
                                            "noval.c").final_text


# ------------------------------------------------ batch differentials

def _batch_differential(jobs):
    """Incremental engines vs ``apply_batch`` at a given worker count.

    Four files, each a different single-function edit of the same base;
    each engine warms on the base and applies its file's edit.  The
    batch preprocesses/transforms/validates cold — reports must match
    the engines byte for byte.
    """
    edits = {
        "edit_note.c": edit_note(BASE),
        "edit_title.c": edit_title(BASE),
        "edit_main.c": BASE.replace("copy_name(line);",
                                    "copy_name(line);\n    copy_title(line);"),
        "edit_none.c": BASE,
    }
    updates = {}
    for filename, text in edits.items():
        engine = IncrementalEngine(filename, fuzz_seed=SEED)
        engine.update(BASE)
        updates[filename] = engine.update(text)
        expected = "no-op" if text == BASE else "incremental"
        assert updates[filename].mode == expected, \
            (filename, updates[filename].mode, updates[filename].reason)

    result = apply_batch(SourceProgram("differential", dict(edits)),
                         jobs=jobs, validate=True, fuzz_seed=SEED)
    assert len(result.reports) == len(edits)
    for report in result.reports:
        update = updates[report.filename]
        assert update.final_text == report.final_text, report.filename
        assert update.parses == report.parses
        assert list(update.slr_outcomes) + list(update.str_outcomes) \
            == cold_outcomes(report), report.filename
        assert update.verdict_counts() == report.validation.counts(), \
            report.filename


def test_incremental_matches_batch_jobs_1():
    _batch_differential(jobs=1)


def test_incremental_matches_batch_jobs_4():
    _batch_differential(jobs=4)
