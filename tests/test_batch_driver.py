"""Tests for the batch driver (SourceProgram / apply_batch) and the
literal/headers plumbing they rest on."""

import pytest

from repro.cfront.headers import BUILTIN_HEADERS
from repro.cfront.literals import (
    LiteralError, decode_escapes, parse_char_constant, parse_number,
    parse_string_literal,
)
from repro.core.batch import SourceProgram, apply_batch
from repro.core.transform import SiteOutcome, TransformResult


class TestSourceProgram:
    def test_kloc_excludes_blank_lines(self):
        program = SourceProgram("p", {"a.c": "int x;\n\n\nint y;\n"})
        assert program.kloc() == 0.002

    def test_preprocess_uses_private_headers(self):
        program = SourceProgram(
            "p", {"a.c": '#include "mine.h"\nint v = MINE;\n'},
            headers={"mine.h": "#define MINE 9\n"})
        pp = program.preprocess()
        assert "int v = 9;" in pp.files["a.c"]
        assert pp.preprocessed

    def test_preprocess_idempotent(self):
        program = SourceProgram("p", {"a.c": "int x;\n"},
                                preprocessed=True)
        assert program.preprocess() is program

    def test_pp_kloc_larger_with_includes(self):
        program = SourceProgram(
            "p", {"a.c": "#include <stdio.h>\nint x;\n"})
        assert program.pp_kloc() > program.kloc()


class TestApplyBatch:
    PROGRAM = SourceProgram("demo", {
        "lib.c": "#include <string.h>\n#include <stdio.h>\n"
                 "void greet(void) {\n"
                 "    char msg[32];\n"
                 "    strcpy(msg, \"hello\");\n"
                 "    strcat(msg, \" world\");\n"
                 "    printf(\"%s\\n\", msg);\n"
                 "}\n",
        "main.c": "void greet(void);\n"
                  "int main(void) { greet(); return 0; }\n",
    })

    def test_slr_only(self):
        batch = apply_batch(self.PROGRAM, run_slr=True, run_str=False)
        assert batch.candidates("SLR") == 2
        assert batch.transformed("SLR") == 2
        assert batch.candidates("STR") == 0

    def test_str_only(self):
        batch = apply_batch(self.PROGRAM, run_slr=False, run_str=True)
        assert batch.candidates("SLR") == 0
        assert batch.candidates("STR") == 1     # msg

    def test_transformed_program_round_trips(self):
        from repro.vm.interp import run_program_files
        batch = apply_batch(self.PROGRAM)
        result = run_program_files(batch.transformed_program.files)
        assert result.ok
        assert result.stdout_text == "hello world\n"

    def test_percent_and_reasons(self):
        batch = apply_batch(self.PROGRAM, run_str=False)
        assert batch.percent("SLR") == 100.0
        assert batch.failures_by_reason("SLR") == {}

    def test_by_target(self):
        batch = apply_batch(self.PROGRAM, run_str=False)
        assert batch.by_target("SLR") == {"strcpy": (1, 1),
                                          "strcat": (1, 1)}

    def test_transformed_program_runs_failed_files_as_originals(
            self, monkeypatch):
        """A failed file ships its source as read; the transformed
        program hands the VM its preprocessed original instead."""
        from repro.vm.interp import run_program_files
        monkeypatch.setenv("REPRO_FAULTS", "slr:exception:1.0")
        batch = apply_batch(self.PROGRAM, run_str=False)
        assert [(r.status, r.final_text) for r in batch.reports] == \
            [("failed", self.PROGRAM.files[r.filename])
             for r in batch.reports]
        assert batch.transformed_program.files \
            == self.PROGRAM.preprocess().files
        result = run_program_files(batch.transformed_program.files)
        assert result.stdout_text == "hello world\n"

    def test_transformed_program_is_marked_preprocessed(self):
        batch = apply_batch(self.PROGRAM)
        assert batch.transformed_program.preprocessed
        assert batch.transformed_program.name == "demo+fixed"


class TestTransformResultAccounting:
    def _result(self, outcomes):
        return TransformResult("SLR", "orig", "new", outcomes)

    def _outcome(self, target, ok, reason=""):
        return SiteOutcome("SLR", target, "f", 1,
                           "transformed" if ok else "precondition-failed",
                           reason)

    def test_counts(self):
        result = self._result([self._outcome("strcpy", True),
                               self._outcome("strcpy", False, "aliased")])
        assert result.candidates == 2
        assert result.transformed_count == 1
        assert result.failed_count == 1
        assert result.percent_transformed == 50.0

    def test_empty(self):
        result = self._result([])
        assert result.percent_transformed == 0.0
        assert result.failures_by_reason() == {}

    def test_changed_flag(self):
        assert self._result([]).changed      # orig != new
        same = TransformResult("SLR", "t", "t", [])
        assert not same.changed


class TestLiterals:
    def test_decode_simple_escapes(self):
        assert decode_escapes(r"a\nb\t") == b"a\nb\t"

    def test_decode_hex_and_octal(self):
        assert decode_escapes(r"\x41\102\0") == b"AB\x00"

    def test_char_constants(self):
        assert parse_char_constant("'A'") == 65
        assert parse_char_constant(r"'\n'") == 10
        assert parse_char_constant(r"'\xff'") == 255
        assert parse_char_constant("L'a'") == 97

    def test_multichar_constant_folds(self):
        assert parse_char_constant("'ab'") == (ord("a") << 8) | ord("b")

    def test_bad_char_constant(self):
        with pytest.raises(LiteralError):
            parse_char_constant("''")

    def test_string_literal(self):
        assert parse_string_literal('"hi\\n"') == b"hi\n"

    def test_parse_number_integers(self):
        assert parse_number("42") == (42, False, False, 0)
        assert parse_number("0x1F") == (31, False, False, 0)
        assert parse_number("0755") == (493, False, False, 0)
        assert parse_number("7U")[2] is True
        assert parse_number("7UL")[3] == 1
        assert parse_number("7LL")[3] == 2

    def test_parse_number_hex_f_digits(self):
        # 'f' is a digit here, not a float suffix.
        assert parse_number("0xffffffffUL")[0] == 0xFFFFFFFF

    def test_parse_number_floats(self):
        value, is_float, _, _ = parse_number("3.5")
        assert is_float and value == 3.5
        assert parse_number("1e3")[0] == 1000.0
        assert parse_number("2.5f")[1] is True

    def test_parse_number_octal_zero(self):
        assert parse_number("0")[0] == 0


class TestBuiltinHeaders:
    def test_core_headers_present(self):
        for name in ("stdio.h", "stdlib.h", "string.h", "stddef.h",
                     "stdarg.h", "glib.h", "stralloc.h", "assert.h",
                     "limits.h", "ctype.h"):
            assert name in BUILTIN_HEADERS

    def test_all_headers_preprocess_and_parse(self):
        from repro.cfront.parser import preprocess_and_parse
        for name in BUILTIN_HEADERS:
            unit, _ = preprocess_and_parse(f"#include <{name}>\nint x;\n")
            assert unit.items      # at least the trailing declaration

    def test_stralloc_header_matches_runtime_layout(self):
        from repro.cfront.parser import preprocess_and_parse
        from repro.vm.stralloc_rt import STRALLOC_SIZE
        unit, _ = preprocess_and_parse(
            "#include <stralloc.h>\nstralloc sa;\n")
        decl = [i for i in unit.items
                if hasattr(i, "declarators") and i.declarators
                and i.declarators[0].name == "sa"][0]
        assert decl.declarators[0].ctype.sizeof() == STRALLOC_SIZE


class TestJobKnobs:
    def test_default_jobs_reads_env(self, monkeypatch):
        from repro.core.batch import default_jobs
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert default_jobs() == min(2, __import__("os").cpu_count() or 1)

    def test_default_jobs_capped_at_cpu_count(self, monkeypatch):
        import os

        from repro.core.batch import default_jobs
        monkeypatch.setenv("REPRO_JOBS", "100000")
        assert default_jobs() == (os.cpu_count() or 1)

    def test_default_jobs_rejects_non_integer(self, monkeypatch):
        from repro.core.batch import default_jobs
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.warns(RuntimeWarning, match="non-integer REPRO_JOBS"):
            assert default_jobs() == 1

    def test_default_jobs_rejects_non_positive(self, monkeypatch):
        from repro.core.batch import default_jobs
        for bad in ("0", "-3"):
            monkeypatch.setenv("REPRO_JOBS", bad)
            with pytest.warns(RuntimeWarning, match="must be >= 1"):
                assert default_jobs() == 1

    def test_task_timeout_knob(self, monkeypatch):
        from repro.core.batch import task_timeout
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert task_timeout() is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "120")
        assert task_timeout() == 120.0
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert task_timeout() is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
        with pytest.warns(RuntimeWarning):
            assert task_timeout() is None

    def test_task_retries_knob(self, monkeypatch):
        from repro.core.batch import task_retries
        monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
        assert task_retries() == 1
        monkeypatch.setenv("REPRO_TASK_RETRIES", "3")
        assert task_retries() == 3
        monkeypatch.setenv("REPRO_TASK_RETRIES", "-2")
        assert task_retries() == 0
        monkeypatch.setenv("REPRO_TASK_RETRIES", "lots")
        with pytest.warns(RuntimeWarning):
            assert task_retries() == 1
