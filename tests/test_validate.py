"""Tests for the differential transformation oracle
(:mod:`repro.core.validate`)."""

import os

import pytest

from repro.core.batch import SourceProgram, apply_batch
from repro.core.slr import SafeLibraryReplacement
from repro.core.validate import (
    VERDICT_BENIGN, VERDICT_CHANGED, VERDICT_IDENTICAL, VERDICT_PREVENTED,
    VERDICTS, classify, default_inputs, file_seed, fuzz_inputs,
    oracle_mem_limit, oracle_step_limit, validate_pair, validate_result,
)
from repro.vm.interp import ExecutionResult

from .helpers import pp

BAD_CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                          "c", "bad")


def _result(stdout=b"", exit_code=0, fault=None):
    return ExecutionResult(stdout, None if fault else exit_code,
                           fault, fault or "", steps=1)


class TestInputs:
    def test_fuzz_deterministic_for_seed(self):
        a = fuzz_inputs(1234)
        b = fuzz_inputs(1234)
        assert [i.stdin for i in a] == [i.stdin for i in b]
        assert [i.name for i in a] == [i.name for i in b]

    def test_fuzz_varies_with_seed(self):
        a = fuzz_inputs(1)
        b = fuzz_inputs(2)
        assert [i.stdin for i in a] != [i.stdin for i in b]

    def test_file_seed_stable_and_per_file(self):
        assert file_seed("a.c", 7) == file_seed("a.c", 7)
        assert file_seed("a.c", 7) != file_seed("b.c", 7)

    def test_default_inputs_cover_all_kinds(self):
        kinds = {i.kind for i in default_inputs("x.c")}
        assert kinds == {"benign", "overflow", "fuzz"}

    def test_default_inputs_deterministic(self):
        a = default_inputs("x.c", seed=99)
        b = default_inputs("x.c", seed=99)
        assert [(i.name, i.stdin) for i in a] == \
            [(i.name, i.stdin) for i in b]

    def test_env_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE_SEED", "4242")
        assert file_seed("f.c") == file_seed("f.c", 4242)


class TestClassify:
    def test_identical(self):
        verdict, _ = classify(_result(b"out\n"), _result(b"out\n"))
        assert verdict == VERDICT_IDENTICAL

    def test_overflow_prevented(self):
        verdict, detail = classify(
            _result(b"x", fault="buffer-overflow"), _result(b"x\ny\n"))
        assert verdict == VERDICT_PREVENTED
        assert "buffer-overflow" in detail

    def test_introduced_fault_is_semantics_changed(self):
        verdict, _ = classify(_result(b"ok\n"),
                              _result(b"", fault="null-dereference"))
        assert verdict == VERDICT_CHANGED

    def test_exit_code_change_is_semantics_changed(self):
        verdict, _ = classify(_result(b"a\n", exit_code=0),
                              _result(b"a\n", exit_code=3))
        assert verdict == VERDICT_CHANGED

    def test_truncation_is_benign(self):
        verdict, _ = classify(_result(b"helloworld\ntail\n"),
                              _result(b"hello\ntail\n"))
        assert verdict == VERDICT_BENIGN

    def test_new_output_is_semantics_changed(self):
        verdict, _ = classify(_result(b"hello\n"), _result(b"hellp\n"))
        assert verdict == VERDICT_CHANGED

    def test_vanished_step_limit_is_semantics_changed(self):
        verdict, _ = classify(_result(b"", fault="step-limit"),
                              _result(b"done\n"))
        assert verdict == VERDICT_CHANGED

    def test_same_residual_fault_is_identical(self):
        verdict, _ = classify(
            _result(b"p\n", fault="buffer-overflow"),
            _result(b"p\n", fault="buffer-overflow"))
        assert verdict == VERDICT_IDENTICAL


OVERFLOWING = pp(
    "#include <stdio.h>\n#include <string.h>\n"
    "int main(void) {\n"
    "    char buf[8];\n"
    '    strcpy(buf, "far far too long for this buffer");\n'
    '    printf("%s\\n", buf);\n'
    "    return 0;\n}\n", "overflow.c")

SAFE = pp(
    "#include <stdio.h>\n"
    'int main(void) { printf("fine\\n"); return 0; }\n', "safe.c")


class TestOracle:
    def test_unchanged_text_short_circuits(self):
        report = validate_pair(SAFE, SAFE, filename="safe.c")
        assert report.unchanged
        assert report.verdicts == []
        assert report.ok
        assert report.summary() == "unchanged"

    def test_slr_fix_is_overflow_prevented(self):
        result = SafeLibraryReplacement(OVERFLOWING, "overflow.c").run()
        report = validate_result(result, filename="overflow.c")
        assert not report.unchanged
        assert report.overflows_prevented == len(report.verdicts)
        assert report.ok

    def test_broken_rewrite_is_semantics_changed(self):
        # Simulate a transformation bug: the "fix" also changes what the
        # program prints on every input.
        broken = SAFE.replace('"fine\\n"', '"evil\\n"')
        assert broken != SAFE
        report = validate_pair(SAFE, broken, filename="safe.c")
        assert report.semantics_changed == len(report.verdicts)
        assert not report.ok

    def test_truncating_rewrite_is_benign(self):
        original = pp(
            "#include <stdio.h>\n"
            'int main(void) { printf("helloworld\\n"); return 0; }\n')
        truncated = original.replace('"helloworld\\n"', '"hello\\n"')
        report = validate_pair(original, truncated)
        counts = report.counts()
        assert counts[VERDICT_BENIGN] == len(report.verdicts)

    def test_counts_cover_taxonomy(self):
        report = validate_pair(SAFE, SAFE)
        assert set(report.counts()) == set(VERDICTS)

    def test_as_dict_round_trip(self):
        result = SafeLibraryReplacement(OVERFLOWING, "overflow.c").run()
        report = validate_result(result, filename="overflow.c")
        data = report.as_dict()
        assert data["filename"] == "overflow.c"
        assert data["counts"][VERDICT_PREVENTED] == \
            report.overflows_prevented
        assert len(data["verdicts"]) == len(report.verdicts)


BATCH_FILES = {
    "broken.c": (
        "#include <stdio.h>\n#include <string.h>\n"
        "int main(void) {\n"
        "    char buf[8];\n"
        '    strcpy(buf, "far far too long for this buffer");\n'
        '    printf("%s\\n", buf);\n'
        "    return 0;\n}\n"),
    "clean.c": (
        "#include <stdio.h>\n"
        'int main(void) { printf("ok\\n"); return 0; }\n'),
}


class TestBatchValidation:
    def test_validate_off_by_default(self):
        batch = apply_batch(SourceProgram("p", dict(BATCH_FILES)))
        assert batch.validations() == []
        assert batch.semantics_preserved  # vacuously

    def test_validate_mode_attaches_reports(self):
        batch = apply_batch(SourceProgram("p", dict(BATCH_FILES)),
                            validate=True)
        validations = batch.validations()
        assert len(validations) == len(BATCH_FILES)
        assert batch.semantics_preserved
        counts = batch.validation_counts()
        assert counts["overflow-prevented"] > 0
        assert counts["semantics-changed"] == 0

    def test_untransformed_file_reports_unchanged(self):
        batch = apply_batch(SourceProgram("p", dict(BATCH_FILES)),
                            validate=True)
        by_name = {v.filename: v for v in batch.validations()}
        assert by_name["clean.c"].unchanged
        assert not by_name["broken.c"].unchanged


class TestValidateCli:
    @pytest.fixture
    def run_cli(self):
        import io
        import sys

        from repro.cli import main

        def invoke(argv):
            out, err = io.StringIO(), io.StringIO()
            old = sys.stdout, sys.stderr
            sys.stdout, sys.stderr = out, err
            try:
                code = main([str(a) for a in argv])
            finally:
                sys.stdout, sys.stderr = old
            return code, out.getvalue(), err.getvalue()

        return invoke

    def test_validate_single_file(self, run_cli, tmp_path):
        path = tmp_path / "broken.c"
        path.write_text(BATCH_FILES["broken.c"])
        code, out, err = run_cli(["validate", path])
        assert code == 0
        assert "semantics preserved: yes" in out
        assert "overflow-prevented" in err

    def test_validate_directory(self, run_cli, tmp_path):
        for name, text in BATCH_FILES.items():
            (tmp_path / name).write_text(text)
        code, out, _ = run_cli(["validate", tmp_path, "--jobs", "2"])
        assert code == 0
        assert "semantics preserved: yes" in out

    def test_batch_validate_flag(self, run_cli, tmp_path):
        for name, text in BATCH_FILES.items():
            (tmp_path / name).write_text(text)
        code, out, _ = run_cli(["batch", tmp_path, "--validate"])
        assert code == 0
        assert "oracle" in out
        assert "semantics preserved: yes" in out

    def test_missing_path(self, run_cli, tmp_path):
        code, _, err = run_cli(["validate", tmp_path / "nope"])
        assert code == 2

    def test_file_that_never_reached_the_oracle_fails(self, run_cli):
        code, _, err = run_cli(["validate", os.path.join(
            BAD_CORPUS, "missing_header.c")])
        assert code == 1
        assert "[FAILED] missing_header.c: preprocess PreprocessorError: " \
            "missing_header.c:0:0: header not found: " \
            "'no_such_header_anywhere.h'" in err.splitlines()

    def test_directory_names_every_unjudged_file(self, run_cli):
        code, out, err = run_cli(["validate", BAD_CORPUS])
        assert code == 1
        failed = [line for line in err.splitlines()
                  if line.startswith("[FAILED]")]
        assert [line.split(":")[0] for line in failed] == [
            "[FAILED] garbage.c", "[FAILED] missing_header.c"]
        assert "good_sibling.c" in out              # the judged files


class TestValidationEval:
    def test_samate_slice_is_clean(self):
        from repro.eval.validate import compute_validation
        result = compute_validation(scale=0.002, limit=2, corpus=False)
        assert result.ok
        assert result.samate_rows
        prevented = sum(r.counts.get("overflow-prevented", 0)
                        for r in result.samate_rows)
        assert prevented > 0


EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                        "c")


@pytest.fixture(scope="module")
def oracle_pairs():
    """Every changed pair the batch oracle judges over the four corpus
    programs, ``examples/c``, 40 synth files and an 80-program SAMATE
    sample, with each side's ``read_stdin`` taken from running every
    probe through ``run_source``."""
    from repro.core import batch
    from repro.corpus import build_all, build_synth
    from repro.eval.samate_runner import sample_program
    from repro.vm.interp import run_source

    recorded = []
    real = batch.validate_pair

    def record(original, transformed, **kwargs):
        recorded.append((original, transformed, kwargs["filename"],
                         kwargs["inputs"]))
        return real(original, transformed, **kwargs)

    programs = [*build_all().values(), batch.load_program(EXAMPLES),
                build_synth(40, 11), sample_program(0.05, 80)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "validate_pair", record)
        for program in programs:
            apply_batch(program, jobs=1, validate=True)
    limits = {"step_limit": oracle_step_limit(),
              "mem_limit": oracle_mem_limit()}
    pairs = []
    for original, transformed, filename, inputs in recorded:
        if original == transformed:
            continue
        rows, reads = [], (set(), set())
        for probe in inputs:
            before = run_source(original, stdin=probe.stdin, **limits)
            after = run_source(transformed, stdin=probe.stdin, **limits)
            verdict, detail = classify(before, after)
            rows.append((probe.name, verdict, detail, before.fault or "",
                         after.fault or ""))
            reads[0].add(before.read_stdin)
            reads[1].add(after.read_stdin)
        pairs.append((original, transformed, filename, inputs, rows,
                      reads))
    return pairs


class TestStdinBlindRule:
    """A side whose run never reads stdin answers every later probe of
    its pair from that run (``core/validate._probe_runner``)."""

    def test_population_has_both_kinds(self, oracle_pairs):
        reads = [pair[5] for pair in oracle_pairs]
        assert len(oracle_pairs) >= 120
        assert ({False}, {False}) in reads
        assert ({True}, {True}) in reads
        # Reading stdin is a property of the program, not of the probe:
        # runs are identical up to the first read.
        assert all(len(side) == 1 for pair in reads for side in pair)

    def test_verdicts_equal_running_every_probe(self, oracle_pairs,
                                                monkeypatch):
        from repro.core.validate import _PROBE_CACHE, _VALIDATE_CACHE
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        _PROBE_CACHE.clear()
        _VALIDATE_CACHE.clear()
        for original, transformed, filename, inputs, rows, _ in \
                oracle_pairs:
            report = validate_pair(original, transformed,
                                   filename=filename, inputs=inputs)
            assert [(v.input.name, v.verdict, v.detail, v.fault_before,
                     v.fault_after) for v in report.verdicts] == rows, \
                filename

    def test_one_run_per_blind_side_and_one_per_probe_otherwise(
            self, oracle_pairs, monkeypatch):
        from repro.core import validate
        calls = []
        real = validate.run_source

        def spy(text, **kwargs):
            calls.append(text)
            return real(text, **kwargs)

        monkeypatch.setattr(validate, "run_source", spy)
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        for original, transformed, filename, inputs, _, reads in \
                oracle_pairs:
            validate._PROBE_CACHE.clear()
            validate._VALIDATE_CACHE.clear()
            calls.clear()
            validate_pair(original, transformed, filename=filename,
                          inputs=inputs)
            stdins = len({probe.stdin for probe in inputs})
            expected = [1 if side == {False} else stdins
                        for side in reads]
            assert [calls.count(original), calls.count(transformed)] \
                == expected, filename
