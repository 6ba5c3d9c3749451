"""Tests for the SAMATE benchmark generator and its pipeline."""

import pytest

from repro.cfront.parser import parse_translation_unit
from repro.cfront.preprocessor import Preprocessor
from repro.eval.samate_runner import run_samate_program, stratified_sample
from repro.samate import (
    FLOW_VARIANTS, PAPER_COUNTS, generate_cwe, generate_suite,
    render_program, suite_size,
)
from repro.samate.variants import CWE121_SLR_VARIANTS


class TestGeneratorSizing:
    def test_paper_counts_exact(self):
        suite = generate_suite()
        assert suite_size(suite) == 4505
        for cwe, (total, slr) in PAPER_COUNTS.items():
            assert len(suite[cwe]) == total
            assert sum(p.slr_applicable for p in suite[cwe]) == slr

    def test_str_applicability(self):
        suite = generate_suite(scale=0.02)
        for cwe, programs in suite.items():
            for program in programs:
                assert program.str_applicable == (cwe != 242)

    def test_scaled_suite_preserves_ratios(self):
        suite = generate_suite(scale=0.1)
        cwe121 = suite[121]
        slr = sum(p.slr_applicable for p in cwe121)
        assert len(cwe121) == 188            # round(1877 * 0.1)
        assert abs(slr / len(cwe121) - 1096 / 1877) < 0.05

    def test_names_unique(self):
        suite = generate_suite(scale=0.05)
        names = [p.name for cwe in suite.values() for p in cwe]
        assert len(names) == len(set(names))

    def test_deterministic(self):
        first = generate_cwe(124, 30, 0)
        second = generate_cwe(124, 30, 0)
        assert [p.source for p in first] == [p.source for p in second]

    def test_flow_variants_all_used(self):
        programs = generate_cwe(121, 200, 120)
        flows = {p.flow for p in programs}
        assert len(flows) == len(FLOW_VARIANTS)

    def test_too_small_variant_space_raises(self):
        with pytest.raises(ValueError):
            generate_cwe(242, 100000, 100000)


class TestGeneratedPrograms:
    def test_every_sampled_program_parses(self):
        suite = generate_suite(scale=0.02)
        for programs in suite.values():
            for program in programs:
                pp = Preprocessor().preprocess(program.source,
                                               program.name)
                parse_translation_unit(pp.text, program.name)

    def test_program_structure(self):
        program = render_program(CWE121_SLR_VARIANTS[0],
                                 FLOW_VARIANTS[0], (8, 18))
        assert "static void good_case(void)" in program.source
        assert "static void bad_case(void)" in program.source
        assert "int main(void)" in program.source
        assert f"CWE-121" in program.source

    def test_flow_wrapping_appears_in_bad_only(self):
        program = render_program(CWE121_SLR_VARIANTS[0],
                                 FLOW_VARIANTS[15], (8, 18))  # while(1)
        bad = program.source[program.source.index("bad_case"):]
        good = program.source[
            program.source.index("good_case"):program.source.index(
                "bad_case")]
        assert "while (1)" in bad
        assert "while (1)" not in good


class TestPipeline:
    @pytest.mark.parametrize("cwe", sorted(PAPER_COUNTS))
    def test_bad_faults_and_gets_fixed(self, cwe):
        programs = stratified_sample(generate_cwe(cwe), 4)
        for program in programs:
            outcome = run_samate_program(program)
            assert outcome.bad_faulted_before, \
                f"{program.name} did not fault"
            assert outcome.fixed_after, \
                (program.name, outcome.fault_after)
            assert outcome.good_preserved, program.name

    def test_overflow_faults_are_memory_kinds(self):
        program = generate_cwe(121, 4, 4)[0]
        pp = Preprocessor().preprocess(program.source, program.name)
        from repro.vm import run_source
        result = run_source(pp.text, stdin=program.stdin)
        assert result.fault in ("buffer-overflow", "buffer-overread",
                                "buffer-underwrite", "buffer-underread")

    def test_underwrite_cwe_faults_with_under_kind(self):
        program = generate_cwe(124, 3, 0)[0]
        pp = Preprocessor().preprocess(program.source, program.name)
        from repro.vm import run_source
        result = run_source(pp.text, stdin=program.stdin)
        assert result.fault in ("buffer-underwrite", "buffer-underread")

    def test_transform_marks_applicability(self):
        slr_program = next(p for p in generate_cwe(121, 50, 40)
                           if p.slr_applicable)
        outcome = run_samate_program(slr_program, execute=False)
        assert outcome.slr_applied
        assert outcome.str_applied

    def test_stratified_sample(self):
        programs = generate_cwe(126, 60, 0)
        sample = stratified_sample(programs, 10)
        assert len(sample) == 10
        assert len({p.name for p in sample}) == 10
        sample_all = stratified_sample(programs, 999)
        assert len(sample_all) == 60


class TestSuitePool:
    """Table III's programs run on the batch's supervised executor."""

    @staticmethod
    def _programs(count=6):
        return stratified_sample(
            [p for programs in generate_suite(0.01).values()
             for p in programs], count)

    @staticmethod
    def _die_in_worker(monkeypatch, victim, marker=None):
        """Make the worker running ``victim`` exit abruptly: on every
        attempt, or only while ``marker`` does not yet exist."""
        import os

        from repro.eval import samate_runner
        real = samate_runner.run_samate_program

        def dies(program, **kwargs):
            if program.name == victim:
                if marker is None:
                    os._exit(3)
                if not marker.exists():
                    marker.touch()
                    os._exit(3)
            return real(program, **kwargs)

        monkeypatch.setattr(samate_runner, "run_samate_program", dies)

    def test_outcomes_equal_at_one_and_two_jobs(self, fresh_store):
        from repro.eval.samate_runner import run_samate_suite
        programs = self._programs()
        serial = run_samate_suite(programs, jobs=1)
        assert len(serial) == len(programs)
        assert run_samate_suite(programs, jobs=2) == serial

    def test_worker_killed_once_is_retried(self, fresh_store,
                                           monkeypatch, tmp_path):
        from repro.eval.samate_runner import run_samate_suite
        programs = self._programs()
        expected = run_samate_suite(programs, jobs=1)
        marker = tmp_path / "killed"
        self._die_in_worker(monkeypatch, programs[2].name, marker)
        assert run_samate_suite(programs, jobs=2) == expected
        assert marker.exists()                  # the worker did die

    def test_worker_dying_every_attempt_raises_naming_program(
            self, fresh_store, monkeypatch):
        from repro.eval.samate_runner import run_samate_suite
        programs = self._programs()
        victim = programs[3].name
        self._die_in_worker(monkeypatch, victim)
        with pytest.raises(RuntimeError, match=victim) as failure:
            run_samate_suite(programs, jobs=2)
        assert "worker-died, retried 1 time(s)" in str(failure.value)
