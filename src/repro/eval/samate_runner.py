"""Pipeline for running SAMATE programs through transform-and-execute.

For each generated good/bad program: preprocess, run (the bad function
must fault), apply SLR and/or STR, run again (no fault, and the good
output prefix must be preserved) — the paper's RQ1 check that "the
vulnerability was fixed in bad functions in all test programs" while
"normal behavior" is preserved.

Everything flows through the shared
:class:`~repro.core.session.AnalysisSession`: the preprocessed text is
parsed once and that unit is shared by SLR, STR's input (when SLR queued
no edits), and the "before" execution; the transformed text's unit is
shared by the verify and the "after" execution.  Transform results and
the before/after VM runs additionally go through the persistent artifact
store (:mod:`repro.core.store`; the runs are the ``execute`` family's
only entries), so re-running the suite — in another worker or another
process — replays them from disk.  :func:`run_samate_suite`
fans whole programs out over a fork pool (``jobs=N``) with
deterministic, input-ordered results.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import profile
from ..core.backends import ArbitrationReport, arbitrate_file
from ..core.batch import SourceProgram, cached_slr, cached_str
from ..core.session import AnalysisSession, get_session
from ..core.validate import ValidationReport, cached_run_source, \
    validate_pair
from ..samate import generate_suite
from ..samate.generator import TestProgram, differential_inputs


@dataclass
class SamateOutcome:
    program: str
    cwe: int
    slr_applied: bool           # SLR transformed >= 1 site
    str_applied: bool           # STR transformed >= 1 buffer
    bad_faulted_before: bool
    fixed_after: bool           # no fault after transformation
    good_preserved: bool        # good-function output unchanged
    fault_before: str
    fault_after: str
    pp_lines: int
    source_lines: int
    steps_before: int
    steps_after: int
    validation: ValidationReport | None = None
    arbitration: ArbitrationReport | None = None

    @property
    def success(self) -> bool:
        return (self.bad_faulted_before and self.fixed_after
                and self.good_preserved)


def run_samate_program(program: TestProgram, *, execute: bool = True,
                       validate: bool = False,
                       backends: tuple[str, ...] | None = None,
                       session: AnalysisSession | None = None
                       ) -> SamateOutcome:
    """Transform one SAMATE program and (optionally) execute before/after.

    ``validate=True`` additionally runs the differential oracle over the
    program's own probe set (:func:`repro.samate.differential_inputs`),
    re-checking every transformed site for semantics-changing rewrites.
    ``backends`` switches the fix step from the legacy SLR→STR chain to
    per-file arbitration over the named backends.
    """
    session = session if session is not None else get_session()
    with profile.stage("preprocess"):
        pp = session.preprocess(program.source, program.name)
    source_lines = sum(1 for line in program.source.splitlines()
                      if line.strip())

    text = pp.text
    slr_applied = False
    str_applied = False
    arbitration = None
    if backends:
        text, _parses, _validation, arbitration = arbitrate_file(
            pp.text, program.name, tuple(backends), session=session)
        slr_applied = arbitration.winner == "slr"
        str_applied = arbitration.winner == "str"
    else:
        if program.slr_applicable:
            with profile.stage("slr"):
                slr_result = cached_slr(text, program.name,
                                        session=session)
            slr_applied = slr_result.transformed_count > 0
            text = slr_result.new_text
        if program.str_applicable:
            with profile.stage("str"):
                str_result = cached_str(text, program.name,
                                        session=session)
            str_applied = str_result.transformed_count > 0
            text = str_result.new_text

    if not execute:
        return SamateOutcome(
            program=program.name, cwe=program.cwe,
            slr_applied=slr_applied, str_applied=str_applied,
            bad_faulted_before=True, fixed_after=True, good_preserved=True,
            fault_before="(not executed)", fault_after="(not executed)",
            pp_lines=pp.line_count, source_lines=source_lines,
            steps_before=0, steps_after=0, arbitration=arbitration)

    with profile.stage("execute"):
        before = cached_run_source(pp.text, stdin=program.stdin)
        after = cached_run_source(text, stdin=program.stdin)
    validation = None
    if validate:
        validation = validate_pair(
            pp.text, text, filename=program.name,
            inputs=differential_inputs(program))
    return SamateOutcome(
        program=program.name, cwe=program.cwe,
        slr_applied=slr_applied, str_applied=str_applied,
        bad_faulted_before=before.fault is not None,
        fixed_after=after.fault is None,
        good_preserved=after.stdout.startswith(before.stdout),
        fault_before=before.fault or "", fault_after=after.fault or "",
        pp_lines=pp.line_count, source_lines=source_lines,
        steps_before=before.steps, steps_after=after.steps,
        validation=validation, arbitration=arbitration)


@dataclass(frozen=True)
class _SuiteTask:
    program: TestProgram
    execute: bool
    validate: bool = False
    backends: tuple[str, ...] | None = None


def _run_suite_task(task: _SuiteTask) -> SamateOutcome:
    return run_samate_program(task.program, execute=task.execute,
                              validate=task.validate,
                              backends=task.backends)


def run_samate_suite(programs: list[TestProgram], *,
                     execute: set[int] | None = None,
                     validate: bool = False,
                     backends: tuple[str, ...] | None = None,
                     jobs: int | None = None) -> list[SamateOutcome]:
    """Run many SAMATE programs, optionally over a fork pool.

    ``execute`` holds the ``id()`` of each program to actually run in
    the VM (None = execute all).  ``validate`` adds the differential
    oracle to every executed program.  Outcomes come back in input order
    regardless of worker count, so parallel evaluation tables are
    byte-identical to serial ones.
    """
    from ..core.batch import default_jobs
    tasks = [_SuiteTask(p, execute is None or id(p) in execute,
                        validate and (execute is None or id(p) in execute),
                        tuple(backends) if backends else None)
             for p in programs]
    jobs = default_jobs() if jobs is None else max(1, jobs)
    if jobs == 1 or len(tasks) <= 1:
        return [_run_suite_task(task) for task in tasks]
    import multiprocessing as mp
    try:
        ctx = mp.get_context("fork")
    except ValueError:
        return [_run_suite_task(task) for task in tasks]
    chunk = max(1, len(tasks) // (jobs * 4))
    with ctx.Pool(min(jobs, len(tasks))) as pool:
        return pool.map(_run_suite_task, tasks, chunksize=chunk)


def stratified_sample(programs: list[TestProgram],
                      limit: int) -> list[TestProgram]:
    """An evenly spaced sample preserving variant/flow diversity."""
    if limit >= len(programs):
        return list(programs)
    step = len(programs) / limit
    return [programs[int(i * step)] for i in range(limit)]


def sample_program(scale: float = 0.05, limit: int = 24) -> SourceProgram:
    """A multi-file :class:`SourceProgram` built from a stratified SAMATE
    sample — one .c file per generated test program."""
    programs = [p for progs in generate_suite(scale).values()
                for p in progs]
    sample = stratified_sample(programs, limit)
    return SourceProgram(
        name=f"samate-sample-{len(sample)}",
        files={p.name + ".c": p.source for p in sample})
