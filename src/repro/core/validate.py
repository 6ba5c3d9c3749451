"""Differential transformation oracle.

The paper's core claim is that SLR/STR are *behaviour-preserving except
at the overflow itself*.  This module checks that claim end-to-end: the
original and the transformed translation unit are executed under the
bounds-checked VM on the same inputs, and every observable divergence
(stdout, exit status, memory-fault traps — see
:meth:`~repro.vm.interp.ExecutionResult.observable`) is classified:

``identical``
    Same observable behaviour — the common case on benign inputs.
``overflow-prevented``
    The original run died on a memory trap and the transformed run did
    not: the fix stopped a smash.  This is the *expected* divergence.
``benign-divergence``
    Outputs differ only by truncation (every transformed output line is
    a prefix of the original's), the documented behaviour of the
    truncating glib family / rejecting Annex K family on over-long but
    otherwise benign data.
``semantics-changed``
    Any other divergence — a transformation bug.  ``repro validate``
    exits non-zero when one is found.

Each file is probed with three input families (§IV's evaluation inputs,
made systematic): *benign* inputs that fit every reasonable buffer,
*overflow* inputs borrowed from the SAMATE generators (long enough to
smash every buffer in the suite), and *fuzz* inputs drawn from a
deterministically seeded PRNG — same seed, same bytes, in every process,
so serial and fork-pool validation verdicts are byte-identical.

The probes differ only in stdin, so a text whose run never reads stdin
runs once per pair and that run answers every probe.  Probe runs are
cached in memory only; the pair's verdict is what the store keeps.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from random import Random

from ..cfront.cache import ContentCache, content_key
from ..vm.interp import ExecutionResult, run_source
from . import profile
from ..envknobs import int_knob

VERDICT_IDENTICAL = "identical"
VERDICT_PREVENTED = "overflow-prevented"
VERDICT_BENIGN = "benign-divergence"
VERDICT_CHANGED = "semantics-changed"

#: Verdict taxonomy, ordered from best to worst.
VERDICTS = (VERDICT_IDENTICAL, VERDICT_PREVENTED, VERDICT_BENIGN,
            VERDICT_CHANGED)

#: Default seed for the fuzz-input PRNG (``REPRO_VALIDATE_SEED``).
DEFAULT_FUZZ_SEED = 20140623

#: Default number of fuzz inputs per file.
DEFAULT_FUZZ_COUNT = 4

#: Step budget per differential run — far above any oracle test program,
#: far below the default VM limit (a runaway input should not stall a
#: whole batch).
DEFAULT_STEP_LIMIT = 2_000_000

#: Allocation budget per differential run (cumulative bytes) — a
#: pathological input driving a runaway allocation loop trips a
#: ``mem-limit`` resource fault instead of ballooning the worker.
DEFAULT_MEM_LIMIT = 64 * 1024 * 1024


def oracle_step_limit() -> int:
    """Per-run step budget for oracle executions
    (``REPRO_VALIDATE_STEPS``, default :data:`DEFAULT_STEP_LIMIT`)."""
    return int_knob("REPRO_VALIDATE_STEPS", DEFAULT_STEP_LIMIT)


def oracle_mem_limit() -> int | None:
    """Per-run allocation budget for oracle executions
    (``REPRO_VALIDATE_MEM`` bytes, default :data:`DEFAULT_MEM_LIMIT`;
    0 disables the budget)."""
    value = int_knob("REPRO_VALIDATE_MEM", DEFAULT_MEM_LIMIT, minimum=0)
    return value if value > 0 else None


@dataclass(frozen=True)
class DifferentialInput:
    """One stdin the oracle feeds to both program versions."""

    name: str
    stdin: bytes
    kind: str                   # 'benign' | 'overflow' | 'fuzz'


def benign_inputs() -> list[DifferentialInput]:
    """Inputs that fit comfortably in every buffer the suite declares."""
    return [
        DifferentialInput("empty", b"", "benign"),
        DifferentialInput("short-line", b"hi\n", "benign"),
        DifferentialInput("two-lines", b"one\ntwo\n", "benign"),
    ]


def overflow_inputs() -> list[DifferentialInput]:
    """Overflow-triggering inputs from the SAMATE generators: the suite
    stdin (sized to smash every ``gets`` buffer the flow/variant
    generators emit) plus a longer unterminated variant."""
    from ..samate.generator import DEFAULT_STDIN
    return [
        DifferentialInput("samate-overflow", DEFAULT_STDIN, "overflow"),
        DifferentialInput("long-unterminated", b"B" * 256, "overflow"),
    ]


def fuzz_inputs(seed: int, count: int = DEFAULT_FUZZ_COUNT,
                max_len: int = 96) -> list[DifferentialInput]:
    """``count`` pseudo-random inputs from a fixed seed.

    ``random.Random`` is specified to produce the same stream for the
    same seed on every platform and process, which keeps fuzz verdicts
    byte-identical across ``--jobs`` settings and cache modes.
    """
    rng = Random(seed)
    inputs = []
    for i in range(count):
        length = rng.randrange(0, max_len)
        body = bytes(rng.randrange(32, 127) for _ in range(length))
        if rng.random() < 0.75:
            body += b"\n"
        inputs.append(DifferentialInput(f"fuzz-{i}", body, "fuzz"))
    return inputs


def file_seed(filename: str, base_seed: int | None = None) -> int:
    """Per-file fuzz seed: stable across processes and orderings (uses
    ``zlib.crc32``, not the salted builtin ``hash``)."""
    if base_seed is None:
        base_seed = int_knob("REPRO_VALIDATE_SEED", DEFAULT_FUZZ_SEED,
                             minimum=None)
    return base_seed ^ zlib.crc32(filename.encode("utf-8", "replace"))


def default_inputs(filename: str = "", *, seed: int | None = None,
                   fuzz_count: int = DEFAULT_FUZZ_COUNT
                   ) -> list[DifferentialInput]:
    """The standard probe set: benign + overflow + seeded fuzz."""
    return (benign_inputs() + overflow_inputs()
            + fuzz_inputs(file_seed(filename, seed), fuzz_count))


# --------------------------------------------------------- classification

def _is_truncation(original: bytes, transformed: bytes) -> bool:
    """Is ``transformed`` a line-wise truncation of ``original``?

    True when the transformed run printed no *new* data: it has at most
    as many lines, and every line is a prefix of the original's
    corresponding line — the shape g_strlcpy-style truncation (or Annex
    K rejection, which empties the destination) produces.
    """
    if transformed == original:
        return False
    o_lines = original.split(b"\n")
    t_lines = transformed.split(b"\n")
    if len(t_lines) > len(o_lines):
        return False
    return all(o.startswith(t) for o, t in zip(o_lines, t_lines))


def classify(before: ExecutionResult, after: ExecutionResult
             ) -> tuple[str, str]:
    """Compare two runs on one input; returns ``(verdict, detail)``."""
    same_stdout = before.stdout == after.stdout
    if before.fault is None and after.fault is None:
        if before.exit_code != after.exit_code:
            return (VERDICT_CHANGED,
                    f"exit {before.exit_code} -> {after.exit_code}")
        if same_stdout:
            return (VERDICT_IDENTICAL, "")
        if _is_truncation(before.stdout, after.stdout):
            return (VERDICT_BENIGN,
                    f"stdout truncated {len(before.stdout)}B -> "
                    f"{len(after.stdout)}B")
        return (VERDICT_CHANGED,
                f"stdout diverged ({len(before.stdout)}B vs "
                f"{len(after.stdout)}B)")
    if before.fault is not None and after.fault is None:
        if before.memory_trapped:
            return (VERDICT_PREVENTED,
                    f"{before.fault} no longer triggers")
        # A step-limit/vm-error that vanished is not a fixed overflow.
        return (VERDICT_CHANGED,
                f"non-memory fault {before.fault} disappeared")
    if before.fault is None and after.fault is not None:
        return (VERDICT_CHANGED,
                f"transformation introduced {after.fault}")
    # Both faulted (e.g. a site SLR's precondition left untouched).
    if before.fault == after.fault and same_stdout:
        return (VERDICT_IDENTICAL, f"both trap on {before.fault}")
    if same_stdout or _is_truncation(before.stdout, after.stdout):
        return (VERDICT_BENIGN,
                f"still faults ({before.fault} -> {after.fault}) "
                f"with truncated output")
    return (VERDICT_CHANGED,
            f"faults and output both diverged "
            f"({before.fault} -> {after.fault})")


# --------------------------------------------------------------- reports

@dataclass
class InputVerdict:
    """The oracle's ruling for one differential input."""

    input: DifferentialInput
    verdict: str
    detail: str
    fault_before: str           # fault kind, '' if the run was clean
    fault_after: str

    def as_dict(self) -> dict:
        return {"input": self.input.name, "kind": self.input.kind,
                "verdict": self.verdict, "detail": self.detail,
                "fault_before": self.fault_before,
                "fault_after": self.fault_after}


@dataclass
class ValidationReport:
    """All verdicts for one original/transformed file pair."""

    filename: str
    verdicts: list[InputVerdict] = field(default_factory=list)
    unchanged: bool = False     # transformation queued no edits

    def counts(self) -> dict[str, int]:
        out = {verdict: 0 for verdict in VERDICTS}
        for v in self.verdicts:
            out[v.verdict] += 1
        return out

    @property
    def semantics_changed(self) -> int:
        return sum(1 for v in self.verdicts
                   if v.verdict == VERDICT_CHANGED)

    @property
    def overflows_prevented(self) -> int:
        return sum(1 for v in self.verdicts
                   if v.verdict == VERDICT_PREVENTED)

    @property
    def ok(self) -> bool:
        """No divergence that points at a transformation bug."""
        return self.semantics_changed == 0

    def divergences(self) -> list[InputVerdict]:
        return [v for v in self.verdicts
                if v.verdict != VERDICT_IDENTICAL]

    def summary(self) -> str:
        if self.unchanged:
            return "unchanged"
        counts = self.counts()
        return " ".join(f"{name}={counts[name]}" for name in VERDICTS
                        if counts[name])

    def as_dict(self) -> dict:
        return {"filename": self.filename, "unchanged": self.unchanged,
                "counts": self.counts(),
                "verdicts": [v.as_dict() for v in self.verdicts]}


# ------------------------------------------------------ persistent layer

#: Table III's before/after runs (``eval/samate_runner.py``), keyed on
#: (text, stdin, limits).  The VM is deterministic, so a run is a pure
#: function of its key; a warm ``table3`` replays every one from disk.
_EXEC_CACHE = ContentCache("execute", family="execute")

#: The oracle's probe runs, same keys, memory only: a later run reads
#: the pair's ``validate`` verdict, never its runs.
_PROBE_CACHE = ContentCache("probe")

#: Whole per-pair oracle verdicts — the big win: a warm ``--validate``
#: run re-executes nothing.
_VALIDATE_CACHE = ContentCache("validate", family="validate")


def cached_run_source(text: str, *, stdin: bytes = b"",
                      step_limit: int = 5_000_000,
                      mem_limit: int | None = None,
                      entry: str = "main") -> ExecutionResult:
    """:func:`repro.vm.interp.run_source` through the content-keyed
    execution cache (memory → disk → interpret)."""
    return _cached_run(_EXEC_CACHE, text, stdin, step_limit, mem_limit,
                       entry)


def _cached_run(cache: ContentCache, text: str, stdin: bytes,
                step_limit: int, mem_limit: int | None,
                entry: str) -> ExecutionResult:
    key = content_key("execute", text, stdin.hex(), str(step_limit),
                      str(mem_limit), entry)
    return cache.get_or_build(
        key, lambda: run_source(text, stdin=stdin, step_limit=step_limit,
                                mem_limit=mem_limit, entry=entry))


def _probe_runner(text: str, step_limit: int, mem_limit: int | None,
                  entry: str):
    """``run(stdin) -> (result, ran)`` for one side of a pair, over
    successive probes.

    A run that never looked at stdin (``ExecutionResult.read_stdin``) is
    the side's result for every later probe, and ``ran`` is False from
    then on.  This is sound because the VM is deterministic (``time()``
    is a constant, ``rand()`` is seeded, every run gets its own virtual
    file system and environment) and the probes differ only in stdin.
    """
    blind = None

    def run(stdin: bytes) -> tuple[ExecutionResult, bool]:
        nonlocal blind
        if blind is not None:
            return blind, False
        result = _cached_run(_PROBE_CACHE, text, stdin, step_limit,
                             mem_limit, entry)
        if not result.read_stdin:
            blind = result
        return result, True

    return run


def _inputs_key_parts(inputs: list[DifferentialInput]) -> list[str]:
    """Key material covering every probe byte-for-byte — a changed
    ``REPRO_VALIDATE_SEED`` (different fuzz bytes) must miss, never
    replay a stale verdict."""
    return [f"{probe.name}|{probe.kind}|{probe.stdin.hex()}"
            for probe in inputs]


# ---------------------------------------------------------------- oracle

def validate_pair(original: str, transformed: str, *,
                  filename: str = "<unit>",
                  inputs: list[DifferentialInput] | None = None,
                  step_limit: int | None = None,
                  mem_limit: int | None = None,
                  entry: str = "main") -> ValidationReport:
    """Run ``original`` vs ``transformed`` on every input and classify.

    Both texts must be preprocessed and parseable (callers gate on the
    batch driver's ``parses`` flag).  Texts that are byte-identical skip
    execution entirely — nothing can have diverged.  Verdicts are served
    from the persistent store when the same pair was validated on the
    same probe bytes by any earlier run of this tool version.

    Every probe run carries a step and a cumulative-allocation budget
    (``step_limit`` / ``mem_limit``; ``None`` defers to the
    ``REPRO_VALIDATE_STEPS`` / ``REPRO_VALIDATE_MEM`` knobs), so one
    pathological input cannot hang or balloon a validation worker.
    """
    if original == transformed:
        return ValidationReport(filename, [], unchanged=True)
    if inputs is None:
        inputs = default_inputs(filename)
    if step_limit is None:
        step_limit = oracle_step_limit()
    if mem_limit is None:
        mem_limit = oracle_mem_limit()
    key = content_key("validate", filename, original, transformed,
                      str(step_limit), str(mem_limit), entry,
                      *_inputs_key_parts(inputs))

    def build() -> ValidationReport:
        return _run_probes(original, transformed, filename, inputs,
                           step_limit, mem_limit, entry)

    with profile.stage("validate"):
        return _VALIDATE_CACHE.get_or_build(key, build)


def _probe_verdict(probe: DifferentialInput, before: ExecutionResult,
                   after: ExecutionResult) -> InputVerdict:
    verdict, detail = classify(before, after)
    return InputVerdict(probe, verdict, detail, before.fault or "",
                        after.fault or "")


def _run_probes(original: str, transformed: str, filename: str,
                inputs: list[DifferentialInput], step_limit: int,
                mem_limit: int | None, entry: str) -> ValidationReport:
    """Run every probe on both texts (see :func:`_probe_runner`) and
    classify."""
    before_of = _probe_runner(original, step_limit, mem_limit, entry)
    after_of = _probe_runner(transformed, step_limit, mem_limit, entry)
    verdicts = [_probe_verdict(probe, before_of(probe.stdin)[0],
                               after_of(probe.stdin)[0])
                for probe in inputs]
    return ValidationReport(filename, verdicts)


class IncrementalValidator:
    """Per-file differential oracle with probe-level execution reuse.

    Holds the :class:`ExecutionResult` pair of every probe from the last
    validated text pair.  On the next edit, a probe whose previous runs
    never *entered* a dirty function (see ``ExecutionResult.entered``)
    is re-classified from the stored results instead of re-executed: all
    code either run could reach is byte-identical, so by induction over
    VM steps the new runs would reproduce the old observables exactly —
    reuse changes latency, never verdicts.  Probes that are re-run share
    :func:`validate_pair`'s stdin rule (:func:`_probe_runner`); a probe
    answered on both sides without a run counts as reused.

    ``dirty`` must name every function whose definition differs between
    the previous and current text pair (on either side), including
    inserted and deleted ones; callers pass ``None`` for "unknown", which
    disables reuse for that update.  Changes outside function bodies
    (globals, directives) invalidate the whole file — callers must pass
    ``None`` then, as the incremental engine's preamble guard does.
    """

    def __init__(self, filename: str = "<unit>", *, entry: str = "main"):
        self.filename = filename
        self.entry = entry
        self._runs: dict[str, tuple[ExecutionResult, ExecutionResult]] = {}
        self._basis: tuple[str, str] | None = None
        #: Probe-execution accounting for diagnostics/bench.
        self.reused_probes = 0
        self.executed_probes = 0

    def validate(self, original: str, transformed: str,
                 dirty: frozenset | None = None, *,
                 inputs: list[DifferentialInput] | None = None,
                 step_limit: int | None = None,
                 mem_limit: int | None = None) -> ValidationReport:
        if original == transformed:
            # Mirror validate_pair's short-circuit.  No runs were taken,
            # so the stored basis no longer matches the next edit's
            # dirty set — drop it and re-execute next time.
            self._runs.clear()
            self._basis = None
            return ValidationReport(self.filename, [], unchanged=True)
        if inputs is None:
            inputs = default_inputs(self.filename)
        if step_limit is None:
            step_limit = oracle_step_limit()
        if mem_limit is None:
            mem_limit = oracle_mem_limit()
        new_runs: dict[str, tuple[ExecutionResult, ExecutionResult]] = {}
        verdicts = []
        reusable = dirty is not None and self._basis is not None
        before_of = _probe_runner(original, step_limit, mem_limit,
                                  self.entry)
        after_of = _probe_runner(transformed, step_limit, mem_limit,
                                 self.entry)
        with profile.stage("validate"):
            for probe in inputs:
                prev = self._runs.get(probe.name) if reusable else None
                if prev is not None and \
                        not ((prev[0].entered | prev[1].entered)
                             & dirty):
                    before, after = prev
                    ran = False
                else:
                    before, ran_before = before_of(probe.stdin)
                    after, ran_after = after_of(probe.stdin)
                    ran = ran_before or ran_after
                if ran:
                    self.executed_probes += 1
                else:
                    self.reused_probes += 1
                new_runs[probe.name] = (before, after)
                verdicts.append(_probe_verdict(probe, before, after))
        self._runs = new_runs
        self._basis = (original, transformed)
        report = ValidationReport(self.filename, verdicts)
        # Publish under the whole-pair key too, so a later cold
        # ``validate_pair`` on the same pair is a disk hit.
        key = content_key("validate", self.filename, original,
                          transformed, str(step_limit), str(mem_limit),
                          self.entry, *_inputs_key_parts(inputs))
        return _VALIDATE_CACHE.get_or_build(key, lambda: report)


def validate_result(result, *, filename: str = "<unit>",
                    inputs: list[DifferentialInput] | None = None,
                    step_limit: int | None = None,
                    mem_limit: int | None = None) -> ValidationReport:
    """Convenience: validate a :class:`TransformResult` end-to-end."""
    return validate_pair(result.original_text, result.new_text,
                         filename=filename, inputs=inputs,
                         step_limit=step_limit, mem_limit=mem_limit)
