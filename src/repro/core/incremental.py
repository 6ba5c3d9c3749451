"""Function-granular incremental re-analysis.

One :class:`IncrementalEngine` per watched file turns a sequence of
edits into a sequence of :class:`UpdateReport`\\ s whose transformed
text, per-site outcomes, and oracle verdicts are byte-identical to a
cold :func:`repro.core.batch.transform_file` run over the same text —
only the latency differs.  The machinery:

* The raw text is tiled into preamble / function / gap segments by
  :mod:`repro.cfront.funcdiff`; token-level hashing identifies which
  function bodies an edit actually touched, so whitespace and comment
  edits invalidate nothing.
* Preprocessing composes per-fragment: the preamble render plus one
  cached render per function (``#include`` expansion and macros live in
  the preamble, which incremental updates require to be unchanged).
  Renders see the program's private headers, and their keys carry the
  header texts, so a header edit misses instead of replaying a stale
  fragment.  A warm-up self-check compares the composition against the
  real preprocessor and permanently falls back on mismatch.
* SLR and STR each replay per-function :class:`FunctionRecord`\\ s from
  the content-addressed ``func`` store family.  Records are keyed per
  *coupling component* — the union-find closure of functions connected
  through calls or shared globals (:func:`repro.cfront.funcdiff.components`)
  — over ``(stage, config, fresh-name pressure, preamble, member
  fragments)``, so unchanged components hit the disk cache across edits
  and across processes.  A miss runs the real transformation on a
  reduced unit of ``preamble + component members`` whose output is
  provably identical to the component's slice of a whole-file run
  (``reserved_names`` equalizes fresh-name allocation; finalize blocks
  are recomputed from the merged per-function declaration needs).
* Stale per-function dataflow on the retained warm analysis is dropped
  through :meth:`repro.analysis.ProgramAnalysis.invalidate`.
* The differential oracle reuses probe executions whose previous runs
  never entered a dirty function (:class:`repro.core.validate.IncrementalValidator`).

Any situation the incremental path does not model — preamble edits,
reorders, mid-file declarations, edits outside function spans,
position-dependent macros — falls back to the full pipeline, which is
also how the engine warms up.  The full pipeline is the batch's: the
engine hands :func:`repro.core.batch.transform_file` the raw text and
the program's headers, the task a batch builds for the file, and it
preprocesses and runs SLR, STR and the verify step under the batch's
stage guards (the engine's own oracle then judges a report that is not
``failed``, so later edits can reuse its probe runs).  A stage failure,
injected by a fault rule included, degrades the report exactly as in a
batch and leaves no warm state, so every later update runs the full
pipeline again; a ``failed`` report is an ``error`` record.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace

from functools import lru_cache

from ..cfront.cache import ContentCache, content_key, header_key_parts
from ..cfront.funcdiff import (SegmentedFile, UnsupportedLayout, components,
                               diff_files, dirty_closure, patch_segment,
                               segment_file)
from ..cfront.preprocessor import Preprocessor, _squeeze_blank_lines
from ..cfront.rewriter import Rewriter
from ..cfront.source import UNDECODABLE
from ..cfront.tokens import tokens_to_text
from . import faults
from .batch import FileTask, transform_file
from .diagnostics import STATUS_FAILED, STATUS_OK, \
    diagnostic_from_exception, status_of
from .session import AnalysisSession, get_session
from .slr import SafeLibraryReplacement
from .slr import finalize_blocks as slr_finalize_blocks
from .strtransform import SafeTypeReplacement
from .strtransform import finalize_blocks as str_finalize_blocks
from .transform import sort_outcomes
from .validate import IncrementalValidator, default_inputs

__all__ = ["FunctionRecord", "IncrementalEngine", "UpdateReport"]


#: Function-granular artifacts: per-fragment preprocessor renders and
#: per-component transformation records, shared with the disk store's
#: ``func`` family so warm processes replay edits they have never seen.
_FUNC_CACHE = ContentCache("func", maxsize=4096, family="func")

#: Composing preprocessor output per-fragment moves code to different
#: absolute lines than a whole-file run, so any position-dependent macro
#: makes the file permanently unsupported.
_POSITION_MACROS = re.compile(r"__(?:LINE|FILE|DATE|TIME|COUNTER)__")

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


@lru_cache(maxsize=8192)
def _ids_in(text: str) -> frozenset:
    return frozenset(_IDENTIFIER.findall(text))


def _seg_identifiers(seg: SegmentedFile) -> frozenset:
    """Every identifier-shaped spelling in the segmented text.

    Equals ``_IDENTIFIER.findall(seg.text)`` as a set: tiles join at a
    newline (function tiles start at column 1) or after ``}``, so no
    identifier straddles a boundary — which makes the scan memoizable
    per tile and O(edit) across updates instead of O(file).
    """
    out: set = set()
    for tile in seg.segments:
        out |= _ids_in(tile.text)
    return frozenset(out)


class _Fallback(Exception):
    """Route this update through the full pipeline.

    ``permanent`` marks structural properties of the file that will not
    go away with further edits (the engine stops re-attempting the
    incremental path); transient reasons are retried next update.
    """

    def __init__(self, reason: str, permanent: bool = False):
        super().__init__(reason)
        self.reason = reason
        self.permanent = permanent


# ------------------------------------------------------------ records

@dataclass
class FunctionRecord:
    """One function's slice of a transformation run.

    ``output_text`` is the fragment with its own edits applied;
    ``outcomes`` carry lines relative to the fragment's first line, so a
    record is position-independent and can be replayed wherever the
    fragment lands in a composed file.
    """

    output_text: str
    outcomes: tuple = ()
    decls: frozenset = frozenset()      # SLR _needed_decls contributed
    transformed: bool = False


def _function_spans(seg: SegmentedFile) -> dict[str, tuple[int, int, int]]:
    """``name -> (start offset, end offset, 1-based start line)``."""
    spans: dict[str, tuple[int, int, int]] = {}
    pos = 0
    line = 1
    for tile in seg.segments:
        if tile.is_function:
            spans[tile.name] = (pos, pos + len(tile.text), line)
        pos += len(tile.text)
        line += tile.text.count("\n")
    return spans


def _split_records(spans: dict[str, tuple[int, int, int]],
                   result) -> dict[str, FunctionRecord]:
    """Slice one whole-unit transformation result into per-function
    records.

    Every site edit and every outcome must be attributable to exactly
    one function span (finalize edits excepted — they must all be
    insertions at offset 0, recomputed at composition time); anything
    else makes the file unsupported for replay.
    """
    text = result.original_text
    for start, end, _replacement in result.finalize_edits:
        if (start, end) != (0, 0):
            raise _Fallback("finalize-edit-not-at-offset-0", permanent=True)

    ordered = sorted(spans.items(), key=lambda kv: kv[1][0])
    edits_by_fn: dict[str, list] = {name: [] for name in spans}
    for edit in result.site_edits:
        start, end, _replacement = edit
        for name, (s, e, _line) in ordered:
            if s <= start and end <= e:
                edits_by_fn[name].append(edit)
                break
        else:
            raise _Fallback("edit-outside-function-span", permanent=True)

    outcomes_by_fn: dict[str, list] = {name: [] for name in spans}
    for outcome in result.outcomes:
        span = spans.get(outcome.function)
        if span is None:
            raise _Fallback("outcome-without-function", permanent=True)
        rel_line = outcome.line - span[2]
        if rel_line < 0:
            raise _Fallback("outcome-line-outside-function", permanent=True)
        outcomes_by_fn[outcome.function].append(
            replace(outcome, line=rel_line))

    decls_by_fn = result.decls_by_function
    records: dict[str, FunctionRecord] = {}
    for name, (s, e, _line) in spans.items():
        fragment = text[s:e]
        fn_edits = edits_by_fn[name]
        if fn_edits:
            rewriter = Rewriter(fragment)
            for es, ee, rep in fn_edits:     # queue order is preserved
                rewriter.replace_range(es - s, ee - s, rep)
            output = rewriter.apply()
        else:
            output = fragment
        outcomes = tuple(outcomes_by_fn[name])
        records[name] = FunctionRecord(
            output_text=output, outcomes=outcomes,
            decls=frozenset(decls_by_fn.get(name, ())),
            transformed=any(o.transformed for o in outcomes))
    return records


# ------------------------------------------------------------- stages

class _SlrSpec:
    stage_id = "slr"
    fresh_bases = ("check",)

    def __init__(self, profile: str):
        self.config = profile

    def make(self, text: str, filename: str, session, reserved: frozenset):
        return SafeLibraryReplacement(text, filename, profile=self.config,
                                      session=session,
                                      reserved_names=reserved)

    def finalize(self, text: str, records: dict[str, FunctionRecord]):
        needed: set = set()
        for record in records.values():
            needed |= record.decls
        return slr_finalize_blocks(text, needed)


class _StrSpec:
    stage_id = "str"
    fresh_bases = ()
    config = ""

    def make(self, text: str, filename: str, session, reserved: frozenset):
        return SafeTypeReplacement(text, filename, session=session)

    def finalize(self, text: str, records: dict[str, FunctionRecord]):
        return str_finalize_blocks(
            text, any(r.transformed for r in records.values()))


@dataclass
class _StageState:
    """One stage's composed view of the current file."""

    seg: SegmentedFile              # segmentation of the stage INPUT
    records: dict                   # name -> FunctionRecord
    output_text: str
    outcomes: list                  # absolute coordinates, sorted
    blocks: tuple = ()              # finalize blocks prepended to output


class _StageRunner:
    """Replays or recomputes one transformation stage per component."""

    def __init__(self, spec, filename: str):
        self.spec = spec
        self.filename = filename

    # -------------------------------------------------- key derivation

    def _pressure(self, seg: SegmentedFile) -> str:
        """Fresh-name pressure: every spelling in the whole unit that
        could collide with a name this stage might allocate.  Part of
        the component key so allocation is stable across edits to
        unrelated functions."""
        if not self.spec.fresh_bases:
            return ""
        ids = _seg_identifiers(seg)
        hits = []
        for base in self.spec.fresh_bases:
            prefix = base + "_"
            hits.extend(n for n in ids if n == base or n.startswith(prefix))
        return ",".join(sorted(set(hits)))

    def _component_keys(self, seg: SegmentedFile):
        """``(store key, member names in file order)`` per component."""
        comp = components(seg)
        order = seg.function_order()
        fns = seg.functions()
        pressure = self._pressure(seg)
        preamble = seg.preamble.text
        seen: set = set()
        out = []
        for name in order:
            group = comp[name]
            if group in seen:
                continue
            seen.add(group)
            members = [n for n in order if n in group]
            key = content_key("func", self.spec.stage_id, self.spec.config,
                              pressure, preamble,
                              *[fns[n].text for n in members])
            out.append((key, members))
        return out

    # ------------------------------------------------------- warm path

    def from_full(self, seg: SegmentedFile, result) -> _StageState:
        """Build and publish records from a real whole-unit run's
        result (``seg`` segments its input text)."""
        records = _split_records(_function_spans(seg), result)
        for key, members in self._component_keys(seg):
            submap = {name: records[name] for name in members}
            _FUNC_CACHE.get_or_build(key, lambda sm=submap: sm)
        blocks = tuple(self.spec.finalize(seg.text, records))
        return _StageState(seg, records, result.new_text,
                           list(result.outcomes), blocks)

    # ------------------------------------------------ incremental path

    def update(self, seg: SegmentedFile, session: AnalysisSession,
               reserved: frozenset) -> _StageState:
        if seg.has_midfile_declarations():
            raise _Fallback("midfile-declarations")
        records: dict[str, FunctionRecord] = {}
        for key, members in self._component_keys(seg):
            submap = _FUNC_CACHE.get_or_build(
                key, lambda m=members: self._fresh(seg, m, session, reserved))
            records.update(submap)
        return self._compose(seg, records)

    def _fresh(self, seg: SegmentedFile, members: list[str],
               session: AnalysisSession,
               reserved: frozenset) -> dict[str, FunctionRecord]:
        """Run the real transformation on ``preamble + members`` and
        slice the result.  ``reserved`` (every identifier spelling in
        the whole stage input) makes fresh-name allocation — the only
        whole-unit-dependent part of a transformation — identical to a
        whole-file run."""
        preamble = seg.preamble.text
        if preamble and not preamble.endswith("\n"):
            raise _Fallback("preamble-not-line-terminated", permanent=True)
        fns = seg.functions()
        parts = [preamble]
        pos = len(preamble)
        line = 1 + preamble.count("\n")
        spans: dict[str, tuple[int, int, int]] = {}
        for i, name in enumerate(members):
            fragment = fns[name].text
            spans[name] = (pos, pos + len(fragment), line)
            parts.append(fragment)
            pos += len(fragment)
            line += fragment.count("\n")
            separator = "\n\n" if i + 1 < len(members) else "\n"
            parts.append(separator)
            pos += len(separator)
            line += separator.count("\n")
        reduced = "".join(parts)
        result = self.spec.make(reduced, self.filename, session,
                                reserved).run()
        if result.changed and session.try_parse(
                result.new_text, self.filename)[1] is not None:
            raise _Fallback("reduced-output-does-not-parse")
        return _split_records(spans, result)

    def _compose(self, seg: SegmentedFile,
                 records: dict[str, FunctionRecord]) -> _StageState:
        """Stitch per-function outputs (and recomputed finalize blocks)
        back into whole-file output text and absolute outcomes."""
        blocks = tuple(self.spec.finalize(seg.text, records))
        parts = list(blocks)
        outcomes = []
        spans = _function_spans(seg)
        for tile in seg.segments:
            if not tile.is_function:
                parts.append(tile.text)
                continue
            record = records[tile.name]
            parts.append(record.output_text)
            line0 = spans[tile.name][2]
            outcomes.extend(replace(outcome, line=line0 + outcome.line)
                            for outcome in record.outcomes)
        return _StageState(seg, records, "".join(parts),
                           sort_outcomes(outcomes), blocks)


# ------------------------------------------------------------- report

@dataclass
class UpdateReport:
    """One edit-to-verdict round trip."""

    filename: str
    mode: str   # 'full' | 'incremental' | 'no-op' | 'error' | 'removed'
    reason: str                     # why this mode (fallback cause, ...)
    final_text: str
    parses: bool
    slr_outcomes: list = field(default_factory=list)
    str_outcomes: list = field(default_factory=list)
    validation: object = None       # ValidationReport | None
    #: The batch's file status and contained failures (see
    #: :class:`repro.core.batch.FileTransformReport`).
    status: str = STATUS_OK
    diagnostics: list = field(default_factory=list)
    changed: frozenset = frozenset()
    inserted: frozenset = frozenset()
    deleted: frozenset = frozenset()
    invalidated: frozenset = frozenset()    # functions re-analyzed
    wall_s: float = 0.0
    func_hits: int = 0              # func-family hits during this update
    func_misses: int = 0            # func-family computes during this update
    probes_reused: int = 0
    probes_executed: int = 0

    def verdict_counts(self) -> dict:
        return self.validation.counts() if self.validation is not None else {}

    def as_dict(self) -> dict:
        return {
            "filename": self.filename,
            "mode": self.mode,
            "reason": self.reason,
            "status": self.status,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "parses": self.parses,
            "changed": sorted(self.changed),
            "inserted": sorted(self.inserted),
            "deleted": sorted(self.deleted),
            "invalidated": sorted(self.invalidated),
            "sites": {
                "slr": [f"{o.function}:{o.line} {o.target} {o.status}"
                        for o in self.slr_outcomes],
                "str": [f"{o.function}:{o.line} {o.target} {o.status}"
                        for o in self.str_outcomes],
            },
            "verdicts": self.verdict_counts(),
            "wall_s": round(self.wall_s, 6),
            "func_cache": {"hits": self.func_hits,
                           "misses": self.func_misses},
            "probes": {"reused": self.probes_reused,
                       "executed": self.probes_executed},
        }


# ------------------------------------------------------------- engine

class IncrementalEngine:
    """Re-analyzes successive versions of one file, reusing everything
    an edit did not touch.  See the module docstring for the contract:
    every report is byte-identical to a cold run of the same text.

    ``headers`` are the program's private headers (name -> text), fixed
    for the engine's life: a header edit needs a new engine.
    """

    def __init__(self, filename: str = "<watch>", *,
                 headers: dict[str, str] | None = None,
                 profile: str = "glib", validate: bool = True,
                 fuzz_seed=None, session: AnalysisSession | None = None):
        self.filename = filename
        #: ``(name, text)`` sorted by name, as a batch task carries them.
        self.headers = tuple(sorted(dict(headers or {}).items()))
        self._header_key = header_key_parts(self.headers)
        self.profile = profile
        self.validate = validate
        self.fuzz_seed = fuzz_seed
        self.session = session if session is not None else get_session()
        self.validator = IncrementalValidator(filename)
        self._slr = _StageRunner(_SlrSpec(profile), filename)
        self._str = _StageRunner(_StrSpec(), filename)
        self._unsupported = ""          # permanent-fallback reason
        self._last_report: UpdateReport | None = None
        self._reset_state()

    def _reset_state(self) -> None:
        self._raw_text: str | None = None
        self._raw_seg: SegmentedFile | None = None
        self._pp_text: str | None = None
        self._pp_seg: SegmentedFile | None = None
        self._slr_state: _StageState | None = None
        self._str_state: _StageState | None = None
        self._analysis = None

    # ----------------------------------------------------------- API

    def update(self, text: str) -> UpdateReport:
        """Analyze ``text`` (the new raw file content) and report."""
        t0 = time.perf_counter()
        hits0, misses0 = self._func_counters()
        reused0 = self.validator.reused_probes
        executed0 = self.validator.executed_probes
        try:
            if self._unsupported:
                raise _Fallback(self._unsupported)
            if self._raw_text is None:
                raise _Fallback("cold-start")
            report = self._incremental(text)
        except _Fallback as fb:
            if fb.permanent:
                self._unsupported = fb.reason
            report = self._full(text, fb.reason)
        except UnsupportedLayout as exc:
            report = self._full(text, f"unsupported-layout: {exc}")
        except Exception as exc:    # never worse than the full pipeline
            report = self._full(text, f"incremental-error: {exc!r}")
        report.wall_s = time.perf_counter() - t0
        hits1, misses1 = self._func_counters()
        report.func_hits = hits1 - hits0
        report.func_misses = misses1 - misses0
        report.probes_reused = self.validator.reused_probes - reused0
        report.probes_executed = self.validator.executed_probes - executed0
        self._last_report = report
        return report

    @staticmethod
    def _func_counters() -> tuple[int, int]:
        stats = _FUNC_CACHE.stats
        return (stats.hits + stats.disk_hits,          # served from cache
                stats.misses - stats.disk_hits)        # truly computed

    def _inputs(self):
        return default_inputs(self.filename, seed=self.fuzz_seed)

    # ------------------------------------------------------ full path

    def _full(self, text: str, reason: str) -> UpdateReport:
        """The batch's pipeline for one file (see the module docstring),
        plus a state rebuild so the next update can go incremental."""
        self._reset_state()
        report = transform_file(
            FileTask(self.filename, text, self.headers,
                     profile=self.profile), self.session)
        if report.status == STATUS_FAILED:
            # No transformation survived, so there is nothing to judge.
            first = report.diagnostics[0]
            return UpdateReport(
                self.filename, "error", f"{first.kind}: {first.message}",
                report.final_text, False, status=STATUS_FAILED,
                diagnostics=list(report.diagnostics))
        # SLR's input, or STR's when SLR failed: the preprocessed text.
        pp = (report.slr or report.str_).original_text
        diagnostics = list(report.diagnostics)
        validation = None
        if self.validate and report.parses:
            try:
                faults.check("validate", self.filename)
                validation = self.validator.validate(
                    pp, report.final_text, None, inputs=self._inputs())
            except Exception as exc:
                diagnostics.append(diagnostic_from_exception(
                    "validate", self.filename, exc))
        if not (self._unsupported or diagnostics):
            try:
                self._rebuild(text, pp, report)
            except _Fallback as fb:
                if fb.permanent:
                    self._unsupported = fb.reason
                self._reset_state()
            except Exception:
                self._reset_state()
        return UpdateReport(
            self.filename, "full", reason, report.final_text, report.parses,
            list(report.slr.outcomes) if report.slr else [],
            list(report.str_.outcomes) if report.str_ else [], validation,
            status=status_of(diagnostics, True), diagnostics=diagnostics)

    def _rebuild(self, raw: str, pp: str, report) -> None:
        """Derive the warm per-function state from a clean full run."""
        if _POSITION_MACROS.search(raw):
            raise _Fallback("position-dependent-macro", permanent=True)
        raw_seg = segment_file(raw, self.filename)
        composed = self._compose_pp(raw_seg)
        if composed != pp:
            raise _Fallback("pp-composition-mismatch", permanent=True)
        pp_seg = segment_file(pp, self.filename)
        if pp_seg.has_midfile_declarations():
            raise _Fallback("midfile-declarations")
        slr_state = self._slr.from_full(pp_seg, report.slr)
        str_seg = segment_file(report.slr.new_text, self.filename)
        if str_seg.has_midfile_declarations():
            raise _Fallback("midfile-declarations")
        str_state = self._str.from_full(str_seg, report.str_)
        self._raw_text, self._raw_seg = raw, raw_seg
        self._pp_text, self._pp_seg = pp, pp_seg
        self._slr_state, self._str_state = slr_state, str_state
        self._analysis = self.session.parse(pp, self.filename).analysis

    # ----------------------------------------------- incremental path

    def _incremental(self, text: str) -> UpdateReport:
        if text == self._raw_text:
            return self._no_op("identical-input")
        if _POSITION_MACROS.search(text):
            raise _Fallback("position-dependent-macro", permanent=True)
        if UNDECODABLE.search(text):
            # A comment edit is a token-level no-op; the full path
            # rejects the byte wherever it sits.
            raise _Fallback("not-utf-8")
        new_raw = patch_segment(self._raw_seg, text) \
            or segment_file(text, self.filename)
        diff = diff_files(self._raw_seg, new_raw)
        if diff.preamble_changed:
            raise _Fallback("preamble-changed")
        if diff.reordered:
            raise _Fallback("functions-reordered")
        if diff.no_op and self._gaps_equal(self._raw_seg, new_raw):
            self._raw_text, self._raw_seg = text, new_raw
            return self._no_op("token-level-no-op")
        pp_new = self._compose_pp(new_raw)
        if pp_new == self._pp_text:
            self._raw_text, self._raw_seg = text, new_raw
            return self._no_op("preprocessed-text-unchanged")

        dirty_raw = dirty_closure(new_raw, diff.dirty)
        invalidated = frozenset(dirty_raw) | frozenset(diff.deleted)
        if self._analysis is not None:
            for name in sorted(invalidated):
                self._analysis.invalidate(name)

        pp_seg = patch_segment(self._pp_seg, pp_new) \
            or segment_file(pp_new, self.filename)
        reserved = _seg_identifiers(pp_seg)
        slr_state = self._slr.update(pp_seg, self.session, reserved)
        str_seg = patch_segment(self._str_state.seg,
                                slr_state.output_text) \
            or segment_file(slr_state.output_text, self.filename)
        str_reserved = _seg_identifiers(str_seg)
        str_state = self._str.update(str_seg, self.session, str_reserved)
        final = str_state.output_text

        validation = None
        if self.validate:
            dirty = self._validation_dirty(pp_seg, slr_state, str_state,
                                           invalidated)
            validation = self.validator.validate(pp_new, final, dirty,
                                                 inputs=self._inputs())

        self._raw_text, self._raw_seg = text, new_raw
        self._pp_text, self._pp_seg = pp_new, pp_seg
        self._slr_state, self._str_state = slr_state, str_state
        return UpdateReport(self.filename, "incremental", "", final, True,
                            list(slr_state.outcomes),
                            list(str_state.outcomes), validation,
                            changed=diff.changed, inserted=diff.inserted,
                            deleted=diff.deleted, invalidated=invalidated)

    def _no_op(self, reason: str) -> UpdateReport:
        previous = self._last_report
        return UpdateReport(self.filename, "no-op", reason,
                            previous.final_text, previous.parses,
                            list(previous.slr_outcomes),
                            list(previous.str_outcomes),
                            previous.validation, previous.status,
                            list(previous.diagnostics))

    def _validation_dirty(self, pp_seg: SegmentedFile,
                          slr_state: _StageState, str_state: _StageState,
                          invalidated: frozenset) -> frozenset | None:
        """Functions whose executable text differs from the previously
        validated pair, or ``None`` (validate everything) when anything
        outside the per-function fragments moved."""
        old_gaps = [t.text for t in self._pp_seg.segments
                    if not t.is_function]
        new_gaps = [t.text for t in pp_seg.segments if not t.is_function]
        if old_gaps != new_gaps:
            return None
        if (self._slr_state.blocks != slr_state.blocks or
                self._str_state.blocks != str_state.blocks):
            return None
        old_final = {n: r.output_text
                     for n, r in self._str_state.records.items()}
        new_final = {n: r.output_text for n, r in str_state.records.items()}
        dirty = set(invalidated)
        for name in set(old_final) | set(new_final):
            if old_final.get(name) != new_final.get(name):
                dirty.add(name)
        return frozenset(dirty)

    # --------------------------------------------------- pp composing

    @staticmethod
    def _gaps_equal(a: SegmentedFile, b: SegmentedFile) -> bool:
        """Same blank-line structure between functions (all the
        preprocessor keeps of a gap is its newline count)."""
        gaps_a = [t.newline_count for t in a.segments if not t.is_function]
        gaps_b = [t.newline_count for t in b.segments if not t.is_function]
        return gaps_a == gaps_b

    def _compose_pp(self, seg: SegmentedFile) -> str:
        """Preprocess per-fragment and stitch the renders together.

        ``render(preamble + fragment)`` starts with ``render(preamble)``
        because processing is line-by-line and rendering concatenative;
        the fragment's render is the remainder.  A gap of *k* newlines
        contributes ``k - 1`` (the fragment's own render already ends
        the ``}`` line).  The warm-up self-check in :meth:`_rebuild`
        guarantees this equals the real preprocessor's output before
        any incremental update relies on it.
        """
        preamble = seg.preamble.text
        if preamble and not preamble.endswith("\n"):
            raise _Fallback("preamble-not-line-terminated", permanent=True)
        filename, headers = self.filename, dict(self.headers)

        def render_preamble():
            return tokens_to_text(
                Preprocessor(headers)._process_text(preamble, filename))

        base_key = content_key("func", "pp", "preamble", *self._header_key,
                               preamble)
        base = _FUNC_CACHE.get_or_build(base_key, render_preamble)
        parts = [base]
        for tile in seg.segments[1:]:
            if not tile.is_function:
                parts.append("\n" * max(0, tile.newline_count - 1))
                continue

            def render_fragment(fragment=tile.text):
                full = tokens_to_text(Preprocessor(headers)._process_text(
                    preamble + fragment, filename))
                if not full.startswith(base):
                    raise _Fallback("pp-prefix-mismatch", permanent=True)
                return full[len(base):]

            key = content_key("func", "pp", "fragment", *self._header_key,
                              preamble, tile.text)
            parts.append(_FUNC_CACHE.get_or_build(key, render_fragment))
        return _squeeze_blank_lines("".join(parts))
