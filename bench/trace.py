"""Outside-in span tracer for the benchmark's child processes.

:class:`Tracer` replaces layer entry points of the ``repro`` package —
module functions and class methods named in :data:`TARGETS` — with
wrappers that record one span per call (name, start, end, parent span)
and puts every original back on :meth:`Tracer.uninstall`.  Nothing
under ``src/`` is edited, so the traced program is the shipped one.

Pool workers forked while the wrappers are installed inherit them.
Spans are kept in memory and written, one JSON object per line, to
``spans-<pid>.jsonl``: by the installing process on uninstall, and by a
pool worker whenever its outermost span closes — workers leave through
``os._exit`` and run no exit handlers, so a buffer held until exit
would be lost.  The file is opened lazily in each process, after the
fork.

:func:`summarize` turns the span files of one traced run into the
per-layer metrics.  A span's self time is its duration minus the
durations of its direct children (spans in one process nest strictly:
the pipeline is single-threaded per process).  A process's wall is the
summed duration of its root spans — the calls the benchmark itself made
in the measured process, and ``transform_file`` in pool workers — and
the self time of those roots is the process's ``unattributed`` time:
work no named layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

_MISSING = object()


def _parse_attrs(args, result):
    return {"kb": len(args[0].text) / 1024.0}


def _vm_attrs(args, result):
    return {"steps": result.steps}


def _load_attrs(args, result):
    return {"family": args[1], "hit": bool(result[0]), "bytes": result[2]}


def _store_attrs(args, result):
    return {"family": args[1], "bytes": result}


#: ``(span name, module, attribute path, attribute extractor)``.  A
#: method is named ``Class.method``; the wrapper is installed on that
#: class even when the method is inherited.  Functions other modules
#: import by name are patched where they are looked up at call time
#: (``validate_pair`` in ``core.batch``, ``run_source`` in
#: ``core.validate``, the funcdiff helpers in ``core.incremental``).
TARGETS = (
    ("cli", "repro.cli", "cmd_batch", None),
    ("scheduler", "repro.core.batch", "apply_batch", None),
    ("task", "repro.core.batch", "transform_file", None),
    ("scheduler.ipc", "repro.core.batch", "ProcessPoolExecutor._drain", None),
    ("scheduler.ipc", "repro.core.batch", "ProcessPoolExecutor._spawn", None),
    ("scheduler.ipc", "repro.core.batch",
     "ProcessPoolExecutor._Worker.assign", None),
    ("preprocess", "repro.cfront.preprocessor", "Preprocessor.preprocess",
     None),
    # Parser.__init__ lexes the whole unit before Parser.parse runs.
    ("parse.lex", "repro.cfront.parser", "Parser.__init__", None),
    ("parse", "repro.cfront.parser", "Parser.parse", _parse_attrs),
    ("cache", "repro.cfront.cache", "ContentCache.get_or_build", None),
    ("analysis.bind_type", "repro.analysis", "ProgramAnalysis.ensure_types",
     None),
    ("analysis.cfg", "repro.analysis", "build_all_cfgs", None),
    ("analysis.reaching", "repro.analysis.reaching",
     "ReachingDefinitions.__init__", None),
    ("analysis.pointsto", "repro.analysis.pointsto",
     "PointsToAnalysis.__init__", None),
    ("analysis.alias", "repro.analysis.alias", "AliasAnalysis.__init__",
     None),
    ("analysis.dependence", "repro.analysis.dependence",
     "DependenceAnalysis.__init__", None),
    ("slr", "repro.core.slr", "SafeLibraryReplacement.run", None),
    ("str", "repro.core.strtransform", "SafeTypeReplacement.run", None),
    ("verify", "repro.core.session", "AnalysisSession.try_parse", None),
    ("oracle", "repro.core.batch", "validate_pair", None),
    # Probe generation; its first call in a worker imports the SAMATE
    # generator for the overflow stdin.
    ("oracle.inputs", "repro.core.batch", "default_inputs", None),
    ("oracle", "repro.core.validate", "IncrementalValidator.validate", None),
    ("vm", "repro.core.validate", "run_source", _vm_attrs),
    ("store.load", "repro.core.store", "ArtifactStore.load", _load_attrs),
    ("store.write", "repro.core.store", "ArtifactStore.store", _store_attrs),
    ("journal", "repro.core.runlog", "RunJournal.begin", None),
    ("journal", "repro.core.runlog", "RunJournal.load", None),
    ("journal", "repro.core.runlog", "RunJournal.close", None),
    ("journal", "repro.core.runlog", "RunJournal.replay", None),
    ("journal", "repro.core.runlog", "RunJournal.write_audit", None),
    ("journal", "repro.core.runlog", "RunJournal.read_audit", None),
    ("journal.record", "repro.core.runlog", "RunJournal.record_dispatched",
     None),
    ("journal.record", "repro.core.runlog", "RunJournal.record_result",
     None),
    ("journal.record", "repro.core.runlog", "RunJournal.record_quarantined",
     None),
    ("incremental", "repro.core.incremental", "IncrementalEngine.update",
     None),
    ("funcdiff", "repro.core.incremental", "segment_file", None),
    ("funcdiff", "repro.core.incremental", "patch_segment", None),
    ("funcdiff", "repro.core.incremental", "diff_files", None),
)

#: Store families broken out per family in ``store.<family>.load_s``.
STORE_FAMILIES = ("preprocess", "parse", "slr", "str", "validate",
                  "execute", "func")


def resolve(module: str, path: str):
    """``(owner, attribute name)`` for a dotted attribute path."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs the :data:`TARGETS` wrappers and records their spans."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        #: ``(owner, attr, raw value in owner.__dict__ or _MISSING)``.
        self._saved: list[tuple[object, str, object]] = []
        self._owner: int | None = None
        self._pid: int | None = None
        self._fd: int | None = None
        self._stack: list[dict] = []
        self._buffer: list[dict] = []
        self._next_id = 0

    # ------------------------------------------------------- patching

    def install(self) -> None:
        self._owner = os.getpid()
        for name, module, path, attrs in TARGETS:
            owner, attr = resolve(module, path)
            self._saved.append((owner, attr,
                                vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr),
                                           attrs))

    def uninstall(self) -> list[str]:
        """Restore every original; returns the targets still patched
        afterwards (empty when nothing leaked)."""
        for owner, attr, raw in reversed(self._saved):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        leaked = [f"{getattr(owner, '__name__', owner)}.{attr}"
                  for owner, attr, raw in self._saved
                  if vars(owner).get(attr, _MISSING) is not raw]
        self._saved.clear()
        if self._buffer:
            self._flush()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        return leaked

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` wrapped so every call records a span called ``name``;
        ``attrs(args, result)`` adds attributes after a normal return."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, result)
                return result
            finally:
                tracer._close(span, extra)

        return traced

    # ---------------------------------------------------------- spans

    def _open(self, name: str) -> dict:
        pid = os.getpid()
        if pid != self._pid:
            # First span in this process, or in a worker forked while
            # the parent had spans open: those belong to the parent.
            self._pid, self._fd = pid, None
            self._stack, self._buffer = [], []
        self._next_id += 1
        span = {"n": name, "i": self._next_id,
                "u": self._stack[-1]["i"] if self._stack else None,
                "s": time.perf_counter()}
        self._stack.append(span)
        return span

    def _close(self, span: dict, extra: dict | None) -> None:
        span["e"] = time.perf_counter()
        if extra:
            span.update(extra)
        self._stack.pop()
        self._buffer.append(span)
        if not self._stack and self._pid != self._owner:
            self._flush()       # a pool worker: it may never get to exit

    def _flush(self) -> None:
        if self._fd is None:
            path = os.path.join(self.span_dir, f"spans-{self._pid}.jsonl")
            self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                               0o644)
        data = "".join(json.dumps(span) + "\n" for span in self._buffer)
        os.write(self._fd, data.encode("utf-8"))
        self._buffer = []


# ------------------------------------------------------------ analysis

def load_spans(span_dir: str) -> dict[int, list[dict]]:
    """Every recorded span, by process id, annotated by :func:`_annotate`."""
    out: dict[int, list[dict]] = {}
    for entry in sorted(os.listdir(span_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            pid = int(entry[len("spans-"):-len(".jsonl")])
            with open(os.path.join(span_dir, entry), encoding="utf-8") as fh:
                out[pid] = [json.loads(line) for line in fh if line.strip()]
            _annotate(out[pid])
    return out


def _annotate(spans: list[dict]) -> None:
    """Add ``dur``, ``self``, ``kids`` (direct children) and ``below``
    (names of all descendants) to each span of one process."""
    by_id = {span["i"]: span for span in spans}
    for span in spans:
        span["dur"] = span["e"] - span["s"]
        span["self"] = span["dur"]
        span["kids"] = 0
        span["below"] = set()
    for span in spans:
        parent = by_id.get(span["u"])
        if parent is not None:
            parent["self"] -= span["dur"]
            parent["kids"] += 1
        while parent is not None:
            parent["below"].add(span["n"])
            parent = by_id.get(parent["u"])


def process_accounts(spans_by_pid: dict[int, list[dict]]) -> list[dict]:
    """Per process: wall (root-span time), the self time of named layers,
    and the unattributed rest (self time of the roots)."""
    accounts = []
    for pid, spans in sorted(spans_by_pid.items()):
        roots = [s for s in spans if s["u"] is None]
        wall = sum(s["dur"] for s in roots)
        unattributed = sum(s["self"] for s in roots)
        attributed = sum(s["self"] for s in spans if s["u"] is not None)
        accounts.append({"pid": pid, "wall_s": wall,
                         "attributed_s": attributed,
                         "unattributed_s": unattributed,
                         "unattributed_share":
                             unattributed / wall if wall > 0 else 0.0})
    return accounts


def summarize(span_dir: str, main_pid: int, jobs: int) -> tuple[dict, list]:
    """Per-layer metrics and per-process accounts for one traced run.

    ``main_pid`` is the measured process (the one that called into the
    CLI or the engine); every other process is a pool worker.
    """
    spans_by_pid = load_spans(span_dir)
    spans = [s for group in spans_by_pid.values() for s in group]
    main = spans_by_pid.get(main_pid, [])

    def named(name, group=spans):
        return [s for s in group if s["n"] == name]

    def self_s(*names, group=spans):
        return sum(s["self"] for s in group if s["n"] in names)

    def ratio(num, den):
        return num / den if den else 0.0

    parse_self = self_s("parse", "parse.lex")
    cache = named("cache")
    verify = named("verify")
    oracle = named("oracle")
    vm = named("vm")
    loads = named("store.load")
    writes = named("store.write")
    busy = sum(s["dur"] for pid, group in spans_by_pid.items()
               if pid != main_pid for s in group if s["n"] == "task")
    batch_wall = sum(s["dur"] for s in named("scheduler", main))
    main_wall = sum(s["dur"] for s in main if s["u"] is None)
    metrics = {
        "cli.self_s": self_s("cli"),
        "preprocess.calls": len(named("preprocess")),
        "preprocess.self_s": self_s("preprocess"),
        "parse.calls": len(named("parse")),
        "parse.self_s": parse_self,
        "parse.kb_per_s": ratio(sum(s["kb"] for s in named("parse")),
                                parse_self),
        "cache.mem_hit_ratio": ratio(sum(1 for s in cache if not s["kids"]),
                                     len(cache)),
        "analysis.bind_type_s": self_s("analysis.bind_type"),
        "analysis.cfg_s": self_s("analysis.cfg"),
        "analysis.reaching_s": self_s("analysis.reaching"),
        "analysis.pointsto_s": self_s("analysis.pointsto"),
        "analysis.alias_s": self_s("analysis.alias"),
        "analysis.dependence_s": self_s("analysis.dependence"),
        "slr.runs": len(named("slr")),
        "slr.self_s": self_s("slr"),
        "str.runs": len(named("str")),
        "str.self_s": self_s("str"),
        "verify.self_s": self_s("verify"),
        "verify.reparses": sum(1 for s in verify if "parse" in s["below"]),
        "oracle.pairs": len(oracle),
        "oracle.pairs_replayed": sum(1 for s in oracle
                                     if "vm" not in s["below"]),
        "oracle.self_s": self_s("oracle", "oracle.inputs"),
        "vm.runs": len(vm),
        "vm.steps": sum(s["steps"] for s in vm),
        "vm.self_s": self_s("vm"),
        "vm.steps_per_s": ratio(sum(s["steps"] for s in vm), self_s("vm")),
        "store.loads": len(loads),
        "store.hits": sum(1 for s in loads if s["hit"]),
        "store.hit_ratio": ratio(sum(1 for s in loads if s["hit"]),
                                 len(loads)),
        "store.load_s": self_s("store.load"),
        "store.load_mb": sum(s["bytes"] for s in loads) / 2 ** 20,
        "store.writes": len(writes),
        "store.write_s": self_s("store.write"),
        "store.write_mb": sum(s["bytes"] for s in writes) / 2 ** 20,
        "journal.records": len(named("journal.record")),
        "journal.self_s": self_s("journal", "journal.record"),
        "scheduler.worker_busy_s": busy,
        "scheduler.wait_s": self_s("scheduler", group=main),
        "scheduler.wait_share": ratio(self_s("scheduler", group=main),
                                      main_wall),
        "scheduler.overhead_s": self_s("scheduler.ipc", group=main),
        "scheduler.worker_util": ratio(busy, jobs * batch_wall),
        "incremental.update_s": sum(s["dur"] for s in named("incremental")),
        "incremental.self_s": self_s("incremental"),
        "funcdiff.self_s": self_s("funcdiff"),
    }
    for family in STORE_FAMILIES:
        metrics[f"store.{family}.load_s"] = sum(
            s["self"] for s in loads if s["family"] == family)
    accounts = process_accounts(spans_by_pid)
    metrics["trace.unattributed_share"] = max(
        (a["unattributed_share"] for a in accounts), default=0.0)
    return metrics, accounts
