"""The benchmark driver: inputs, timed repetitions, gates and metrics.

One invocation measures one workload for a fixed time budget.  Inputs
come from the seed only.  Every repetition runs in a fresh interpreter
(:mod:`bench.child`), one at a time, with private ``REPRO_CACHE_DIR`` /
``REPRO_RUN_DIR`` directories; every other ``REPRO_*`` variable is
removed, so the shipped defaults are what gets measured.  Repetitions
start until the next one would overrun the budget.

With tracing on, repetitions alternate untraced and traced: per-layer
numbers come from the traced ones, and the traced/untraced wall ratio
is the tracer's overhead.  Traced outputs must match untraced ones.

Everything the benchmark writes lives under ``bench/.work`` and is
removed when the invocation ends.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import checks, trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Pool size of the batch workloads (the machine the baselines were
#: taken on has two cores).
JOBS = 2

#: A repetition that takes longer than this is a hang.
CHILD_TIMEOUT_S = 120

#: Files re-run through ``-j 1`` on an empty store as the reference the
#: pool's outputs must match; the size of the native sample; safe files
#: of each mutant kind whose fixed versions ``fixed_step_ratio`` runs.
REFERENCE_FILES = 16
NATIVE_SAMPLE = 16
STEP_SAMPLE_PER_KIND = 5


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "batch" | "edit"
    files: int = 0               # batch: input files, 10 strata's worth
    synth_seed: int = 0          # batch: added to --seed
    validate: bool = False       # batch: run with --validate
    warm: bool = False           # batch: store filled by an untimed pass
    native: bool = False         # batch: AddressSanitizer spot check
    functions: int = 0           # edit: workers in the fixture
    called: int = 0              # edit: workers main calls
    edits: int = 0               # edit: edits per repetition


WORKLOADS = {w.name: w for w in (
    Workload("cold-batch", "batch", files=50, synth_seed=11, validate=True,
             native=True),
    Workload("warm-rerun", "batch", files=50, synth_seed=11, validate=True,
             warm=True),
    Workload("scale-stream", "batch", files=120, synth_seed=13),
    Workload("edit-loop", "edit", functions=32, called=8, edits=50),
)}

#: ``--smoke`` sizes: a few seconds per workload, one repetition.
SMOKE_FILES = 10
SMOKE_EDITS = 20


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (linear interpolation between ranks)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summary(values: list[float], value: float | None = None) -> dict:
    """A metric's value (the median unless given), quartiles and count."""
    q1, q3 = _quartiles(values)
    return {"value": statistics.median(values) if value is None else value,
            "q1": q1, "q3": q3, "n": len(values)}


def tree_digests(directory: Path) -> dict[str, str]:
    return {entry.name: hashlib.sha256(entry.read_bytes()).hexdigest()
            for entry in sorted(directory.iterdir()) if entry.is_file()}


# ------------------------------------------------------------ workspace

class Workspace:
    """This invocation's private directory under ``bench/.work``."""

    def __init__(self, workload: str, seed: int):
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.tmp = self.dir / "tmp"
        self.tmp.mkdir(parents=True)
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def fresh(self, name: str) -> Path:
        self._count += 1
        path = self.dir / f"{self._count:03d}-{name}"
        path.mkdir()
        return path

    def env(self, store: Path, runs: Path) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
                   TMPDIR=str(self.tmp), REPRO_CACHE_DIR=str(store),
                   REPRO_RUN_DIR=str(runs))
        return env

    def spawn(self, config: dict, *, store: Path, runs: Path) -> dict:
        """Run one :mod:`bench.child` repetition; returns its result with
        ``setup_s`` (spawn to ready) and ``elapsed`` (spawn to exit)."""
        rep = self.fresh(config["mode"])
        config = dict(config, result=str(rep / "result.json"))
        config_path = rep / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        log_path = rep / "log.txt"
        with open(log_path, "w", encoding="utf-8") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, "-m", "bench.child", str(config_path)],
                cwd=ROOT, env=self.env(store, runs), stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise BenchError(f"repetition hung for {CHILD_TIMEOUT_S}s")
            elapsed = time.monotonic() - start
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"repetition failed (exit {proc.returncode}):"
                             f"\n{tail}")
        result = json.loads(Path(config["result"]).read_text())
        result["setup_s"] = result["t_ready"] - start
        result["elapsed"] = elapsed
        return result

    def warm_up(self) -> None:
        """Import the package once, untimed, so no repetition pays for
        cold file-system caches or bytecode compilation."""
        subprocess.run([sys.executable, "-c",
                        "import repro.cli, repro.core.incremental"],
                       cwd=ROOT, env=self.env(self.tmp, self.tmp),
                       check=True, timeout=CHILD_TIMEOUT_S)


def repeat(seconds: float, smoke: bool, traced: bool, one) -> list[dict]:
    """Call ``one(traced_rep)`` until the budget is spent: never start a
    repetition the median so far says would overrun it.  With tracing,
    repetitions alternate untraced/traced and at least one of each
    runs; ``smoke`` stops as soon as that minimum is met."""
    reps: list[dict] = []
    start = time.monotonic()
    minimum = 2 if traced else 1
    while True:
        rep = one(traced and len(reps) % 2 == 1)
        reps.append(rep)
        if len(reps) < minimum:
            continue
        if smoke:
            return reps
        typical = statistics.median(r["elapsed"] for r in reps)
        if time.monotonic() - start + typical > seconds:
            return reps


# -------------------------------------------------------------- batch

def _synth_inputs(ws: Workspace, workload: Workload, seed: int
                  ) -> tuple[Path, dict[str, str]]:
    """``repro synth`` files, the same number of each (mutant kind,
    label) pair, so every seed draws the same mix of work; returns the
    input directory and each file's planted label."""
    from repro.corpus.synth import MUTANT_KINDS, synthesize
    strata = [(kind, label) for kind in MUTANT_KINDS
              for label in ("overflow", "safe")]
    per_stratum = workload.files // len(strata)
    count = 2 * workload.files
    while True:
        mutants = synthesize(count, workload.synth_seed + seed,
                             validate=False)
        chosen = []
        for stratum in strata:
            chosen += [m for m in mutants
                       if (m.kind, m.label) == stratum][:per_stratum]
        if len(chosen) == per_stratum * len(strata):
            break
        count *= 2
    inputs = ws.fresh("inputs")
    for mutant in chosen:
        (inputs / mutant.filename).write_text(mutant.source,
                                              encoding="utf-8")
    return inputs, {m.filename: (m.kind, m.label) for m in chosen}


def _batch_argv(workload: Workload, inputs: Path, out: Path,
                jobs: int) -> list[str]:
    return ["batch", str(inputs), "-o", str(out),
            *(["--validate"] if workload.validate else []),
            "-j", str(jobs)]


def _label_gate(files: dict, labels: dict[str, str]) -> list[str]:
    """Every planted overflow prevented without a semantics change;
    every safe file judged identical on every probe.  A file the journal
    has no entry for fails the coverage gate instead."""
    wrong = []
    for name, label in sorted(labels.items()):
        if name not in files:
            continue
        counts = files[name]["verdicts"] or {}
        if label == "overflow":
            ok = counts.get("overflow-prevented", 0) >= 1 \
                and counts.get("semantics-changed", 0) == 0
        else:
            ok = all(n == 0 for verdict, n in counts.items()
                     if verdict != "identical")
        if not ok:
            wrong.append(f"{name} ({label}): {counts}")
    return [f"oracle verdicts disagree with planted labels: {w}"
            for w in wrong[:5]]


def run_batch(workload: Workload, seed: int, seconds: float, traced: bool,
              smoke: bool, ws: Workspace) -> dict:
    inputs, planted = _synth_inputs(ws, workload, seed)
    labels = {name: label for name, (_kind, label) in planted.items()}
    gates: list[str] = []
    notes: list[str] = []
    warm_store = None
    if workload.warm:
        warm_store = ws.fresh("store")
        cold_out = ws.fresh("cold-out")
        cold = ws.spawn({"mode": "batch",
                         "argv": _batch_argv(workload, inputs, cold_out, 1)},
                        store=warm_store, runs=ws.fresh("runs"))
        reference = tree_digests(cold_out)

    def one(traced_rep: bool) -> dict:
        out = ws.fresh("out")
        spans = ws.fresh("spans") if traced_rep else None
        rep = ws.spawn({"mode": "batch",
                        "argv": _batch_argv(workload, inputs, out, JOBS),
                        "trace_dir": str(spans) if spans else None},
                       store=warm_store or ws.fresh("store"),
                       runs=ws.fresh("runs"))
        rep["traced"] = traced_rep
        rep["digests"] = tree_digests(out)
        rep["out"] = out
        if spans is not None:
            rep["layers"], rep["accounts"] = trace.summarize(
                str(spans), rep["pid"], JOBS)
        return rep

    reps = repeat(seconds, smoke, traced, one)
    first = reps[0]
    for rep in reps:
        if rep["rc"] != 0:
            gates.append(f"repro batch exited {rep['rc']}")
        if rep["digests"] != first["digests"]:
            gates.append("output tree differs between repetitions"
                         + (" (traced)" if rep["traced"] else ""))
        if {n: f["verdicts"] for n, f in rep["files"].items()} != \
                {n: f["verdicts"] for n, f in first["files"].items()}:
            gates.append("oracle verdicts differ between repetitions")
        if rep["leaked"]:
            gates.append(f"tracer wrappers leaked: {rep['leaked']}")
    if sorted(first["files"]) != sorted(labels):
        gates.append("the run journal does not cover every input file")
    if workload.validate:
        gates += _label_gate(first["files"], labels)
    if workload.warm:
        if cold["rc"] != 0 or reference != first["digests"]:
            gates.append("warm outputs differ from the cold -j 1 pass")
    else:
        gates += _reference_gate(ws, workload, inputs, first["digests"])
    if workload.native:
        failures, note = checks.native_spot_check(
            inputs, first["out"], labels, 4 if smoke else NATIVE_SAMPLE,
            seed, ws.fresh("native"), ws.tmp)
        gates += failures
        if note:
            notes.append(note)
    sample = []
    for kind in sorted({kind for kind, _label in planted.values()}):
        sample += [name for name in sorted(first["digests"])
                   if planted.get(name) == (kind, "safe")
                   ][:STEP_SAMPLE_PER_KIND]
    pairs = [(checks.preprocessed(inputs / name),
              (first["out"] / name).read_text(encoding="utf-8"))
             for name in sample]
    ratio, step_gates = checks.fixed_step_ratio(pairs)
    gates += step_gates

    for rep in reps:
        rep["latencies_ms"] = [f["wall_s"] * 1000.0
                               for f in rep["files"].values()]
    e2e = end_to_end(reps, ratio, 3 * len(pairs))
    layers = {"scheduler.worker_peak_rss_mb":
              summary([r["rss_children_mb"] for r in reps])}
    failed = sum(1 for r in reps for f in r["files"].values()
                 if f["status"] != "ok")
    return {"reps": reps, "e2e": e2e, "layers": layers, "gates": gates,
            "notes": notes, "attempted": sum(len(r["files"]) for r in reps),
            "failed": failed}


def _reference_gate(ws: Workspace, workload: Workload, inputs: Path,
                    digests: dict[str, str]) -> list[str]:
    """Re-run the first files with ``-j 1`` on an empty store; the pool's
    outputs for them must be byte-identical."""
    subset = ws.fresh("reference-inputs")
    for name in sorted(digests)[:REFERENCE_FILES]:
        shutil.copy(inputs / name, subset / name)
    out = ws.fresh("reference-out")
    rep = ws.spawn({"mode": "batch",
                    "argv": _batch_argv(workload, subset, out, 1)},
                   store=ws.fresh("store"), runs=ws.fresh("runs"))
    expected = {n: d for n, d in digests.items() if (subset / n).exists()}
    if rep["rc"] != 0 or tree_digests(out) != expected:
        return ["-j 2 outputs differ from the -j 1 reference run"]
    return []


# --------------------------------------------------------------- edit

def run_edit(workload: Workload, seed: int, seconds: float, traced: bool,
             smoke: bool, ws: Workspace) -> dict:
    gates: list[str] = []

    def one(traced_rep: bool) -> dict:
        rep_dir = ws.fresh("edit")
        spans = ws.fresh("spans") if traced_rep else None
        rep = ws.spawn({"mode": "edit", "seed": seed,
                        "functions": workload.functions,
                        "called": workload.called, "edits": workload.edits,
                        "original": str(rep_dir / "original.c"),
                        "fixed": str(rep_dir / "fixed.c"),
                        "trace_dir": str(spans) if spans else None},
                       store=ws.fresh("store"), runs=ws.fresh("runs"))
        rep["traced"] = traced_rep
        rep["pair"] = ((rep_dir / "original.c").read_text(encoding="utf-8"),
                       (rep_dir / "fixed.c").read_text(encoding="utf-8"))
        if spans is not None:
            rep["layers"], rep["accounts"] = trace.summarize(
                str(spans), rep["pid"], 1)
        return rep

    reps = repeat(seconds, smoke, traced, one)
    first = reps[0]
    digests = [e["digest"] for e in first["edits"]]
    for rep in reps:
        if [e["digest"] for e in rep["edits"]] != digests:
            gates.append("edit outputs differ between repetitions"
                         + (" (traced)" if rep["traced"] else ""))
        if not rep["cold_agrees"]:
            gates.append("incremental result differs from the cold "
                         "pipeline on the last edit")
        if rep["leaked"]:
            gates.append(f"tracer wrappers leaked: {rep['leaked']}")
    ratio, step_gates = checks.fixed_step_ratio([first["pair"]])
    gates += step_gates

    for rep in reps:
        rep["latencies_ms"] = [s * 1000.0 for s in rep["latencies"]]
    e2e = end_to_end(reps, ratio, 3)
    edits = first["edits"]
    hits = sum(e["func_hits"] for e in edits)
    lookups = hits + sum(e["func_misses"] for e in edits)
    reused = sum(e["probes_reused"] for e in edits)
    probes = reused + sum(e["probes_executed"] for e in edits)
    layers = {
        "incremental.funcs_reanalyzed":
            summary([float(sum(e["reanalyzed"] for e in edits))]),
        "incremental.func_hit_ratio":
            summary([hits / lookups if lookups else 0.0]),
        "incremental.probe_reuse_ratio":
            summary([reused / probes if probes else 0.0]),
    }
    failed = sum(1 for r in reps for e in r["edits"] if e["mode"] == "error")
    return {"reps": reps, "e2e": e2e, "layers": layers, "gates": gates,
            "notes": [], "attempted": sum(len(r["edits"]) for r in reps),
            "failed": failed}


# ------------------------------------------------------------ records

def end_to_end(reps: list[dict], step_ratio: float, step_runs: int) -> dict:
    """End-to-end metrics: medians over the untraced repetitions.  Each
    repetition's ``latencies_ms`` holds one sample per file (batch) or
    per edit."""
    untimed = [r for r in reps if not r["traced"]]
    return {
        "files_per_s": summary([len(r["latencies_ms"]) / r["wall_s"]
                                for r in untimed]),
        "setup_s": summary([r["setup_s"] for r in untimed]),
        "peak_rss_parent_mb": summary([r["rss_self_mb"] for r in untimed]),
        "fixed_step_ratio": {"value": step_ratio, "q1": step_ratio,
                             "q3": step_ratio, "n": step_runs},
    }


#: Per-layer metrics the workload runners report from the repetitions'
#: own results rather than from spans.
_WORKLOAD_LAYERS = ("scheduler.worker_peak_rss_mb",
                    "incremental.funcs_reanalyzed",
                    "incremental.func_hit_ratio",
                    "incremental.probe_reuse_ratio")

_COUNTS = ("preprocess.calls", "parse.calls", "slr.runs", "str.runs",
           "verify.reparses", "oracle.pairs", "oracle.pairs_replayed",
           "vm.runs", "vm.steps", "store.loads", "store.hits",
           "store.writes", "journal.records")


def _per_layer(facts: dict) -> tuple[dict, list[str], list]:
    """Per-layer metrics from the traced repetitions, verdict latencies
    and the tracer's overhead from the untraced ones, and a gate on
    counts that must repeat exactly between traced repetitions."""
    traced = [r for r in facts["reps"] if r["traced"]]
    untraced = [r for r in facts["reps"] if not r["traced"]]
    gates = []
    for name in _COUNTS:
        values = {r["layers"][name] for r in traced}
        if len(values) > 1:
            gates.append(f"count {name} differs between traced "
                         f"repetitions: {sorted(values)}")
    layers = {name: summary([r["layers"][name] for r in traced])
              for name in traced[0]["layers"]}
    # Facts only one kind of workload has are zero on the other.
    for name in _WORKLOAD_LAYERS:
        layers[name] = facts["layers"].get(name, summary([0.0]))
    overhead = 100.0 * (statistics.median(r["wall_s"] for r in traced)
                        / statistics.median(r["wall_s"] for r in untraced)
                        - 1.0)
    layers["trace.overhead_pct"] = summary([overhead])
    latencies = [ms for r in untraced for ms in r["latencies_ms"]]
    for pct in (50, 95):
        layers[f"verdict.p{pct}_ms"] = summary(latencies,
                                               percentile(latencies, pct))
    accounts = [dict(a, rep=i) for i, r in enumerate(traced)
                for a in r["accounts"]]
    return layers, gates, accounts


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False) -> dict:
    """Measure one workload; returns the full record (see ``--out``)."""
    spec = load_spec()
    workload = WORKLOADS[name]
    if smoke:
        workload = dataclasses.replace(
            workload, files=min(workload.files, SMOKE_FILES),
            edits=min(workload.edits, SMOKE_EDITS))
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}")
    ws = Workspace(name, seed)
    try:
        ws.warm_up()
        runner = run_batch if workload.kind == "batch" else run_edit
        facts = runner(workload, seed, seconds, traced, smoke, ws)
    finally:
        ws.close()
    gates = facts["gates"]
    if facts["failed"]:
        gates.append(f"{facts['failed']} of {facts['attempted']} "
                     f"operations failed or degraded")
    accounts: list = []
    if traced:
        metrics, count_gates, accounts = _per_layer(facts)
        gates += count_gates
        wanted = spec["per_layer"]
    else:
        metrics = facts["e2e"]
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "smoke": smoke,
        "reps": len(facts["reps"]),
        "correct": not gates, "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {m: dict(metrics[m], unit=units[m]) for m in units},
        "gates": gates, "notes": facts["notes"], "processes": accounts,
        "repetitions": [{key: rep[key] for key in
                         ("traced", "wall_s", "setup_s", "rss_self_mb",
                          "latencies_ms")} for rep in facts["reps"]],
    }


def result_line(record: dict) -> str:
    """The one-line JSON result the benchmark ends with."""
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()}})


def report_lines(record: dict) -> list[str]:
    """Human-readable lines: every metric with unit, median, quartiles
    and sample count, then every failed gate and note."""
    lines = [f"# {record['workload']} seed={record['seed']} "
             f"trace={record['trace']} repetitions={record['reps']} "
             f"attempted={record['attempted']} failed={record['failed']} "
             f"correct={record['correct']}"]
    for name, m in record["metrics"].items():
        lines.append(f"{name:<30} {m['value']:>14.6g} {m['unit']:<8} "
                     f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
    for account in record["processes"]:
        lines.append(f"process {account['pid']} (traced rep "
                     f"{account['rep']}): wall {account['wall_s']:.4f}s, "
                     f"unattributed {100 * account['unattributed_share']:.2f}%")
    lines += [f"GATE FAILED: {gate}" for gate in record["gates"]]
    lines += [f"note: {note}" for note in record["notes"]]
    return lines
