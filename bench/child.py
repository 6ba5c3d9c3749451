"""One measured repetition in a fresh interpreter.

``python -m bench.child CONFIG.json`` — the harness spawns this module
once per repetition, so every repetition pays the interpreter start and
the ``repro`` import that ``setup_s`` measures.  It reports a monotonic
timestamp taken once set-up is done; the harness subtracts the time it
spawned the process.

Two modes:

* ``batch`` — ``repro.cli.main(argv)``, the same call ``repro batch``
  makes.  Afterwards each file's status, verdict counts and worker wall
  time are read back from the run journal the CLI wrote.
* ``edit`` — an :class:`~repro.core.incremental.IncrementalEngine` over
  the seeded edit script of :func:`edit_script`.  Set-up ends when the
  first full update is done; each later update is timed.  Afterwards
  the last edit is re-run through the cold pipeline, which must agree
  with the engine.

With ``trace_dir`` set, :class:`bench.trace.Tracer` wraps the layer
entry points after set-up and is removed before anything else runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from random import Random

FIXTURE_NAME = "edit_fixture.c"

_PREAMBLE = ("typedef struct _FILE FILE;\n"
             "extern FILE *stdin;\n"
             "char *fgets(char *s, int size, FILE *stream);\n"
             "int printf(const char *fmt, ...);\n"
             "char *strcpy(char *dest, const char *src);\n"
             "char *strcat(char *dest, const char *src);\n\n")


def _worker(index: int, tag: str, notes: int) -> str:
    return (f"void worker{index}(const char *src) {{\n"
            "    char buf[16];\n"
            "    char aux[24];\n"
            "    aux[0] = 0;\n"
            "    strcpy(buf, src);\n"
            "    strcat(aux, src);\n"
            f'    printf("w{index}{tag} %s %s\\n", buf, aux);\n'
            + f'    printf("w{index} note\\n");\n' * notes
            + "}\n\n")


def edit_script(seed: int, functions: int, called: int,
                edits: int) -> list[str]:
    """The base fixture followed by ``edits`` one-function edits.

    ``main`` calls the first ``called`` of ``functions`` workers.  In
    every block of four edits exactly one lands on a called worker — the
    edits whose oracle probes must re-run — so the share of slow edits
    is the same for every seed.  Each edit tags its worker's output
    with the edit number, so every version is a distinct text, and
    gives the worker zero to two extra output lines.
    """
    rng = Random(seed)
    bodies = [_worker(i, "", 0) for i in range(functions)]
    main = ("int main(void) {\n"
            "    char line[32];\n"
            "    line[0] = 0;\n"
            "    fgets(line, sizeof line, stdin);\n"
            + "".join(f"    worker{i}(line);\n" for i in range(called))
            + "    return 0;\n}\n")
    texts = [_PREAMBLE + "".join(bodies) + main]
    block: list[bool] = []
    for k in range(edits):
        if not block:
            block = [True, False, False, False]
            rng.shuffle(block)
        index = rng.randrange(called) if block.pop() \
            else rng.randrange(called, functions)
        bodies[index] = _worker(index, f" e{k}", rng.randrange(3))
        texts.append(_PREAMBLE + "".join(bodies) + main)
    return texts


def _tracer(config: dict):
    if not config.get("trace_dir"):
        return None
    from bench.trace import Tracer
    tracer = Tracer(config["trace_dir"])
    tracer.install()
    return tracer


def _peak_rss() -> dict:
    # ru_maxrss is in KiB on Linux; the children figure is the largest
    # pool worker this process waited for.
    return {"rss_self_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rss_children_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def _journal_files() -> dict:
    """Per-file status, verdict counts and worker wall time, read back
    from the run journal the batch just wrote."""
    from repro.core.runlog import RunJournal, latest_run_id
    journal = RunJournal(latest_run_id())
    journal.load()
    files = {}
    for name, (event, key) in sorted(journal.completed.items()):
        report = journal.replay(name, key)
        validation = getattr(report, "validation", None)
        files[name] = {
            "status": report.status if report is not None else event,
            "wall_s": report.wall_time if report is not None else 0.0,
            "verdicts": validation.counts() if validation is not None
            else None,
        }
    return files


def run_batch(config: dict) -> dict:
    import repro.cli
    ready = time.monotonic()
    tracer = _tracer(config)
    main = tracer.wrap("main", repro.cli.main) if tracer else repro.cli.main
    start = time.perf_counter()
    rc = main(config["argv"])
    wall = time.perf_counter() - start
    leaked = tracer.uninstall() if tracer else []
    return {"t_ready": ready, "pid": os.getpid(), "rc": rc, "wall_s": wall,
            "leaked": leaked, **_peak_rss(), "files": _journal_files()}


def _digest(report) -> str:
    facts = report.as_dict()
    payload = json.dumps([facts["mode"], facts["sites"], facts["verdicts"]],
                         sort_keys=True)
    return hashlib.sha256((report.final_text + payload).encode()).hexdigest()


def _cold_agrees(text: str, report) -> bool:
    """Does the cold pipeline, with empty caches and no disk store,
    produce the engine's text, site outcomes and verdicts?"""
    from repro.cfront.cache import clear_all_caches
    from repro.core.batch import FileTask, transform_file
    from repro.core.session import reset_session
    clear_all_caches()
    session = reset_session()
    os.environ["REPRO_DISK_CACHE"] = "0"
    pp = session.preprocess(text, FIXTURE_NAME).text
    cold = transform_file(FileTask(FIXTURE_NAME, pp, validate=True), session)
    outcomes = [o for r in (cold.slr, cold.str_) if r for o in r.outcomes]
    return (cold.final_text == report.final_text
            and outcomes == report.slr_outcomes + report.str_outcomes
            and cold.validation is not None
            and cold.validation.counts() == report.verdict_counts())


def run_edit(config: dict) -> dict:
    from repro.core.incremental import IncrementalEngine
    texts = edit_script(config["seed"], config["functions"],
                        config["called"], config["edits"])
    engine = IncrementalEngine(FIXTURE_NAME)
    engine.update(texts[0])
    ready = time.monotonic()
    tracer = _tracer(config)
    update = tracer.wrap("main", engine.update) if tracer else engine.update
    latencies, edits = [], []
    for text in texts[1:]:
        start = time.perf_counter()
        report = update(text)
        latencies.append(time.perf_counter() - start)
        edits.append({"mode": report.mode, "digest": _digest(report),
                      "reanalyzed": len(report.invalidated),
                      "func_hits": report.func_hits,
                      "func_misses": report.func_misses,
                      "probes_reused": report.probes_reused,
                      "probes_executed": report.probes_executed})
    leaked = tracer.uninstall() if tracer else []
    rss = _peak_rss()
    pp = engine.session.preprocess(texts[-1], FIXTURE_NAME).text
    with open(config["original"], "w", encoding="utf-8") as fh:
        fh.write(pp)
    with open(config["fixed"], "w", encoding="utf-8") as fh:
        fh.write(report.final_text)
    return {"t_ready": ready, "pid": os.getpid(), "wall_s": sum(latencies),
            "latencies": latencies, "edits": edits, "leaked": leaked, **rss,
            "cold_agrees": _cold_agrees(texts[-1], report)}


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    run = run_batch if config["mode"] == "batch" else run_edit
    result = run(config)
    with open(config["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
