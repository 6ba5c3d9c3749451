"""Command-line interface: ``python -m repro``.

Subcommands mirror how the paper's tool is used:

* ``fix FILE``       — apply SLR and/or STR to a C file, print or write
  the transformed source, and report per-site outcomes;
* ``batch DIR``      — apply SLR/STR to every .c file in a directory
  through the parallel batch driver (``--jobs N``), reporting per-file
  wall time and cache counters; ``--validate`` adds the differential
  oracle;
* ``validate PATH``  — transform a .c file (or directory) and run the
  differential oracle: original vs. transformed behaviour on benign,
  overflow, and seeded fuzz inputs, with per-divergence verdicts;
* ``backends``       — list the registered fix backends
  (``batch --backends a,b,c`` arbitrates them per file, shipping each
  file's oracle-best candidate);
* ``run FILE``       — execute a C file in the bounds-checked VM;
* ``analyze FILE``   — print analysis facts (points-to, aliases, buffer
  lengths at unsafe call sites);
* ``cache ACTION``   — manage the persistent artifact store
  (``stats`` / ``clear`` / ``gc``; ``stats --json`` dumps per-family
  on-disk usage machine-readably);
* ``runs ACTION``    — inspect the crash-safe run journals every
  ``batch`` invocation writes (``list`` / ``show`` / ``gc``); ``batch
  --resume <run-id|latest>`` replays a crashed or interrupted run's
  completed files and re-dispatches only unfinished work;
* ``synth``          — generate a synthetic ground-truth corpus of
  planted overflow/safe files, VM-validated and deterministic by seed.

``batch``, ``validate``, ``fix``, ``run`` and ``analyze`` read their
program through :func:`repro.core.batch.load_program`, and ``watch``
reads the same files, so a single file gets the ``.h`` files beside it
as its private headers, as a batch over its directory does; a path with
nothing to read prints one line and exits 2.
A single-file source that does not lex or preprocess prints one
``error:`` line and exits 1.  ``fix`` runs the file through the batch's
per-file pipeline (:func:`repro.core.batch.transform_file`) and prints
what ``batch -o`` writes; a stage that fails there prints one diagnostic
line, and a file that no stage could transform exits 1.

``batch`` and ``validate`` accept ``--no-disk-cache`` (this run skips
the persistent store) and ``batch`` accepts ``--profile`` (render the
per-stage timing breakdown).  A flag that sets an environment knob
holds for that one command: :func:`main` restores the environment when
the command ends.

``batch`` is fault-isolated: a file that fails any stage is recorded
with a structured diagnostic and its siblings continue.  ``--strict``
turns any contained failure into a non-zero exit,
``--diagnostics-json PATH`` dumps the diagnostics machine-readably, and
``--task-timeout`` / ``--task-retries`` tune the fork pool's worker
supervision.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import get_session, run_c
from .core.batch import FileTask, ProgramError, load_program, \
    transform_file
from .core.diagnostics import STATUS_FAILED


def _preprocess_file(path: str) -> tuple[str, str]:
    """The one-file program at ``path``: its name and its text,
    preprocessed with its private headers (a preprocess error names
    ``path``)."""
    program = load_program(path)
    if len(program.files) != 1:
        raise ProgramError(f"{path} holds {len(program.files)} .c files; "
                           f"name one")
    [(name, source)] = program.files.items()
    text = get_session().preprocess(source, path, program.headers).text
    return name, text


def cmd_fix(args: argparse.Namespace) -> int:
    name, text = _preprocess_file(args.file)
    report = transform_file(FileTask(name, text, run_slr=not args.no_slr,
                                     run_str=not args.no_str,
                                     profile=args.profile))
    for diag in report.diagnostics:
        message = diag.message.splitlines()[0] if diag.message else ""
        print(f"[{report.status}] {diag.stage} {diag.kind}: {message}",
              file=sys.stderr)
    outcomes = [outcome for result in (report.slr, report.str_) if result
                for outcome in result.outcomes]
    for outcome in outcomes:
        marker = "FIXED" if outcome.transformed else "SKIP "
        reason = f" ({outcome.reason})" if outcome.reason else ""
        print(f"[{marker}] {outcome.transformation} "
              f"{outcome.function}:{outcome.line} "
              f"{outcome.target}{reason}", file=sys.stderr)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.final_text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(report.final_text)
    transformed = sum(1 for o in outcomes if o.transformed)
    print(f"{transformed}/{len(outcomes)} sites transformed",
          file=sys.stderr)
    return 0 if report.parses and report.status != STATUS_FAILED else 1


def cmd_run(args: argparse.Namespace) -> int:
    _name, text = _preprocess_file(args.file)
    stdin = args.stdin.encode() if args.stdin else b""
    result = run_c(text, stdin=stdin)
    sys.stdout.write(result.stdout_text)
    if result.fault:
        print(f"FAULT: {result.fault_detail}", file=sys.stderr)
        return 1
    return result.exit_code or 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .cfront import astnodes as ast
    from .core.bufferlen import BufferLengthAnalyzer, LengthFailure
    from .core.slr import UNSAFE_FUNCTIONS

    _name, text = _preprocess_file(args.file)
    parsed = get_session().parse(text, args.file)
    unit, pa = parsed.unit, parsed.analysis
    lengths = BufferLengthAnalyzer(pa, text)

    print("== functions ==")
    for fn in unit.functions():
        locals_ = pa.symbols.locals_of.get(fn.name, [])
        print(f"  {fn.name}: {len(locals_)} locals, "
              f"calls {sorted(pa.callgraph.callees(fn.name))}")

    print("\n== pointer aliases ==")
    for group in pa.aliases.alias_sets():
        print("  {" + ", ".join(sorted(s.name for s in group)) + "}")

    print("\n== unsafe call sites ==")
    for node in unit.walk():
        if isinstance(node, ast.Call) and \
                node.callee_name in UNSAFE_FUNCTIONS and node.args:
            result = lengths.get_buffer_length(node.args[0])
            dest = node.args[0].source_text(text)
            if isinstance(result, LengthFailure):
                print(f"  {node.callee_name}({dest}, ...): "
                      f"UNSIZABLE ({result.reason})")
            else:
                print(f"  {node.callee_name}({dest}, ...): "
                      f"size = {result.render()}")
    return 0


def _apply_env_flags(args: argparse.Namespace) -> None:
    """``--no-disk-cache``, ``--task-timeout`` and ``--task-retries`` set
    their environment knobs, so fork-pool workers (which inherit the
    environment) and the executor agree; :func:`main` restores the
    environment when the command ends."""
    if getattr(args, "no_disk_cache", False):
        os.environ["REPRO_DISK_CACHE"] = "0"
    if getattr(args, "task_timeout", None) is not None:
        os.environ["REPRO_TASK_TIMEOUT"] = str(args.task_timeout)
    if getattr(args, "task_retries", None) is not None:
        os.environ["REPRO_TASK_RETRIES"] = str(args.task_retries)


def _make_journal(args: argparse.Namespace, program, backends):
    """Build (or reopen, under ``--resume``) the run journal for a batch
    invocation; returns ``(journal, error message)``.  ``--no-run-log``
    runs unjournaled."""
    from .core.runlog import RunJournal, RunNotFound, resolve_run_id

    if args.no_run_log:
        if args.resume:
            return None, ("--resume requires run journaling "
                          "(drop --no-run-log)")
        return None, None
    try:
        if args.resume:
            journal = RunJournal(resolve_run_id(args.resume))
            journal.load()
        else:
            journal = RunJournal(args.run_id)
    except RunNotFound as exc:
        return None, str(exc)
    journal.begin(program, {
        "run_slr": not args.no_slr, "run_str": not args.no_str,
        "profile": args.slr_profile, "validate": args.validate,
        "backends": ",".join(backends) if backends else None,
    })
    return journal, None


def cmd_batch(args: argparse.Namespace) -> int:
    import json

    from .core.backends import resolve_backends
    from .core.batch import apply_batch
    from .core.report import (
        diagnostics_payload, render_backend_scoreboard,
        render_batch_stats, render_cache_stats, render_diagnostics,
        render_profile, render_validation,
    )

    _apply_env_flags(args)
    program = load_program(args.directory)
    try:
        backends = resolve_backends(args.backends) if args.backends \
            else None
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    journal, error = _make_journal(args, program, backends)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        batch = apply_batch(program, run_slr=not args.no_slr,
                            run_str=not args.no_str,
                            profile=args.slr_profile,
                            jobs=args.jobs, validate=args.validate,
                            backends=backends, journal=journal)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Every completed file is already journaled (the WAL is flushed
        # per event), so the run picks up where it stopped.
        if journal is not None:
            journal.close()
            print(f"\ninterrupted — resume with: repro batch "
                  f"{args.directory} --resume {journal.run_id}",
                  file=sys.stderr)
        else:
            print("\ninterrupted (unjournaled run; nothing to resume)",
                  file=sys.stderr)
        return 130

    for report in batch.reports:
        if report.arbitration is not None:
            # Arbitration mode: the per-site story is the winning
            # candidate's; losing candidates live in the scoreboard.
            winning = report.arbitration.winning_candidate
            results = [winning.result] \
                if winning is not None and winning.result else []
        else:
            results = [r for r in (report.slr, report.str_) if r]
        for result in results:
            for outcome in result.outcomes:
                marker = "FIXED" if outcome.transformed else "SKIP "
                reason = f" ({outcome.reason})" if outcome.reason else ""
                print(f"[{marker}] {outcome.transformation} "
                      f"{report.filename}:{outcome.line} "
                      f"{outcome.function} {outcome.target}{reason}",
                      file=sys.stderr)

    if args.output:
        os.makedirs(args.output, exist_ok=True)
        for report in batch.reports:
            out_path = os.path.join(args.output, report.filename)
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(report.final_text)
        print(f"wrote {len(batch.reports)} files to {args.output}",
              file=sys.stderr)

    print(render_batch_stats(batch))
    arbitrated = bool(batch.arbitrations())
    if arbitrated:
        print()
        print(render_backend_scoreboard(batch))
    if batch.diagnostics():
        print()
        print(render_diagnostics(batch))
    if args.validate:
        print()
        print(render_validation(batch))
    if args.profile:
        print()
        print(render_profile(batch))
    if args.stats:
        print()
        if batch.info.workers:
            print(f"parent process counters only; the "
                  f"{batch.info.workers} pool worker(s) kept their own")
        print(render_cache_stats())
    if args.diagnostics_json:
        with open(args.diagnostics_json, "w", encoding="utf-8") as handle:
            json.dump(diagnostics_payload(batch), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote diagnostics to {args.diagnostics_json}",
              file=sys.stderr)
    counts = batch.status_counts()
    quarantine_note = f"/{counts['quarantined']}" \
        if counts.get("quarantined") else ""
    if journal is not None:
        print(f"run {journal.run_id}: journaled to {journal.run_dir} "
              f"({batch.info.replayed} replayed, {batch.info.quarantined} "
              f"quarantined); resume with --resume {journal.run_id}",
              file=sys.stderr)
    print(f"{batch.info.from_store}/{len(batch.reports)} file(s) served "
          f"from the artifact store; {batch.info.workers} pool worker(s) "
          f"started", file=sys.stderr)
    if arbitrated:
        winners = batch.winners()
        fixed = sum(1 for winner in winners.values() if winner)
        print(f"arbitration: {fixed}/{len(winners)} file(s) fixed, "
              f"{batch.backends_attempted} candidate(s), "
              f"{batch.backends_rejected} rejected; "
              f"all files parse: "
              f"{'yes' if batch.all_parse else 'NO'}; "
              f"files ok/degraded/failed"
              f"{'/quarantined' if quarantine_note else ''}: "
              f"{counts['ok']}/{counts['degraded']}/"
              f"{counts['failed']}{quarantine_note}",
              file=sys.stderr)
    else:
        slr_done = batch.transformed("SLR")
        slr_all = batch.candidates("SLR")
        str_done = batch.transformed("STR")
        str_all = batch.candidates("STR")
        print(f"SLR {slr_done}/{slr_all} sites, STR {str_done}/"
              f"{str_all} buffers; all files parse: "
              f"{'yes' if batch.all_parse else 'NO'}; "
              f"files ok/degraded/failed"
              f"{'/quarantined' if quarantine_note else ''}: "
              f"{counts['ok']}/{counts['degraded']}/"
              f"{counts['failed']}{quarantine_note}",
              file=sys.stderr)
    # Under arbitration the oracle always judged the shipped fixes, so
    # the semantics gate applies whether or not --validate was given.
    ok = batch.all_parse and (not (arbitrated or args.validate)
                              or batch.semantics_preserved)
    if args.strict:
        ok = ok and batch.fully_succeeded
    return 0 if ok else 1


def cmd_validate(args: argparse.Namespace) -> int:
    from .core.batch import apply_batch
    from .core.diagnostics import STATUS_FAILED
    from .core.report import render_validation

    _apply_env_flags(args)
    program = load_program(args.path)
    try:
        batch = apply_batch(program, run_slr=not args.no_slr,
                            run_str=not args.no_str,
                            profile=args.slr_profile,
                            jobs=args.jobs, validate=True,
                            fuzz_seed=args.seed,
                            backends=args.backends)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    unjudged = 0
    for report in batch.reports:
        if report.status == STATUS_FAILED and report.validation is None:
            # Never reached the oracle: a verdict table without this
            # file would read as a pass.
            unjudged += 1
            diag = report.diagnostics[0]
            print(f"[FAILED] {report.filename}: {diag.stage} {diag.kind}: "
                  f"{diag.message.splitlines()[0] if diag.message else ''}",
                  file=sys.stderr)
        if not report.parses:
            print(f"[BROKEN] {report.filename}: transformed text does "
                  f"not parse", file=sys.stderr)
        if report.validation is None:
            continue
        for verdict in report.validation.divergences():
            print(f"[{verdict.verdict}] {report.filename} "
                  f"{verdict.input.name}({verdict.input.kind}): "
                  f"{verdict.detail}", file=sys.stderr)

    print(render_validation(batch))
    if batch.arbitrations():
        from .core.report import render_backend_scoreboard
        print()
        print(render_backend_scoreboard(batch))
    ok = batch.all_parse and batch.semantics_preserved and not unjudged
    return 0 if ok else 1


def cmd_backends(args: argparse.Namespace) -> int:
    """List the registered fix backends."""
    from .core.backends import DEFAULT_BACKENDS, all_backends

    for backend in all_backends():
        suffix = "  [legacy-chain]" if backend.id in DEFAULT_BACKENDS \
            else ""
        print(f"{backend.id:<10} {backend.title}{suffix}")
        if args.verbose:
            print(f"{'':10} {backend.description}")
            if backend.config_key():
                print(f"{'':10} config: {backend.config_key()}")
    print("\nbatch runs the legacy SLR→STR chain unless --backends is "
          "given")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    from .core.watch import WatchLoop

    if not os.path.exists(args.path):
        print(f"error: {args.path} does not exist", file=sys.stderr)
        return 2
    loop = WatchLoop(args.path, profile=args.profile,
                     validate=not args.no_validate, fuzz_seed=args.seed,
                     json_output=args.json)
    if args.once:
        loop.scan_once(force=True)
        return 0
    # Banner on stderr so a piped --json stream stays pure JSONL.
    print(f"[watch] watching {args.path} "
          f"(poll {loop.interval_s}s, debounce {loop.debounce_s}s, "
          f"Ctrl-C to stop)", file=sys.stderr, flush=True)
    return loop.run()


def cmd_synth(args: argparse.Namespace) -> int:
    """Generate a synthetic ground-truth corpus (``repro synth``)."""
    from .corpus.synth import synthesize, write_corpus

    validate = not args.no_validate
    try:
        mutants = synthesize(args.count, args.seed, validate=validate)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = write_corpus(mutants, args.out, args.seed,
                        validated=validate)
    overflow = sum(1 for m in mutants if m.expected_overflow)
    print(f"wrote {len(mutants)} file(s) to {args.out} "
          f"({overflow} overflow, {len(mutants) - overflow} safe"
          f"{', VM-validated' if validate else ''}); "
          f"manifest: {path}", file=sys.stderr)
    return 0


def _cache_stats_payload(store) -> dict:
    """Machine-readable snapshot of the persistent store: per-family
    on-disk usage."""
    from .core.store import SCHEMA_VERSION

    return {
        "root": store.root,
        "schema_version": SCHEMA_VERSION,
        "fingerprint": store.fingerprint,
        "usage": store.usage(),
        "stale_versions": store.stale_versions(),
    }


def cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .core.store import SCHEMA_VERSION, get_store

    store = get_store()
    if args.action == "stats" and getattr(args, "json", False):
        json.dump(_cache_stats_payload(store), sys.stdout, indent=2,
                  sort_keys=True)
        sys.stdout.write("\n")
        return 0
    if args.action == "clear":
        files, nbytes = store.clear()
        print(f"cleared {files} file(s), {nbytes} bytes from "
              f"{store.root}")
        return 0
    if args.action == "gc":
        summary = store.gc(max_age_s=args.max_age_days * 86400.0
                           if args.max_age_days is not None else None)
        print(f"gc: removed {summary['removed_files']} file(s), "
              f"freed {summary['freed_bytes']} bytes, "
              f"dropped {summary['removed_versions']} stale version "
              f"dir(s) under {store.root}")
        if args.max_age_days is not None:
            # Age-bounded gc also prunes run journals past the cutoff
            # (run directories are never touched without an explicit
            # age — they are the audit trail).
            from .core.runlog import gc_runs, runs_root
            runs = gc_runs(max_age_days=args.max_age_days)
            if runs["removed_runs"]:
                print(f"gc: removed {runs['removed_runs']} run "
                      f"journal(s), freed {runs['freed_bytes']} bytes "
                      f"under {runs_root()}")
        return 0

    # stats: on-disk usage per family.
    print(f"store: {store.root}")
    print(f"version: schema v{SCHEMA_VERSION}, "
          f"fingerprint {store.fingerprint}")
    usage = store.usage()
    if not usage:
        print("(store is empty)")
        return 0
    for family, use in sorted(usage.items()):
        print(f"  {family:<11} {use['entries']:>7} entries  "
              f"{use['bytes']:>10} bytes")
    print(f"  {'(total)':<11} "
          f"{sum(u['entries'] for u in usage.values()):>7} entries  "
          f"{sum(u['bytes'] for u in usage.values()):>10} bytes")
    stale = store.stale_versions()
    if stale:
        print(f"  {len(stale)} stale version dir(s) — run "
              f"'repro cache gc' to reclaim")
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """Inspect and prune the ARVO-style run directories
    (``repro runs list`` / ``show`` / ``gc``)."""
    from .core.runlog import (
        RunJournal, RunNotFound, gc_runs, list_runs, resolve_run_id,
        runs_root,
    )

    if args.action == "list":
        runs = list_runs()
        if not runs:
            print(f"no runs under {runs_root()}")
            return 0
        print(f"{'run id':<24} {'created':<21} {'program':<18} "
              f"{'files':>5} {'done':>5} {'fail':>4} {'quar':>4}")
        for run in runs:
            print(f"{run['run_id']:<24} {run['created']:<21} "
                  f"{run['program'][:18]:<18} {run['files']:>5} "
                  f"{run['completed']:>5} {run['failed']:>4} "
                  f"{run['quarantined']:>4}")
        return 0

    if args.action == "gc":
        if args.max_age_days is None and args.keep is None:
            print("error: runs gc needs --max-age-days and/or --keep "
                  "(run directories are the audit trail; nothing is "
                  "pruned by default)", file=sys.stderr)
            return 2
        summary = gc_runs(max_age_days=args.max_age_days,
                          keep=args.keep)
        print(f"runs gc: removed {summary['removed_runs']} run(s), "
              f"freed {summary['freed_bytes']} bytes under "
              f"{runs_root()}")
        return 0

    # show: replay the crash-report → fix → verdict chain per file.
    try:
        journal = RunJournal(resolve_run_id(args.run_id or "latest"))
        journal.load()
    except RunNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = journal.manifest
    print(f"run {journal.run_id}  created {manifest.get('created', '?')}"
          f"  program {manifest.get('program', '?')}  "
          f"fingerprint {manifest.get('fingerprint', '?')}")
    settings = manifest.get("settings", {})
    if settings:
        print("settings: " + " ".join(f"{k}={v}" for k, v
                                      in sorted(settings.items())))
    names = [args.file] if args.file else sorted(journal.completed)
    if not names:
        print("(no journaled per-file events)")
        return 0
    shown = 0
    for name in names:
        event = journal.completed.get(name)
        if event is None:
            print(f"{name}: no journaled outcome", file=sys.stderr)
            continue
        shown += 1
        # The audit is built from the file's result record; an
        # unreadable record leaves only the journaled event.
        audit = journal.read_audit(name)
        print(f"\n{name}: {audit['status'] if audit else event[0]}")
        if audit is None:
            continue
        for diag in audit["diagnostics"]:
            print(f"  crash report: [{diag['stage']}] "
                  f"{diag['kind']}: {diag['message']}")
        winner = audit["winner"]
        diff = audit["diff"]
        if winner:
            print(f"  fix: backend {winner} won the arbitration")
        elif diff:
            print("  fix: SLR/STR chain edited the file")
        verdicts = audit["verdicts"]
        if verdicts:
            print("  verdicts: " + " ".join(
                f"{k}={v}" for k, v in sorted(verdicts.items())))
        for div in audit["divergences"]:
            print(f"  divergence: {div['input']}({div['kind']}): "
                  f"{div['verdict']} — {div['detail']}")
        if diff and (args.file or args.diff):
            print("  diff:")
            for line in diff.splitlines():
                print(f"    {line}")
        elif diff:
            print(f"  diff: {len(diff.splitlines())} line(s) "
                  f"(show with --diff or --file {name})")
    return 0 if shown else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automatically fix C buffer overflows using program "
                    "transformations (DSN 2014 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    fix = sub.add_parser("fix", help="apply SLR/STR to a C file")
    fix.add_argument("file")
    fix.add_argument("-o", "--output", help="write result here")
    fix.add_argument("--no-slr", action="store_true")
    fix.add_argument("--no-str", action="store_true")
    fix.add_argument("--profile", choices=("glib", "c11"),
                     default="glib",
                     help="safe-function family for SLR (Table I)")
    fix.set_defaults(func=cmd_fix)

    batch = sub.add_parser(
        "batch", help="apply SLR/STR to every .c file in a directory")
    batch.add_argument("directory")
    batch.add_argument("-o", "--output",
                       help="write transformed files to this directory")
    batch.add_argument("-j", "--jobs", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or 1)")
    batch.add_argument("--no-slr", action="store_true")
    batch.add_argument("--no-str", action="store_true")
    batch.add_argument("--slr-profile", choices=("glib", "c11"),
                       default="glib", dest="slr_profile",
                       help="safe-function family for SLR (Table I)")
    batch.add_argument("--stats", action="store_true",
                       help="also print frontend cache counters")
    batch.add_argument("--validate", action="store_true",
                       help="run the differential oracle on every "
                            "transformed file")
    batch.add_argument("--backends", default=None, metavar="A,B,C",
                       help="arbitrate these fix backends per file and "
                            "ship each file's oracle-best candidate "
                            "('all' = every registered backend; see "
                            "'repro backends')")
    batch.add_argument("--profile", action="store_true",
                       help="render the per-file, per-stage timing "
                            "breakdown")
    batch.add_argument("--no-disk-cache", action="store_true",
                       help="skip the persistent artifact store for "
                            "this run (also REPRO_DISK_CACHE=0)")
    batch.add_argument("--strict", action="store_true",
                       help="exit non-zero if any file degraded or "
                            "failed (default: contained failures ship "
                            "the input verbatim and exit 0)")
    batch.add_argument("--diagnostics-json", metavar="PATH",
                       default=None,
                       help="write contained-failure diagnostics to "
                            "this JSON file")
    batch.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-file wall-clock budget in pool workers "
                            "(also REPRO_TASK_TIMEOUT; default: off)")
    batch.add_argument("--task-retries", type=int, default=None,
                       metavar="N",
                       help="retries for crashed/timed-out files "
                            "(also REPRO_TASK_RETRIES; default: 1)")
    batch.add_argument("--resume", default=None, metavar="RUN_ID",
                       help="resume a crashed/interrupted journaled run "
                            "('latest' = most recent): completed files "
                            "replay from the journal, only unfinished "
                            "work is re-dispatched")
    batch.add_argument("--run-id", default=None, metavar="RUN_ID",
                       dest="run_id",
                       help="name this run's journal directory "
                            "(default: a generated timestamped id)")
    batch.add_argument("--no-run-log", action="store_true",
                       help="skip the write-ahead run journal; such a "
                            "run cannot be resumed or shown by 'repro "
                            "runs show'")
    batch.set_defaults(func=cmd_batch)

    validate = sub.add_parser(
        "validate",
        help="differentially validate SLR/STR over a file or directory")
    validate.add_argument("path", help=".c file or directory of .c files")
    validate.add_argument("-j", "--jobs", type=int, default=None,
                          help="worker processes (default: REPRO_JOBS "
                               "or 1)")
    validate.add_argument("--no-slr", action="store_true")
    validate.add_argument("--no-str", action="store_true")
    validate.add_argument("--slr-profile", choices=("glib", "c11"),
                          default="glib", dest="slr_profile",
                          help="safe-function family for SLR (Table I)")
    validate.add_argument("--seed", type=int, default=None,
                          help="fuzz-input seed (default: "
                               "REPRO_VALIDATE_SEED or 20140623)")
    validate.add_argument("--no-disk-cache", action="store_true",
                          help="skip the persistent artifact store for "
                               "this run (also REPRO_DISK_CACHE=0)")
    validate.add_argument("--backends", default=None, metavar="A,B,C",
                          help="arbitrate these fix backends per file "
                               "('all' = every registered backend)")
    validate.set_defaults(func=cmd_validate)

    backends_cmd = sub.add_parser(
        "backends", help="list the registered fix backends")
    backends_cmd.add_argument("-v", "--verbose", action="store_true",
                              help="also print each backend's "
                                   "description and config key")
    backends_cmd.set_defaults(func=cmd_backends)

    cache = sub.add_parser(
        "cache", help="manage the persistent artifact store "
                      "(REPRO_CACHE_DIR)")
    cache.add_argument("action", choices=("stats", "clear", "gc"),
                       help="stats: on-disk usage per family; "
                            "clear: drop every entry; gc: reclaim stale "
                            "tool versions, abandoned temp files, and "
                            "(with --max-age-days) old entries")
    cache.add_argument("--max-age-days", type=float, default=None,
                       help="gc entries older than this many days")
    cache.add_argument("--json", action="store_true",
                       help="with 'stats': machine-readable JSON "
                            "(per-family usage)")
    cache.set_defaults(func=cmd_cache)

    runs = sub.add_parser(
        "runs", help="inspect the crash-safe run journals "
                     "(REPRO_RUN_DIR): list, show a run's "
                     "crash-report → fix → verdict chain, or gc")
    runs.add_argument("action", choices=("list", "show", "gc"),
                      help="list: every run with event tallies; show: "
                           "replay one run's per-file audit trail; gc: "
                           "prune old run directories")
    runs.add_argument("run_id", nargs="?", default=None,
                      help="run id for 'show' (default: latest)")
    runs.add_argument("--file", default=None, metavar="NAME",
                      help="with 'show': full chain (diff included) "
                           "for one file")
    runs.add_argument("--diff", action="store_true",
                      help="with 'show': print winning diffs for every "
                           "file")
    runs.add_argument("--max-age-days", type=float, default=None,
                      help="with 'gc': remove runs older than this")
    runs.add_argument("--keep", type=int, default=None,
                      help="with 'gc': keep only the newest N runs")
    runs.set_defaults(func=cmd_runs)

    synth = sub.add_parser(
        "synth", help="synthesize a ground-truth corpus of planted "
                      "overflow/safe C files (deterministic by --seed)")
    synth.add_argument("--count", type=int, default=100,
                       help="number of files to generate (default: 100)")
    synth.add_argument("--seed", type=int, default=0,
                       help="generation seed; the same (count, seed) is "
                            "byte-for-byte reproducible (default: 0)")
    synth.add_argument("--out", default="synth_corpus", metavar="DIR",
                       help="output directory (default: synth_corpus)")
    synth.add_argument("--no-validate", action="store_true",
                       help="skip checking each mutant's planted label "
                            "against the bounds-checked VM")
    synth.set_defaults(func=cmd_synth)

    watch = sub.add_parser(
        "watch", help="watch a .c file or directory and re-analyze "
                      "edits incrementally (function-granular)")
    watch.add_argument("path", help=".c file or directory to watch")
    watch.add_argument("--profile", choices=("glib", "c11"),
                       default="glib", help="SLR replacement profile")
    watch.add_argument("--no-validate", action="store_true",
                       help="skip the differential oracle on each edit")
    watch.add_argument("--seed", type=int, default=None,
                       help="fuzz-input seed for the oracle")
    watch.add_argument("--json", action="store_true",
                       help="one JSON record per update instead of text")
    watch.add_argument("--once", action="store_true",
                       help="analyze everything once and exit (no loop)")
    watch.set_defaults(func=cmd_watch)

    run = sub.add_parser("run", help="run a C file in the checked VM")
    run.add_argument("file")
    run.add_argument("--stdin", default="", help="text fed to stdin")
    run.set_defaults(func=cmd_run)

    analyze_cmd = sub.add_parser("analyze",
                                 help="print analysis facts for a C file")
    analyze_cmd.add_argument("file")
    analyze_cmd.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    from .cfront.source import SourceError

    args = build_parser().parse_args(argv)
    environ = os.environ.copy()
    try:
        return args.func(args)
    except SourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProgramError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Long listings piped into ``head`` close stdout early; point
        # it at devnull so interpreter shutdown's flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        # Knobs a flag set hold for this command only; the pool workers
        # forked inside it have already inherited them.
        if os.environ != environ:
            os.environ.clear()
            os.environ.update(environ)


if __name__ == "__main__":
    raise SystemExit(main())
