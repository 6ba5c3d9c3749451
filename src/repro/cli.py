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
  file's oracle-best candidate; ``REPRO_BACKENDS`` sets the default);
* ``run FILE``       — execute a C file in the bounds-checked VM;
* ``analyze FILE``   — print analysis facts (points-to, aliases, buffer
  lengths at unsafe call sites);
* ``cache ACTION``   — manage the persistent artifact store
  (``stats`` / ``clear`` / ``gc``; ``stats --json`` dumps per-family
  usage and counters machine-readably);
* ``runs ACTION``    — inspect the crash-safe run journals every
  ``batch`` invocation writes (``list`` / ``show`` / ``gc``); ``batch
  --resume <run-id|latest>`` replays a crashed or interrupted run's
  completed files and re-dispatches only unfinished work;
* ``synth``          — generate a synthetic ground-truth corpus of
  planted overflow/safe files, VM-validated and deterministic by seed.

``batch`` and ``validate`` accept ``--no-disk-cache`` (this run skips
the persistent store) and ``--profile`` (render the per-stage timing
breakdown; ``REPRO_PROFILE=1`` does the same).

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

from . import apply_slr, apply_str, preprocess, run_c


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def cmd_fix(args: argparse.Namespace) -> int:
    source = _read(args.file)
    text = preprocess(source, args.file)
    outcomes = []
    if not args.no_slr:
        result = apply_slr(text, args.file, profile=args.profile)
        outcomes.extend(result.outcomes)
        text = result.new_text
    if not args.no_str:
        result = apply_str(text, args.file)
        outcomes.extend(result.outcomes)
        text = result.new_text

    for outcome in outcomes:
        marker = "FIXED" if outcome.transformed else "SKIP "
        reason = f" ({outcome.reason})" if outcome.reason else ""
        print(f"[{marker}] {outcome.transformation} "
              f"{outcome.function}:{outcome.line} "
              f"{outcome.target}{reason}", file=sys.stderr)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    transformed = sum(1 for o in outcomes if o.transformed)
    print(f"{transformed}/{len(outcomes)} sites transformed",
          file=sys.stderr)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    source = _read(args.file)
    text = preprocess(source, args.file)
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
    from .core.session import get_session
    from .core.slr import UNSAFE_FUNCTIONS

    source = _read(args.file)
    session = get_session()
    text = session.preprocess(source, args.file).text
    parsed = session.parse(text, args.file)
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


def _load_program(path: str):
    """Build a SourceProgram from a directory of .c/.h files or a single
    .c file; returns (program, error-message)."""
    import os

    from .core.batch import SourceProgram

    if os.path.isfile(path):
        name = os.path.basename(path)
        return SourceProgram(name, {name: _read(path)}, {}), None
    try:
        entries = sorted(os.listdir(path))
    except OSError as exc:
        return None, f"cannot read {path}: {exc.strerror}"
    files: dict[str, str] = {}
    headers: dict[str, str] = {}
    for entry in entries:
        full = os.path.join(path, entry)
        if not os.path.isfile(full):
            continue
        if entry.endswith(".c"):
            files[entry] = _read(full)
        elif entry.endswith(".h"):
            headers[entry] = _read(full)
    if not files:
        return None, f"no .c files in {path}"
    program = SourceProgram(
        os.path.basename(os.path.abspath(path)) or "program",
        files, headers)
    return program, None


def _apply_disk_cache_flag(args: argparse.Namespace) -> None:
    """``--no-disk-cache`` disables the persistent store for this run
    (and any fork-pool workers, which inherit the environment)."""
    import os

    if getattr(args, "no_disk_cache", False):
        os.environ["REPRO_DISK_CACHE"] = "0"


def _apply_supervision_flags(args: argparse.Namespace) -> None:
    """``--task-timeout`` / ``--task-retries`` set the supervision env
    knobs so fork-pool workers (which inherit the environment) and the
    executor defaults agree."""
    import os

    if getattr(args, "task_timeout", None) is not None:
        os.environ["REPRO_TASK_TIMEOUT"] = str(args.task_timeout)
    if getattr(args, "task_retries", None) is not None:
        os.environ["REPRO_TASK_RETRIES"] = str(args.task_retries)


def _make_journal(args: argparse.Namespace, program):
    """Build (or reopen, under ``--resume``) the run journal for a batch
    invocation; returns ``(journal, error message)``.  ``--no-run-log``
    (or ``REPRO_RUN_LOG=0``) runs unjournaled."""
    import os

    from .core.runlog import (
        RunJournal, RunNotFound, resolve_run_id, run_log_enabled,
    )

    if getattr(args, "no_run_log", False):
        os.environ["REPRO_RUN_LOG"] = "0"
    if not run_log_enabled():
        if getattr(args, "resume", None):
            return None, ("--resume requires run journaling "
                          "(drop --no-run-log / REPRO_RUN_LOG=0)")
        return None, None
    try:
        if getattr(args, "resume", None):
            journal = RunJournal(resolve_run_id(args.resume))
            journal.load()
        else:
            journal = RunJournal(getattr(args, "run_id", None))
    except RunNotFound as exc:
        return None, str(exc)
    journal.begin(program, {
        "run_slr": not args.no_slr, "run_str": not args.no_str,
        "profile": args.slr_profile, "validate": args.validate,
        "backends": args.backends, "arbitration": args.arbitration,
    })
    return journal, None


def cmd_batch(args: argparse.Namespace) -> int:
    import json
    import os

    from .cfront.source import SourceError
    from .core.batch import apply_batch
    from .core.profile import profiling_enabled
    from .core.report import (
        diagnostics_payload, render_backend_scoreboard,
        render_batch_stats, render_cache_stats, render_diagnostics,
        render_profile, render_validation,
    )

    _apply_disk_cache_flag(args)
    _apply_supervision_flags(args)
    program, error = _load_program(args.directory)
    if program is None:
        print(error, file=sys.stderr)
        return 2
    journal, error = _make_journal(args, program)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        batch = apply_batch(program, run_slr=not args.no_slr,
                            run_str=not args.no_str,
                            profile=args.slr_profile,
                            jobs=args.jobs, validate=args.validate,
                            backends=args.backends,
                            arbitration=args.arbitration,
                            journal=journal)
    except (SourceError, ValueError, KeyError) as exc:
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
    if args.profile or profiling_enabled():
        print()
        print(render_profile(batch))
    if args.stats:
        print()
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
        stats = batch.stats
        print(f"run {journal.run_id}: journaled to {journal.run_dir} "
              f"({stats.replayed} replayed, {stats.quarantined} "
              f"quarantined); resume with --resume {journal.run_id}",
              file=sys.stderr)
    if arbitrated:
        winners = batch.winners()
        fixed = sum(1 for winner in winners.values() if winner)
        site_note = ""
        if batch.site_winner_totals() or any(
                a.mode == "site" for a in batch.arbitrations()):
            sites_won = sum(batch.site_winner_totals().values())
            site_note = (f", {batch.composites_shipped} composite(s) "
                         f"over {sites_won} site(s)")
        print(f"arbitration: {fixed}/{len(winners)} file(s) fixed, "
              f"{batch.backends_attempted} candidate(s), "
              f"{batch.backends_rejected} rejected{site_note}; "
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
    from .cfront.source import SourceError
    from .core.batch import apply_batch
    from .core.report import render_validation

    _apply_disk_cache_flag(args)
    program, error = _load_program(args.path)
    if program is None:
        print(error, file=sys.stderr)
        return 2
    try:
        batch = apply_batch(program, run_slr=not args.no_slr,
                            run_str=not args.no_str,
                            profile=args.slr_profile,
                            jobs=args.jobs, validate=True,
                            fuzz_seed=args.seed,
                            backends=args.backends,
                            arbitration=args.arbitration)
    except (SourceError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for report in batch.reports:
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
    return 0 if batch.all_parse and batch.semantics_preserved else 1


def cmd_backends(args: argparse.Namespace) -> int:
    """List the registered fix backends and the defaults in effect."""
    from .core.backends import (
        DEFAULT_BACKENDS, all_backends, backends_from_env,
    )

    env_default = backends_from_env()
    active = env_default if env_default is not None else None
    for backend in all_backends():
        marks = []
        if backend.id in DEFAULT_BACKENDS:
            marks.append("legacy-chain")
        if active is not None and backend.id in active:
            marks.append("REPRO_BACKENDS")
        suffix = f"  [{', '.join(marks)}]" if marks else ""
        print(f"{backend.id:<10} {backend.title}{suffix}")
        if args.verbose:
            print(f"{'':10} {backend.description}")
            if backend.config_key():
                print(f"{'':10} config: {backend.config_key()}")
    if active is not None:
        print(f"\nREPRO_BACKENDS={','.join(active)} — batch runs "
              f"arbitrate these by default")
    else:
        print("\nno REPRO_BACKENDS set — batch runs the legacy "
              "SLR→STR chain unless --backends is given")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    import os

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
    usage and lifetime counters."""
    from .core.store import SCHEMA_VERSION

    return {
        "root": store.root,
        "schema_version": SCHEMA_VERSION,
        "fingerprint": store.fingerprint,
        "usage": store.usage(),
        "counters": store.persisted_counters(),
        "stale_versions": store.stale_versions(),
    }


def cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .cfront.cache import stats_by_family
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

    # stats: on-disk usage plus lifetime hit/miss/bytes counters.
    print(f"store: {store.root}")
    print(f"version: schema v{SCHEMA_VERSION}, "
          f"fingerprint {store.fingerprint}")
    usage = store.usage()
    counters = store.persisted_counters()
    families = sorted(set(usage) | set(counters))
    if not families:
        print("(store is empty)")
        return 0
    rows = []
    total_entries = total_bytes = 0
    for family in families:
        use = usage.get(family, {"entries": 0, "bytes": 0})
        counter = counters.get(family, {})
        total_entries += use["entries"]
        total_bytes += use["bytes"]
        rows.append(f"  {family:<11} {use['entries']:>7} entries  "
                    f"{use['bytes']:>10} bytes  "
                    f"hits={counter.get('hits', 0)} "
                    f"misses={counter.get('misses', 0)} "
                    f"read={counter.get('bytes_read', 0)} "
                    f"written={counter.get('bytes_written', 0)}")
    print("\n".join(rows))
    print(f"  {'(total)':<11} {total_entries:>7} entries  "
          f"{total_bytes:>10} bytes")
    process = stats_by_family()
    if any(s.lookups for s in process.values()):
        print("this process (memory LRU + disk layer, by family):")
        for family, s in sorted(process.items()):
            if not s.lookups:
                continue
            print(f"  {family:<11} hits={s.hits} misses={s.misses} "
                  f"disk_hits={s.disk_hits} disk_misses={s.disk_misses} "
                  f"hit_rate={100.0 * s.hit_rate:.1f}%")
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
        audit = journal.read_audit(name)
        if event is None and audit is None:
            print(f"{name}: no journaled outcome", file=sys.stderr)
            continue
        shown += 1
        status = audit.get("status") if audit else (event and event[0])
        print(f"\n{name}: {status}")
        if audit is None:
            continue
        for diag in audit.get("diagnostics") or []:
            print(f"  crash report: [{diag.get('stage')}] "
                  f"{diag.get('kind')}: {diag.get('message')}")
        winner = audit.get("winner")
        if winner:
            print(f"  fix: backend {winner} won the arbitration")
        elif audit.get("diff"):
            print("  fix: SLR/STR chain edited the file")
        verdicts = audit.get("verdicts")
        if verdicts:
            print("  verdicts: " + " ".join(
                f"{k}={v}" for k, v in sorted(verdicts.items())))
        for div in audit.get("divergences") or []:
            print(f"  divergence: {div.get('input')}"
                  f"({div.get('kind')}): {div.get('verdict')} — "
                  f"{div.get('detail')}")
        diff = audit.get("diff")
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
                            "('all' = every registered backend; also "
                            "REPRO_BACKENDS; see 'repro backends')")
    batch.add_argument("--arbitration", default=None,
                       choices=("file", "site"),
                       help="winner selection under --backends: 'file' "
                            "ships one backend's whole-file fix "
                            "(default), 'site' composes the oracle-best "
                            "backend per call site and re-judges the "
                            "composite (also REPRO_ARBITRATION)")
    batch.add_argument("--profile", action="store_true",
                       help="render the per-file, per-stage timing "
                            "breakdown (also REPRO_PROFILE=1)")
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
                       help="skip the write-ahead run journal and audit "
                            "trail (also REPRO_RUN_LOG=0); such a run "
                            "cannot be resumed")
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
                               "('all' = every registered backend; "
                               "also REPRO_BACKENDS)")
    validate.add_argument("--arbitration", default=None,
                          choices=("file", "site"),
                          help="winner selection under --backends: "
                               "'file' (default) or per-'site' "
                               "composition (also REPRO_ARBITRATION)")
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
                       help="stats: usage + lifetime hit/miss counters; "
                            "clear: drop every entry; gc: reclaim stale "
                            "tool versions, abandoned temp files, and "
                            "(with --max-age-days) old entries")
    cache.add_argument("--max-age-days", type=float, default=None,
                       help="gc entries older than this many days")
    cache.add_argument("--json", action="store_true",
                       help="with 'stats': machine-readable JSON "
                            "(per-family usage and counters)")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Long listings piped into ``head`` close stdout early; point
        # it at devnull so interpreter shutdown's flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
