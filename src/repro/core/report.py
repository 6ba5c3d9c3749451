"""Pipeline instrumentation reports.

Renders the batch driver's per-file wall times and the frontend cache
counters as plain-text tables for the CLI (``repro batch --stats``) and
the evaluation report.  Kept separate from :mod:`repro.eval.report`
(which reproduces the paper's tables) — this module reports on the
*pipeline itself*.
"""

from __future__ import annotations

from ..cfront.cache import CacheStats, all_cache_stats
from . import profile
from .batch import BatchResult
from .validate import VERDICTS


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(headers[i])),
                  *(len(str(row[i])) for row in rows)) if rows
              else len(str(headers[i])) for i in range(len(headers))]
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_batch_stats(result: BatchResult) -> str:
    """Per-file wall time + site counts for one batch run."""
    degraded = any(not r.ok for r in result.reports)
    arbitrated = any(r.arbitration is not None for r in result.reports)
    # Arbitration always judges, so its runs always get an oracle
    # column — even when every candidate was rejected (the column is
    # then exactly where the rejection reasons surface).
    validated = arbitrated or any(r.validation is not None
                                  for r in result.reports)
    rows = []
    for report in result.reports:
        slr = report.slr
        str_ = report.str_
        arb = report.arbitration
        if arb is not None and arb.winning_candidate is not None:
            winning = arb.winning_candidate
            fix_cell = (f"{winning.backend}:"
                        f"{winning.transformed_count}/"
                        f"{winning.candidates}")
        elif arb is not None:
            fix_cell = "none"
        else:
            fix_cell = None
        row = [
            report.filename,
            f"{report.wall_time * 1000.0:8.1f}",
            f"{slr.transformed_count}/{slr.candidates}" if slr else "-",
            f"{str_.transformed_count}/{str_.candidates}" if str_ else "-",
            "yes" if report.parses else "NO",
        ]
        if arbitrated:
            row.append(fix_cell if fix_cell is not None else "-")
        if degraded:
            row.append(report.status if report.ok
                       else report.status.upper())
        if validated:
            # The oracle cell names the winning backend under
            # arbitration — the verdict shown is *that candidate's*.
            winner = f" ({arb.winner})" if arb and arb.winner else ""
            if report.validation is None:
                # No winning verdict: under arbitration, surface why the
                # best candidate was thrown out (e.g. a parse-rejected
                # transform) instead of a bare dash.
                detail = None
                if arb is not None and arb.winner is None:
                    detail = next(
                        (c for c in arb.candidates if c.rejected), None)
                row.append(f"{detail.backend} {detail.verdict_summary()}"
                           if detail is not None else "-")
            elif report.validation.ok:
                row.append(f"ok{winner}")
            else:
                row.append(
                    f"CHANGED "
                    f"x{report.validation.semantics_changed}{winner}")
        rows.append(row)
    headers = ["file", "wall ms", "SLR", "STR", "parses"]
    if arbitrated:
        headers.append("winner")
    if degraded:
        headers.append("status")
    if validated:
        headers.append("oracle")
    return (f"{_table(headers, rows)}\n\nbatch: {len(result.reports)} "
            f"files in {result.wall_time:.3f}s with {result.info.jobs} "
            f"job(s)")


def render_validation(result: BatchResult) -> str:
    """Per-file differential-oracle verdict counters for one batch run."""
    rows = []
    for report in result.validations():
        counts = report.counts()
        rows.append([report.filename,
                     "unchanged" if report.unchanged
                     else len(report.verdicts),
                     *(counts[verdict] for verdict in VERDICTS)])
    totals = result.validation_counts()
    if rows:
        rows.append(["Total",
                     sum(len(r.verdicts) for r in result.validations()),
                     *(totals.get(verdict, 0) for verdict in VERDICTS)])
    table = _table(["file", "inputs", *VERDICTS], rows)
    verdict_line = ("semantics preserved: yes"
                    if result.semantics_preserved else
                    f"semantics preserved: NO "
                    f"({totals.get('semantics-changed', 0)} divergences)")
    return f"{table}\n\n{verdict_line}"


def render_backend_scoreboard(result: BatchResult) -> str:
    """Per-backend arbitration tallies for one batch run
    (``repro batch --backends a,b,c``): how often each backend ran,
    changed a file, won, lost, or was disqualified by the oracle."""
    arbitrations = result.arbitrations()
    if not arbitrations:
        return "no arbitrations recorded"
    board = result.backend_scoreboard()
    # Preserve the requested backend order (the tie-break order).
    order: list[str] = []
    for report in arbitrations:
        for backend_id in report.backends:
            if backend_id in board and backend_id not in order:
                order.append(backend_id)
    order.extend(b for b in sorted(board) if b not in order)
    rows = [[backend_id,
             row["attempted"], row["changed"], row["selected"],
             row["runner_up"], row["rejected"], row["no_change"],
             row["not_applicable"], row["errors"],
             row["overflow_prevented"], row["sites_transformed"]]
            for backend_id in order
            for row in (board[backend_id],)]
    table = _table(["backend", "attempted", "changed", "selected",
                    "runner-up", "rejected", "no-change", "n/a",
                    "errors", "overflow-prevented", "sites"], rows)
    summary = (f"arbitration: {len(arbitrations)} file(s), "
               f"{result.backends_attempted} candidate(s) attempted, "
               f"{result.backends_rejected} rejected by the oracle")
    lines = [table, "", summary]
    rejected = [(report.filename, candidate)
                for report in arbitrations
                for candidate in report.candidates
                if candidate.rejected]
    if rejected:
        lines.append("rejected candidates:")
        lines.extend(f"  {filename} {candidate.backend}: "
                     f"{candidate.verdict_summary()}"
                     for filename, candidate in rejected)
    return "\n".join(lines)


def render_diagnostics(result: BatchResult) -> str:
    """Contained-failure report for one batch run: every per-file
    diagnostic, the per-stage failure tallies, and the executor's
    supervision counters (retries / timeouts / worker deaths)."""
    diagnostics = result.diagnostics()
    if not diagnostics:
        return "no contained failures"
    rows = []
    for diag in diagnostics:
        message = diag.message.splitlines()[0] if diag.message else ""
        if len(message) > 60:
            message = message[:59] + "…"
        rows.append([diag.filename, diag.stage, diag.kind,
                     diag.location or "-", diag.retries, message])
    table = _table(["file", "stage", "kind", "location", "retries",
                    "message"], rows)
    stage_counts = result.stage_failure_counts()
    stage_line = "failures by stage: " + " ".join(
        f"{stage}={count}" for stage, count
        in sorted(stage_counts.items()))
    status = result.status_counts()
    status_line = ("files: " + " ".join(f"{name}={status[name]}"
                                        for name in status))
    lines = [table, "", stage_line, status_line]
    supervision = result.info.supervision
    if any(supervision.values()):
        lines.append("supervision: " + " ".join(
            f"{name}={count}" for name, count
            in sorted(supervision.items())))
    return "\n".join(lines)


def diagnostics_payload(result: BatchResult) -> dict:
    """The machine-readable shape behind ``--diagnostics-json``."""
    payload = {
        "program": result.program.name,
        "files": len(result.reports),
        "status_counts": result.status_counts(),
        "stage_failure_counts": result.stage_failure_counts(),
        "supervision": dict(result.info.supervision),
        "diagnostics": [diag.as_dict()
                        for diag in result.diagnostics()],
        "statuses": {report.filename: report.status
                     for report in result.reports},
    }
    arbitrations = result.arbitrations()
    if arbitrations:
        payload["backends"] = {
            "requested": list(arbitrations[0].backends),
            "attempted": result.backends_attempted,
            "rejected": result.backends_rejected,
            "winners": result.winners(),
            "scoreboard": result.backend_scoreboard(),
            "arbitrations": [report.as_dict()
                             for report in arbitrations],
        }
    return payload


def render_cache_stats(stats: list[CacheStats] | None = None) -> str:
    """Hit/miss counters for every frontend cache in this process,
    memory LRU and disk layer both."""
    stats = all_cache_stats() if stats is None else stats
    rows = [[s.name, s.hits, s.misses, s.evictions,
             f"{100.0 * s.hit_rate:.1f}%",
             s.disk_hits, s.disk_misses,
             _fmt_bytes(s.bytes_read), _fmt_bytes(s.bytes_written)]
            for s in stats]
    return _table(["cache", "hits", "misses", "evictions", "hit rate",
                   "disk hits", "disk misses", "read", "written"],
                  rows)


def render_profile(result: BatchResult) -> str:
    """The per-stage timing breakdown for one batch run
    (``repro batch --profile``)."""
    return profile.render_profile({report.filename: report.stage_times
                                   for report in result.reports})


def _fmt_bytes(n: int) -> str:
    if n >= 1024 * 1024:
        return f"{n / (1024 * 1024):.1f}MB"
    if n >= 1024:
        return f"{n / 1024:.1f}KB"
    return str(n)
