"""Differential re-validation of every Table III / Table V transformed
site.

The evaluation tables answer "how many sites were transformed"; this
experiment answers "did any of those transformations change semantics".
It replays the Table III population (a SAMATE slice, per-CWE stratified
sample) and the Table V corpus programs through the differential oracle
(:mod:`repro.core.validate`) and aggregates verdicts.  A single
``semantics-changed`` divergence anywhere fails the run — this is the
standing correctness gate every transformation PR must pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.batch import apply_batch
from ..core.validate import VERDICT_CHANGED, VERDICTS
from ..corpus import build_all
from ..samate.generator import CWE_TITLES, generate_suite
from .common import render_table
from .samate_runner import run_samate_suite, stratified_sample


@dataclass
class ValidationRow:
    name: str                   # 'CWE-121' or a corpus program name
    programs: int               # validated programs/files
    inputs: int                 # differential inputs executed
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def semantics_changed(self) -> int:
        return self.counts.get(VERDICT_CHANGED, 0)


@dataclass
class ValidationEvalResult:
    samate_rows: list[ValidationRow] = field(default_factory=list)
    corpus_rows: list[ValidationRow] = field(default_factory=list)
    backends: tuple[str, ...] | None = None
    scoreboard: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def rows(self) -> list[ValidationRow]:
        return self.samate_rows + self.corpus_rows

    @property
    def total_changed(self) -> int:
        return sum(r.semantics_changed for r in self.rows)

    @property
    def ok(self) -> bool:
        return self.total_changed == 0

    def scoreboard_payload(self) -> dict:
        """The machine-readable shape behind ``--scoreboard-json`` (the
        CI backend-matrix artifact)."""
        return {
            "backends": list(self.backends) if self.backends else [],
            "scoreboard": self.scoreboard,
            "verdicts": {verdict: sum(r.counts.get(verdict, 0)
                                      for r in self.rows)
                         for verdict in VERDICTS},
            "programs": sum(r.programs for r in self.rows),
            "inputs": sum(r.inputs for r in self.rows),
            "ok": self.ok,
        }

    def render(self) -> str:
        headers = ["Suite", "Programs", "Inputs", *VERDICTS]
        rows = []
        for r in self.rows:
            rows.append([r.name, r.programs, r.inputs,
                         *(r.counts.get(verdict, 0)
                           for verdict in VERDICTS)])
        rows.append(["Total",
                     sum(r.programs for r in self.rows),
                     sum(r.inputs for r in self.rows),
                     *(sum(r.counts.get(verdict, 0) for r in self.rows)
                       for verdict in VERDICTS)])
        title = "Differential validation — Table III/V transformed sites"
        if self.backends:
            title += f" [backends: {', '.join(self.backends)}]"
        text = render_table(headers, rows, title)
        if self.scoreboard:
            board_rows = [[backend, row["attempted"], row["changed"],
                           row["selected"], row["rejected"],
                           row["errors"], row["overflow_prevented"]]
                          for backend, row
                          in sorted(self.scoreboard.items())]
            text += "\n\n" + render_table(
                ["Backend", "Attempted", "Changed", "Selected",
                 "Rejected", "Errors", "Overflow-prevented"],
                board_rows, "Backend arbitration scoreboard")
        return text


def _merge(counts: dict[str, int], report) -> int:
    """Accumulate one ValidationReport into ``counts``; returns the
    number of inputs it executed."""
    for verdict, n in report.counts().items():
        counts[verdict] = counts.get(verdict, 0) + n
    return len(report.verdicts)


def compute_validation(*, scale: float = 0.02, limit: int = 12,
                       jobs: int | None = None,
                       corpus: bool = True,
                       backends=None) -> ValidationEvalResult:
    """Run the oracle over a SAMATE slice and the corpus programs.

    ``scale`` sizes the generated Table III population; ``limit`` caps
    the per-CWE number of programs actually validated (stratified, so
    variant/flow diversity survives the cap).  ``backends`` (an id
    tuple, comma string, or ``"all"``) swaps the legacy SLR→STR chain
    for per-file arbitration and fills the result's scoreboard.
    """
    from ..core.backends import resolve_backends, scoreboard

    backend_ids = resolve_backends(backends) if backends else None
    result = ValidationEvalResult(backends=backend_ids)
    arbitrations = []
    suite = generate_suite(scale)
    for cwe, programs in suite.items():
        sample = stratified_sample(programs, limit)
        outcomes = run_samate_suite(sample, validate=True, jobs=jobs,
                                    backends=backend_ids)
        counts: dict[str, int] = {}
        inputs = 0
        validated = 0
        for outcome in outcomes:
            if outcome.arbitration is not None:
                arbitrations.append(outcome.arbitration)
            if outcome.validation is None:
                continue
            validated += 1
            inputs += _merge(counts, outcome.validation)
        result.samate_rows.append(ValidationRow(
            f"CWE-{cwe} ({CWE_TITLES[cwe]})", validated, inputs, counts))
    if corpus:
        for name, program in build_all().items():
            batch = apply_batch(program, validate=True, jobs=jobs,
                                backends=backend_ids)
            arbitrations.extend(batch.arbitrations())
            counts = {}
            inputs = 0
            for report in batch.validations():
                inputs += _merge(counts, report)
            result.corpus_rows.append(ValidationRow(
                name, len(batch.validations()), inputs, counts))
    if arbitrations:
        result.scoreboard = scoreboard(arbitrations)
    return result


def main(argv: list[str] | None = None) -> None:
    import argparse
    import sys
    parser = argparse.ArgumentParser(
        description="Differentially re-validate Table III/V "
                    "transformed sites")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="SAMATE population scale (default 0.02)")
    parser.add_argument("--limit", type=int, default=12,
                        help="max validated programs per CWE")
    parser.add_argument("--no-corpus", action="store_true",
                        help="skip the Table V corpus programs")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS "
                             "or 1)")
    parser.add_argument("--backends", default=None, metavar="A,B,C",
                        help="arbitrate these fix backends per program "
                             "instead of the legacy SLR→STR chain "
                             "('all' = every registered backend)")
    parser.add_argument("--scoreboard-json", default=None,
                        metavar="PATH",
                        help="write the backend scoreboard + verdict "
                             "totals to this JSON file (CI artifact)")
    args = parser.parse_args(argv)
    try:
        result = compute_validation(scale=args.scale, limit=args.limit,
                                    jobs=args.jobs,
                                    corpus=not args.no_corpus,
                                    backends=args.backends)
    except (KeyError, ValueError) as exc:
        # A typo'd --backends id (UnknownBackendError) must exit with
        # one clean line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    print(result.render())
    if args.scoreboard_json:
        import json
        with open(args.scoreboard_json, "w", encoding="utf-8") as handle:
            json.dump(result.scoreboard_payload(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"\nwrote scoreboard to {args.scoreboard_json}")
    if result.ok:
        print("\nNo semantics-changing divergence found.")
    else:
        print(f"\nFAIL: {result.total_changed} semantics-changed "
              f"divergence(s).")
        sys.exit(1)


if __name__ == "__main__":
    main()
