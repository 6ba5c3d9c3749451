"""``python -m bench {run,calibrate,compare}`` — see ``bench/README.md``."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import SRC, WORKLOADS, BenchError, load_spec, report_lines, \
    result_line, run_workload


def _isolate() -> None:
    """This process imports ``repro`` too (inputs, output checks): keep
    it on the shipped defaults and off any on-disk store."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_DISK_CACHE"] = "0"
    sys.path.insert(0, str(SRC))


def cmd_run(args: argparse.Namespace) -> int:
    _isolate()
    seconds = args.seconds if args.seconds is not None \
        else load_spec()["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        record = run_workload(name, args.seed, seconds, bool(args.trace),
                              smoke=args.smoke)
        print("\n".join(report_lines(record)))
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        print(result_line(record), flush=True)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from .calibrate import calibrate, calibration_lines
    seconds = args.seconds if args.seconds is not None \
        else load_spec()["run_seconds"]
    baseline = calibrate(args.workload or list(WORKLOADS), args.runs,
                         args.sets, seconds)
    print("\n".join(calibration_lines(baseline)))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .calibrate import compare
    for row in compare(args.parent, args.change):
        print(f"{row['workload']:<13} {row['metric']:<20} "
              f"parent {row['parent']:.5g} "
              f"[{row['parent_q1']:.5g}, {row['parent_q3']:.5g}]  "
              f"change {row['change']:.5g}  "
              f"wins {row['wins']}/{row['pairs']}  {row['verdict']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure one workload (or all)")
    run.add_argument("--workload", choices=sorted(WORKLOADS),
                     help="default: every workload in turn")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None,
                     help="time budget per workload (default: "
                          "run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: report per-layer metrics from traced "
                          "repetitions instead of end-to-end metrics")
    run.add_argument("--smoke", action="store_true",
                     help="tiny inputs and one repetition (CI smoke)")
    run.add_argument("--out", help="append the full run record (JSON "
                                   "lines) to this file")
    run.set_defaults(func=cmd_run)

    cal = sub.add_parser("calibrate", help="measure run-to-run spread, "
                                           "record baselines, widen bounds "
                                           "below twice the spread")
    cal.add_argument("--workload", action="append",
                     choices=sorted(WORKLOADS))
    cal.add_argument("--runs", type=int, default=5)
    cal.add_argument("--sets", type=int, default=2)
    cal.add_argument("--seconds", type=int, default=None)
    cal.set_defaults(func=cmd_calibrate)

    cmp_ = sub.add_parser("compare", help="judge a change against its "
                                          "parent from two --out files")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
