"""``calibrate`` (measure the benchmark's own spread) and ``compare``
(judge a change against its parent) for ``python -m bench``.

Both work on end-to-end metric values of whole runs — one
``python -m bench run`` invocation each — because that is the unit the
bounds in ``BENCHMARK.json`` are defined on.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys

from .harness import ROOT, SPEC_PATH, load_spec

BASELINE_PATH = ROOT / "bench" / "baseline.json"

#: The widest bound an end-to-end metric may have.
BOUND_CEILING = 0.25


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def _worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of it."""
    if not parent:
        return 0.0
    gap = (parent - change) if better == "higher" else (change - parent)
    return gap / abs(parent)


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One ``python -m bench run`` invocation, exactly as a driver makes
    it; returns the parsed result line."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _write_spec(spec: dict) -> None:
    """Write ``BENCHMARK.json`` back in its layout: one workload or
    metric a line."""
    fields = []
    for key, value in spec.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            rows = ",\n".join(f"    {json.dumps(row)}" for row in value)
            fields.append(f"  {json.dumps(key)}: [\n{rows}\n  ]")
        else:
            fields.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    SPEC_PATH.write_text("{\n" + ",\n".join(fields) + "\n}\n",
                         encoding="utf-8")


def calibrate(workloads: list[str], runs: int, sets: int,
              seconds: int) -> dict:
    """``sets`` sets of ``runs`` runs per workload, each run on its own
    seed, plus one traced run per set.

    Writes every value, spread and drift to ``bench/baseline.json``
    (``BENCHMARK.json`` has a fixed set of keys), then applies the bound
    rule to ``BENCHMARK.json``: a bound must be at least twice the
    widest spread measured for its metric, and is widened to that, up to
    the 0.25 ceiling, when it is not.  Bounds are never narrowed, and
    ``setup_s``, whose spread is not bounded, keeps its bound.
    """
    spec = load_spec()
    metrics = [m["name"] for m in spec["end_to_end"]]
    baseline: dict = {"seconds": seconds, "incorrect_runs": [],
                      "workloads": {}}
    widest = {name: 0.0 for name in metrics}
    for workload in workloads:
        per_set, layers = [], []
        for s in range(sets):
            values: dict[str, list[float]] = {name: [] for name in metrics}
            for i in range(runs + 1):
                seed = 1000 * (s + 1) + i
                result = run_once(workload, seed, seconds, i == runs)
                if not result["correct"]:
                    baseline["incorrect_runs"].append(f"{workload} {seed}")
                if i == runs:
                    layers.append({name: m["value"] for name, m
                                   in result["metrics"].items()})
                    continue
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
            per_set.append({name: {"median": statistics.median(v),
                                   "spread": spread(v), "values": v}
                            for name, v in values.items()})
        baseline["workloads"][workload] = {"sets": per_set,
                                           "per_layer": layers}
        for name in metrics:
            first = per_set[0][name]["median"]
            for row in per_set:
                if name != "setup_s":
                    widest[name] = max(widest[name], row[name]["spread"])
                row[name]["drift_vs_first_set"] = \
                    abs(row[name]["median"] - first) / abs(first) \
                    if first else 0.0
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
    for m in spec["end_to_end"]:
        needed = math.ceil(200 * widest[m["name"]]) / 100
        if needed > m["bound"]:
            m["bound"] = min(BOUND_CEILING, needed)
    _write_spec(spec)
    return baseline


def calibration_lines(baseline: dict) -> list[str]:
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = [f"{'workload':<13} {'metric':<20} {'bound':>6} "
             f"{'median':>12} {'spread':>7} {'drift':>7}"]
    for workload, data in baseline["workloads"].items():
        for i, row in enumerate(data["sets"]):
            for name, cell in row.items():
                flag = ""
                if name != "setup_s" and cell["spread"] > bounds[name] / 3:
                    flag = "  SPREAD"
                if cell["drift_vs_first_set"] > bounds[name]:
                    flag += "  DRIFT"
                lines.append(f"{workload:<13} {name:<20} {bounds[name]:>6.2f}"
                             f" {cell['median']:>12.5g}"
                             f" {cell['spread']:>7.3f}"
                             f" {cell['drift_vs_first_set']:>7.3f}"
                             f"  set {i + 1}{flag}")
    lines += [f"INCORRECT: {run}" for run in baseline["incorrect_runs"]]
    return lines


def _records(path: str) -> dict[str, list[dict]]:
    """Untraced run records of a ``--out`` file, by workload, in order."""
    out: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    out.setdefault(record["workload"], []).append(record)
    return out


def compare(parent_path: str, change_path: str) -> list[dict]:
    """Judge every (workload, end-to-end metric) pair.

    Runs are paired in file order.  ``gain``: at least ten pairs, the
    change wins at least nine in ten, and the medians differ by more
    than the parent's inter-quartile range.  ``unresolved``: the
    parent's spread is wider than the bound and not every change run
    beats every parent run.  ``regression``: the change's median is
    worse than the parent's by more than the bound.
    """
    spec = load_spec()
    parent, change = _records(parent_path), _records(change_path)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        pairs = list(zip(parent[workload], change[workload]))
        for m in spec["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            a = [p["metrics"][name]["value"] for p, _c in pairs]
            b = [c["metrics"][name]["value"] for _p, c in pairs]
            wins = sum(1 for x, y in zip(a, b)
                       if (y > x if better == "higher" else y < x))
            med_a, med_b = statistics.median(a), statistics.median(b)
            q1, q3 = statistics.quantiles(a, n=4)[::2] if len(a) > 1 \
                else (a[0], a[0])
            improved = _worse_by(med_a, med_b, better) < 0
            dominates = (min(b) > max(a)) if better == "higher" \
                else (max(b) < min(a))
            if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and improved \
                    and abs(med_b - med_a) > q3 - q1:
                verdict = "gain"
            elif spread(a) > bound and not dominates:
                verdict = "unresolved"
            elif _worse_by(med_a, med_b, better) > bound:
                verdict = "regression"
            else:
                verdict = "no regression"
            rows.append({"workload": workload, "metric": name,
                         "parent": med_a, "parent_q1": q1, "parent_q3": q3,
                         "change": med_b, "wins": wins, "pairs": len(pairs),
                         "verdict": verdict})
    return rows
