"""Smoke test of the benchmark: ``python -m bench run --smoke``.

Tiny inputs and one repetition per mode keep this to a few seconds per
workload.  It checks what the benchmark promises about itself: every
metric ``BENCHMARK.json`` names is emitted with its unit; traced runs
produce the same outputs as untraced ones and leave no wrapper behind;
per process, self time plus unattributed time adds up to the wall; and
without the package under ``src/`` the benchmark fails without a result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Smoke records: end-to-end runs of one batch workload and the edit
    loop, traced runs of every workload."""
    out = tmp_path_factory.mktemp("bench") / "records.jsonl"
    runs = [("cold-batch", 0), ("edit-loop", 0)] + \
        [(w["name"], 1) for w in SPEC["workloads"]]
    lines = {}
    for workload, trace in runs:
        proc = _bench("run", "--workload", workload, "--seed", "1",
                      "--trace", str(trace), "--smoke", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines[(workload, trace)] = proc.stdout.strip().splitlines()[-1]
    full = [json.loads(line) for line in out.read_text().splitlines()]
    return lines, {(r["workload"], r["trace"]): r for r in full}


def test_result_line_has_exactly_the_contract_keys(records):
    lines, _full = records
    for line in lines.values():
        result = json.loads(line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0


def test_every_metric_is_emitted_with_its_unit(records):
    lines, _full = records
    for (_workload, trace), line in lines.items():
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        metrics = json.loads(line)["metrics"]
        assert set(metrics) == {m["name"] for m in wanted}
        for m in wanted:
            assert NAME.fullmatch(m["name"])
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert isinstance(metrics[m["name"]]["value"], (int, float))


def test_traced_runs_pass_every_gate(records):
    # The gates include byte-identical outputs between the traced and
    # the untraced repetition, and no tracer wrapper left installed.
    _lines, full = records
    for record in full.values():
        assert record["gates"] == [], record["gates"]


def test_self_plus_unattributed_equals_wall(records):
    _lines, full = records
    for (_workload, trace), record in full.items():
        if not trace:
            continue
        assert record["processes"]
        for account in record["processes"]:
            total = account["attributed_s"] + account["unattributed_s"]
            assert abs(total - account["wall_s"]) <= 0.01 * account["wall_s"]


def test_tracer_restores_every_target(tmp_path):
    from bench.trace import TARGETS, Tracer, load_spans, process_accounts, \
        resolve
    from repro.core.session import AnalysisSession

    def current():
        return [vars(owner).get(attr) for owner, attr in
                (resolve(module, path) for _n, module, path, _a in TARGETS)]

    before = current()
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(current(), before))
        tracer.wrap("main", AnalysisSession().parse)(
            "int main(void) { return 0; }")
    finally:
        leaked = tracer.uninstall()
    assert leaked == []
    assert all(a is b for a, b in zip(current(), before))
    spans = load_spans(str(tmp_path))
    [account] = process_accounts(spans)
    assert {s["n"] for s in spans[account["pid"]]} >= {"main", "parse"}
    assert account["attributed_s"] + account["unattributed_s"] == \
        pytest.approx(account["wall_s"])


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("run", "--workload", "cold-batch", "--seed", "0",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_label_gate_leaves_unjournaled_files_to_the_coverage_gate():
    from bench.harness import _label_gate
    files = {"a.c": {"verdicts": {"overflow-prevented": 1}}}
    assert _label_gate(files, {"a.c": "overflow", "b.c": "safe"}) == []


def test_calibrate_flags_drift_either_way_and_widens_bounds(tmp_path,
                                                           monkeypatch):
    import bench.calibrate as calibrate
    import bench.harness as harness
    spec_path = tmp_path / "BENCHMARK.json"
    spec_path.write_text((ROOT / "BENCHMARK.json").read_text())
    for module in (calibrate, harness):
        monkeypatch.setattr(module, "SPEC_PATH", spec_path)
    monkeypatch.setattr(calibrate, "BASELINE_PATH", tmp_path / "base.json")
    # Set 2 runs 60% faster than set 1; peak RSS spreads 12/128 in each.
    rss = [119.0, 125.0, 128.0, 131.0, 137.0, 0.0]

    def run_once(workload, seed, seconds, trace):
        group, i = divmod(seed, 1000)
        values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        values["files_per_s"] = 100.0 if group == 1 else 160.0
        values["peak_rss_parent_mb"] = rss[i]
        return {"correct": True,
                "metrics": {n: {"value": v} for n, v in values.items()}}

    monkeypatch.setattr(calibrate, "run_once", run_once)
    baseline = calibrate.calibrate(["cold-batch"], 5, 2, 1)
    drifted = [line for line in calibrate.calibration_lines(baseline)
               if "DRIFT" in line]
    assert len(drifted) == 1 and "files_per_s" in drifted[0]
    bounds = {m["name"]: m["bound"]
              for m in json.loads(spec_path.read_text())["end_to_end"]}
    before = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds == dict(before, peak_rss_parent_mb=max(
        0.19, before["peak_rss_parent_mb"]))


def _record(workload, values):
    return {"workload": workload, "trace": 0,
            "metrics": {m["name"]: {"value": values.get(m["name"], 1.0)}
                        for m in SPEC["end_to_end"]}}


def test_compare_rule(tmp_path):
    from bench.calibrate import compare
    bound = {m["name"]: m["bound"]
             for m in SPEC["end_to_end"]}["files_per_s"]
    parent = [_record("cold-batch", {"files_per_s": 100.0 + i % 3})
              for i in range(10)]
    # Twice the bound faster: a gain one way, a regression the other.
    faster = [_record("cold-batch",
                      {"files_per_s": 100.0 * (1 + 2 * bound) + i % 3})
              for i in range(10)]
    noisy = [_record("cold-batch", {"files_per_s": 60.0 + 40.0 * (i % 2)})
             for i in range(10)]
    paths = {}
    for name, rows in (("parent", parent), ("faster", faster),
                       ("noisy", noisy)):
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text("".join(json.dumps(r) + "\n" for r in rows))

    def verdict(a, b):
        rows = compare(str(paths[a]), str(paths[b]))
        return {r["metric"]: r["verdict"] for r in rows}["files_per_s"]

    assert verdict("parent", "faster") == "gain"
    assert verdict("faster", "parent") == "regression"
    assert verdict("parent", "parent") == "no regression"
    assert verdict("noisy", "parent") == "unresolved"
