"""What each store family is written and read for, scenario by scenario.

Four synth files (seed 11) run in-process at ``jobs=1`` on a fresh
store; the memory caches are emptied before each scenario, as a new
process would find them.  Writes are counted per family by a spy on
``ArtifactStore.store``, reads by the ``disk_hits`` of each family's
cache.  The oracle's probe runs stay in memory, because a later run
reads the pair's ``validate`` verdict; the ``execute`` family holds only
Table III's before/after runs, and a second pass replays every one.
"""

from collections import Counter

from repro.cfront.cache import _REGISTRY, clear_all_caches
from repro.core import validate
from repro.core.batch import SourceProgram, apply_batch
from repro.core.session import reset_session
from repro.core.store import ArtifactStore
from repro.corpus import build_synth
from repro.eval.samate_runner import run_samate_program, \
    stratified_sample
from repro.samate import generate_suite

BACKENDS = ("slr", "str", "s3lib")

#: scenario -> (writes per family, reads per family), in run order.
TRAFFIC = {
    "batch --validate": (
        {"preprocess": 4, "verify": 4, "slr": 4, "str": 4,
         "validate": 4},
        {}),
    "batch --validate again": (
        {},
        {"preprocess": 4, "verify": 4, "slr": 4, "str": 4,
         "validate": 4}),
    "batch --backends": (
        {"backend": 12},
        {"preprocess": 4, "verify": 4, "validate": 4}),
    "batch --backends again": (
        {},
        {"preprocess": 4, "verify": 4, "validate": 4, "backend": 12}),
    "table3": (
        {"preprocess": 2, "slr": 2, "str": 2, "execute": 4},
        {}),
    "table3 again": (
        {},
        {"preprocess": 2, "slr": 2, "str": 2, "execute": 4}),
}


def _disk_hits() -> Counter:
    hits = Counter()
    for cache in _REGISTRY.values():
        if cache.family is not None:
            hits[cache.family] += cache.stats.disk_hits
    return hits


def test_store_traffic_per_scenario(fresh_store, monkeypatch):
    writes = Counter()
    real_store = ArtifactStore.store

    def store_spy(self, family, key, value):
        writes[family] += 1
        return real_store(self, family, key, value)

    runs = []
    real_run = validate.run_source

    def run_spy(text, **kwargs):
        runs.append(text)
        return real_run(text, **kwargs)

    monkeypatch.setattr(ArtifactStore, "store", store_spy)
    monkeypatch.setattr(validate, "run_source", run_spy)
    files = build_synth(4, 11).files
    samate = stratified_sample(
        [p for programs in generate_suite(0.01).values()
         for p in programs], 2)

    def batch(backends=None):
        return apply_batch(SourceProgram("traffic", dict(files)), jobs=1,
                           validate=True, backends=backends)

    def table3():
        return [run_samate_program(program) for program in samate]

    table = {}
    runs_per_scenario = {}
    for name, scenario in [
            ("batch --validate", batch), ("batch --validate again", batch),
            ("batch --backends", lambda: batch(BACKENDS)),
            ("batch --backends again", lambda: batch(BACKENDS)),
            ("table3", table3), ("table3 again", table3)]:
        clear_all_caches()
        reset_session()
        writes.clear()
        runs.clear()
        hits = _disk_hits()
        scenario()
        table[name] = (dict(writes), dict(_disk_hits() - hits))
        runs_per_scenario[name] = len(runs)

    assert table == TRAFFIC
    # The oracle's probe runs never reach the disk ...
    assert "execute" not in table["batch --validate"][0]
    assert "execute" not in table["batch --backends"][0]
    # ... no rerun writes anything ...
    assert all(not writes for name, (writes, _) in table.items()
               if name.endswith("again"))
    # ... and the second Table III pass loads both runs of each program
    # and runs none.
    assert table["table3 again"][1]["execute"] == 2 * len(samate)
    assert runs_per_scenario["table3"] == 2 * len(samate)
    assert runs_per_scenario["table3 again"] == 0
