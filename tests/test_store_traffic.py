"""What each store family is written and read for, scenario by scenario.

Four synth files (seed 11) run in-process at ``jobs=1`` on a fresh
store; the memory caches are emptied before each scenario, as a new
process would find them.  Writes are counted per family by a spy on
``ArtifactStore.store``, reads by one on ``ArtifactStore.load`` (hits
only).  The oracle's probe runs stay in memory, because a later run
reads the pair's ``validate`` verdict; the ``execute`` family holds only
Table III's before/after runs, and a second pass replays every one.
A batch rerun over unchanged files reads each file's ``report`` and
nothing else; a rerun under a new oracle seed misses the report, and
the per-stage families serve it.
"""

from collections import Counter

from repro.cfront.cache import clear_all_caches
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
#: The ``backend`` family holds every SLR, STR and S3Library result, so
#: the arbitration scenario reads the 8 SLR/STR candidates the validated
#: chain stored for the same texts (SLR changes none of these four
#: files, so STR's input is the original text too) and computes only
#: the 4 S3Library ones.
TRAFFIC = {
    "batch --validate": (
        {"preprocess": 4, "verify": 4, "backend": 8, "validate": 4,
         "report": 4},
        {}),
    "batch --validate again": (
        {},
        {"report": 4}),
    "batch --validate, new seed": (
        {"validate": 4, "report": 4},
        {"preprocess": 4, "verify": 4, "backend": 8}),
    "batch --backends": (
        {"backend": 4, "report": 4},
        {"preprocess": 4, "verify": 4, "validate": 4, "backend": 8}),
    "batch --backends again": (
        {},
        {"report": 4}),
    "batch --backends, new seed": (
        {"report": 4},
        {"preprocess": 4, "verify": 4, "validate": 4, "backend": 12}),
    "table3": (
        {"preprocess": 2, "backend": 4, "execute": 4},
        {}),
    "table3 again": (
        {},
        {"preprocess": 2, "backend": 4, "execute": 4}),
}


def test_store_traffic_per_scenario(fresh_store, monkeypatch):
    writes = Counter()
    reads = Counter()
    real_store = ArtifactStore.store
    real_load = ArtifactStore.load

    def store_spy(self, family, key, value):
        writes[family] += 1
        return real_store(self, family, key, value)

    def load_spy(self, family, key):
        loaded = real_load(self, family, key)
        reads[family] += loaded[0]
        return loaded

    runs = []
    real_run = validate.run_source

    def run_spy(text, **kwargs):
        runs.append(text)
        return real_run(text, **kwargs)

    monkeypatch.setattr(ArtifactStore, "store", store_spy)
    monkeypatch.setattr(ArtifactStore, "load", load_spy)
    monkeypatch.setattr(validate, "run_source", run_spy)
    files = build_synth(4, 11).files
    samate = stratified_sample(
        [p for programs in generate_suite(0.01).values()
         for p in programs], 2)

    def batch(backends=None, fuzz_seed=None):
        return apply_batch(SourceProgram("traffic", dict(files)), jobs=1,
                           validate=True, backends=backends,
                           fuzz_seed=fuzz_seed)

    def table3():
        return [run_samate_program(program) for program in samate]

    table = {}
    runs_per_scenario = {}
    for name, scenario in [
            ("batch --validate", batch), ("batch --validate again", batch),
            ("batch --validate, new seed", lambda: batch(fuzz_seed=5)),
            ("batch --backends", lambda: batch(BACKENDS)),
            ("batch --backends again", lambda: batch(BACKENDS)),
            ("batch --backends, new seed",
             lambda: batch(BACKENDS, fuzz_seed=5)),
            ("table3", table3), ("table3 again", table3)]:
        clear_all_caches()
        reset_session()
        writes.clear()
        reads.clear()
        runs.clear()
        scenario()
        table[name] = (dict(writes), dict(+reads))
        runs_per_scenario[name] = len(runs)

    assert table == TRAFFIC
    # The oracle's probe runs never reach the disk ...
    assert "execute" not in table["batch --validate"][0]
    assert "execute" not in table["batch --backends"][0]
    # ... no rerun writes anything, and a batch rerun runs nothing ...
    assert all(not writes for name, (writes, _) in table.items()
               if name.endswith("again"))
    assert runs_per_scenario["batch --validate again"] == 0
    # ... and the second Table III pass loads both runs of each program
    # and runs none.
    assert table["table3 again"][1]["execute"] == 2 * len(samate)
    assert runs_per_scenario["table3"] == 2 * len(samate)
    assert runs_per_scenario["table3 again"] == 0
