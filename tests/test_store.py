"""Tests for the persistent artifact store and its cache layering."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from repro.cfront.cache import ContentCache, _REGISTRY, \
    clear_all_caches, content_key
from repro.core.store import ArtifactStore, SCHEMA_VERSION, \
    disk_enabled, get_store, reset_store

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


@pytest.fixture
def scratch_cache():
    """A uniquely named disk-backed ContentCache, deregistered after."""
    caches = []

    def make(name, family="backend", maxsize=None):
        cache = ContentCache(name, maxsize, family=family)
        caches.append(cache)
        return cache

    yield make
    for cache in caches:
        _REGISTRY.pop(cache.name, None)


class TestArtifactStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(str(tmp_path), fingerprint="t1")
        nbytes = store.store("backend", "abcd", {"x": [1, 2, 3]})
        assert nbytes > 0
        hit, value, read = store.load("backend", "abcd")
        assert hit and value == {"x": [1, 2, 3]} and read == nbytes

    def test_missing_entry_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path), fingerprint="t1")
        hit, value, read = store.load("verify", "feed")
        assert (hit, value, read) == (False, None, 0)

    def test_corrupt_entry_is_miss_and_unlinked(self, tmp_path):
        store = ArtifactStore(str(tmp_path), fingerprint="t1")
        store.store("backend", "abcd", "good")
        path = store._entry_path("backend", "abcd")
        with open(path, "wb") as fh:
            fh.write(b"\x80\x05 definitely not a pickle")
        hit, value, _ = store.load("backend", "abcd")
        assert not hit and value is None
        assert not os.path.exists(path)

    def test_half_written_tmp_is_invisible(self, tmp_path):
        store = ArtifactStore(str(tmp_path), fingerprint="t1")
        store.store("backend", "abcd", "value")
        entry_dir = os.path.dirname(store._entry_path("backend", "abcd"))
        tmp = os.path.join(entry_dir, ".abcd.9999.deadbeef.tmp")
        with open(tmp, "wb") as fh:
            fh.write(pickle.dumps("partial")[:5])
        # The published entry still loads; the torn write is ignored.
        hit, value, _ = store.load("backend", "abcd")
        assert hit and value == "value"
        # gc reclaims abandoned temp files but keeps live entries.
        result = store.gc(tmp_max_age_s=0.0)
        assert result["removed_files"] == 1
        assert not os.path.exists(tmp)
        assert store.load("backend", "abcd")[0]

    def test_gc_drops_stale_versions(self, tmp_path):
        old = ArtifactStore(str(tmp_path), fingerprint="aaaa")
        old.store("backend", "abcd", "old-entry")
        new = ArtifactStore(str(tmp_path), fingerprint="bbbb")
        assert new.stale_versions() == [old.version_dir]
        result = new.gc()
        assert result["removed_versions"] == 1
        assert result["removed_files"] == 1
        assert not os.path.exists(old.version_dir)

    def test_gc_max_age_removes_old_entries(self, tmp_path):
        store = ArtifactStore(str(tmp_path), fingerprint="t1")
        store.store("backend", "abcd", "value")
        assert store.gc(max_age_s=3600.0)["removed_files"] == 0
        assert store.gc(max_age_s=0.0)["removed_files"] == 1
        assert not store.load("backend", "abcd")[0]

    def test_clear_reports_files_and_bytes(self, tmp_path):
        store = ArtifactStore(str(tmp_path), fingerprint="t1")
        written = store.store("backend", "abcd", "v1") \
            + store.store("verify", "efgh", True)
        files, nbytes = store.clear()
        assert files == 2 and nbytes == written
        assert store.usage() == {}

    def test_usage_per_family(self, tmp_path):
        store = ArtifactStore(str(tmp_path), fingerprint="t1")
        store.store("backend", "aa11", "x")
        store.store("backend", "bb22", "y")
        store.store("execute", "cc33", "z")
        usage = store.usage()
        assert usage["backend"]["entries"] == 2
        assert usage["execute"]["entries"] == 1
        assert "verify" not in usage

    def test_version_dir_tracks_schema_and_fingerprint(self, tmp_path):
        store = ArtifactStore(str(tmp_path), fingerprint="cafe")
        assert os.path.basename(store.version_dir) \
            == f"v{SCHEMA_VERSION}-cafe"

    def test_no_ast_family(self):
        from repro.core.store import FAMILIES
        assert "parse" not in FAMILIES
        # SLR and STR results live in the one ``backend`` family.
        assert not {"slr", "str"} & set(FAMILIES)
        assert len(FAMILIES) == 8


class TestConcurrentWriters:
    WRITER = (
        "import pickle, sys\n"
        "sys.path.insert(0, {src!r})\n"
        "from repro.core.store import ArtifactStore\n"
        "store = ArtifactStore({root!r}, fingerprint='race')\n"
        "for i in range(40):\n"
        "    key = 'k%03d' % i\n"
        "    store.store('backend', key, ('value', i, {tag!r}))\n")

    def test_two_processes_racing_same_keys(self, tmp_path):
        """Both writers publish every key; readers only ever observe
        complete entries and no temp files survive."""
        procs = [
            subprocess.Popen(
                [sys.executable, "-c",
                 self.WRITER.format(src=REPO_SRC, root=str(tmp_path),
                                    tag=tag)])
            for tag in ("one", "two")]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        store = ArtifactStore(str(tmp_path), fingerprint="race")
        for i in range(40):
            hit, value, _ = store.load("backend", "k%03d" % i)
            assert hit, i
            assert value[:2] == ("value", i)
            assert value[2] in ("one", "two")
        leftovers = [name for _, _, names in os.walk(str(tmp_path))
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []


class TestShardedLayout:
    """Key-prefix sharding and gc directory pruning."""

    def test_entries_land_in_shard_directories(self, tmp_path):
        store = ArtifactStore(str(tmp_path), fingerprint="t1")
        for i in range(200):
            store.store("backend", f"key{i:03d}x", i)
        family_dir = os.path.join(store.version_dir, "backend")
        subdirs = sorted(os.listdir(family_dir))
        assert subdirs == [f"s{n:03d}" for n in range(16)]

    def test_shard_label_is_stable_and_prefix_driven(self, tmp_path):
        a = ArtifactStore(str(tmp_path), fingerprint="t1")
        b = ArtifactStore(str(tmp_path), fingerprint="t1")
        key = "abcdef0123456789"
        assert a.shard_label(key) == b.shard_label(key)
        # Only the first 8 chars matter: same prefix, same shard.
        assert a.shard_label("abcdef01" + "zz" * 8) == a.shard_label(key)

    def test_gc_prunes_empty_directories(self, tmp_path):
        store = ArtifactStore(str(tmp_path), fingerprint="t1")
        store.store("backend", "abcd", "value")
        entry_dir = os.path.dirname(store._entry_path("backend", "abcd"))
        result = store.gc(max_age_s=0.0)
        assert result["removed_files"] == 1
        assert result["removed_dirs"] >= 2     # shard dir + family dir
        assert not os.path.exists(entry_dir)
        assert not os.path.exists(os.path.join(store.version_dir, "backend"))
        # The store still works after pruning.
        assert store.store("backend", "abcd", "again") > 0
        assert store.load("backend", "abcd")[0]

    def test_gc_race_tolerates_missing_entries(self, tmp_path,
                                               monkeypatch):
        """A second gc racing the first sees entries vanish between the
        walk and the unlink; both finish cleanly."""
        store = ArtifactStore(str(tmp_path), fingerprint="t1")
        store.store("backend", "abcd", "value")
        real_unlink = os.unlink

        def racing_unlink(path, *args, **kwargs):
            # Simulate the race: the other gc removed it first.
            real_unlink(path)
            real_unlink(path)

        monkeypatch.setattr("repro.core.store.os.unlink", racing_unlink)
        result = store.gc(max_age_s=0.0)
        assert result["removed_files"] == 0    # lost every race
        monkeypatch.undo()
        assert not os.path.exists(store._entry_path("backend", "abcd"))

    def test_two_process_race_on_sharded_layout(self, tmp_path):
        """Two writers race the same keys across many shards; every key
        is readable, lands in its shard, and no temp files survive."""
        writer = (
            "import sys\n"
            "sys.path.insert(0, {src!r})\n"
            "from repro.core.store import ArtifactStore\n"
            "store = ArtifactStore({root!r}, fingerprint='shard-race')\n"
            "for i in range(40):\n"
            "    key = 'k%03d' % i\n"
            "    store.store('backend', key, ('value', i, {tag!r}))\n")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c",
                 writer.format(src=REPO_SRC, root=str(tmp_path),
                               tag=tag)])
            for tag in ("one", "two")]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        store = ArtifactStore(str(tmp_path), fingerprint="shard-race")
        for i in range(40):
            key = "k%03d" % i
            hit, value, _ = store.load("backend", key)
            assert hit, i
            assert value[:2] == ("value", i)
            assert os.path.exists(store._entry_path("backend", key))
        leftovers = [name for _, _, names in os.walk(str(tmp_path))
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []


class TestCacheLayering:
    def test_memory_then_disk_then_compute(self, fresh_store,
                                           scratch_cache):
        cache = scratch_cache("layering-test")
        builds = []

        def build():
            builds.append(1)
            return "computed"

        key = content_key("layering-test", "input-a")
        assert cache.get_or_build(key, build) == "computed"
        assert builds == [1]
        assert cache.stats.disk_misses == 1
        assert cache.stats.bytes_written > 0
        # Memory hit: disk untouched.
        assert cache.get_or_build(key, build) == "computed"
        assert builds == [1]
        assert cache.stats.hits == 1
        # Evict memory: the disk layer answers, nothing is recomputed.
        cache.clear()
        assert cache.get_or_build(key, build) == "computed"
        assert builds == [1]
        assert cache.stats.disk_hits == 1
        assert cache.stats.bytes_read > 0
        # Every memory miss consulted the disk layer exactly once.
        assert cache.stats.misses \
            == cache.stats.disk_hits + cache.stats.disk_misses

    def test_repro_cache_0_bypasses_disk_entirely(self, fresh_store,
                                                  scratch_cache,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not disk_enabled()
        cache = scratch_cache("alloff-test")
        builds = []
        key = content_key("alloff-test", "input-b")
        for _ in range(2):
            cache.get_or_build(key, lambda: builds.append(1) or "v")
        assert len(builds) == 2                  # nothing cached
        assert fresh_store.usage() == {}         # nothing on disk
        assert cache.stats.disk_misses == 0      # disk never consulted

    def test_repro_disk_cache_0_disables_disk_only(self, fresh_store,
                                                   scratch_cache,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert not disk_enabled()
        cache = scratch_cache("diskoff-test")
        builds = []
        key = content_key("diskoff-test", "input-c")
        for _ in range(2):
            cache.get_or_build(key, lambda: builds.append(1) or "v")
        assert len(builds) == 1                  # memory LRU still on
        assert fresh_store.usage() == {}


BROKEN_TMPL = """\
#include <stdio.h>
#include <string.h>
int main(void) {{
    char buf[8];
    char line[64];
    if (fgets(line, 64, stdin)) {{
        strcpy(buf, line);
        printf("{tag}:%s", buf);
    }}
    return 0;
}}
"""


def counter_deltas(caches, run):
    """``run()``'s result and what it added to each cache's counters."""
    before = [copy.copy(cache.stats) for cache in caches]
    result = run()
    return result, [cache.stats.delta(earlier)
                    for cache, earlier in zip(caches, before)]


class TestBatchIntegration:
    def test_duplicate_content_deduplicated(self, fresh_store):
        """Identical-content files share one transform: each file is
        computed under its own name, and the content-keyed caches serve
        the duplicate's text."""
        from repro.core.backends import _BACKEND_CACHE
        from repro.core.batch import SourceProgram, apply_batch
        src = BROKEN_TMPL.format(tag="dedup-test")
        other = BROKEN_TMPL.format(tag="dedup-test-other")
        program = SourceProgram(
            "dup", {"a.c": src, "b.c": src, "c.c": other})
        result, (backend,) = counter_deltas(
            (_BACKEND_CACHE,),
            lambda: apply_batch(program, jobs=1, validate=False))
        # Two unique texts -> two SLR and two STR builds, no duplicate
        # disk misses.
        assert backend.misses == 4
        assert backend.hits == 2
        assert backend.disk_misses == 4
        by_name = {r.filename: r for r in result.reports}
        assert sorted(by_name) == ["a.c", "b.c", "c.c"]
        assert by_name["a.c"].final_text == by_name["b.c"].final_text
        assert by_name["a.c"].slr.transformed_count == 1

    def test_parent_prewarms_store_for_workers(self, fresh_store):
        """Preprocess runs (and persists) in the parent before any task
        is mapped, so a worker-side lookup can only hit."""
        from repro.core.batch import SourceProgram, apply_batch
        src = BROKEN_TMPL.format(tag="prewarm-test")
        program = SourceProgram("warm", {"a.c": src})
        apply_batch(program, jobs=1, validate=False)
        assert fresh_store.usage()["preprocess"]["entries"] >= 1

    def test_warm_cross_process_replays_from_disk(self, fresh_store):
        """Simulate a new process (empty memory caches, same store):
        the rerun replays the file's stored report, and a rerun whose
        work key misses that report (a new oracle seed) is served by
        per-stage disk hits; both are byte-identical to the cold run."""
        from repro.cfront.cache import _PP_CACHE
        from repro.core.backends import _BACKEND_CACHE
        from repro.core.batch import SourceProgram, apply_batch
        from repro.core.session import reset_session
        from repro.core.validate import _VALIDATE_CACHE
        src = BROKEN_TMPL.format(tag="crossproc-test")
        program = SourceProgram("xp", {"a.c": src})
        cold = apply_batch(program, jobs=1, validate=True)

        clear_all_caches()
        reset_session()
        warm, deltas = counter_deltas(
            (_PP_CACHE, _BACKEND_CACHE, _VALIDATE_CACHE),
            lambda: apply_batch(SourceProgram("xp", {"a.c": src}),
                                jobs=1, validate=True))
        assert warm.info.from_store == 1
        # Keyed on the source: the replay preprocesses nothing.
        assert [delta.lookups for delta in deltas] == [0, 0, 0]
        assert warm.reports[0].final_text == cold.reports[0].final_text
        assert warm.reports[0].validation.counts() \
            == cold.reports[0].validation.counts()

        clear_all_caches()
        reset_session()
        reseeded, deltas = counter_deltas(
            (_PP_CACHE, _BACKEND_CACHE, _VALIDATE_CACHE),
            lambda: apply_batch(SourceProgram("xp", {"a.c": src}),
                                jobs=1, validate=True, fuzz_seed=5))
        assert reseeded.info.from_store == 0
        assert sum(delta.disk_hits for delta in deltas) > 0
        assert deltas[1].disk_hits == 2             # SLR and STR
        assert reseeded.reports[0].final_text \
            == cold.reports[0].final_text

    @pytest.mark.parametrize("backends", [None, ("slr", "str", "s3lib")],
                             ids=["slr-str", "arbitration"])
    def test_warm_rerun_parses_nothing(self, fresh_store, backends):
        """A new process over a warm store builds no AST and loads none:
        a rerun of the same batch replays each file's report, and a
        rerun without ``--validate``, whose work keys miss those
        reports, learns every verify verdict (and, under arbitration,
        every judge's verdict) from the store.  Both match the cold
        run."""
        from repro.core.batch import SourceProgram, apply_batch
        from repro.core.session import reset_session
        files = {f"{name}.c": BROKEN_TMPL.format(tag=f"no-ast-{name}")
                 for name in ("a", "b")}

        def run(validate=True):
            result = apply_batch(SourceProgram("no-ast", dict(files)),
                                 jobs=1, validate=validate,
                                 backends=backends)
            return result.info.from_store, [
                (r.filename, r.final_text, r.parses, r.status,
                 [d.as_dict() for d in r.diagnostics],
                 r.validation.as_dict() if r.validation else None,
                 r.arbitration.as_dict() if r.arbitration else None)
                for r in result.reports]

        _, cold = run()
        stored = fresh_store.usage()
        assert stored["verify"]["entries"] >= 1
        assert "parse" not in stored
        clear_all_caches()
        session = reset_session()
        assert run() == (2, cold)
        assert session.parse_stats.misses == 0
        assert fresh_store.usage() == stored        # nothing new written

        clear_all_caches()
        session = reset_session()
        from_store, unvalidated = run(validate=False)
        assert from_store == 0
        assert session.parse_stats.misses == 0
        usage = fresh_store.usage()
        assert usage.pop("report")["entries"] == 4  # the new keys' reports
        stored.pop("report")
        assert usage == stored
        assert not os.path.exists(
            os.path.join(fresh_store.version_dir, "parse"))
        # Under arbitration the judge runs either way; the legacy chain
        # without --validate judges nothing.
        expected = cold if backends else \
            [row[:5] + (None,) + row[6:] for row in cold]
        assert unvalidated == expected

    def test_validate_seed_changes_miss_cache(self, fresh_store,
                                              monkeypatch):
        """A changed REPRO_VALIDATE_SEED draws different fuzz bytes, so
        a cached verdict must never be replayed for it."""
        from repro.core.session import get_session
        from repro.core.validate import _VALIDATE_CACHE, default_inputs, \
            validate_pair
        src = BROKEN_TMPL.format(tag="seed-test")
        session = get_session()
        original = session.preprocess(src, "seed_test.c").text
        from repro.core.backends import SLRBackend, cached_backend_run
        transformed = cached_backend_run(
            SLRBackend(), original, "seed_test.c").new_text
        assert transformed != original

        def run():
            return validate_pair(
                original, transformed, filename="seed_test.c",
                inputs=default_inputs("seed_test.c"))

        monkeypatch.setenv("REPRO_VALIDATE_SEED", "1")
        base = _VALIDATE_CACHE.stats
        run()
        misses_after_first = base.misses
        run()                                     # same seed: a hit
        assert base.misses == misses_after_first
        monkeypatch.setenv("REPRO_VALIDATE_SEED", "2")
        run()                                     # new seed: a miss
        assert base.misses == misses_after_first + 1

    def test_validate_seed_changes_probe_bytes(self, monkeypatch):
        from repro.core.validate import _inputs_key_parts, default_inputs
        monkeypatch.setenv("REPRO_VALIDATE_SEED", "1")
        parts_1 = _inputs_key_parts(default_inputs("f.c"))
        monkeypatch.setenv("REPRO_VALIDATE_SEED", "2")
        parts_2 = _inputs_key_parts(default_inputs("f.c"))
        assert parts_1 != parts_2


class TestFingerprintSalt:
    """An older checkout is simulated by patching the computed tool
    fingerprint (and the content-key salt derived from it)."""

    @staticmethod
    def _checkout(monkeypatch, fingerprint: str) -> None:
        import repro.cfront.cache
        import repro.fingerprint
        monkeypatch.setattr(repro.fingerprint, "_COMPUTED", fingerprint)
        monkeypatch.setattr(repro.cfront.cache, "_SALT",
                            fingerprint.encode("utf-8"))

    def test_fingerprint_salts_content_key(self, monkeypatch):
        self._checkout(monkeypatch, "aaaa")
        key_a = content_key("backend", "same text")
        self._checkout(monkeypatch, "bbbb")
        key_b = content_key("backend", "same text")
        assert key_a != key_b

    def test_fingerprint_selects_version_dir(self, tmp_path,
                                             monkeypatch):
        self._checkout(monkeypatch, "aaaa")
        dir_a = ArtifactStore(str(tmp_path)).version_dir
        self._checkout(monkeypatch, "bbbb")
        dir_b = ArtifactStore(str(tmp_path)).version_dir
        assert dir_a != dir_b
        assert dir_b.endswith("-bbbb")

    def test_reset_store_rereads_environment(self, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "here"))
        store = reset_store()
        assert store is get_store()
        assert store.root == str(tmp_path / "here")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "there"))
        assert reset_store().root == str(tmp_path / "there")


class TestBackendKeySalt:
    """Backend candidate artifacts can never collide across backends,
    configs, or arbitration-contract versions (PR 6 satellite)."""

    TEXT = "int main(void) { return 0; }\n"

    def test_backend_id_salts_key(self):
        from repro.core.backends import backend_cache_key, get_backend
        keys = {backend_cache_key(get_backend(b), self.TEXT)
                for b in ("slr", "str", "s3lib")}
        assert len(keys) == 3

    def test_config_key_salts_key(self):
        from repro.core.backends import SLRBackend, backend_cache_key

        class Tuned(SLRBackend):
            def config_key(self):
                return "profile=glib;tuned=1"

        assert backend_cache_key(SLRBackend(), self.TEXT) \
            != backend_cache_key(Tuned(), self.TEXT)

    def test_arbitration_version_salts_key(self, monkeypatch):
        """The arbitration contract version salts an arbitrated report's
        work key; no transform depends on it, so it salts no cache
        key."""
        from repro.core import backends, batch
        task = batch.FileTask("f.c", self.TEXT, backends=("slr", "str"))
        work_key = batch._task_work_key(task)
        transform_key = backends.backend_cache_key(
            backends.get_backend("slr"), self.TEXT)
        monkeypatch.setattr(batch, "ARBITRATION_VERSION", "arb-test")
        monkeypatch.setattr(backends, "ARBITRATION_VERSION", "arb-test")
        assert batch._task_work_key(task) != work_key
        assert backends.backend_cache_key(
            backends.get_backend("slr"), self.TEXT) == transform_key

    def test_slr_profile_salts_key(self):
        from repro.core.backends import SLRBackend, backend_cache_key, \
            get_backend
        assert backend_cache_key(SLRBackend(), self.TEXT) \
            == backend_cache_key(get_backend("slr"), self.TEXT)
        assert backend_cache_key(SLRBackend("c11"), self.TEXT) \
            != backend_cache_key(SLRBackend(), self.TEXT)

    def test_c11_chain_never_replays_a_glib_entry(self, fresh_store):
        """A ``--slr-profile c11`` batch after a glib batch over the same
        text builds its own SLR and STR results: the glib entries in the
        memory LRU and on disk both miss."""
        from repro.core.backends import _BACKEND_CACHE
        from repro.core.batch import SourceProgram, apply_batch
        src = BROKEN_TMPL.format(tag="profile-test")

        def batch(profile):
            return apply_batch(SourceProgram("p", {"a.c": src}), jobs=1,
                               profile=profile).reports[0]

        glib = batch("glib")
        c11, (delta,) = counter_deltas((_BACKEND_CACHE,),
                                       lambda: batch("c11"))
        assert (delta.misses, delta.hits) == (2, 0)     # SLR and STR
        assert (delta.disk_misses, delta.disk_hits) == (2, 0)
        assert "g_strlcpy" in glib.final_text
        assert "g_strlcpy" not in c11.final_text
        assert c11.slr.transformed_count == 1

    def test_backend_family_registered_in_store(self):
        from repro.core.store import FAMILIES
        assert "backend" in FAMILIES

    def test_fingerprint_walk_covers_backend_modules(self):
        """The tool fingerprint digests every .py under the package
        root, so a backend change must invalidate backend artifacts —
        the new modules have to live inside that walked tree."""
        import repro
        import repro.core.backends
        import repro.core.s3lib
        root = os.path.dirname(os.path.abspath(repro.__file__))
        for module in (repro.core.backends, repro.core.s3lib):
            path = os.path.abspath(module.__file__)
            assert path.startswith(root + os.sep), path
            assert path.endswith(".py"), path


class TestDegradedStore:
    """OSError on any store path degrades to a miss/no-op with exactly
    one warning per operation per process — never an exception."""

    KEY = "ab" * 32

    def _denying(self, monkeypatch, operation):
        """Make the named I/O primitive raise PermissionError."""
        def deny(*_args, **_kwargs):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr(f"repro.core.store.os.{operation}", deny)

    def test_unreadable_entry_is_miss_with_one_warning(
            self, tmp_path, monkeypatch):
        store = ArtifactStore(str(tmp_path), fingerprint="t-deg")
        assert store.store("slr", self.KEY, {"v": 1}) > 0

        real_open = open

        def denying_open(path, mode="r", *args, **kwargs):
            if "b" in mode and "r" in mode and str(path).endswith(".pkl"):
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", denying_open)
        with pytest.warns(RuntimeWarning, match="store read failed"):
            hit, value, _ = store.load("slr", self.KEY)
        assert not hit and value is None
        # Second failure: silent (the warning fired already).
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            hit, _, _ = store.load("slr", self.KEY)
        assert not hit

    def test_missing_entry_never_warns(self, tmp_path):
        import warnings as _warnings
        store = ArtifactStore(str(tmp_path), fingerprint="t-deg2")
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            hit, _, _ = store.load("slr", "cd" * 32)
        assert not hit

    def test_unwritable_dir_is_noop_with_one_warning(
            self, tmp_path, monkeypatch):
        store = ArtifactStore(str(tmp_path), fingerprint="t-deg3")
        self._denying(monkeypatch, "replace")
        with pytest.warns(RuntimeWarning, match="store write failed"):
            assert store.store("slr", self.KEY, {"v": 1}) == 0
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert store.store("slr", "ef" * 32, {"v": 2}) == 0

    def test_read_only_dir_end_to_end(self, tmp_path, monkeypatch):
        # A worst-case cache directory (every write denied, every read
        # denied) must leave the pipeline fully functional.
        from repro.core.batch import SourceProgram, apply_batch
        store = ArtifactStore(str(tmp_path), fingerprint="t-deg4")
        monkeypatch.setattr("repro.core.store.get_store", lambda: store)
        self._denying(monkeypatch, "replace")
        program = SourceProgram("p", {
            "a.c": "#include <string.h>\n"
                   "void f(void) { char b[8]; strcpy(b, \"x\"); }\n"})
        with pytest.warns(RuntimeWarning, match="store write failed"):
            batch = apply_batch(program, jobs=1)
        assert batch.reports[0].status == "ok"
        assert batch.reports[0].slr.transformed_count == 1
