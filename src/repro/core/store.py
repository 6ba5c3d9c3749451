"""Persistent, content-addressed artifact store for the pipeline.

The in-memory LRUs in :mod:`repro.cfront.cache` die with the process and
are never shared between fork-pool workers or successive CLI runs, yet
everything the pipeline computes — preprocess outputs, annotated parse
results, SLR/STR transform outputs, differential-oracle verdicts and VM
execution results — is a pure function of (input content, tool version).
This module persists those artifacts on disk so that every process that
ever sees the same content gets them for one ``open`` + ``unpickle``:

* **layout** — ``REPRO_CACHE_DIR`` (default ``~/.cache/repro``) holds one
  version directory per (schema, tool fingerprint); inside it, one
  subdirectory per artifact family (``preprocess``, ``parse``, ``slr``,
  ``str``, ``validate``, ``execute``), *sharded* by key prefix into
  :data:`SHARDS` subdirectories (``s000`` … ``s015``) so parallel
  workers spread their renames and directory scans over 16 directories
  per family instead of contending on one.  A code change anywhere in
  the package changes the fingerprint
  (:func:`repro.fingerprint.tool_fingerprint`), so entries computed by
  an older checkout are never consulted; ``repro cache gc`` reclaims
  them.
* **crash-safe concurrent access** — writers pickle to a uniquely named
  temp file in the same directory and publish with :func:`os.replace`
  (atomic rename).  Racing writers both publish complete entries (last
  wins, values are equal by construction); readers can never observe a
  half-written entry.  A corrupt or unreadable entry is treated as a
  miss and dropped, never an error.
* **layering** — :class:`~repro.cfront.cache.ContentCache` consults this
  store between its memory LRU and the compute function (memory → disk →
  compute), so the hot path is unchanged and the disk layer is invisible
  to callers.

Environment knobs:

* ``REPRO_CACHE_DIR``     — store location (default ``~/.cache/repro``);
* ``REPRO_DISK_CACHE=0``  — disable the disk layer only (memory LRUs
  stay on); the CLI's ``--no-disk-cache`` sets this;
* ``REPRO_CACHE=0``       — disable *all* caching, disk included.
"""

from __future__ import annotations

import atexit
import errno
import io
import json
import os
import pickle
import shutil
import time
import uuid
import warnings
import zlib

from ..cfront.cache import caches_enabled
from ..fingerprint import tool_fingerprint
from . import faults

#: Bumped when the pickled artifact schema changes incompatibly in a way
#: the source fingerprint would not capture (e.g. a pickling protocol
#: policy change).
SCHEMA_VERSION = 1

#: Artifact families the pipeline persists.  ``site`` holds the
#: single-site candidate texts site-mode arbitration composes from,
#: keyed per (backend, site identity, input text).  ``func`` holds
#: function-granular incremental artifacts — per-component preprocessed
#: renders and transform outcomes keyed on (stage, function token hash,
#: headers/preamble fingerprint) — so an unchanged function hits disk
#: across edits even though the whole-file keys all miss.
#: ``quarantine`` holds poison-file records (content hash → diagnostic)
#: written by journaled batch runs — the fingerprint-salted version dir
#: means a tool change releases every quarantined file automatically.
FAMILIES = ("preprocess", "parse", "slr", "str", "backend", "site",
            "validate", "execute", "func", "quarantine")

#: Abandoned temp files older than this are garbage (a crashed writer);
#: live writers hold a temp file for milliseconds.
TMP_MAX_AGE_S = 300.0

#: Shard directories per family.  16 keeps directory entry counts (and
#: rename contention domains) 16x smaller than one flat fan-in while
#: staying negligible as directory overhead.
SHARDS = 16

#: The counter fields every per-family tally carries.
COUNTER_FIELDS = ("hits", "misses", "bytes_read", "bytes_written")


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") \
        or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def disk_enabled() -> bool:
    """Is the disk layer active?  ``REPRO_CACHE=0`` (all caching off)
    and ``REPRO_DISK_CACHE=0`` (disk layer only) both disable it."""
    return caches_enabled() \
        and os.environ.get("REPRO_DISK_CACHE", "1") != "0"


def _empty_counter() -> dict[str, int]:
    return {field: 0 for field in COUNTER_FIELDS}


class ArtifactStore:
    """One on-disk artifact store rooted at a cache directory.

    All methods are best-effort and exception-free: any I/O or pickle
    failure degrades to a cache miss (load) or a no-op (store) — the
    pipeline must never fail because a cache directory is unwritable,
    full, or holds garbage.
    """

    def __init__(self, root: str | None = None, *,
                 fingerprint: str | None = None):
        self.root = os.path.abspath(root if root is not None
                                    else default_cache_dir())
        self.fingerprint = fingerprint if fingerprint is not None \
            else tool_fingerprint()
        self.version_dir = os.path.join(
            self.root, f"v{SCHEMA_VERSION}-{self.fingerprint}")
        #: Live per-family counters for *this* process.
        self.counters: dict[str, dict[str, int]] = {}
        self._counter_token = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._flush_registered = False
        #: Operations that already warned (one warning per operation per
        #: process — a read-only or full cache dir degrades every call).
        self._warned: set[str] = set()

    def _warn_once(self, operation: str, exc: OSError) -> None:
        """Surface a degraded store once per operation per process.

        A missing entry is the normal miss path and never warns; a
        *permission* or *disk* error means every access will degrade, so
        the user should hear about it — exactly once, not per entry.
        """
        if operation in self._warned:
            return
        self._warned.add(operation)
        warnings.warn(
            f"artifact store {operation} failed under {self.root} "
            f"({type(exc).__name__}: {exc}); continuing without the "
            f"disk cache for affected entries", RuntimeWarning,
            stacklevel=3)

    # ------------------------------------------------------------- paths

    def shard_label(self, key: str) -> str:
        """The shard directory a key lives in, from its prefix.

        CRC over the first 8 characters keeps the mapping cheap, stable
        across processes and Python versions, and purely prefix-driven.
        """
        prefix = key[:8].encode("utf-8", errors="surrogateescape")
        return f"s{zlib.crc32(prefix) % SHARDS:03d}"

    def _entry_path(self, family: str, key: str) -> str:
        return os.path.join(self.version_dir, family,
                            self.shard_label(key), key + ".pkl")

    def _family_counter(self, family: str) -> dict[str, int]:
        counter = self.counters.get(family)
        if counter is None:
            counter = _empty_counter()
            self.counters[family] = counter
        return counter

    # ------------------------------------------------------------ access

    def load(self, family: str, key: str) -> tuple[bool, object, int]:
        """Fetch one artifact; returns ``(hit, value, bytes_read)``.

        Anything unreadable — missing entry, truncated pickle, an entry
        whose class layout changed under a stale fingerprint override —
        is a miss; corrupt files are unlinked so they are rebuilt once.
        """
        counter = self._family_counter(family)
        self._register_flush()
        path = self._entry_path(family, key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            counter["misses"] += 1
            return False, None, 0
        except OSError as exc:
            self._warn_once("read", exc)
            counter["misses"] += 1
            return False, None, 0
        if faults.faults_enabled():
            data = faults.corrupt_entry(key, data)
        try:
            value = pickle.loads(data)
        except Exception:
            counter["misses"] += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None, 0
        counter["hits"] += 1
        counter["bytes_read"] += len(data)
        return True, value, len(data)

    def _publish(self, path: str, data: bytes) -> bool:
        """Atomically write ``data`` at ``path`` (tmp + rename)."""
        directory = os.path.dirname(path)
        tmp = os.path.join(
            directory,
            f".{os.path.basename(path)[:-4]}."
            f"{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
        try:
            if faults.faults_enabled() and faults.should_fail_disk(
                    "store", os.path.basename(path)):
                raise OSError(errno.ENOSPC,
                              f"injected disk-full for {path}")
            os.makedirs(directory, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except OSError as exc:
            self._warn_once("write", exc)
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    def store(self, family: str, key: str, value: object) -> int:
        """Publish one artifact atomically; returns bytes written (0 if
        the value could not be pickled or the directory is unwritable).

        Write-to-temp + :func:`os.replace` keeps concurrent publishers
        safe: a reader sees either no entry or a complete one, never a
        partial write, whichever of two racing writers wins.
        """
        try:
            data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return 0
        if not self._publish(self._entry_path(family, key), data):
            return 0
        self._family_counter(family)["bytes_written"] += len(data)
        self._register_flush()
        return len(data)

    # ----------------------------------------------------------- summary

    def usage(self) -> dict[str, dict[str, int]]:
        """Per-family ``{entries, bytes}`` for the current version dir."""
        out: dict[str, dict[str, int]] = {}
        for family in FAMILIES:
            family_dir = os.path.join(self.version_dir, family)
            entries = 0
            nbytes = 0
            for dirpath, _dirnames, filenames in os.walk(family_dir):
                for filename in filenames:
                    if not filename.endswith(".pkl"):
                        continue
                    entries += 1
                    try:
                        nbytes += os.path.getsize(
                            os.path.join(dirpath, filename))
                    except OSError:
                        pass
            if entries:
                out[family] = {"entries": entries, "bytes": nbytes}
        return out

    def stale_versions(self) -> list[str]:
        """Version directories built by other fingerprints/schemas."""
        current = os.path.basename(self.version_dir)
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [os.path.join(self.root, name) for name in names
                if name.startswith("v") and name != current
                and os.path.isdir(os.path.join(self.root, name))]

    # -------------------------------------------------------- management

    def clear(self) -> tuple[int, int]:
        """Remove every entry (all versions); returns (files, bytes).

        Tolerates a concurrent clear/gc: entries that vanish between
        the walk and the removal are simply not double-counted.
        """
        files = 0
        nbytes = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0, 0
        for name in names:
            full = os.path.join(self.root, name)
            if not os.path.isdir(full):
                continue
            for dirpath, _dirnames, filenames in os.walk(full):
                for filename in filenames:
                    try:
                        nbytes += os.path.getsize(
                            os.path.join(dirpath, filename))
                    except OSError:
                        continue
                    files += 1
            shutil.rmtree(full, ignore_errors=True)
        return files, nbytes

    def gc(self, *, max_age_s: float | None = None,
           tmp_max_age_s: float = TMP_MAX_AGE_S) -> dict[str, int]:
        """Reclaim garbage; safe to run concurrently with live writers
        *and* with another gc (ENOENT on an already-removed entry or
        directory is tolerated everywhere).

        Removes: version directories for other tool fingerprints (their
        entries can never be consulted again), abandoned ``.tmp`` files
        older than ``tmp_max_age_s``, entries whose mtime is older than
        ``max_age_s`` (when given), and any family/shard directories
        left empty afterwards.
        """
        removed_files = 0
        freed_bytes = 0
        stale = self.stale_versions()
        removed_versions = 0
        for version_dir in stale:
            for dirpath, _dirnames, filenames in os.walk(version_dir):
                for filename in filenames:
                    try:
                        freed_bytes += os.path.getsize(
                            os.path.join(dirpath, filename))
                    except OSError:
                        continue
                    removed_files += 1
            shutil.rmtree(version_dir, ignore_errors=True)
            removed_versions += 1
        now = time.time()
        for dirpath, _dirnames, filenames in os.walk(self.version_dir):
            for filename in filenames:
                full = os.path.join(dirpath, filename)
                try:
                    mtime = os.path.getmtime(full)
                    size = os.path.getsize(full)
                except OSError:
                    continue
                is_tmp = filename.endswith(".tmp")
                expired = (is_tmp and now - mtime >= tmp_max_age_s) or \
                    (not is_tmp and filename.endswith(".pkl")
                     and max_age_s is not None
                     and now - mtime >= max_age_s)
                if not expired:
                    continue
                try:
                    os.unlink(full)
                except OSError:
                    # A racing gc already removed it; its count, not ours.
                    continue
                removed_files += 1
                freed_bytes += size
        return {"removed_files": removed_files,
                "freed_bytes": freed_bytes,
                "removed_versions": removed_versions,
                "removed_dirs": self._prune_empty_dirs()}

    def _prune_empty_dirs(self) -> int:
        """Remove empty family/shard/counter directories bottom-up.

        ``os.rmdir`` is the race-safety here: it only ever removes an
        *empty* directory and fails cleanly (ENOTEMPTY/ENOENT ignored)
        if a concurrent writer repopulated or a concurrent gc already
        pruned it.
        """
        removed = 0
        for dirpath, _dirnames, _filenames in os.walk(
                self.version_dir, topdown=False):
            if dirpath == self.version_dir:
                continue
            try:
                os.rmdir(dirpath)
            except OSError:
                continue
            removed += 1
        return removed

    # ---------------------------------------------------------- counters

    def _register_flush(self) -> None:
        if not self._flush_registered:
            self._flush_registered = True
            atexit.register(self.flush_counters)

    def flush_counters(self) -> None:
        """Persist this process's lifetime hit/miss/bytes counters.

        Each process owns one uniquely named counter file and rewrites
        it atomically with cumulative per-family totals, so concurrent
        runs never contend on a shared counter file and ``repro cache
        stats`` in a *later* process can still report what warm runs
        achieved.
        """
        if not any(any(c.values()) for c in self.counters.values()):
            return
        directory = os.path.join(self.version_dir, "counters")
        path = os.path.join(directory, self._counter_token + ".json")
        tmp = path + ".tmp"
        try:
            os.makedirs(directory, exist_ok=True)
            with io.open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self.counters, handle)
            os.replace(tmp, path)
        except OSError as exc:
            self._warn_once("counter-flush", exc)
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _each_counter_file(self):
        """Yield every *other* process's parsed counter payload."""
        directory = os.path.join(self.version_dir, "counters")
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json") \
                    or name == self._counter_token + ".json":
                continue
            try:
                with io.open(os.path.join(directory, name),
                             encoding="utf-8") as handle:
                    yield json.load(handle)
            except (OSError, ValueError):
                continue

    @staticmethod
    def _merge_counters(into: dict, families) -> None:
        if not isinstance(families, dict):
            return
        for family, counter in families.items():
            if not isinstance(counter, dict):
                continue
            target = into.setdefault(family, _empty_counter())
            for field in target:
                try:
                    target[field] += int(counter.get(field, 0))
                except (TypeError, ValueError):
                    pass

    def persisted_counters(self) -> dict[str, dict[str, int]]:
        """Lifetime per-family counters merged over every recorded
        process, including this one's live (not yet flushed) numbers."""
        merged: dict[str, dict[str, int]] = {}
        for payload in self._each_counter_file():
            self._merge_counters(merged, payload)
        self._merge_counters(merged, self.counters)
        return merged


# ---------------------------------------------------------- default store

_STORE: ArtifactStore | None = None


def get_store() -> ArtifactStore:
    """The process-wide store (created from the environment on first
    use; fork-pool workers inherit the parent's instance)."""
    global _STORE
    if _STORE is None:
        _STORE = ArtifactStore()
    return _STORE


def reset_store() -> ArtifactStore:
    """Rebuild the default store from the current environment (tests
    monkeypatch ``REPRO_CACHE_DIR``/``REPRO_FINGERPRINT`` then reset)."""
    global _STORE
    if _STORE is not None:
        _STORE.flush_counters()
    _STORE = ArtifactStore()
    return _STORE
