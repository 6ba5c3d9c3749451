"""Persistent, content-addressed artifact store for the pipeline.

The in-memory LRUs in :mod:`repro.cfront.cache` die with the process and
are never shared between fork-pool workers or successive CLI runs, yet
everything the pipeline computes — preprocess outputs, SLR/STR and
backend transform outputs, verify verdicts, differential-oracle verdicts
and VM execution results — is a pure function of (input content, tool
version).  This module persists on disk the artifacts that a later run
reads, so that every process that ever sees the same content gets them
for one ``open`` + ``unpickle``.  Parsed ASTs and the oracle's probe
runs are not among them: they stay in memory, and a later run reads the
verify verdict instead of an AST and the oracle verdict instead of its
runs.  A batch file's whole clean report is stored too, under its work
key: a warm batch over an unchanged file reads two entries for it
(``preprocess`` and ``report``), and no worker computes it.

* **layout** — ``REPRO_CACHE_DIR`` (default ``~/.cache/repro``) holds one
  version directory per (schema, tool fingerprint), named
  ``v<schema>-<fingerprint>``; inside it, one subdirectory per artifact
  family (:data:`FAMILIES`), *sharded* by key prefix into
  :data:`SHARDS` subdirectories (``s000`` … ``s015``) so parallel
  workers spread their renames and directory scans over 16 directories
  per family instead of contending on one.  A code change anywhere in
  the package changes the fingerprint
  (:func:`repro.fingerprint.tool_fingerprint`), so entries computed by
  an older checkout are never consulted; ``repro cache gc`` reclaims
  them.  ``clear`` and ``gc`` only ever touch version directories, so
  run journals and anything else sharing the cache root survive.
* **crash-safe concurrent access** — writers pickle to a uniquely named
  temp file in the same directory and publish with :func:`os.replace`
  (atomic rename; :func:`publish_atomic`, which the run journal shares).
  Racing writers both publish complete entries (last wins, values are
  equal by construction); readers can never observe a half-written
  entry.  A corrupt or unreadable entry is treated as a miss and
  dropped, never an error.
* **layering** — :class:`~repro.cfront.cache.ContentCache` consults this
  store between its memory LRU and the compute function (memory → disk →
  compute), so the hot path is unchanged and the disk layer is invisible
  to callers.  Its :class:`~repro.cfront.cache.CacheStats` count the
  loads, hits and bytes; the store itself keeps no counters.

Environment knobs:

* ``REPRO_CACHE_DIR``     — store location (default ``~/.cache/repro``);
* ``REPRO_DISK_CACHE=0``  — disable the disk layer only (memory LRUs
  stay on); the CLI's ``--no-disk-cache`` sets this;
* ``REPRO_CACHE=0``       — disable *all* caching, disk included.
"""

from __future__ import annotations

import os
import pickle
import re
import shutil
import time
import uuid
import warnings
import zlib

from ..cfront.cache import caches_enabled
from ..envknobs import bool_knob
from ..fingerprint import tool_fingerprint
from . import faults

#: Bumped when the pickled artifact schema changes incompatibly in a way
#: the source fingerprint would not capture (e.g. a pickling protocol
#: policy change).
SCHEMA_VERSION = 1

#: Artifact families the pipeline persists.  ``verify`` holds one
#: marker per text known to parse (failures are never stored).
#: ``execute`` holds Table III's before/after VM runs only; the
#: differential oracle keeps its probe runs in memory and persists the
#: pair's verdict under ``validate``.
#: ``func`` holds function-granular incremental artifacts — per-component
#: preprocessed renders and transform outcomes keyed on (stage, function
#: token hash, headers/preamble fingerprint) — so an unchanged function
#: hits disk across edits even though the whole-file keys all miss.
#: ``quarantine`` holds poison-file records (content hash → diagnostic)
#: written by journaled batch runs — the fingerprint-salted version dir
#: means a tool change releases every quarantined file automatically.
#: ``report`` holds one batch file's whole clean report (status ``ok``,
#: no diagnostics) under its task's work key, so a warm batch over an
#: unchanged file replays it without forking a worker.  The per-stage
#: families still serve every file whose work key misses it: a renamed
#: file, changed settings, arbitration's candidates, the incremental
#: engine and Table III.
FAMILIES = ("preprocess", "verify", "slr", "str", "backend", "validate",
            "execute", "func", "quarantine", "report")

#: Abandoned temp files older than this are garbage (a crashed writer);
#: live writers hold a temp file for milliseconds.
TMP_MAX_AGE_S = 300.0

#: Shard directories per family.  16 keeps directory entry counts (and
#: rename contention domains) 16x smaller than one flat fan-in while
#: staying negligible as directory overhead.
SHARDS = 16

#: The shape of a version directory's name (see ``version_dir``); the
#: only directories under the cache root that ``clear`` and ``gc`` touch.
_VERSION_DIR = re.compile(r"v\d+-.+")


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") \
        or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def publish_atomic(path: str, data: bytes, stage: str,
                   subject: str) -> None:
    """Write ``data`` at ``path`` atomically: into a uniquely named temp
    file in the same directory, then :func:`os.replace`.  A reader sees
    no file or a complete one, whichever of two racing writers wins.
    On failure the temp file is removed and the ``OSError`` re-raised
    for the caller to absorb; ``<stage>:disk-full`` fault rules match
    ``subject``."""
    directory = os.path.dirname(path)
    tmp = os.path.join(directory,
                       f".{os.path.basename(path)}."
                       f"{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        faults.check_disk_full(stage, subject)
        os.makedirs(directory, exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def remove_trees(paths) -> tuple[int, int]:
    """Delete each directory tree in ``paths``; returns the ``(files,
    bytes)`` they held.  A file that a concurrent remover deletes first
    is not counted."""
    files = 0
    nbytes = 0
    for path in paths:
        for dirpath, _dirnames, filenames in os.walk(path):
            for filename in filenames:
                try:
                    nbytes += os.path.getsize(
                        os.path.join(dirpath, filename))
                except OSError:
                    continue
                files += 1
        shutil.rmtree(path, ignore_errors=True)
    return files, nbytes


def disk_enabled() -> bool:
    """Is the disk layer active?  ``REPRO_CACHE=0`` (all caching off)
    and ``REPRO_DISK_CACHE=0`` (disk layer only) both disable it."""
    return caches_enabled() and bool_knob("REPRO_DISK_CACHE", True)


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

    # ------------------------------------------------------------ access

    def load(self, family: str, key: str) -> tuple[bool, object, int]:
        """Fetch one artifact; returns ``(hit, value, bytes_read)``.

        Anything unreadable — missing entry, truncated pickle, an entry
        whose class layout changed under a stale fingerprint override —
        is a miss; corrupt files are unlinked so they are rebuilt once.
        """
        path = self._entry_path(family, key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return False, None, 0
        except OSError as exc:
            self._warn_once("read", exc)
            return False, None, 0
        if faults.faults_enabled():
            data = faults.corrupt_entry(key, data)
        try:
            value = pickle.loads(data)
        except Exception:
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None, 0
        return True, value, len(data)

    def store(self, family: str, key: str, value: object) -> int:
        """Publish one artifact atomically (:func:`publish_atomic`);
        returns bytes written (0 if the value could not be pickled or
        the directory is unwritable)."""
        try:
            data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return 0
        try:
            publish_atomic(self._entry_path(family, key), data, "store",
                           key + ".pkl")
        except OSError as exc:
            self._warn_once("write", exc)
            return 0
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

    def _version_dirs(self) -> list[str]:
        """Every version directory under the root, this one included;
        nothing else under the root belongs to the store."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [os.path.join(self.root, name) for name in names
                if _VERSION_DIR.fullmatch(name)
                and os.path.isdir(os.path.join(self.root, name))]

    def stale_versions(self) -> list[str]:
        """Version directories built by other fingerprints/schemas."""
        return [path for path in self._version_dirs()
                if path != self.version_dir]

    # -------------------------------------------------------- management

    def clear(self) -> tuple[int, int]:
        """Remove every version directory; returns (files, bytes).

        Tolerates a concurrent clear/gc: entries that vanish between
        the walk and the removal are simply not double-counted.
        """
        return remove_trees(self._version_dirs())

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
        stale = self.stale_versions()
        removed_files, freed_bytes = remove_trees(stale)
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
                "removed_versions": len(stale),
                "removed_dirs": self._prune_empty_dirs()}

    def _prune_empty_dirs(self) -> int:
        """Remove empty family/shard directories bottom-up.

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
    """Rebuild the default store from the current environment and tool
    fingerprint (tests monkeypatch ``REPRO_CACHE_DIR`` then reset)."""
    global _STORE
    _STORE = ArtifactStore()
    return _STORE
