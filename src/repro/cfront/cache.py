"""Content-keyed result caches for the C frontend.

The transformation pipeline preprocesses and parses the *same* text many
times: SLR parses the preprocessed unit, STR parses SLR's output, the
"still parses" verify re-parses it again, and the VM parses both the
original and the transformed text before executing them.  All of those
are pure functions of the input text, so this module provides small LRU
caches keyed on a content hash; :mod:`repro.core.session` builds the
memory-only parse/analysis cache and the verify-verdict cache on top,
and :func:`preprocess_cached` below serves every preprocessing consumer.

A cache constructed with a ``family`` is additionally backed by the
persistent artifact store (:mod:`repro.core.store`): lookups go memory →
disk → compute, and computed values are published to disk so fork-pool
workers and later CLI runs share them.  Every key is salted with the
tool fingerprint (:func:`repro.fingerprint.tool_fingerprint`), so
entries computed by an older checkout are never reused after a code
change — on disk *or* in memory.

:class:`CacheStats` is the one counter system: each cache counts its
own lookups, store loads and bytes where they happen, per process.
Fork-pool workers' counts stay in the workers.

:class:`PrefixCache` is the one cache keyed on a *prefix* of the text
rather than on all of it: the parser keeps the header preambles it has
parsed there (:mod:`repro.cfront.parser`), memory only, and shares each
with every later text that starts with it.

Environment knobs (on/off: ``0``/``false``/``no``/``off`` turn one off):

* ``REPRO_CACHE=0``      — disable all frontend caches (every call misses,
  the disk layer included; the parser neither reads nor fills its
  preamble table);
* ``REPRO_DISK_CACHE=0`` — disable only the disk layer.

Each cache's LRU holds :data:`DEFAULT_CACHE_SIZE` entries unless its
constructor is given a ``maxsize``; a :class:`PrefixCache` is always
given one.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

from ..envknobs import bool_knob

DEFAULT_CACHE_SIZE = 512


def caches_enabled() -> bool:
    return bool_knob("REPRO_CACHE", True)


_SALT: bytes | None = None


def _key_salt() -> bytes:
    """The tool-fingerprint salt mixed into every content key."""
    global _SALT
    if _SALT is None:
        from ..fingerprint import tool_fingerprint
        _SALT = tool_fingerprint().encode("utf-8")
    return _SALT


def content_key(*parts: str) -> str:
    """A stable digest of the given text parts (cache key).

    Salted with the tool fingerprint so a key computed by one checkout
    never addresses an entry computed by another — a rewriter bugfix
    invalidates every cached transform, parse, and verdict.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(_key_salt())
    digest.update(b"\x00")
    for part in parts:
        digest.update(part.encode("utf-8", errors="surrogateescape"))
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters for one cache (and for merged snapshots).

    ``hits``/``misses`` count the in-memory LRU; ``disk_hits`` and
    ``disk_misses`` count the persistent-store consultations that memory
    misses fell through to (so ``misses - disk_hits`` values were truly
    computed), and the byte counters measure store traffic.
    """

    name: str = ""
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(self.name, self.hits - earlier.hits,
                          self.misses - earlier.misses,
                          self.evictions - earlier.evictions,
                          self.disk_hits - earlier.disk_hits,
                          self.disk_misses - earlier.disk_misses,
                          self.bytes_read - earlier.bytes_read,
                          self.bytes_written - earlier.bytes_written)


class ContentCache:
    """A bounded LRU map from content keys to computed results.

    Results must be treated as immutable by callers: the same object is
    handed to every hit.  Build failures are never cached (the exception
    propagates and nothing is stored), so an entry always corresponds to
    a successful computation over exactly the keyed content.

    With a ``family``, memory misses fall through to the persistent
    artifact store before computing: a disk hit is unpickled, inserted
    into the LRU, and returned; a disk miss computes and publishes the
    value for every other worker and future run.
    """

    def __init__(self, name: str, maxsize: int | None = None,
                 family: str | None = None):
        self.name = name
        self.family = family
        self.maxsize = maxsize if maxsize is not None \
            else DEFAULT_CACHE_SIZE
        self.stats = CacheStats(name)
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        _REGISTRY[name] = self

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def _disk_store(self):
        if self.family is None:
            return None
        from ..core.store import disk_enabled, get_store
        return get_store() if disk_enabled() else None

    def get_or_build(self, key: str, build):
        """Return the cached value for ``key``, building it on a miss."""
        if not caches_enabled():
            self.stats.misses += 1
            return build()
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.stats.misses += 1
        store = self._disk_store()
        value = None
        loaded = False
        if store is not None:
            loaded, value, nbytes = store.load(self.family, key)
            if loaded:
                self.stats.disk_hits += 1
                self.stats.bytes_read += nbytes
            else:
                self.stats.disk_misses += 1
        if not loaded:
            value = build()
            if store is not None:
                self.stats.bytes_written += store.store(
                    self.family, key, value)
        self._entries[key] = value
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return value


class PrefixCache:
    """A bounded LRU map from text prefixes to values.

    :meth:`longest` finds the longest recorded prefix that a text starts
    with, by comparing the text against every entry, so the bound is
    kept small.  As with :class:`ContentCache`, the same value is handed
    to every hit and must be treated as immutable.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        _PREFIX_CACHES.append(self)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def longest(self, text: str):
        """The value of the longest recorded prefix of ``text``, or None."""
        best = ""
        for prefix in self._entries:
            if len(prefix) > len(best) and text.startswith(prefix):
                best = prefix
        if not best:
            return None
        self._entries.move_to_end(best)
        return self._entries[best]

    def add(self, prefix: str, value) -> None:
        self._entries[prefix] = value
        self._entries.move_to_end(prefix)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)


#: name -> cache, so stats can be reported across the whole frontend.
_REGISTRY: dict[str, ContentCache] = {}
#: Prefix caches keep no stats; they are only cleared with the rest.
_PREFIX_CACHES: list[PrefixCache] = []


def all_cache_stats() -> list[CacheStats]:
    return [cache.stats for cache in _REGISTRY.values()]


def clear_all_caches() -> None:
    for cache in (*_REGISTRY.values(), *_PREFIX_CACHES):
        cache.clear()


# --------------------------------------------------------- preprocess cache

_PP_CACHE = ContentCache("preprocess", family="preprocess")


def header_key_parts(headers) -> list[str]:
    """A private header set as content-key parts: the count, then each
    name and text in name order, so no two header sets share a key.
    ``headers`` is a mapping or ``(name, text)`` pairs."""
    items = sorted(dict(headers or ()).items())
    return [str(len(items)), *[part for item in items for part in item]]


def preprocess_cached(text: str, filename: str = "<string>",
                      include_paths=None):
    """Preprocess ``text``, reusing the result for identical inputs.

    ``include_paths`` holds the private headers (a mapping or
    ``(name, text)`` pairs).  The key covers the file name and text and
    the header set — everything the preprocessor's output depends on —
    so an edited header is a miss, never a stale hit.
    """
    from .preprocessor import Preprocessor

    headers = dict(include_paths or ())
    key = content_key("preprocess", filename, text,
                      *header_key_parts(headers))
    return _PP_CACHE.get_or_build(
        key, lambda: Preprocessor(headers).preprocess(text, filename))
