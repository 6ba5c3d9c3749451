"""Tool-version fingerprint shared by every cache layer.

A cached artifact (preprocess output, transform result, verify or
validation verdict) is only valid for the code that produced it: a
rewriter bugfix must invalidate every entry an older checkout computed.
The fingerprint is a digest over the *contents* of every Python source
file in the :mod:`repro` package, so any code change — in any layer —
changes the fingerprint and with it every cache key and the on-disk
store's version directory.  Stale entries are never consulted again and
``repro cache gc`` reclaims them.
"""

from __future__ import annotations

import hashlib
import os

_COMPUTED: str | None = None


def _compute() -> str:
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.blake2b(digest_size=8)
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if filename.endswith(".py"):
                paths.append(os.path.join(dirpath, filename))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode("utf-8"))
        digest.update(b"\x00")
        try:
            with open(path, "rb") as handle:
                digest.update(handle.read())
        except OSError:
            digest.update(b"<unreadable>")
        digest.update(b"\x00")
    return digest.hexdigest()


def tool_fingerprint() -> str:
    """The version salt for this checkout (stable within a process)."""
    global _COMPUTED
    if _COMPUTED is None:
        _COMPUTED = _compute()
    return _COMPUTED
