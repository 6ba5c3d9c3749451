"""Shared parsing for ``REPRO_*`` environment knobs.

Every knob follows the batch driver's bad-knob contract: a value that
does not parse (or is out of range) must never crash or silently
reconfigure a run — it warns once and falls back to the documented
default.  An empty value means the knob is unset.  ``warnings.warn``
with a stable message deduplicates via the interpreter's default
warning filter, so a bad knob produces exactly one line per process
however many times the knob is read.
"""

from __future__ import annotations

import os
import warnings

__all__ = ["bool_knob", "int_knob", "float_knob"]


def _warn(message: str) -> None:
    warnings.warn(message, RuntimeWarning, stacklevel=3)


_ON = frozenset(("1", "true", "yes", "on"))
_OFF = frozenset(("0", "false", "no", "off"))


def bool_knob(name: str, default: bool) -> bool:
    """Read an on/off knob: ``1``/``true``/``yes``/``on`` or
    ``0``/``false``/``no``/``off``, in any case; warn and return
    ``default`` on anything else."""
    raw = os.environ.get(name, "")
    if not raw:
        return default
    value = raw.lower()
    if value in _ON:
        return True
    if value in _OFF:
        return False
    _warn(f"ignoring {name}={raw!r} (expected on/off, true/false, yes/no "
          f"or 1/0); using {'on' if default else 'off'}")
    return default


def int_knob(name: str, default: int, *, minimum: int | None = 1,
             fallback_note: str = "") -> int:
    """Read an integer knob; warn and return ``default`` on bad values.

    ``minimum`` is the lowest accepted value (``None`` accepts any
    integer); ``fallback_note`` names what the fallback means in the
    warning (defaults to the numeric default itself).
    """
    raw = os.environ.get(name, "")
    if not raw:
        return default
    note = fallback_note or f"using default {default}"
    try:
        value = int(raw)
    except ValueError:
        _warn(f"ignoring non-integer {name}={raw!r}; {note}")
        return default
    if minimum is not None and value < minimum:
        _warn(f"ignoring {name}={value} (must be >= {minimum}); {note}")
        return default
    return value


def float_knob(name: str, default: float, *, minimum: float = 0.0,
               fallback_note: str = "") -> float:
    """Read a float knob; warn and return ``default`` on bad values."""
    raw = os.environ.get(name, "")
    if not raw:
        return default
    note = fallback_note or f"using default {default}"
    try:
        value = float(raw)
    except ValueError:
        _warn(f"ignoring non-numeric {name}={raw!r}; {note}")
        return default
    if value < minimum:
        _warn(f"ignoring {name}={value} (must be >= {minimum}); {note}")
        return default
    return value
