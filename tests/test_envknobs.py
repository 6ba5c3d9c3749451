"""On/off environment knobs (``repro/envknobs.py``).

``REPRO_CACHE``, ``REPRO_DISK_CACHE`` and ``REPRO_ANALYSIS_FAST`` read
``0``/``false``/``no``/``off`` (any case) as off and ``1``/``true``/
``yes``/``on`` as on; an empty value is unset, and anything else warns
once and keeps the default.
"""

import os
import subprocess
import sys

import pytest

from repro.envknobs import bool_knob

KNOB = "REPRO_CACHE"


@pytest.mark.parametrize("raw", ["0", "false", "no", "off", "OFF",
                                 "False", "No"])
def test_off_spellings(raw, monkeypatch):
    monkeypatch.setenv(KNOB, raw)
    assert bool_knob(KNOB, True) is False


@pytest.mark.parametrize("raw", ["1", "true", "yes", "on", "ON", "True"])
def test_on_spellings(raw, monkeypatch):
    monkeypatch.setenv(KNOB, raw)
    assert bool_knob(KNOB, False) is True


@pytest.mark.parametrize("default", [True, False])
def test_empty_means_unset(default, monkeypatch):
    monkeypatch.setenv(KNOB, "")
    assert bool_knob(KNOB, default) is default


def test_every_on_off_knob_reads_off(monkeypatch):
    from repro.analysis.fastpath import fast_enabled
    from repro.cfront.cache import caches_enabled
    from repro.core.store import disk_enabled
    for name, enabled in (("REPRO_CACHE", caches_enabled),
                          ("REPRO_DISK_CACHE", disk_enabled),
                          ("REPRO_ANALYSIS_FAST", fast_enabled)):
        monkeypatch.setenv(name, "off")
        assert not enabled(), name
        monkeypatch.setenv(name, "")
        assert enabled(), name


def test_cache_off_writes_nothing_and_misses_every_parse(fresh_store,
                                                         monkeypatch):
    from repro.core.batch import SourceProgram, apply_batch
    from repro.core.session import get_session
    monkeypatch.setenv("REPRO_CACHE", "off")
    text = ("#include <string.h>\nvoid f(const char *s) {\n"
            "    char b[8];\n    strcpy(b, s);\n}\n")
    for _ in range(2):
        apply_batch(SourceProgram("p", {"f.c": text}))
    stats = get_session().parse_stats
    assert fresh_store.usage() == {}
    assert stats.hits == 0 and stats.misses > 0


def test_bad_value_warns_once():
    code = ("from repro.cfront.cache import caches_enabled\n"
            "from repro.core.batch import SourceProgram, apply_batch\n"
            "assert all(caches_enabled() for _ in range(3))\n"
            "apply_batch(SourceProgram('p', {'f.c': 'int main(void) "
            "{ return 0; }\\n'}))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = {**os.environ, "REPRO_CACHE": "maybe",
           "REPRO_DISK_CACHE": "0", "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    warnings = [line for line in proc.stderr.splitlines()
                if "REPRO_CACHE='maybe'" in line]
    assert len(warnings) == 1, proc.stderr
