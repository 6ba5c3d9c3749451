"""Golden ``repro runs show`` output.

Four journaled runs cover every kind of audit record ``repro runs
show`` prints: an SLR/STR fix with its diff, a duplicate-content file
(its diff header names the duplicate), two preprocess failures of one
text (each message names its own file), a worker death, a quarantined
file, a validated file whose oracle saw divergences, and an arbitrated
(``--backends``) winner.  The transcript of ``runs show`` over them
must match ``fixtures/runs_show.txt`` byte-for-byte; only each run's
``created`` time and tool ``fingerprint`` are masked.

Regenerate the fixture (only when the printed audit is meant to change)
with ``PYTHONPATH=src python tests/test_runs_show_golden.py``.
"""

from __future__ import annotations

import io
import os
import re
import sys
import tempfile
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "runs_show.txt"

OVERFLOW = (
    "#include <stdio.h>\n#include <string.h>\n"
    "void greet(const char *name) {\n"
    "    char buf[8];\n"
    "    strcpy(buf, name);\n"
    '    printf("hello %s\\n", buf);\n'
    "}\n"
    "int main(void) {\n"
    '    greet("world");\n'
    "    return 0;\n"
    "}\n")

STDIN_OVERFLOW = (
    "#include <stdio.h>\n#include <string.h>\n"
    "int main(void) {\n"
    "    char line[256];\n"
    "    char buf[8];\n"
    "    if (fgets(line, sizeof line, stdin) == NULL)\n"
    "        return 0;\n"
    "    strcpy(buf, line);\n"
    '    printf("%s", buf);\n'
    "    return 0;\n"
    "}\n")

POISON = (
    "#include <stdio.h>\n"
    "int main(void) {\n"
    '    puts("poison");\n'
    "    return 0;\n"
    "}\n")

BROKEN = '#include "missing.h"\nint main(void) { return 0; }\n'

#: ``{directory: {file: text}}`` for each batch input.
PROGRAMS = {
    "condemn": {"poison.c": POISON},
    "golden": {"broken.c": BROKEN, "broken_copy.c": BROKEN,
               "fix.c": OVERFLOW, "fix_copy.c": OVERFLOW,
               "poison.c": POISON},
    "oracle": {"reader.c": STDIN_OVERFLOW},
}

#: Batch invocations, in order: ``condemn`` watches ``poison.c``'s
#: worker die under an injected fault, so ``golden`` quarantines it.
BATCHES = (
    ("condemn", ["--run-id", "golden-condemn"], "slr:kill:1.0"),
    ("golden", ["--run-id", "golden-fix"], None),
    ("oracle", ["--run-id", "golden-validate", "--validate"], None),
    ("oracle", ["--run-id", "golden-backends", "--backends",
                "slr,str,s3lib"], None),
)

SHOWS = (
    ["golden-condemn"],
    ["golden-fix"],
    ["golden-fix", "--diff"],
    ["golden-fix", "--file", "fix.c"],
    ["golden-fix", "--file", "fix_copy.c"],
    ["golden-fix", "--file", "broken.c"],
    ["golden-fix", "--file", "poison.c"],
    ["golden-fix", "--file", "absent.c"],
    ["golden-validate", "--diff"],
    ["golden-validate", "--file", "reader.c"],
    ["golden-backends", "--diff"],
    ["golden-backends", "--file", "reader.c"],
)

_HEADER = re.compile(r"^(run \S+  created )\S+(  program \S+  "
                     r"fingerprint )\S+$", re.MULTILINE)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from repro.cli import main
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def transcript(workdir: Path) -> str:
    """Write the inputs under ``workdir``, run :data:`BATCHES`, and
    return every :data:`SHOWS` output with its exit code.

    The caller provides a clean environment: no ``REPRO_*`` variable
    set except ``REPRO_CACHE_DIR`` and ``REPRO_RUN_DIR`` pointing at
    empty directories, and empty in-process caches."""
    for directory, files in PROGRAMS.items():
        target = workdir / directory
        target.mkdir()
        for name, text in files.items():
            (target / name).write_text(text)
    for directory, flags, fault in BATCHES:
        if fault:
            os.environ["REPRO_FAULTS"] = fault
        try:
            code, _out, err = _cli(["batch", str(workdir / directory),
                                    "-j", "1", *flags])
        finally:
            os.environ.pop("REPRO_FAULTS", None)
        assert code in (0, 1), err
    chunks = []
    for argv in SHOWS:
        code, out, err = _cli(["runs", "show", *argv])
        out = _HEADER.sub(r"\1<created>\2<fingerprint>", out)
        chunks.append(f"$ repro runs show {' '.join(argv)}\n"
                      f"[exit {code}]\n{out}{err}")
    return "\n".join(chunks)


def _clean_environment(workdir: Path) -> dict[str, str]:
    """Point the store and the run directory into ``workdir``, drop
    every other ``REPRO_*`` variable, and empty the in-process caches;
    returns the replaced variables."""
    from repro.cfront.cache import clear_all_caches
    from repro.core.session import reset_session
    from repro.core.store import reset_store
    saved = {name: value for name, value in os.environ.items()
             if name.startswith("REPRO_")}
    for name in saved:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "store")
    os.environ["REPRO_RUN_DIR"] = str(workdir / "runs")
    clear_all_caches()
    reset_session()
    reset_store()
    return saved


def _restore_environment(saved: dict[str, str]) -> None:
    from repro.cfront.cache import clear_all_caches
    from repro.core.session import reset_session
    from repro.core.store import reset_store
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(saved)
    clear_all_caches()
    reset_session()
    reset_store()


def golden_transcript() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        saved = _clean_environment(workdir)
        try:
            return transcript(workdir)
        finally:
            _restore_environment(saved)


def test_runs_show_matches_golden_transcript():
    assert golden_transcript() == FIXTURE.read_text(encoding="utf-8")


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(golden_transcript(), encoding="utf-8")
    print(f"wrote {FIXTURE}")
