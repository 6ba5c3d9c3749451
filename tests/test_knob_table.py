"""README's knob table names exactly the environment knobs the code reads.

The set of knobs is what ``grep -rhoE 'REPRO_[A-Z_]+' src | grep -v
'_H$' | sort -u`` prints: every ``REPRO_*`` name under ``src/``, header
guards aside.  A knob added to or retired from the code must be added to
or retired from the table in the same change.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _knobs_in_src() -> set[str]:
    names: set[str] = set()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            with open(os.path.join(dirpath, filename), encoding="utf-8",
                      errors="replace") as handle:
                names.update(KNOB.findall(handle.read()))
    return {name for name in names if not name.endswith("_H")}


def _knobs_in_readme_table() -> set[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index("| Knob | Effect |")
    names: set[str] = set()
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        names.update(KNOB.findall(line.split("|")[1]))
    return names


def test_readme_knob_table_matches_the_code():
    in_src = _knobs_in_src()
    in_table = _knobs_in_readme_table()
    assert in_src == in_table, (
        f"read by the code but missing from README's knob table: "
        f"{sorted(in_src - in_table)}; in the table but read by no code: "
        f"{sorted(in_table - in_src)}")
