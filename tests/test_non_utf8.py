"""A source file or header that is not UTF-8 fails alone.

Every command reads sources with ``errors="surrogateescape"``, and the
preprocessor rejects a text holding an undecodable byte with a
``SourceError`` naming the file, line and byte.  A batch ships such a
file verbatim as ``failed`` (one ``preprocess`` diagnostic) while its
siblings run, and ``batch -o`` writes its original bytes back; the
watch engine gives an ``error`` record (``tests/test_watch.py``);
``fix``, ``run`` and ``analyze`` print one ``error:`` line and exit 1.
"""

import json

import pytest

from repro.cli import main
from repro.core.batch import apply_batch, load_program
from repro.core.incremental import IncrementalEngine

GOOD = (b'#include <stdio.h>\n#include <string.h>\n'
        b'int main(void) {\n    char b[16];\n    strcpy(b, "%s");\n'
        b'    printf("%%s\\n", b);\n    return 0;\n}\n')
LATIN1 = b"/* caf\xe9 */\n" + GOOD % b"hi"


def write_program(directory, files):
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return directory


def test_batch_fails_only_the_non_utf8_file(tmp_path, capsys):
    src = write_program(tmp_path / "src", {
        "a.c": GOOD % b"aa", "b.c": LATIN1, "c.c": GOOD % b"cc"})
    out = tmp_path / "out"
    diagnostics = tmp_path / "diagnostics.json"
    main(["batch", str(src), "-o", str(out),
          "--diagnostics-json", str(diagnostics)])
    payload = json.loads(diagnostics.read_text())
    assert payload["statuses"] == {"a.c": "ok", "b.c": "failed",
                                   "c.c": "ok"}
    [diag] = payload["diagnostics"]
    assert (diag["filename"], diag["stage"]) == ("b.c", "preprocess")
    assert diag["message"] == "b.c:1:7: byte 0xe9 is not UTF-8"
    assert (out / "b.c").read_bytes() == LATIN1
    for name in ("a.c", "c.c"):
        assert b"g_strlcpy" in (out / name).read_bytes()
    assert "Traceback" not in capsys.readouterr().err


def test_non_utf8_header_fails_exactly_its_includers(tmp_path):
    src = write_program(tmp_path / "src", {
        "latin.h": b"/* \xa9 1999 */\n#define GREETING \"hi\"\n",
        "ok.h": b"#define GREETING \"hi\"\n",
        "a.c": b'#include "latin.h"\n' + GOOD % b"aa",
        "b.c": b'#include "ok.h"\n' + GOOD % b"bb",
        "c.c": b'#include "latin.h"\n' + GOOD % b"cc"})
    result = apply_batch(load_program(str(src)), jobs=1)
    assert [r.status for r in result.reports] == ["failed", "ok", "failed"]
    for report in (result.reports[0], result.reports[2]):
        [diag] = report.diagnostics
        assert diag.stage == "preprocess"
        assert diag.message == "latin.h:1:4: byte 0xa9 is not UTF-8"


@pytest.mark.parametrize("command", ["fix", "run", "analyze"])
def test_single_file_commands_print_one_error_line(tmp_path, capsys,
                                                   command):
    path = tmp_path / "cafe.c"
    path.write_bytes(LATIN1)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}:1:7: byte 0xe9 is not UTF-8\n"
    assert captured.out == ""


def test_incremental_edit_adding_the_byte_in_a_comment_errors():
    """A comment edit is a token-level no-op, but the byte it adds makes
    the file unreadable to a batch: the engine must say so too."""
    good = GOOD % b"hi"
    bad = good.replace(b"return 0;", b"return 0; /* caf\xe9 */")
    engine = IncrementalEngine("e.c", validate=False)
    assert engine.update(good.decode()).mode == "full"
    assert engine.update(bad.decode(errors="surrogateescape")).mode \
        == "error"
    assert engine.update(good.decode()).mode == "full"
