"""``repro watch --once`` ≡ ``repro batch``: one program model.

The watch loop reads the program a batch reads
(:func:`repro.core.batch.load_program`: a directory's ``.c`` files and
the ``.h`` files beside them), and its engines run the batch's per-file
pipeline, so each file's first report equals the batch's report: the
final text, the SLR and STR outcomes, the verdict counts and the status.
The batch runs with the disk layer off, so it computes every file.
"""

import io
import os

import pytest

from repro.cfront.funcdiff import segment_file
from repro.core.batch import SourceProgram, apply_batch, load_program
from repro.core.incremental import IncrementalEngine
from repro.core.session import get_session
from repro.core.watch import WatchLoop
from tests.test_cli import header_dir  # noqa: F401  (fixture)

SEED = 7
EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                        "c")


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make_loop(directory, clock=None):
    return WatchLoop(str(directory), fuzz_seed=SEED,
                     clock=clock or FakeClock(), sleep=lambda s: None,
                     out=io.StringIO())


def watch_facts(update):
    return (update.final_text,
            list(update.slr_outcomes) + list(update.str_outcomes),
            update.verdict_counts(), update.status)


def batch_facts(report):
    outcomes = [o for result in (report.slr, report.str_) if result
                for o in result.outcomes]
    verdicts = report.validation.counts() \
        if report.validation is not None else {}
    return report.final_text, outcomes, verdicts, report.status


def batch_reports(directory):
    result = apply_batch(load_program(str(directory)), validate=True,
                         fuzz_seed=SEED)
    return {report.filename: report for report in result.reports}


def assert_watch_equals_batch(directory, monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    updates = {u.filename: u
               for u in make_loop(directory).scan_once(force=True)}
    reports = batch_reports(directory)
    assert sorted(updates) == sorted(reports)
    for name, report in reports.items():
        assert updates[name].mode == "full", (name, updates[name].reason)
        assert watch_facts(updates[name]) == batch_facts(report), name
    return updates


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """The four corpus programs as ``python -m repro.corpus dump``
    writes them."""
    from repro.corpus.__main__ import dump
    out = tmp_path_factory.mktemp("corpus")
    dump(out)
    return out


@pytest.fixture
def synth_dir(tmp_path):
    from repro.corpus import build_synth
    program = build_synth(20, 11)
    for name, text in {**program.files, **program.headers}.items():
        (tmp_path / name).write_text(text)
    return tmp_path


class TestWatchOnceEqualsBatch:
    def test_private_header(self, header_dir, monkeypatch):  # noqa: F811
        updates = assert_watch_equals_batch(header_dir, monkeypatch)
        assert updates["f.c"].status == "ok"
        assert "g_strlcpy" in updates["f.c"].final_text

    def test_examples(self, monkeypatch):
        updates = assert_watch_equals_batch(EXAMPLES, monkeypatch)
        assert len(updates) == 3

    @pytest.mark.parametrize("program", ["GMP", "libpng", "libtiff",
                                         "zlib"])
    def test_corpus_program(self, corpus_dir, program, monkeypatch):
        updates = assert_watch_equals_batch(corpus_dir / program,
                                            monkeypatch)
        assert {u.status for u in updates.values()} == {"ok"}

    def test_synth(self, synth_dir, monkeypatch):
        updates = assert_watch_equals_batch(synth_dir, monkeypatch)
        assert len(updates) == 20

    def test_slr_fault_rule_reaches_watch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "slr:exception:1.0")
        updates = assert_watch_equals_batch(EXAMPLES, monkeypatch)
        for update in updates.values():
            assert update.status == "degraded"
            assert [d.stage for d in update.diagnostics] == ["slr"]
            assert not update.slr_outcomes


@pytest.mark.parametrize("stage", ["slr", "validate"])
def test_fault_rule_holds_for_later_edits(stage, monkeypatch):
    """A degraded report leaves no warm state, so an edit after it runs
    the full path, and the fault rule, again."""
    monkeypatch.setenv("REPRO_FAULTS", f"{stage}:exception:1.0")
    raw = ("#include <string.h>\n"
           "void fill(const char *src) {\n    char buf[8];\n"
           "    strcpy(buf, src);\n}\n\n"
           "int main(void) {\n    fill(\"hi\");\n    return 0;\n}\n")
    engine = IncrementalEngine("f.c", fuzz_seed=SEED)
    assert engine.update(raw).status == "degraded"
    update = engine.update(raw.replace("return 0;", "return 1;"))
    assert (update.mode, update.status) == ("full", "degraded")
    assert [d.stage for d in update.diagnostics] == [stage]


def test_corpus_edits_take_the_incremental_path(corpus_dir, monkeypatch):
    """After a one-function edit per corpus file, every file but
    ``sites_png.c`` (a struct declared between two functions breaks the
    per-fragment preprocessor composition) takes the incremental path,
    and every file's text equals a cold batch of the edited program."""
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    modes = {}
    for directory in sorted(p for p in corpus_dir.iterdir()
                            if list(p.glob("*.c")) and p.name != "stralloc"):
        program = load_program(str(directory))
        edited = {}
        updates = {}
        for name, text in sorted(program.files.items()):
            engine = IncrementalEngine(name, headers=program.headers,
                                       validate=False)
            engine.update(text)
            body = next(t.text for t in segment_file(text, name).segments
                        if t.is_function)
            cut = body.rindex("}")
            edited[name] = text.replace(
                body, body[:cut] + "    (void)0;\n" + body[cut:], 1)
            updates[name] = engine.update(edited[name])
            modes[f"{directory.name}/{name}"] = updates[name].mode
        cold = apply_batch(SourceProgram(directory.name, edited,
                                         program.headers))
        for report in cold.reports:
            assert updates[report.filename].final_text \
                == report.final_text, report.filename
    assert len(modes) == 18
    assert [name for name, mode in modes.items()
            if mode != "incremental"] == ["libpng/sites_png.c"]


def test_header_edit_reruns_including_files(header_dir,  # noqa: F811
                                            monkeypatch):
    clock = FakeClock()
    loop = make_loop(header_dir, clock)
    [first] = loop.scan_once(force=True)
    assert "char buf[8]" in first.final_text
    header = header_dir / "f.h"
    header.write_text(header.read_text().replace("NAME_LEN 8",
                                                 "NAME_LEN 4"))
    os.utime(header, (5000.0, 5000.0))
    assert loop.scan_once() == []           # the quiet period starts
    clock.now += 1.0
    [update] = loop.scan_once()
    assert update.filename == "f.c" and update.mode == "full"
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    cold = batch_reports(header_dir)["f.c"]
    assert watch_facts(update) == batch_facts(cold)
    assert "char buf[4]" in update.final_text
    clock.now += 1.0
    assert loop.scan_once() == []


def test_compose_pp_renders_with_the_engines_headers():
    raw = ('#include "f.h"\n'
           "int width(void) {\n    return NAME_LEN;\n}\n")
    seg = segment_file(raw, "f.c")
    texts = []
    for value in ("8", "4"):
        headers = {"f.h": f"#define NAME_LEN {value}\n"}
        composed = IncrementalEngine(
            "f.c", headers=headers, validate=False)._compose_pp(seg)
        assert composed == get_session().preprocess(raw, "f.c",
                                                    headers).text
        texts.append(composed)
    assert texts[0] != texts[1]


def test_engines_over_two_header_sets_both_go_incremental(monkeypatch):
    """Fragment renders are keyed on the header texts: an engine over
    the edited header set does not replay the first set's renders, so
    its warm-up self-check holds and a one-function edit takes the
    incremental path, with the cold batch's text."""
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    raw = ('#include <string.h>\n#include "f.h"\n'
           "void fill(const char *src) {\n    char buf[NAME_LEN];\n"
           "    strcpy(buf, src);\n}\n\n"
           "int other(void) {\n    return 1;\n}\n")
    edited = raw.replace("return 1;", "return 2;")
    for value in ("8", "4"):
        headers = {"f.h": f"#define NAME_LEN {value}\n"}
        engine = IncrementalEngine("f.c", headers=headers, validate=False)
        assert engine.update(raw).mode == "full"
        update = engine.update(edited)
        assert update.mode == "incremental", update.reason
        cold = apply_batch(SourceProgram("p", {"f.c": edited}, headers))
        assert update.final_text == cold.reports[0].final_text
        assert f"char buf[{value}]" in update.final_text
