"""Shared header preambles: a parse that starts from a recorded preamble
must be indistinguishable from a cold parse of the same text.

A cold parse records the state at the last top-level ``;`` before its
first function definition; a later text with the same prefix lexes,
parses and binds only the rest, sharing the preamble's tokens,
declarations and global symbols (see :mod:`repro.cfront.parser`).  The
golden tests run every population the pipeline sees, and SLR's and
STR's outputs of each, through both paths and compare the token
stream, every node's type and extent, the unparse, and — after binding
and typing — every node's symbol and type.  ``REPRO_CACHE=0`` gives the
cold parse.
"""

from __future__ import annotations

import functools
import pathlib

import pytest

from repro.analysis import ProgramAnalysis
from repro.cfront import parser as parser_mod
from repro.cfront.lexer import Lexer
from repro.cfront.parser import Parser
from repro.cfront.source import SourceError
from repro.cfront.unparser import unparse
from repro.core.session import AnalysisSession
from repro.core.slr import apply_slr
from repro.core.strtransform import apply_str

_SESSION = AnalysisSession()
_EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples" / "c"

_HEADERS = "#include <stdio.h>\n#include <string.h>\n#include <stdlib.h>\n"
_MAIN = "int main(void)\n{\n    return 0;\n}\n"


def _pp(source: str, name: str = "t.c") -> str:
    return _SESSION.preprocess(source, name).text


# ----------------------------------------------------------- populations
#
# Each population is a list of ``(name, preprocessed text)``; a file
# that does not preprocess (``examples/c/bad/missing_header.c``) is
# left out.

def _preprocessed(sources):
    texts = []
    for name, source in sources:
        try:
            texts.append((name, _pp(source, name.rsplit("/", 1)[-1])))
        except SourceError:
            pass
    return texts


def _example_texts():
    return _preprocessed(
        (path.relative_to(_EXAMPLES).as_posix(), path.read_text())
        for path in sorted(_EXAMPLES.rglob("*.c")))


def _corpus_texts():
    from repro.corpus import build_all
    return [(f"{name}/{filename}", text)
            for name, program in build_all().items()
            for filename, text in sorted(
                program.preprocess(_SESSION).files.items())]


def _samate_texts():
    from repro.eval.samate_runner import sample_program
    return _preprocessed(sorted(sample_program(0.05, 60).files.items()))


def _synth_texts():
    from repro.corpus.synth import synthesize
    return _preprocessed((m.name + ".c", m.source)
                         for m in synthesize(100, 11, validate=False))


_POPULATIONS = {
    "examples": _example_texts,
    "corpus": _corpus_texts,
    "samate": _samate_texts,
    "synth": _synth_texts,
}


@functools.lru_cache(maxsize=None)
def _texts(population: str) -> tuple[tuple[str, str], ...]:
    """``(label, text)``: each preprocessed file, SLR's output for it and
    STR's output for that (the pipeline's order)."""
    texts = []
    for name, text in _POPULATIONS[population]():
        texts.append((name, text))
        try:
            slr_text = apply_slr(text, name).new_text
            str_text = apply_str(slr_text, name).new_text
        except SourceError:
            continue            # the input itself does not parse
        texts.append((name + " [SLR]", slr_text))
        texts.append((name + " [STR]", str_text))
    return tuple(texts)


# ------------------------------------------------------------ signatures

def _type_key(ctype):
    if ctype is None:
        return None
    return (str(ctype), getattr(ctype, "is_complete", None))


def _parse(text: str, name: str):
    """``(tokens, unit)`` of one parse, or ``(error, None)``."""
    try:
        parser = Parser(text, name)
        unit = parser.parse()
    except SourceError as exc:
        return (type(exc).__name__, str(exc)), None
    tokens = [(t.kind, t.text, t.offset, t.line, t.col, t.space_before)
              for t in parser.tokens]
    return tokens, unit


def _cold_parse(text: str, name: str):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE", "0")
        return _parse(text, name)


def _syntax(unit) -> tuple:
    nodes = [(type(node).__name__, node.extent.start, node.extent.end)
             for node in unit.walk()]
    return nodes, unparse(unit)


def _bind(unit) -> ProgramAnalysis:
    analysis = ProgramAnalysis(unit)
    analysis.ensure_types()
    return analysis


def _annotations(unit, analysis: ProgramAnalysis) -> tuple:
    """Every node's symbol and type, plus the symbol table.  Symbols are
    compared by value, and each must belong to this unit's own table."""
    table = analysis.symbols
    own = {id(symbol) for symbol in table.all_symbols}
    rows = []
    for node in unit.walk():
        symbol = getattr(node, "symbol", None)
        if symbol is not None:
            assert id(symbol) in own, \
                f"{node!r} is bound to a symbol of another unit"
            decl = symbol.decl_node
            symbol = (symbol.name, symbol.kind, symbol.scope_level,
                      type(decl).__name__, decl.extent.start,
                      decl.extent.end)
        rows.append((symbol, _type_key(getattr(node, "ctype", None))))
    symbols = [(s.name, s.kind, s.scope_level) for s in table.all_symbols]
    scopes = (sorted(table.globals), sorted(table.functions),
              sorted((fn, [s.name for s in syms])
                     for fn, syms in table.locals_of.items()))
    diagnostics = [d.message for d in analysis.type_diagnostics]
    return rows, symbols, scopes, diagnostics


def _assert_same_parse(label, shared, cold) -> None:
    (tokens, unit), (cold_tokens, cold_unit) = shared, cold
    assert tokens == cold_tokens, f"{label}: token stream differs"
    if cold_unit is None:
        assert unit is None, f"{label}: only the cold parse failed"
        return
    assert _syntax(unit) == _syntax(cold_unit), f"{label}: AST differs"


# ----------------------------------------------------------------- tests

@pytest.fixture
def empty_table():
    parser_mod._PREAMBLES.clear()
    yield parser_mod._PREAMBLES
    parser_mod._PREAMBLES.clear()


@pytest.mark.parametrize("population", sorted(_POPULATIONS))
def test_snapshot_parse_equals_cold_parse(population, empty_table):
    texts = _texts(population)
    shared_units = 0
    for label, text in texts:
        shared = _parse(text, label)
        cold = _cold_parse(text, label)
        _assert_same_parse(label, shared, cold)
        unit, cold_unit = shared[1], cold[1]
        if unit is None:
            continue
        assert cold_unit.preamble is None
        shared_units += unit.preamble is not None
        assert _annotations(unit, _bind(unit)) == \
            _annotations(cold_unit, _bind(cold_unit)), \
            f"{label}: binding or typing differs"
    # Every synth and SAMATE text shares (the inputs start with the same
    # stub headers, and so do their SLR and STR outputs).  Of the corpus
    # only the test files do: each other file defines functions that its
    # program's private header declares.
    minimum = {"examples": 12, "corpus": 12, "samate": 180, "synth": 300}
    assert shared_units >= minimum[population], shared_units


def test_units_sharing_a_preamble_bind_in_isolation(empty_table):
    """Parse units that share one preamble (and some that fall back),
    bind them all, and only then compare each with its cold twin: no
    unit's binding may leak into another's."""
    sources = [
        _HEADERS + _MAIN,
        _HEADERS + "static char g_buf[8];\n" + _MAIN,
        _HEADERS + "static int count(const char *s)\n{\n"
                   "    return (int)strlen(s);\n}\n" + _MAIN,
        # Falls back: completes the preamble's incomplete struct _FILE.
        _HEADERS + "struct _FILE { int fd; };\n"
                   "int fileno_of(FILE *f)\n{\n    return f->fd;\n}\n"
                   + _MAIN,
        # Falls back: defines a function the preamble declares.
        _HEADERS + "int puts(const char *s)\n{\n    return 0;\n}\n"
                   + _MAIN,
        _HEADERS + "typedef int FILE;\nstatic FILE handle;\n" + _MAIN,
        _HEADERS + "int main(void)\n{\n    char d[4];\n"
                   "    strcpy(d, \"abc\");\n    puts(d);\n"
                   "    return 0;\n}\n",
    ]
    texts = [_pp(source, f"u{i}.c") for i, source in enumerate(sources)]
    units = [_parse(text, f"u{i}.c")[1] for i, text in enumerate(texts)]
    preamble = units[0].preamble
    assert preamble is not None
    sharing = [unit.preamble is preamble for unit in units]
    assert sharing == [True, True, True, False, False, True, True]
    analyses = [_bind(unit) for unit in units]
    # Bind the first unit again after the others: it starts from the
    # saved global scope this time.
    analyses[0].invalidate()
    analyses[0].ensure_types()
    assert preamble.tags["_FILE"].is_complete is False
    for i, (text, unit, analysis) in enumerate(zip(texts, units, analyses)):
        cold = _cold_parse(text, f"u{i}.c")[1]
        assert _syntax(unit) == _syntax(cold)
        assert _annotations(unit, analysis) == \
            _annotations(cold, _bind(cold)), f"unit {i}"
    globals_ = [analysis.symbols.globals["printf"] for analysis in analyses]
    assert all((symbol is globals_[0]) is shares
               for symbol, shares in zip(globals_, sharing))


@pytest.mark.parametrize("rest, shares, records", [
    ("struct _FILE { int fd; };\nint fd_of(FILE *f)\n{\n"
     "    return f->fd;\n}\n", False, True),
    ("int printf(const char *format, ...)\n{\n    return 0;\n}\n",
     False, False),
    ("static int table[4];\nextern int table_size;\n", True, False),
    ("static int spl\\\nice(void)\n{\n    return 1;\n}\n", True, False),
], ids=["completes-struct-FILE", "defines-printf", "no-function",
        "line-splice"])
def test_fallback_cases_match_cold_parse(rest, shares, records,
                                         empty_table):
    recorder = _pp(_HEADERS + _MAIN)
    preamble = _parse(recorder, "recorder.c")[1].preamble
    assert len(empty_table) == 1
    # Built after preprocessing, which would have removed the splice.
    text = recorder[:recorder.index("int main(void)")] + rest
    shared = _parse(text, "case.c")
    cold = _cold_parse(text, "case.c")
    _assert_same_parse("case.c", shared, cold)
    unit, cold_unit = shared[1], cold[1]
    assert (unit.preamble is preamble) is shares
    assert _annotations(unit, _bind(unit)) == \
        _annotations(cold_unit, _bind(cold_unit))
    # A fallback parses from byte 0 and records like any cold parse:
    # the struct is complete before its first function, so that longer
    # preamble is safe to share; the printf definition is not.
    assert len(empty_table) == 1 + records


def test_a_recording_parse_that_would_write_into_its_preamble_records_nothing(
        empty_table):
    text = _pp(_HEADERS + "static int helper(void);\n"
               "static int helper(void)\n{\n    return 1;\n}\n" + _MAIN)
    unit = _parse(text, "proto.c")[1]
    assert unit.preamble is None
    assert len(empty_table) == 0


def test_preambles_lex_from_offset_zero_once(empty_table, monkeypatch):
    names = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    texts = [_pp(_HEADERS + f"static int {name}(void)\n{{\n"
                 f"    return {i};\n}}\n" + _MAIN, f"{name}.c")
             for i, name in enumerate(names)]
    starts = []
    tokenize = Lexer.tokenize

    def spy(self, start=0, line=1):
        starts.append(start)
        return tokenize(self, start, line)

    monkeypatch.setattr(Lexer, "tokenize", spy)
    units = [_parse(text, f"{name}.c")[1]
             for name, text in zip(names, texts)]
    preamble = units[0].preamble
    assert all(unit.preamble is preamble for unit in units)
    assert starts == [0] + [len(preamble.text)] * (len(texts) - 1)


def test_repro_cache_0_neither_records_nor_shares(empty_table, monkeypatch):
    text = _pp(_HEADERS + _MAIN)
    _parse(text, "a.c")
    assert len(empty_table) == 1
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert _parse(text, "b.c")[1].preamble is None
    empty_table.clear()
    _parse(text, "c.c")
    assert len(empty_table) == 0
