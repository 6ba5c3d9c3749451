"""Differential equivalence: fast-path analyses vs legacy reference.

The fast solvers (``REPRO_ANALYSIS_FAST=1``, the default) must be
observationally identical to the legacy reference solvers kept behind
``REPRO_ANALYSIS_FAST=0`` — same points-to sets, same alias sets, same
reaching definitions, same control dependences, in the same rendered
order.  Each case computes a full analysis signature of a translation
unit under both flags and compares them structurally.

Inputs cover the three populations the pipeline actually sees: the
bundled examples, a stratified SAMATE sample, and the real-world corpus
excerpts.
"""

import pathlib

import pytest

from repro.analysis import bind
from repro.analysis.alias import AliasAnalysis
from repro.analysis.cfg import build_all_cfgs
from repro.analysis.dependence import DependenceAnalysis
from repro.analysis.pointsto import PointsToAnalysis
from repro.analysis.reaching import ReachingDefinitions
from repro.cfront.parser import parse_translation_unit
from repro.core.session import AnalysisSession

_SESSION = AnalysisSession()


def _signature(unit, table, monkeypatch, fast: bool) -> dict:
    """Every observable analysis result of one unit, as plain data."""
    monkeypatch.setenv("REPRO_ANALYSIS_FAST", "1" if fast else "0")
    pointsto = PointsToAnalysis(unit, table, fast=fast)
    aliases = AliasAnalysis(pointsto, table)
    sig = {
        "pts": [(s.uid, [n.index for n in pointsto.points_to(s)])
                for s in pointsto.pointer_symbols()],
        "escaped": sorted(pointsto.escaped),
        "alias_sets": [[s.uid for s in group]
                       for group in aliases.alias_sets()],
        "aliased": [(s.uid, aliases.is_aliased(s))
                    for s in pointsto.pointer_symbols()],
        "reaching": {},
        "control": {},
    }
    for name, cfg in sorted(build_all_cfgs(unit).items()):
        reaching = ReachingDefinitions(cfg)
        dependence = DependenceAnalysis(cfg, reaching)
        sig["reaching"][name] = [
            (node.nid, [d.index for d in reaching.reaching_in(node)])
            for node in cfg.nodes]
        sig["control"][name] = [
            (node.nid,
             sorted(b.nid for b in dependence.control_dependencies(node)))
            for node in cfg.nodes]
    return sig


def _assert_equivalent(text: str, name: str, monkeypatch) -> None:
    unit = parse_translation_unit(text, name)
    table = bind(unit)
    fast = _signature(unit, table, monkeypatch, fast=True)
    legacy = _signature(unit, table, monkeypatch, fast=False)
    for key in fast:
        assert fast[key] == legacy[key], f"{name}: {key} diverged"


def _example_files():
    root = pathlib.Path(__file__).resolve().parent.parent / "examples" / "c"
    return sorted(root.glob("*.c"))


@pytest.mark.parametrize("path", _example_files(),
                         ids=lambda p: p.name)
def test_examples_equivalent(path, monkeypatch):
    text = _SESSION.preprocess(path.read_text(), path.name).text
    _assert_equivalent(text, path.name, monkeypatch)


def _samate_sample(limit: int = 12):
    from repro.eval.samate_runner import sample_program
    program = sample_program(0.05, limit)
    return sorted(program.files.items())


@pytest.mark.parametrize("item", _samate_sample(), ids=lambda i: i[0])
def test_samate_sample_equivalent(item, monkeypatch):
    filename, source = item
    text = _SESSION.preprocess(source, filename).text
    _assert_equivalent(text, filename, monkeypatch)


def _corpus_files():
    from repro.corpus import build_all
    out = []
    for program in build_all().values():
        preprocessed = program.preprocess(_SESSION)
        for filename, text in sorted(preprocessed.files.items()):
            out.append((f"{program.name}/{filename}", text))
    return out


@pytest.mark.parametrize("item", _corpus_files(), ids=lambda i: i[0])
def test_corpus_equivalent(item, monkeypatch):
    filename, text = item
    _assert_equivalent(text, filename, monkeypatch)


def test_pointer_stress_equivalent(monkeypatch):
    from repro.corpus.synth import pointer_stress_source
    _assert_equivalent(pointer_stress_source(n_objects=24, n_pointers=48),
                       "stress.c", monkeypatch)
