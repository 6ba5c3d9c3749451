"""Hash-seed determinism of the analysis outputs.

Points-to targets, alias sets, and reaching definitions must render
identically whatever ``PYTHONHASHSEED`` the interpreter started with —
a raw ``set`` leaking into any user-visible ordering shows up here as a
run-to-run diff.  Each case runs the same probe in fresh interpreters
under different seeds (for both the fast path and the legacy reference
solvers) and compares stdout byte for byte.
"""

import os
import subprocess
import sys

import pytest

_PROBE = r"""
import sys
from repro.analysis import bind
from repro.analysis.alias import AliasAnalysis
from repro.analysis.cfg import build_all_cfgs
from repro.analysis.pointsto import PointsToAnalysis
from repro.analysis.reaching import ReachingDefinitions
from repro.cfront.parser import parse_translation_unit
from repro.corpus.synth import pointer_stress_source

src = pointer_stress_source(n_objects=10, n_pointers=20, cycle_every=7)
unit = parse_translation_unit(src, "probe.c")
table = bind(unit)
pointsto = PointsToAnalysis(unit, table)
for symbol in pointsto.pointer_symbols():
    targets = [node.index for node in pointsto.points_to(symbol)]
    print("pts", symbol.name, targets)
aliases = AliasAnalysis(pointsto, table)
for group in aliases.alias_sets():
    print("alias", [s.name for s in group])
for name, cfg in sorted(build_all_cfgs(unit).items()):
    reaching = ReachingDefinitions(cfg)
    for node in cfg.nodes:
        print("in", name, node.nid,
              [d.index for d in reaching.reaching_in(node)])
"""


def _run_probe(seed: str, fast: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (env.get("PYTHONPATH"),) if p] + [_src_dir()])
    env["REPRO_ANALYSIS_FAST"] = fast
    proc = subprocess.run([sys.executable, "-c", _PROBE],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _src_dir() -> str:
    import repro
    return os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))


@pytest.mark.parametrize("fast", ["1", "0"])
def test_analysis_output_is_hashseed_invariant(fast):
    baseline = _run_probe("0", fast)
    assert "pts" in baseline and "alias" in baseline
    for seed in ("1", "4242"):
        assert _run_probe(seed, fast) == baseline, \
            f"seed {seed} changed analysis output (fast={fast})"


def test_fast_and_legacy_render_identically():
    # The two solver families must not just agree on sets but on the
    # rendered ordering, so differential comparisons can diff text.
    assert _run_probe("0", "1") == _run_probe("0", "0")
