"""Mutational corpus synthesizer for batch-scale evaluation.

Real corpora top out at a few hundred files; proving the pipeline at
10k-file scale needs a population whose ground truth is still known
exactly.  This module mass-produces single-file C programs by
cross-breeding buffer-handling idioms from the mini corpus (string
copies into fixed windows, memcpy of scan lines, index loops over
limbs) with the SAMATE flow-variant machinery: each mutant plants one
overflowing — or provably safe — write whose dst size and write length
are chosen by construction, then wraps the flawed block in one of the
18 Juliet-style control-flow variants.

Every mutant's label is checkable against the bounds-checked VM: an
``overflow`` mutant must trap with a memory fault, a ``safe`` mutant
must run to a clean exit 0.  ``synthesize(..., validate=True)`` keeps
only mutants the oracle agrees with (disagreement is a bug in the
builders and raises after an attempt cap).  Generation is driven
entirely by ``random.Random(seed)``, so the same (count, seed) pair is
byte-for-byte reproducible across runs and machines.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from random import Random

from ..core.batch import SourceProgram
from ..samate.flows import FLOW_VARIANTS, FlowVariant, _indent

_HEADERS = "#include <stdio.h>\n#include <string.h>\n#include <stdlib.h>\n"

#: Buffer / function name pools, flavoured after the mini corpus so the
#: synthesized population exercises the same naming shapes the analyses
#: see on real files.
_BUF_NAMES = ("window", "chunk_buf", "row_bytes", "limb_data",
              "scan_line", "strip_buf", "name_buf", "dict_buf",
              "palette", "field_buf")
_SRC_NAMES = ("payload", "packet", "segment", "residue", "run_data",
              "header_bytes", "sample_row")
_FN_NAMES = ("inflate_copy", "png_row_fill", "tiff_strip_pack",
             "gmp_limb_store", "adler_feed", "crc_mix", "idat_stash",
             "deflate_spill", "palette_load", "field_splice")

MUTANT_KINDS = ("strcpy", "strcat", "memcpy", "index_loop", "off_by_one")


@dataclass(frozen=True)
class SynthMutant:
    """One synthesized single-file C program with known ground truth."""

    name: str               # stem, also the .c filename without suffix
    kind: str               # which builder produced it (MUTANT_KINDS)
    flow_vid: int           # Juliet-style flow variant id (1..18)
    flow_name: str
    label: str              # "overflow" | "safe"
    dst_size: int           # destination buffer size in bytes
    write_len: int          # bytes the flawed block writes (incl. NUL)
    source: str             # complete compilable C text

    @property
    def filename(self) -> str:
        return self.name + ".c"

    @property
    def expected_overflow(self) -> bool:
        return self.label == "overflow"


def _literal(length: int, phase: int) -> str:
    """A C string literal of exactly ``length`` visible characters."""
    return '"' + "".join(chr(ord("A") + (phase + i) % 26)
                         for i in range(length)) + '"'


# --------------------------------------------------------------------------
# Mutant-kind builders.  Each returns (decls, stmts, dst_size, write_len)
# where write_len counts every byte the flawed block stores into dst
# (including the terminating NUL for string sinks).  Overflow holds
# exactly when write_len > dst_size for forward writes; the off_by_one
# builder also plants underwrites, where the single store lands below
# the buffer instead.

def _build_strcpy(rng: Random, dst: str, src: str, overflow: bool):
    d = rng.randrange(8, 41)
    n = rng.randrange(d, d + 8) if overflow else rng.randrange(1, d)
    decls = (f"char {dst}[{d}];\n"
             f"const char *{src} = {_literal(n, rng.randrange(26))};")
    stmts = (f"strcpy({dst}, {src});\n"
             f'printf("copied %d\\n", (int)strlen({dst}));')
    return decls, stmts, d, n + 1


def _build_strcat(rng: Random, dst: str, src: str, overflow: bool):
    d = rng.randrange(8, 41)
    len_a = rng.randrange(1, d - 1)          # prefix always fits
    room = d - 1 - len_a                     # growth that still fits
    if overflow:
        len_b = rng.randrange(room + 1, room + 8)
    else:
        len_b = rng.randrange(0, room + 1)
    decls = (f"char {dst}[{d}];\n"
             f"const char *{src} = {_literal(len_b, rng.randrange(26))};")
    stmts = (f"strcpy({dst}, {_literal(len_a, rng.randrange(26))});\n"
             f"strcat({dst}, {src});\n"
             f'printf("grown %d\\n", (int)strlen({dst}));')
    return decls, stmts, d, len_a + len_b + 1


def _build_memcpy(rng: Random, dst: str, src: str, overflow: bool):
    d = rng.randrange(8, 41)
    n = rng.randrange(d + 1, d + 9) if overflow else rng.randrange(1, d + 1)
    s = n + rng.randrange(0, 4)              # src always holds n bytes
    decls = (f"unsigned char {dst}[{d}];\n"
             f"unsigned char {src}[{s}];\n"
             "int mc_i;")
    stmts = (f"for (mc_i = 0; mc_i < {s}; mc_i++) {{\n"
             f"    {src}[mc_i] = (unsigned char)(mc_i + 1);\n"
             "}\n"
             f"memcpy({dst}, {src}, {n});\n"
             f'printf("moved %u\\n", (unsigned){dst}[0]);')
    return decls, stmts, d, n


def _build_index_loop(rng: Random, dst: str, src: str, overflow: bool):
    d = rng.randrange(8, 41)
    b = rng.randrange(d + 1, d + 9) if overflow else rng.randrange(1, d + 1)
    decls = (f"char {dst}[{d}];\n"
             "int il_i;")
    stmts = (f"for (il_i = 0; il_i < {b}; il_i++) {{\n"
             f"    {dst}[il_i] = (char)('a' + (il_i % 26));\n"
             "}\n"
             f'printf("last %c\\n", {dst}[{b - 1}]);')
    return decls, stmts, d, b


def _build_off_by_one(rng: Random, dst: str, src: str, overflow: bool):
    d = rng.randrange(8, 41)
    if overflow:
        idx = d if rng.randrange(2) else -1  # one past / one below
    else:
        idx = d - 1 if rng.randrange(2) else 0
    decls = (f"char {dst}[{d}];\n"
             f"int edge = {idx};\n"
             "int ob_i;")
    stmts = (f"for (ob_i = 0; ob_i < {d}; ob_i++) {{\n"
             f"    {dst}[ob_i] = '.';\n"
             "}\n"
             f"{dst}[edge] = 'X';\n"
             f'printf("edge %d\\n", edge);')
    return decls, stmts, d, 1


_BUILDERS = {
    "strcpy": _build_strcpy,
    "strcat": _build_strcat,
    "memcpy": _build_memcpy,
    "index_loop": _build_index_loop,
    "off_by_one": _build_off_by_one,
}


def _render(name: str, kind: str, flow: FlowVariant, label: str,
            decls: str, stmts: str) -> str:
    helpers = (flow.helpers + "\n") if flow.helpers else ""
    sink = f"sink_{kind}"
    return (f"/* synthesized mutant {name}: {kind} {label},"
            f" flow {flow.name} */\n"
            + _HEADERS + "\n"
            + helpers
            + f"static void {sink}(void)\n{{\n"
            + _indent(decls) + "\n"
            + _indent(flow.apply(stmts)) + "\n"
            + "}\n\n"
            + "int main(void)\n{\n"
            + f"    {sink}();\n"
            + f'    printf("{name} ok\\n");\n'
            + "    return 0;\n"
            + "}\n")


def _make_mutant(rng: Random, seed: int, index: int) -> SynthMutant:
    kind = rng.choice(MUTANT_KINDS)
    flow = rng.choice(FLOW_VARIANTS)
    overflow = bool(rng.randrange(2))
    dst = rng.choice(_BUF_NAMES)
    src = rng.choice(_SRC_NAMES)
    rng.choice(_FN_NAMES)                    # reserved draw: name flavour
    label = "overflow" if overflow else "safe"
    name = f"synth_{seed}_{index:05d}_{kind}_f{flow.vid:02d}"
    decls, stmts, d, wlen = _BUILDERS[kind](rng, dst, src, overflow)
    return SynthMutant(name=name, kind=kind, flow_vid=flow.vid,
                       flow_name=flow.name, label=label, dst_size=d,
                       write_len=wlen,
                       source=_render(name, kind, flow, label, decls,
                                      stmts))


def oracle_agrees(mutant: SynthMutant) -> bool:
    """Check the mutant's planted label against the bounds-checked VM.

    ``overflow`` mutants must trap with a memory fault; ``safe``
    mutants must run to a clean exit 0.
    """
    import repro

    text = repro.preprocess(mutant.source, filename=mutant.filename)
    result = repro.run_c(text, stdin=b"")
    if mutant.expected_overflow:
        return result.memory_trapped
    return result.ok and result.exit_code == 0


def synthesize(count: int, seed: int, *,
               validate: bool = True) -> list[SynthMutant]:
    """Generate ``count`` mutants, deterministic in ``(count, seed)``.

    With ``validate`` (the default) every mutant is executed in the VM
    and must agree with its planted label; a disagreement means a
    builder bug and raises ``RuntimeError`` after a bounded number of
    rejected attempts rather than silently shipping mislabeled ground
    truth.
    """
    rng = Random(seed)
    mutants: list[SynthMutant] = []
    attempts = 0
    cap = max(32, count * 4)
    while len(mutants) < count:
        if attempts >= cap:
            raise RuntimeError(
                f"synthesizer produced {attempts - len(mutants)} mutants "
                f"the VM oracle disagreed with (seed={seed})")
        mutant = _make_mutant(rng, seed, len(mutants))
        attempts += 1
        if validate and not oracle_agrees(mutant):
            continue
        mutants.append(mutant)
    return mutants


def build_program(count: int, seed: int, *, validate: bool = False,
                  name: str | None = None) -> SourceProgram:
    """Package a synthesized population as a batch-ready program."""
    mutants = synthesize(count, seed, validate=validate)
    return SourceProgram(
        name=name or f"synth-{seed}",
        files={m.filename: m.source for m in mutants})


def manifest(mutants: list[SynthMutant], seed: int, *,
             validated: bool) -> str:
    """Deterministic JSON manifest for a written corpus."""
    entries = [{
        "name": m.name,
        "file": m.filename,
        "kind": m.kind,
        "flow": m.flow_name,
        "flow_vid": m.flow_vid,
        "label": m.label,
        "dst_size": m.dst_size,
        "write_len": m.write_len,
        "sha256": hashlib.sha256(m.source.encode()).hexdigest(),
    } for m in mutants]
    payload = {"seed": seed, "count": len(mutants),
               "validated": validated, "mutants": entries}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_corpus(mutants: list[SynthMutant], out_dir: str, seed: int, *,
                 validated: bool) -> str:
    """Write every mutant plus ``manifest.json``; returns manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    for m in mutants:
        with open(os.path.join(out_dir, m.filename), "w") as fh:
            fh.write(m.source)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        fh.write(manifest(mutants, seed, validated=validated))
    return path


def pointer_stress_source(n_objects: int = 120, n_pointers: int = 240,
                          cycle_every: int = 17) -> str:
    """A synthetic unit stressing the points-to solver: copy chains of
    ``n_pointers`` single-level pointers with a back-edge (cycle) every
    ``cycle_every`` steps, plus double-pointer loads and stores.  Fully
    deterministic — no randomness — so the fast and reference solvers
    can be compared on it run to run."""
    lines = [f"int o{i};" for i in range(n_objects)]
    lines += [f"int *p{i};" for i in range(n_pointers)]
    lines += [f"int **pp{i};" for i in range(n_pointers // 8)]
    body = []
    for i in range(n_pointers):
        if i < n_objects:
            body.append(f"p{i} = &o{i};")
        if i > 0:
            body.append(f"p{i} = p{i - 1};")
        if i % cycle_every == 0 and i > cycle_every:
            body.append(f"p{i - cycle_every} = p{i};")
    for i in range(n_pointers // 8):
        body.append(f"pp{i} = &p{i * 7 % n_pointers};")
        body.append(f"*pp{i} = p{(i * 13 + 5) % n_pointers};")
        body.append(f"p{(i * 11 + 3) % n_pointers} = *pp{i};")
    return ("\n".join(lines) + "\nvoid stress(void) {\n"
            + "\n".join("    " + stmt for stmt in body) + "\n}\n")
