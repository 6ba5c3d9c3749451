"""Output checks that need the ``repro`` package or a C compiler.

These run in the benchmark process after the timed repetitions, never
inside one: :func:`fixed_step_ratio` (the paper's RQ3 run-time cost of a
fix, in bounds-checked VM steps) and :func:`native_spot_check`
(AddressSanitizer confirms, outside our own VM, that planted overflows
fault before the fix and not after, and that safe files print the
same).
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from random import Random

NATIVE_TIMEOUT_S = 60


def preprocessed(path: Path) -> str:
    """A raw input file preprocessed the way ``repro batch`` does it."""
    import repro
    return repro.preprocess(path.read_text(encoding="utf-8"), path.name)


def fixed_step_ratio(pairs: list[tuple[str, str]]) -> tuple[float, list]:
    """Geometric mean over programs of fixed-version VM steps over
    original-version steps, each summed over the oracle's benign
    inputs; returns ``(ratio, failed gates)``.  ``pairs`` holds
    ``(original, fixed)`` preprocessed texts of programs that do not
    overflow on benign input."""
    from repro.core.validate import benign_inputs
    from repro.vm.interp import run_source
    logs = []
    gates = []
    for original, fixed in pairs:
        before = after = 0
        for probe in benign_inputs():
            old = run_source(original, stdin=probe.stdin)
            new = run_source(fixed, stdin=probe.stdin)
            if old.fault or new.fault or old.stdout != new.stdout:
                gates.append(f"fixed program diverges on benign input "
                             f"{probe.name!r}: {old!r} vs {new!r}")
            before += old.steps
            after += new.steps
        logs.append(math.log(after / before))
    if not logs:
        return 1.0, ["no fixed safe program to run"]
    return math.exp(sum(logs) / len(logs)), gates[:5]


def _support_sources() -> dict[str, str]:
    from repro.core.glib_shim import GLIB_SHIM_C_SOURCE
    from repro.core.stralloc import STRALLOC_C_SOURCE, STRALLOC_DECLARATIONS
    return {"glib_shim.c": GLIB_SHIM_C_SOURCE,
            "stralloc.c": STRALLOC_C_SOURCE,
            "stralloc.h": STRALLOC_DECLARATIONS}


def native_spot_check(inputs: Path, outputs: Path, labels: dict[str, str],
                      sample: int, seed: int, workdir: Path,
                      tmp: Path) -> tuple[list[str], str | None]:
    """Build a seeded sample (half overflow, half safe) natively under
    AddressSanitizer, original and fixed, and compare.

    Returns ``(failed gates, note)``; the note explains a skipped check
    (no compiler, or no AddressSanitizer runtime).  Leak detection is
    off: STR's stralloc buffers are never freed, by design.
    """
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return [], "native_agree skipped: no cc or gcc on PATH"
    env = {"PATH": os.environ.get("PATH", ""), "TMPDIR": str(tmp),
           "ASAN_OPTIONS": "detect_leaks=0"}
    flags = ["-fsanitize=address", "-O0", "-w"]
    objects = []
    for name, text in _support_sources().items():
        (workdir / name).write_text(text, encoding="utf-8")
    for name in ("glib_shim.c", "stralloc.c"):
        obj = name[:-2] + ".o"
        built = subprocess.run([cc, *flags, "-c", name, "-o", obj],
                               cwd=workdir, env=env, capture_output=True,
                               timeout=NATIVE_TIMEOUT_S)
        if built.returncode != 0:
            return [], ("native_agree skipped: AddressSanitizer build "
                        "failed: " + built.stderr.decode()[-200:])
        objects.append(obj)

    rng = Random(seed)
    chosen = []
    for label in ("overflow", "safe"):
        names = sorted(n for n, lab in labels.items() if lab == label)
        chosen += rng.sample(names, min(len(names), sample // 2))

    def run(name: str, source: Path, tag: str, extra: list[str]):
        binary = workdir / f"{Path(name).stem}.{tag}"
        built = subprocess.run([cc, *flags, str(source), *extra, "-o",
                                str(binary)], cwd=workdir, env=env,
                               capture_output=True, timeout=NATIVE_TIMEOUT_S)
        if built.returncode != 0:
            return None
        return subprocess.run([str(binary)], cwd=workdir, env=env,
                              input=b"", capture_output=True,
                              timeout=NATIVE_TIMEOUT_S)

    def agrees(name: str) -> str | None:
        before = run(name, inputs / name, "orig", [])
        after = run(name, outputs / name, "fixed", objects)
        if before is None or after is None:
            return f"{name}: does not compile natively"
        clean = after.returncode == 0 \
            and b"AddressSanitizer" not in after.stderr
        if labels[name] == "overflow":
            faulted = before.returncode != 0 \
                and b"AddressSanitizer" in before.stderr
            return None if faulted and clean else \
                f"{name}: original faulted={faulted}, fixed clean={clean}"
        same = before.returncode == 0 and before.stdout == after.stdout
        return None if same and clean else \
            f"{name}: safe file changed natively (clean={clean})"

    with ThreadPoolExecutor(max_workers=2) as pool:
        problems = [p for p in pool.map(agrees, chosen) if p]
    return [f"native AddressSanitizer run disagrees: {p}"
            for p in problems], None
