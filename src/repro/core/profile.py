"""Stage-level profiler for the transformation pipeline.

BENCH numbers used to be a single opaque wall figure; this module breaks
a batch run down into per-file, per-stage timings — preprocess / parse /
analyze / slr / str / verify / validate — so cache wins and regressions
are attributable to a stage.

Instrumentation is collector-scoped and exclusive:

* the batch driver opens a :func:`collect` context per file; within it,
  pipeline code brackets work with :func:`stage`;
* nested stages subtract their wall time from the enclosing stage (the
  ``parse`` done inside an SLR run is charged to *parse*, not *slr*), so
  a file's stage times sum to its measured wall time;
* with no active collector, :func:`stage` is a no-op — library callers
  outside a batch pay one list check.

Fork-pool workers time their own stages and ship the per-file dict back
on the :class:`~repro.core.batch.FileTransformReport`, so the rendered
table is identical at any worker count.  ``repro batch --profile``
renders the breakdown.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: Render/report order for the pipeline stages.  ``analyze:*`` rows are
#: the lazily built analysis passes (charged when first queried, which
#: may be inside slr/str — the exclusive accounting attributes them to
#: the analysis, not the transformation that happened to trigger them).
STAGES = ("preprocess", "parse", "analyze", "analyze:cfg",
          "analyze:reaching", "analyze:pointsto", "analyze:alias",
          "analyze:dependence", "slr", "str", "verify", "validate")


class _Collector:
    __slots__ = ("filename", "times", "frames")

    def __init__(self, filename: str):
        self.filename = filename
        self.times: dict[str, float] = {}
        self.frames: list[float] = []      # child wall time per open stage


_ACTIVE: list[_Collector] = []


@contextmanager
def collect(filename: str):
    """Collect stage timings for one file; yields the times dict."""
    collector = _Collector(filename)
    _ACTIVE.append(collector)
    try:
        yield collector.times
    finally:
        _ACTIVE.pop()


def record(stage_name: str, seconds: float) -> None:
    """Charge ``seconds`` to a stage of the innermost active collector."""
    if _ACTIVE:
        times = _ACTIVE[-1].times
        times[stage_name] = times.get(stage_name, 0.0) + seconds


@contextmanager
def stage(name: str):
    """Time a pipeline stage (exclusive of any nested stages)."""
    if not _ACTIVE:
        yield
        return
    collector = _ACTIVE[-1]
    collector.frames.append(0.0)
    start = time.perf_counter()
    try:
        yield
    finally:
        wall = time.perf_counter() - start
        child = collector.frames.pop()
        collector.times[name] = collector.times.get(name, 0.0) \
            + max(0.0, wall - child)
        if collector.frames:
            collector.frames[-1] += wall


# -------------------------------------------------------------- rendering

def merge_totals(per_file: dict[str, dict[str, float]]
                 ) -> dict[str, float]:
    """Sum per-file stage times into per-stage totals."""
    totals: dict[str, float] = {}
    for times in per_file.values():
        for stage_name, seconds in times.items():
            totals[stage_name] = totals.get(stage_name, 0.0) + seconds
    return totals


def _stage_order(names) -> list[str]:
    known = [s for s in STAGES if s in names]
    extra = sorted(n for n in names if n not in STAGES)
    return known + extra


def render_profile(per_file: dict[str, dict[str, float]],
                   *, per_file_rows: bool = True,
                   max_files: int = 40) -> str:
    """The stage breakdown table(s) for one batch run.

    A per-stage summary (total seconds, share, mean per file) always
    renders; the per-file matrix renders for up to ``max_files`` files
    (the slowest first beyond that would be noise).
    """
    totals = merge_totals(per_file)
    grand = sum(totals.values()) or 1.0
    names = _stage_order(totals)
    lines = ["stage       total s   share    mean ms/file"]
    lines.append("-" * len(lines[0]))
    n_files = max(1, len(per_file))
    for name in names:
        seconds = totals[name]
        lines.append(f"{name:<10}  {seconds:7.3f}  "
                     f"{100.0 * seconds / grand:5.1f}%  "
                     f"{1000.0 * seconds / n_files:12.2f}")
    lines.append(f"{'(all)':<10}  {sum(totals.values()):7.3f}  "
                 f"100.0%  "
                 f"{1000.0 * sum(totals.values()) / n_files:12.2f}")
    out = "\n".join(lines)
    if not per_file_rows or not per_file:
        return out
    shown = sorted(per_file,
                   key=lambda f: -sum(per_file[f].values()))[:max_files]
    width = max(4, *(len(name) for name in shown))
    header = "file".ljust(width) + "".join(
        f"  {name:>10}" for name in names) + f"  {'total ms':>10}"
    rows = [header, "-" * len(header)]
    for filename in sorted(shown):
        times = per_file[filename]
        cells = "".join(f"  {1000.0 * times.get(name, 0.0):10.2f}"
                        for name in names)
        total = 1000.0 * sum(times.values())
        rows.append(filename.ljust(width) + cells + f"  {total:10.2f}")
    dropped = len(per_file) - len(shown)
    if dropped > 0:
        rows.append(f"(… {dropped} more files omitted)")
    return out + "\n\n" + "\n".join(rows)
