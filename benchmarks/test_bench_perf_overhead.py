"""Bench: RQ3 — runtime overhead of the transformed corpus programs.

The paper reports "minimal performance overhead" after applying SLR and
STR on all targets of two programs; we assert the deterministic step-count
overhead stays small and the output is unchanged.  The pipeline's own
throughput is measured by ``python -m bench run`` (see bench/README.md).
"""

from repro.eval.perf import compute_perf


def test_perf_overhead(benchmark):
    result = benchmark.pedantic(
        lambda: compute_perf(("zlib", "libpng"), repeat=1),
        rounds=1, iterations=1)
    for row in result.rows:
        assert row.output_identical, row.program
        # "Minimal" overhead: well under 2x; measured ~3-13%.
        assert row.step_overhead_pct < 50.0, \
            (row.program, row.step_overhead_pct)


def test_perf_all_programs_output_identical(benchmark):
    result = benchmark.pedantic(
        lambda: compute_perf(("GMP", "libtiff"), repeat=1),
        rounds=1, iterations=1)
    for row in result.rows:
        assert row.output_identical, row.program
