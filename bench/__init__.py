"""End-to-end and per-layer benchmark of the ``repro`` pipeline.

``python -m bench run --workload NAME --seed S --seconds T --trace 0|1``
measures one workload and ends with a one-line JSON result; see
``bench/README.md`` for the workloads, metrics and baselines.
"""
