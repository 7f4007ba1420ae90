"""Out-of-process benchmark of ``repro serve``.

Run it from the root of a checkout::

    python3 servebench/run.py --workload serve_hot --seed 7 --seconds 10 --trace 0

See ``servebench/README.md`` for the workloads, the metrics and how each
per-layer number relates to the end-to-end ones.
"""
