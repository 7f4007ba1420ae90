"""The one process-pool fan-out behind campaigns, chaos sweeps and batches.

Every caller hands :func:`ordered_map` tasks that are isolated by
construction — pre-drawn cases, seeded plans, seeded evidence items —
so the results are independent of worker count and scheduling, and the
pool is an optimization, never a semantic.  Results come back in task
order whichever path runs.

Telemetry is process-global and off in a fresh worker, so when the
parent is collecting spans each task runs under a private collector
whose records ship back with the result; the parent re-ingests them in
task order with :meth:`~repro.obs.TraceCollector.adopt`, so the merged
trace equals the serial one modulo span ids.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import TypeVar

from repro import obs

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(max_workers: int | None, n_tasks: int) -> int:
    """Resolve a ``max_workers`` argument to an effective worker count.

    ``None`` means one worker per CPU, capped at the task count; anything
    below 2 means run serially in-process.
    """
    if max_workers is None:
        return min(n_tasks, os.cpu_count() or 1)
    return max(1, max_workers)


def _traced_call(
    job: tuple[Callable[[T], R], T],
) -> tuple[R, list[dict[str, object]]]:
    """Run one task in a worker under a private trace collector."""
    fn, task = job
    collector = obs.enable(obs.TraceCollector())
    try:
        result = fn(task)
    finally:
        obs.disable()
    return result, collector.export_records()


def ordered_map(
    fn: Callable[[T], R], tasks: Sequence[T], workers: int
) -> list[R]:
    """``[fn(task) for task in tasks]``, fanned out over ``workers``.

    ``fn`` must be a module-level function (the pool pickles it).  Tasks
    ship in chunks of ``len(tasks) // (workers * 8)``: cheap tasks would
    otherwise drown in per-task IPC, and the pool still preserves order.
    """
    if workers < 2:
        return [fn(task) for task in tasks]
    chunksize = max(1, len(tasks) // (workers * 8))
    collector = obs.OBS.collector if obs.OBS.enabled else None
    with ProcessPoolExecutor(max_workers=workers) as pool:
        if collector is None:
            return list(pool.map(fn, tasks, chunksize=chunksize))
        traced = list(
            pool.map(
                _traced_call,
                [(fn, task) for task in tasks],
                chunksize=chunksize,
            )
        )
    for __, records in traced:
        collector.adopt(records)
    return [result for result, __ in traced]
