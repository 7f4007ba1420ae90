"""The one process-pool fan-out: worker counts, order, and traces.

Campaigns, chaos sweeps and workflow batches all fan out through
:mod:`repro.parallel`, so serial == pool is proven here once for every
caller: same results in task order, and — with telemetry on — the same
spans, because worker records are adopted by the parent in task order.
"""

import operator

import pytest

from repro import obs, parallel
from repro.faults.chaos import run_chaos
from repro.investigation.campaign import CampaignConfig, run_campaign
from repro.parallel import ordered_map, resolve_workers
from repro.workflow.parallel import run_batch
from trace_shape import normalized, parent_names


class TestResolveWorkers:
    @pytest.mark.parametrize(
        ("max_workers", "n_tasks", "cpus", "expected"),
        [
            pytest.param(3, 100, 8, 3, id="explicit"),
            pytest.param(4, 8, 8, 4, id="explicit-at-cpus"),
            pytest.param(1, 100, 8, 1, id="one-is-serial"),
            pytest.param(0, 100, 8, 1, id="zero-is-serial"),
            pytest.param(-4, 25, 8, 1, id="negative-is-serial"),
            pytest.param(None, 1, 8, 1, id="auto-one-task"),
            pytest.param(None, 2, 8, 2, id="auto-caps-at-tasks"),
            pytest.param(None, 10_000, 8, 8, id="auto-caps-at-cpus"),
            pytest.param(None, 10_000, None, 1, id="auto-unknown-cpus"),
        ],
    )
    def test_rule(self, monkeypatch, max_workers, n_tasks, cpus, expected):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
        assert resolve_workers(max_workers, n_tasks) == expected


class TestOrderedMap:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_task_order(self, workers):
        tasks = list(range(40))
        assert ordered_map(operator.neg, tasks, workers) == [
            -task for task in tasks
        ]


def _campaign(workers, tmp_path):
    config = CampaignConfig(n_cases=12, comply_probability=0.5, seed=21)
    run_campaign(config, max_workers=workers)


def _chaos(workers, tmp_path):
    run_chaos(seed=321, n_plans=2, scenes="4,6,18", max_workers=workers)


def _batch(workers, tmp_path):
    run_batch(
        "mailstore-triage",
        n_items=3,
        seed=50,
        journal_dir=tmp_path / f"workers-{workers}",
        max_workers=workers,
    )


def _traced(run, workers, tmp_path):
    obs.reset()
    collector = obs.enable(obs.TraceCollector())
    try:
        run(workers, tmp_path)
    finally:
        obs.disable()
    return collector.spans


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(_campaign, id="campaign"),
        pytest.param(_chaos, id="chaos"),
        pytest.param(_batch, id="workflow-batch"),
    ],
)
def test_pooled_trace_equals_serial_trace(run, tmp_path):
    serial = _traced(run, 1, tmp_path)
    pooled = _traced(run, 2, tmp_path)
    assert len(serial) > 1
    assert normalized(pooled) == normalized(serial)
    assert parent_names(pooled) == parent_names(serial)
    ids = [record.span_id for record in pooled]
    assert len(set(ids)) == len(ids)
