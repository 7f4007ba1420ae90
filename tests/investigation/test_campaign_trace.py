"""Trace equivalence for the parallel campaign collector merge.

With telemetry on, a parallel ``run_campaign`` runs each case under a
per-worker collector and the parent adopts the exported records in case
order.  The merged trace must match the serial trace span for span —
modulo span ids (renumbered on adoption) and process-global serial ids
(evidence, instrument, docket counters restart per worker process).
"""

from repro import obs
from repro.investigation.campaign import (
    CampaignConfig,
    case_signature,
    run_campaign,
)
from trace_shape import normalized


def traced_campaign(config, workers):
    obs.reset()
    collector = obs.enable(obs.TraceCollector())
    try:
        summary = run_campaign(config, max_workers=workers)
    finally:
        obs.disable()
    return summary, collector.spans


class TestCollectorMerge:
    def test_merged_worker_traces_equal_serial_trace(self):
        config = CampaignConfig(n_cases=12, comply_probability=0.5, seed=21)
        serial_summary, serial_spans = traced_campaign(config, workers=1)
        parallel_summary, parallel_spans = traced_campaign(config, workers=2)
        assert normalized(serial_spans) == normalized(parallel_spans)
        assert [case_signature(o) for o in serial_summary.outcomes] == [
            case_signature(o) for o in parallel_summary.outcomes
        ]

    def test_adopted_ids_are_unique_and_parents_resolve(self):
        config = CampaignConfig(n_cases=8, comply_probability=0.5, seed=22)
        _, spans = traced_campaign(config, workers=2)
        ids = [record.span_id for record in spans]
        assert len(set(ids)) == len(ids)
        known = set(ids)
        for record in spans:
            assert record.parent_id is None or record.parent_id in known

    def test_every_case_has_a_case_span(self):
        config = CampaignConfig(n_cases=10, comply_probability=0.5, seed=23)
        _, spans = traced_campaign(config, workers=2)
        cases = [r for r in spans if r.name == "campaign.case"]
        assert sorted(r.attrs["case"] for r in cases) == list(range(10))

    def test_untraced_parallel_path_untouched(self):
        # With telemetry off the campaign must take the original worker
        # path and produce no spans at all.
        obs.reset()
        config = CampaignConfig(n_cases=8, comply_probability=0.5, seed=24)
        summary = run_campaign(config, max_workers=2)
        assert obs.OBS.collector is None
        assert len(summary.outcomes) == 8
