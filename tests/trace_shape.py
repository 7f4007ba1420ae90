"""Span-shape comparison shared by the serial-vs-pool trace tests.

A pooled run's merged trace must equal the serial trace modulo span ids
(renumbered on adoption) and process-global serial ids (evidence,
instrument, docket counters restart per worker process).
"""

#: Attribute/audit fields whose values are process-global serials or
#: per-process fingerprint tuples; equal runs differ here by design.
SERIAL_FIELDS = {"instrument_id", "docket_id", "evidence_id", "action_fp"}


def normalized(records):
    """Span shape minus ids: what must be equal across serial/parallel."""
    return [
        (
            record.name,
            record.sim_time,
            {k: v for k, v in record.attrs.items() if k not in SERIAL_FIELDS},
            {k: v for k, v in record.audit.items() if k not in SERIAL_FIELDS},
        )
        for record in records
    ]


def parent_names(records):
    """Each span's parent span name (``None`` for roots), in record order."""
    names = {record.span_id: record.name for record in records}
    return [names.get(record.parent_id) for record in records]
