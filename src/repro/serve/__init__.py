"""Compliance-as-a-service: the sharded batching ruling server.

The compliance engine is a fast in-process library, but the ROADMAP's
"millions of users" target needs rulings served from one long-running
process that many consumers share.  This package provides that:

* :mod:`repro.serve.protocol` — the newline-delimited-JSON wire format:
  a complete, loss-free action codec (the inverse problem of the
  ledger's ruling codec) and canonical request/response envelopes, so a
  served ruling is *byte-identical* to the in-process one;
* :mod:`repro.serve.shard` — :class:`~repro.serve.shard.ShardRouter`:
  N shards, each owning a **private** ``RulingCache`` and
  ``ComplianceEngine``, with actions routed by fingerprint hash — no
  shard ever touches another's state, so the hot path has no locks;
* :mod:`repro.serve.server` — the asyncio server: NDJSON batches over
  TCP, each request ruled and answered in turn so responses leave in
  request order and TCP provides the backpressure, an HTTP
  ``/metrics`` endpoint rendering the :mod:`repro.obs` registry
  (per-shard cache and action counters, latency histograms), and
  optional ledger persistence with startup cache priming;
* :mod:`repro.serve.client` — a small blocking client for the gate and
  the tests;
* :mod:`repro.serve.bench` — the ``repro serve-bench`` byte-identity
  gate: replays a seeded corpus cold and then hot against a server,
  writes ``BENCH_serve.json``, and fails unless every served ruling is
  byte-identical to in-process ``evaluate_many()`` and the served
  rulings on the paper's own actions give its conclusions.  It times
  nothing; ``servebench/`` is the serve benchmark.
"""

from repro.serve.protocol import (
    action_from_dict,
    action_to_dict,
    decode_line,
    encode_line,
)
from repro.serve.shard import ShardRouter
from repro.serve.server import RulingServer, ServerConfig

__all__ = [
    "RulingServer",
    "ServerConfig",
    "ShardRouter",
    "action_from_dict",
    "action_to_dict",
    "decode_line",
    "encode_line",
]
