"""``repro serve-bench``: load-generate the ruling server and gate it.

Replays a seeded action corpus against a live server — an in-process
one spawned on an ephemeral loopback port by default, or any server
reachable via ``--connect host:port`` (CI starts ``repro serve``
separately and points the bench at it).  Produces ``BENCH_serve.json``
with:

* **sustained throughput** (rulings/s) for a cold first replay and a
  hot (cache-warm) replay;
* **round-trip latency** p50/p95/p99 measured client-side under
  pipelined load;
* **shard balance** (actions per shard, max/mean ratio) and the
  aggregate cache hit rate, read from the server's ``stats`` op;
* a **metrics-endpoint check** that ``/metrics`` serves Prometheus text
  containing the per-shard cache and action counters and the serve
  histograms while the server is under (post-)load;
* the **differential gate**: every ruling the server returned on the
  cold replay, re-rendered through the canonical encoder, must be
  *byte-identical* to in-process ``evaluate_many()`` over the same
  corpus.  Any mismatch fails the run (nonzero exit, same pattern as
  ``repro bench``).

The gate is the point: sharding, batching and the wire codec are all
allowed to change *how fast* an answer arrives, never *what* the answer
is.
"""

from __future__ import annotations

import json
import time
import urllib.request
from collections import deque

from repro.core.cache import RulingCache
from repro.core.engine import ComplianceEngine
from repro.ledger.serialize import canonical_json, ruling_to_dict
from repro.serve.client import ServeClient
from repro.serve.harness import ServerThread
from repro.serve.server import ServerConfig
from repro.workloads import action_corpus

#: Full run: the 10k-action corpus the engine differential suite seeds.
FULL_CORPUS = (10_000, 7)
#: Quick run: the 5k-action golden corpus ``repro bench`` seeds.
QUICK_CORPUS = (5_000, 99)

DEFAULT_BATCH_SIZE = 250
DEFAULT_PIPELINE_DEPTH = 8


def _percentiles_us(samples: list[float]) -> dict[str, float]:
    """Exact client-side percentiles, reported in microseconds."""
    if not samples:
        return {"p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0, "max_us": 0.0}
    ordered = sorted(samples)
    last = len(ordered) - 1

    def at(q: float) -> float:
        return ordered[min(last, int(q * len(ordered)))] * 1e6

    return {
        "p50_us": at(0.50),
        "p95_us": at(0.95),
        "p99_us": at(0.99),
        "max_us": ordered[-1] * 1e6,
    }


def _replay(
    client: ServeClient,
    batches: list[list],
    depth: int,
    target_rps: float | None,
    batch_size: int,
    collect: list[str] | None,
) -> tuple[float, list[float]]:
    """Drive one pipelined replay; returns (wall_seconds, round_trips).

    ``collect`` (when given) accumulates every returned ruling as its
    canonical JSON string, in corpus order, for the differential gate.
    """
    pending: deque[tuple[int, float]] = deque()
    round_trips: list[float] = []

    def finish_one() -> None:
        response = client.read_response()
        request_id, sent_at = pending.popleft()
        round_trips.append(time.perf_counter() - sent_at)
        if not response.get("ok"):
            raise RuntimeError(
                f"request {request_id} failed: {response.get('error')}"
            )
        if response.get("id") != request_id:
            raise RuntimeError(
                f"response order violated: expected id {request_id}, "
                f"got {response.get('id')}"
            )
        if collect is not None:
            for ruling in response["rulings"]:
                collect.append(canonical_json(ruling))

    interval = (
        batch_size / target_rps if target_rps and target_rps > 0 else 0.0
    )
    started = time.perf_counter()
    next_send = started
    for index, batch in enumerate(batches):
        while len(pending) >= depth:
            finish_one()
        if interval:
            now = time.perf_counter()
            if now < next_send:
                time.sleep(next_send - now)
            next_send += interval
        pending.append((index, time.perf_counter()))
        client.send_rule(index, batch)
    while pending:
        finish_one()
    return time.perf_counter() - started, round_trips


def _check_metrics_endpoint(address: tuple[str, int] | None) -> dict:
    """Scrape ``/metrics`` and verify the serve instruments are present."""
    if address is None:
        return {"checked": False, "ok": True}
    host, port = address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=10
        ) as response:
            text = response.read().decode("utf-8")
    except OSError as exc:
        return {"checked": True, "ok": False, "error": str(exc)}
    required = (
        'repro_ruling_cache_hits{cache="shard0"}',
        'repro_serve_shard_actions_total{shard="0"}',
        "repro_serve_round_trip_seconds_bucket",
        "repro_serve_ruling_seconds_bucket",
    )
    missing = [marker for marker in required if marker not in text]
    return {
        "checked": True,
        "ok": not missing,
        "bytes": len(text),
        "missing": missing,
    }


def run_serve_bench(
    quick: bool = False,
    connect: str | None = None,
    n_shards: int = 4,
    batch_size: int = DEFAULT_BATCH_SIZE,
    depth: int = DEFAULT_PIPELINE_DEPTH,
    target_rps: float | None = None,
    out: str | None = "BENCH_serve.json",
) -> tuple[dict, bool]:
    """Run the serve load test + differential gate.

    Returns:
        ``(report, ok)`` — ``ok`` is ``False`` on any differential
        mismatch, ordering violation, or missing metrics instrument.
    """
    corpus_size, seed = QUICK_CORPUS if quick else FULL_CORPUS
    corpus = action_corpus(corpus_size, seed=seed)
    batches = [
        corpus[i : i + batch_size]
        for i in range(0, len(corpus), batch_size)
    ]

    server_thread: ServerThread | None = None
    if connect is None:
        server_thread = ServerThread(
            ServerConfig(port=0, metrics_port=0, n_shards=n_shards)
        )
        server_thread.start()
        assert server_thread.address is not None
        host, port = server_thread.address
        metrics_address = server_thread.metrics_address
    else:
        host, _, port_text = connect.partition(":")
        host, port = host or "127.0.0.1", int(port_text)
        metrics_address = None

    try:
        served: list[str] = []
        with ServeClient(host, port) as client:
            cold_wall, cold_round_trips = _replay(
                client, batches, depth, target_rps, batch_size, served
            )
            hot_wall, hot_round_trips = _replay(
                client, batches, depth, target_rps, batch_size, None
            )
            stats = client.stats()["stats"]
        metrics_check = _check_metrics_endpoint(metrics_address)
    finally:
        if server_thread is not None:
            server_thread.stop()

    engine = ComplianceEngine(cache=RulingCache(maxsize=2 * len(corpus)))
    reference = [
        canonical_json(ruling_to_dict(ruling))
        for ruling in engine.evaluate_many(corpus)
    ]
    mismatches = sum(
        1 for got, want in zip(served, reference) if got != want
    ) + abs(len(served) - len(reference))

    per_shard = [shard["actions_ruled"] for shard in stats["shards"]]
    mean_actions = sum(per_shard) / len(per_shard) if per_shard else 0.0
    balance = (
        max(per_shard, default=0) / mean_actions if mean_actions else 1.0
    )

    ok = mismatches == 0 and metrics_check["ok"]
    report = {
        "meta": {
            "generated_unix": time.time(),
            "quick": quick,
            "corpus": {"actions": corpus_size, "seed": seed},
            "batch_size": batch_size,
            "pipeline_depth": depth,
            "target_rps": target_rps,
            "connect": connect,
            "n_shards": stats.get("n_shards", n_shards),
        },
        "cold": {
            "wall_seconds": cold_wall,
            "rulings_per_second": len(corpus) / cold_wall,
            "round_trip": _percentiles_us(cold_round_trips),
        },
        "hot": {
            "wall_seconds": hot_wall,
            "rulings_per_second": len(corpus) / hot_wall,
            "round_trip": _percentiles_us(hot_round_trips),
        },
        "shards": {
            "actions_per_shard": per_shard,
            "balance_max_over_mean": balance,
        },
        "cache": {
            "hits": stats["cache_hits"],
            "misses": stats["cache_misses"],
            "evictions": stats["cache_evictions"],
            "hit_rate": stats["hit_rate"],
        },
        "metrics_endpoint": metrics_check,
        "differential": {
            "compared": len(reference),
            "mismatches": mismatches,
            "ok": mismatches == 0,
        },
        "ok": ok,
    }
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report, ok


def render_serve_report(report: dict) -> str:
    """Human-readable summary of a serve-bench report."""
    meta = report["meta"]
    cold, hot = report["cold"], report["hot"]
    lines = [
        "repro serve-bench — sharded ruling server",
        (
            f"  corpus: {meta['corpus']['actions']} actions "
            f"(seed {meta['corpus']['seed']}), batches of "
            f"{meta['batch_size']}, pipeline depth {meta['pipeline_depth']}"
        ),
        (
            f"  server: {meta['n_shards']} shards"
            + (f", connected to {meta['connect']}" if meta["connect"] else "")
        ),
        (
            f"  cold: {cold['rulings_per_second']:,.0f} rulings/s "
            f"(p50 {cold['round_trip']['p50_us']:,.0f} us, "
            f"p99 {cold['round_trip']['p99_us']:,.0f} us)"
        ),
        (
            f"  hot:  {hot['rulings_per_second']:,.0f} rulings/s "
            f"(p50 {hot['round_trip']['p50_us']:,.0f} us, "
            f"p99 {hot['round_trip']['p99_us']:,.0f} us)"
        ),
        (
            f"  shards: {report['shards']['actions_per_shard']} "
            f"(max/mean {report['shards']['balance_max_over_mean']:.2f}), "
            f"cache hit rate {report['cache']['hit_rate']:.1%}"
        ),
        (
            f"  metrics endpoint: "
            f"{'ok' if report['metrics_endpoint']['ok'] else 'FAILED'}"
        ),
        (
            f"  differential: {report['differential']['compared']} rulings "
            f"compared, {report['differential']['mismatches']} mismatches "
            f"-> {'byte-identical' if report['differential']['ok'] else 'FAILED'}"
        ),
        f"  overall: {'ok' if report['ok'] else 'FAILED'}",
    ]
    return "\n".join(lines)
