"""``repro serve-bench``: the live-server byte-identity gate.

Replays a seeded action corpus against a live server — an in-process
one spawned on an ephemeral loopback port by default, or any server
reachable via ``--connect host:port`` (CI starts ``repro serve``
separately and points the gate at it) — twice: a cold replay, then a
hot (cache-warm) one.  Writes ``BENCH_serve.json`` with:

* the **differential gate**: every ruling the server returned on *both*
  replays, re-rendered through the canonical encoder, must be
  *byte-identical* to in-process ``evaluate_many()`` over the same
  corpus, with mismatches reported per replay;
* a **metrics-endpoint check** (spawn mode) that ``/metrics`` serves
  Prometheus text containing the per-shard cache and action counters
  and the serve histograms;
* the **paper's conclusions**, read from the rulings the server gives
  for :func:`repro.workloads.paper_corpus` (replayed after the corpus):
  Table 1 at 20/20, IV.A needing no process and IV.B a court order.

Any mismatch, failed or out-of-order response, missing instrument or
missed conclusion fails the run (nonzero exit, same pattern as ``repro
bench``).  Sharding, batching, caching and the wire codec are all
allowed to change *how fast* an answer arrives, never *what* it is.

Nothing here is timed: ``python3 servebench/run.py`` is the serve
benchmark (throughput, round-trip latency, shard balance, cache hit
ratio and a per-layer breakdown, out of process).
"""

from __future__ import annotations

import json
import urllib.request
from collections import deque

from repro.core.cache import RulingCache
from repro.core.engine import ComplianceEngine
from repro.core.enums import ProcessKind
from repro.core.scenarios import build_table1
from repro.ledger.serialize import canonical_json, ruling_to_dict
from repro.serve.client import ServeClient
from repro.serve.harness import ServerThread
from repro.serve.server import ServerConfig
from repro.workloads import action_corpus, paper_corpus

#: Full run: the 10k-action corpus the engine differential suite seeds.
FULL_CORPUS = (10_000, 7)
#: Quick run: the 5k-action golden corpus ``repro bench`` seeds.
QUICK_CORPUS = (5_000, 99)

#: Actions per ``rule`` request.
BATCH_SIZE = 250
#: Requests kept in flight on the one connection.
PIPELINE_DEPTH = 8


def _parse_connect(connect: str) -> tuple[str, int]:
    """``HOST:PORT`` (host defaults to loopback) -> ``(host, port)``."""
    host, colon, port_text = connect.rpartition(":")
    if not (colon and port_text.isdigit() and 0 < int(port_text) < 65536):
        raise ValueError(f"--connect expects HOST:PORT, got {connect!r}")
    return host or "127.0.0.1", int(port_text)


def _replay(client: ServeClient, batches: list[list]) -> list[str]:
    """Drive one pipelined replay over ``client``.

    Returns every ruling the server answered, as its canonical JSON
    string, in corpus order.  A failed or out-of-order response raises
    ``RuntimeError``.
    """
    pending: deque[int] = deque()
    served: list[str] = []

    def finish_one() -> None:
        response = client.read_response()
        request_id = pending.popleft()
        if not response.get("ok"):
            raise RuntimeError(
                f"request {request_id} failed: {response.get('error')}"
            )
        if response.get("id") != request_id:
            raise RuntimeError(
                f"response order violated: expected id {request_id}, "
                f"got {response.get('id')}"
            )
        served.extend(canonical_json(r) for r in response["rulings"])

    for index, batch in enumerate(batches):
        if len(pending) >= PIPELINE_DEPTH:
            finish_one()
        pending.append(index)
        client.send_rule(index, batch)
    while pending:
        finish_one()
    return served


def _paper_conclusions(corpus: list[tuple[str, object]], served: list[str]) -> dict:
    """The paper's conclusions, read from the served rulings on its corpus.

    A technique needs the strongest process any of its actions needs, as
    ``Technique.required_process`` takes it; an unknown name ranks first.
    """
    names: dict[str, list[str]] = {"table1": [], "iv_a": [], "iv_b": []}
    for (section, _), text in zip(corpus, served):
        names[section].append(json.loads(text)["required_process"])
    scenes = build_table1()
    agreement = sum(
        (name != "NONE") == scene.paper_needs_process
        for name, scene in zip(names["table1"], scenes)
    )
    rank = {kind.name: kind for kind in ProcessKind}
    iv_a, iv_b = (
        max(names[key], key=lambda n: rank.get(n, len(rank)), default="NONE")
        for key in ("iv_a", "iv_b")
    )
    return {
        "actions": len(served),
        "table1": f"{agreement}/{len(scenes)}",
        "iv_a": iv_a,
        "iv_b": iv_b,
        "ok": len(served) == len(corpus)
        and agreement == len(scenes)
        and (iv_a, iv_b) == ("NONE", "COURT_ORDER"),
    }


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
        'repro_rule_memo_entries{rule="privacy"}',
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
    out: str | None = "BENCH_serve.json",
) -> tuple[dict, bool]:
    """Replay the corpus cold then hot and gate both on byte identity.

    Returns:
        ``(report, ok)`` — ``ok`` is ``False`` on any differential
        mismatch in either replay or a missing metrics instrument.
    """
    corpus_size, seed = QUICK_CORPUS if quick else FULL_CORPUS
    corpus = action_corpus(corpus_size, seed=seed)
    paper = paper_corpus()
    batches = [
        corpus[i : i + BATCH_SIZE] for i in range(0, len(corpus), BATCH_SIZE)
    ]

    server_thread: ServerThread | None = None
    if connect is None:
        server_thread = ServerThread(ServerConfig(port=0, metrics_port=0))
        server_thread.start()
        assert server_thread.address is not None
        host, port = server_thread.address
        metrics_address = server_thread.metrics_address
    else:
        host, port = _parse_connect(connect)
        metrics_address = None

    try:
        with ServeClient(host, port) as client:
            replays = {
                "cold": _replay(client, batches),
                "hot": _replay(client, batches),
            }
            paper_served = _replay(client, [[action for _, action in paper]])
        metrics_check = _check_metrics_endpoint(metrics_address)
    finally:
        if server_thread is not None:
            server_thread.stop()

    engine = ComplianceEngine(cache=RulingCache(maxsize=2 * len(corpus)))
    reference = [
        canonical_json(ruling_to_dict(ruling))
        for ruling in engine.evaluate_many(corpus)
    ]
    per_replay = {
        name: {
            "compared": len(reference),
            "mismatches": sum(
                1 for got, want in zip(served, reference) if got != want
            )
            + abs(len(served) - len(reference)),
        }
        for name, served in replays.items()
    }
    mismatches = sum(r["mismatches"] for r in per_replay.values())
    conclusions = _paper_conclusions(paper, paper_served)

    ok = mismatches == 0 and metrics_check["ok"] and conclusions["ok"]
    report = {
        "meta": {
            "quick": quick,
            "corpus": {"actions": corpus_size, "seed": seed},
            "connect": connect,
        },
        "metrics_endpoint": metrics_check,
        "differential": {
            "replays": per_replay,
            "compared": sum(r["compared"] for r in per_replay.values()),
            "mismatches": mismatches,
            "ok": mismatches == 0,
        },
        "paper": conclusions,
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
    differential = report["differential"]
    per_replay = ", ".join(
        f"{name} {replay['mismatches']}"
        for name, replay in differential["replays"].items()
    )
    metrics = report["metrics_endpoint"]
    paper = report["paper"]
    lines = [
        "repro serve-bench — live-server byte-identity gate",
        (
            f"  corpus: {meta['corpus']['actions']} actions "
            f"(seed {meta['corpus']['seed']}), replayed cold then hot"
            + (f" against {meta['connect']}" if meta["connect"] else "")
        ),
        (
            "  metrics endpoint: "
            + (
                ("ok" if metrics["ok"] else "FAILED")
                if metrics["checked"]
                else "not checked (--connect)"
            )
        ),
        (
            f"  differential: {differential['compared']} rulings "
            f"compared, {differential['mismatches']} mismatches "
            f"({per_replay}) "
            f"-> {'byte-identical' if differential['ok'] else 'FAILED'}"
        ),
        (
            f"  paper: {paper['actions']} actions, table1 {paper['table1']}, "
            f"IV.A {paper['iv_a']}, IV.B {paper['iv_b']} "
            f"-> {'ok' if paper['ok'] else 'FAILED'}"
        ),
        f"  overall: {'ok' if report['ok'] else 'FAILED'}",
    ]
    return "\n".join(lines)
