"""The asyncio ruling server: NDJSON batches in, ordered rulings out.

Architecture
------------

One event loop, two listeners:

* **Connection handlers** read one NDJSON request at a time and answer
  it in one synchronous step: decode the line, rule a ``rule`` batch
  through :meth:`ShardRouter.evaluate_many` (each action on the shard
  that owns its fingerprint, each shard with a private cache and
  engine), commit the ledger once, encode the response and write it.
  Every shard's engine shares one ruling per distinct rule output, and
  each ruling's canonical text is encoded once and reused by the
  response encoder and the ledger writer alike.
  Responses therefore leave in request order per connection, and the
  handler yields to the loop after each one so other connections get
  their turn between requests.  No shard ever touches another shard's
  cache or engine and every shard runs on the loop's one thread, so the
  hot path has no locks; partitioning *is* the synchronization.
* **A metrics listener** answers HTTP ``GET /metrics`` with the
  :mod:`repro.obs` registry's Prometheus text exposition (per-shard
  cache and action counters and, with a ledger, its write, duplicate
  and primed counts bound as callback gauges; ruling and round-trip
  latency histograms) and ``GET /healthz`` for liveness.

Backpressure comes from TCP: a connection has at most one request being
ruled, and a client that sends without reading blocks the handler's
``drain`` until the kernel's window pushes back on it.

Telemetry deliberately uses the metrics registry *without*
``obs.enable()``: a long-running server must not accumulate spans
forever, and the registry (counters, gauges, histograms) is bounded
state read out at render time.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import sqlite3

from repro.core.cache import DEFAULT_CACHE_SIZE
from repro.core.engine import interned_rulings, rule_memo_entries
from repro.ledger.serialize import (
    canonical_json,
    ruling_to_dict,  # noqa: F401 - servebench/tracing.py wraps it by name
    ruling_to_utf8,
)
from repro.ledger.store import Ledger
from repro.obs import OBS, bind_ledger, bind_ruling_cache, clock
from repro.serve.protocol import (
    MAX_BATCH_ACTIONS,
    MAX_LINE_BYTES,
    FieldTypeError,
    ProtocolError,
    action_from_dict,
    decode_line,
    encode_line,
)
from repro.serve.shard import ShardRouter

#: The ops a request may name.  Any other op is counted as
#: ``op="unknown"``: the label comes from untrusted input, and one series
#: per distinct bogus op would grow ``/metrics`` without bound.
OPS = ("rule", "ping", "stats")


@dataclasses.dataclass
class ServerConfig:
    """Everything ``repro serve`` can tune.

    Attributes:
        host: Bind address for both listeners.
        port: NDJSON port (0 picks an ephemeral port).
        metrics_port: HTTP ``/metrics`` port (0 picks an ephemeral port).
        n_shards: Number of private cache+engine partitions.
        cache_size: Per-shard LRU capacity.
        ledger_path: Optional SQLite ledger; fresh rulings persist here.
        prime: Warm every shard's cache from the ledger at startup.

    The per-request action cap and the NDJSON framing bound are the
    protocol's ``MAX_BATCH_ACTIONS`` and ``MAX_LINE_BYTES``.
    """

    host: str = "127.0.0.1"
    port: int = 7341
    metrics_port: int = 7342
    n_shards: int = 4
    cache_size: int = DEFAULT_CACHE_SIZE
    ledger_path: str | None = None
    prime: bool = False

    def __post_init__(self) -> None:
        # Refused here, before start() opens (and creates) any ledger.
        if self.n_shards < 1:
            raise ValueError(f"--shards must be >= 1: {self.n_shards}")
        if self.cache_size < 1:
            raise ValueError(f"--cache-size must be >= 1: {self.cache_size}")
        if self.prime and self.ledger_path is None:
            raise ValueError("--prime requires --ledger")


class RulingServer:
    """The long-running sharded ruling service."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.router: ShardRouter | None = None
        self.primed_rulings = 0
        self._ledger: Ledger | None = None
        self._rpc_server: asyncio.Server | None = None
        self._metrics_server: asyncio.Server | None = None
        self._stop_requested = False
        self._stopped = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Open the ledger, build shards, bind metrics, start listening."""
        config = self.config
        if config.ledger_path is not None:
            self._ledger = Ledger(config.ledger_path)
        self.router = ShardRouter(
            n_shards=config.n_shards,
            cache_size=config.cache_size,
            ledger=self._ledger,
        )
        if config.prime and self._ledger is not None:
            self.primed_rulings = self.router.prime_from_ledger(self._ledger)
        self._bind_metrics()
        self._rpc_server = await asyncio.start_server(
            self._handle_connection,
            config.host,
            config.port,
            limit=MAX_LINE_BYTES,
        )
        self._metrics_server = await asyncio.start_server(
            self._handle_metrics,
            config.host,
            config.metrics_port,
            limit=MAX_LINE_BYTES,
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound NDJSON ``(host, port)``."""
        assert self._rpc_server is not None
        sock = self._rpc_server.sockets[0]
        return sock.getsockname()[:2]

    @property
    def metrics_address(self) -> tuple[str, int]:
        """The bound metrics HTTP ``(host, port)``."""
        assert self._metrics_server is not None
        sock = self._metrics_server.sockets[0]
        return sock.getsockname()[:2]

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` is called."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Stop listeners and close the ledger (idempotent)."""
        if self._stop_requested:
            await self._stopped.wait()
            return
        self._stop_requested = True
        for server in (self._rpc_server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        if self._ledger is not None:
            self._ledger.close()
            self._ledger = None
        self._stopped.set()

    # -- metrics -----------------------------------------------------------------

    def _bind_metrics(self) -> None:
        assert self.router is not None
        registry = OBS.registry
        self._requests = registry.counter(
            "repro_serve_requests_total", "Requests received, by op."
        )
        self._actions_total = registry.counter(
            "repro_serve_actions_total", "Actions received in rule batches."
        )
        self._errors_total = registry.counter(
            "repro_serve_errors_total", "Error responses, by reason."
        )
        self._connections = registry.gauge(
            "repro_serve_connections", "Open NDJSON connections."
        )
        self._ruling_seconds = registry.histogram(
            "repro_serve_ruling_seconds",
            "Wall time of one rule request's evaluate_many plus ledger "
            "commit; one observation per request.",
        )
        self._round_trip_seconds = registry.histogram(
            "repro_serve_round_trip_seconds",
            "Request latency from line read to response bytes ready.",
        )
        registry.gauge_fn(
            "repro_ruling_intern_entries",
            lambda: float(interned_rulings()),
            "Distinct rulings held in the engine's intern table.",
        )
        for rule in rule_memo_entries():
            registry.gauge_fn(
                "repro_rule_memo_entries",
                lambda rule=rule: float(rule_memo_entries()[rule]),
                "Keys held per rule-stage memo (and the combination "
                "table's, as rule=\"combine\").",
                {"rule": rule},
            )
        if self._ledger is not None:
            bind_ledger(self._ledger.stats, name="serve")
        for shard in self.router.shards:
            bind_ruling_cache(shard.cache.stats, name=f"shard{shard.index}")
            registry.gauge_fn(
                "repro_serve_shard_actions_total",
                lambda shard=shard: float(shard.actions_ruled),
                "Actions ruled per shard.",
                {"shard": shard.index},
            )

    # -- NDJSON connections ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.IncompleteReadError):
                    self._errors_total.inc(reason="oversized_line")
                    writer.write(_error_response(None, "line too long"))
                    await writer.drain()
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                writer.write(self._answer(line))
                await writer.drain()
                # Let other connections in between this one's requests.
                await asyncio.sleep(0)
        except OSError:
            pass  # the peer went away mid-read or mid-write
        finally:
            self._connections.dec()
            with contextlib.suppress(OSError):
                writer.close()
                await writer.wait_closed()

    def _answer(self, line: bytes) -> bytes:
        """Decode, rule and commit one request line; return the response."""
        started = clock()
        try:
            message = decode_line(line)
        except ProtocolError as exc:
            self._errors_total.inc(reason="bad_frame")
            return _error_response(None, str(exc))
        op = message.get("op")
        self._requests.inc(op=op if op in OPS else "unknown")
        request_id = message.get("id")
        if op == "ping":
            return encode_line({"ok": True, "pong": True})
        if op == "stats":
            return encode_line(self._stats_response())
        if op != "rule":
            self._errors_total.inc(reason="unknown_op")
            return _error_response(request_id, f"unknown op: {op!r}")
        try:
            actions = self._decode_batch(message)
        except ProtocolError as exc:
            self._errors_total.inc(
                reason=(
                    "bad_field_type"
                    if isinstance(exc, FieldTypeError)
                    else "bad_action"
                )
            )
            return _error_response(request_id, str(exc))
        self._actions_total.inc(len(actions))
        assert self.router is not None
        ruling_started = clock()
        try:
            rulings = self.router.evaluate_many(actions)
            if self._ledger is not None:
                # record_ruling leaves writes pending; flush them per
                # request so every answered ruling is durable.
                self._ledger.commit()
        except Exception as exc:
            # The request fails, the server carries on, and nothing
            # partial is persisted.
            if self._ledger is not None:
                # Drop the request's pending rows, and every shard's
                # cache with them: a cached ruling is never recorded
                # again, so keeping the ones whose rows were rolled back
                # would leave them out of the ledger for good.
                with contextlib.suppress(sqlite3.Error):
                    self._ledger.rollback()
                for shard in self.router.shards:
                    shard.cache.clear()
            self._errors_total.inc(reason="internal")
            return _error_response(request_id, f"internal: {exc}")
        self._ruling_seconds.observe(clock() - ruling_started)
        body = self._encode_rule_response(request_id, rulings)
        self._round_trip_seconds.observe(clock() - started)
        return body

    def _decode_batch(self, message: dict) -> list:
        payload = message.get("actions")
        if not isinstance(payload, list):
            raise ProtocolError('"actions" must be an array')
        if len(payload) > MAX_BATCH_ACTIONS:
            raise ProtocolError(
                f"batch of {len(payload)} exceeds cap {MAX_BATCH_ACTIONS}"
            )
        return [action_from_dict(item) for item in payload]

    def _encode_ruling(self, ruling) -> bytes:
        """Canonical JSON for one ruling as UTF-8, memoized per ruling."""
        return ruling_to_utf8(ruling)

    def _encode_rule_response(
        self, request_id: object, rulings: list
    ) -> bytes:
        """The response line, joined from memoized ruling bytes.

        Byte-identical to ``encode_line({"id": ..., "ok": True,
        "rulings": [...]})``: the envelope keys are already in canonical
        (sorted) order and each memoized text is exactly the canonical
        encoding of its ruling dict.  The engine interns rulings by
        their rule outputs, so a ruling seen before, hot or cold, costs
        a lookup here instead of a re-serialization or a re-encode.
        """
        envelope = canonical_json({"id": request_id, "ok": True})
        return b"".join(
            (
                envelope[:-1].encode("utf-8"),
                b',"rulings":[',
                b",".join(map(self._encode_ruling, rulings)),
                b"]}\n",
            )
        )

    def _stats_response(self) -> dict:
        assert self.router is not None
        stats = self.router.stats()
        stats["primed_rulings"] = self.primed_rulings
        stats["interned_rulings"] = interned_rulings()
        stats["rule_memo"] = rule_memo_entries()
        return {"ok": True, "stats": stats}

    # -- metrics HTTP ------------------------------------------------------------

    async def _handle_metrics(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.split()
            path = parts[1].decode("latin-1") if len(parts) >= 2 else ""
            if path.split("?")[0] == "/metrics":
                body = OBS.registry.render_text().encode("utf-8")
                status = b"200 OK"
                content_type = b"text/plain; version=0.0.4; charset=utf-8"
            elif path.split("?")[0] == "/healthz":
                body = b"ok\n"
                status = b"200 OK"
                content_type = b"text/plain; charset=utf-8"
            else:
                body = b"not found\n"
                status = b"404 Not Found"
                content_type = b"text/plain; charset=utf-8"
            writer.write(
                b"HTTP/1.1 " + status + b"\r\n"
                b"Content-Type: " + content_type + b"\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


def _error_response(request_id: object, error: str) -> bytes:
    return encode_line({"id": request_id, "ok": False, "error": error})
