"""In-process replay of the server's path, for per-layer numbers.

The replay feeds a workload's request lines through the functions
``repro serve`` itself calls, in the same order: ``decode_line``, the
server's batch decoder (one ``action_from_dict`` per action),
``ShardRouter.partition``, each shard's ``evaluate_many`` (the engine's
cached batch path, with ledger writes on ``serve_ledger``) followed by a
ledger commit as the shard worker does, and the server's response
encoder with its memo of encoded rulings.  Every assembled line is
checked against the expected bytes.

It runs one request at a time, so it shows the work per layer, not the
server's queueing or socket time; that difference is what the benchmark
reports as ``serve.unattributed_frac``.
"""

from __future__ import annotations

import dataclasses
import time

from repro.ledger.store import Ledger
from repro.serve.protocol import decode_line
from repro.serve.server import RulingServer, ServerConfig
from repro.serve.shard import ShardRouter

from servebench.inputs import Inputs, Sizes
from servebench.loadgen import fresh_copy


@dataclasses.dataclass
class ReplayResult:
    """What one replay did.

    Attributes:
        wall_s: Seconds spent in the request loop (priming excluded).
        actions: Actions replayed.
        timed_requests: Request ids (replay positions) after the warm-up.
        timed_actions: Actions in those requests.
        mismatches: Assembled responses that differ from the expected bytes.
        primed: Rulings primed from a ledger.
    """

    wall_s: float = 0.0
    actions: int = 0
    timed_requests: set = dataclasses.field(default_factory=set)
    timed_actions: int = 0
    mismatches: int = 0
    primed: int = 0


def replay(
    inputs: Inputs, sizes: Sizes, tracer, workdir: str, tag: str
) -> ReplayResult:
    """Replay the warm-up plus ``sizes.replay_requests`` timed requests."""
    result = ReplayResult()
    ledger = None
    if inputs.ledger_path is not None:
        ledger = Ledger(
            fresh_copy(inputs.ledger_path, workdir, f"replay-{tag}.db")
        )
    try:
        router = ShardRouter(
            n_shards=sizes.n_shards, cache_size=sizes.cache_size, ledger=ledger
        )
        # Only its batch decoder and response encoder are used; it is
        # never started.
        server = RulingServer(
            ServerConfig(n_shards=sizes.n_shards, cache_size=sizes.cache_size)
        )
        if ledger is not None:
            span = tracer.begin("ledger.prime")
            result.primed = router.prime_from_ledger(ledger)
            tracer.end(span)
        total = inputs.warmup_requests + sizes.replay_requests
        started = time.perf_counter()
        for position in range(total):
            slot = position % len(inputs.requests)
            tracer.request = position
            root = tracer.begin("serve.request")
            body = _one_request(
                inputs.requests[slot], router, server, ledger, tracer
            )
            tracer.end(root)
            if body != inputs.expected[slot]:
                result.mismatches += 1
            width = len(inputs.batches[slot])
            result.actions += width
            if position >= inputs.warmup_requests:
                result.timed_requests.add(position)
                result.timed_actions += width
        result.wall_s = time.perf_counter() - started
        tracer.request = None
    finally:
        if ledger is not None:
            ledger.close()
    return result


def _one_request(line, router, server, ledger, tracer) -> bytes:
    """One request through the server's layers; returns the response line."""
    span = tracer.begin("protocol.decode_line")
    message = decode_line(line)
    tracer.end(span)
    actions = server._decode_batch(message)
    span = tracer.begin("shard.partition")
    partition = router.partition(actions)
    tracer.end(span)
    rulings: list = [None] * len(actions)
    for shard, positions in zip(router.shards, partition):
        if not positions:
            continue
        span = tracer.begin("shard.evaluate_many")
        ruled = shard.evaluate_many([actions[p] for p in positions])
        if ledger is not None:
            ledger.commit()
        tracer.end(span)
        for position, ruling in zip(positions, ruled):
            rulings[position] = ruling
    span = tracer.begin("protocol.encode_response")
    body = server._encode_rule_response(message.get("id"), rulings)
    tracer.end(span)
    return body
