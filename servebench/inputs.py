"""Seeded inputs for the serve benchmark: request lines and expected bytes.

Every request line and every expected response line is built here,
before anything is timed.  The expected bytes come from an in-process
``ComplianceEngine.evaluate_many`` rendered through ``encode_line``, so
the timed loop only has to compare raw lines.

All actions come from the seeded stream behind
:func:`repro.workloads.action_corpus`, deduplicated by
:func:`repro.core.fingerprint.action_fingerprint`.
"""

from __future__ import annotations

import dataclasses
import os
import random

from repro.core.cache import RulingCache
from repro.core.engine import ComplianceEngine
from repro.core.fingerprint import action_fingerprint
from repro.ledger.serialize import ruling_to_dict
from repro.ledger.store import Ledger
from repro.serve.protocol import action_to_dict, encode_line
from repro.workloads import random_action

WORKLOADS = ("serve_hot", "serve_cold", "serve_ledger")


@dataclasses.dataclass(frozen=True)
class Sizes:
    """How much input each workload gets.

    The defaults are the benchmark's; tests pass tiny ones.

    Attributes:
        batch: Actions per request line.
        depth: Requests in flight on the one connection.
        hot_pool: Distinct actions replayed by ``serve_hot``.
        cold_pool: Distinct actions in one pass of ``serve_cold``; must
            exceed the server's total cache so every lookup misses.
        ledger_rows: Rulings in the pre-populated ledger.
        ledger_hot: Primed fingerprints the ``serve_ledger`` stream reuses.
        ledger_novel: Novel (never primed) fingerprints in one pass of
            ``serve_ledger``; sized so that one pass outlasts a phase at
            today's speed.  A faster server cycles, and its
            second pass misses again (the novel fingerprints outnumber
            the caches) but writes no new rows.
        n_shards: Shards the server is started with.
        cache_size: Per-shard cache capacity the server is started with.
        setup_repeats: Server starts per run; ``setup_s`` is their median.
        phases: How many of those starts (the last ones) are loaded; each
            gets an equal share of the timed phase.
        replay_requests: Requests fed through the traced replay.
    """

    batch: int = 64
    depth: int = 8
    hot_pool: int = 2048
    cold_pool: int = 24576
    ledger_rows: int = 12000
    ledger_hot: int = 4096
    ledger_novel: int = 24576
    n_shards: int = 4
    cache_size: int = 4096
    setup_repeats: int = 7
    phases: int = 3
    replay_requests: int = 96

    def __post_init__(self) -> None:
        if not 1 <= self.phases <= self.setup_repeats:
            raise ValueError("phases must be between 1 and setup_repeats")


@dataclasses.dataclass
class Inputs:
    """Everything one run sends and expects.

    Attributes:
        workload: Workload name.
        seed: Workload seed.
        batches: The actions of each request, for the in-process replay.
        requests: Encoded request lines, one per batch; request ``i``
            carries ``"id": i``.
        expected: The byte-exact response line for each request.
        warmup_requests: Requests sent untimed before the timed phase
            (one full pass on ``serve_hot``, none elsewhere).
        novel_per_request: Novel fingerprints each request carries
            (``serve_ledger`` only); distinct across one pass.
        ledger_path: Pre-populated ledger the server opens (``serve_ledger``).
        ledger_rows: Rows in that ledger.
    """

    workload: str
    seed: int
    batches: list[list]
    requests: list[bytes]
    expected: list[bytes]
    warmup_requests: int = 0
    novel_per_request: list[int] = dataclasses.field(default_factory=list)
    ledger_path: str | None = None
    ledger_rows: int = 0


def distinct_actions(count: int, seed: int) -> list:
    """The first ``count`` fingerprint-distinct actions of the seed's corpus.

    Draws from the same stream as ``action_corpus(n, seed)``, for as many
    ``n`` as it takes.
    """
    rng = random.Random(seed)
    seen: set = set()
    chosen = []
    index = 0
    while len(chosen) < count:
        action = random_action(rng, index)
        index += 1
        fingerprint = action_fingerprint(action)
        if fingerprint not in seen:
            seen.add(fingerprint)
            chosen.append(action)
    return chosen


def encode_requests(batches: list[list]) -> list[bytes]:
    """One ``rule`` request line per batch, ``id`` = batch index."""
    return [
        encode_line(
            {
                "op": "rule",
                "id": index,
                "actions": [action_to_dict(action) for action in batch],
            }
        )
        for index, batch in enumerate(batches)
    ]


def expected_responses(batches: list[list]) -> list[bytes]:
    """The byte-exact response line the server must send per batch."""
    total = sum(len(batch) for batch in batches)
    engine = ComplianceEngine(cache=RulingCache(maxsize=max(1, total)))
    return [
        encode_line(
            {
                "id": index,
                "ok": True,
                "rulings": [
                    ruling_to_dict(ruling)
                    for ruling in engine.evaluate_many(batch)
                ],
            }
        )
        for index, batch in enumerate(batches)
    ]


def _chunks(actions: list, size: int) -> list[list]:
    return [actions[i : i + size] for i in range(0, len(actions), size)]


def build_ledger(path: str, actions: list) -> None:
    """Write a ledger holding one ruling per action."""
    with Ledger(path) as ledger:
        engine = ComplianceEngine(cache=len(actions), ledger=ledger)
        engine.evaluate_many(actions)
        ledger.commit()


def ledger_row_count(path: str) -> int:
    """Rulings on file in a ledger."""
    with Ledger(path) as ledger:
        return ledger.counts()["rulings"]


def build_inputs(
    workload: str, seed: int, sizes: Sizes, workdir: str
) -> Inputs:
    """Generate a workload's requests and expected responses for a seed.

    ``serve_ledger`` also builds its pre-populated ledger in ``workdir``;
    each server start opens a copy of it.
    """
    if workload == "serve_hot":
        batches = _chunks(distinct_actions(sizes.hot_pool, seed), sizes.batch)
        return Inputs(
            workload,
            seed,
            batches,
            encode_requests(batches),
            expected_responses(batches),
            warmup_requests=len(batches),
        )
    if workload == "serve_cold":
        batches = _chunks(distinct_actions(sizes.cold_pool, seed), sizes.batch)
        return Inputs(
            workload,
            seed,
            batches,
            encode_requests(batches),
            expected_responses(batches),
        )
    if workload == "serve_ledger":
        return _ledger_inputs(seed, sizes, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _ledger_inputs(seed: int, sizes: Sizes, workdir: str) -> Inputs:
    """Half primed hits, half novel misses, interleaved action by action."""
    pool = distinct_actions(sizes.ledger_rows + sizes.ledger_novel, seed)
    primed, novel = pool[: sizes.ledger_rows], pool[sizes.ledger_rows :]
    hot = primed[: sizes.ledger_hot]
    path = os.path.join(workdir, f"ledger-s{seed}.db")
    build_ledger(path, primed)
    half = sizes.batch // 2
    batches = []
    novel_per_request = []
    for index in range(len(novel) // half):
        new = novel[index * half : (index + 1) * half]
        old = [hot[(index * half + k) % len(hot)] for k in range(half)]
        batch = [a for pair in zip(old, new) for a in pair]
        batches.append(batch)
        novel_per_request.append(len(new))
    return Inputs(
        "serve_ledger",
        seed,
        batches,
        encode_requests(batches),
        expected_responses(batches),
        novel_per_request=novel_per_request,
        ledger_path=path,
        ledger_rows=ledger_row_count(path),
    )
