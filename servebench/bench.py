"""One benchmark run: fresh servers, a timed closed loop on each, a result.

With ``trace=0`` the run reports the end-to-end metrics.  With
``trace=1`` it makes the same server runs and then the in-process replay
(untraced, then traced) and reports the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time

from servebench import inputs as inputs_module
from servebench.inputs import Inputs, Sizes, ledger_row_count
from servebench.loadgen import (
    Connection,
    ServerProcess,
    bucket_quantile,
    closed_loop,
    fresh_copy,
    histogram_buckets,
    scrape_metrics,
)
from servebench.percentiles import beyond, percentile, samples_needed
from servebench.replay import replay
from servebench.tracing import (
    END,
    NAME,
    REQUEST,
    START,
    NullTracer,
    Tracer,
    instrument,
    parents_of,
    totals_by_name,
)

#: ``(name, unit, better)`` of every end-to-end metric, as in BENCHMARK.json.
#: The run also prints the round-trip median and p99 with these; the JSON
#: reports them as the per-layer ``rtt.p50_ms`` and ``rtt.p99_ms``.  In
#: this closed loop the round trip follows the rate (Little's law), and on
#: ``serve_ledger`` the disk's noise spreads the median more, so of the
#: round trip and the rate only the rate gates a change.
END_TO_END = (
    ("rulings_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("server_rss_mb", "MiB", "lower"),
)

#: Every figure the summary prints, with its unit.
PRINTED = (
    ("rulings_per_s", "1/s"),
    ("rtt_p50_ms", "ms"),
    ("rtt_p99_ms", "ms"),
    ("setup_s", "s"),
    ("server_rss_mb", "MiB"),
)

#: ``(name, unit)`` of every per-layer metric, as in BENCHMARK.json.
PER_LAYER = (
    ("protocol.decode_line_us", "us"),
    ("protocol.action_from_dict_us", "us"),
    ("protocol.encode_ruling_us", "us"),
    ("protocol.encode_response_us", "us"),
    ("protocol.request_bytes_per_action", "bytes"),
    ("protocol.response_bytes_per_action", "bytes"),
    ("shard.partition_us", "us"),
    ("shard.evaluate_many_us", "us"),
    ("shard.coalesced_actions_per_batch", "count"),
    ("shard.balance_max_over_mean", "ratio"),
    ("fingerprint.action_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("engine.evaluate_us", "us"),
    ("engine.privacy_us", "us"),
    ("engine.fourth_amendment_us", "us"),
    ("engine.wiretap_us", "us"),
    ("engine.sca_us", "us"),
    ("engine.pentrap_us", "us"),
    ("engine.exceptions_us", "us"),
    ("engine.combine_us", "us"),
    ("ledger.record_us", "us"),
    ("ledger.commit_us", "us"),
    ("ledger.prime_us", "us"),
    ("ledger.rows_written", "count"),
    ("server.handler_p50_ms", "ms"),
    ("wire.outside_handler_ms", "ms"),
    ("server.cpu_frac", "ratio"),
    ("serve.unattributed_frac", "ratio"),
    ("loadgen.cpu_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("rtt.p50_ms", "ms"),
    ("rtt.p99_ms", "ms"),
    ("rtt.samples", "count"),
)

#: The engine's rule stages: children of the ``engine.evaluate`` span.
ENGINE_STAGES = (
    "engine.privacy",
    "engine.fourth_amendment",
    "engine.wiretap",
    "engine.sca",
    "engine.pentrap",
    "engine.exceptions",
)

ROUND_TRIP_HISTOGRAM = "repro_serve_round_trip_seconds"

#: Length of the windows the timed phase is cut into, in seconds.
WINDOW_S = 1.0

class RunFailed(Exception):
    """The run could not produce a result."""


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    src_dir: str,
    state_dir: str,
    sizes: Sizes | None = None,
) -> tuple[dict, dict]:
    """Make one run; returns ``(result, record)``.

    ``src_dir`` holds the ``repro`` package the server runs from;
    ``state_dir`` holds the run records and, while the run lasts, its
    scratch files (ledger copies, the server's stderr).
    ``result`` is the one-line JSON the command prints; ``record`` is the
    run record kept next to it (shard split, server stderr, failures).
    """
    sizes = sizes or Sizes()
    workdir = os.path.join(state_dir, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = inputs_module.build_inputs(
            workload, seed, sizes, workdir
        )
        served = _serve(inputs, sizes, seconds, src_dir, workdir)
        metrics = _end_to_end(served)
        record = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "sizes": vars(sizes),
            "requests_per_pass": len(inputs.requests),
            **served.record,
        }
        correct = served.failed == 0 and not served.problems
        if trace:
            layers, replay_problems, spans = _per_layer(
                inputs, sizes, served, metrics, workdir
            )
            correct = correct and not replay_problems
            record["problems"] = served.problems + replay_problems
            record["spans"] = len(spans.spans)
            record["_tracer"] = spans
            reported = layers
        else:
            record["problems"] = served.problems
            reported = {
                name: (metrics[name], unit) for name, unit, _ in END_TO_END
            }
        record["failed_frac"] = served.failed / served.attempted
        record["end_to_end"] = metrics
        result = {
            "correct": bool(correct),
            "attempted": served.attempted,
            "failed": served.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in reported.items()
            },
        }
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class _Phase:
    """What one loaded server start measured."""

    def __init__(self) -> None:
        self.timed = None
        self.attempted = 0
        self.failed = 0
        self.actions_timed = 0
        self.rss_mb = 0.0
        self.server_cpu_s = 0.0
        self.handler_p50_s = 0.0
        self.stats_delta: dict = {}
        self.rows_written = 0
        self.problems: list[str] = []
        self.record: dict = {}


class _Served:
    """Everything the server starts of one run measured."""

    def __init__(self) -> None:
        self.setups: list[float] = []
        self.phases: list[_Phase] = []
        self.record: dict = {}

    @property
    def attempted(self) -> int:
        return sum(phase.attempted for phase in self.phases)

    @property
    def failed(self) -> int:
        return sum(phase.failed for phase in self.phases)

    @property
    def problems(self) -> list[str]:
        return self.record.get("problems", []) + [
            problem for phase in self.phases for problem in phase.problems
        ]

    def total(self, key: str) -> int:
        """A ``stats`` counter summed over the phases."""
        return sum(phase.stats_delta[key] for phase in self.phases)


def _start_server(inputs, sizes, src_dir, workdir, name, stderr_path):
    ledger = None
    if inputs.ledger_path is not None:
        ledger = fresh_copy(inputs.ledger_path, workdir, f"{name}.db")
    server = ServerProcess(
        src_dir,
        stderr_path,
        n_shards=sizes.n_shards,
        cache_size=sizes.cache_size,
        ledger_path=ledger,
    )
    return server, ledger


def _serve(
    inputs: Inputs, sizes: Sizes, seconds: float, src_dir: str, workdir: str
) -> _Served:
    """Start the server ``setup_repeats`` times and load the last ``phases``.

    Each loaded start gets ``seconds / phases`` of the timed phase, so a
    slow stretch of the host or an unlucky shard split hits one phase,
    not the run.
    """
    served = _Served()
    stderr_path = os.path.join(workdir, "server.stderr")
    first_loaded = sizes.setup_repeats - sizes.phases
    cpus = sorted(os.sched_getaffinity(0))
    server = None
    try:
        for attempt in range(sizes.setup_repeats):
            server, ledger = _start_server(
                inputs, sizes, src_dir, workdir, f"start-{attempt}", stderr_path
            )
            if len(cpus) >= 2:
                # The server inherits this vCPU, so the starts sample both.
                os.sched_setaffinity(0, {cpus[attempt % 2]})
            served.setups.append(server.start())
            phase = None
            if attempt >= first_loaded:
                server_cpu = _pin(server.pid, len(served.phases), cpus)
                conn = Connection(server.address)
                try:
                    phase = _drive(
                        conn, server, inputs, sizes, seconds / sizes.phases
                    )
                finally:
                    conn.close()
                phase.record["server_banner"] = server.banner
                phase.record["server_cpu"] = server_cpu
            code = server.stop()
            server = None
            if code != 0:
                served.record.setdefault("problems", []).append(
                    f"server exited with code {code}"
                )
            if phase is not None:
                if ledger is not None:
                    _check_ledger(phase, inputs, ledger)
                served.phases.append(phase)
    finally:
        os.sched_setaffinity(0, cpus)
        if server is not None:
            server.stop()
        with open(stderr_path, "rb") as handle:
            served.record["server_stderr"] = handle.read().decode(
                "utf-8", "replace"
            )
    served.record["setup_s"] = served.setups
    served.record["phases"] = [phase.record for phase in served.phases]
    return served


def _pin(server_pid: int, phase: int, cpus: list[int]) -> int | None:
    """Put the server and this process on different vCPUs; returns the server's.

    Each vCPU of the host flips between a fast state and a slow one
    independently of the other, and one can stay slow for a whole phase,
    so the phases alternate the server's vCPU and a run samples both.
    """
    if len(cpus) < 2:
        return None
    server_cpu = cpus[phase % 2]
    os.sched_setaffinity(server_pid, {server_cpu})
    os.sched_setaffinity(0, {cpus[(phase + 1) % 2]})
    return server_cpu


def _check_ledger(phase: _Phase, inputs: Inputs, ledger: str) -> None:
    """The ledger must hold the primed rows plus every novel fingerprint sent."""
    rows = ledger_row_count(ledger)
    phase.rows_written = rows - inputs.ledger_rows
    distinct_requests = min(phase.timed.sent, len(inputs.requests))
    want = inputs.ledger_rows + sum(inputs.novel_per_request[:distinct_requests])
    phase.record["ledger"] = {
        "primed_rows": inputs.ledger_rows,
        "rows_after": rows,
        "rows_expected": want,
    }
    if rows != want:
        phase.problems.append(
            f"ledger holds {rows} rulings, expected {want} "
            "(primed rows + distinct novel fingerprints)"
        )


def _drive(conn, server, inputs, sizes, seconds) -> _Phase:
    """Warm up, then run one timed phase with server readings around it."""
    phase = _Phase()
    failures = []
    if inputs.warmup_requests:
        warm = closed_loop(
            conn,
            inputs.requests[: inputs.warmup_requests],
            inputs.expected[: inputs.warmup_requests],
            sizes.depth,
            count=inputs.warmup_requests,
        )
        phase.attempted += warm.attempted
        phase.failed += warm.failed
        failures.append(warm.first_failure)
    stats_before = conn.stats()
    metrics_before = scrape_metrics(server.metrics_address)
    cpu_before = server.cpu_seconds()
    timed = closed_loop(
        conn,
        inputs.requests,
        inputs.expected,
        sizes.depth,
        seconds=seconds,
    )
    phase.server_cpu_s = server.cpu_seconds() - cpu_before
    phase.rss_mb = server.peak_rss_mb()
    stats_after = conn.stats()
    metrics_after = scrape_metrics(server.metrics_address)
    phase.timed = timed
    phase.attempted += timed.attempted
    phase.failed += timed.failed
    failures.append(timed.first_failure)
    phase.problems.extend(f for f in failures if f)
    widths = [len(batch) for batch in inputs.batches]
    phase.actions_timed = sum(widths[slot] for slot in timed.slots)
    phase.handler_p50_s = bucket_quantile(
        histogram_buckets(metrics_before, ROUND_TRIP_HISTOGRAM),
        histogram_buckets(metrics_after, ROUND_TRIP_HISTOGRAM),
        0.5,
    )
    phase.stats_delta = _stats_delta(stats_before, stats_after)
    rates, medians = best_windows(timed, widths)
    phase.record.update(
        {
            "requests": timed.sent,
            "passes": timed.sent / len(inputs.requests),
            "actions": phase.actions_timed,
            "wall_s": timed.wall_s,
            "mean_rulings_per_s": phase.actions_timed / timed.wall_s,
            "best_window_rulings_per_s": max(rates),
            "rtt_p50_ms": percentile(timed.round_trips, 0.50) * 1e3,
            "best_window_rtt_p50_ms": min(medians) * 1e3,
            "server_rss_mb": phase.rss_mb,
            "loadgen_cpu_s": timed.cpu_s,
            "server_cpu_s": phase.server_cpu_s,
            "shards": phase.stats_delta["shards"],
            "balance_max_over_mean": _balance(phase.stats_delta["shards"]),
            "cache": {
                key: phase.stats_delta[key]
                for key in ("cache_hits", "cache_misses", "cache_evictions")
            },
        }
    )
    return phase


def _balance(shards: list[dict]) -> float:
    ruled = [shard["actions_ruled"] for shard in shards]
    return max(ruled) / (sum(ruled) / len(ruled))


def _stats_delta(before: dict, after: dict) -> dict:
    """Counter growth between two ``stats`` replies, per shard and total."""
    shards = []
    for early, late in zip(before["shards"], after["shards"]):
        shards.append(
            {
                "shard": late["shard"],
                "actions_ruled": late["actions_ruled"]
                - early["actions_ruled"],
                "batches": late["batches"] - early["batches"],
            }
        )
    delta = {"shards": shards}
    for key in ("cache_hits", "cache_misses", "cache_evictions"):
        delta[key] = after[key] - before[key]
    return delta


def _end_to_end(served: _Served) -> dict:
    """The user-visible metrics of the run's timed phases.

    ``mean_rulings_per_s`` and ``whole_run_rtt_p50_ms`` are the medians
    over the phases of the whole-phase figures, kept for the run record.
    """
    trips = [trip for phase in served.phases for trip in phase.timed.round_trips]
    if not trips:
        raise RunFailed("the timed phase completed no request")

    def median(key: str) -> float:
        return statistics.median(phase.record[key] for phase in served.phases)

    records = [phase.record for phase in served.phases]
    # Each vCPU of the host flips between a fast and a slow state that is
    # almost half as fast, every few seconds and independently of the
    # other; the best one-second window of the run is the figure that
    # follows the program rather than the host.
    return {
        "rulings_per_s": max(r["best_window_rulings_per_s"] for r in records),
        "rtt_p50_ms": min(r["best_window_rtt_p50_ms"] for r in records),
        "rtt_p99_ms": percentile(trips, 0.99) * 1e3,
        "rtt_samples": len(trips),
        "rtt_beyond_p99": beyond(0.99, len(trips)),
        "setup_s": statistics.median(served.setups),
        "server_rss_mb": median("server_rss_mb"),
        "failed_frac": served.failed / served.attempted,
        "mean_rulings_per_s": median("mean_rulings_per_s"),
        "whole_run_rtt_p50_ms": median("rtt_p50_ms"),
    }


def best_windows(timed, widths: list[int]) -> tuple[list[float], list[float]]:
    """Rulings per second and median round trip in each window of a phase.

    The phase is cut into equal windows of about :data:`WINDOW_S` by
    response completion time.  Windows that completed no response have
    no median.
    """
    count = max(1, round(timed.wall_s / WINDOW_S))
    length = timed.wall_s / count
    actions = [0] * count
    trips: list[list[float]] = [[] for _ in range(count)]
    for finished, slot, trip in zip(
        timed.finished, timed.slots, timed.round_trips
    ):
        index = min(count - 1, int((finished - timed.started) / length))
        actions[index] += widths[slot]
        trips[index].append(trip)
    rates = [done / length for done in actions]
    medians = [percentile(window, 0.50) for window in trips if window]
    return rates, medians


def _per_layer(inputs, sizes, served, metrics, workdir):
    """Replay untraced, then traced; derive every per-layer metric."""
    plain = replay(inputs, sizes, NullTracer(), workdir, "plain")
    tracer = Tracer()
    with instrument(tracer):
        traced = replay(inputs, sizes, tracer, workdir, "traced")
    problems = [
        f"replay assembled {r.mismatches} response(s) differing from "
        "the expected bytes"
        for r in (plain, traced)
        if r.mismatches
    ]
    spans = tracer.spans
    totals = totals_by_name(spans)

    def self_s(name: str) -> float:
        return totals.get(name, (0.0, 0))[0]

    def count(name: str) -> int:
        return totals.get(name, (0.0, 0))[1]

    def per(seconds: float, base: int) -> float:
        return seconds / base * 1e6 if base else 0.0

    actions = traced.actions
    misses = count("engine.evaluate")
    engine_s = self_s("engine.evaluate") + sum(map(self_s, ENGINE_STAGES))
    # A ruling is encoded for the first time when the server's memo
    # misses, which is when its encoder calls ruling_to_dict.
    first = parents_of(spans, "protocol.ruling_to_dict")
    first_s = sum(spans[index][END] - spans[index][START] for index in first)
    responses_s = sum(
        span[END] - span[START]
        for span in spans
        if span[NAME] == "protocol.encode_response"
    )
    timed_requests = traced.timed_requests
    timed_totals = totals_by_name(
        spans, keep=lambda span: span[REQUEST] in timed_requests
    )
    stage_s = sum(
        total
        for name, (total, _) in timed_totals.items()
        if name != "serve.request"
    )
    overhead = traced.wall_s / plain.wall_s - 1.0
    # The replay runs at whatever speed the host has at the time, like the
    # whole-phase mean, and the traced stages carry the tracing overhead.
    stage_us_per_action = (
        stage_s / traced.timed_actions * 1e6 / (1.0 + overhead)
    )
    wire_us_per_action = 1e6 / metrics["mean_rulings_per_s"]
    phases = served.phases
    ruled = sum(
        shard["actions_ruled"]
        for phase in phases
        for shard in phase.stats_delta["shards"]
    )
    batches = sum(
        shard["batches"] for phase in phases for shard in phase.stats_delta["shards"]
    )
    hits = served.total("cache_hits")
    lookups = hits + served.total("cache_misses")
    wall_s = sum(phase.timed.wall_s for phase in phases)
    handler_p50_ms = statistics.median(p.handler_p50_s for p in phases) * 1e3
    layers = {
        "protocol.decode_line_us": per(
            self_s("protocol.decode_line"), actions
        ),
        "protocol.action_from_dict_us": per(
            self_s("protocol.action_from_dict"), actions
        ),
        "protocol.encode_ruling_us": per(first_s, len(first)),
        "protocol.encode_response_us": per(responses_s, actions),
        "protocol.request_bytes_per_action": _bytes_per_action(
            inputs.requests, inputs
        ),
        "protocol.response_bytes_per_action": _bytes_per_action(
            inputs.expected, inputs
        ),
        "shard.partition_us": per(self_s("shard.partition"), actions),
        "shard.evaluate_many_us": per(self_s("shard.evaluate_many"), actions),
        "shard.coalesced_actions_per_batch": ruled / batches,
        "shard.balance_max_over_mean": statistics.median(
            p.record["balance_max_over_mean"] for p in phases
        ),
        "fingerprint.action_us": per(
            self_s("fingerprint.action"), count("fingerprint.action")
        ),
        "cache.lookup_us": per(self_s("cache.get_or_compute"), actions),
        "cache.hit_ratio": hits / lookups,
        "cache.evictions": served.total("cache_evictions"),
        "engine.evaluate_us": per(engine_s, misses),
        **{
            f"{stage}_us": per(self_s(stage), misses)
            for stage in ENGINE_STAGES
        },
        "engine.combine_us": per(self_s("engine.evaluate"), misses),
        "ledger.record_us": per(
            self_s("ledger.record"), count("ledger.record")
        ),
        "ledger.commit_us": per(
            self_s("ledger.commit"), count("ledger.commit")
        ),
        "ledger.prime_us": per(self_s("ledger.prime"), traced.primed),
        "ledger.rows_written": sum(p.rows_written for p in phases),
        "server.handler_p50_ms": handler_p50_ms,
        "wire.outside_handler_ms": metrics["whole_run_rtt_p50_ms"]
        - handler_p50_ms,
        "server.cpu_frac": sum(p.server_cpu_s for p in phases) / wall_s,
        "serve.unattributed_frac": 1.0
        - stage_us_per_action / wire_us_per_action,
        "loadgen.cpu_frac": sum(p.timed.cpu_s for p in phases) / wall_s,
        "trace.overhead_frac": overhead,
        "rtt.p50_ms": metrics["rtt_p50_ms"],
        "rtt.p99_ms": metrics["rtt_p99_ms"],
        "rtt.samples": metrics["rtt_samples"],
    }
    units = dict(PER_LAYER)
    return (
        {name: (value, units[name]) for name, value in layers.items()},
        problems,
        tracer,
    )


def _bytes_per_action(lines: list[bytes], inputs: Inputs) -> float:
    return sum(len(line) for line in lines) / sum(
        len(batch) for batch in inputs.batches
    )


def summary(result: dict, record: dict) -> list[str]:
    """Human-readable lines: every end-to-end metric, with its unit."""
    e2e = record["end_to_end"]
    requests = sum(phase["requests"] for phase in record["phases"])
    lines = [
        f"{record['workload']} seed {record['seed']}: "
        f"{requests} timed requests over {len(record['phases'])} server "
        f"starts, {'correct' if result['correct'] else 'INCORRECT'}"
    ]
    for name, unit in PRINTED:
        lines.append(f"  {name:<16} {e2e[name]:>14.4f} {unit}")
    lines.append(
        f"  {'failed_frac':<16} {e2e['failed_frac']:>14.4f} "
        f"({result['failed']} of {result['attempted']} requests)"
    )
    short = ""
    if e2e["rtt_samples"] < samples_needed(0.99):
        short = f", short of the {samples_needed(0.99)} a p99 needs"
    lines.append(
        f"  p99 over all {e2e['rtt_samples']} samples, "
        f"{e2e['rtt_beyond_p99']} beyond it{short}"
    )
    for phase in record["phases"]:
        lines.append(
            f"  start: {phase['mean_rulings_per_s']:.1f} rulings/s "
            f"(best window {phase['best_window_rulings_per_s']:.1f}), "
            "actions per shard "
            + ", ".join(str(s["actions_ruled"]) for s in phase["shards"])
        )
    if result["metrics"] and "rulings_per_s" not in result["metrics"]:
        for name, entry in result["metrics"].items():
            lines.append(
                f"  {name:<36} {entry['value']:>14.4f} {entry['unit']}"
            )
    for problem in record["problems"]:
        lines.append(f"  PROBLEM: {problem}")
    return lines


def write_record(state_dir: str, result: dict, record: dict) -> str:
    """Keep the run record (and the traced run's spans) under ``runs/``."""
    runs = os.path.join(state_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(
        runs,
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-"
        f"{record['workload']}-s{record['seed']}-t{int(record['trace'])}",
    )
    tracer = record.pop("_tracer", None)
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")
        record["spans_file"] = f"{stem}.spans.jsonl"
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"result": result, "record": record}, handle, indent=2)
        handle.write("\n")
    return f"{stem}.json"
