"""The in-process benchmark harness behind ``repro bench``.

Measures what the ROADMAP's production story depends on — bulk ruling
throughput, cache behaviour, per-ruling tail latency, and the vectorized
detection kernels against the scalar originals they replaced — and proves
while measuring.  The run walks one ordered section table
(:data:`SECTIONS`) and writes one JSON document (``BENCH_engine.json``
by default) with one section per entry:

``corpus``
    The 5k-corpus benchmark: an uncached per-action ``evaluate`` loop vs.
    ``evaluate_many`` on a cached engine, cold (empty cache) and hot
    (steady state).  ``speedup_hot`` is the headline number.
``latency``
    Per-ruling p50/p99 microseconds, uncached vs. cache-hot.
``table1``
    Throughput of ruling the paper's 20 scenes in a loop, plus agreement.
``chaos``
    Wall time for a small fault-plan sweep through the process pool.
``differential``
    Cached vs. fresh engines must rule the corpus byte-identically.
``obs_overhead``
    Disabled-mode telemetry cost on the hot batch path.
``cold_floor``
    Filling the cache must cost no more than ~5% over the uncached loop.
``dsss`` / ``square_wave`` / ``flow_correlation`` / ``visibility``
    One section per detector: scalar vs. vectorized detections/second,
    the speedup, and an equivalence block (best statistic within 1e-9,
    same verdict, same best offset).
``campaign``
    ``run_campaign`` serial vs. a 4-worker process pool on the same
    seed: cases/second both ways and per-case signature equality.
``conclusions``
    The paper's results, re-derived on the vectorized paths: Table 1
    agreement, section IV.A (the timing attack needs no process and
    still identifies the direct source), and section IV.B (the DSSS
    watermark needs the pen/trap court order).

A section is gated exactly when it carries a top-level ``ok``; the
report's ``ok`` is their conjunction, and ``repro bench`` exits nonzero
when it is false.  Speedups are reported but never gated: CI boxes do
not promise wall-clock ratios (a single-CPU container cannot show a
parallel campaign win at all — ``meta.cpu_count`` records what was
available).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.anonymity.p2p import P2POverlay
from repro.core import (
    ComplianceEngine,
    ProcessKind,
    RulingCache,
    action_fingerprint,
)
from repro.core.scenarios import build_table1
from repro.faults.chaos import run_chaos
from repro.investigation.campaign import (
    CampaignConfig,
    case_signature,
    run_campaign,
)
from repro.ledger.serialize import ruling_to_utf8
from repro.netsim.engine import Simulator
from repro.parallel import resolve_workers
from repro.signal import offset_grid
from repro.techniques import (
    flow_correlation,
    interval_watermark,
    visibility,
    watermark,
)
from repro.techniques.flow_correlation import PacketCountingCorrelator
from repro.techniques.interval_watermark import (
    SquareWaveConfig,
    SquareWaveDetector,
    SquareWaveWatermarker,
)
from repro.techniques.timing_attack import OneSwarmTimingAttack
from repro.techniques.traffic import PoissonFlow
from repro.techniques.visibility import AutocorrelationVisibilityTest
from repro.techniques.watermark import (
    DsssWatermarkTechnique,
    FlowWatermarker,
    PnCode,
    WatermarkConfig,
    WatermarkDetector,
)
from repro.workloads import action_corpus

#: Default benchmark corpus size (matches ``benchmarks/test_engine_scale``).
CORPUS_SIZE = 5000
#: ``--quick`` corpus size, for CI smoke runs.
QUICK_CORPUS_SIZE = 1000
#: Actions sampled for the per-ruling latency percentiles.
LATENCY_SAMPLE = 2000


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1)))
    )
    return sorted_values[rank]


#: Repetitions for the uncached/cold corpus timings.  The cold-floor gate
#: (``speedup_cold >= COLD_SPEEDUP_FLOOR``) compares two ~equal times, so
#: each side takes its best of five runs — minimum wall time estimates
#: the structural cost, since scheduler noise only ever inflates it.
CORPUS_TIMING_REPS = 5

#: The cold-batch floor asserted by the benchmark gate: filling the cache
#: must cost no more than ~5% over the uncached loop it replaces.
COLD_SPEEDUP_FLOOR = 0.95

#: Smallest corpus the cold floor is *enforced* at.  Below this the timed
#: sections are a few milliseconds — shorter than one scheduler tick — so
#: a 5% ratio cannot be measured; the ratio is still reported.
COLD_FLOOR_MIN_ACTIONS = 1000

#: Ceiling on the disabled-telemetry overhead of the public batch path.
OBS_OVERHEAD_CEILING_PCT = 3.0

#: Smallest corpus the overhead ceiling is *enforced* at, for the same
#: resolution reason as :data:`COLD_FLOOR_MIN_ACTIONS`.
OBS_OVERHEAD_MIN_ACTIONS = 1000

#: Scalar and vectorized results must agree to this absolute tolerance.
#: The kernels reproduce the reference arithmetic bit-for-bit except the
#: FFT autocorrelation, whose rounding differs at the 1e-12 level.
EQUIVALENCE_TOLERANCE = 1e-9

#: Delay search ceiling shared by every offset-sweeping detector.
MAX_OFFSET = 1.0
#: Offset grid granularity — 201 trial offsets at the full setting.
OFFSET_STEP = 0.005
#: ``--quick`` granularity, for CI smoke runs (51 trial offsets).
QUICK_OFFSET_STEP = 0.02

#: Detector timing repetitions; each side takes its best (minimum) time.
SCALAR_REPS = 5
VECTOR_REPS = 20
QUICK_SCALAR_REPS = 2
QUICK_VECTOR_REPS = 5

#: Worker-pool size for the campaign race (the paper-scale setting).
CAMPAIGN_WORKERS = 4
CAMPAIGN_CASES = 8000
QUICK_CAMPAIGN_CASES = 1000


@dataclass(frozen=True)
class BenchRun:
    """What every section measures against.

    ``report`` holds the sections measured so far, in table order, so a
    section can gate on an earlier one's numbers (``cold_floor`` reads
    ``corpus``).
    """

    quick: bool
    seed: int
    corpus: list
    report: dict


def best_seconds(run, reps: int) -> float:
    """Minimum wall time of ``run()`` over ``reps`` runs, cyclic GC paused.

    The minimum estimates the structural cost, since scheduler noise only
    ever inflates a run.  The cyclic GC is paused around each timed run
    (and collected between them): a cold batch keeps every ruling alive
    in the cache, so it crosses allocation thresholds the
    discard-as-you-go uncached loop never does, and mid-run collection
    pauses would skew the cold-floor ratio by up to 10% on a busy
    single-CPU box.
    """
    gc_was_enabled = gc.isenabled()
    best = float("inf")
    for _ in range(reps):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
    return best


def _remeasured(
    measure: Callable[[int], dict], reps: int, passes: Callable[[dict], bool]
) -> dict:
    """Run ``measure(reps)``; re-run it once at ``2 * reps`` on a failure.

    ``passes`` judges the result.  A ratio gate compares two nearly equal
    times, so one noisy scheduling burst can push the ratio past its
    bound spuriously; a real regression fails both measurements.
    """
    result = measure(reps)
    if not passes(result):
        result = measure(2 * reps)
    return result


def _verdict(section: dict) -> str:
    """``ok``/``FAIL`` for a size-gated section, or why it is not gated."""
    if not section["gated"]:
        return "not gated at this corpus size"
    return "ok" if section["ok"] else "FAIL"


def _time_corpus(corpus, reps: int) -> dict:
    """Uncached loop vs. cached batch (cold and hot) over one corpus."""
    n = len(corpus)
    uncached = ComplianceEngine()

    def _uncached_loop() -> None:
        for action in corpus:
            uncached.evaluate(action)

    # One uncached rep, then one cold rep into a fresh cache, alternately:
    # the two best-ofs sample the same stretches of the host, so a slow
    # spell of the vCPU cannot land on one side of the ratio only.
    uncached_s = cold_s = float("inf")
    for _ in range(reps):
        uncached_s = min(uncached_s, best_seconds(_uncached_loop, 1))
        cached = ComplianceEngine(cache=RulingCache(maxsize=2 * n))
        cold_s = min(
            cold_s, best_seconds(lambda: cached.evaluate_many(corpus), 1)
        )
    cold_stats = cached.cache_stats.to_dict()

    cached.cache_stats.reset()
    hot_s = best_seconds(lambda: cached.evaluate_many(corpus), 1)
    hot_stats = cached.cache_stats.to_dict()

    return {
        "actions": n,
        "unique_fingerprints": len(
            {action_fingerprint(action) for action in corpus}
        ),
        "uncached_loop": {
            "seconds": uncached_s,
            "actions_per_second": n / uncached_s,
        },
        "cached_batch_cold": {
            "seconds": cold_s,
            "actions_per_second": n / cold_s,
            "cache": cold_stats,
        },
        "cached_batch_hot": {
            "seconds": hot_s,
            "actions_per_second": n / hot_s,
            "cache": hot_stats,
        },
        "speedup_hot": uncached_s / hot_s if hot_s else 0.0,
        "speedup_cold": uncached_s / cold_s if cold_s else 0.0,
    }


def _bench_corpus(run: BenchRun) -> dict:
    """The corpus timings, re-measured once if they miss the cold floor."""
    return _remeasured(
        lambda reps: _time_corpus(run.corpus, reps),
        CORPUS_TIMING_REPS,
        lambda corpus_section: _cold_floor_of(corpus_section)["ok"],
    )


def _render_corpus(corpus: dict) -> str:
    return "\n".join(
        [
            f"{corpus['actions']} actions "
            f"({corpus['unique_fingerprints']} unique fingerprints)",
            f"  uncached loop     "
            f"{corpus['uncached_loop']['actions_per_second']:10.0f} "
            "actions/s",
            f"  cached batch cold "
            f"{corpus['cached_batch_cold']['actions_per_second']:10.0f} "
            f"actions/s  (hit rate "
            f"{corpus['cached_batch_cold']['cache']['hit_rate']:.1%})",
            f"  cached batch hot  "
            f"{corpus['cached_batch_hot']['actions_per_second']:10.0f} "
            f"actions/s  (hit rate "
            f"{corpus['cached_batch_hot']['cache']['hit_rate']:.1%})",
            f"  speedup (hot vs uncached): {corpus['speedup_hot']:.1f}x",
            f"  speedup (cold vs uncached): {corpus['speedup_cold']:.2f}x",
        ]
    )


def _bench_latency(run: BenchRun) -> dict:
    """Per-ruling latency percentiles, uncached vs. cache-hot."""
    sample = run.corpus[:LATENCY_SAMPLE]

    def _per_call_us(engine: ComplianceEngine) -> dict:
        timings = []
        for action in sample:
            start = time.perf_counter_ns()
            engine.evaluate(action)
            timings.append((time.perf_counter_ns() - start) / 1000.0)
        timings.sort()
        return {
            "p50_us": _percentile(timings, 0.50),
            "p99_us": _percentile(timings, 0.99),
        }

    hot_engine = ComplianceEngine(cache=RulingCache(maxsize=2 * len(sample)))
    hot_engine.evaluate_many(sample)  # warm every fingerprint
    return {
        "sample": len(sample),
        "uncached": _per_call_us(ComplianceEngine()),
        "cached_hot": _per_call_us(hot_engine),
    }


def _render_latency(latency: dict) -> str:
    return (
        f"uncached p50={latency['uncached']['p50_us']:.1f}us "
        f"p99={latency['uncached']['p99_us']:.1f}us; "
        f"cache-hot p50={latency['cached_hot']['p50_us']:.1f}us "
        f"p99={latency['cached_hot']['p99_us']:.1f}us"
    )


def _bench_table1(run: BenchRun) -> dict:
    """Rule the paper's 20 scenes in a loop on a cached engine."""
    reps = 20 if run.quick else 100
    scenarios = build_table1()
    actions = [scenario.action for scenario in scenarios]
    engine = ComplianceEngine(cache=RulingCache())
    start = time.perf_counter()
    for _ in range(reps):
        rulings = engine.evaluate_many(actions)
    seconds = time.perf_counter() - start
    agreement = sum(
        ruling.needs_process == scenario.paper_needs_process
        for ruling, scenario in zip(rulings, scenarios)
    )
    total = reps * len(actions)
    return {
        "scenes": len(actions),
        "reps": reps,
        "seconds": seconds,
        "rulings_per_second": total / seconds if seconds else 0.0,
        "agreement": f"{agreement}/{len(actions)}",
        "cache": engine.cache_stats.to_dict(),
        "ok": agreement == len(actions),
    }


def _render_table1(table1: dict) -> str:
    return (
        f"{table1['rulings_per_second']:.0f} rulings/s, "
        f"agreement {table1['agreement']}"
    )


def _bench_chaos(run: BenchRun) -> dict:
    """A small chaos sweep through the process pool, timed."""
    n_plans = 2 if run.quick else 5
    workers = resolve_workers(None, n_plans)
    start = time.perf_counter()
    report = run_chaos(seed=run.seed, n_plans=n_plans, max_workers=workers)
    seconds = time.perf_counter() - start
    return {
        "plans": n_plans,
        "workers": workers,
        "seconds": seconds,
        "plans_per_second": n_plans / seconds if seconds else 0.0,
        "faults_injected": report.total_faults,
        "ok": report.ok,
    }


def _render_chaos(chaos: dict) -> str:
    return (
        f"{chaos['plans']} plans in {chaos['seconds']:.2f}s "
        f"({chaos['workers']} workers), {'ok' if chaos['ok'] else 'FAIL'}"
    )


def _differential(run: BenchRun) -> dict:
    """The correctness gate: cached and fresh rulings must be identical.

    Compares each ruling's complete canonical bytes, so every field of
    every requirement, exception and reasoning step counts.
    """
    corpus = run.corpus
    fresh = ComplianceEngine()
    cached = ComplianceEngine(cache=RulingCache(maxsize=2 * len(corpus)))
    mismatches = 0
    for action in corpus:
        if ruling_to_utf8(fresh.evaluate(action)) != ruling_to_utf8(
            cached.evaluate(action)
        ):
            mismatches += 1
    cached.cache_stats.reset()
    cached.evaluate_many(corpus)  # second pass: must hit
    hot_hit_rate = cached.cache_stats.hit_rate
    return {
        "actions": len(corpus),
        "mismatches": mismatches,
        "identical": mismatches == 0,
        "second_pass_hit_rate": hot_hit_rate,
        "ok": mismatches == 0 and hot_hit_rate > 0.0,
    }


def _render_differential(differential: dict) -> str:
    return (
        f"{differential['actions']} actions, "
        f"{differential['mismatches']} mismatches, second-pass hit rate "
        f"{differential['second_pass_hit_rate']:.1%}"
    )


def _bench_obs_overhead(run: BenchRun) -> dict:
    """Telemetry's disabled-mode cost on the hot batch path.

    Times the public ``evaluate_many`` (which carries the ``OBS.enabled``
    guard) against the guard-free ``_evaluate_many_impl`` body on a hot
    cache with telemetry off; the difference is exactly what
    instrumentation costs every production caller who never enables it.
    Both sides take their best of ``CORPUS_TIMING_REPS`` gc-paused runs,
    re-measured once if the ratio reaches the ceiling.  An enabled-mode
    pass is also reported, ungated, for scale.
    """
    corpus = run.corpus
    n = len(corpus)
    gated = n >= OBS_OVERHEAD_MIN_ACTIONS
    engine = ComplianceEngine(cache=RulingCache(maxsize=2 * n))
    engine.evaluate_many(corpus)  # warm every fingerprint

    def _measure(reps: int) -> dict:
        public_s = best_seconds(lambda: engine.evaluate_many(corpus), reps)
        impl_s = best_seconds(
            lambda: engine._evaluate_many_impl(corpus), reps
        )
        return {
            "hot_impl_s": impl_s,
            "hot_public_s": public_s,
            "obs_overhead_pct": (
                (public_s - impl_s) / impl_s * 100.0 if impl_s else 0.0
            ),
        }

    def _passes(timings: dict) -> bool:
        return (
            not gated
            or timings["obs_overhead_pct"] < OBS_OVERHEAD_CEILING_PCT
        )

    obs.reset()  # telemetry must be off for the gated measurement
    timings = _remeasured(_measure, CORPUS_TIMING_REPS, _passes)

    obs.enable(obs.TraceCollector())
    try:
        enabled_s = best_seconds(
            lambda: engine.evaluate_many(corpus), CORPUS_TIMING_REPS
        )
    finally:
        obs.reset()
    impl_s = timings["hot_impl_s"]
    enabled_pct = (
        (enabled_s - impl_s) / impl_s * 100.0 if impl_s else 0.0
    )

    return {
        "actions": n,
        **timings,
        "enabled_overhead_pct": enabled_pct,
        "ceiling_pct": OBS_OVERHEAD_CEILING_PCT,
        "gated": gated,
        "ok": _passes(timings),
    }


def _render_obs_overhead(overhead: dict) -> str:
    return (
        f"disabled {overhead['obs_overhead_pct']:.2f}% "
        f"(ceiling {overhead['ceiling_pct']:.1f}%, {_verdict(overhead)}); "
        f"enabled {overhead['enabled_overhead_pct']:.2f}%"
    )


def _cold_floor_of(corpus_section: dict) -> dict:
    """The cold-batch floor: filling the cache must not beat its purpose.

    ``speedup_cold`` is best-of-``CORPUS_TIMING_REPS`` on both sides, so
    the ratio reflects structural miss-path overhead (fingerprint, hash,
    insert), not scheduler noise; the floor failing means the miss path
    regressed.  Corpora smaller than :data:`COLD_FLOOR_MIN_ACTIONS` are
    reported but not gated — their timed sections are too short to
    resolve a 5% ratio.
    """
    speedup_cold = corpus_section["speedup_cold"]
    gated = corpus_section["actions"] >= COLD_FLOOR_MIN_ACTIONS
    return {
        "speedup_cold": speedup_cold,
        "floor": COLD_SPEEDUP_FLOOR,
        "gated": gated,
        "ok": (not gated) or speedup_cold >= COLD_SPEEDUP_FLOOR,
    }


def _cold_floor(run: BenchRun) -> dict:
    """The cold floor over the ``corpus`` section this run measured."""
    return _cold_floor_of(run.report["corpus"])


def _render_cold_floor(floor: dict) -> str:
    return (
        f"speedup {floor['speedup_cold']:.2f}x "
        f"(floor {floor['floor']:.2f}, {_verdict(floor)})"
    )


class _Sink:
    """Minimal downstream channel: records every arrival timestamp."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.arrivals: list[float] = []

    def send_downstream(self, size: int = 512) -> None:
        self.arrivals.append(self.sim.now)


def _simulate(schedule) -> list[float]:
    """Run one embedder/flow against a sink; return its arrival times."""
    sim = Simulator()
    sink = _Sink(sim)
    schedule(sink)
    sim.run()
    return sink.arrivals


def _race(reference, vectorized, quick: bool) -> tuple:
    """Run and time both paths of one detector.

    Returns:
        ``(reference_result, vectorized_result, timings)`` where
        ``timings`` carries per-path seconds, detections/second, and the
        scalar-over-vectorized speedup.
    """
    reference_result = reference()
    vectorized_result = vectorized()
    scalar_s = best_seconds(
        reference, QUICK_SCALAR_REPS if quick else SCALAR_REPS
    )
    vector_s = best_seconds(
        vectorized, QUICK_VECTOR_REPS if quick else VECTOR_REPS
    )
    timings = {
        "scalar": {
            "seconds": scalar_s,
            "detections_per_second": 1.0 / scalar_s if scalar_s else 0.0,
        },
        "vectorized": {
            "seconds": vector_s,
            "detections_per_second": 1.0 / vector_s if vector_s else 0.0,
        },
        "speedup": scalar_s / vector_s if vector_s else 0.0,
    }
    return reference_result, vectorized_result, timings


def _equivalence(checks: dict, **deltas: float) -> dict:
    """A section's ``equivalence`` block and the ``ok`` it gates on.

    ``ok`` holds when every delta is within :data:`EQUIVALENCE_TOLERANCE`
    and every check is true.
    """
    block: dict = {
        **deltas,
        **{name: bool(value) for name, value in checks.items()},
    }
    return {
        "equivalence": block,
        "ok": all(d <= EQUIVALENCE_TOLERANCE for d in deltas.values())
        and all(block[name] for name in checks),
    }


def _bench_dsss(run: BenchRun) -> dict:
    """DSSS watermark: scalar offset sweep vs. the batched despread."""
    code = PnCode.msequence(7)
    config = WatermarkConfig(chip_duration=0.5, base_rate=20.0, amplitude=0.3)
    arrivals = _simulate(
        lambda sink: FlowWatermarker(code, config, seed=run.seed).embed(
            sink, start=0.0
        )
    )
    detector = WatermarkDetector(code, config)
    step = QUICK_OFFSET_STEP if run.quick else OFFSET_STEP
    reference_result, vectorized_result, timings = _race(
        lambda: watermark._reference_detect(
            detector, arrivals, 0.0, max_offset=MAX_OFFSET, offset_step=step
        ),
        lambda: detector.detect(
            arrivals, 0.0, max_offset=MAX_OFFSET, offset_step=step
        ),
        run.quick,
    )
    return {
        "packets": len(arrivals),
        "chips": len(code),
        "offsets": int(offset_grid(MAX_OFFSET, step).size),
        **timings,
        **_equivalence(
            {
                "same_verdict": reference_result.detected
                == vectorized_result.detected,
                "same_best_offset": reference_result.best_offset
                == vectorized_result.best_offset,
                "watermark_detected": vectorized_result.detected,
            },
            correlation_delta=abs(
                reference_result.correlation - vectorized_result.correlation
            ),
        ),
    }


def _bench_square_wave(run: BenchRun) -> dict:
    """Square-wave watermark: scalar fold-per-offset vs. the batched fold."""
    config = SquareWaveConfig(
        period=4.0, n_periods=16, base_rate=20.0, amplitude=0.3
    )
    arrivals = _simulate(
        lambda sink: SquareWaveWatermarker(config, seed=run.seed + 1).embed(
            sink, start=0.0
        )
    )
    detector = SquareWaveDetector(config)
    step = QUICK_OFFSET_STEP if run.quick else OFFSET_STEP
    reference_result, vectorized_result, timings = _race(
        lambda: interval_watermark._reference_detect(
            detector, arrivals, 0.0, max_offset=MAX_OFFSET, offset_step=step
        ),
        lambda: detector.detect(
            arrivals, 0.0, max_offset=MAX_OFFSET, offset_step=step
        ),
        run.quick,
    )
    return {
        "packets": len(arrivals),
        "offsets": int(offset_grid(MAX_OFFSET, step).size),
        **timings,
        **_equivalence(
            {
                "same_verdict": reference_result.detected
                == vectorized_result.detected,
                "watermark_detected": vectorized_result.detected,
            },
            statistic_delta=abs(
                reference_result.statistic - vectorized_result.statistic
            ),
        ),
    }


def _bench_flow_correlation(run: BenchRun) -> dict:
    """Passive correlation: histogram-per-offset vs. the batched Pearson."""
    duration = 60.0
    reference_times = _simulate(
        lambda sink: PoissonFlow(rate=30.0, seed=run.seed + 2).schedule(
            sink, 0.0, duration
        )
    )
    jitter = random.Random(run.seed + 3)
    candidate_times = sorted(
        t + 0.35 + jitter.gauss(0.0, 0.01) for t in reference_times
    )
    step = QUICK_OFFSET_STEP if run.quick else OFFSET_STEP
    correlator = PacketCountingCorrelator(
        window=0.5, max_offset=MAX_OFFSET, offset_step=step
    )
    reference_result, vectorized_result, timings = _race(
        lambda: flow_correlation._reference_correlate(
            correlator, reference_times, candidate_times, 0.0, duration
        ),
        lambda: correlator.correlate(
            reference_times, candidate_times, 0.0, duration
        ),
        run.quick,
    )
    return {
        "packets": len(candidate_times),
        "offsets": int(offset_grid(MAX_OFFSET, step).size),
        **timings,
        **_equivalence(
            {
                "same_best_offset": reference_result.best_offset
                == vectorized_result.best_offset,
                "flows_matched": correlator.matches(vectorized_result),
            },
            correlation_delta=abs(
                reference_result.correlation - vectorized_result.correlation
            ),
        ),
    }


def _bench_visibility(run: BenchRun) -> dict:
    """Visibility scan: per-lag dot products vs. the FFT spectrum.

    Timed on a watermarked flow; the plain-flow direction (an unmarked
    Poisson flow must *not* be flagged, by both paths) rides along in
    the equivalence check.
    """
    config = SquareWaveConfig(
        period=4.0, n_periods=16, base_rate=20.0, amplitude=0.3
    )
    marked = _simulate(
        lambda sink: SquareWaveWatermarker(config, seed=run.seed + 1).embed(
            sink, start=0.0
        )
    )
    plain = _simulate(
        lambda sink: PoissonFlow(rate=20.0, seed=run.seed + 4).schedule(
            sink, 0.0, config.duration
        )
    )
    tester = AutocorrelationVisibilityTest(
        window=0.25, max_lag=64 if run.quick else 128
    )
    reference_result, vectorized_result, timings = _race(
        lambda: visibility._reference_test(
            tester, marked, 0.0, config.duration
        ),
        lambda: tester.test(marked, 0.0, config.duration),
        run.quick,
    )
    plain_reference = visibility._reference_test(
        tester, plain, 0.0, config.duration
    )
    plain_vectorized = tester.test(plain, 0.0, config.duration)
    return {
        "packets": len(marked),
        "lags": int(min(tester.max_lag, len(marked))),
        **timings,
        **_equivalence(
            {
                "same_peak_lag": reference_result.peak_lag
                == vectorized_result.peak_lag,
                "watermark_flagged": vectorized_result.watermark_suspected,
                "plain_flow_clean": not plain_vectorized.watermark_suspected
                and plain_reference.watermark_suspected
                == plain_vectorized.watermark_suspected,
            },
            statistic_delta=abs(
                reference_result.statistic - vectorized_result.statistic
            ),
        ),
    }


def _render_detector(detector: dict) -> str:
    return (
        f"scalar {detector['scalar']['detections_per_second']:8.1f}/s  "
        f"vectorized "
        f"{detector['vectorized']['detections_per_second']:10.1f}/s  "
        f"speedup {detector['speedup']:6.1f}x  "
        f"equivalence {'ok' if detector['ok'] else 'FAIL'}"
    )


def _bench_campaign(run: BenchRun) -> dict:
    """``run_campaign`` serial vs. the seed-isolated worker pool."""
    config = CampaignConfig(
        n_cases=QUICK_CAMPAIGN_CASES if run.quick else CAMPAIGN_CASES,
        comply_probability=0.6,
        seed=run.seed,
    )
    serial_result = run_campaign(config, max_workers=1)
    parallel_result = run_campaign(config, max_workers=CAMPAIGN_WORKERS)
    serial_s = best_seconds(
        lambda: run_campaign(config, max_workers=1), reps=1
    )
    parallel_s = best_seconds(
        lambda: run_campaign(config, max_workers=CAMPAIGN_WORKERS), reps=1
    )
    return {
        "cases": config.n_cases,
        "workers": CAMPAIGN_WORKERS,
        "serial": {
            "seconds": serial_s,
            "cases_per_second": config.n_cases / serial_s
            if serial_s
            else 0.0,
        },
        "parallel": {
            "seconds": parallel_s,
            "cases_per_second": config.n_cases / parallel_s
            if parallel_s
            else 0.0,
        },
        "speedup": serial_s / parallel_s if parallel_s else 0.0,
        **_equivalence(
            {
                "signatures_identical": [
                    case_signature(outcome)
                    for outcome in serial_result.outcomes
                ]
                == [
                    case_signature(outcome)
                    for outcome in parallel_result.outcomes
                ],
                "same_successes": serial_result.successes
                == parallel_result.successes,
                "same_suppressed": serial_result.suppressed
                == parallel_result.suppressed,
            }
        ),
    }


def _render_campaign(campaign: dict) -> str:
    return (
        f"serial {campaign['serial']['cases_per_second']:8.0f} cases/s  "
        f"parallel({campaign['workers']}) "
        f"{campaign['parallel']['cases_per_second']:8.0f} cases/s  "
        f"speedup {campaign['speedup']:6.2f}x  "
        f"equivalence {'ok' if campaign['ok'] else 'FAIL'}"
    )


def _build_overlay() -> P2POverlay:
    """The section IV.A fixture: a four-peer friend-to-friend overlay."""
    overlay = P2POverlay(seed=13)
    overlay.add_peer("le")
    overlay.add_peer("direct-source", files={"f"})
    overlay.add_peer("forwarder")
    overlay.add_peer("hidden-source", files={"f"})
    overlay.befriend("le", "direct-source", latency=0.02)
    overlay.befriend("le", "forwarder", latency=0.02)
    overlay.befriend("forwarder", "hidden-source", latency=0.02)
    return overlay


def _bench_conclusions(run: BenchRun) -> dict:
    """Re-derive the paper's conclusions on the vectorized paths."""
    engine = ComplianceEngine()
    scenarios = build_table1()
    agreement = sum(
        engine.evaluate(scenario.action).needs_process
        == scenario.paper_needs_process
        for scenario in scenarios
    )
    table1 = {
        "agreement": f"{agreement}/{len(scenarios)}",
        "ok": agreement == len(scenarios),
    }

    attack = OneSwarmTimingAttack()
    attack_process = attack.required_process(engine)
    identified = attack.investigate(
        _build_overlay(), "le", "f", trials=10
    ).identified_sources()
    section_iv_a = {
        "technique": attack.name,
        "required_process": attack_process.name,
        "identified_sources": identified,
        "ok": attack_process is ProcessKind.NONE
        and identified == ["direct-source"],
    }

    dsss = DsssWatermarkTechnique()
    dsss_process = dsss.required_process(engine)
    section_iv_b = {
        "technique": dsss.name,
        "required_process": dsss_process.name,
        "ok": dsss_process is ProcessKind.COURT_ORDER,
    }

    return {
        "table1": table1,
        "section_iv_a": section_iv_a,
        "section_iv_b": section_iv_b,
        "ok": table1["ok"] and section_iv_a["ok"] and section_iv_b["ok"],
    }


def _render_conclusions(conclusions: dict) -> str:
    return (
        f"table1 {conclusions['table1']['agreement']}, "
        f"IV.A {conclusions['section_iv_a']['required_process']} + "
        f"{conclusions['section_iv_a']['identified_sources']}, "
        f"IV.B {conclusions['section_iv_b']['required_process']} -> "
        f"{'ok' if conclusions['ok'] else 'FAIL'}"
    )


#: Every section, in run and report order: ``(name, measure, render)``.
SECTIONS: tuple[
    tuple[str, Callable[[BenchRun], dict], Callable[[dict], str]], ...
] = (
    ("corpus", _bench_corpus, _render_corpus),
    ("latency", _bench_latency, _render_latency),
    ("table1", _bench_table1, _render_table1),
    ("chaos", _bench_chaos, _render_chaos),
    ("differential", _differential, _render_differential),
    ("obs_overhead", _bench_obs_overhead, _render_obs_overhead),
    ("cold_floor", _cold_floor, _render_cold_floor),
    ("dsss", _bench_dsss, _render_detector),
    ("square_wave", _bench_square_wave, _render_detector),
    ("flow_correlation", _bench_flow_correlation, _render_detector),
    ("visibility", _bench_visibility, _render_detector),
    ("campaign", _bench_campaign, _render_campaign),
    ("conclusions", _bench_conclusions, _render_conclusions),
)


def run_bench(
    quick: bool = False,
    seed: int = 99,
    out: str | Path = "BENCH_engine.json",
) -> tuple[dict, bool]:
    """Run every section of :data:`SECTIONS` and write one JSON report.

    Args:
        quick: Smaller corpus, chaos sweep and campaign, coarser offset
            grids and fewer repetitions, for CI smoke runs.
        seed: Seed for the corpus (the default matches the golden-file
            corpus), the chaos sweep, embedders, flows and the campaign.
        out: Where to write the JSON report.

    Returns:
        ``(report, ok)`` — ``ok`` is the conjunction of every gated
        section's top-level ``ok``.  Speedups are informational only.
    """
    report: dict = {
        "meta": {
            "quick": quick,
            "seed": seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        }
    }
    run = BenchRun(
        quick=quick,
        seed=seed,
        corpus=action_corpus(
            QUICK_CORPUS_SIZE if quick else CORPUS_SIZE, seed=seed
        ),
        report=report,
    )
    for name, measure, _ in SECTIONS:
        report[name] = measure(run)
    ok = all(report[name].get("ok", True) for name, _, _ in SECTIONS)
    report["ok"] = ok

    path = Path(out)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report, ok


def render_report(report: dict) -> str:
    """Human-readable summary of a benchmark report, one section a line."""
    meta = report["meta"]
    lines = [
        f"meta: python {meta['python']} on {meta['machine']}, "
        f"cpu_count {meta['cpu_count']}, seed {meta['seed']}"
        + (", quick" if meta["quick"] else "")
    ]
    lines += [
        f"{name}: {render(report[name])}" for name, _, render in SECTIONS
    ]
    lines.append(f"overall: {'ok' if report['ok'] else 'FAIL'}")
    return "\n".join(lines)
