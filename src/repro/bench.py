"""The engine benchmark harness behind ``repro bench``.

Measures what the ROADMAP's production story depends on — bulk ruling
throughput, cache behaviour, and per-ruling tail latency — and proves
while measuring: the run includes a differential check (cached vs. fresh
engines must produce byte-identical rulings over the whole corpus) and
fails, loudly and with a nonzero exit code, if memoization ever changes a
ruling.

Output is one JSON document (``BENCH_engine.json`` by default) with four
sections:

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
    The correctness gate: ruling-for-ruling equality and the hot hit rate.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from pathlib import Path

from repro import obs
from repro.core import ComplianceEngine, RulingCache, action_fingerprint
from repro.core.scenarios import build_table1
from repro.faults.chaos import run_chaos
from repro.parallel import resolve_workers
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


def _bench_corpus(corpus, reps: int = CORPUS_TIMING_REPS) -> dict:
    """Uncached loop vs. cached batch (cold and hot) over one corpus."""
    n = len(corpus)
    uncached = ComplianceEngine()

    def _uncached_loop() -> None:
        for action in corpus:
            uncached.evaluate(action)

    uncached_s = best_seconds(_uncached_loop, reps)

    cold_s = float("inf")
    for _ in range(reps):
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


def _bench_latency(corpus) -> dict:
    """Per-ruling latency percentiles, uncached vs. cache-hot."""
    sample = corpus[:LATENCY_SAMPLE]

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


def _bench_table1(reps: int) -> dict:
    """Rule the paper's 20 scenes ``reps`` times on a cached engine."""
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
        "agreement_ok": agreement == len(actions),
        "cache": engine.cache_stats.to_dict(),
    }


def _bench_chaos(seed: int, n_plans: int) -> dict:
    """A small chaos sweep through the process pool, timed."""
    workers = resolve_workers(None, n_plans)
    start = time.perf_counter()
    report = run_chaos(seed=seed, n_plans=n_plans, max_workers=workers)
    seconds = time.perf_counter() - start
    return {
        "plans": n_plans,
        "workers": workers,
        "seconds": seconds,
        "plans_per_second": n_plans / seconds if seconds else 0.0,
        "faults_injected": report.total_faults,
        "ok": report.ok,
    }


def _differential(corpus) -> dict:
    """The correctness gate: cached and fresh rulings must be identical."""
    fresh = ComplianceEngine()
    cached = ComplianceEngine(cache=RulingCache(maxsize=2 * len(corpus)))
    mismatches = 0
    for action in corpus:
        if (
            fresh.evaluate(action).to_dict()
            != cached.evaluate(action).to_dict()
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


def _cold_floor(corpus_section: dict) -> dict:
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


#: Ceiling on the disabled-telemetry overhead of the public batch path.
OBS_OVERHEAD_CEILING_PCT = 3.0

#: Smallest corpus the overhead ceiling is *enforced* at, for the same
#: resolution reason as :data:`COLD_FLOOR_MIN_ACTIONS`.
OBS_OVERHEAD_MIN_ACTIONS = 1000


def _bench_obs_overhead(corpus, reps: int = CORPUS_TIMING_REPS) -> dict:
    """Telemetry's disabled-mode cost on the hot batch path.

    Times the public ``evaluate_many`` (which carries the ``OBS.enabled``
    guard) against the guard-free ``_evaluate_many_impl`` body on a hot
    cache with telemetry off; the difference is exactly what
    instrumentation costs every production caller who never enables it.
    Both sides take their best of ``reps`` gc-paused runs, and a ratio at
    or over the ceiling is re-measured once with doubled repetitions
    before being believed (the two times are nearly equal, so one noisy
    scheduler tick can fake a regression).  An enabled-mode pass is also
    reported, ungated, for scale.
    """
    n = len(corpus)
    engine = ComplianceEngine(cache=RulingCache(maxsize=2 * n))
    engine.evaluate_many(corpus)  # warm every fingerprint

    def _measure(n_reps: int) -> tuple[float, float]:
        public_s = best_seconds(lambda: engine.evaluate_many(corpus), n_reps)
        impl_s = best_seconds(
            lambda: engine._evaluate_many_impl(corpus), n_reps
        )
        return public_s, impl_s

    obs.reset()  # telemetry must be off for the gated measurement
    public_s, impl_s = _measure(reps)
    pct = (public_s - impl_s) / impl_s * 100.0 if impl_s else 0.0
    gated = n >= OBS_OVERHEAD_MIN_ACTIONS
    if gated and pct >= OBS_OVERHEAD_CEILING_PCT:
        public_s, impl_s = _measure(2 * reps)
        pct = (public_s - impl_s) / impl_s * 100.0 if impl_s else 0.0

    obs.enable(obs.TraceCollector())
    try:
        enabled_s = best_seconds(lambda: engine.evaluate_many(corpus), reps)
    finally:
        obs.reset()
    enabled_pct = (
        (enabled_s - impl_s) / impl_s * 100.0 if impl_s else 0.0
    )

    return {
        "actions": n,
        "hot_impl_s": impl_s,
        "hot_public_s": public_s,
        "obs_overhead_pct": pct,
        "enabled_overhead_pct": enabled_pct,
        "ceiling_pct": OBS_OVERHEAD_CEILING_PCT,
        "gated": gated,
        "ok": (not gated) or pct < OBS_OVERHEAD_CEILING_PCT,
    }


def run_bench(
    quick: bool = False,
    seed: int = 99,
    corpus_size: int | None = None,
    out: str | Path = "BENCH_engine.json",
) -> tuple[dict, bool]:
    """Run every engine benchmark and write ``BENCH_engine.json``.

    Args:
        quick: Shrink the corpus and the chaos sweep for CI smoke runs.
        seed: Corpus seed (the default matches the golden-file corpus).
        corpus_size: Override the corpus size entirely.
        out: Where to write the JSON report.

    Returns:
        ``(report, ok)`` — ``ok`` is ``False`` when the differential gate
        found a cached/fresh mismatch, Table 1 agreement broke, or the
        chaos sweep failed an invariant.
    """
    n = corpus_size if corpus_size is not None else (
        QUICK_CORPUS_SIZE if quick else CORPUS_SIZE
    )
    if n < 1:
        raise ValueError(f"benchmark corpus size must be >= 1: {n}")
    corpus = action_corpus(n, seed=seed)

    report = {
        "meta": {
            "quick": quick,
            "seed": seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "corpus": _bench_corpus(corpus),
        "latency": _bench_latency(corpus),
    }
    if (
        len(corpus) >= COLD_FLOOR_MIN_ACTIONS
        and report["corpus"]["speedup_cold"] < COLD_SPEEDUP_FLOOR
    ):
        # The floor compares two nearly equal times, so one noisy
        # scheduling burst can push the ratio under it spuriously.
        # Re-measure once with doubled repetitions before believing it:
        # a real miss-path regression fails both measurements.
        report["corpus"] = _bench_corpus(
            corpus, reps=2 * CORPUS_TIMING_REPS
        )
    report |= {
        "table1": _bench_table1(reps=20 if quick else 100),
        "chaos": _bench_chaos(seed=seed, n_plans=2 if quick else 5),
        "differential": _differential(corpus),
        "obs_overhead": _bench_obs_overhead(corpus),
    }
    report["cold_floor"] = _cold_floor(report["corpus"])
    ok = (
        report["differential"]["ok"]
        and report["table1"]["agreement_ok"]
        and report["chaos"]["ok"]
        and report["cold_floor"]["ok"]
        and report["obs_overhead"]["ok"]
    )
    report["ok"] = ok

    path = Path(out)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report, ok


def render_report(report: dict) -> str:
    """Human-readable summary of a benchmark report."""
    corpus = report["corpus"]
    latency = report["latency"]
    lines = [
        f"corpus: {corpus['actions']} actions "
        f"({corpus['unique_fingerprints']} unique fingerprints)",
        f"  uncached loop     "
        f"{corpus['uncached_loop']['actions_per_second']:10.0f} actions/s",
        f"  cached batch cold "
        f"{corpus['cached_batch_cold']['actions_per_second']:10.0f} actions/s"
        f"  (hit rate {corpus['cached_batch_cold']['cache']['hit_rate']:.1%})",
        f"  cached batch hot  "
        f"{corpus['cached_batch_hot']['actions_per_second']:10.0f} actions/s"
        f"  (hit rate {corpus['cached_batch_hot']['cache']['hit_rate']:.1%})",
        f"  speedup (hot vs uncached): {corpus['speedup_hot']:.1f}x",
        f"  speedup (cold vs uncached): {corpus['speedup_cold']:.2f}x"
        f"  (floor {report['cold_floor']['floor']:.2f}, "
        + (
            ("ok" if report["cold_floor"]["ok"] else "FAIL")
            if report["cold_floor"]["gated"]
            else "not gated at this corpus size"
        )
        + ")",
        f"latency: uncached p50={latency['uncached']['p50_us']:.1f}us "
        f"p99={latency['uncached']['p99_us']:.1f}us; "
        f"cache-hot p50={latency['cached_hot']['p50_us']:.1f}us "
        f"p99={latency['cached_hot']['p99_us']:.1f}us",
        f"table1: {report['table1']['rulings_per_second']:.0f} rulings/s, "
        f"agreement {report['table1']['agreement']}",
        f"chaos: {report['chaos']['plans']} plans in "
        f"{report['chaos']['seconds']:.2f}s "
        f"({report['chaos']['workers']} workers), "
        f"{'ok' if report['chaos']['ok'] else 'FAIL'}",
        f"differential: {report['differential']['actions']} actions, "
        f"{report['differential']['mismatches']} mismatches, "
        f"second-pass hit rate "
        f"{report['differential']['second_pass_hit_rate']:.1%}",
        f"obs overhead (disabled): "
        f"{report['obs_overhead']['obs_overhead_pct']:.2f}% "
        f"(ceiling {report['obs_overhead']['ceiling_pct']:.1f}%, "
        + (
            ("ok" if report["obs_overhead"]["ok"] else "FAIL")
            if report["obs_overhead"]["gated"]
            else "not gated at this corpus size"
        )
        + f"; enabled "
        f"{report['obs_overhead']['enabled_overhead_pct']:.2f}%)",
        f"overall: {'ok' if report['ok'] else 'FAIL'}",
    ]
    return "\n".join(lines)
