"""The technique-kernel benchmark behind ``repro bench --techniques``.

Races every vectorized detection path against the scalar original it
replaced — the ``_reference_*`` twins kept in each technique module —
and proves while measuring: each section carries an equivalence check
(best statistic within 1e-9, same verdict, same best offset) and the
overall gate fails, with a nonzero exit code, if any vectorized kernel
ever diverges from its scalar twin or a paper conclusion moves.

Output is one JSON document (``BENCH_techniques.json`` by default):

``dsss`` / ``square_wave`` / ``flow_correlation`` / ``visibility``
    One section per detector: scalar vs. vectorized detections/second,
    the speedup, and the equivalence verdict.
``campaign``
    ``run_campaign`` serial vs. a 4-worker process pool on the same
    seed: cases/second both ways and per-case signature equality.
``conclusions``
    The paper's results, re-derived on the vectorized paths: Table 1
    agreement, section IV.A (the timing attack needs no process and
    still identifies the direct source), and section IV.B (the DSSS
    watermark needs the pen/trap court order).

Speedups are reported but never gated: CI boxes do not promise
wall-clock ratios (a single-CPU container cannot show a parallel
campaign win at all — ``meta.cpu_count`` records what was available).
The load-bearing gates are scalar/vectorized equivalence and the
paper's conclusions.
"""

from __future__ import annotations

import json
import os
import platform
import random
from pathlib import Path

from repro.anonymity.p2p import P2POverlay
from repro.bench import best_seconds
from repro.core import ComplianceEngine, ProcessKind
from repro.core.scenarios import build_table1
from repro.investigation.campaign import (
    CampaignConfig,
    case_signature,
    run_campaign,
)
from repro.netsim.engine import Simulator
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

#: Timing repetitions; each side takes its best (minimum) wall time.
SCALAR_REPS = 5
VECTOR_REPS = 20
QUICK_SCALAR_REPS = 2
QUICK_VECTOR_REPS = 5

#: Worker-pool size for the campaign race (the paper-scale setting).
CAMPAIGN_WORKERS = 4
CAMPAIGN_CASES = 8000
QUICK_CAMPAIGN_CASES = 1000


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


def _bench_dsss(quick: bool, seed: int) -> dict:
    """DSSS watermark: scalar offset sweep vs. the batched despread."""
    code = PnCode.msequence(7)
    config = WatermarkConfig(chip_duration=0.5, base_rate=20.0, amplitude=0.3)
    arrivals = _simulate(
        lambda sink: FlowWatermarker(code, config, seed=seed).embed(
            sink, start=0.0
        )
    )
    detector = WatermarkDetector(code, config)
    step = QUICK_OFFSET_STEP if quick else OFFSET_STEP
    reference_result, vectorized_result, timings = _race(
        lambda: watermark._reference_detect(
            detector, arrivals, 0.0, max_offset=MAX_OFFSET, offset_step=step
        ),
        lambda: detector.detect(
            arrivals, 0.0, max_offset=MAX_OFFSET, offset_step=step
        ),
        quick,
    )
    delta = abs(reference_result.correlation - vectorized_result.correlation)
    equivalence = {
        "correlation_delta": delta,
        "same_verdict": bool(
            reference_result.detected == vectorized_result.detected
        ),
        "same_best_offset": bool(
            reference_result.best_offset == vectorized_result.best_offset
        ),
        "watermark_detected": bool(vectorized_result.detected),
    }
    equivalence["ok"] = delta <= EQUIVALENCE_TOLERANCE and all(
        value for value in equivalence.values() if isinstance(value, bool)
    )
    return {
        "packets": len(arrivals),
        "chips": len(code),
        "offsets": int(offset_grid(MAX_OFFSET, step).size),
        **timings,
        "equivalence": equivalence,
    }


def _bench_square_wave(quick: bool, seed: int) -> dict:
    """Square-wave watermark: scalar fold-per-offset vs. the batched fold."""
    config = SquareWaveConfig(
        period=4.0, n_periods=16, base_rate=20.0, amplitude=0.3
    )
    arrivals = _simulate(
        lambda sink: SquareWaveWatermarker(config, seed=seed + 1).embed(
            sink, start=0.0
        )
    )
    detector = SquareWaveDetector(config)
    step = QUICK_OFFSET_STEP if quick else OFFSET_STEP
    reference_result, vectorized_result, timings = _race(
        lambda: interval_watermark._reference_detect(
            detector, arrivals, 0.0, max_offset=MAX_OFFSET, offset_step=step
        ),
        lambda: detector.detect(
            arrivals, 0.0, max_offset=MAX_OFFSET, offset_step=step
        ),
        quick,
    )
    delta = abs(reference_result.statistic - vectorized_result.statistic)
    equivalence = {
        "statistic_delta": delta,
        "same_verdict": bool(
            reference_result.detected == vectorized_result.detected
        ),
        "watermark_detected": bool(vectorized_result.detected),
    }
    equivalence["ok"] = delta <= EQUIVALENCE_TOLERANCE and all(
        value for value in equivalence.values() if isinstance(value, bool)
    )
    return {
        "packets": len(arrivals),
        "offsets": int(offset_grid(MAX_OFFSET, step).size),
        **timings,
        "equivalence": equivalence,
    }


def _bench_flow_correlation(quick: bool, seed: int) -> dict:
    """Passive correlation: histogram-per-offset vs. the batched Pearson."""
    duration = 60.0
    reference_times = _simulate(
        lambda sink: PoissonFlow(rate=30.0, seed=seed + 2).schedule(
            sink, 0.0, duration
        )
    )
    jitter = random.Random(seed + 3)
    candidate_times = sorted(
        t + 0.35 + jitter.gauss(0.0, 0.01) for t in reference_times
    )
    step = QUICK_OFFSET_STEP if quick else OFFSET_STEP
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
        quick,
    )
    delta = abs(reference_result.correlation - vectorized_result.correlation)
    equivalence = {
        "correlation_delta": delta,
        "same_best_offset": bool(
            reference_result.best_offset == vectorized_result.best_offset
        ),
        "flows_matched": bool(correlator.matches(vectorized_result)),
    }
    equivalence["ok"] = delta <= EQUIVALENCE_TOLERANCE and all(
        value for value in equivalence.values() if isinstance(value, bool)
    )
    return {
        "packets": len(candidate_times),
        "offsets": int(offset_grid(MAX_OFFSET, step).size),
        **timings,
        "equivalence": equivalence,
    }


def _bench_visibility(quick: bool, seed: int) -> dict:
    """Visibility scan: per-lag dot products vs. the FFT spectrum.

    Timed on a watermarked flow; the plain-flow direction (an unmarked
    Poisson flow must *not* be flagged, by both paths) rides along in
    the equivalence check.
    """
    config = SquareWaveConfig(
        period=4.0, n_periods=16, base_rate=20.0, amplitude=0.3
    )
    marked = _simulate(
        lambda sink: SquareWaveWatermarker(config, seed=seed + 1).embed(
            sink, start=0.0
        )
    )
    plain = _simulate(
        lambda sink: PoissonFlow(rate=20.0, seed=seed + 4).schedule(
            sink, 0.0, config.duration
        )
    )
    tester = AutocorrelationVisibilityTest(
        window=0.25, max_lag=64 if quick else 128
    )
    reference_result, vectorized_result, timings = _race(
        lambda: visibility._reference_test(
            tester, marked, 0.0, config.duration
        ),
        lambda: tester.test(marked, 0.0, config.duration),
        quick,
    )
    delta = abs(reference_result.statistic - vectorized_result.statistic)
    plain_reference = visibility._reference_test(
        tester, plain, 0.0, config.duration
    )
    plain_vectorized = tester.test(plain, 0.0, config.duration)
    equivalence = {
        "statistic_delta": delta,
        "same_peak_lag": bool(
            reference_result.peak_lag == vectorized_result.peak_lag
        ),
        "watermark_flagged": bool(vectorized_result.watermark_suspected),
        "plain_flow_clean": bool(
            not plain_vectorized.watermark_suspected
            and plain_reference.watermark_suspected
            == plain_vectorized.watermark_suspected
        ),
    }
    equivalence["ok"] = delta <= EQUIVALENCE_TOLERANCE and all(
        value for value in equivalence.values() if isinstance(value, bool)
    )
    return {
        "packets": len(marked),
        "lags": int(min(tester.max_lag, len(marked))),
        **timings,
        "equivalence": equivalence,
    }


def _bench_campaign(quick: bool, seed: int) -> dict:
    """``run_campaign`` serial vs. the seed-isolated worker pool."""
    config = CampaignConfig(
        n_cases=QUICK_CAMPAIGN_CASES if quick else CAMPAIGN_CASES,
        comply_probability=0.6,
        seed=seed,
    )
    serial_result = run_campaign(config, max_workers=1)
    parallel_result = run_campaign(config, max_workers=CAMPAIGN_WORKERS)
    serial_s = best_seconds(
        lambda: run_campaign(config, max_workers=1), reps=1
    )
    parallel_s = best_seconds(
        lambda: run_campaign(config, max_workers=CAMPAIGN_WORKERS), reps=1
    )
    signatures_identical = [
        case_signature(outcome) for outcome in serial_result.outcomes
    ] == [case_signature(outcome) for outcome in parallel_result.outcomes]
    equivalence = {
        "signatures_identical": signatures_identical,
        "same_successes": serial_result.successes
        == parallel_result.successes,
        "same_suppressed": serial_result.suppressed
        == parallel_result.suppressed,
    }
    equivalence["ok"] = all(equivalence.values())
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
        "equivalence": equivalence,
    }


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


def _bench_conclusions() -> dict:
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


#: The four detector sections, in report order.
_DETECTOR_SECTIONS = (
    ("dsss", _bench_dsss),
    ("square_wave", _bench_square_wave),
    ("flow_correlation", _bench_flow_correlation),
    ("visibility", _bench_visibility),
)


def run_techniques_bench(
    quick: bool = False,
    seed: int = 99,
    out: str | Path = "BENCH_techniques.json",
) -> tuple[dict, bool]:
    """Run every technique benchmark and write ``BENCH_techniques.json``.

    Args:
        quick: Coarser offset grids, fewer repetitions, smaller campaign
            — for CI smoke runs.
        seed: Seed for embedders, synthetic flows, and the campaign.
        out: Where to write the JSON report.

    Returns:
        ``(report, ok)`` — ``ok`` is ``False`` when any vectorized path
        diverged from its scalar twin, the parallel campaign disagreed
        with the serial one, or a paper conclusion moved.  Speedups are
        informational only.
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
    for name, section in _DETECTOR_SECTIONS:
        report[name] = section(quick, seed)
    report["campaign"] = _bench_campaign(quick, seed)
    report["conclusions"] = _bench_conclusions()

    ok = (
        all(report[name]["equivalence"]["ok"] for name, _ in _DETECTOR_SECTIONS)
        and report["campaign"]["equivalence"]["ok"]
        and report["conclusions"]["ok"]
    )
    report["ok"] = ok

    path = Path(out)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report, ok


def render_techniques_report(report: dict) -> str:
    """Human-readable summary of a techniques benchmark report."""
    lines = []
    for name, _ in _DETECTOR_SECTIONS:
        section = report[name]
        verdict = "ok" if section["equivalence"]["ok"] else "FAIL"
        lines.append(
            f"{name:16s} scalar "
            f"{section['scalar']['detections_per_second']:8.1f}/s  "
            f"vectorized "
            f"{section['vectorized']['detections_per_second']:10.1f}/s  "
            f"speedup {section['speedup']:6.1f}x  equivalence {verdict}"
        )
    campaign = report["campaign"]
    lines.append(
        f"campaign         serial "
        f"{campaign['serial']['cases_per_second']:8.0f} cases/s  "
        f"parallel({campaign['workers']}) "
        f"{campaign['parallel']['cases_per_second']:8.0f} cases/s  "
        f"speedup {campaign['speedup']:6.2f}x  equivalence "
        f"{'ok' if campaign['equivalence']['ok'] else 'FAIL'} "
        f"(cpu_count={report['meta']['cpu_count']})"
    )
    conclusions = report["conclusions"]
    lines.append(
        f"conclusions: table1 {conclusions['table1']['agreement']}, "
        f"IV.A {conclusions['section_iv_a']['required_process']} + "
        f"{conclusions['section_iv_a']['identified_sources']}, "
        f"IV.B {conclusions['section_iv_b']['required_process']} -> "
        f"{'ok' if conclusions['ok'] else 'FAIL'}"
    )
    lines.append(f"overall: {'ok' if report['ok'] else 'FAIL'}")
    return "\n".join(lines)
