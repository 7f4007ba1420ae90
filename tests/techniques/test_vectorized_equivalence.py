"""Differential suite: vectorized detectors vs. their scalar references.

Every rewritten hot path keeps its scalar original as a module-level
``_reference_*`` function; hypothesis drives both over randomized arrival
series and offset grids and requires agreement — statistics within 1e-9,
identical verdicts and best offsets.  Arrival times are built from scaled
integers so a series never sits within one float ulp of a bin edge, which
would make "equivalence" depend on tie-breaking noise rather than on the
kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.techniques import flow_correlation as flow_correlation_module
from repro.techniques import visibility as visibility_module
from repro.techniques.flow_correlation import (
    PacketCountingCorrelator,
    _reference_correlate,
)
from repro.techniques.interval_watermark import (
    SquareWaveConfig,
    SquareWaveDetector,
)
from repro.techniques.interval_watermark import (
    _reference_detect as _reference_square_detect,
)
from repro.techniques.visibility import (
    AutocorrelationVisibilityTest,
    _reference_test,
)
from repro.techniques.watermark import (
    PnCode,
    WatermarkConfig,
    WatermarkDetector,
    _reference_detect,
)

TOLERANCE = 1e-9

#: Arrival times as 1 ms-granularity integers over [0, 80 s) — boundary-
#: safe (no timestamp within an ulp of a chip/window edge) yet dense
#: enough to occupy every bin a detector cares about.
arrival_series = st.lists(
    st.integers(min_value=0, max_value=80_000),
    min_size=0,
    max_size=400,
).map(lambda ms: sorted(t / 1000.0 for t in ms))

offset_steps = st.sampled_from([0.03, 0.05, 0.1, 0.17])
max_offsets = st.sampled_from([0.0, 0.25, 1.0])


def _assert_equivalent_argmax(vectorized, reference, statistic_at):
    """Both paths must pick a maximizer of the *same* objective.

    Strict equality of the winning offset/lag is too strong: when two
    trial points tie within float summation noise (matmul and 1-D dot
    accumulate in different orders), argmax and the scalar strict-``>``
    sweep may break the tie differently.  What matters is that the
    vectorized winner scores within tolerance of the scalar best.
    """
    if vectorized == reference:
        return
    assert statistic_at(vectorized) == pytest.approx(
        statistic_at(reference), abs=TOLERANCE
    )


class TestDsssEquivalence:
    @given(arrival_series, max_offsets, offset_steps, st.sampled_from([4, 6]))
    @settings(max_examples=60, deadline=None)
    def test_detect_matches_reference(self, times, max_offset, step, order):
        detector = WatermarkDetector(
            PnCode.msequence(order), WatermarkConfig(chip_duration=0.5)
        )
        vectorized = detector.detect(
            times, 0.0, max_offset=max_offset, offset_step=step
        )
        reference = _reference_detect(
            detector, times, 0.0, max_offset=max_offset, offset_step=step
        )
        assert vectorized.correlation == pytest.approx(
            reference.correlation, abs=TOLERANCE
        )
        assert vectorized.detected == reference.detected
        _assert_equivalent_argmax(
            vectorized.best_offset,
            reference.best_offset,
            lambda offset: detector.correlate(times, 0.0, offset),
        )
        assert vectorized.n_packets == reference.n_packets


class TestSquareWaveEquivalence:
    @given(arrival_series, max_offsets, offset_steps)
    @settings(max_examples=60, deadline=None)
    def test_detect_matches_reference(self, times, max_offset, step):
        detector = SquareWaveDetector(SquareWaveConfig(period=4.0, n_periods=8))
        vectorized = detector.detect(
            times, 0.0, max_offset=max_offset, offset_step=step
        )
        reference = _reference_square_detect(
            detector, times, 0.0, max_offset=max_offset, offset_step=step
        )
        assert vectorized.statistic == pytest.approx(
            reference.statistic, abs=TOLERANCE
        )
        assert vectorized.detected == reference.detected


class TestFlowCorrelationEquivalence:
    @given(arrival_series, arrival_series, offset_steps)
    @settings(max_examples=60, deadline=None)
    def test_correlate_matches_reference(self, reference_times, candidate, step):
        correlator = PacketCountingCorrelator(
            window=0.5, max_offset=1.0, offset_step=step
        )
        vectorized = correlator.correlate(
            reference_times, candidate, 0.0, 30.0
        )
        reference = _reference_correlate(
            correlator, reference_times, candidate, 0.0, 30.0
        )
        assert vectorized.correlation == pytest.approx(
            reference.correlation, abs=TOLERANCE
        )

        def _pearson_at(offset):
            binned_reference = flow_correlation_module.binned_counts(
                reference_times, 0.0, 30.0, correlator.window
            )
            binned_candidate = flow_correlation_module.binned_counts(
                candidate, offset, 30.0, correlator.window
            )
            return flow_correlation_module.pearson(
                binned_reference, binned_candidate
            )

        _assert_equivalent_argmax(
            vectorized.best_offset, reference.best_offset, _pearson_at
        )
        assert vectorized.confidence == reference.confidence


class TestVisibilityEquivalence:
    @given(arrival_series, st.sampled_from([8, 32, 64]))
    @settings(max_examples=60, deadline=None)
    def test_scan_matches_reference(self, times, max_lag):
        tester = AutocorrelationVisibilityTest(window=0.5, max_lag=max_lag)
        vectorized = tester.test(times, 0.0, 40.0)
        reference = _reference_test(tester, times, 0.0, 40.0)
        assert vectorized.statistic == pytest.approx(
            reference.statistic, abs=TOLERANCE
        )
        assert vectorized.watermark_suspected == reference.watermark_suspected

        def _statistic_at(lag):
            if lag == 0:
                return 0.0
            series = tester.rate_series(times, 0.0, 40.0)
            centered = series - series.mean()
            denominator = float(np.dot(centered, centered))
            if denominator == 0:
                return 0.0
            autocorrelation = (
                float(np.dot(centered[:-lag], centered[lag:])) / denominator
            )
            return abs(autocorrelation) * np.sqrt(centered.size)

        _assert_equivalent_argmax(
            vectorized.peak_lag, reference.peak_lag, _statistic_at
        )


class TestSweepValidation:
    """Satellite regression: bad sweep parameters raise instead of hanging."""

    def test_watermark_detector_rejects_bad_sweep(self):
        detector = WatermarkDetector(PnCode.msequence(4), WatermarkConfig())
        with pytest.raises(ValueError, match="offset_step"):
            detector.detect([1.0], 0.0, offset_step=0.0)
        with pytest.raises(ValueError, match="offset_step"):
            detector.detect([1.0], 0.0, offset_step=-0.05)
        with pytest.raises(ValueError, match="max_offset"):
            detector.detect([1.0], 0.0, max_offset=-1.0)

    def test_square_wave_detector_rejects_bad_sweep(self):
        detector = SquareWaveDetector(SquareWaveConfig())
        with pytest.raises(ValueError, match="offset_step"):
            detector.detect([1.0], 0.0, offset_step=0.0)
        with pytest.raises(ValueError, match="max_offset"):
            detector.detect([1.0], 0.0, max_offset=-0.5)

    def test_flow_correlator_rejects_bad_sweep(self):
        with pytest.raises(ValueError, match="offset_step"):
            PacketCountingCorrelator(offset_step=0.0)
        with pytest.raises(ValueError, match="offset_step"):
            PacketCountingCorrelator(offset_step=-0.1)
        with pytest.raises(ValueError, match="max_offset"):
            PacketCountingCorrelator(max_offset=-1.0)

    def test_empty_series_still_validates_sweep(self):
        # Validation precedes the empty-series early return.
        detector = WatermarkDetector(PnCode.msequence(4), WatermarkConfig())
        with pytest.raises(ValueError):
            detector.detect([], 0.0, offset_step=0.0)


def test_reference_twins_stay_importable():
    """The scalar twins are API the differential layer depends on."""
    assert callable(_reference_detect)
    assert callable(_reference_square_detect)
    assert callable(_reference_correlate)
    assert callable(visibility_module._reference_test)
