"""Unit tests for the shared signal kernels in ``repro.signal``."""

import numpy as np
import pytest

from repro.signal import (
    autocorrelation_spectrum,
    batched_code_correlation,
    batched_pearson,
    bin_edges_grid,
    binned_count_matrix,
    fold_half_counts,
    offset_grid,
)


class TestOffsetGrid:
    def test_matches_scalar_accumulation(self):
        offsets = offset_grid(1.0, 0.1)
        expected = []
        offset = 0.0
        while offset <= 1.0:
            expected.append(offset)
            offset += 0.1
        assert offsets.tolist() == expected

    def test_always_contains_zero(self):
        assert offset_grid(0.0, 0.05).tolist() == [0.0]

    def test_rejects_zero_step(self):
        with pytest.raises(ValueError, match="offset_step"):
            offset_grid(1.0, 0.0)

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError, match="offset_step"):
            offset_grid(1.0, -0.1)

    def test_rejects_negative_max_offset(self):
        with pytest.raises(ValueError, match="max_offset"):
            offset_grid(-0.5, 0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            offset_grid(float("nan"), 0.1)
        with pytest.raises(ValueError):
            offset_grid(1.0, float("inf"))

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError, match="cap"):
            offset_grid(1.0, 1e-9)


class TestBinnedCountMatrix:
    def test_rows_match_histogram(self):
        rng = np.random.default_rng(1)
        times = rng.uniform(0.0, 10.0, 500)
        offsets = offset_grid(1.0, 0.07)
        counts = binned_count_matrix(times, 0.0, offsets, 16, 0.5)
        for i, offset in enumerate(offsets):
            edges = offset + np.arange(17) * 0.5
            expected, _ = np.histogram(times, bins=edges)
            assert counts[i].tolist() == expected.tolist()

    def test_last_bin_closed_like_histogram(self):
        # An arrival exactly on the final edge belongs to the last bin.
        times = [0.0, 1.0, 2.0]
        counts = binned_count_matrix(times, 0.0, np.array([0.0]), 2, 1.0)
        expected, _ = np.histogram(times, bins=[0.0, 1.0, 2.0])
        assert counts[0].tolist() == expected.tolist() == [1, 2]

    def test_chunking_is_invisible(self):
        rng = np.random.default_rng(2)
        times = rng.uniform(0.0, 5.0, 200)
        offsets = offset_grid(1.0, 0.01)
        whole = binned_count_matrix(times, 0.0, offsets, 10, 0.5)
        chunked = binned_count_matrix(
            times, 0.0, offsets, 10, 0.5, chunk_bytes=256
        )
        assert (whole == chunked).all()

    def test_empty_offsets(self):
        counts = binned_count_matrix([1.0], 0.0, np.array([]), 4, 0.5)
        assert counts.shape == (0, 4)

    def test_edges_grid_validation(self):
        with pytest.raises(ValueError, match="n_bins"):
            bin_edges_grid(0.0, np.array([0.0]), 0, 0.5)
        with pytest.raises(ValueError, match="width"):
            bin_edges_grid(0.0, np.array([0.0]), 4, 0.0)


class TestBatchedCorrelation:
    def test_matches_manual_correlation(self):
        rng = np.random.default_rng(3)
        chips = np.where(rng.random(16) < 0.5, -1.0, 1.0)
        counts = rng.poisson(10.0, (5, 16)).astype(float)
        correlations = batched_code_correlation(counts, chips)
        for row, correlation in zip(counts, correlations):
            centered = row - row.mean()
            norm = np.linalg.norm(centered) * np.linalg.norm(chips)
            assert correlation == pytest.approx(
                float(centered @ chips / norm), abs=1e-12
            )

    def test_constant_row_is_zero(self):
        chips = np.array([1.0, -1.0, 1.0, -1.0])
        counts = np.full((2, 4), 7.0)
        assert batched_code_correlation(counts, chips).tolist() == [0.0, 0.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            batched_code_correlation(np.ones((2, 3)), np.ones(4))

    def test_pearson_matches_numpy(self):
        rng = np.random.default_rng(4)
        reference = rng.poisson(5.0, 32).astype(float)
        candidates = rng.poisson(5.0, (6, 32)).astype(float)
        correlations = batched_pearson(candidates, reference)
        for row, correlation in zip(candidates, correlations):
            expected = np.corrcoef(row, reference)[0, 1]
            assert correlation == pytest.approx(float(expected), abs=1e-12)

    def test_pearson_constant_side_is_zero(self):
        reference = np.arange(8, dtype=float)
        candidates = np.vstack([np.full(8, 3.0), np.arange(8, dtype=float)])
        correlations = batched_pearson(candidates, reference)
        assert correlations[0] == 0.0
        assert correlations[1] == pytest.approx(1.0)

    def test_pearson_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            batched_pearson(np.ones((2, 3)), np.ones(4))


class TestFoldHalfCounts:
    def test_matches_scalar_fold(self):
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0.0, 40.0, 300))
        offsets = offset_grid(1.0, 0.13)
        first_half, total = fold_half_counts(times, 0.0, offsets, 4.0, 32.0)
        for i, offset in enumerate(offsets):
            shifted = times - offset
            in_window = shifted[(shifted >= 0) & (shifted < 32.0)]
            phase = np.mod(in_window, 4.0)
            assert first_half[i] == int((phase < 2.0).sum())
            assert total[i] == in_window.size

    def test_chunking_is_invisible(self):
        rng = np.random.default_rng(6)
        times = rng.uniform(0.0, 20.0, 150)
        offsets = offset_grid(0.5, 0.02)
        whole = fold_half_counts(times, 0.0, offsets, 2.0, 16.0)
        chunked = fold_half_counts(
            times, 0.0, offsets, 2.0, 16.0, chunk_bytes=1024
        )
        assert (whole[0] == chunked[0]).all()
        assert (whole[1] == chunked[1]).all()

    def test_empty_series(self):
        first_half, total = fold_half_counts(
            [], 0.0, offset_grid(1.0, 0.5), 2.0, 8.0
        )
        assert first_half.tolist() == [0, 0, 0]
        assert total.tolist() == [0, 0, 0]

    def test_validation(self):
        with pytest.raises(ValueError, match="period"):
            fold_half_counts([1.0], 0.0, np.array([0.0]), 0.0, 8.0)
        with pytest.raises(ValueError, match="duration"):
            fold_half_counts([1.0], 0.0, np.array([0.0]), 2.0, 0.0)

    def test_boundary_counting_matches_dense_fold(self):
        """The searchsorted fast path is bit-identical to the broadcast fold.

        Exercises non-dyadic periods, irrational-ish offsets, and times
        planted exactly on (and one ulp around) half-period boundaries —
        the cases where an inexact boundary collapse would flip a count.
        """
        from repro.signal.folding import _fold_half_counts_dense

        rng = np.random.default_rng(11)
        for period, start in [(4.0, 0.0), (0.7, 3.25), (3.3333, -1.5), (1e-3, 0.1)]:
            duration = period * 9.5
            offsets = offset_grid(period / 3, period / 41)
            times = rng.uniform(-period, duration + period, 400)
            half = period / 2
            shifts = start + offsets
            planted = []
            for shift in shifts[:: max(1, shifts.size // 7)]:
                for k in range(10):
                    for edge in (k * period, k * period + half):
                        t = shift + edge
                        planted.extend(
                            [t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)]
                        )
            times = np.concatenate([times, planted])
            fast = fold_half_counts(times, start, offsets, period, duration)
            dense = _fold_half_counts_dense(
                times,
                start,
                offsets,
                period,
                duration,
                chunk_bytes=1 << 20,
                first_half=np.zeros(offsets.size, dtype=np.int64),
                total=np.zeros(offsets.size, dtype=np.int64),
            )
            assert (fast[0] == dense[0]).all(), period
            assert (fast[1] == dense[1]).all(), period


class TestAutocorrelationSpectrum:
    def test_matches_direct_dot_products(self):
        rng = np.random.default_rng(7)
        series = rng.poisson(8.0, 64).astype(float)
        centered = series - series.mean()
        denominator = float(centered @ centered)
        spectrum = autocorrelation_spectrum(series, 20)
        for k in range(20):
            lag = k + 1
            expected = float(centered[:-lag] @ centered[lag:]) / denominator
            assert spectrum[k] == pytest.approx(expected, abs=1e-9)

    def test_constant_series_is_zero(self):
        assert autocorrelation_spectrum(np.full(16, 3.0), 5).tolist() == [
            0.0
        ] * 5

    def test_lags_beyond_series_are_zero(self):
        spectrum = autocorrelation_spectrum(np.array([1.0, 2.0, 1.0]), 8)
        assert spectrum.shape == (8,)
        assert (spectrum[2:] == 0.0).all()

    def test_rejects_bad_max_lag(self):
        with pytest.raises(ValueError, match="max_lag"):
            autocorrelation_spectrum(np.ones(8), 0)
