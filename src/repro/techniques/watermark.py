"""Long-PN-code DSSS flow watermarking (paper section IV.B, ref [93]).

The technique the paper analyzes from Huang, Pan, Fu & Wang (INFOCOM
2011): law enforcement, controlling the server side of a suspect flow
(e.g. a seized web server), *slightly modulates the flow's traffic rate*
with a long pseudo-noise (PN) spreading code.  At the other side of the
anonymity network it observes only packet *arrival rates* at a candidate
subscriber's ISP — non-content data, so "they do not need a wiretap
warrant" — and despreads with the same PN code.  A high correlation means
the candidate is receiving the watermarked flow.

Implementation notes:

* PN codes are maximal-length LFSR sequences (m-sequences) mapped to
  ±1 chips, the classic DSSS spreading codes with two-valued
  autocorrelation (L at zero lag, -1 elsewhere);
* embedding multiplies the base rate by ``(1 + amplitude * chip)`` per
  chip interval, packets drawn as a Poisson process;
* detection bins arrivals into chip-sized windows, centres the counts,
  and computes the normalized (Pearson) correlation with the code; a
  small offset search absorbs the unknown network delay;
* the detection threshold is set from the null distribution: for an
  unwatermarked flow the correlation is approximately
  ``N(0, 1/L)``, so ``threshold = z / sqrt(L)`` gives a constant false
  alarm rate per candidate.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np

from repro.core.action import (
    ConsentFacts,
    DoctrineFacts,
    InvestigativeAction,
)
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, ConsentScope, DataKind, Place, Timing
from repro.signal import (
    batched_code_correlation,
    binned_count_matrix,
    offset_grid,
)
from repro.techniques.base import Technique

#: Primitive feedback taps (one-indexed bit positions) for maximal-length
#: LFSRs, keyed by register length.  Length-n taps give a PN period 2^n-1.
_PRIMITIVE_TAPS: dict[int, tuple[int, ...]] = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
}


class PnCode:
    """A ±1 pseudo-noise spreading code.

    Use :meth:`msequence` for classic LFSR m-sequences (lengths
    ``2**n - 1``) or :meth:`random_code` for arbitrary lengths.
    """

    def __init__(self, chips: np.ndarray) -> None:
        chips = np.asarray(chips, dtype=float)
        if chips.ndim != 1 or chips.size == 0:
            raise ValueError("chips must be a non-empty 1-D array")
        if not np.all(np.isin(chips, (-1.0, 1.0))):
            raise ValueError("chips must be +/-1")
        self.chips = chips

    @classmethod
    def msequence(cls, register_length: int, seed_state: int = 1) -> "PnCode":
        """Generate a maximal-length sequence of period ``2**n - 1``.

        Args:
            register_length: LFSR register length ``n`` (3..12 supported,
                giving code lengths 7..4095).
            seed_state: Non-zero initial register state (rotates the code
                phase).

        Raises:
            ValueError: For unsupported register lengths or a zero seed.
        """
        taps = _PRIMITIVE_TAPS.get(register_length)
        if taps is None:
            supported = sorted(_PRIMITIVE_TAPS)
            raise ValueError(
                f"register length {register_length} unsupported; "
                f"choose from {supported}"
            )
        mask = (1 << register_length) - 1
        state = seed_state & mask
        if state == 0:
            raise ValueError("LFSR seed state must be non-zero")
        length = (1 << register_length) - 1
        bits = np.empty(length, dtype=float)
        for i in range(length):
            # Fibonacci form, shifting left: output the register MSB and
            # feed back the XOR of the tap bits into the LSB.
            bits[i] = (state >> (register_length - 1)) & 1
            feedback = 0
            for tap in taps:
                feedback ^= (state >> (tap - 1)) & 1
            state = ((state << 1) | feedback) & mask
        return cls(2.0 * bits - 1.0)

    @classmethod
    def random_code(cls, length: int, seed: int = 0) -> "PnCode":
        """A random ±1 code of arbitrary length (for ablations)."""
        if length <= 0:
            raise ValueError("length must be positive")
        rng = np.random.default_rng(seed)
        return cls(rng.choice((-1.0, 1.0), size=length))

    def __len__(self) -> int:
        return int(self.chips.size)

    @property
    def balance(self) -> int:
        """Sum of chips; an m-sequence is balanced to exactly +/-1."""
        return int(self.chips.sum())

    def autocorrelation(self, shift: int) -> float:
        """Circular autocorrelation at a chip shift (unnormalized)."""
        return float(np.dot(self.chips, np.roll(self.chips, shift)))


@dataclasses.dataclass(frozen=True)
class WatermarkConfig:
    """Parameters of the embedding/detection scheme.

    Attributes:
        chip_duration: Seconds per chip interval.
        base_rate: Mean packets/second of the carrier flow.
        amplitude: Fractional rate modulation depth (the paper requires it
            to be *slight*; 0.2-0.4 is realistic).
        threshold_sigmas: Detection threshold in null-std units; the null
            correlation std is ``1/sqrt(L)``.
    """

    chip_duration: float = 0.5
    base_rate: float = 20.0
    amplitude: float = 0.3
    threshold_sigmas: float = 4.0

    def __post_init__(self) -> None:
        if self.chip_duration <= 0:
            raise ValueError("chip_duration must be positive")
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0 < self.amplitude < 1:
            raise ValueError("amplitude must be in (0, 1)")

    def threshold(self, code_length: int) -> float:
        """The CFAR detection threshold for a given code length."""
        return self.threshold_sigmas / np.sqrt(code_length)


class FlowWatermarker:
    """Embeds a PN watermark into a flow's downstream rate.

    The watermarker controls the *sending* side (the seized server of the
    paper's situation one, or a campus gateway in situation two); it
    schedules the flow's packets so the rate in chip ``j`` is
    ``base_rate * (1 + amplitude * chip_j)``.
    """

    def __init__(self, code: PnCode, config: WatermarkConfig, seed: int = 0) -> None:
        self.code = code
        self.config = config
        self._rng = random.Random(seed)

    @property
    def duration(self) -> float:
        """Total embedding time: one chip interval per chip."""
        return len(self.code) * self.config.chip_duration

    def embed(self, channel, start: float, size: int = 512) -> int:
        """Schedule the watermarked flow on a channel.

        Args:
            channel: A circuit/session exposing ``send_downstream`` and
                ``sim``.
            start: Simulation time embedding begins.
            size: Cell size.

        Returns:
            The number of packets scheduled.
        """
        config = self.config
        sim = channel.sim
        count = 0
        for j, chip in enumerate(self.code.chips):
            rate = config.base_rate * (1.0 + config.amplitude * chip)
            t = start + j * config.chip_duration
            chip_end = t + config.chip_duration
            t += self._rng.expovariate(rate)
            while t < chip_end:
                sim.schedule_at(t, lambda: channel.send_downstream(size))
                count += 1
                t += self._rng.expovariate(rate)
        return count


@dataclasses.dataclass(frozen=True)
class DetectionResult:
    """Outcome of despreading one candidate's arrival series.

    Attributes:
        correlation: Best normalized correlation over the offset search.
        threshold: The decision threshold used.
        detected: Whether ``correlation >= threshold``.
        best_offset: The delay offset (seconds) that maximized correlation.
        n_packets: Number of arrivals analyzed.
        confidence: How much of the expected signal support was actually
            observed, in [0, 1].  1.0 with no expectation given and a
            non-empty series; 0.0 for an empty series; otherwise
            ``min(1, observed/expected)``.  Degraded input (tap dropout,
            relay churn) lowers confidence instead of raising.
    """

    correlation: float
    threshold: float
    detected: bool
    best_offset: float
    n_packets: int
    confidence: float = 1.0


class WatermarkDetector:
    """Despreads candidate arrival series against the PN code.

    The detector sees only arrival timestamps (rates) — the non-content
    view a pen/trap order covers.
    """

    def __init__(self, code: PnCode, config: WatermarkConfig) -> None:
        self.code = code
        self.config = config

    def correlate(
        self, arrival_times: list[float], start: float, offset: float = 0.0
    ) -> float:
        """Normalized correlation at one candidate delay offset."""
        config = self.config
        length = len(self.code)
        t0 = start + offset
        edges = t0 + np.arange(length + 1) * config.chip_duration
        counts, _ = np.histogram(np.asarray(arrival_times), bins=edges)
        centered = counts - counts.mean()
        norm = np.linalg.norm(centered) * np.linalg.norm(self.code.chips)
        if norm == 0:
            return 0.0
        return float(np.dot(centered, self.code.chips) / norm)

    def detect(
        self,
        arrival_times: list[float],
        start: float,
        max_offset: float = 1.0,
        offset_step: float = 0.05,
        expected_packets: int | None = None,
    ) -> DetectionResult:
        """Search delay offsets and decide whether the watermark is present.

        The whole offset sweep runs through the vectorized signal kernels
        — one sort of the arrivals, one binned-count matrix over the
        offset grid, one batched despread — instead of re-binning per
        offset (the scalar original survives as
        :func:`_reference_detect` for the differential suite).

        Degraded input never raises: an empty series yields a clean
        non-detection at confidence 0, and a thinned series (dropout,
        churn) yields a result whose ``confidence`` reflects the missing
        support.

        Args:
            arrival_times: Candidate's observed packet arrival timestamps.
            start: The known embedding start time.
            max_offset: Largest network delay to search.
            offset_step: Offset search granularity (a fraction of the chip
                duration is appropriate).
            expected_packets: How many packets the embedder scheduled, if
                known; enables the confidence score.

        Returns:
            The best-offset :class:`DetectionResult`.

        Raises:
            ValueError: If ``offset_step`` is not positive or
                ``max_offset`` is negative (the scalar loop spun forever
                or silently scanned nothing).
        """
        offsets = offset_grid(max_offset, offset_step)
        threshold = self.config.threshold(len(self.code))
        if not arrival_times:
            return DetectionResult(
                correlation=0.0,
                threshold=threshold,
                detected=False,
                best_offset=0.0,
                n_packets=0,
                confidence=0.0,
            )
        counts = binned_count_matrix(
            arrival_times,
            start,
            offsets,
            len(self.code),
            self.config.chip_duration,
        )
        correlations = batched_code_correlation(counts, self.code.chips)
        best_index = int(np.argmax(correlations))
        best_corr = float(correlations[best_index])
        best_offset = float(offsets[best_index])
        confidence = 1.0
        if expected_packets is not None and expected_packets > 0:
            confidence = min(1.0, len(arrival_times) / expected_packets)
        return DetectionResult(
            correlation=best_corr,
            threshold=threshold,
            detected=best_corr >= threshold,
            best_offset=best_offset,
            n_packets=len(arrival_times),
            confidence=confidence,
        )


def _reference_detect(
    detector: WatermarkDetector,
    arrival_times: list[float],
    start: float,
    max_offset: float = 1.0,
    offset_step: float = 0.05,
    expected_packets: int | None = None,
) -> DetectionResult:
    """The original scalar offset sweep, kept for differential tests.

    One :meth:`WatermarkDetector.correlate` call (a fresh histogram) per
    trial offset — O(offsets x packets).  Production detection runs the
    vectorized kernels; the hypothesis equivalence suite and ``repro
    bench`` hold the two paths together within 1e-9.
    """
    threshold = detector.config.threshold(len(detector.code))
    if not arrival_times:
        return DetectionResult(
            correlation=0.0,
            threshold=threshold,
            detected=False,
            best_offset=0.0,
            n_packets=0,
            confidence=0.0,
        )
    best_corr = float("-inf")
    best_offset = 0.0
    offset = 0.0
    while offset <= max_offset:
        corr = detector.correlate(arrival_times, start, offset)
        if corr > best_corr:
            best_corr = corr
            best_offset = offset
        offset += offset_step
    confidence = 1.0
    if expected_packets is not None and expected_packets > 0:
        confidence = min(1.0, len(arrival_times) / expected_packets)
    return DetectionResult(
        correlation=best_corr,
        threshold=threshold,
        detected=best_corr >= threshold,
        best_offset=best_offset,
        n_packets=len(arrival_times),
        confidence=confidence,
    )


class DsssWatermarkTechnique(Technique):
    """The full technique, with its legal self-description.

    Two acquisitions (paper section IV.B, situation one):

    1. modulating the rate at the seized server — the server is under law
       enforcement control with the owner's consent/seizure authority, so
       no new process is needed;
    2. observing traffic *rates* (packet timestamps, not contents) at the
       suspect's ISP — real-time non-content collection at a provider,
       i.e. a pen/trap court order.

    The advisor therefore classifies the technique as *workable with
    process* (a court order, not a wiretap order), matching the paper.
    """

    name = "long-PN-code DSSS flow watermark"

    def __init__(
        self, code: PnCode | None = None, config: WatermarkConfig | None = None
    ) -> None:
        self.code = code or PnCode.msequence(7)
        self.config = config or WatermarkConfig()

    def watermarker(self, seed: int = 0) -> FlowWatermarker:
        """An embedder bound to this technique's code and config."""
        return FlowWatermarker(self.code, self.config, seed=seed)

    def detector(self) -> WatermarkDetector:
        """A detector bound to this technique's code and config."""
        return WatermarkDetector(self.code, self.config)

    def required_actions(self) -> list[InvestigativeAction]:
        modulate = InvestigativeAction(
            description=(
                "modulate outgoing traffic rate at the seized server "
                "hosting the contraband"
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.NON_CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(place=Place.CONSENTING_NETWORK),
            # The server is under law-enforcement control (seized, or its
            # operator cooperating); modulation happens on that box only.
            consent=ConsentFacts(scope=ConsentScope.NETWORK_OWNER),
            doctrine=DoctrineFacts(monitoring_own_network=True),
        )
        observe = InvestigativeAction(
            description=(
                "record packet arrival times (rates only, no contents) at "
                "the suspect's ISP"
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.NON_CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(place=Place.TRANSMISSION_PATH),
        )
        return [modulate, observe]
