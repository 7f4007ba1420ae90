"""The anonymous-P2P timing investigation (paper section IV.A, ref [22]).

Reimplements the shape of Prusty, Levine & Liberatore's OneSwarm
investigation: law enforcement *joins the overlay as an ordinary peer*,
issues queries for contraband, and measures how quickly each direct
neighbour responds.  A neighbour that has the file answers after only its
link RTT plus a lookup delay; a neighbour that merely forwards pays the
overlay's per-hop artificial delays both ways.  Classifying on the
*excess* delay (response time minus the openly measurable link RTT)
separates sources from forwarders.

Everything observed is traffic the protocol sends the investigator
voluntarily — broadcast queries and addressed responses — so the
technique is workable with **no** warrant/court order/subpoena (the
paper's section IV.A conclusion, mirrored in
:meth:`OneSwarmTimingAttack.required_actions`).
"""

from __future__ import annotations

import dataclasses
import statistics

from repro.anonymity.p2p import P2POverlay, ResponseRecord
from repro.core.action import InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, DataKind, Place, Timing
from repro.techniques.base import Technique


@dataclasses.dataclass(frozen=True)
class NeighborAssessment:
    """The attack's verdict on one direct neighbour.

    Attributes:
        name: Neighbour peer name.
        n_responses: Responses received through this neighbour.
        median_response_time: Median query-to-response time.
        ping_rtt: Openly measured link round-trip to the neighbour.
        excess_delay: ``median_response_time - ping_rtt`` — the decision
            statistic.
        classified_source: The attack's verdict.
        estimated_distance: Estimated hops from the neighbour to the
            nearest responding source: 0 means the neighbour *is* the
            source, 1 means it is a direct friend of one — a "trusted
            node of the source" in the paper's phrase.
        confidence: Fraction of the query trials this neighbour actually
            answered, in [0, 1].  A lossy overlay (dropped responses,
            churned relays) thins the sample the median is computed over;
            the verdict still comes back, flagged as lower-confidence
            instead of raising.
    """

    name: str
    n_responses: int
    median_response_time: float
    ping_rtt: float
    excess_delay: float
    classified_source: bool
    estimated_distance: int = 0
    confidence: float = 1.0


@dataclasses.dataclass(frozen=True)
class InvestigationResult:
    """Full outcome of one investigation run."""

    investigator: str
    file_id: str
    trials: int
    assessments: tuple[NeighborAssessment, ...]

    def identified_sources(self) -> list[str]:
        """Neighbours the attack classified as sources."""
        return [a.name for a in self.assessments if a.classified_source]


@dataclasses.dataclass(frozen=True)
class AttackMetrics:
    """Precision/recall of the classification against ground truth."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    @property
    def precision(self) -> float:
        """Fraction of identified sources that really are sources."""
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 1.0

    @property
    def recall(self) -> float:
        """Fraction of responding sources the attack identified."""
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 1.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


class OneSwarmTimingAttack(Technique):
    """RTT-based source identification in a friend-to-friend overlay.

    Args:
        excess_threshold: Maximum excess delay (seconds) for a neighbour
            to be classified a source.  Must sit between the source lookup
            delay (tens of ms) and the overlay's per-hop forwarding delay
            (150 ms+); the default splits them.
    """

    name = "anonymous-P2P response-timing investigation"

    def __init__(self, excess_threshold: float = 0.12) -> None:
        if excess_threshold <= 0:
            raise ValueError("excess_threshold must be positive")
        self.excess_threshold = excess_threshold

    def investigate(
        self,
        overlay: P2POverlay,
        investigator: str,
        file_id: str,
        trials: int = 10,
        ttl: int = 5,
    ) -> InvestigationResult:
        """Run the investigation from a peer already in the overlay.

        Args:
            overlay: The F2F overlay (the investigator must already be a
                member with friend edges — joining is ordinary protocol
                behaviour).
            investigator: The investigator's peer name.
            file_id: The contraband file queried for.
            trials: Number of query rounds (more rounds tighten medians).
            ttl: Query time-to-live.

        Returns:
            Assessments for every neighbour that delivered at least one
            response.
        """
        # repro-lint: disable=REPRO110 -- paper section IV.A: OneSwarm
        # peers volunteer timing responses to any participant by protocol
        # design, so querying as an ordinary peer is not a search and
        # needs no process (the compliance verdict is NOT_REGULATED).
        records = overlay.query(
            investigator, file_id, ttl=ttl, trials=trials
        )
        return self.assess_records(overlay, investigator, file_id, trials, records)

    def assess_records(
        self,
        overlay: P2POverlay,
        investigator: str,
        file_id: str,
        trials: int,
        records: list[ResponseRecord],
    ) -> InvestigationResult:
        """Classify neighbours from already collected response records.

        Partial input degrades gracefully: neighbours seen in fewer than
        ``trials`` responses are still assessed, with ``confidence``
        scaled down to the observed fraction; an empty record list yields
        an empty (not raised) result.
        """
        assessments = []
        for neighbor, (median_rt, count) in _neighbor_medians(
            records
        ).items():
            rtt = overlay.measure_rtt(investigator, neighbor)
            excess = median_rt - rtt
            confidence = min(1.0, count / trials) if trials > 0 else 0.0
            assessments.append(
                NeighborAssessment(
                    name=neighbor,
                    n_responses=count,
                    median_response_time=median_rt,
                    ping_rtt=rtt,
                    excess_delay=excess,
                    classified_source=excess < self.excess_threshold,
                    estimated_distance=self.estimate_distance(
                        excess, overlay.timing
                    ),
                    confidence=confidence,
                )
            )
        return InvestigationResult(
            investigator=investigator,
            file_id=file_id,
            trials=trials,
            assessments=tuple(assessments),
        )

    @staticmethod
    def estimate_distance(excess_delay: float, timing) -> int:
        """Estimate hops from a neighbour to the nearest responding source.

        The paper's attack distinguishes sources from "trusted nodes of
        the sources" — one-hop relays.  Each extra hop costs one query
        forwarding delay, one friend-link RTT, and one response-relay
        delay; dividing the lookup-corrected excess by the mean per-hop
        cost estimates the distance.

        Args:
            excess_delay: Median response time minus the neighbour's ping
                RTT.
            timing: The overlay's
                :class:`~repro.anonymity.p2p.TimingParameters`.

        Returns:
            0 for the source itself, 1 for a direct friend of a source,
            and so on (never negative).
        """
        lookup_mean = sum(timing.source_lookup) / 2.0
        forward_mean = sum(timing.forward_delay) / 2.0
        link_rtt_mean = sum(timing.link_latency)  # two traversals
        relay_mean = sum(timing.relay_response) / 2.0
        per_hop = forward_mean + link_rtt_mean + relay_mean
        remainder = excess_delay - lookup_mean
        if remainder <= per_hop / 2.0:
            return 0
        return max(1, round(remainder / per_hop))

    @staticmethod
    def score(
        result: InvestigationResult, overlay: P2POverlay
    ) -> AttackMetrics:
        """Score a result against the overlay's ground truth."""
        tp = fp = fn = tn = 0
        for assessment in result.assessments:
            truth = overlay.is_source(assessment.name, result.file_id)
            if assessment.classified_source and truth:
                tp += 1
            elif assessment.classified_source and not truth:
                fp += 1
            elif not assessment.classified_source and truth:
                fn += 1
            else:
                tn += 1
        return AttackMetrics(
            true_positives=tp,
            false_positives=fp,
            false_negatives=fn,
            true_negatives=tn,
        )

    def required_actions(self) -> list[InvestigativeAction]:
        send_queries = InvestigativeAction(
            description=(
                "join the anonymous P2P overlay and broadcast search "
                "queries under normal protocol operation"
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(
                place=Place.PUBLIC, knowingly_exposed=True
            ),
        )
        observe_responses = InvestigativeAction(
            description=(
                "record the timing and content of responses addressed to "
                "the investigator's own peer"
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(
                place=Place.PUBLIC,
                knowingly_exposed=True,
                delivered_to_recipient=True,
            ),
        )
        return [send_queries, observe_responses]


def _neighbor_medians(
    records: list[ResponseRecord],
) -> dict[str, tuple[float, int]]:
    """``{neighbor: (median_response_time, n_responses)}`` in name order."""
    by_neighbor: dict[str, list[float]] = {}
    for record in records:
        by_neighbor.setdefault(record.neighbor, []).append(
            record.response_time
        )
    return {
        neighbor: (statistics.median(times), len(times))
        for neighbor, times in sorted(by_neighbor.items())
    }
