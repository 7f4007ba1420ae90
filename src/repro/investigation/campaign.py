"""Campaign simulation: prosecution success as a function of compliance.

The paper's thesis, aggregated: techniques used without the required
process produce suppressed evidence and failed prosecutions.  A campaign
runs many randomized cases — each drawing a Table 1 scene — with the
officer obtaining the required process with a configurable probability,
and measures the prosecution success rate.  The success curve is monotone
in the compliance probability, saturating at 100% under full compliance.
"""

from __future__ import annotations

import dataclasses
import random

from repro import obs
from repro.core.cache import RulingCache
from repro.core.engine import ComplianceEngine
from repro.core.scenarios import Scenario, build_table1
from repro.investigation.pipeline import InvestigationPipeline, SceneOutcome
from repro.parallel import ordered_map, resolve_workers


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one campaign.

    Attributes:
        n_cases: Number of randomized cases to run.
        comply_probability: Per-case probability the officer seeks the
            required process before acting.
        seed: RNG seed for scene selection and compliance draws.
    """

    n_cases: int = 100
    comply_probability: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_cases < 1:
            raise ValueError("n_cases must be positive")
        if not 0.0 <= self.comply_probability <= 1.0:
            raise ValueError("comply_probability must be a probability")


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """Aggregate outcome of a campaign.

    Attributes:
        config: The campaign's parameters.
        outcomes: Every case's scene outcome, in order.
        successes: Cases whose evidence was admitted.
        suppressed: Cases whose evidence was excluded.
    """

    config: CampaignConfig
    outcomes: tuple[SceneOutcome, ...]
    successes: int
    suppressed: int

    @property
    def success_rate(self) -> float:
        """Fraction of cases ending with admissible evidence."""
        return self.successes / len(self.outcomes) if self.outcomes else 0.0

    def success_rate_for(self, needs_process: bool) -> float:
        """Success rate restricted to scenes (not) needing process."""
        relevant = [
            outcome
            for outcome in self.outcomes
            if outcome.ruling.needs_process == needs_process
        ]
        if not relevant:
            return 0.0
        return sum(not o.suppressed for o in relevant) / len(relevant)


def draw_cases(
    config: CampaignConfig, scenarios: tuple[Scenario, ...]
) -> list[tuple[Scenario, bool]]:
    """Materialize every case's ``(scenario, complies)`` draw up front.

    The draws consume the campaign RNG in exactly the order the original
    serial loop did — ``choice`` then ``random`` per case — so a given
    seed produces the same case sequence whether the cases then run
    serially or across a worker pool.
    """
    rng = random.Random(config.seed)
    draws = []
    for __ in range(config.n_cases):
        scenario = rng.choice(scenarios)
        complies = rng.random() < config.comply_probability
        draws.append((scenario, complies))
    return draws


def case_signature(outcome: SceneOutcome) -> tuple:
    """A canonical, order-stable digest of one case's outcome.

    Evidence items carry process-global serial ids
    (:mod:`repro.evidence.items` counts acquisitions per *process*), so
    outcomes produced in pool workers differ from serial ones in those
    ids while agreeing in everything the paper's thesis depends on.  The
    signature captures that legally meaningful content — scene, ruling,
    process, suppression, custody/interruption shape — and is what the
    parallel-equivalence tests and ``repro bench`` compare.
    """
    evidence = outcome.evidence
    return (
        outcome.scenario.number,
        outcome.ruling.needs_process,
        outcome.ruling.required_process.name,
        outcome.process_obtained.name,
        evidence.process_held.name if evidence is not None else None,
        outcome.suppressed,
        outcome.admissibility.name,
        tuple(outcome.interruptions),
        outcome.application_attempts,
        (
            tuple(entry.event for entry in outcome.custody.entries)
            if outcome.custody is not None
            else None
        ),
    )


def _new_pipeline() -> InvestigationPipeline:
    """A pipeline over a cached engine, as every campaign path uses."""
    return InvestigationPipeline(ComplianceEngine(cache=RulingCache()))


def _run_case(
    pipeline: InvestigationPipeline,
    index: int,
    scenario: Scenario,
    complies: bool,
) -> SceneOutcome:
    """One case under a ``campaign.case`` span (shared serial/worker)."""
    with obs.span(
        "campaign.case", case=index, scene=scenario.number, comply=complies
    ) as sp:
        outcome = pipeline.run_scene(scenario, obtain_process=complies)
        sp.set(suppressed=outcome.suppressed)
    return outcome


#: Per-worker-process pipeline, built lazily on the first case a worker
#: executes and reused for every later case — the same warm-cache
#: behaviour the serial loop gets from its one pipeline.
_WORKER_PIPELINE: InvestigationPipeline | None = None


def _case_worker(task: tuple[int, Scenario, bool]) -> SceneOutcome:
    """Run one pre-drawn case inside a pool worker.

    Cases are draw-isolated — the parent materialized every
    ``(scenario, complies)`` pair before the fan-out — so workers share
    nothing and the outcome sequence is independent of worker count and
    scheduling.
    """
    global _WORKER_PIPELINE
    if _WORKER_PIPELINE is None:
        _WORKER_PIPELINE = _new_pipeline()
    return _run_case(_WORKER_PIPELINE, *task)


def run_campaign(
    config: CampaignConfig,
    scenarios: tuple[Scenario, ...] | None = None,
    max_workers: int | None = 1,
) -> CampaignResult:
    """Run one campaign of randomized cases.

    Args:
        config: Campaign parameters.
        scenarios: Scene pool to draw from (defaults to Table 1).
        max_workers: Anything below 2 runs the cases serially in-process;
            ``None`` fans out across one worker per CPU (capped at the
            case count), mirroring ``repro chaos --workers``.  Outcomes
            come back in case order either way, and their
            :func:`case_signature` sequences are identical.
    """
    scenarios = scenarios or build_table1()
    tasks = [
        (index, scenario, complies)
        for index, (scenario, complies) in enumerate(
            draw_cases(config, scenarios)
        )
    ]
    workers = resolve_workers(max_workers, config.n_cases)
    if workers > 1:
        outcomes = ordered_map(_case_worker, tasks, workers)
    else:
        pipeline = _new_pipeline()
        outcomes = [_run_case(pipeline, *task) for task in tasks]
    successes = sum(not outcome.suppressed for outcome in outcomes)
    if obs.OBS.enabled:
        obs.OBS.registry.counter(
            "repro_campaign_cases_total",
            "Campaign cases executed.",
        ).inc(len(outcomes))

    return CampaignResult(
        config=config,
        outcomes=tuple(outcomes),
        successes=successes,
        suppressed=config.n_cases - successes,
    )


def compliance_curve(
    probabilities: list[float],
    n_cases: int = 100,
    seed: int = 0,
    max_workers: int | None = 1,
) -> dict[float, float]:
    """Success rate at each compliance probability (the thesis curve)."""
    return {
        p: run_campaign(
            CampaignConfig(
                n_cases=n_cases, comply_probability=p, seed=seed
            ),
            max_workers=max_workers,
        ).success_rate
        for p in probabilities
    }
