"""End-to-end investigation pipelines.

Closes the paper's loop for any scene: rule on the acquisition, optionally
obtain the required process from a magistrate, perform the acquisition,
and take the resulting evidence to a suppression hearing.  The suppression
benchmark drives this pipeline across all twenty Table 1 scenes both ways
(complying and not) and checks the 100%/0% suppression split.

The pipeline is *resilient*: with a fault injector attached (hostile
courts, expiring instruments) it re-applies under a bounded
:class:`~repro.faults.retry.RetryPolicy`, checks instrument validity at
**acquisition** time rather than issuance time, and records every
interruption in the evidence's chain of custody so the suppression
hearing rules on what actually happened.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro import obs
from repro.core.engine import ComplianceEngine
from repro.core.enums import Admissibility, ProcessKind, Standard
from repro.core.ruling import Ruling
from repro.core.scenarios import Scenario
from repro.court.application import Fact
from repro.court.docket import IssuedProcess
from repro.court.magistrate import Magistrate
from repro.court.suppression import SuppressionHearing
from repro.evidence.custody import ChainOfCustody
from repro.evidence.items import EvidenceItem
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.investigation.case import Case
from repro.investigation.investigator import Investigator

if TYPE_CHECKING:  # annotation-only; repro.core must not import repro.ledger
    from repro.ledger import Ledger


@dataclasses.dataclass(frozen=True)
class SceneOutcome:
    """Everything that happened running one scene through the pipeline.

    Attributes:
        scenario: The Table 1 scene run.
        ruling: The engine's ruling on the scene's action.
        process_obtained: The instrument kind obtained (NONE if none was
            sought or granted).
        evidence: The evidence item the acquisition produced.
        admissibility: The suppression hearing's outcome for it.
        custody: The chain of custody taken to the hearing.
        application_attempts: Court applications made (0 when none was
            sought; more than 1 means the retry policy re-applied).
        interruptions: Human-readable fault interruptions recorded
            against this scene's evidence.
    """

    scenario: Scenario
    ruling: Ruling
    process_obtained: ProcessKind
    evidence: EvidenceItem
    admissibility: Admissibility
    custody: ChainOfCustody | None = None
    application_attempts: int = 0
    interruptions: tuple[str, ...] = ()

    @property
    def suppressed(self) -> bool:
        """Whether the evidence was excluded."""
        return self.admissibility is not Admissibility.ADMISSIBLE


class InvestigationPipeline:
    """Runs Table 1 scenes end to end, complying or not.

    One :class:`~repro.court.magistrate.Magistrate` serves the whole
    pipeline, so the docket accumulates applications and instruments
    across scenes instead of being re-allocated per scene.

    Args:
        engine: The compliance engine ruling on acquisitions.
        magistrate: The issuing court (given the pipeline's injector if
            it has none of its own, so court faults reach it).
        injector: Optional fault injector; scene runs then experience
            court denial/latency and instrument expiry, and the custody
            log of affected evidence records the interruption.
        retry_policy: Backoff schedule for re-applying after a denial or
            an expiry; defaults to three attempts, 15 simulated minutes
            base delay.
        acquisition_lag: Simulated seconds between obtaining process and
            executing the acquisition (warrants are not executed the
            second they issue); this is the window an injected
            short-validity instrument expires in.
        ledger: Optional :class:`repro.ledger.Ledger`; every scene then
            persists its issued instrument, chain of custody, and
            suppression outcome at the same boundaries telemetry spans
            them, and the docket's counters are upserted per scene.
        run_label: Namespace prefix for the ledger keys this pipeline
            writes (lets several runs share one ledger file without
            colliding); defaults to ``"pipeline"``.
    """

    def __init__(
        self,
        engine: ComplianceEngine | None = None,
        magistrate: Magistrate | None = None,
        injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        acquisition_lag: float = 0.0,
        ledger: "Ledger | None" = None,
        run_label: str = "pipeline",
    ) -> None:
        if acquisition_lag < 0:
            raise ValueError(f"negative acquisition_lag: {acquisition_lag}")
        self.engine = engine or ComplianceEngine()
        self.ledger = ledger
        self.run_label = run_label
        self.injector = injector
        if magistrate is None:
            magistrate = Magistrate(injector=injector)
        self.magistrate = magistrate
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay=900.0
        )
        self.acquisition_lag = acquisition_lag
        self.hearing = SuppressionHearing(self.engine)

    def run_scene(
        self,
        scenario: Scenario,
        obtain_process: bool,
        time: float = 0.0,
    ) -> SceneOutcome:
        """Run one scene.

        Args:
            scenario: The scene to run.
            obtain_process: If ``True``, the investigator first applies
                for (and, with probable cause on file, receives) whatever
                process the engine says the scene needs; if ``False`` the
                officer barges ahead with nothing.
            time: Simulation time the scene starts.

        Returns:
            The complete :class:`SceneOutcome`.
        """
        if not obs.OBS.enabled:
            return self._run_scene_impl(scenario, obtain_process, time)
        with obs.span(
            "pipeline.scene",
            sim_time=time,
            scene=scenario.number,
            comply=obtain_process,
        ) as sp:
            outcome = self._run_scene_impl(scenario, obtain_process, time)
            sp.set(
                process=outcome.process_obtained.name,
                admissibility=outcome.admissibility.name,
            )
        return outcome

    def _run_scene_impl(
        self,
        scenario: Scenario,
        obtain_process: bool,
        time: float,
    ) -> SceneOutcome:
        """The scene body; spans inside it no-op when telemetry is off."""
        ruling = self.engine.evaluate(scenario.action)
        investigator = Investigator(
            f"officer-scene-{scenario.number}",
            magistrate=self.magistrate,
            engine=self.engine,
        )

        obtained = ProcessKind.NONE
        attempts = 0
        acquire_time = time
        instrument: IssuedProcess | None = None
        interruptions: list[str] = []
        if obtain_process and ruling.required_process is not ProcessKind.NONE:
            case = self._case_with_full_showing(scenario)
            with obs.span(
                "pipeline.obtain_process",
                sim_time=time,
                scene=scenario.number,
                required=ruling.required_process.name,
            ) as sp:
                obtained, attempts, acquire_time, instrument = (
                    self._obtain_process(
                        investigator, ruling, case, scenario, time,
                        interruptions,
                    )
                )
                sp.set(obtained=obtained.name, attempts=attempts)

        # The audit frame correlates everything recorded during the
        # acquisition with the legal process (if any) authorizing it.
        with obs.audit(
            docket_id=self.magistrate.docket.docket_id,
            instrument_id=(
                instrument.instrument_id if instrument is not None else None
            ),
            instrument_kind=(
                instrument.kind.display_name if instrument is not None else None
            ),
        ):
            with obs.span(
                "pipeline.acquisition",
                sim_time=acquire_time,
                scene=scenario.number,
                needs_process=ruling.needs_process,
            ) as sp:
                evidence = investigator.act(
                    scenario.action,
                    time=acquire_time,
                    content=f"data acquired in scene {scenario.number}",
                    comply=False,  # the hearing, not the officer, is the check
                )
                custody = ChainOfCustody(
                    evidence, custodian=investigator.name, time=acquire_time
                )
                for interruption in interruptions:
                    custody.record_event(
                        f"acquisition interrupted: {interruption}",
                        time=acquire_time,
                    )
                sp.set(evidence_id=evidence.evidence_id)
        with obs.span(
            "pipeline.suppression",
            sim_time=acquire_time,
            scene=scenario.number,
            evidence_id=evidence.evidence_id,
        ) as sp:
            outcome = self.hearing.hear(
                [evidence], custody={evidence.evidence_id: custody}
            )
            sp.set(admissibility=outcome.outcome_for(evidence).name)
        scene_outcome = SceneOutcome(
            scenario=scenario,
            ruling=ruling,
            process_obtained=obtained,
            evidence=evidence,
            admissibility=outcome.outcome_for(evidence),
            custody=custody,
            application_attempts=attempts,
            interruptions=tuple(interruptions),
        )
        if self.ledger is not None:
            self._persist_scene(scene_outcome, obtain_process, instrument)
        return scene_outcome

    def _persist_scene(
        self,
        outcome: SceneOutcome,
        obtain_process: bool,
        instrument: IssuedProcess | None,
    ) -> None:
        """Write one scene's records to the attached ledger.

        Runs at the same boundary the suppression span closes, so what
        is persisted is exactly what the hearing ruled on.  Keys are
        deterministic (`run_label`/scene/mode), making re-runs of the
        same configuration idempotent upserts.  The ruling is recorded
        here only when the engine does not write to this ledger itself:
        an engine sharing it has already recorded every fresh ruling.
        """
        ledger = self.ledger
        assert ledger is not None
        mode = "comply" if obtain_process else "no-process"
        scene_key = (
            f"{self.run_label}/scene-{outcome.scenario.number}/{mode}"
        )
        fingerprint = outcome.scenario.action.fingerprint()
        if self.engine.ledger is not ledger:
            ledger.record_ruling(fingerprint, outcome.ruling)
        docket = self.magistrate.docket
        docket_key = f"{self.run_label}/docket-{docket.docket_id}"
        ledger.record_docket(docket_key, docket)
        if instrument is not None:
            ledger.record_instrument(
                f"{scene_key}/instrument", instrument, docket_key=docket_key
            )
        if outcome.custody is not None:
            ledger.record_custody(f"{scene_key}/custody", outcome.custody)
        ledger.record_suppression(
            evidence_key=f"{scene_key}/evidence",
            fingerprint=fingerprint,
            outcome=outcome.admissibility.value,
            reason="; ".join(outcome.interruptions),
            run_label=self.run_label,
        )
        if obs.OBS.enabled:
            obs.OBS.registry.counter(
                "repro_ledger_scene_writes_total",
                "Scene outcomes persisted to a ledger by the pipeline.",
            ).inc()

    def _obtain_process(
        self,
        investigator: Investigator,
        ruling: Ruling,
        case: Case,
        scenario: Scenario,
        time: float,
        interruptions: list[str],
    ) -> tuple[ProcessKind, int, float, IssuedProcess | None]:
        """Apply (with retries) and schedule the acquisition.

        Returns ``(kind obtained, application attempts, acquisition
        time, instrument relied on)``; the instrument is ``None``
        whenever no valid process was held at acquisition time.
        The instrument's validity is checked at the
        *acquisition* time — an instrument that expired or was revoked in
        the lag between issuance and execution does not authorize the
        acquisition, and the officer re-applies once more under the retry
        policy before proceeding (lawfully or not).
        """
        decision, attempts, decide_time = investigator.apply_with_retry(
            ruling.required_process,
            case,
            time,
            self.retry_policy,
            target_place=f"scene {scenario.number} target",
            target_items=("records described in the application",),
            necessity_statement=(
                "conventional techniques cannot reach the anonymized "
                "or encrypted traffic at issue (stipulated)"
            ),
        )
        if not decision.granted or decision.instrument is None:
            interruptions.append(
                f"process application denied after {attempts} attempt(s): "
                f"{decision.reason}"
            )
            return ProcessKind.NONE, attempts, decide_time, None

        instrument = decision.instrument
        acquire_time = instrument.issued_at + self.acquisition_lag
        if instrument.is_valid(acquire_time):
            return instrument.kind, attempts, acquire_time, instrument

        # Expired (or revoked) before execution: record it, re-apply once
        # more through the policy, and execute with whatever is then held.
        # Interruption text names the instrument by kind, not by its
        # process-global id, so identical seeds yield identical outcomes.
        interruptions.append(
            f"instrument ({instrument.kind.display_name}) no longer "
            f"valid at acquisition time t={acquire_time}"
        )
        redecision, more, redecide_time = investigator.apply_with_retry(
            ruling.required_process,
            case,
            acquire_time,
            self.retry_policy,
            target_place=f"scene {scenario.number} target",
            target_items=("records described in the application",),
            necessity_statement=(
                "conventional techniques cannot reach the anonymized "
                "or encrypted traffic at issue (stipulated)"
            ),
        )
        attempts += more
        if redecision.granted and redecision.instrument is not None:
            fresh = redecision.instrument
            acquire_time = fresh.issued_at + self.acquisition_lag
            if fresh.is_valid(acquire_time):
                return fresh.kind, attempts, acquire_time, fresh
            interruptions.append(
                f"re-issued instrument ({fresh.kind.display_name}) also "
                f"expired before acquisition at t={acquire_time}"
            )
            return ProcessKind.NONE, attempts, acquire_time, None
        interruptions.append(
            f"re-application denied after {more} attempt(s): "
            f"{redecision.reason}"
        )
        return ProcessKind.NONE, attempts, redecide_time, None

    @staticmethod
    def _case_with_full_showing(scenario: Scenario) -> Case:
        """A case whose facts support any process up to a Title III order."""
        case = Case(
            name=f"scene-{scenario.number}",
            description=scenario.action.description,
        )
        case.add_fact(
            Fact(
                description=(
                    "wiretap-grade showing: probable cause plus necessity "
                    "(stipulated for the pipeline experiment)"
                ),
                supports=Standard.SUPER_WARRANT_SHOWING,
            )
        )
        return case

    def run_all(
        self, scenarios: tuple[Scenario, ...], obtain_process: bool
    ) -> list[SceneOutcome]:
        """Run every scene one way and return the outcomes."""
        return [
            self.run_scene(scenario, obtain_process=obtain_process)
            for scenario in scenarios
        ]


def suppression_split(
    outcomes: list[SceneOutcome],
) -> tuple[float, float]:
    """Suppression rates for (process-requiring, no-process) scenes.

    The paper's implied result: without process, every scene that needs
    process is suppressed (rate 1.0) and every scene that needs none is
    admitted (rate 0.0).
    """
    need = [o for o in outcomes if o.ruling.needs_process]
    no_need = [o for o in outcomes if not o.ruling.needs_process]
    need_rate = (
        sum(o.suppressed for o in need) / len(need) if need else 0.0
    )
    no_need_rate = (
        sum(o.suppressed for o in no_need) / len(no_need)
        if no_need
        else 0.0
    )
    return need_rate, no_need_rate
