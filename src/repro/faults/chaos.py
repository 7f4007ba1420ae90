"""The chaos harness: the paper's invariants under a hostile substrate.

Each chaos run draws a randomized :class:`~repro.faults.plan.FaultPlan`
from a seed and re-runs the reproduction's headline experiments under it:

* the 20 Table 1 scenes, complying and not, through the resilient
  :class:`~repro.investigation.pipeline.InvestigationPipeline`;
* both Section IV techniques (the OneSwarm timing attack and the DSSS
  flow watermark, plus the passive correlator baseline) over faulty
  overlays and taps;
* forensic imaging over a device with injected read faults.

The invariants asserted are paper-shaped, not happy-path-shaped: rulings
stay 20/20 because the *law* does not depend on packet loss; the
no-process suppression split stays 100%/0%; a comply run's evidence is
admitted exactly when the process actually held at acquisition time
sufficed; fault-affected evidence carries the interruption in its
custody log; and no technique raises on degraded input — it returns a
confidence-scored partial result instead.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING

from repro import obs
from repro.anonymity.onion import OnionNetwork
from repro.anonymity.p2p import P2POverlay
from repro.core.cache import RulingCache
from repro.core.engine import ComplianceEngine
from repro.core.scenarios import Scenario, build_table1
from repro.faults.errors import StorageFault
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.investigation.pipeline import (
    InvestigationPipeline,
    suppression_split,
)
from repro.netsim.engine import Simulator
from repro.parallel import ordered_map, resolve_workers
from repro.storage.blockdev import BlockDevice, image_device
from repro.techniques.flow_correlation import PacketCountingCorrelator
from repro.techniques.timing_attack import OneSwarmTimingAttack
from repro.techniques.watermark import (
    DsssWatermarkTechnique,
    PnCode,
    WatermarkConfig,
)

if TYPE_CHECKING:  # annotation-only; chaos must not hard-import ledger
    from repro.ledger import Ledger

#: Lag between instrument issuance and execution in chaos runs; long
#: enough that an injected short-validity instrument expires inside it.
_ACQUISITION_LAG = 600.0


@dataclasses.dataclass(frozen=True)
class PlanResult:
    """Invariant checks for one fault plan.

    Attributes:
        seed: The plan's seed.
        n_scenes: Scenes run (20 for the full table).
        table1_agreement: Scenes whose ruling agrees with the paper.
        split: The no-process suppression split ``(need, no-need)``.
        lawfulness_ok: In the comply run, evidence was admitted exactly
            when the process held at acquisition time sufficed.
        custody_ok: Every fault-affected evidence item records the
            interruption in its custody log.
        techniques_ok: Both Section IV techniques (and the correlator
            baseline) returned confidence-scored results without raising.
        storage_ok: Imaging produced a hash-verified image, or failed
            loudly with :class:`~repro.faults.errors.StorageFault`.
        faults_fired: Total injections logged during the run.
        log_digest: SHA-256 of the rendered injection log.
    """

    seed: int
    n_scenes: int
    table1_agreement: int
    split: tuple[float, float]
    lawfulness_ok: bool
    custody_ok: bool
    techniques_ok: bool
    storage_ok: bool
    faults_fired: int
    log_digest: str

    @property
    def ok(self) -> bool:
        """Whether every invariant held under this plan."""
        return (
            self.table1_agreement == self.n_scenes
            and self.split == (1.0, 0.0)
            and self.lawfulness_ok
            and self.custody_ok
            and self.techniques_ok
            and self.storage_ok
        )


@dataclasses.dataclass(frozen=True)
class ChaosReport:
    """Every plan's result plus the determinism replay check."""

    results: tuple[PlanResult, ...]
    deterministic: bool

    @property
    def ok(self) -> bool:
        """Whether the whole chaos run passed."""
        return self.deterministic and all(r.ok for r in self.results)

    @property
    def total_faults(self) -> int:
        """Faults injected across every plan."""
        return sum(r.faults_fired for r in self.results)

    def render(self) -> str:
        """Human-readable summary table."""
        lines = []
        for r in self.results:
            mark = "ok " if r.ok else "FAIL"
            lines.append(
                f"plan seed={r.seed:<6d} {mark} "
                f"rulings={r.table1_agreement}/{r.n_scenes} "
                f"split={r.split[0]:.0%}/{r.split[1]:.0%} "
                f"lawful={'y' if r.lawfulness_ok else 'N'} "
                f"custody={'y' if r.custody_ok else 'N'} "
                f"techniques={'y' if r.techniques_ok else 'N'} "
                f"storage={'y' if r.storage_ok else 'N'} "
                f"faults={r.faults_fired}"
            )
        passed = sum(1 for r in self.results if r.ok)
        lines.append(
            f"{passed}/{len(self.results)} plans hold every invariant; "
            f"replay {'deterministic' if self.deterministic else 'DIVERGED'}; "
            f"{self.total_faults} faults injected"
        )
        return "\n".join(lines)


def select_scenes(scenes: str = "all") -> tuple[Scenario, ...]:
    """Resolve a ``--scenes`` argument to Table 1 scenarios.

    Accepts ``"all"`` or a comma-separated list of scene numbers.
    """
    table = build_table1()
    if scenes == "all":
        return tuple(table)
    wanted = {int(token) for token in scenes.split(",") if token.strip()}
    unknown = wanted - {scenario.number for scenario in table}
    if unknown:
        raise ValueError(f"no such Table 1 scene(s): {sorted(unknown)}")
    return tuple(s for s in table if s.number in wanted)


def run_plan(
    seed: int,
    scenarios: tuple[Scenario, ...],
    intensity: float = 0.15,
    engine: ComplianceEngine | None = None,
    ledger: "Ledger | None" = None,
) -> PlanResult:
    """Run every experiment under one randomized fault plan.

    With a ``ledger`` attached, the pipeline persists every scene's
    docket/instrument/custody/suppression records under the
    ``chaos/seed-<seed>`` namespace; pair with a ledger-bearing engine
    to persist the rulings themselves.
    """
    with obs.span("chaos.plan", seed=seed, intensity=intensity) as sp:
        result = _run_plan_impl(seed, scenarios, intensity, engine, ledger)
        sp.set(ok=result.ok, faults=result.faults_fired)
    return result


def _run_plan_impl(
    seed: int,
    scenarios: tuple[Scenario, ...],
    intensity: float,
    engine: ComplianceEngine | None,
    ledger: "Ledger | None" = None,
) -> PlanResult:
    plan = FaultPlan.randomized(seed, intensity=intensity)
    injector = FaultInjector(plan)
    engine = engine or ComplianceEngine()

    # Invariant: the law does not depend on the substrate's mood.  Ruled
    # as one batch: on a cached engine, repeated plans over the same
    # scenes reduce to pure fingerprint lookups.
    rulings = engine.evaluate_many([s.action for s in scenarios])
    agreement = sum(
        ruling.needs_process == s.paper_needs_process
        for ruling, s in zip(rulings, scenarios)
    )

    pipeline = InvestigationPipeline(
        engine=engine,
        injector=injector,
        acquisition_lag=_ACQUISITION_LAG,
        ledger=ledger,
        run_label=f"chaos/seed-{seed}",
    )
    non_comply = pipeline.run_all(scenarios, obtain_process=False)
    split = suppression_split(non_comply)

    comply = pipeline.run_all(scenarios, obtain_process=True)
    lawfulness_ok = all(
        o.ruling.permits(o.evidence.process_held) == (not o.suppressed)
        for o in comply
    )
    custody_ok = all(
        _custody_records_interruptions(o)
        for o in (*non_comply, *comply)
    )

    techniques_ok = _run_techniques(seed, injector)
    storage_ok = _run_storage(seed, injector)

    if obs.OBS.enabled:
        # Attach the plan's injection log so the trace carries the same
        # artifact FaultInjector.to_jsonl() would export standalone.
        obs.event(
            "fault.log",
            seed=seed,
            injections=injector.fired(),
            jsonl=injector.to_jsonl(),
        )

    return PlanResult(
        seed=seed,
        n_scenes=len(scenarios),
        table1_agreement=agreement,
        split=split,
        lawfulness_ok=lawfulness_ok,
        custody_ok=custody_ok,
        techniques_ok=techniques_ok,
        storage_ok=storage_ok,
        faults_fired=injector.fired(),
        log_digest=injector.log_digest(),
    )


def _custody_records_interruptions(outcome) -> bool:
    """Fault-affected evidence must carry the interruption in custody."""
    if not outcome.interruptions:
        return True
    if outcome.custody is None:
        return False
    events = [entry.event for entry in outcome.custody.entries]
    return all(
        any(interruption in event for event in events)
        for interruption in outcome.interruptions
    )


def _run_techniques(seed: int, injector: FaultInjector) -> bool:
    """Both Section IV techniques on faulty substrates; never raises."""
    # IV.B: DSSS watermark + passive correlator through a churny onion net.
    sim = Simulator()
    onion = OnionNetwork(sim, n_relays=8, seed=seed, injector=injector)
    circuit = onion.build_circuit("suspect", "server")
    code = PnCode.msequence(6)
    config = WatermarkConfig(chip_duration=0.3, base_rate=30.0)
    technique = DsssWatermarkTechnique(code, config)
    watermarker = technique.watermarker(seed=seed)
    scheduled = watermarker.embed(circuit, start=0.5)
    sim.run()
    detection = technique.detector().detect(
        circuit.client_arrival_times(),
        start=0.5,
        expected_packets=scheduled,
    )
    ok = 0.0 <= detection.confidence <= 1.0
    correlation = PacketCountingCorrelator(window=0.3).correlate(
        circuit.server_departure_times(),
        circuit.client_arrival_times(),
        start=0.5,
        duration=watermarker.duration,
    )
    ok = ok and 0.0 <= correlation.confidence <= 1.0

    # IV.A: timing attack over an overlay whose responses partially drop.
    overlay = P2POverlay(seed=seed)
    overlay.random_topology(
        40, mean_degree=3.0, source_fraction=0.2, file_id="cp"
    )
    overlay.add_peer("le")
    rng = random.Random(seed ^ 0x5EED)
    for name in rng.sample(
        [peer for peer in overlay.peers if peer != "le"], 6
    ):
        overlay.befriend("le", name)
    attack = OneSwarmTimingAttack()
    trials = 4
    # repro-lint: disable=REPRO110 -- chaos harness queries a synthetic
    # overlay of simulated peers; no real-world acquisition occurs and
    # the records never enter an evidentiary chain.
    records = overlay.query("le", "cp", ttl=4, trials=trials)
    degraded = [record for record in records if rng.random() > 0.3]
    result = attack.assess_records(overlay, "le", "cp", trials, degraded)
    ok = ok and all(
        0.0 <= assessment.confidence <= 1.0
        for assessment in result.assessments
    )
    return ok


def _run_storage(seed: int, injector: FaultInjector) -> bool:
    """Imaging under read faults: verified image or loud failure."""
    rng = random.Random(seed ^ 0xD15C)
    device = BlockDevice(n_blocks=64, block_size=64, injector=injector)
    for index in range(device.n_blocks):
        device.write_block(index, rng.randbytes(device.block_size))
    try:
        # repro-lint: disable=REPRO110 -- chaos harness images a
        # synthetic in-memory device it created itself; there is no
        # seized medium and no process requirement to gate.
        image = image_device(device, max_attempts=4)
    except StorageFault:
        # Failing loudly is acceptable resilience; silently returning a
        # corrupt image is not.
        return True
    return image.sha256() == device.sha256()


#: Per-worker-process state for the parallel sweep: scenarios and a
#: cached engine, built once per (process, scenes) pair and reused across
#: every plan that worker executes.
_WORKER_STATE: dict[str, tuple[tuple[Scenario, ...], ComplianceEngine]] = {}


def _plan_worker(task: tuple[int, str, float]) -> PlanResult:
    """Run one fault plan inside a pool worker.

    Plans are seed-isolated — each builds its own injector, simulator,
    overlay, and device from the seed — so workers share nothing and the
    sweep's results are independent of worker count or scheduling.
    """
    seed, scenes, intensity = task
    state = _WORKER_STATE.get(scenes)
    if state is None:
        state = (
            select_scenes(scenes),
            ComplianceEngine(cache=RulingCache()),
        )
        _WORKER_STATE[scenes] = state
    scenarios, engine = state
    return run_plan(seed, scenarios, intensity, engine)


def run_chaos(
    seed: int = 7,
    n_plans: int = 25,
    scenes: str = "all",
    intensity: float = 0.15,
    max_workers: int | None = None,
    ledger: "Ledger | None" = None,
) -> ChaosReport:
    """Run ``n_plans`` chaos plans and the determinism replay check.

    Plan seeds are ``seed, seed+1, ..., seed+n_plans-1``; the first plan
    is then replayed and its injection-log digest must match byte for
    byte, which is what makes any chaos failure reproducible from the
    command line.

    Because every plan is seed-isolated, the sweep fans out across a
    process pool (``max_workers=None`` uses one worker per CPU, capped at
    ``n_plans``; pass ``1`` to force the serial in-process path).  Results
    are returned in seed order and are identical either way; the replay
    check always runs in-process, so a pool-scheduling bug cannot mask a
    determinism failure.

    With a ``ledger`` attached the sweep runs serially — a SQLite handle
    does not cross process boundaries — and every plan persists its
    rulings, dockets, custody chains, and suppression outcomes.  The
    replay plan deliberately gets no ledger: replay verifies
    determinism, it does not produce new facts.
    """
    if n_plans < 1:
        raise ValueError(f"n_plans must be >= 1: {n_plans}")
    scenarios = select_scenes(scenes)
    workers = resolve_workers(max_workers, n_plans)
    if ledger is not None:
        workers = 1
    if workers > 1:
        tasks = [
            (seed + offset, scenes, intensity) for offset in range(n_plans)
        ]
        results = tuple(ordered_map(_plan_worker, tasks, workers))
    else:
        engine = ComplianceEngine(cache=RulingCache(), ledger=ledger)
        results = tuple(
            run_plan(seed + offset, scenarios, intensity, engine, ledger)
            for offset in range(n_plans)
        )
        if ledger is not None:
            ledger.commit()
    replay = run_plan(
        seed, scenarios, intensity, ComplianceEngine(cache=RulingCache())
    )
    deterministic = (
        replay.log_digest == results[0].log_digest
        and replay.split == results[0].split
        and replay.table1_agreement == results[0].table1_agreement
    )
    return ChaosReport(results=results, deterministic=deterministic)
