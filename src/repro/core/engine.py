"""The compliance engine: the paper's legal analysis as a rule pipeline.

Given one :class:`~repro.core.action.InvestigativeAction`, the engine runs:

1. the Katz reasonable-expectation-of-privacy analysis;
2. the four bodies of law in parallel — Fourth Amendment, Wiretap Act,
   SCA, Pen/Trap statute — each of which may impose a process requirement;
3. statute-internal exceptions (recorded for the trace);
4. cross-cutting exceptions (consent, exigency, plain view, ...), which
   eliminate requirements per legal source;
5. combination: the required process is the *maximum* surviving
   requirement, mirroring the paper's observation that stronger process
   subsumes weaker (section II.A).

The output :class:`~repro.core.ruling.Ruling` answers the Table 1 question
("does this scene need a warrant/court order/subpoena?") and carries a full
citation-bearing reasoning trace.

Every fresh ruling is made in one method,
:meth:`ComplianceEngine._evaluate_uncached`, whichever public path asked
for it.  A cached engine runs the stages there through memos: each stage
is looked up by the fingerprint fields its module declares
(:class:`~repro.core.fingerprint.RuleRow`), and the combined ruling by
the seven stage outputs' serial numbers.  An uncached engine always runs
the stages themselves, which is what the cached-vs-fresh differential
compares the memos against.  With a ledger attached, the same method
records the ruling before returning it, so no cache holds a fresh
ruling before its row is written.

Every ruling is built in one place, :meth:`ComplianceEngine._combine`,
and every citation in its trace is checked there against
:data:`AUTHORITIES` before the ruling is interned or handed out.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Callable, Iterable, Iterator
from typing import Protocol, runtime_checkable

from repro.core.action import InvestigativeAction
from repro.core.cache import CacheStats, RulingCache, bounded_put
from repro.core.caselaw import AuthorityRegistry, build_default_registry
from repro.core.enums import LegalSource, ProcessKind
from repro.core import exceptions as exception_rules
from repro.core import privacy as privacy_rules
from repro.core.exceptions import gather_exceptions
from repro.core.fingerprint import RuleRow, action_fingerprint, fact_getter
from repro.core.privacy import analyze_privacy
from repro.core.ruling import (
    AppliedException,
    PrivacyFinding,
    ReasoningStep,
    Requirement,
    Ruling,
)
from repro.core.statutes import fourth_amendment, pentrap, sca, wiretap
from repro.obs import OBS, span


#: The authorities rulings may cite, built once at import.  Every
#: citation is checked against it when a ruling is built.
AUTHORITIES: AuthorityRegistry = build_default_registry()

# One shared ruling per distinct (privacy, requirements, exceptions)
# rule output.  Rule outputs repeat far more than actions do (the serve
# benchmark's 24,576 cold actions yield 2,188 distinct rulings), so the
# cache, the wire encoder and the ledger all hold and encode each one
# once.  Only rulings built by the pipeline below go in: a ruling decoded
# from a ledger row is never trusted to stand in for a fresh evaluation.
# Threads racing on one key at worst build the same ruling twice; every
# entry is a complete ruling for its key.
_RULINGS: dict[tuple, Ruling] = {}


def interned_rulings() -> int:
    """How many distinct rulings the intern table currently holds."""
    return len(_RULINGS)


#: Serial numbers for distinct stage outputs, never reused: a serial
#: names one output value for the life of the process, so a tuple of
#: serials names one combination of outputs even after tables clear.
_SERIALS = itertools.count()

#: A guard-table value meaning "the stage applies: look in the entries".
_APPLIES = object()


class RuleMemo:
    """One rule stage memoized on the fingerprint fields it declares.

    Each entry is ``(output, serial)``, one shared entry per distinct
    output value, whose serial is assigned when the value is first seen.
    A stage with a guard is keyed on the guard's
    fields first: where the guard fails, that short key holds the entry;
    where it holds, the key holds a marker and the entry sits under the
    stage's full row (plus the upstream stage's serial, for a stage that
    takes one).  Every table is filled through
    :func:`~repro.core.cache.bounded_put`.  Threads racing on one key at
    worst compute the stage twice or give equal outputs two serials; no
    serial ever names two different outputs.

    Args:
        row: The stage's declared facts.
        stage: ``(engine, action, upstream output) -> output``; the output
            must be hashable.
    """

    __slots__ = ("row", "_stage", "_guard_key", "_key", "_guards",
                 "_entries", "_outputs")

    def __init__(
        self,
        row: RuleRow,
        stage: Callable[["ComplianceEngine", InvestigativeAction, object],
                        object],
    ) -> None:
        self.row = row
        self._stage = stage
        self._guard_key = fact_getter(row.guard) if row.guard else None
        self._key = fact_getter(row.fields)
        self._guards: dict = {}
        self._entries: dict = {}
        self._outputs: dict = {}

    def __len__(self) -> int:
        """Keys held: guard keys plus full-row keys."""
        return len(self._guards) + len(self._entries)

    def entry(
        self,
        fingerprint: tuple,
        engine: "ComplianceEngine",
        action: InvestigativeAction,
        upstream: tuple | None = None,
    ) -> tuple:
        """The ``(output, serial)`` entry for a fingerprint, running the
        stage and storing its entry on a miss."""
        guard = None
        if self._guard_key is not None:
            guard = self._guard_key(fingerprint)
            entry = self._guards.get(guard)
            if entry is not None and entry is not _APPLIES:
                return entry
        key = self._key(fingerprint)
        if upstream is not None:
            key = (key, upstream[1])
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        output = self._stage(
            engine, action, None if upstream is None else upstream[0]
        )
        entry = self._outputs.get(output) or bounded_put(
            self._outputs, output, (output, next(_SERIALS))
        )
        if guard is not None:
            if not self.row.applies(action):
                return bounded_put(self._guards, guard, entry)
            bounded_put(self._guards, guard, _APPLIES)
        return bounded_put(self._entries, key, entry)

    def clear(self) -> None:
        """Drop every key (serials already handed out stay retired)."""
        self._guards.clear()
        self._entries.clear()
        self._outputs.clear()


#: The statute-internal exceptions the engine records for the trace
#: (:meth:`ComplianceEngine._statutory_exceptions`): each statute's
#: exception facts, read once that statute applies.
STATUTORY_EXCEPTION_FACTS = RuleRow(
    "statutory_exceptions",
    guard=tuple(dict.fromkeys(wiretap.FACTS.guard + pentrap.FACTS.guard)),
    reads=tuple(
        dict.fromkeys(wiretap.EXCEPTION_READS + pentrap.EXCEPTION_READS)
    ),
    applies=lambda action: wiretap.applies(action) or pentrap.applies(action),
)

# The stage memos, shared by every cached engine like the intern table.
# Each stage is looked up by name when it runs, so a wrapped stage (a
# tracer, a test double) is what a memo miss calls.
_PRIVACY = RuleMemo(
    privacy_rules.FACTS, lambda engine, action, _: analyze_privacy(action)
)
_FOURTH_AMENDMENT = RuleMemo(
    fourth_amendment.FACTS,
    lambda engine, action, privacy: fourth_amendment.evaluate(action, privacy),
)
_WIRETAP = RuleMemo(
    wiretap.FACTS, lambda engine, action, _: wiretap.evaluate(action)
)
_SCA = RuleMemo(sca.FACTS, lambda engine, action, _: sca.evaluate(action))
_PENTRAP = RuleMemo(
    pentrap.FACTS, lambda engine, action, _: pentrap.evaluate(action)
)
_EXCEPTIONS = RuleMemo(
    exception_rules.FACTS,
    lambda engine, action, _: tuple(gather_exceptions(action)),
)
_STATUTORY_EXCEPTIONS = RuleMemo(
    STATUTORY_EXCEPTION_FACTS,
    lambda engine, action, _: tuple(engine._statutory_exceptions(action)),
)

#: Every stage memo, in pipeline order.
RULE_MEMOS = (
    _PRIVACY,
    _FOURTH_AMENDMENT,
    _WIRETAP,
    _SCA,
    _PENTRAP,
    _EXCEPTIONS,
    _STATUTORY_EXCEPTIONS,
)

# The combined ruling per tuple of the seven stage serials.  A miss
# falls through to the intern table, so both paths share one ruling.
_COMBINED: dict[tuple, Ruling] = {}


def rule_memo_entries() -> dict[str, int]:
    """Keys held per stage memo, plus the combination table's."""
    sizes = {memo.row.name: len(memo) for memo in RULE_MEMOS}
    sizes["combine"] = len(_COMBINED)
    return sizes


@runtime_checkable
class RulingLedger(Protocol):
    """What the engine needs from a persistence backend.

    Duck-typed (satisfied by :class:`repro.ledger.Ledger`) so
    :mod:`repro.core` never imports :mod:`repro.ledger` — the dependency
    points the other way, exactly as with :mod:`repro.obs`.
    """

    def record_ruling(
        self, fingerprint: tuple, ruling: Ruling
    ) -> bool:
        """Persist one freshly evaluated ruling; returns True if new."""
        ...  # pragma: no cover - protocol

    def iter_rulings(self) -> Iterator[tuple[tuple, Ruling]]:
        """Stream persisted ``(fingerprint, ruling)`` pairs."""
        ...  # pragma: no cover - protocol


class ComplianceEngine:
    """Rules on investigative actions under the paper's legal framework.

    The engine is deterministic and side-effect free: the same action
    always produces the same ruling, and every citation in it names an
    authority in :data:`AUTHORITIES`.

    Args:
        cache: Memoization for rulings, keyed by action fingerprint
            (:func:`~repro.core.fingerprint.action_fingerprint`).  Pass a
            :class:`~repro.core.cache.RulingCache` to share one across
            engines, an ``int`` for a private LRU cache of that size, or
            ``None`` (the default) for no caching — every call evaluates
            from scratch, exactly as before caching existed.
        ledger: Optional persistence backend (anything satisfying
            :class:`RulingLedger`, e.g. :class:`repro.ledger.Ledger`).
            Every *fresh* evaluation — never a cache hit, which by the
            differential gate is byte-identical anyway — is recorded
            before any cache holds it, on every path, so a ruling whose
            write fails is not cached and a retry records it.
            :meth:`prime_from_ledger` warm-loads the cache at startup.
    """

    def __init__(
        self,
        *,
        cache: RulingCache | int | None = None,
        ledger: RulingLedger | None = None,
    ) -> None:
        if isinstance(cache, int):
            cache = RulingCache(maxsize=cache)
        self._cache = cache
        self._ledger = ledger

    @property
    def registry(self) -> AuthorityRegistry:
        """The authority registry rulings cite into (:data:`AUTHORITIES`)."""
        return AUTHORITIES

    @property
    def cache(self) -> RulingCache | None:
        """The ruling cache, or ``None`` for an uncached engine."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats | None:
        """Hit/miss/eviction counters, or ``None`` for an uncached engine."""
        return self._cache.stats if self._cache is not None else None

    @property
    def ledger(self) -> RulingLedger | None:
        """The persistence backend, or ``None`` for an ephemeral engine."""
        return self._ledger

    def prime_from_ledger(self) -> int:
        """Warm the ruling cache from the attached ledger.

        Streams persisted rulings into the cache (most callers do this
        once at startup, before the first evaluation) so previously
        ruled actions become pure lookups in this process too.

        Returns:
            The number of rulings loaded into the cache.

        Raises:
            ValueError: If the engine has no ledger or no cache — there
                is nowhere to read from or nothing to warm.
        """
        if self._ledger is None:
            raise ValueError("prime_from_ledger requires a ledger")
        if self._cache is None:
            raise ValueError("prime_from_ledger requires a cache to warm")
        loaded = 0
        for fingerprint, ruling in self._ledger.iter_rulings():
            self._cache.put(fingerprint, ruling)
            loaded += 1
        if OBS.enabled:
            OBS.registry.counter(
                "repro_ledger_prime_rulings_total",
                "Rulings warm-loaded into a cache from a ledger.",
            ).inc(loaded)
        return loaded

    def evaluate(self, action: InvestigativeAction) -> Ruling:
        """Produce a :class:`Ruling` for one investigative action.

        On a cached engine the ruling is served from the LRU cache when an
        equal-fingerprint action was ruled on before; cached and fresh
        rulings are indistinguishable (same trace, same ``explain()``).
        """
        # One attribute load + branch when telemetry is off: the span
        # kwargs dict is never built on the disabled hot path.
        if not OBS.enabled:
            return self._evaluate_impl(action)
        with span(
            "engine.evaluate", action_fp=action_fingerprint(action)
        ) as sp:
            ruling = self._evaluate_impl(action)
            sp.set(process=ruling.required_process.name)
        OBS.registry.counter(
            "repro_engine_evaluations_total",
            "Single-action ComplianceEngine.evaluate calls.",
        ).inc()
        OBS.registry.histogram(
            "repro_engine_evaluate_seconds",
            "Latency of ComplianceEngine.evaluate.",
        ).observe(sp.duration)
        return ruling

    def _evaluate_impl(self, action: InvestigativeAction) -> Ruling:
        """The cache-consulting single-action path, telemetry-free."""
        fingerprint = action_fingerprint(action)
        if self._cache is None:
            return self._evaluate_uncached(action, fingerprint)
        ruling = self._cache.get(fingerprint)
        if ruling is None:
            ruling = self._evaluate_uncached(action, fingerprint)
            self._cache.put(fingerprint, ruling)
        return ruling

    def evaluate_many(
        self, actions: Iterable[InvestigativeAction]
    ) -> list[Ruling]:
        """Rule on a batch of actions, deduplicating by fingerprint.

        Both kinds of engine go through the one batch primitive,
        :meth:`~repro.core.cache.RulingCache.get_or_compute`: an uncached
        engine through a throwaway cache per call, so equal-fingerprint
        actions are still evaluated once per batch; a cached engine
        through its persistent LRU cache, so repeated batches approach
        pure lookup speed.  Output order matches input order,
        ruling-for-ruling identical to calling :meth:`evaluate` in a loop.
        """
        if not OBS.enabled:
            return self._evaluate_many_impl(actions)
        batch = list(actions)
        with span("engine.evaluate_many", actions=len(batch)) as sp:
            rulings = self._evaluate_many_impl(batch)
        OBS.registry.counter(
            "repro_engine_batch_actions_total",
            "Actions ruled on through evaluate_many.",
        ).inc(len(batch))
        OBS.registry.histogram(
            "repro_engine_batch_seconds",
            "Latency of ComplianceEngine.evaluate_many batches.",
        ).observe(sp.duration)
        return rulings

    def _evaluate_many_impl(
        self, actions: Iterable[InvestigativeAction]
    ) -> list[Ruling]:
        """The batch path shared by both telemetry states.

        An uncached engine dedupes through a throwaway per-call cache.
        """
        cache = self._cache
        if cache is None:
            cache = RulingCache(maxsize=sys.maxsize)
        return cache.get_or_compute(
            actions, action_fingerprint, self._evaluate_uncached
        )

    def _evaluate_uncached(
        self, action: InvestigativeAction, fingerprint: tuple
    ) -> Ruling:
        """One fresh ruling, recorded in the ledger before it is returned.

        This is the only place a ruling is made on a cache miss and the
        only place one is recorded, so every caller caches a ruling only
        after its ledger row is pending: a ruling whose write fails is not
        cached, and a retry records it.  A cached engine rules through
        the stage memos; an uncached engine runs the full rule pipeline.
        Both give the identical ruling.
        """
        if self._cache is None:
            ruling = self._run_pipeline(action)
        else:
            ruling = self._evaluate_memoized(action, fingerprint)
        if self._ledger is not None:
            self._ledger.record_ruling(fingerprint, ruling)
            if OBS.enabled:
                OBS.registry.counter(
                    "repro_ledger_ruling_writes_total",
                    "Fresh rulings recorded to a ledger by the engine.",
                ).inc()
        return ruling

    def _run_pipeline(self, action: InvestigativeAction) -> Ruling:
        """Every rule stage, run on the action itself."""
        privacy = analyze_privacy(action)

        requirements: list[Requirement] = []
        for requirement in (
            fourth_amendment.evaluate(action, privacy),
            wiretap.evaluate(action),
            sca.evaluate(action),
            pentrap.evaluate(action),
        ):
            if requirement is not None:
                requirements.append(requirement)

        exceptions = list(gather_exceptions(action))
        exceptions.extend(self._statutory_exceptions(action))
        return self._intern_ruling(privacy, requirements, exceptions)

    def _evaluate_memoized(
        self, action: InvestigativeAction, fingerprint: tuple
    ) -> Ruling:
        """The pipeline as seven memo lookups and one combination lookup."""
        privacy = _PRIVACY.entry(fingerprint, self, action)
        fourth = _FOURTH_AMENDMENT.entry(fingerprint, self, action, privacy)
        wire = _WIRETAP.entry(fingerprint, self, action)
        stored = _SCA.entry(fingerprint, self, action)
        pen = _PENTRAP.entry(fingerprint, self, action)
        cross = _EXCEPTIONS.entry(fingerprint, self, action)
        statutory = _STATUTORY_EXCEPTIONS.entry(fingerprint, self, action)
        key = (
            privacy[1], fourth[1], wire[1], stored[1], pen[1], cross[1],
            statutory[1],
        )
        ruling = _COMBINED.get(key)
        if ruling is None:
            requirements = [
                output
                for output, _ in (fourth, wire, stored, pen)
                if output is not None
            ]
            ruling = self._intern_ruling(
                privacy[0], requirements, [*cross[0], *statutory[0]]
            )
            bounded_put(_COMBINED, key, ruling)
        return ruling

    def _intern_ruling(
        self,
        privacy: PrivacyFinding,
        requirements: list[Requirement],
        exceptions: list[AppliedException],
    ) -> Ruling:
        """The one shared ruling for these rule outputs."""
        # Combination and the trace are pure functions of the rule
        # outputs, so equal outputs share one ruling.
        key = (privacy, tuple(requirements), tuple(exceptions))
        ruling = _RULINGS.get(key)
        if ruling is None:
            ruling = self._combine(privacy, requirements, exceptions)
            bounded_put(_RULINGS, key, ruling)
        return ruling

    def _combine(
        self,
        privacy: PrivacyFinding,
        requirements: list[Requirement],
        exceptions: list[AppliedException],
    ) -> Ruling:
        """The surviving maximum requirement plus the flattened trace.

        Every ruling is built here, so this is where its citations are
        checked: a ruling citing an authority :data:`AUTHORITIES` lacks
        raises ``KeyError`` before any table holds it.
        """
        eliminated: frozenset[LegalSource] = frozenset()
        for exception in exceptions:
            eliminated = eliminated | exception.eliminates
        surviving = [r for r in requirements if r.source not in eliminated]

        required_process = max(
            (r.process for r in surviving), default=ProcessKind.NONE
        )

        steps = self._flatten_steps(privacy.steps, requirements, exceptions)
        self._check_citations(steps)
        return Ruling(
            required_process=required_process,
            requirements=tuple(requirements),
            exceptions=tuple(exceptions),
            privacy=privacy,
            steps=steps,
        )

    def _statutory_exceptions(
        self, action: InvestigativeAction
    ) -> list[AppliedException]:
        """Statute-internal exceptions, recorded for the ruling's trace.

        These never eliminate anything at this layer — the statute modules
        already withheld their requirements — but surfacing them keeps the
        trace complete, so a reader can see *why* Title III or the
        Pen/Trap statute stayed silent.
        """
        recorded: list[AppliedException] = []
        for statute in (wiretap, pentrap):
            if statute.applies(action):
                found = statute.statutory_exception(action)
                if found is not None:
                    kind, step = found
                    recorded.append(
                        AppliedException(
                            kind=kind, eliminates=frozenset(), step=step
                        )
                    )
        return recorded

    @staticmethod
    def _flatten_steps(
        privacy_steps: tuple[ReasoningStep, ...],
        requirements: list[Requirement],
        exceptions: list[AppliedException],
    ) -> tuple[ReasoningStep, ...]:
        """Flatten all reasoning into one ordered, de-duplicated trace."""
        steps: list[ReasoningStep] = list(privacy_steps)
        for requirement in requirements:
            steps.extend(requirement.steps)
        steps.extend(exception.step for exception in exceptions)
        seen: set[tuple[str, str]] = set()
        unique: list[ReasoningStep] = []
        for step in steps:
            key = (step.source.value, step.text)
            if key not in seen:
                seen.add(key)
                unique.append(step)
        return tuple(unique)

    @staticmethod
    def _check_citations(steps: tuple[ReasoningStep, ...]) -> None:
        """Every citation a rule emits must exist in :data:`AUTHORITIES`."""
        for step in steps:
            for key in step.authorities:
                if key not in AUTHORITIES:
                    raise KeyError(
                        f"reasoning step cites unknown authority {key!r}: "
                        f"{step.text}"
                    )


def evaluate(action: InvestigativeAction) -> Ruling:
    """Module-level convenience wrapper around a default engine."""
    return _default_engine().evaluate(action)


_ENGINE: ComplianceEngine | None = None


def _default_engine() -> ComplianceEngine:
    """Lazily constructed singleton engine for the convenience API.

    The singleton carries a default-size ruling cache: repeated module-level
    :func:`evaluate` calls on equal-fingerprint actions are pure lookups.
    """
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = ComplianceEngine(cache=RulingCache())
    return _ENGINE
