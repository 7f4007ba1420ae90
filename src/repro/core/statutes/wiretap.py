"""Wiretap Act (Title III) analysis: real-time interception of content.

Title III prohibits *any person* — not only the government — from
intercepting the contents of wire, oral, or electronic communications in
real time without a Title III order, subject to the statutory exceptions the
paper walks through (provider self-protection, one-party consent, computer
trespasser, readily-accessible-to-the-public).
"""

from __future__ import annotations

from repro.core.action import InvestigativeAction
from repro.core.enums import (
    Actor,
    ConsentScope,
    ExceptionKind,
    LegalSource,
    Place,
    ProcessKind,
)
from repro.core.fingerprint import RuleRow
from repro.core.ruling import ReasoningStep, Requirement


def applies(action: InvestigativeAction) -> bool:
    """Whether the Wiretap Act governs this action at all.

    The statute reaches only contemporaneous acquisition of *contents*
    (Steve Jackson Games); stored data and addressing information are
    governed by the SCA and Pen/Trap statute respectively.
    """
    return action.real_time() and action.acquires_content()


#: The exception facts read once the statute applies (see
#: :func:`statutory_exception`).
EXCEPTION_READS = (
    "actor",
    "monitoring_own_network",
    "victim_invited_monitoring",
    "consent_covers_target_data",
    "consent_effective",
    "consent_scope",
    "place",
    "knowingly_exposed",
    "shared_with_others",
)

#: Title III reaches real-time content only; the rest is its exceptions.
FACTS = RuleRow(
    "wiretap",
    guard=("timing", "data_kind"),
    reads=EXCEPTION_READS,
    applies=applies,
)


def evaluate(action: InvestigativeAction) -> Requirement | None:
    """Apply Title III to one action.

    Returns:
        A wiretap-order :class:`Requirement`, or ``None`` when the statute
        does not apply or a statutory exception authorizes the
        interception outright.
    """
    if not applies(action):
        return None

    exception = _statutory_exception(action)
    if exception is not None:
        # The statutory exceptions authorize the interception completely;
        # no Title III process is required.  The step is surfaced through
        # the engine's exception machinery instead of a requirement.
        return None

    return Requirement(
        source=LegalSource.WIRETAP_ACT,
        process=ProcessKind.WIRETAP_ORDER,
        steps=(
            ReasoningStep(
                source=LegalSource.WIRETAP_ACT,
                text=(
                    "Real-time acquisition of communication contents is an "
                    "interception; absent a statutory exception it requires "
                    "a Title III order."
                ),
                authorities=("wiretap_act", "steve_jackson"),
            ),
        ),
    )


def _statutory_exception(
    action: InvestigativeAction,
) -> tuple[ExceptionKind, ReasoningStep] | None:
    """Find the first Title III exception authorizing the interception."""
    return statutory_exception(action)


def statutory_exception(
    action: InvestigativeAction,
) -> tuple[ExceptionKind, ReasoningStep] | None:
    """The Title III exception covering this action, if any.

    Exposed separately so the engine can record the exception in the
    ruling's trace even though it never becomes a requirement.
    """
    doctrine = action.doctrine

    if action.actor is Actor.PROVIDER or doctrine.monitoring_own_network:
        return (
            ExceptionKind.PROVIDER_SELF_PROTECTION,
            ReasoningStep(
                source=LegalSource.WIRETAP_ACT,
                text=(
                    "A provider may intercept on its own network in the "
                    "normal course of protecting its rights and property "
                    "(2511(2)(a)(i))."
                ),
                authorities=("wiretap_provider_exception",),
            ),
        )

    if doctrine.victim_invited_monitoring and action.consent.covers_target_data:
        return (
            ExceptionKind.COMPUTER_TRESPASSER,
            ReasoningStep(
                source=LegalSource.WIRETAP_ACT,
                text=(
                    "The attacked system's owner authorized monitoring of "
                    "the trespasser's communications on that system "
                    "(2511(2)(i))."
                ),
                authorities=("trespasser_exception", "villanueva"),
            ),
        )

    if action.consent.effective() and action.consent.scope in (
        ConsentScope.ONE_PARTY_TO_COMMUNICATION,
        ConsentScope.NETWORK_OWNER,
        ConsentScope.TARGET,
    ):
        return (
            ExceptionKind.PARTY_CONSENT,
            ReasoningStep(
                source=LegalSource.WIRETAP_ACT,
                text=(
                    "A party to the communication (or the system owner "
                    "with authority over it) consented to the interception "
                    "(2511(2)(c))."
                ),
                authorities=("one_party_consent",),
            ),
        )

    if _readily_accessible_to_public(action):
        return (
            ExceptionKind.ACCESSIBLE_TO_PUBLIC,
            ReasoningStep(
                source=LegalSource.WIRETAP_ACT,
                text=(
                    "The communication is made through a system configured "
                    "so it is readily accessible to the general public — "
                    "public boards, open chat rooms, broadcast P2P queries "
                    "(2511(2)(g)(i))."
                ),
                authorities=("public_access_exception",),
            ),
        )

    return None


def _readily_accessible_to_public(action: InvestigativeAction) -> bool:
    """The 2511(2)(g)(i) readily-accessible-to-the-public test.

    Public postings, open chat rooms, and deliberately shared material
    qualify.  Following the paper's Table 1 rows 4 and 6, payloads radiated
    over a residential wireless link do *not* qualify even when the link is
    unencrypted — the Street View lesson.
    """
    ctx = action.context
    if ctx.place is Place.WIRELESS_BROADCAST:
        return False
    return ctx.place is Place.PUBLIC or ctx.knowingly_exposed or ctx.shared_with_others
