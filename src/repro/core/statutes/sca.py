"""Stored Communications Act analysis: data at rest with providers.

Implements the paper's section III.A.3 treatment of the SCA:

* classification of a provider as ECS, RCS, or neither *with respect to a
  specific message* (the Alice/Bob e-mail example);
* the 2703 compelled-disclosure tiers (subpoena for basic subscriber
  information, 2703(d) court order for transactional records, warrant for
  stored content);
* the 2702 voluntary-disclosure rules for public vs non-public providers.
"""

from __future__ import annotations

from repro.core.action import InvestigativeAction
from repro.core.enums import (
    DataKind,
    LegalSource,
    Place,
    ProcessKind,
    ProviderRole,
    Timing,
)
from repro.core.fingerprint import RuleRow
from repro.core.ruling import ReasoningStep, Requirement


def classify_provider(
    serves_public: bool, message_retrieved: bool
) -> ProviderRole:
    """Classify a provider with respect to one message.

    Args:
        serves_public: Whether the provider offers its service to the
            public (Gmail: yes; a university mail server: no).
        message_retrieved: Whether the recipient has already retrieved /
            opened the message.

    Returns:
        ``ECS`` while the message awaits retrieval; after retrieval, a
        public provider storing the message becomes ``RCS`` while a
        non-public provider is ``NEITHER`` — the message drops out of the
        SCA and only the Fourth Amendment governs (Andersen Consulting).
    """
    if not message_retrieved:
        return ProviderRole.ECS
    if serves_public:
        return ProviderRole.RCS
    return ProviderRole.NEITHER


def applies(action: InvestigativeAction) -> bool:
    """Whether the SCA's compelled-disclosure scheme governs this action.

    The 2703 tiers regulate *government* access to records held by
    providers; the provider's own access to its stored communications is
    exempt (2701(c)(1)), and purely private access is a 2701 matter
    between private parties rather than a process requirement.
    """
    return (
        action.is_government_action()
        and action.timing is Timing.STORED
        and action.context.place is Place.THIRD_PARTY_PROVIDER
    )


#: Government access to stored provider data; then the provider's role
#: for the message and the 2703 tier of the data kind.
FACTS = RuleRow(
    "sca",
    guard=("actor", "timing", "place"),
    reads=(
        "provider_role",
        "provider_serves_public",
        "delivered_to_recipient",
        "data_kind",
    ),
    applies=applies,
)


def provider_role_for(action: InvestigativeAction) -> ProviderRole:
    """Resolve the provider's SCA role for the action's target message."""
    ctx = action.context
    if ctx.provider_role is not None:
        return ctx.provider_role
    serves_public = True if ctx.provider_serves_public is None else ctx.provider_serves_public
    return classify_provider(
        serves_public=serves_public,
        message_retrieved=ctx.delivered_to_recipient,
    )


#: Compelled-disclosure tiers of 18 U.S.C. 2703, least to most protected.
COMPELLED_DISCLOSURE_TIERS: dict[DataKind, ProcessKind] = {
    DataKind.SUBSCRIBER_INFO: ProcessKind.SUBPOENA,
    DataKind.TRANSACTIONAL_RECORD: ProcessKind.COURT_ORDER,
    DataKind.NON_CONTENT: ProcessKind.COURT_ORDER,
    DataKind.CONTENT: ProcessKind.SEARCH_WARRANT,
}


def evaluate(action: InvestigativeAction) -> Requirement | None:
    """Apply the SCA's compelled-disclosure tiers to one action.

    Returns:
        The tiered :class:`Requirement`, or ``None`` when the SCA does not
        apply (not stored-at-provider, or the provider is neither ECS nor
        RCS with respect to this message).
    """
    if not applies(action):
        return None

    role = provider_role_for(action)
    if role is ProviderRole.NEITHER:
        # The message has dropped out of the SCA (opened mail on a
        # non-public server); the Fourth Amendment governs alone.
        return None

    process = COMPELLED_DISCLOSURE_TIERS.get(action.data_kind)
    if process is None:
        return None

    return Requirement(
        source=LegalSource.SCA,
        process=process,
        steps=(
            ReasoningStep(
                source=LegalSource.SCA,
                text=(
                    f"The provider is {role.value.replace('_', ' ')} with "
                    f"respect to this data; compelling "
                    f"{action.data_kind.value.replace('_', ' ')} from it "
                    f"requires at least a {process.display_name} "
                    f"(2703 tiers)."
                ),
                authorities=("sca_2703",),
            ),
        ),
    )


def may_voluntarily_disclose(
    serves_public: bool,
    data_kind: DataKind,
    to_government: bool,
    emergency: bool = False,
    user_consented: bool = False,
    protects_provider: bool = False,
) -> bool:
    """The 2702 voluntary-disclosure rule.

    Args:
        serves_public: Whether the provider serves the public.
        data_kind: What the provider would hand over.
        to_government: Whether the recipient is a government entity.
        emergency: A 2702(b)(8)-style emergency involving danger of death
            or serious injury.
        user_consented: The originator/subscriber consented.
        protects_provider: Disclosure is necessary to protect the
            provider's own rights and property.

    Returns:
        Whether the disclosure is lawful without compulsion.  Non-public
        providers may disclose freely; public providers may hand
        non-content to non-government entities, and anything at all only
        under the enumerated exceptions.
    """
    if not serves_public:
        return True
    if emergency or user_consented or protects_provider:
        return True
    if not to_government:
        return data_kind is not DataKind.CONTENT
    return False
