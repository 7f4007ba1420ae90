"""Cross-cutting exceptions to the warrant requirement.

These are the paper's section III.B exceptions that operate above the level
of any single statute: consent, exigent circumstances, plain view,
probation/parole, the computer-trespasser doctrine's constitutional side,
and the authors'-judgment doctrines for individual Table 1 rows.  Each
applicable exception names the legal sources whose requirements it
eliminates; the engine then subtracts.
"""

from __future__ import annotations

from repro.core.action import InvestigativeAction
from repro.core.enums import ConsentScope, ExceptionKind, LegalSource
from repro.core.fingerprint import RuleRow
from repro.core.ruling import AppliedException, ReasoningStep

#: The facts :func:`gather_exceptions` reads; the consent scope only
#: behind an effective consent, as the fingerprint normalizes it.
FACTS = RuleRow(
    "exceptions",
    reads=(
        "consent_effective",
        "consent_scope",
        "consent_covers_target_data",
        "victim_invited_monitoring",
        "exigent_circumstances",
        "plain_view",
        "target_on_probation",
        "credentials_lawfully_obtained",
    ),
)

#: Sources a fully effective consent defeats — consent is "a powerful
#: exception to both constitutional and statutory laws" (section III.B.c).
_ALL_SOURCES = frozenset(
    {
        LegalSource.FOURTH_AMENDMENT,
        LegalSource.WIRETAP_ACT,
        LegalSource.SCA,
        LegalSource.PEN_TRAP,
    }
)


def gather_exceptions(action: InvestigativeAction) -> list[AppliedException]:
    """Collect every cross-cutting exception the action qualifies for.

    Statute-internal exceptions (provider self-protection, 3125
    emergencies, 2511(2)(g)(i) public access) live inside the statute
    modules; this function handles the doctrines that cut across sources.
    """
    exceptions: list[AppliedException] = []
    doctrine = action.doctrine
    consent = action.consent

    if consent.effective():
        exceptions.append(
            AppliedException(
                kind=ExceptionKind.CONSENT,
                eliminates=_ALL_SOURCES,
                step=ReasoningStep(
                    source=LegalSource.DOCTRINE,
                    text=(
                        f"Voluntary consent by a person with authority "
                        f"({consent.scope.value}) authorizes the search "
                        f"within the consented scope."
                    ),
                    authorities=("matlock", "ziegler"),
                ),
            )
        )

    if doctrine.victim_invited_monitoring and consent.covers_target_data:
        exceptions.append(
            AppliedException(
                kind=ExceptionKind.COMPUTER_TRESPASSER,
                eliminates=frozenset(
                    {
                        LegalSource.FOURTH_AMENDMENT,
                        LegalSource.WIRETAP_ACT,
                        LegalSource.PEN_TRAP,
                    }
                ),
                step=ReasoningStep(
                    source=LegalSource.DOCTRINE,
                    text=(
                        "The attack victim invited monitoring of the "
                        "trespasser on the victim's own system; no process "
                        "is needed for collection there."
                    ),
                    authorities=("trespasser_exception", "villanueva"),
                ),
            )
        )

    if doctrine.exigent_circumstances:
        exceptions.append(
            AppliedException(
                kind=ExceptionKind.EXIGENT_CIRCUMSTANCES,
                eliminates=frozenset({LegalSource.FOURTH_AMENDMENT}),
                step=ReasoningStep(
                    source=LegalSource.DOCTRINE,
                    text=(
                        "Imminent evidence destruction, danger, hot "
                        "pursuit, or escape risk permits immediate "
                        "warrantless action."
                    ),
                    authorities=("mincey",),
                ),
            )
        )

    if doctrine.plain_view:
        exceptions.append(
            AppliedException(
                kind=ExceptionKind.PLAIN_VIEW,
                eliminates=frozenset({LegalSource.FOURTH_AMENDMENT}),
                step=ReasoningStep(
                    source=LegalSource.DOCTRINE,
                    text=(
                        "Incriminating material observed from a lawful "
                        "vantage point, with immediately apparent "
                        "character, may be seized without a warrant."
                    ),
                    authorities=("doj_manual",),
                ),
            )
        )

    if doctrine.target_on_probation:
        exceptions.append(
            AppliedException(
                kind=ExceptionKind.PROBATION_PAROLE,
                eliminates=frozenset({LegalSource.FOURTH_AMENDMENT}),
                step=ReasoningStep(
                    source=LegalSource.DOCTRINE,
                    text=(
                        "Probationers and parolees have a diminished "
                        "expectation of privacy and may be searched on "
                        "reasonable suspicion."
                    ),
                    authorities=("knights",),
                ),
            )
        )

    if doctrine.credentials_lawfully_obtained:
        exceptions.append(
            AppliedException(
                kind=ExceptionKind.PRIVATE_SEARCH,
                eliminates=_ALL_SOURCES,
                step=ReasoningStep(
                    source=LegalSource.DOCTRINE,
                    text=(
                        "Credentials lawfully obtained from the arrested "
                        "defendant authorize retrieval of the defendant's "
                        "remote data without further process (authors' "
                        "judgment, Table 1 scene 20)."
                    ),
                    authorities=("paper_judgment",),
                ),
            )
        )

    return exceptions


def consent_reaches(consent_scope: ConsentScope, private_space: bool) -> bool:
    """Whether a consenter's authority reaches a particular space.

    Args:
        consent_scope: Who consented.
        private_space: Whether the space searched is another user's
            exclusive/private space (e.g. password-protected files).

    Returns:
        Co-users may consent only to shared space; spouses, employers, and
        network owners have broad authority; a parent of a minor may
        consent to the child's machine (section III.B.c (i)-(v)).
    """
    if consent_scope is ConsentScope.NONE:
        return False
    if consent_scope is ConsentScope.CO_USER_SHARED_SPACE:
        return not private_space
    return True
