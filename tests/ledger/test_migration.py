"""Schema version 2 -> 3: a real v2 file migrates to shared ruling texts.

The v2 file is built the way a v2 build wrote one: the v1 and v2 DDL
from :data:`~repro.ledger.schema.MIGRATIONS`, then rows inserted with
the v2 store's own ``INSERT`` statements, kept verbatim below.  Opening
it with :class:`~repro.ledger.Ledger` migrates it to version 3, after
which every read and every query must answer exactly as a fresh v3
ledger holding the same rulings does, and the file must pass SQLite's
foreign-key and integrity checks.
"""

import sqlite3

import pytest

from repro.core import ComplianceEngine, ProcessKind, build_table1
from repro.core.fingerprint import action_fingerprint, fingerprint_digest
from repro.ledger import (
    MIGRATIONS,
    SCHEMA_VERSION,
    Ledger,
    citation_histogram,
    citation_keys,
    fingerprint_to_json,
    process_histogram,
    reasoning_text,
    ruling_to_json,
    rulings_citing,
    schema,
    search_reasoning,
    suppression_histogram,
)
from repro.workloads import action_corpus

# -- the version 2 store's writes, verbatim ------------------------------------

_V2_INSERT_RULING = """
            INSERT INTO rulings (
                fingerprint_digest, fingerprint_json, required_process,
                needs_process, ruling_json, reasoning_text
            ) VALUES (?, ?, ?, ?, ?, ?)
            ON CONFLICT (fingerprint_digest) DO NOTHING
            """
_V2_INSERT_CITATION = (
    "INSERT INTO ruling_citations (ruling_id, authority_key) "
    "VALUES (?, ?)"
)
_V2_INSERT_FTS = "INSERT INTO ruling_fts (rowid, reasoning) VALUES (?, ?)"
_V2_INSERT_SUPPRESSION = """
            INSERT INTO suppression_outcomes (
                evidence_key, fingerprint_digest, outcome, reason, run_label
            ) VALUES (?, ?, ?, ?, ?)
            ON CONFLICT (evidence_key) DO UPDATE SET
                fingerprint_digest = excluded.fingerprint_digest,
                outcome = excluded.outcome,
                reason = excluded.reason,
                run_label = excluded.run_label
            """

FTS_PHRASES = ('"probable cause"', '"third party"', '"wiretap order"')


def _rulings() -> list:
    """``(fingerprint, ruling)`` pairs, duplicates and shared texts kept."""
    engine = ComplianceEngine()
    actions = [s.action for s in build_table1()]
    actions += action_corpus(1500, seed=99)
    return [(action_fingerprint(a), engine.evaluate(a)) for a in actions]


def _suppressions(rulings) -> list:
    """Deterministic outcomes for some fingerprints, both kinds."""
    outcomes = []
    for index, (fingerprint, __) in enumerate(rulings[:400]):
        if index % 3:
            continue
        outcome = "suppressed" if index % 2 else "admissible"
        outcomes.append((f"e{index}", fingerprint, outcome))
    return outcomes


def _write_v2_file(path, rulings, suppressions, with_fts: bool) -> None:
    connection = sqlite3.connect(path)
    connection.execute("PRAGMA foreign_keys = ON")
    for version, statements, requires_fts in MIGRATIONS:
        if version > 2 or (requires_fts and not with_fts):
            continue
        for statement in statements:
            connection.execute(statement)
    connection.execute("PRAGMA user_version = 2")
    for fingerprint, ruling in rulings:
        reasoning = reasoning_text(ruling)
        cursor = connection.execute(
            _V2_INSERT_RULING,
            (
                fingerprint_digest(fingerprint),
                fingerprint_to_json(fingerprint),
                ruling.required_process.name,
                int(ruling.needs_process),
                ruling_to_json(ruling),
                reasoning,
            ),
        )
        if cursor.rowcount == 0:
            continue
        connection.executemany(
            _V2_INSERT_CITATION,
            [(cursor.lastrowid, key) for key in citation_keys(ruling)],
        )
        if with_fts:
            connection.execute(
                _V2_INSERT_FTS, (cursor.lastrowid, reasoning)
            )
    for key, fingerprint, outcome in suppressions:
        connection.execute(
            _V2_INSERT_SUPPRESSION,
            (key, fingerprint_digest(fingerprint), outcome, "", "v2"),
        )
    connection.commit()
    connection.close()


def _write_v3_file(path, rulings, suppressions) -> None:
    with Ledger(path) as ledger:
        for fingerprint, ruling in rulings:
            ledger.record_ruling(fingerprint, ruling)
        for key, fingerprint, outcome in suppressions:
            ledger.record_suppression(key, fingerprint, outcome, "", "v2")


def _answers(ledger: Ledger, rulings) -> dict:
    """Every read and query answer a ledger gives, in comparable form."""
    citation = citation_histogram(ledger)
    answers = {
        "iter_rulings": [
            (fingerprint, ruling_to_json(ruling))
            for fingerprint, ruling in ledger.iter_rulings()
        ],
        "ruling_for": [
            ruling_to_json(ledger.ruling_for(fingerprint))
            for fingerprint, __ in rulings
        ],
        "process_histogram": process_histogram(ledger),
        "citation_histogram": citation,
        "suppression_histogram": suppression_histogram(ledger),
        "search_reasoning": {
            phrase: [row.to_dict() for row in search_reasoning(ledger, phrase)]
            for phrase in FTS_PHRASES
        },
        "rulings_citing": {},
    }
    for authority in [None, *citation]:
        for process in [None, *(kind.name for kind in ProcessKind)]:
            for suppressed in (None, True, False):
                rows = rulings_citing(
                    ledger,
                    authority_key=authority,
                    required_process=process,
                    suppressed=suppressed,
                )
                key = f"{authority}/{process}/{suppressed}"
                answers["rulings_citing"][key] = [r.to_dict() for r in rows]
    return answers


@pytest.fixture(scope="module")
def rulings():
    return _rulings()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory, rulings):
    """A fresh v3 ledger's answers, counts and all."""
    path = tmp_path_factory.mktemp("fresh") / "fresh.db"
    _write_v3_file(path, rulings, _suppressions(rulings))
    with Ledger(path) as ledger:
        return ledger.counts(), _answers(ledger, rulings)


@pytest.mark.parametrize("v2_fts", [True, False], ids=["v2-fts", "v2-no-fts"])
def test_v2_file_migrates_to_the_answers_of_a_fresh_v3_ledger(
    tmp_path, rulings, fresh, v2_fts
):
    path = tmp_path / "v2.db"
    _write_v2_file(path, rulings, _suppressions(rulings), with_fts=v2_fts)
    with Ledger(path) as ledger:
        assert ledger.schema_version == SCHEMA_VERSION == 3
        counts, answers = ledger.counts(), _answers(ledger, rulings)
        assert 0 < counts["ruling_texts"] < counts["rulings"]
        assert counts == fresh[0]
        assert answers == fresh[1]
        assert answers["search_reasoning"]['"probable cause"']
        assert any(
            row["suppression_outcomes"]
            for rows in answers["rulings_citing"].values()
            for row in rows
        )
        db = ledger._db
        assert db.execute("PRAGMA foreign_key_check").fetchall() == []
        assert db.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        if ledger.fts_enabled:
            # FTS5's own check: the index matches ruling_texts exactly.
            db.execute(
                "INSERT INTO ruling_fts (ruling_fts) VALUES ('integrity-check')"
            )


def test_a_failed_migration_leaves_the_v2_file_as_it_was(
    tmp_path, rulings, monkeypatch
):
    path = tmp_path / "v2.db"
    subset = rulings[:200]
    with Ledger(":memory:") as probe:
        with_fts = probe.fts_enabled
    _write_v2_file(path, subset, [], with_fts=with_fts)
    # A last version-3 step that fails after the rebuild has run.
    failing = (3, ("SELECT no_such_column FROM rulings",), False)
    monkeypatch.setattr(schema, "MIGRATIONS", (*schema.MIGRATIONS, failing))
    with pytest.raises(sqlite3.OperationalError):
        Ledger(path)
    connection = sqlite3.connect(path)
    try:
        assert connection.execute("PRAGMA user_version").fetchone()[0] == 2
        tables = {
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert "ruling_texts" not in tables
        assert "rulings_v3" not in tables
        (stored,) = connection.execute(
            "SELECT COUNT(DISTINCT ruling_json) FROM rulings"
        ).fetchone()
        assert stored == len({ruling_to_json(r) for __, r in subset})
    finally:
        connection.close()
