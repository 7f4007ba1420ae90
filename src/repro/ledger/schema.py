"""The ledger's relational schema, as explicit DDL.

Every table is written in the portable core of SQL — ``TEXT`` /
``INTEGER`` / ``REAL`` columns, declared primary and foreign keys,
ordinary secondary indexes — so the schema is a drop-in for Postgres:
nothing below uses a SQLite-only type, ``AUTOINCREMENT``, partial
indexes, or expression defaults.  The single deliberate exception is the
FTS5 full-text index over ruling reasoning traces, which is isolated in
its own migration steps and consulted only behind
:data:`~repro.ledger.store.Ledger.fts_enabled` (a Postgres port swaps it
for a ``tsvector`` column and a GIN index; see ``docs/ledger.md``).

Migrations are append-only: each entry in :data:`MIGRATIONS` carries the
``PRAGMA user_version`` it upgrades the database *to* and the statements
that get it there.  One version may take several entries (version 3's
core tables and its FTS5 rebuild are two), and the runner commits all
of a version's entries in one transaction.  :func:`schema_digest`
hashes the full DDL text so golden fixtures can fail loudly when the
schema drifts.
"""

from __future__ import annotations

import hashlib

#: The schema version a fully migrated database reports via
#: ``PRAGMA user_version``.
SCHEMA_VERSION = 3

#: Version 1: the relational core.  Rulings are stored twice over — a
#: canonical JSON document for byte-exact reload, plus the indexed
#: columns queries filter on — and citations are exploded into a join
#: table so "all rulings citing §2703" is one indexed lookup.
_V1_STATEMENTS: tuple[str, ...] = (
    """
    CREATE TABLE rulings (
        id INTEGER PRIMARY KEY,
        fingerprint_digest TEXT NOT NULL UNIQUE,
        fingerprint_json TEXT NOT NULL,
        required_process TEXT NOT NULL,
        needs_process INTEGER NOT NULL,
        ruling_json TEXT NOT NULL,
        reasoning_text TEXT NOT NULL
    )
    """,
    """
    CREATE INDEX idx_rulings_required_process
        ON rulings (required_process)
    """,
    """
    CREATE TABLE ruling_citations (
        ruling_id INTEGER NOT NULL REFERENCES rulings (id),
        authority_key TEXT NOT NULL,
        PRIMARY KEY (ruling_id, authority_key)
    )
    """,
    """
    CREATE INDEX idx_citations_authority
        ON ruling_citations (authority_key)
    """,
    """
    CREATE TABLE dockets (
        id INTEGER PRIMARY KEY,
        docket_key TEXT NOT NULL UNIQUE,
        applications_received INTEGER NOT NULL,
        applications_denied INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE instruments (
        id INTEGER PRIMARY KEY,
        instrument_key TEXT NOT NULL UNIQUE,
        docket_id INTEGER REFERENCES dockets (id),
        kind TEXT NOT NULL,
        issued_to TEXT NOT NULL,
        issued_at REAL NOT NULL,
        expires_at REAL NOT NULL,
        scope TEXT NOT NULL,
        revoked INTEGER NOT NULL
    )
    """,
    """
    CREATE INDEX idx_instruments_docket ON instruments (docket_id)
    """,
    """
    CREATE INDEX idx_instruments_holder ON instruments (issued_to)
    """,
    """
    CREATE TABLE custody_chains (
        id INTEGER PRIMARY KEY,
        item_key TEXT NOT NULL UNIQUE,
        description TEXT NOT NULL,
        content_hash TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE custody_entries (
        chain_id INTEGER NOT NULL REFERENCES custody_chains (id),
        seq INTEGER NOT NULL,
        timestamp REAL NOT NULL,
        custodian TEXT NOT NULL,
        event TEXT NOT NULL,
        content_hash TEXT NOT NULL,
        PRIMARY KEY (chain_id, seq)
    )
    """,
    """
    CREATE TABLE suppression_outcomes (
        id INTEGER PRIMARY KEY,
        evidence_key TEXT NOT NULL UNIQUE,
        fingerprint_digest TEXT NOT NULL,
        outcome TEXT NOT NULL,
        reason TEXT NOT NULL,
        run_label TEXT NOT NULL
    )
    """,
    """
    CREATE INDEX idx_suppression_fingerprint
        ON suppression_outcomes (fingerprint_digest)
    """,
    """
    CREATE INDEX idx_suppression_outcome
        ON suppression_outcomes (outcome)
    """,
)

#: Version 2: full-text search over reasoning traces.  SQLite-only
#: (FTS5); applied only when the linked SQLite has the module compiled
#: in, and the store degrades to an indexed ``LIKE`` scan without it.
#: External-content mode keeps the reasoning text single-sourced in
#: ``rulings``; the backfill covers rows recorded under version 1.
_V2_STATEMENTS: tuple[str, ...] = (
    """
    CREATE VIRTUAL TABLE ruling_fts USING fts5(
        reasoning,
        content='rulings',
        content_rowid='id'
    )
    """,
    """
    INSERT INTO ruling_fts (rowid, reasoning)
        SELECT id, reasoning_text FROM rulings
    """,
)

#: Version 3: each distinct ruling is stored once.  Rulings are a pure
#: function of a few rule outputs, so thousands of fingerprints share a
#: few thousand rulings; ``ruling_texts`` holds each canonical text (and
#: its reasoning trace) once, deduplicated by the text itself, and a
#: ``rulings`` row keeps only its per-fingerprint columns plus a
#: reference to its text.  Citations move onto the text too.  The
#: migration copies the distinct texts out in first-recorded order, then
#: rebuilds ``rulings`` and ``ruling_citations`` around them, keeping
#: every ruling id; the child table goes first so no step orphans a
#: foreign key.
_V3_STATEMENTS: tuple[str, ...] = (
    """
    CREATE TABLE ruling_texts (
        id INTEGER PRIMARY KEY,
        ruling_json TEXT NOT NULL UNIQUE,
        reasoning_text TEXT NOT NULL
    )
    """,
    """
    INSERT INTO ruling_texts (ruling_json, reasoning_text)
        SELECT ruling_json, reasoning_text FROM rulings
        WHERE id IN (SELECT MIN(id) FROM rulings GROUP BY ruling_json)
        ORDER BY id
    """,
    """
    CREATE TABLE rulings_v3 (
        id INTEGER PRIMARY KEY,
        fingerprint_digest TEXT NOT NULL UNIQUE,
        fingerprint_json TEXT NOT NULL,
        required_process TEXT NOT NULL,
        needs_process INTEGER NOT NULL,
        ruling_text_id INTEGER NOT NULL REFERENCES ruling_texts (id)
    )
    """,
    """
    INSERT INTO rulings_v3 (
        id, fingerprint_digest, fingerprint_json, required_process,
        needs_process, ruling_text_id
    )
        SELECT r.id, r.fingerprint_digest, r.fingerprint_json,
               r.required_process, r.needs_process, t.id
        FROM rulings r JOIN ruling_texts t ON t.ruling_json = r.ruling_json
    """,
    """
    CREATE TABLE ruling_citations_v3 (
        ruling_text_id INTEGER NOT NULL REFERENCES ruling_texts (id),
        authority_key TEXT NOT NULL,
        PRIMARY KEY (ruling_text_id, authority_key)
    )
    """,
    """
    INSERT INTO ruling_citations_v3 (ruling_text_id, authority_key)
        SELECT DISTINCT r.ruling_text_id, c.authority_key
        FROM ruling_citations c JOIN rulings_v3 r ON r.id = c.ruling_id
    """,
    """
    DROP TABLE ruling_citations
    """,
    """
    DROP TABLE rulings
    """,
    """
    ALTER TABLE rulings_v3 RENAME TO rulings
    """,
    """
    ALTER TABLE ruling_citations_v3 RENAME TO ruling_citations
    """,
    """
    CREATE INDEX idx_rulings_required_process
        ON rulings (required_process)
    """,
    """
    CREATE INDEX idx_rulings_text ON rulings (ruling_text_id)
    """,
    """
    CREATE INDEX idx_citations_authority
        ON ruling_citations (authority_key)
    """,
)

#: Version 3's FTS5 step: the index now covers each distinct reasoning
#: trace once, with ``ruling_texts`` as its external content (the
#: column is named after the content column, so FTS5 can read it back).
#: ``IF EXISTS``: a file first migrated without FTS5 has no old index.
_V3_FTS_STATEMENTS: tuple[str, ...] = (
    """
    DROP TABLE IF EXISTS ruling_fts
    """,
    """
    CREATE VIRTUAL TABLE ruling_fts USING fts5(
        reasoning_text,
        content='ruling_texts',
        content_rowid='id'
    )
    """,
    """
    INSERT INTO ruling_fts (rowid, reasoning_text)
        SELECT id, reasoning_text FROM ruling_texts
    """,
)

#: ``(target user_version, statements, requires_fts)`` triples, in
#: ascending version order.  The runner in :mod:`repro.ledger.store`
#: applies all pending entries of one version inside one transaction
#: and stamps ``PRAGMA user_version`` with the target before committing.
MIGRATIONS: tuple[tuple[int, tuple[str, ...], bool], ...] = (
    (1, _V1_STATEMENTS, False),
    (2, _V2_STATEMENTS, True),
    (3, _V3_STATEMENTS, False),
    (3, _V3_FTS_STATEMENTS, True),
)


def full_ddl() -> str:
    """The complete DDL text, migrations concatenated in order."""
    chunks: list[str] = []
    for version, statements, requires_fts in MIGRATIONS:
        chunks.append(f"-- user_version {version}"
                      + (" (requires fts5)" if requires_fts else ""))
        chunks.extend(" ".join(stmt.split()) for stmt in statements)
    return "\n".join(chunks)


def schema_digest() -> str:
    """SHA-256 over the canonical DDL text.

    Pinned in ``tests/data/golden_ledger_queries.json``: any schema
    change — a new column, a reordered statement, a new migration —
    moves this digest and fails the golden-query fixture loudly, which
    is the cue to regenerate it deliberately.
    """
    return hashlib.sha256(full_ddl().encode("utf-8")).hexdigest()
