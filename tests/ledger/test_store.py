"""Unit tests for the SQLite ledger store.

Covers the migration runner (version stamping, reopen, refusal of
newer-schema files), idempotent writes per record family, byte-exact
ruling reload, the FTS5 feature gate and its portable fallback, and
handle lifecycle errors, and the WAL journal (its mode, its side files
while open, and one self-contained file after close).
"""

import shutil
import sqlite3

import pytest

from repro.core import ComplianceEngine, ProcessKind, build_table1
from repro.core.fingerprint import action_fingerprint, fingerprint_digest
from repro.court.docket import IssuedProcess
from repro.evidence.custody import ChainOfCustody
from repro.evidence.items import EvidenceItem
from repro.ledger import (
    SCHEMA_VERSION,
    Ledger,
    LedgerError,
    ruling_to_json,
    search_reasoning,
)
from repro.ledger import store as store_mod
from repro.workloads import action_corpus

ENGINE = ComplianceEngine()


@pytest.fixture()
def scene_rulings():
    scenarios = build_table1()
    return [
        (action_fingerprint(s.action), ENGINE.evaluate(s.action))
        for s in scenarios
    ]


def _evidence_item():
    action = build_table1()[0].action
    return EvidenceItem(
        description="imaged drive",
        content="deadbeef",
        acquired_by="det. rivera",
        acquired_at=1.0,
        action=action,
        process_held=ProcessKind.SEARCH_WARRANT,
    )


class TestMigrations:
    def test_fresh_ledger_is_at_schema_version(self):
        with Ledger(":memory:") as ledger:
            assert ledger.schema_version == SCHEMA_VERSION

    def test_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "case.db"
        with Ledger(path) as ledger:
            assert ledger.schema_version == SCHEMA_VERSION
        with Ledger(path) as ledger:
            assert ledger.schema_version == SCHEMA_VERSION
            assert ledger.counts()["rulings"] == 0

    def test_newer_schema_file_is_refused(self, tmp_path):
        path = tmp_path / "future.db"
        db = sqlite3.connect(path)
        db.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        db.commit()
        db.close()
        with pytest.raises(LedgerError, match="newer"):
            Ledger(path)

    def test_refused_file_is_untouched_and_its_connection_closed(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "future.db"
        db = sqlite3.connect(path)
        db.execute("CREATE TABLE later (x)")
        db.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        db.commit()
        db.close()
        before = path.read_bytes()
        opened = []
        connect = sqlite3.connect

        def recording_connect(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(store_mod.sqlite3, "connect", recording_connect)
        with pytest.raises(LedgerError, match="newer"):
            Ledger(path)
        assert len(opened) == 1
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            opened[0].execute("SELECT 1")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["future.db"]

    def test_data_survives_reopen(self, tmp_path, scene_rulings):
        path = tmp_path / "case.db"
        with Ledger(path) as ledger:
            for fingerprint, ruling in scene_rulings:
                ledger.record_ruling(fingerprint, ruling)
            written = ledger.counts()["rulings"]
        with Ledger(path) as ledger:
            assert ledger.counts()["rulings"] == written


class TestRulings:
    def test_round_trip_is_equal_and_explains_identically(
        self, scene_rulings
    ):
        with Ledger(":memory:") as ledger:
            for fingerprint, ruling in scene_rulings:
                ledger.record_ruling(fingerprint, ruling)
            for fingerprint, ruling in scene_rulings:
                reloaded = ledger.ruling_for(fingerprint)
                assert reloaded == ruling
                assert reloaded.explain() == ruling.explain()
                assert reloaded.to_dict() == ruling.to_dict()
                assert ruling_to_json(reloaded) == ruling_to_json(ruling)

    def test_duplicate_write_is_skipped(self, scene_rulings):
        fingerprint, ruling = scene_rulings[0]
        with Ledger(":memory:") as ledger:
            assert ledger.record_ruling(fingerprint, ruling) is True
            assert ledger.record_ruling(fingerprint, ruling) is False
            assert ledger.counts()["rulings"] == 1
            assert ledger.stats.ruling_writes == 1
            assert ledger.stats.ruling_duplicates == 1

    def test_missing_fingerprint_reloads_none(self, scene_rulings):
        with Ledger(":memory:") as ledger:
            assert ledger.ruling_for(scene_rulings[0][0]) is None

    def test_iter_rulings_is_ordered_by_digest(self, scene_rulings):
        with Ledger(":memory:") as ledger:
            for fingerprint, ruling in scene_rulings:
                ledger.record_ruling(fingerprint, ruling)
            digests = [
                fingerprint_digest(fp) for fp, __ in ledger.iter_rulings()
            ]
        assert digests == sorted(digests)
        assert len(digests) == len({fp for fp, __ in scene_rulings})

    def test_corpus_round_trip(self):
        corpus = action_corpus(200, seed=3)
        with Ledger(":memory:") as ledger:
            for action in corpus:
                ledger.record_ruling(
                    action_fingerprint(action), ENGINE.evaluate(action)
                )
            for action in corpus:
                reloaded = ledger.ruling_for(action_fingerprint(action))
                assert reloaded == ENGINE.evaluate(action)


class TestDocketsAndInstruments:
    def test_docket_upsert_updates_counters(self):
        class FakeDocket:
            applications_received = 3
            applications_denied = 1

        with Ledger(":memory:") as ledger:
            ledger.record_docket("d1", FakeDocket())
            FakeDocket.applications_received = 5
            ledger.record_docket("d1", FakeDocket())
            assert ledger.counts()["dockets"] == 1
            row = ledger._db.execute(
                "SELECT applications_received FROM dockets"
            ).fetchone()
            assert row["applications_received"] == 5

    def test_instrument_round_trip_ignores_process_local_id(self):
        original = IssuedProcess(
            kind=ProcessKind.SEARCH_WARRANT,
            issued_to="det. rivera",
            issued_at=10.0,
            expires_at=900.0,
            scope="seized laptop",
        )
        with Ledger(":memory:") as ledger:
            ledger.record_instrument("w1", original)
            reloaded = ledger.instrument_for("w1")
        assert reloaded.kind is original.kind
        assert reloaded.issued_to == original.issued_to
        assert reloaded.issued_at == original.issued_at
        assert reloaded.expires_at == original.expires_at
        assert reloaded.scope == original.scope
        assert reloaded.revoked == original.revoked

    def test_instrument_upsert_and_docket_linkage(self):
        class FakeDocket:
            applications_received = 1
            applications_denied = 0

        instrument = IssuedProcess(
            kind=ProcessKind.WIRETAP_ORDER,
            issued_to="agent",
            issued_at=0.0,
            expires_at=100.0,
        )
        with Ledger(":memory:") as ledger:
            ledger.record_docket("d1", FakeDocket())
            ledger.record_instrument("i1", instrument, docket_key="d1")
            ledger.record_instrument("i1", instrument, docket_key="d1")
            assert ledger.counts()["instruments"] == 1
            row = ledger._db.execute(
                "SELECT docket_id FROM instruments"
            ).fetchone()
            assert row["docket_id"] is not None

    def test_missing_instrument_reloads_none(self):
        with Ledger(":memory:") as ledger:
            assert ledger.instrument_for("nope") is None


class TestCustody:
    def test_custody_round_trip(self):
        chain = ChainOfCustody(
            _evidence_item(), custodian="det. rivera", time=1.0
        )
        chain.transfer("lab tech okafor", time=2.5)
        chain.record_event("imaged drive; verified hash", time=3.0)
        with Ledger(":memory:") as ledger:
            ledger.record_custody("item-1", chain)
            record = ledger.custody_for("item-1")
        assert record.entries == tuple(chain.entries)
        assert record.description == chain.item.description
        assert record.content_hash == chain.item.content_hash

    def test_rerecording_replaces_entries_wholesale(self):
        chain = ChainOfCustody(
            _evidence_item(), custodian="det. rivera", time=1.0
        )
        with Ledger(":memory:") as ledger:
            ledger.record_custody("item-1", chain)
            chain.record_event("sealed in evidence bag", time=4.0)
            ledger.record_custody("item-1", chain)
            record = ledger.custody_for("item-1")
            assert ledger.counts()["custody_chains"] == 1
        assert record.entries == tuple(chain.entries)

    def test_missing_chain_reloads_none(self):
        with Ledger(":memory:") as ledger:
            assert ledger.custody_for("nope") is None


class TestSuppression:
    def test_round_trip_and_upsert(self, scene_rulings):
        fingerprint, __ = scene_rulings[0]
        with Ledger(":memory:") as ledger:
            ledger.record_suppression(
                "e1", fingerprint, "suppressed", reason="no warrant"
            )
            ledger.record_suppression(
                "e1", fingerprint, "admissible", run_label="retrial"
            )
            record = ledger.suppression_for("e1")
            assert ledger.counts()["suppression_outcomes"] == 1
        assert record.outcome == "admissible"
        assert record.run_label == "retrial"
        assert record.fingerprint_digest == fingerprint_digest(fingerprint)

    def test_missing_outcome_reloads_none(self):
        with Ledger(":memory:") as ledger:
            assert ledger.suppression_for("nope") is None


class TestFtsFallback:
    def test_search_works_without_fts5(self, monkeypatch, scene_rulings):
        monkeypatch.setattr(store_mod, "_fts_available", lambda db: False)
        with Ledger(":memory:") as ledger:
            assert ledger.fts_enabled is False
            # The FTS migration is skipped but its version is stamped,
            # keeping the runner linear for future migrations.
            assert ledger.schema_version == SCHEMA_VERSION
            for fingerprint, ruling in scene_rulings:
                ledger.record_ruling(fingerprint, ruling)
            rows = search_reasoning(ledger, "probable cause")
            assert rows

    def test_fallback_and_fts_agree_on_membership(self, scene_rulings):
        with Ledger(":memory:") as fts_ledger:
            if not fts_ledger.fts_enabled:
                pytest.skip("linked SQLite lacks FTS5")
            for fingerprint, ruling in scene_rulings:
                fts_ledger.record_ruling(fingerprint, ruling)
            fts_rows = search_reasoning(fts_ledger, '"probable cause"')
            fts_digests = [row.fingerprint_digest for row in fts_rows]
        scan_ledger = Ledger(":memory:")
        scan_ledger.fts_enabled = False
        for fingerprint, ruling in scene_rulings:
            scan_ledger.record_ruling(fingerprint, ruling)
        scan_rows = search_reasoning(scan_ledger, '"probable cause"')
        scan_ledger.close()
        assert [row.fingerprint_digest for row in scan_rows] == fts_digests


class TestLifecycle:
    def test_closed_ledger_raises(self):
        ledger = Ledger(":memory:")
        ledger.close()
        with pytest.raises(LedgerError, match="closed"):
            ledger.counts()
        ledger.close()  # idempotent

    def test_vacuum_reports_size(self, tmp_path, scene_rulings):
        with Ledger(tmp_path / "case.db") as ledger:
            for fingerprint, ruling in scene_rulings:
                ledger.record_ruling(fingerprint, ruling)
            size = ledger.vacuum()
            assert size > 0
            assert ledger.describe()["size_bytes"] == size

    def test_describe_is_json_serializable(self):
        import json

        with Ledger(":memory:") as ledger:
            payload = json.loads(json.dumps(ledger.describe()))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["journal_mode"] == "memory"


class TestJournal:
    def test_file_ledger_is_wal_with_full_sync(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "case.db"
        with Ledger(path) as ledger:
            assert ledger.describe()["journal_mode"] == "wal"
            synchronous = ledger._db.execute("PRAGMA synchronous").fetchone()
            assert synchronous[0] == 2  # FULL
        capsys.readouterr()
        assert main(["ledger", "stats", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["journal_mode"] == "wal"

    def test_in_memory_ledger_keeps_memory_journal(self):
        with Ledger(":memory:") as ledger:
            assert ledger.describe()["journal_mode"] == "memory"

    def test_close_leaves_one_self_contained_file(
        self, tmp_path, scene_rulings
    ):
        path = tmp_path / "case.db"
        ledger = Ledger(path)
        for fingerprint, ruling in scene_rulings:
            ledger.record_ruling(fingerprint, ruling)
        ledger.commit()
        assert (tmp_path / "case.db-wal").exists()  # open: rows in the WAL
        expected = ledger.counts()
        ledger.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["case.db"]
        copy = tmp_path / "copy" / "case.db"
        copy.parent.mkdir()
        shutil.copyfile(path, copy)
        with Ledger(copy) as reopened:
            assert reopened.counts() == expected
            for fingerprint, ruling in scene_rulings:
                assert ruling_to_json(
                    reopened.ruling_for(fingerprint)
                ) == ruling_to_json(ruling)

    def test_close_with_a_half_read_stream_leaves_one_file(
        self, tmp_path, scene_rulings
    ):
        path = tmp_path / "case.db"
        ledger = Ledger(path)
        for fingerprint, ruling in scene_rulings:
            ledger.record_ruling(fingerprint, ruling)
        ledger.commit()
        expected = ledger.counts()
        stream = ledger.iter_rulings()
        next(stream)  # one row pulled, the stream's statement still open
        ledger.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["case.db"]
        copy = tmp_path / "copy" / "case.db"
        copy.parent.mkdir()
        shutil.copyfile(path, copy)
        with Ledger(copy) as reopened:
            assert reopened.counts() == expected
            assert len(list(reopened.iter_rulings())) == expected["rulings"]
        with pytest.raises(sqlite3.ProgrammingError):
            next(stream)  # the closed stream fails loudly, not silently
