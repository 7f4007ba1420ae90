"""The ledger wired through the stack: engine, pipeline, workflow, CLI.

These tests pin the *boundaries* at which each layer persists — the
engine on every fresh ruling, the pipeline per scene at the suppression
span, the workflow engine at the run-complete journal record — plus the
obs counters/gauges the writes emit and the CLI verbs over a real file.
"""

import pytest

from repro import obs
from repro.core import ComplianceEngine, RulingCache, build_table1
from repro.core.engine import RulingLedger
from repro.core.fingerprint import action_fingerprint
from repro.investigation.pipeline import InvestigationPipeline
from repro.ledger import Ledger, rulings_citing
from repro.workloads import action_corpus


class TestEngineRecording:
    def test_every_fresh_ruling_is_persisted(self):
        corpus = action_corpus(300, seed=11)
        with Ledger(":memory:") as ledger:
            engine = ComplianceEngine(cache=RulingCache(), ledger=ledger)
            engine.evaluate_many(corpus)
            unique = {action_fingerprint(a) for a in corpus}
            assert ledger.counts()["rulings"] == len(unique)
            for action in corpus:
                assert (
                    ledger.ruling_for(action_fingerprint(action))
                    is not None
                )

    def test_uncached_engine_records_too(self):
        scenes = build_table1()[:5]
        with Ledger(":memory:") as ledger:
            engine = ComplianceEngine(ledger=ledger)
            for scene in scenes:
                engine.evaluate(scene.action)
            assert ledger.counts()["rulings"] == len(
                {action_fingerprint(s.action) for s in scenes}
            )

    def test_ledger_satisfies_the_protocol(self):
        with Ledger(":memory:") as ledger:
            assert isinstance(ledger, RulingLedger)

    def test_write_counter_increments_under_obs(self):
        obs.enable()
        try:
            with Ledger(":memory:") as ledger:
                engine = ComplianceEngine(ledger=ledger)
                engine.evaluate(build_table1()[0].action)
            rendered = obs.OBS.registry.render_text()
        finally:
            obs.disable()
        assert "repro_ledger_ruling_writes_total" in rendered

    def test_bind_ledger_exports_gauges(self):
        obs.enable()
        try:
            with Ledger(":memory:") as ledger:
                obs.bind_ledger(ledger.stats)
                engine = ComplianceEngine(ledger=ledger)
                engine.evaluate(build_table1()[0].action)
                rendered = obs.OBS.registry.render_text()
        finally:
            obs.disable()
        assert 'repro_ledger_ruling_writes{ledger="ledger"} 1' in rendered


class TestPipelinePersistence:
    @pytest.fixture(scope="class")
    def ledger(self):
        with Ledger(":memory:") as led:
            pipeline = InvestigationPipeline(ledger=led, run_label="t")
            scenarios = build_table1()
            pipeline.run_all(scenarios, obtain_process=True)
            pipeline.run_all(scenarios, obtain_process=False)
            yield led

    def test_every_scene_persists_custody_and_suppression(self, ledger):
        counts = ledger.counts()
        assert counts["suppression_outcomes"] == 40  # 20 scenes x 2 modes
        assert counts["custody_chains"] == 40
        assert counts["dockets"] == 1

    def test_keys_are_deterministic_and_reloadable(self, ledger):
        # Scene 8 (ISP full packets) requires process, so defying it
        # must leave a suppression on file while complying does not.
        comply = ledger.suppression_for("t/scene-8/comply/evidence")
        defy = ledger.suppression_for("t/scene-8/no-process/evidence")
        assert comply.outcome == "admissible"
        assert defy.outcome != "admissible"
        chain = ledger.custody_for("t/scene-8/comply/custody")
        assert chain is not None and chain.entries

    def test_instruments_file_on_the_docket(self, ledger):
        instrument = ledger.instrument_for("t/scene-8/comply/instrument")
        assert instrument is not None
        row = ledger._db.execute(
            "SELECT docket_id FROM instruments WHERE instrument_key = ?",
            ("t/scene-8/comply/instrument",),
        ).fetchone()
        assert row["docket_id"] is not None

    def test_rerunning_upserts_instead_of_duplicating(self, ledger):
        before = ledger.counts()
        pipeline = InvestigationPipeline(ledger=ledger, run_label="t")
        pipeline.run_all(build_table1(), obtain_process=False)
        after = ledger.counts()
        assert after["suppression_outcomes"] == before["suppression_outcomes"]
        assert after["custody_chains"] == before["custody_chains"]

    def test_sca_2703_suppression_query_answers(self, ledger):
        rows = rulings_citing(
            ledger, authority_key="sca_2703", suppressed=True
        )
        assert rows
        assert all("sca_2703" in row.citations for row in rows)


class TestPipelineOnALedgeredEngine:
    def test_each_ruling_is_written_once_in_both_modes(self):
        # The engine records every fresh ruling on the ledger it shares
        # with the pipeline, so the pipeline must not record it again.
        with Ledger(":memory:") as ledger:
            engine = ComplianceEngine(cache=RulingCache(), ledger=ledger)
            pipeline = InvestigationPipeline(
                engine=engine, ledger=ledger, run_label="t"
            )
            scenarios = build_table1()
            pipeline.run_all(scenarios, obtain_process=True)
            pipeline.run_all(scenarios, obtain_process=False)
            distinct = {action_fingerprint(s.action) for s in scenarios}
            assert ledger.stats.ruling_writes == len(distinct) == 16
            assert ledger.stats.ruling_duplicates == 0
            assert ledger.counts()["suppression_outcomes"] == 40


class TestWorkflowPersistence:
    def test_run_persists_custody_and_verdict(self):
        from repro.workflow.engine import WorkflowEngine
        from repro.workflow.packs import get_pack

        pack = get_pack("photo-recovery")
        with Ledger(":memory:") as ledger:
            subject = pack.build_subject(7, None)
            engine = WorkflowEngine(pack.build_spec(), ledger=ledger)
            result = engine.run(subject, seed=7)
            key = (
                f"workflow/{pack.build_spec().name}/"
                f"{subject.subject_id}/seed-7"
            )
            verdict = ledger.suppression_for(f"{key}/evidence")
            chain = ledger.custody_for(f"{key}/custody")
        assert result.status == "completed"
        assert verdict.outcome == "admissible"
        assert chain.entries == tuple(result.custody.entries)

    def test_resume_upserts_the_same_keys(self, tmp_path):
        from repro.workflow.engine import WorkflowEngine
        from repro.workflow.packs import get_pack

        pack = get_pack("photo-recovery")
        journal = tmp_path / "run.jsonl"
        with Ledger(":memory:") as ledger:
            engine = WorkflowEngine(pack.build_spec(), ledger=ledger)
            engine.run(pack.build_subject(7, None), seed=7,
                       journal_path=journal)
            first = ledger.counts()
            engine.resume(pack.build_subject(7, None), seed=7,
                          journal_path=journal)
            assert ledger.counts() == first


class TestChaosPersistence:
    def test_serial_sweep_persists_per_seed_namespaces(self):
        from repro.faults.chaos import run_chaos

        with Ledger(":memory:") as ledger:
            # Scenes 1 and 8 cover both classes (no-need and need), so
            # the sweep's suppression-split invariant stays meaningful.
            report = run_chaos(
                seed=7, n_plans=2, scenes="1,8", ledger=ledger
            )
            assert report.ok
            counts = ledger.counts()
            # 2 plans x 2 scenes x 2 modes
            assert counts["suppression_outcomes"] == 8
            assert (
                ledger.suppression_for(
                    "chaos/seed-8/scene-1/comply/evidence"
                )
                is not None
            )

    def test_ledger_forces_the_serial_path(self):
        """A ledger-bearing sweep must not fan out across processes."""
        from repro.faults.chaos import run_chaos

        with Ledger(":memory:") as ledger:
            report = run_chaos(
                seed=7,
                n_plans=2,
                scenes="1,8",
                max_workers=8,
                ledger=ledger,
            )
            assert report.ok
            assert ledger.counts()["rulings"] > 0


class TestLedgerCli:
    def test_populate_query_stats_prime_vacuum(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "case.db")
        assert main(["ledger", "populate", path, "--corpus", "200"]) == 0
        assert (
            main(
                [
                    "ledger",
                    "query",
                    path,
                    "--citing",
                    "sca_2703",
                    "--suppressed",
                    "--expect-rows",
                ]
            )
            == 0
        )
        assert main(["ledger", "stats", path, "--json"]) == 0
        assert (
            main(
                [
                    "ledger",
                    "prime",
                    path,
                    "--verify",
                    "--corpus",
                    "200",
                ]
            )
            == 0
        )
        assert main(["ledger", "vacuum", path]) == 0
        out = capsys.readouterr().out
        assert "0 mismatch(es)" in out

    def test_prime_verify_leaves_the_ledger_unchanged(self, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "case.db")
        assert main(["ledger", "populate", path]) == 0
        with Ledger(path) as ledger:
            before = ledger.counts()
        # A verify corpus the ledger has never seen: every miss would be
        # a new row if verifying recorded into the ledger.
        assert (
            main(["ledger", "prime", path, "--verify", "--corpus", "300"])
            == 0
        )
        with Ledger(path) as ledger:
            assert ledger.counts() == before

    def test_prime_verify_catches_a_dropped_privacy_step(
        self, tmp_path, capsys
    ):
        """Neither ``to_dict()`` nor ``explain()`` shows
        ``privacy.steps``; the complete encoding does."""
        import json
        import sqlite3

        from repro.cli import main
        from repro.ledger.serialize import canonical_json

        path = str(tmp_path / "case.db")
        assert main(["ledger", "populate", path, "--corpus", "300"]) == 0
        connection = sqlite3.connect(path)
        tampered = 0
        with connection:
            rows = connection.execute(
                "SELECT id, ruling_json FROM ruling_texts"
            ).fetchall()
            for row_id, text in rows:
                payload = json.loads(text)
                if payload["privacy"]["steps"]:
                    payload["privacy"]["steps"].pop()
                    connection.execute(
                        "UPDATE ruling_texts SET ruling_json = ? "
                        "WHERE id = ?",
                        (canonical_json(payload), row_id),
                    )
                    tampered += 1
        connection.close()
        assert tampered > 0
        assert (
            main(["ledger", "prime", path, "--verify", "--corpus", "300"])
            == 1
        )
        assert "LEDGER DIVERGENCE" in capsys.readouterr().out

    def test_a_tampered_text_row_is_never_reused(self, tmp_path):
        """The text is the dedupe key: once a stored text's bytes are
        edited, a fresh ruling with the original text gets its own row."""
        import json
        import sqlite3

        from repro.cli import main
        from repro.core.fingerprint import fingerprint_digest
        from repro.ledger.serialize import canonical_json, ruling_to_json

        path = tmp_path / "case.db"
        verify = action_corpus(300, seed=5)
        verify_fps = {action_fingerprint(a) for a in verify}
        fresh = ComplianceEngine()
        verify_texts = {
            fingerprint_digest(action_fingerprint(a)): ruling_to_json(
                fresh.evaluate(a)
            )
            for a in verify
        }
        # The ledger first holds fingerprints the verify corpus never
        # asks about; some of their texts are verify rulings' texts too.
        with Ledger(path) as ledger:
            ComplianceEngine(ledger=ledger).evaluate_many(
                [
                    a
                    for a in action_corpus(2000, seed=6)
                    if action_fingerprint(a) not in verify_fps
                ]
            )
        connection = sqlite3.connect(path)
        with connection:
            text_id, honest = next(
                (text_id, text)
                for text_id, text in connection.execute(
                    "SELECT id, ruling_json FROM ruling_texts ORDER BY id"
                )
                if text in set(verify_texts.values())
            )
            payload = json.loads(honest)
            payload["required_process"] = (
                "SEARCH_WARRANT"
                if payload["required_process"] != "SEARCH_WARRANT"
                else "NONE"
            )
            connection.execute(
                "UPDATE ruling_texts SET ruling_json = ? WHERE id = ?",
                (canonical_json(payload), text_id),
            )
        connection.close()

        with Ledger(path) as ledger:
            ComplianceEngine(ledger=ledger).evaluate_many(verify)
        connection = sqlite3.connect(path)
        try:
            stored = dict(
                connection.execute(
                    "SELECT r.fingerprint_digest, t.ruling_json FROM rulings r "
                    "JOIN ruling_texts t ON t.id = r.ruling_text_id"
                )
            )
            honest_ids = connection.execute(
                "SELECT id FROM ruling_texts WHERE ruling_json = ?", (honest,)
            ).fetchall()
        finally:
            connection.close()
        assert {d: stored[d] for d in verify_texts} == verify_texts
        assert len(honest_ids) == 1 and honest_ids[0][0] != text_id
        assert (
            main(
                [
                    "ledger", "prime", str(path), "--verify",
                    "--corpus", "300", "--seed", "5",
                ]
            )
            == 0
        )

    def test_query_missing_ledger_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["ledger", "query", str(tmp_path / "no.db")]) == 2
        assert "no ledger" in capsys.readouterr().out

    def test_expect_rows_fails_on_empty_match(self, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "case.db")
        assert main(["ledger", "populate", path]) == 0
        assert (
            main(
                [
                    "ledger",
                    "query",
                    path,
                    "--citing",
                    "no_such_authority",
                    "--expect-rows",
                ]
            )
            == 1
        )

    def test_fts_query_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "case.db")
        assert main(["ledger", "populate", path]) == 0
        assert (
            main(
                [
                    "ledger",
                    "query",
                    path,
                    "--fts",
                    '"probable cause"',
                    "--expect-rows",
                ]
            )
            == 0
        )

    def test_chaos_ledger_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "chaos.db")
        assert (
            main(
                [
                    "chaos",
                    "--budget",
                    "small",
                    "--scenes",
                    "1,8",
                    "--ledger",
                    path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ledger" in out
        assert main(["ledger", "stats", path]) == 0
