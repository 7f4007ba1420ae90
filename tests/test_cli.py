"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro import bench
from repro.cli import main
from server_process import child_env


class TestTable1:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "agreement: 20/20" in out


class TestScene:
    def test_known_scene(self, capsys):
        assert main(["scene", "18"]) == 0
        out = capsys.readouterr().out
        assert "Scene 18" in out
        assert "search warrant" in out

    def test_unknown_scene(self, capsys):
        assert main(["scene", "42"]) == 1
        assert "no scene 42" in capsys.readouterr().out


class TestAssess:
    @pytest.mark.parametrize(
        "technique,expected",
        [
            ("timing", "workable without process"),
            ("watermark", "court order"),
            ("hash-search", "search warrant"),
            ("mining", "no process"),
            ("credentials", "no process"),
            ("square-wave", "court order"),
            ("correlation", "court order"),
        ],
    )
    def test_each_technique(self, capsys, technique, expected):
        assert main(["assess", technique]) == 0
        assert expected in capsys.readouterr().out

    def test_unknown_technique(self, capsys):
        assert main(["assess", "teleportation"]) == 1
        assert "unknown technique" in capsys.readouterr().out


class TestStoryline:
    def test_ip_storyline(self, capsys):
        assert main(["storyline", "ip"]) == 0
        out = capsys.readouterr().out
        assert "SUCCESS" in out

    def test_crist_storyline_fails(self, capsys):
        assert main(["storyline", "ip-crist"]) == 0
        assert "FAILED" in capsys.readouterr().out

    def test_wm2_storyline(self, capsys):
        assert main(["storyline", "wm2"]) == 0
        assert "SUCCESS" in capsys.readouterr().out

    def test_unknown_storyline(self, capsys):
        assert main(["storyline", "heist"]) == 1
        assert "unknown storyline" in capsys.readouterr().out


class TestReference:
    def test_reference_renders(self, capsys):
        assert main(["reference"]) == 0
        out = capsys.readouterr().out
        assert out.count("Scene ") == 20
        assert "authorities:" in out


class TestCurve:
    def test_curve_renders(self, capsys):
        assert main(["curve", "--cases", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "p=1.00: 100.0%" in out
        assert "p=0.00" in out


class TestAuthorities:
    def test_listing(self, capsys):
        assert main(["authorities"]) == 0
        out = capsys.readouterr().out
        assert "katz" in out
        assert "Katz v. United States" in out

    def test_verbose_includes_holdings(self, capsys):
        assert main(["authorities", "-v"]) == 0
        assert "reasonable expectation of privacy" in capsys.readouterr().out


#: Every section whose top-level ``ok`` the bench gates on.
GATED_BENCH_SECTIONS = (
    "table1",
    "chaos",
    "differential",
    "obs_overhead",
    "cold_floor",
    "dsss",
    "square_wave",
    "flow_correlation",
    "visibility",
    "campaign",
    "conclusions",
)


class TestBench:
    def test_quick_bench_writes_report(self, capsys, tmp_path, monkeypatch):
        # 200 actions sits below the size the cold-floor and obs-overhead
        # ratio gates are enforced at (a few ms per timed side cannot
        # resolve a 3-5% ratio); CI's bench-smoke job runs them at size.
        monkeypatch.setattr(bench, "QUICK_CORPUS_SIZE", 200)
        out = tmp_path / "BENCH_engine.json"
        code = main(["bench", "--quick", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "speedup (hot vs uncached)" in text
        assert "differential: 200 actions, 0 mismatches" in text

        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["ok"] is True
        assert {
            name
            for name, section in report.items()
            if isinstance(section, dict) and "ok" in section
        } == set(GATED_BENCH_SECTIONS)
        assert report["meta"]["cpu_count"] == os.cpu_count()
        assert report["differential"]["identical"] is True
        assert report["differential"]["second_pass_hit_rate"] > 0
        assert report["table1"]["agreement"] == "20/20"
        assert report["corpus"]["speedup_hot"] > 1.0
        assert (
            report["latency"]["cached_hot"]["p50_us"]
            <= report["latency"]["uncached"]["p99_us"]
        )
        for name in ("dsss", "square_wave", "flow_correlation", "visibility"):
            assert report[name]["ok"] is True, name
        assert report["campaign"]["ok"] is True
        conclusions = report["conclusions"]
        assert conclusions["table1"]["agreement"] == "20/20"
        assert conclusions["section_iv_a"]["required_process"] == "NONE"
        assert conclusions["section_iv_a"]["identified_sources"] == [
            "direct-source"
        ]
        assert conclusions["section_iv_b"]["required_process"] == "COURT_ORDER"

    @pytest.mark.parametrize("failing", GATED_BENCH_SECTIONS)
    def test_any_failing_gate_fails_the_run(
        self, capsys, tmp_path, monkeypatch, failing
    ):
        def stub(name):
            if name not in GATED_BENCH_SECTIONS:
                return lambda run: {}
            return lambda run: {"ok": name != failing}

        monkeypatch.setattr(
            bench,
            "SECTIONS",
            tuple(
                (name, stub(name), lambda section: "")
                for name, _, _ in bench.SECTIONS
            ),
        )
        out = tmp_path / "BENCH_engine.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 1
        assert json.loads(out.read_text(encoding="utf-8"))["ok"] is False
        assert "overall: FAIL" in capsys.readouterr().out


class TestServe:
    @pytest.mark.parametrize("flag", ["--shards", "--cache-size"])
    def test_zero_size_fails_cleanly_before_the_ledger_opens(
        self, capsys, tmp_path, flag
    ):
        ledger = tmp_path / "y.db"
        argv = ["serve", flag, "0", "--ledger", str(ledger)]
        assert main([*argv, "--port", "0", "--metrics-port", "0"]) == 1
        assert f"{flag} must be >= 1" in capsys.readouterr().out
        assert not ledger.exists()

    def test_importing_the_cli_leaves_the_investigation_stack_out(self):
        # Only table1, assess and the other investigation commands need
        # numpy and the techniques; serve must start without them.
        probe = (
            "import sys, repro.cli; "
            "print(sorted({'numpy', 'repro.investigation'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            env=child_env(),
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestParser:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestMetrics:
    def test_metrics_renders_non_empty_exposition(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_evaluations_total counter" in out
        assert "repro_ruling_cache_hits" in out
        assert "repro_engine_evaluate_seconds_bucket" in out


class TestTrace:
    def test_audit_correlates_every_gated_acquisition(self, capsys):
        assert main(["trace", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "20 acquisition span(s), 0 unauthorized" in out
        assert "authorized by" in out
        assert "docket #" in out

    def test_audit_flags_non_complying_run(self, capsys):
        assert main(["trace", "--audit", "--no-comply"]) == 1
        assert "9 unauthorized" in capsys.readouterr().out

    def test_jsonl_to_stdout(self, capsys):
        import json

        assert main(["trace"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert any(r["name"] == "pipeline.acquisition" for r in records)

    def test_chrome_export_to_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(["trace", "--chrome", "--out", str(out)]) == 0
        trace = json.loads(out.read_text(encoding="utf-8"))
        assert trace["traceEvents"]
        assert {e["ph"] for e in trace["traceEvents"]} <= {"X", "i"}


class TestTraceOut:
    def test_chaos_trace_out_carries_fault_events(self, tmp_path, capsys):
        import json

        out = tmp_path / "chaos.jsonl"
        code = main(
            [
                "chaos", "--seed", "7", "--budget", "small",
                "--scenes", "1,5,18", "--trace-out", str(out),
            ]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in out.read_text(encoding="utf-8").splitlines()
        ]
        assert any(r["name"] == "chaos.plan" for r in records)
        assert any(r["name"] == "fault.log" for r in records)

    def test_curve_trace_out_writes_case_spans(self, tmp_path, capsys):
        import json

        out = tmp_path / "curve.jsonl"
        code = main(
            ["curve", "--cases", "6", "--trace-out", str(out)]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in out.read_text(encoding="utf-8").splitlines()
        ]
        assert any(r["name"] == "campaign.case" for r in records)


class TestWorkflow:
    def test_run_completes_and_reports(self, capsys, tmp_path):
        journal = tmp_path / "j.jsonl"
        code = main(
            [
                "workflow",
                "run",
                "photo-recovery",
                "--seed",
                "7",
                "--journal",
                str(journal),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "status=completed" in out
        assert "workflow report: photo-recovery" in out
        assert journal.exists()

    def test_crash_then_resume_roundtrip(self, capsys, tmp_path):
        journal = tmp_path / "j.jsonl"
        code = main(
            [
                "workflow",
                "run",
                "mailstore-triage",
                "--journal",
                str(journal),
                "--fault-plan",
                "crash-after-record=3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "crashed" in out
        assert "resume" in out

        code = main(
            [
                "workflow",
                "resume",
                "mailstore-triage",
                "--journal",
                str(journal),
                "-q",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "status=completed" in out
        assert "RESUMED" in out

    def test_unknown_pack_lists_choices(self, capsys):
        assert main(["workflow", "run", "nope"]) == 2
        out = capsys.readouterr().out
        assert "photo-recovery" in out
        assert "mailstore-triage" in out

    def test_bad_fault_plan_rejected(self, capsys):
        code = main(
            [
                "workflow",
                "run",
                "photo-recovery",
                "--fault-plan",
                "bogus-token=1",
            ]
        )
        assert code == 2

    def test_resume_without_journal_fails_cleanly(self, capsys, tmp_path):
        code = main(
            [
                "workflow",
                "resume",
                "photo-recovery",
                "--journal",
                str(tmp_path / "missing.jsonl"),
            ]
        )
        assert code == 2
        assert "cannot resume" in capsys.readouterr().out

    def test_batch_runs_independent_items(self, capsys, tmp_path):
        code = main(
            [
                "workflow",
                "run",
                "mailstore-triage",
                "--items",
                "2",
                "--seed",
                "40",
                "--workers",
                "1",
                "--journal-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "items=2" in out
        assert (tmp_path / "mailstore-triage-seed40.jsonl").exists()
        assert (tmp_path / "mailstore-triage-seed41.jsonl").exists()

    def test_verify_resume_gate_passes(self, capsys, tmp_path):
        code = main(
            [
                "workflow",
                "verify-resume",
                "--pack",
                "mailstore-triage",
                "--seed",
                "5",
                "--chaos",
                "2",
                "--workdir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: OK" in out
        assert "boundary check(s)" in out
