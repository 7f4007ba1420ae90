"""``repro serve-bench``: the live-server byte-identity gate."""

import json

from repro.cli import main
from repro.core.engine import ComplianceEngine
from repro.ledger.serialize import ruling_to_json
from repro.serve.bench import _paper_conclusions, run_serve_bench
from repro.serve.server import RulingServer
from repro.workloads import paper_corpus


def test_quick_spawned_run_diffs_both_replays(tmp_path):
    out = tmp_path / "serve.json"
    report, ok = run_serve_bench(quick=True, out=str(out))
    assert ok and report["ok"]
    differential = report["differential"]
    assert differential["compared"] == 2 * 5_000
    assert differential["mismatches"] == 0
    assert differential["replays"] == {
        "cold": {"compared": 5_000, "mismatches": 0},
        "hot": {"compared": 5_000, "mismatches": 0},
    }
    assert report["metrics_endpoint"]["checked"] is True
    assert report["metrics_endpoint"]["ok"] is True
    assert report["paper"] == {
        "actions": len(paper_corpus()),
        "table1": "20/20",
        "iv_a": "NONE",
        "iv_b": "COURT_ORDER",
        "ok": True,
    }
    assert json.loads(out.read_text()) == report


def _served_paper_rulings():
    corpus = paper_corpus()
    engine = ComplianceEngine()
    return corpus, [ruling_to_json(engine.evaluate(a)) for _, a in corpus]


def _with_process(text, name):
    ruling = json.loads(text)
    ruling["required_process"] = name
    return json.dumps(ruling)


def test_the_paper_check_reads_every_conclusion_from_the_served_rulings():
    corpus, served = _served_paper_rulings()
    assert _paper_conclusions(corpus, served)["ok"] is True
    sections = [section for section, _ in corpus]
    first_iv_a, first_iv_b = sections.index("iv_a"), sections.index("iv_b")
    wrong = {
        "table1": (0, "SEARCH_WARRANT"),
        "iv_a": (first_iv_a, "COURT_ORDER"),
        "iv_b": (first_iv_b, "WARRANT"),  # no process kind: ranks first
    }
    for key, (index, name) in wrong.items():
        tampered = list(served)
        tampered[index] = _with_process(served[index], name)
        conclusions = _paper_conclusions(corpus, tampered)
        assert conclusions["ok"] is False, key
    assert _paper_conclusions(corpus, served[:-1])["ok"] is False


def test_a_tampered_hot_replay_fails_the_gate(monkeypatch):
    # The quick corpus is 20 requests per replay, so every response
    # after the 20th belongs to the hot (cache-warm) replay.
    honest = RulingServer._encode_rule_response
    answered = []

    def tampered(self, request_id, rulings):
        body = honest(self, request_id, rulings)
        answered.append(request_id)
        if len(answered) > 20:
            body = body.replace(b'"NONE"', b'"WARRANT"', 1)
        return body

    monkeypatch.setattr(RulingServer, "_encode_rule_response", tampered)
    report, ok = run_serve_bench(quick=True, out=None)
    assert ok is False and report["ok"] is False
    replays = report["differential"]["replays"]
    assert replays["cold"]["mismatches"] == 0
    assert replays["hot"]["mismatches"] > 0


def test_connect_without_a_port_names_the_expected_form(capsys, tmp_path):
    out = tmp_path / "serve.json"
    argv = ["serve-bench", "--quick", "--connect", "127.0.0.1"]
    assert main([*argv, "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith("serve-bench failed: ")
    assert "HOST:PORT" in printed and "'127.0.0.1'" in printed
    assert not out.exists()
