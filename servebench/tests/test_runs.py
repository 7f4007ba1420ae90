"""Whole runs against a real server process, with tiny sizes."""

import json

import pytest

from servebench import bench, inputs, run
from servebench.bench import END_TO_END, PER_LAYER, run_workload


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, tiny, tmp_path):
    result, record = run_workload(
        workload, 3, 1.0, True, run.SRC, str(tmp_path), sizes=tiny
    )
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in PER_LAYER]
    assert set(record["end_to_end"]) >= {name for name, _, _ in END_TO_END}
    layers = {name: entry["value"] for name, entry in result["metrics"].items()}
    if workload == "serve_hot":
        assert layers["cache.hit_ratio"] == 1.0
    if workload == "serve_cold":
        assert layers["cache.hit_ratio"] == 0.0
        assert layers["cache.evictions"] > 0
    if workload == "serve_ledger":
        for phase in record["phases"]:
            ledger = phase["ledger"]
            assert ledger["rows_after"] == ledger["rows_expected"]
        assert layers["ledger.rows_written"] > 0
        assert layers["ledger.record_us"] > 0


def test_corrupt_expected_line_fails_the_run(tiny, tmp_path, monkeypatch, capsys):
    build = inputs.build_inputs

    def corrupted(*args, **kwargs):
        made = build(*args, **kwargs)
        made.expected[1] = made.expected[1].replace(b'"ok":true', b'"ok":false')
        return made

    monkeypatch.setattr(inputs, "build_inputs", corrupted)
    monkeypatch.setattr(bench, "Sizes", lambda: tiny)
    monkeypatch.setattr(run, "STATE_DIR", str(tmp_path))
    code = run.main(
        ["--workload", "serve_cold", "--seed", "3", "--seconds", "1", "--trace", "0"]
    )
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]
    assert set(result["metrics"]) == {name for name, _, _ in END_TO_END}
