"""Ledger durability across the life and death of a real server process.

Each test spawns ``python -m repro serve --ledger X`` as a child process
and talks NDJSON to it over loopback.  The server commits every request
before it answers, so any ruling a client has read must be on file, and
byte-identical to what was served, however the process ends:

* SIGKILL mid-pipeline: the reopened ledger holds every answered
  ruling, passes ``PRAGMA integrity_check`` and ``repro ledger prime
  --verify``.
* SIGTERM: a graceful stop leaves one self-contained file, with no
  journal side files, that a plain copy of the ``.db`` reproduces.
"""

import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys

from repro.core.fingerprint import action_fingerprint
from repro.ledger.serialize import ruling_to_json
from repro.ledger.store import Ledger
from repro.workloads import action_corpus
from server_process import ServerProcess, child_env

#: Corpus seed shared with ``repro ledger prime --verify``'s default, so
#: the verify pass re-rules actions the killed server recorded.
SEED = 7
BATCH = 16


def _batches(n_requests: int) -> list:
    corpus = action_corpus(n_requests * BATCH, seed=SEED)
    return [corpus[i : i + BATCH] for i in range(0, len(corpus), BATCH)]


def _answered(client, batches, request_ids) -> dict:
    """fingerprint -> served ruling text for the given requests' responses."""
    served = {}
    for request_id in request_ids:
        response = client.read_response()
        assert response["id"] == request_id and response["ok"], response
        for action, ruling in zip(batches[request_id], response["rulings"]):
            served[action_fingerprint(action)] = json.dumps(
                ruling, sort_keys=True, separators=(",", ":"),
                ensure_ascii=False,
            )
    return served


def test_sigkill_mid_pipeline_keeps_every_answered_ruling(tmp_path):
    ledger_path = tmp_path / "killed.db"
    batches = _batches(60)
    with ServerProcess(ledger_path, tmp_path / "server.stderr") as server:
        with server.client() as client:
            served = {}
            for request_id in range(20):
                client.send_rule(request_id, batches[request_id])
                served.update(_answered(client, batches, [request_id]))
            for request_id in range(20, 60):
                client.send_rule(request_id, batches[request_id])
            # Read part of the pipeline; the rest is in flight at the kill.
            served.update(_answered(client, batches, range(20, 45)))
            assert server.end(signal.SIGKILL) == -signal.SIGKILL

    with Ledger(ledger_path) as ledger:
        missing = [fp for fp in served if ledger.ruling_for(fp) is None]
        assert missing == []
        for fingerprint, text in served.items():
            assert ruling_to_json(ledger.ruling_for(fingerprint)) == text
        check = ledger._db.execute("PRAGMA integrity_check").fetchall()
        assert [row[0] for row in check] == ["ok"]
    verify = subprocess.run(
        [
            sys.executable, "-m", "repro", "ledger", "prime",
            str(ledger_path), "--verify", "--corpus", str(60 * BATCH),
            "--seed", str(SEED),
        ],
        capture_output=True,
        env=child_env(),
        timeout=300,
    )
    assert verify.returncode == 0, verify.stdout + verify.stderr
    assert b" 0 mismatch(es)" in verify.stdout


def test_sigterm_leaves_one_self_contained_file(tmp_path):
    ledger_path = tmp_path / "stopped.db"
    batches = _batches(12)
    with ServerProcess(ledger_path, tmp_path / "server.stderr") as server:
        with server.client() as client:
            for request_id, batch in enumerate(batches):
                client.send_rule(request_id, batch)
            served = _answered(client, batches, range(len(batches)))
        assert server.end(signal.SIGTERM) == 0

    for suffix in ("-wal", "-shm", "-journal"):
        assert not os.path.exists(f"{ledger_path}{suffix}"), suffix
    copy = tmp_path / "copy.db"
    shutil.copyfile(ledger_path, copy)
    connection = sqlite3.connect(copy)
    try:
        rows = connection.execute("SELECT COUNT(*) FROM rulings").fetchone()
    finally:
        connection.close()
    assert rows[0] == len(served)
