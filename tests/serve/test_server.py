"""End-to-end server tests over real sockets on ephemeral loopback ports."""

import json
import sqlite3
import time
import urllib.request

import pytest

from repro.core.cache import INTERN_MAX, RulingCache
from repro.core.engine import ComplianceEngine
from repro.core.fingerprint import action_fingerprint, fingerprint_digest
from repro.ledger.serialize import (
    canonical_json,
    ruling_to_dict,
    ruling_to_json,
)
from repro.ledger.store import Ledger
from repro.serve.client import ServeClient
from repro.serve.harness import ServerThread
from repro.serve.protocol import (
    MAX_BATCH_ACTIONS,
    MAX_LINE_BYTES,
    action_to_dict,
    encode_line,
)
from repro.serve.server import ServerConfig
from repro.serve.shard import Shard
from repro.workloads import action_corpus


def _config(**overrides) -> ServerConfig:
    base = {"port": 0, "metrics_port": 0, "n_shards": 4}
    base.update(overrides)
    return ServerConfig(**base)


def _reference_strings(corpus) -> list[str]:
    engine = ComplianceEngine(cache=RulingCache(maxsize=2 * len(corpus)))
    return [
        canonical_json(ruling_to_dict(r))
        for r in engine.evaluate_many(corpus)
    ]


class TestOps:
    def test_ping_stats_and_rule(self):
        corpus = action_corpus(120, seed=31)
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                assert client.ping() == {"ok": True, "pong": True}

                response = client.rule(corpus, request_id=7)
                assert response["ok"] and response["id"] == 7
                served = [
                    canonical_json(r) for r in response["rulings"]
                ]
                assert served == _reference_strings(corpus)

                stats = client.stats()["stats"]
                assert stats["n_shards"] == 4
                assert sum(
                    s["actions_ruled"] for s in stats["shards"]
                ) == len(corpus)
                # The intern table is process-wide, so other servers in
                # this process may have filled it too.
                assert 1 <= stats["interned_rulings"] <= INTERN_MAX
                memo = stats["rule_memo"]
                assert set(memo) == {
                    "privacy", "fourth_amendment", "wiretap", "sca",
                    "pentrap", "exceptions", "statutory_exceptions",
                    "combine",
                }
                assert all(1 <= keys for keys in memo.values())

    def test_connection_survives_request_level_errors(self):
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                client._sock.sendall(b"{not json\n")
                assert client.read_response()["ok"] is False
                client._sock.sendall(b"[" * 100_000 + b"\n")
                assert client.read_response()["ok"] is False
                client._sock.sendall(b"\xff\xfe\n")
                response = client.read_response()
                assert response["ok"] is False
                assert "not UTF-8" in response["error"]

                client.send_line({"op": "nope", "id": 1})
                response = client.read_response()
                assert response["ok"] is False
                assert "unknown op" in response["error"]

                client.send_line(
                    {"op": "rule", "id": 2, "actions": [{"bad": True}]}
                )
                response = client.read_response()
                assert response["ok"] is False and response["id"] == 2

                client.send_line({"op": "rule", "id": 3, "actions": "x"})
                assert client.read_response()["ok"] is False

                # The connection is still healthy after all of that.
                assert client.ping()["ok"] is True

    def test_a_wrongly_typed_flag_is_refused_by_name_and_counted(self):
        corpus = action_corpus(2, seed=33)
        payload = [action_to_dict(a) for a in corpus]
        payload[1]["context"]["encrypted"] = "false"
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                client.send_line({"op": "rule", "id": 4, "actions": payload})
                response = client.read_response()
                assert response["ok"] is False and response["id"] == 4
                assert "context.encrypted must be true or false" in (
                    response["error"]
                )
                # The same batch with a real flag is ruled as usual.
                payload[1]["context"]["encrypted"] = False
                client.send_line({"op": "rule", "id": 5, "actions": payload})
                assert client.read_response()["ok"] is True
                _status, text = _get(thread.metrics_address, "/metrics")
        assert 'repro_serve_errors_total{reason="bad_field_type"} 1' in text
        assert 'reason="bad_action"' not in text

    def test_batch_cap_is_enforced(self):
        corpus = action_corpus(3, seed=32)
        over_cap = [action_to_dict(corpus[0])] * (MAX_BATCH_ACTIONS + 1)
        # The refused batch still fits one request frame, so it is the
        # action cap that answers, not the framing bound.
        assert len(
            encode_line({"op": "rule", "id": 9, "actions": over_cap})
        ) < MAX_LINE_BYTES
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                client.send_line({"op": "rule", "id": 9, "actions": over_cap})
                response = client.read_response()
                assert response["ok"] is False and response["id"] == 9
                assert "exceeds cap" in response["error"]
                assert client.rule(corpus, request_id=10)["ok"]


class TestPipeliningAndBackpressure:
    def test_pipelined_responses_arrive_in_request_order(self):
        corpus = action_corpus(600, seed=33)
        batches = [corpus[i : i + 60] for i in range(0, 600, 60)]
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                for index, batch in enumerate(batches):
                    client.send_rule(index, batch)
                for index, batch in enumerate(batches):
                    response = client.read_response()
                    assert response["id"] == index
                    assert len(response["rulings"]) == len(batch)

    def test_unread_pipelined_batches_are_all_answered_in_order(self):
        corpus = action_corpus(800, seed=34)
        batches = [corpus[i : i + 40] for i in range(0, 800, 40)]
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                # All 20 requests go out before any response is read.
                for index, batch in enumerate(batches):
                    client.send_rule(index, batch)
                answered = [client.read_response() for _ in batches]
        assert all(r["ok"] for r in answered)
        assert [r["id"] for r in answered] == list(range(len(batches)))
        served = [canonical_json(r) for a in answered for r in a["rulings"]]
        assert served == _reference_strings(corpus)


def _half_line_then_close(client, corpus) -> list:
    client._sock.sendall(b'{"op": "rule", "id": 1, "actio')
    return []


def _garbage_between_rules(client, corpus) -> list:
    client.send_rule(0, corpus[:5])
    client._sock.sendall(b"\x00garbage\n")
    client.send_rule(1, corpus[5:])
    return [client.read_response() for _ in range(3)]


def _rules_then_close_unread(client, corpus) -> list:
    for request_id in range(3):
        client.send_rule(request_id, corpus)
    return []


def _metrics_once_idle(address, timeout=10.0) -> str:
    """Scrape ``/metrics`` until every NDJSON connection has closed."""
    deadline = time.monotonic() + timeout
    while True:
        _status, text = _get(address, "/metrics")
        if "repro_serve_connections 0" in text:
            return text
        assert time.monotonic() < deadline, "connections never drained"
        time.sleep(0.02)


class TestHostileConnection:
    """Whatever one connection does, the server keeps serving others."""

    @pytest.mark.parametrize(
        "attack, bad_frames",
        [
            (_half_line_then_close, 1),
            (_garbage_between_rules, 1),
            (_rules_then_close_unread, 0),
        ],
        ids=["half-line", "garbage-between-rules", "close-unread"],
    )
    def test_server_recovers_from_a_hostile_connection(
        self, attack, bad_frames
    ):
        corpus = action_corpus(30, seed=44)
        reference = _reference_strings(corpus)
        with ServerThread(_config()) as thread:
            with ServeClient(*thread.address) as client:
                answered = attack(client, corpus)
            if answered:
                # The garbage's error sits in its own slot, in order.
                assert [r["ok"] for r in answered] == [True, False, True]
                assert answered[0]["id"] == 0 and answered[2]["id"] == 1
                assert answered[1]["id"] is None
                served = [
                    canonical_json(r)
                    for r in answered[0]["rulings"] + answered[2]["rulings"]
                ]
                assert served == reference

            with ServeClient(*thread.address) as client:
                response = client.rule(corpus, request_id="fresh")
            assert [
                canonical_json(r) for r in response["rulings"]
            ] == reference
            text = _metrics_once_idle(thread.metrics_address)
        marker = 'repro_serve_errors_total{reason="bad_frame"}'
        if bad_frames:
            assert f"{marker} {bad_frames}" in text
        else:
            assert marker not in text


class TestDifferential:
    def test_10k_corpus_server_vs_inprocess_byte_identical(self):
        corpus = action_corpus(10_000, seed=7)
        batches = [
            corpus[i : i + 500] for i in range(0, len(corpus), 500)
        ]
        served: list[str] = []
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                for index, batch in enumerate(batches):
                    client.send_rule(index, batch)
                for index, _batch in enumerate(batches):
                    response = client.read_response()
                    assert response["ok"] and response["id"] == index
                    served.extend(
                        canonical_json(r) for r in response["rulings"]
                    )
        assert served == _reference_strings(corpus)


def _get(address, path):
    host, port = address
    request = urllib.request.Request(f"http://{host}:{port}{path}")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestMetricsEndpoint:
    def test_metrics_healthz_and_404(self):
        corpus = action_corpus(400, seed=36)
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                client.rule(corpus)
                client.rule(corpus)

                # Scrape while the connection is still open: the gauge
                # value is deterministic (disconnects are noticed
                # asynchronously, so scraping after close would race).
                status, text = _get(
                    thread.metrics_address, "/metrics"
                )
            assert status == 200
            for marker in (
                'repro_ruling_cache_hits{cache="shard0"}',
                'repro_ruling_cache_hits{cache="shard3"}',
                "repro_serve_requests_total",
                "repro_serve_actions_total 800",
                'repro_serve_shard_actions_total{shard="0"}',
                "repro_serve_ruling_seconds_bucket",
                "repro_serve_ruling_seconds_count 2",
                "repro_serve_round_trip_seconds_bucket",
                "repro_serve_round_trip_seconds_count 2",
                "repro_serve_connections 1",
                "repro_ruling_intern_entries",
                'repro_rule_memo_entries{rule="privacy"}',
                'repro_rule_memo_entries{rule="combine"}',
            ):
                assert marker in text, marker

            assert _get(thread.metrics_address, "/healthz") == (
                200,
                "ok\n",
            )
            status, _text = _get(thread.metrics_address, "/nope")
            assert status == 404


    def test_bogus_ops_add_one_series(self):
        # 2,000 distinct ops from untrusted input, three of them not
        # even strings, all land in the one op="unknown" series.
        ops = [f"bogus-{n}" for n in range(1997)] + [None, 7, ["rule"]]

        def series(text):
            return {
                line.rsplit(" ", 1)[0]
                for line in text.splitlines()
                if line.startswith("repro_serve_requests_total{")
            }

        with ServerThread(_config()) as thread:
            with ServeClient(*thread.address) as client:
                assert client.ping()["ok"] is True
                _status, before = _get(thread.metrics_address, "/metrics")
                for n, op in enumerate(ops):
                    client.send_line({"op": op, "id": n})
                    assert client.read_response()["ok"] is False
                _status, after = _get(thread.metrics_address, "/metrics")
        unknown = 'repro_serve_requests_total{op="unknown"}'
        assert series(before) == {'repro_serve_requests_total{op="ping"}'}
        assert series(after) - series(before) == {unknown}
        assert f"{unknown} 2000" in after
        assert 'repro_serve_errors_total{reason="unknown_op"} 2000' in after


def _fail_first_call(monkeypatch, owner, name, exc, after_real_call):
    """Make ``owner.name`` raise ``exc`` once, then behave normally.

    With ``after_real_call`` the real method runs first, so whatever it
    wrote is pending when the failure hits.
    """
    real = getattr(owner, name)
    calls = []

    def failing(self, *args):
        calls.append(name)
        if len(calls) > 1:
            return real(self, *args)
        if after_real_call:
            real(self, *args)
        raise exc

    monkeypatch.setattr(owner, name, failing)
    return calls


def _fingerprints(corpus) -> set:
    return {action_fingerprint(action) for action in corpus}


def _ledger_rows(path) -> int:
    with Ledger(path) as ledger:
        return ledger.counts()["rulings"]


#: A commit fault (rows pending) and a shard fault after its rulings
#: were recorded.
_BATCH_FAULTS = pytest.mark.parametrize(
    "owner, name, exc, after_real_call",
    [
        (
            Ledger,
            "commit",
            sqlite3.OperationalError("database is locked"),
            False,
        ),
        (Shard, "evaluate_many", RuntimeError("shard fault"), True),
    ],
    ids=["ledger-commit", "shard-evaluate"],
)


class TestBatchFailure:
    """The contract: the request fails, the server carries on, and
    nothing partial is persisted."""

    @pytest.mark.parametrize("n_shards", [1, 4])
    @_BATCH_FAULTS
    def test_failed_batch_answers_an_error_and_the_shard_carries_on(
        self, monkeypatch, tmp_path, owner, name, exc, after_real_call, n_shards
    ):
        path = str(tmp_path / "serve.sqlite")
        failing = action_corpus(80, seed=39)
        following = action_corpus(80, seed=40)
        expected = encode_line(
            {
                "id": 2,
                "ok": True,
                "rulings": [
                    json.loads(text) for text in _reference_strings(following)
                ],
            }
        )
        config = _config(n_shards=n_shards, ledger_path=path)
        with ServerThread(config) as thread:
            calls = _fail_first_call(
                monkeypatch, owner, name, exc, after_real_call
            )
            host, port = thread.address
            with ServeClient(host, port) as client:
                failed = client.rule(failing, request_id=1)
                assert failed["ok"] is False and failed["id"] == 1
                assert failed["error"].startswith("internal: ")

                client.send_rule(2, following)
                assert client._reader.readline() == expected
                # Nothing of the failed request was persisted, on any
                # shard.
                assert _ledger_rows(path) == len(_fingerprints(following))

                # Its rulings are recomputed, and recorded, when asked
                # again: no shard kept serving cached rulings whose rows
                # were rolled back.
                assert client.rule(failing, request_id=3)["ok"] is True
                _status, text = _get(thread.metrics_address, "/metrics")
            # The failed request made one call; each later request makes
            # one commit, or one call per shard it touches.
            later = 2
            if name == "evaluate_many":
                later = sum(
                    1
                    for corpus in (following, failing)
                    for positions in thread.server.router.partition(corpus)
                    if positions
                )
            assert calls == [name] * (1 + later)
        assert 'repro_serve_errors_total{reason="internal"} 1' in text
        assert "repro_serve_ruling_seconds_count 2" in text
        assert "repro_serve_round_trip_seconds_count 2" in text
        assert "repro_serve_connections 1" in text
        assert _ledger_rows(path) == len(
            _fingerprints(failing) | _fingerprints(following)
        )

    @_BATCH_FAULTS
    def test_a_failed_request_never_leaves_a_stale_text_id(
        self, monkeypatch, tmp_path, owner, name, exc, after_real_call
    ):
        """The failed request inserted new ruling_texts rows that the
        rollback removed.  The next request needing those rulings must
        insert them again, not point at ids the rollback freed."""
        path = str(tmp_path / "serve.sqlite")
        failing = action_corpus(60, seed=41)
        seen = _fingerprints(failing)
        following = [
            a
            for a in action_corpus(400, seed=42)
            if action_fingerprint(a) not in seen
        ]
        engine = ComplianceEngine()
        expected = {
            fingerprint_digest(action_fingerprint(a)): ruling_to_json(
                engine.evaluate(a)
            )
            for a in following
        }
        failed_texts = {ruling_to_json(engine.evaluate(a)) for a in failing}
        assert failed_texts & set(expected.values())
        config = _config(n_shards=1, ledger_path=path)
        with ServerThread(config) as thread:
            _fail_first_call(monkeypatch, owner, name, exc, after_real_call)
            host, port = thread.address
            with ServeClient(host, port) as client:
                assert client.rule(failing, request_id=1)["ok"] is False
                assert client.rule(following, request_id=2)["ok"] is True
        connection = sqlite3.connect(path)
        try:
            stored = dict(
                connection.execute(
                    "SELECT r.fingerprint_digest, t.ruling_json FROM rulings r "
                    "JOIN ruling_texts t ON t.id = r.ruling_text_id"
                )
            )
            (texts,) = connection.execute(
                "SELECT COUNT(*) FROM ruling_texts"
            ).fetchone()
            check = connection.execute("PRAGMA foreign_key_check").fetchall()
        finally:
            connection.close()
        assert check == []
        assert stored == expected
        assert texts == len(set(expected.values()))


class TestLedgerIntegration:
    def test_prime_warms_every_shard_from_the_ledger(self, tmp_path):
        path = str(tmp_path / "serve.sqlite")
        corpus = action_corpus(500, seed=37)

        with ServerThread(_config(ledger_path=path)) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                client.rule(corpus)
                client.rule(corpus[:50])
            _status, text = _get(thread.metrics_address, "/metrics")
        written = len(_fingerprints(corpus))
        for marker in (
            f'repro_ledger_ruling_writes{{ledger="serve"}} {written}',
            'repro_ledger_ruling_duplicates{ledger="serve"} 0',
            'repro_ledger_primed_rulings{ledger="serve"} 0',
        ):
            assert marker + "\n" in text, marker

        config = _config(ledger_path=path, prime=True)
        with ServerThread(config) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                stats = client.stats()["stats"]
                assert stats["primed_rulings"] == written
                _status, text = _get(thread.metrics_address, "/metrics")
                assert (
                    f'repro_ledger_primed_rulings{{ledger="serve"}} {written}\n'
                    in text
                )
                assert 'repro_ledger_ruling_writes{ledger="serve"} 0\n' in text
                response = client.rule(corpus)
                assert [
                    canonical_json(r) for r in response["rulings"]
                ] == _reference_strings(corpus)
                stats = client.stats()["stats"]
                # Every ruling was served from a primed cache entry.
                assert stats["cache_misses"] == 0
                assert stats["cache_hits"] == len(corpus)

    def test_prime_without_ledger_is_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(prime=True)


class TestResponseEncoding:
    def test_memoized_response_equals_direct_encoding(self):
        corpus = action_corpus(200, seed=38)
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                first = client.rule(corpus, request_id="a")
                second = client.rule(corpus, request_id="a")
        # Hot (memoized) responses must be byte-identical to cold ones.
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
