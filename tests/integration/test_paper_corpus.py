"""The paper's own conclusions, pinned per action and ruled in each mode.

``tests/data/golden_paper_corpus.json`` holds, for every action of
:func:`repro.workloads.paper_corpus` (Table 1, then sections IV.A and
IV.B), the SHA-256 of its canonical ruling text and its required
process.  Each execution mode below must reproduce every digest, and
with them the paper's conclusions: Table 1 at 20/20, IV.A needing no
process and IV.B a court order.  A changed ruling byte therefore shows
up as a reviewed golden diff.

Regenerate after an intentional rule change::

    PYTHONPATH=src python tests/integration/test_paper_corpus.py
"""

import hashlib
import json
import signal
import tempfile
from pathlib import Path

import pytest

from repro.core import ComplianceEngine, RulingCache, build_table1
from repro.core.enums import ProcessKind
from repro.core.fingerprint import action_fingerprint
from repro.ledger import Ledger
from repro.ledger.serialize import canonical_json, ruling_to_json
from repro.parallel import ordered_map
from repro.serve.client import ServeClient
from repro.serve.harness import ServerThread
from repro.serve.server import ServerConfig
from repro.workloads import paper_corpus
from server_process import ServerProcess

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_paper_corpus.json"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rule_plain(actions) -> list[str]:
    """Uncached ``evaluate``, one action at a time: the full pipeline."""
    engine = ComplianceEngine()
    return [ruling_to_json(engine.evaluate(action)) for action in actions]


def _rule_cached(actions) -> list[str]:
    """Cached ``evaluate_many``: every miss runs through the stage memos."""
    engine = ComplianceEngine(cache=RulingCache())
    return [ruling_to_json(r) for r in engine.evaluate_many(actions)]


#: Per-worker-process engine, built on the first action a worker rules
#: and reused for every later one, as ``campaign._case_worker`` does.
_WORKER_ENGINE: ComplianceEngine | None = None


def _pooled_worker(action) -> str:
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None:
        _WORKER_ENGINE = ComplianceEngine(cache=RulingCache())
    return ruling_to_json(_WORKER_ENGINE.evaluate(action))


def _rule_pooled(actions) -> list[str]:
    """Two pool workers, each on its own cached engine."""
    return ordered_map(_pooled_worker, list(actions), 2)


def _rule_served(actions) -> list[str]:
    """A live server on a background thread, over a real socket."""
    with ServerThread(ServerConfig(port=0, metrics_port=0)) as thread:
        with ServeClient(*thread.address) as client:
            response = client.rule(actions, request_id=1)
    assert response["ok"] is True
    return [canonical_json(ruling) for ruling in response["rulings"]]


def _record(actions, path: Path) -> int:
    """Rule through a cached engine into a file ledger, then close it.

    Returns:
        The number of distinct fingerprints recorded.
    """
    with Ledger(path) as ledger:
        ComplianceEngine(cache=RulingCache(), ledger=ledger).evaluate_many(
            actions
        )
        assert ledger.counts()["rulings"] == len(
            {action_fingerprint(a) for a in actions}
        )
        return ledger.counts()["rulings"]


def _rule_ledgered(actions) -> list[str]:
    """Recorded, reopened, primed into a fresh engine and ruled again:
    every ruling is one decoded from the ledger."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "corpus.db"
        recorded = _record(actions, path)
        with Ledger(path) as ledger:
            engine = ComplianceEngine(cache=RulingCache(), ledger=ledger)
            assert engine.prime_from_ledger() == recorded
            rulings = engine.evaluate_many(actions)
    assert engine.cache_stats.misses == 0
    return [ruling_to_json(r) for r in rulings]


def _rule_spawned(actions) -> list[str]:
    """A real ``repro serve --ledger ... --prime`` process over a
    recorded ledger, answering every action from a primed cache."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "corpus.db"
        recorded = _record(actions, path)
        stderr = Path(scratch) / "server.stderr"
        with ServerProcess(path, stderr, "--prime") as server:
            with server.client() as client:
                response = client.rule(actions, request_id=1)
                stats = client.stats()["stats"]
            assert server.end(signal.SIGTERM) == 0
    assert response["ok"] is True
    assert stats["primed_rulings"] == recorded
    assert stats["cache_misses"] == 0
    return [canonical_json(ruling) for ruling in response["rulings"]]


MODES = {
    "evaluate": _rule_plain,
    "cached": _rule_cached,
    "pooled": _rule_pooled,
    "served": _rule_served,
    "ledger": _rule_ledgered,
    "spawned": _rule_spawned,
}


def compute_golden() -> dict:
    entries = []
    for (section, action), text in zip(
        paper_corpus(), _rule_plain(a for _, a in paper_corpus())
    ):
        entries.append(
            {
                "section": section,
                "description": action.description,
                "required_process": json.loads(text)["required_process"],
                "ruling_sha256": _digest(text),
            }
        )
    return {"actions": entries}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _conclusions(processes: list[str]) -> dict:
    """The paper's three conclusions from per-action required processes."""
    sections = [section for section, _ in paper_corpus()]
    table1 = [p for s, p in zip(sections, processes) if s == "table1"]
    agreement = sum(
        (process != ProcessKind.NONE.name) == scene.paper_needs_process
        for process, scene in zip(table1, build_table1())
    )

    def strongest(section: str) -> str:
        return max(
            (
                ProcessKind[p]
                for s, p in zip(sections, processes)
                if s == section
            ),
            default=ProcessKind.NONE,
        ).name

    return {
        "table1": f"{agreement}/{len(table1)}",
        "iv_a": strongest("iv_a"),
        "iv_b": strongest("iv_b"),
    }


def test_golden_file_holds_the_papers_conclusions(golden):
    entries = golden["actions"]
    assert [e["section"] for e in entries] == [s for s, _ in paper_corpus()]
    assert {e["section"] for e in entries} == {"table1", "iv_a", "iv_b"}
    assert _conclusions([e["required_process"] for e in entries]) == {
        "table1": "20/20",
        "iv_a": "NONE",
        "iv_b": "COURT_ORDER",
    }


@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_mode_reproduces_every_golden_ruling(golden, mode):
    texts = MODES[mode]([action for _, action in paper_corpus()])
    entries = golden["actions"]
    assert [_digest(t) for t in texts] == [e["ruling_sha256"] for e in entries]
    processes = [json.loads(t)["required_process"] for t in texts]
    assert _conclusions(processes) == {
        "table1": "20/20",
        "iv_a": "NONE",
        "iv_b": "COURT_ORDER",
    }


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
