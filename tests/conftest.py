"""Shared fixtures for the test suite."""

import pytest

from repro import obs
from repro.core import ComplianceEngine
from repro.core import engine as engine_module
from repro.ledger import serialize


@pytest.fixture(scope="session")
def engine() -> ComplianceEngine:
    """One compliance engine shared across the suite (it is stateless)."""
    return ComplianceEngine()


@pytest.fixture
def empty_tables(monkeypatch):
    """Start from empty intern, combination, memo and text tables.

    The intern, combination and text tables are restored afterwards; the
    stage memos are left empty (they refill, and every entry is sound on
    its own).
    """
    monkeypatch.setattr(engine_module, "_RULINGS", {})
    monkeypatch.setattr(engine_module, "_COMBINED", {})
    monkeypatch.setattr(serialize, "_TEXTS", {})
    for memo in engine_module.RULE_MEMOS:
        memo.clear()


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Telemetry is process-global state; never let it leak across tests."""
    yield
    obs.reset()
