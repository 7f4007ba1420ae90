"""Make ``repro`` importable from the checkout's ``src`` directory."""

import os
import sys

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
if SRC not in sys.path:
    sys.path.insert(0, SRC)


@pytest.fixture
def tiny():
    """Sizes small enough for a run to take a few seconds."""
    from servebench.inputs import Sizes

    return Sizes(
        batch=8,
        depth=4,
        hot_pool=16,
        cold_pool=96,
        ledger_rows=64,
        ledger_hot=16,
        ledger_novel=128,
        n_shards=2,
        cache_size=16,
        setup_repeats=3,
        phases=2,
        replay_requests=6,
    )
