"""Spans recorded around each layer call of the replayed server path.

The replay opens spans around the calls it makes itself; :func:`instrument`
wraps, for the traced replay only, the names the program calls in between.

A span is ``[name, start, end, parent, request]``: ``parent`` is the
index of the enclosing span (``-1`` at the root) and every span of one
request carries that request's id.  Spans stay in memory and are written
out once, when the run ends.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections.abc import Callable, Iterator

import repro.core.engine as engine_module
import repro.serve.server as server_module
from repro.core.cache import RulingCache
from repro.core.statutes import fourth_amendment, pentrap, sca, wiretap
from repro.ledger.store import Ledger

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """An in-memory span recorder for one single-threaded replay."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: object = None
        self._stack: list[int] = []
        self._clock = time.perf_counter

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock(), 0.0, parent, self.request])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the innermost open span, which must be ``index``."""
        self.spans[index][END] = self._clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {index} closed out of order")

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """The same interface, recording nothing: the untraced replay."""

    spans: list[list] = []
    request: object = None

    def begin(self, name: str) -> int:
        return 0

    def end(self, index: int) -> None:
        pass


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def parents_of(spans: list[list], name: str) -> set[int]:
    """Indices of the spans that directly enclose a span called ``name``."""
    return {span[PARENT] for span in spans if span[NAME] == name}


def totals_by_name(
    spans: list[list], keep: Callable[[list], bool] | None = None
) -> dict[str, tuple[float, int]]:
    """``name -> (summed self seconds, span count)`` over kept spans."""
    totals: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        if keep is not None and not keep(span):
            continue
        entry = totals.setdefault(span[NAME], [0.0, 0])
        entry[0] += own
        entry[1] += 1
    return {name: (total, count) for name, (total, count) in totals.items()}


def _traced(tracer: Tracer, name: str, function: Callable) -> Callable:
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.end(index)

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Record a span around each layer call the server's path makes.

    Every target is a name the program looks up at call time: the
    server's ``action_from_dict``, ``ruling_to_dict`` and per-ruling
    encoder; the cache's batched ``get_or_compute`` and the
    ``action_fingerprint`` the engine hands it; the uncached
    ``ComplianceEngine`` pipeline and its stages (the privacy analysis
    and ``gather_exceptions`` as names in :mod:`repro.core.engine`, each
    statute as ``<module>.evaluate``, the statute-internal exceptions
    through ``ComplianceEngine._statutory_exceptions``); and the ledger's
    ``record_ruling`` and ``commit``.  What is left of the
    ``engine.evaluate`` span is combination plus the citation check.
    Everything is restored on exit.
    """
    engine_class = engine_module.ComplianceEngine
    targets = [
        (server_module, "action_from_dict", "protocol.action_from_dict"),
        (server_module.RulingServer, "_encode_ruling", "protocol.encode_ruling"),
        (server_module, "ruling_to_dict", "protocol.ruling_to_dict"),
        (RulingCache, "get_or_compute", "cache.get_or_compute"),
        (engine_module, "action_fingerprint", "fingerprint.action"),
        (engine_class, "_evaluate_uncached", "engine.evaluate"),
        (engine_module, "analyze_privacy", "engine.privacy"),
        (fourth_amendment, "evaluate", "engine.fourth_amendment"),
        (wiretap, "evaluate", "engine.wiretap"),
        (sca, "evaluate", "engine.sca"),
        (pentrap, "evaluate", "engine.pentrap"),
        (engine_module, "gather_exceptions", "engine.exceptions"),
        (engine_class, "_statutory_exceptions", "engine.exceptions"),
        (Ledger, "record_ruling", "ledger.record"),
        (Ledger, "commit", "ledger.commit"),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for (owner, attr, name), (_, _, function) in zip(targets, originals):
            setattr(owner, attr, _traced(tracer, name, function))
        yield
    finally:
        for owner, attr, function in originals:
            setattr(owner, attr, function)
