"""REPRO109: telemetry must route through ``repro.obs``, not stdout.

A library module that ``print()``\\ s cannot be consumed as a library,
and a module timing itself with ``time.time()`` produces numbers nobody
can collect, aggregate, or gate.  Now that :mod:`repro.obs` exists,
spans and metrics are the sanctioned channel: a bare ``print(`` or an
ad-hoc wall-clock timing read inside ``src/repro/`` is a diagnostic.

Detection is symbol-table backed rather than textual: ``clock.time()``
is flagged when ``clock`` is bound by ``import time as clock``, a bare
``perf_counter()`` is flagged when bound by ``from time import
perf_counter``, and a local ``print`` binding shadowing the builtin is
*not* flagged — the rule resolves what the name at the call site
actually refers to.

User-facing CLI modules are allowlisted (printing *is* their job), and
so are the benchmark drivers (timing *is* their job) and the telemetry
package itself (it owns the clock).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.flow.symbols import Binding, BindingKind
from repro.analysis.pylint_rules.base import (
    LintRule,
    ModuleUnderLint,
    register,
)

#: Modules whose *purpose* is terminal output or timing measurement.
_ALLOWLISTED_FILES = {
    "cli.py",
    "__main__.py",
    "bench.py",
}

#: Directories whose modules own the clock or the terminal.
_ALLOWLISTED_DIRECTORIES = {"obs"}

#: ``time.<attr>`` reads that are ad-hoc timing when used for telemetry.
_TIMING_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
}


def _attribute_chain(node: ast.expr) -> tuple[str, ...]:
    """``a.b.c`` -> ("a", "b", "c"); empty when not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _is_time_module(binding: Binding | None, bare_name: str) -> bool:
    """Whether a base name refers to the stdlib ``time`` module.

    An explicit ``import time [as alias]`` binding settles it; an
    unresolved bare ``time`` is assumed to be the module (the
    conventional name), while any other binding — a parameter, an
    assignment, an import of a different module — is not timing.
    """
    if binding is None:
        return bare_name == "time"
    return binding.kind is BindingKind.IMPORT and binding.module == "time"


@register
class TelemetryChannelRule(LintRule):
    """No bare print() or ad-hoc time.time() timing outside the CLI."""

    code = "REPRO109"
    name = "telemetry-channel"
    description = (
        "no bare print() or ad-hoc time.time() timing in library "
        "modules; route telemetry through repro.obs (CLI and bench "
        "modules allowlisted)"
    )

    def applies_to(self, module: ModuleUnderLint) -> bool:
        parts = module.parts()
        if "repro" not in parts:
            return False
        if _ALLOWLISTED_DIRECTORIES.intersection(parts):
            return False
        return parts[-1] not in _ALLOWLISTED_FILES

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        table = self.project_for(module).symbols(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                binding = table.resolve(func.id, within=func)
                if func.id == "print" and binding is None:
                    yield self.diagnostic(
                        module,
                        node,
                        "bare `print()` in a library module; nothing "
                        "can collect or silence it",
                        fix_it=(
                            "return the text (let the CLI print it) or "
                            "emit a repro.obs span/metric"
                        ),
                    )
                elif (
                    binding is not None
                    and binding.kind is BindingKind.FROM_IMPORT
                    and binding.module == "time"
                    and binding.origin in _TIMING_ATTRS
                ):
                    yield self._timing_diagnostic(
                        module, node, binding.origin
                    )
                continue
            chain = _attribute_chain(func)
            if len(chain) == 2 and chain[1] in _TIMING_ATTRS:
                binding = table.resolve(chain[0], within=func)
                if _is_time_module(binding, chain[0]):
                    yield self._timing_diagnostic(module, node, chain[1])

    def _timing_diagnostic(
        self, module: ModuleUnderLint, node: ast.Call, attr: str
    ) -> Diagnostic:
        return self.diagnostic(
            module,
            node,
            f"ad-hoc `time.{attr}()` timing in a library "
            "module; the measurement is invisible to telemetry",
            fix_it=(
                "wrap the region in `repro.obs.span(...)` (or "
                "observe into a registry histogram) instead"
            ),
        )
