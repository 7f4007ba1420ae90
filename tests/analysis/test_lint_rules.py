"""Per-rule unit tests: one positive and one negative fixture each."""

import ast

import pytest

from repro.analysis.pylint_rules import ModuleUnderLint, all_rules
from repro.analysis.pylint_rules.determinism import DeterminismRule
from repro.analysis.pylint_rules.empty_iterable import (
    EmptyIterableExtremumRule,
)
from repro.analysis.pylint_rules.enum_dispatch import EnumDispatchRule
from repro.analysis.pylint_rules.fault_swallow import FaultSwallowRule
from repro.analysis.pylint_rules.float_sweep import FloatSweepRule
from repro.analysis.pylint_rules.mutable_defaults import MutableDefaultRule
from repro.analysis.pylint_rules.scenario_answers import ScenarioAnswerRule
from repro.analysis.pylint_rules.technique_contract import (
    TechniqueContractRule,
)
from repro.analysis.pylint_rules.telemetry import TelemetryChannelRule


def module(source: str, path: str = "src/repro/example.py"):
    return ModuleUnderLint(
        path=path, tree=ast.parse(source), source=source
    )


def findings(rule, source: str, path: str = "src/repro/example.py"):
    mod = module(source, path)
    if not rule.applies_to(mod):
        return []
    return list(rule.check(mod))


class TestRegistry:
    def test_all_six_seed_rules_registered(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes)
        assert {
            "REPRO101",
            "REPRO102",
            "REPRO103",
            "REPRO104",
            "REPRO105",
            "REPRO106",
        } <= set(codes)


class TestTechniqueContract:
    def test_flags_subclass_missing_both(self):
        source = (
            "class Bad(Technique):\n"
            "    def run(self):\n"
            "        pass\n"
        )
        found = findings(TechniqueContractRule(), source)
        assert len(found) == 2
        assert all(f.code == "REPRO101" for f in found)

    def test_accepts_complete_subclass(self):
        source = (
            "class Good(Technique):\n"
            "    name = 'good'\n"
            "    def required_actions(self):\n"
            "        return []\n"
        )
        assert findings(TechniqueContractRule(), source) == []

    def test_ignores_abstract_subclass(self):
        source = (
            "import abc\n"
            "class Mid(Technique):\n"
            "    @abc.abstractmethod\n"
            "    def required_actions(self):\n"
            "        ...\n"
        )
        assert findings(TechniqueContractRule(), source) == []

    def test_ignores_unrelated_classes(self):
        assert findings(TechniqueContractRule(), "class Foo:\n    pass\n") == []


class TestScenarioAnswer:
    CATALOGUE = "src/repro/core/scenarios.py"

    def test_flags_scenario_without_answer(self):
        source = "s = Scenario(number=1, action=a)\n"
        found = findings(ScenarioAnswerRule(), source, self.CATALOGUE)
        assert [f.code for f in found] == ["REPRO102"]

    def test_accepts_scenario_with_answer(self):
        source = (
            "s = Scenario(number=1, action=a, paper_needs_process=True)\n"
        )
        assert findings(ScenarioAnswerRule(), source, self.CATALOGUE) == []

    def test_flags_extended_scene_without_expectation(self):
        source = "s = ExtendedScene(scene_id='E1', action=a)\n"
        found = findings(
            ScenarioAnswerRule(),
            source,
            "src/repro/core/extended_scenarios.py",
        )
        assert [f.code for f in found] == ["REPRO102"]

    def test_rule_scoped_to_catalogue_files(self):
        source = "s = Scenario(number=1, action=a)\n"
        assert findings(ScenarioAnswerRule(), source) == []


class TestDeterminism:
    NETSIM = "src/repro/netsim/example.py"

    @pytest.mark.parametrize(
        "call",
        [
            "time.time()",
            "datetime.datetime.now()",
            "random.random()",
            "random.randint(0, 9)",
            "np.random.rand(3)",
        ],
    )
    def test_flags_ambient_entropy(self, call):
        found = findings(DeterminismRule(), f"x = {call}\n", self.NETSIM)
        assert [f.code for f in found] == ["REPRO103"]

    @pytest.mark.parametrize(
        "call",
        [
            "random.Random(0)",
            "np.random.default_rng(7)",
            "self._rng.random()",
        ],
    )
    def test_accepts_seeded_generators(self, call):
        assert findings(DeterminismRule(), f"x = {call}\n", self.NETSIM) == []

    def test_rule_scoped_to_deterministic_subsystems(self):
        source = "x = time.time()\n"
        assert (
            findings(DeterminismRule(), source, "src/repro/workloads.py")
            == []
        )


class TestEmptyIterableExtremum:
    def test_flags_bare_max_over_iterable(self):
        source = "def f(xs):\n    return max(xs)\n"
        found = findings(EmptyIterableExtremumRule(), source)
        assert [f.code for f in found] == ["REPRO104"]

    def test_accepts_default_keyword(self):
        source = "def f(xs):\n    return max(xs, default=None)\n"
        assert findings(EmptyIterableExtremumRule(), source) == []

    def test_accepts_two_argument_form(self):
        source = "def f(a, b):\n    return min(a, b)\n"
        assert findings(EmptyIterableExtremumRule(), source) == []

    def test_accepts_guarded_call(self):
        source = (
            "def f(xs):\n"
            "    if not xs:\n"
            "        return None\n"
            "    return max(x.v for x in xs)\n"
        )
        assert findings(EmptyIterableExtremumRule(), source) == []

    def test_guard_must_precede_the_call(self):
        source = (
            "def f(xs):\n"
            "    worst = max(xs)\n"
            "    if not xs:\n"
            "        return None\n"
            "    return worst\n"
        )
        found = findings(EmptyIterableExtremumRule(), source)
        assert [f.code for f in found] == ["REPRO104"]


class TestEnumDispatch:
    def test_flags_partial_process_kind_dict(self):
        source = (
            "table = {\n"
            "    ProcessKind.NONE: 0,\n"
            "    ProcessKind.SUBPOENA: 1,\n"
            "}\n"
        )
        found = findings(EnumDispatchRule(), source)
        assert [f.code for f in found] == ["REPRO105"]
        assert "WIRETAP_ORDER" in found[0].message

    def test_accepts_exhaustive_admissibility_dict(self):
        source = (
            "table = {\n"
            "    Admissibility.ADMISSIBLE: 1,\n"
            "    Admissibility.SUPPRESSED: 2,\n"
            "    Admissibility.SUPPRESSED_DERIVATIVE: 3,\n"
            "}\n"
        )
        assert findings(EnumDispatchRule(), source) == []

    def test_flags_partial_match_without_wildcard(self):
        source = (
            "def f(kind):\n"
            "    match kind:\n"
            "        case Admissibility.ADMISSIBLE:\n"
            "            return 1\n"
            "        case Admissibility.SUPPRESSED:\n"
            "            return 2\n"
        )
        found = findings(EnumDispatchRule(), source)
        assert [f.code for f in found] == ["REPRO105"]

    def test_accepts_match_with_wildcard(self):
        source = (
            "def f(kind):\n"
            "    match kind:\n"
            "        case Admissibility.ADMISSIBLE:\n"
            "            return 1\n"
            "        case _:\n"
            "            return 0\n"
        )
        assert findings(EnumDispatchRule(), source) == []

    def test_ignores_dicts_over_other_enums(self):
        source = "table = {Color.RED: 1, Color.BLUE: 2}\n"
        assert findings(EnumDispatchRule(), source) == []


class TestMutableDefault:
    def test_flags_list_default(self):
        source = "def f(x, seen=[]):\n    return seen\n"
        found = findings(MutableDefaultRule(), source)
        assert [f.code for f in found] == ["REPRO106"]

    def test_flags_dict_constructor_default(self):
        source = "def f(x, cache=dict()):\n    return cache\n"
        found = findings(MutableDefaultRule(), source)
        assert [f.code for f in found] == ["REPRO106"]

    def test_accepts_none_default(self):
        source = "def f(x, seen=None):\n    return seen or []\n"
        assert findings(MutableDefaultRule(), source) == []

    def test_accepts_frozen_defaults(self):
        source = "def f(x, pair=(), label=''):\n    return pair\n"
        assert findings(MutableDefaultRule(), source) == []


TECHNIQUE_PATH = "src/repro/techniques/example.py"


class TestFaultSwallow:
    def test_flags_swallowed_fault_in_detect(self):
        source = (
            "def detect(self, arrivals):\n"
            "    try:\n"
            "        data = read(arrivals)\n"
            "    except FaultError:\n"
            "        data = []\n"
            "    return Result(data)\n"
        )
        found = findings(FaultSwallowRule(), source, TECHNIQUE_PATH)
        assert [f.code for f in found] == ["REPRO107"]
        assert "detect" in found[0].message

    def test_flags_fault_subclasses_and_tuples(self):
        source = (
            "def run(self):\n"
            "    try:\n"
            "        step()\n"
            "    except (StorageFault, TransientReadError):\n"
            "        pass\n"
        )
        found = findings(FaultSwallowRule(), source, TECHNIQUE_PATH)
        assert len(found) == 1

    def test_accepts_reraise(self):
        source = (
            "def run(self):\n"
            "    try:\n"
            "        step()\n"
            "    except FaultError:\n"
            "        raise\n"
        )
        assert findings(FaultSwallowRule(), source, TECHNIQUE_PATH) == []

    def test_accepts_confidence_degradation(self):
        source = (
            "def correlate(self, a, b):\n"
            "    confidence = 1.0\n"
            "    try:\n"
            "        data = read(a)\n"
            "    except FaultError:\n"
            "        data, confidence = [], 0.5\n"
            "    return Result(data, confidence=confidence)\n"
        )
        assert findings(FaultSwallowRule(), source, TECHNIQUE_PATH) == []

    def test_accepts_custody_recording(self):
        source = (
            "def investigate(self, custody):\n"
            "    try:\n"
            "        acquire()\n"
            "    except CourtFault as fault:\n"
            "        custody.record_event(str(fault))\n"
        )
        assert findings(FaultSwallowRule(), source, TECHNIQUE_PATH) == []

    def test_ignores_non_fault_exceptions(self):
        source = (
            "def run(self):\n"
            "    try:\n"
            "        step()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        assert findings(FaultSwallowRule(), source, TECHNIQUE_PATH) == []

    def test_ignores_helpers_outside_entry_points(self):
        source = (
            "def _load(self):\n"
            "    try:\n"
            "        step()\n"
            "    except FaultError:\n"
            "        pass\n"
        )
        assert findings(FaultSwallowRule(), source, TECHNIQUE_PATH) == []

    def test_only_applies_to_techniques(self):
        source = (
            "def run(self):\n"
            "    try:\n"
            "        step()\n"
            "    except FaultError:\n"
            "        pass\n"
        )
        assert (
            findings(FaultSwallowRule(), source, "src/repro/netsim/link.py")
            == []
        )


class TestFloatSweep:
    def test_flags_offset_accumulation_sweep(self):
        source = (
            "def detect(self, arrival_times, start, max_offset, step):\n"
            "    offset = 0.0\n"
            "    while offset <= max_offset:\n"
            "        scan(arrival_times, start + offset)\n"
            "        offset += step\n"
        )
        found = findings(FloatSweepRule(), source, TECHNIQUE_PATH)
        assert len(found) == 1
        assert found[0].code == "REPRO108"
        assert "float" in found[0].message
        assert "offset_grid" in found[0].fix_it

    def test_flags_strict_less_than_sweep(self):
        source = (
            "def correlate(self, bound):\n"
            "    delay = 0.0\n"
            "    while delay < bound:\n"
            "        probe(delay)\n"
            "        delay += self.offset_step\n"
        )
        found = findings(FloatSweepRule(), source, TECHNIQUE_PATH)
        assert len(found) == 1

    def test_exempts_reference_twins(self):
        source = (
            "def _reference_detect(detector, times, start, bound, step):\n"
            "    offset = 0.0\n"
            "    while offset <= bound:\n"
            "        detector.correlate(times, start, offset)\n"
            "        offset += step\n"
        )
        assert findings(FloatSweepRule(), source, TECHNIQUE_PATH) == []

    def test_exempts_arrival_process_increments(self):
        source = (
            "def embed(self, channel, start):\n"
            "    t = start\n"
            "    while t < self.end:\n"
            "        channel.send(t)\n"
            "        t += self._rng.expovariate(self.rate)\n"
        )
        assert findings(FloatSweepRule(), source, TECHNIQUE_PATH) == []

    def test_exempts_integer_counters(self):
        source = (
            "def detect(self, n):\n"
            "    index = 0\n"
            "    while index < n:\n"
            "        step(index)\n"
            "        index += 1\n"
        )
        assert findings(FloatSweepRule(), source, TECHNIQUE_PATH) == []

    def test_only_applies_to_techniques(self):
        source = (
            "def detect(self, bound, step):\n"
            "    offset = 0.0\n"
            "    while offset <= bound:\n"
            "        offset += step\n"
        )
        assert (
            findings(FloatSweepRule(), source, "src/repro/netsim/link.py")
            == []
        )


class TestTelemetryChannel:
    def test_flags_bare_print(self):
        source = (
            "def evaluate(self, action):\n"
            "    print('evaluating', action)\n"
        )
        found = findings(TelemetryChannelRule(), source)
        assert len(found) == 1
        assert found[0].code == "REPRO109"
        assert "print" in found[0].message
        assert "repro.obs" in found[0].fix_it

    def test_flags_ad_hoc_wall_clock_timing(self):
        source = (
            "import time\n"
            "def evaluate(self, action):\n"
            "    start = time.perf_counter()\n"
            "    rule(action)\n"
            "    elapsed = time.perf_counter() - start\n"
        )
        found = findings(TelemetryChannelRule(), source)
        assert len(found) == 2
        assert {f.code for f in found} == {"REPRO109"}
        assert "perf_counter" in found[0].message

    def test_flags_time_time(self):
        source = "stamp = time.time()\n"
        found = findings(TelemetryChannelRule(), source)
        assert [f.code for f in found] == ["REPRO109"]

    def test_accepts_span_usage(self):
        source = (
            "from repro import obs\n"
            "def evaluate(self, action):\n"
            "    with obs.span('engine.evaluate'):\n"
            "        return rule(action)\n"
        )
        assert findings(TelemetryChannelRule(), source) == []

    def test_accepts_non_timing_time_attrs(self):
        source = "zone = time.tzname\nsleepy = time.sleep(0.1)\n"
        assert findings(TelemetryChannelRule(), source) == []

    def test_allowlists_cli_and_bench(self):
        source = "print('Scene 18')\nstart = time.perf_counter()\n"
        for path in (
            "src/repro/cli.py",
            "src/repro/__main__.py",
            "src/repro/bench.py",
        ):
            assert findings(TelemetryChannelRule(), source, path) == []

    def test_allowlists_the_obs_package(self):
        source = "now = time.perf_counter()\n"
        path = "src/repro/obs/tracing.py"
        assert findings(TelemetryChannelRule(), source, path) == []

    def test_only_applies_inside_repro(self):
        source = "print('hello')\n"
        assert (
            findings(TelemetryChannelRule(), source, "scripts/tool.py")
            == []
        )
