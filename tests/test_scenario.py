"""Scenario schema: malformed documents are rejected with diagnostics only,
valid ones survive a serialise-and-parse round trip, the summary echo is
pinned, and the defaults table is the single source of every default."""

import copy
import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhoc_sim.adaptation import AdaptationPolicy
from adhoc_sim.defaults import DEFAULTS
from adhoc_sim.errors import ScenarioValidationError
from adhoc_sim.infrastructure import IntrusivenessPolicy
from adhoc_sim.membership import CloudletPolicy
from adhoc_sim.runner import build_simulation
from adhoc_sim.scenario import DEFAULTS_FIELDS, parse_scenario, scenario_to_json

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# sha256 of json.dumps(scenario_to_json(s), sort_keys=True), the `scenario`
# block of summary.json, recorded before the schema became a field table and
# re-recorded when `defaults.exhaustive_threshold` and `qos.exhaustive_threshold`
# left the schema (the earlier echo with those two keys dropped), and again
# when an omitted field began to echo its default as the field reads it
# (`defaults.element_allocation` and a kv workload's `value_size` as floats:
# "memory": 512.0, not 512), and again when the four settings of SINGLETONS
# left the `defaults` section (the earlier echo with those four keys dropped)
ECHO_DIGESTS = {
    "kv_churn_crash": "190af4de05914feca689e462d1c90d9aa6e710f3941ec3b8c5b9604c4c896351",
    "mixed": "24d0768942d454d0c9e260fe2ab0c74c865214abfed8f7e779ce145c14fc5e57",
    "mixed_window": "aedd62375f104bde7fc6546f48bf4334d2273fb242a68562e2ed4268b246d77b",
}

# DEFAULTS entry -> (section, key) of the one field it fills; the `defaults`
# section does not hold these, as a document gives each of them once
SINGLETONS = {
    "qos_mode": ("qos", "mode"),
    "trailing_window_ms": ("qos", "trailing_window_ms"),
    "adaptation_enabled": ("adaptation", "enabled"),
    "epoch_ms": ("adaptation", "epoch_ms"),
}


def _golden(name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _paths(node, prefix=()):
    """The path of every value in a document, containers included."""
    if prefix:
        yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, value in items:
        yield from _paths(value, prefix + (key,))


MIXED = _golden("mixed")
MIXED_PATHS = list(_paths(MIXED))

wrong_values = st.one_of(
    st.text(max_size=5),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.none(),
    st.just(float("nan")),
    st.just(float("inf")),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-9, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MIXED_PATHS), wrong_values)
def test_wrong_typed_value_is_rejected_or_builds(path, value):
    doc = copy.deepcopy(MIXED)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        scenario = parse_scenario(doc)
    except ScenarioValidationError as exc:
        assert exc.diagnostics
        return
    build_simulation(scenario)


def _record_classes(value):
    """The class of every tuple in value, in place: a record is a
    NamedTuple, which equals any tuple of equal items whatever its class."""
    if isinstance(value, tuple):
        return (type(value).__name__, *map(_record_classes, value))
    if isinstance(value, dict):
        return {key: _record_classes(item) for key, item in value.items()}
    return None


@pytest.mark.parametrize("name", sorted(ECHO_DIGESTS))
def test_round_trip_and_pinned_echo(name):
    scenario = parse_scenario(_golden(name))
    echo = scenario_to_json(scenario)
    assert parse_scenario(echo) == scenario
    assert _record_classes(parse_scenario(echo)) == _record_classes(scenario)
    # the echo is a fixed point as text: dict equality would take 512 for 512.0
    text = json.dumps(echo, sort_keys=True)
    assert json.dumps(scenario_to_json(parse_scenario(echo)), sort_keys=True) == text
    assert hashlib.sha256(text.encode()).hexdigest() == ECHO_DIGESTS[name]


def test_defaults_table_covers_every_default_once():
    """Every DEFAULTS entry fills exactly one field: a `defaults` section
    setting, which the fields that fall back to it read, or a singleton."""
    keys = [f.key for f in DEFAULTS_FIELDS] + list(SINGLETONS)
    assert sorted(keys) == sorted(DEFAULTS)
    assert len(set(keys)) == len(keys)


def test_constructor_defaults_match_an_empty_document():
    scenario = parse_scenario({
        "run": {"until": 1000},
        "fleet": [
            {"node_id": "n1",
             "capacity": {"cpu": 4, "memory": 8192, "storage": 1e5, "network": 100}}
        ],
        "cloudlets": [{"cloudlet_id": "c", "engine": "compute"}],
    })
    assert scenario.fleet[0].intrusiveness == IntrusivenessPolicy()
    assert scenario.cloudlets[0].policy == CloudletPolicy()
    assert scenario.cloudlets[0].element_allocation == DEFAULTS["element_allocation"]
    assert scenario.adaptation == AdaptationPolicy()
    # each DEFAULTS entry arrives in its one field
    assert scenario.defaults == {f.key: DEFAULTS[f.key] for f in DEFAULTS_FIELDS}
    echo = scenario_to_json(scenario)
    for key, (section, name) in SINGLETONS.items():
        assert echo[section][name] == DEFAULTS[key]
