"""Reference checks of the state a run keeps between events: each
cloudlet's best-effort ranking and the adaptation loop's node snapshots.
The five goldens and a short compute_fleet benchmark document run under a
checker that compares both, after every event, with a fresh computation
from the nodes and elements; every pick the run itself makes is compared
the moment it is made, inside an event, as well."""

import os
import sys

import pytest

from adhoc_sim.adaptation import NodeSnapshot
from adhoc_sim.errors import NoLiveElement
from adhoc_sim.infrastructure import DEAD, NodeInfrastructure
from adhoc_sim.membership import CloudletRuntime
from adhoc_sim.resources import ResourceVector
from adhoc_sim.runner import build_simulation
from adhoc_sim.scenario import load_scenario, parse_scenario

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
GOLDENS = ("kv_churn_crash", "loss_and_rejection", "mixed", "mixed_window", "scale_in")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import generate  # noqa: E402


def _fresh_headroom(node) -> ResourceVector:
    return node.capacity.headroom(node.user_demand, node.reserve_margin)


def _fresh_pick(runtime, exclude=None):
    """The pick as a min over the serving view members, or None."""
    serving = [
        runtime.elements[eid] for eid in sorted(runtime.view.members)
        if runtime.elements[eid].is_serving() and eid != exclude
    ]

    def cpu(el):
        node = runtime.nodes[el.node_id]
        return _fresh_headroom(node).cpu if node.is_up() else 0.0

    return min(serving, key=lambda el: (-cpu(el), el.element_id), default=None)


def _pick_or_none(runtime, exclude=None):
    try:
        return runtime.best_effort_pick(exclude=exclude)
    except NoLiveElement:
        return None


def _fresh_node_snapshots(simulation) -> dict:
    out = {}
    for node_id in sorted(simulation.nodes):
        node = simulation.nodes[node_id]
        available = ResourceVector.zero()
        if node.is_up():
            committed = ResourceVector.zero()
            for el in simulation.infras[node_id].elements.values():
                if el.state != DEAD:
                    committed = committed + el.allocation
            available = (_fresh_headroom(node) - committed).clamped()
        out[node_id] = NodeSnapshot(node_id, node.is_up(), available)
    return out


@pytest.fixture
def checked_picks(monkeypatch):
    """Every best_effort_pick compared with the fresh min as it returns;
    yields the number of picks checked so far, as a one-item list."""
    pick = CloudletRuntime.best_effort_pick
    count = [0]

    def checked(self, exclude=None):
        expected = _fresh_pick(self, exclude)
        try:
            got = pick(self, exclude=exclude)
        except NoLiveElement:
            got = None
        assert got is expected, (self.sim.now, self.cloudlet_id, exclude)
        count[0] += 1
        if got is None:
            raise NoLiveElement(f"cloudlet {self.cloudlet_id} has no live element")
        return got

    monkeypatch.setattr(CloudletRuntime, "best_effort_pick", checked)
    yield count


def _run_checked(scenario, picks):
    simulation = build_simulation(scenario)
    sim = simulation.sim
    dispatch = sim._dispatch
    events = []

    def dispatch_and_check(entry):
        dispatch(entry)
        for runtime in simulation.cloudlets.values():
            first = _pick_or_none(runtime)
            if first is not None:
                _pick_or_none(runtime, exclude=first.element_id)
        kept = simulation.controller.node_snapshots()
        assert kept == _fresh_node_snapshots(simulation), sim.now
        assert list(kept) == sorted(simulation.nodes)
        events.append(entry[0])

    sim._dispatch = dispatch_and_check
    simulation.run_until(scenario.run_until)
    assert len(events) > 100 and picks[0] >= len(events)


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_keeps_its_ranking_and_node_snapshots_fresh(name, checked_picks):
    scenario = load_scenario(os.path.join(GOLDEN_DIR, f"{name}.json"))
    _run_checked(scenario, checked_picks)


def test_compute_fleet_keeps_its_ranking_and_node_snapshots_fresh(checked_picks):
    doc = generate.generate("compute_fleet", 7, 0, run_ms=240_000)
    _run_checked(parse_scenario(doc), checked_picks)


def test_a_pick_inside_the_reassess_of_a_demand_change_reads_the_new_headroom(
    checked_picks, monkeypatch
):
    """The ranking is dropped ahead of the node's infrastructure, so a pick
    made while that infrastructure reassesses the new demand is fresh."""
    scenario = load_scenario(os.path.join(GOLDEN_DIR, "mixed.json"))
    simulation = build_simulation(scenario)
    reassess = NodeInfrastructure.reassess

    def pick_then_reassess(self):
        for runtime in simulation.cloudlets.values():
            _pick_or_none(runtime)
        reassess(self)

    monkeypatch.setattr(NodeInfrastructure, "reassess", pick_then_reassess)
    simulation.run_until(scenario.run_until)
    assert checked_picks[0] > 100
