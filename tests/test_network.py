"""Quorum rounds: success at quorum, failure at the timeout with the replies
gathered so far, late replies, and freeing a decided round by reference
counting alone."""

import gc
import os
import weakref

import pytest

from adhoc_sim.infrastructure import DEAD, RUNNING, CloudElement
from adhoc_sim.kernel import Dist, Simulator
from adhoc_sim.network import Network, OpHandle, Round
from adhoc_sim.resources import ResourceVector as RV
from adhoc_sim.runner import run_scenario
from adhoc_sim.scenario import load_scenario

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

LATENCY_MS = 10
TIMEOUT_MS = 100


def _fabric(states):
    sim = Simulator(seed=1)
    net = Network(sim, Dist.constant(LATENCY_MS))
    elements = [
        CloudElement(f"e{i}", f"n{i}", "c1", "kv_store", RV(1, 1, 1, 1), state=state)
        for i, state in enumerate(states)
    ]
    return sim, net, elements


class Outcome:
    """Records which callback fired, when, and with what."""

    def __init__(self, sim):
        self.sim = sim
        self.calls = []

    def success(self, replies):
        self.calls.append(("success", self.sim.now, replies))

    def failure(self, replies):
        self.calls.append(("failure", self.sim.now, replies))

    def late(self, eid, reply):
        self.calls.append(("late", self.sim.now, eid, reply))


def _start(net, elements, quorum, outcome, on_late=None):
    return Round(
        net,
        elements,
        lambda el: el.element_id.upper(),
        quorum=quorum,
        timeout_ms=TIMEOUT_MS,
        on_success=outcome.success,
        on_failure=outcome.failure,
        on_late=on_late,
    )


def test_quorum_reached_fires_success_once_at_reply_time():
    sim, net, elements = _fabric([RUNNING, RUNNING, RUNNING])
    outcome = Outcome(sim)
    _start(net, elements, 3, outcome)
    sim.run_until(10 * TIMEOUT_MS)
    # request out and reply back, one latency each
    assert outcome.calls == [("success", 2 * LATENCY_MS, {"e0": "E0", "e1": "E1", "e2": "E2"})]


def test_timeout_fails_with_the_partial_replies():
    sim, net, elements = _fabric([RUNNING, DEAD, RUNNING])
    outcome = Outcome(sim)
    _start(net, elements, 3, outcome)
    sim.run_until(10 * TIMEOUT_MS)
    assert outcome.calls == [("failure", TIMEOUT_MS, {"e0": "E0", "e2": "E2"})]


def test_quorum_of_zero_succeeds_at_once():
    sim, net, elements = _fabric([DEAD])
    outcome = Outcome(sim)
    _start(net, elements, 0, outcome)
    assert outcome.calls == [("success", 0, {})]
    sim.run_until(10 * TIMEOUT_MS)
    assert len(outcome.calls) == 1


def test_replies_after_quorum_go_to_on_late():
    sim, net, elements = _fabric([RUNNING, RUNNING, RUNNING])
    outcome = Outcome(sim)
    _start(net, elements, 1, outcome, on_late=outcome.late)
    sim.run_until(10 * TIMEOUT_MS)
    assert outcome.calls == [
        ("success", 2 * LATENCY_MS, {"e0": "E0"}),
        ("late", 2 * LATENCY_MS, "e1", "E1"),
        ("late", 2 * LATENCY_MS, "e2", "E2"),
    ]


def test_late_replies_without_on_late_are_dropped():
    sim, net, elements = _fabric([RUNNING, RUNNING])
    outcome = Outcome(sim)
    _start(net, elements, 1, outcome)
    sim.run_until(10 * TIMEOUT_MS)
    assert [c[0] for c in outcome.calls] == ["success"]


@pytest.mark.parametrize(
    "states, quorum, decided",
    [
        ([RUNNING, RUNNING, RUNNING], 2, "success"),
        ([RUNNING, DEAD, DEAD], 2, "failure"),
    ],
)
def test_decided_round_is_freed_without_the_cycle_collector(states, quorum, decided):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        sim, net, elements = _fabric(states)
        outcome = Outcome(sim)
        round_ = _start(net, elements, quorum, outcome, on_late=outcome.late)
        ref = weakref.ref(round_)
        del round_
        sim.run_until(TIMEOUT_MS + 1)
        assert [c[0] for c in outcome.calls if c[0] != "late"] == [decided]
        assert ref() is None, "a decided round outlived its last message"
    finally:
        if was_enabled:
            gc.enable()


def test_kv_run_leaves_no_op_to_the_cycle_collector():
    """A whole kv run with churn, crashes and read repair: with the
    simulation still held, nothing of a finished op waits for the cycle
    collector."""
    scenario = load_scenario(os.path.join(GOLDEN_DIR, "kv_churn_crash.json"))
    was_enabled = gc.isenabled()
    gc.collect()  # garbage of earlier tests
    gc.disable()
    try:
        # held, so ops still in flight at the end are not garbage
        summary, rows, simulation = run_scenario(scenario)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [
            o for o in gc.garbage
            if isinstance(o, (Round, OpHandle))
            or getattr(o, "__qualname__", "").startswith(("KvService.", "Round."))
        ]
        assert not left, f"{len(left)} rounds, op handles or their closures were cyclic garbage"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
