"""MetricsFold against a brute-force count, one millisecond at a time, and
its series sampled on a hand-built log.

Random time-ordered logs of node, violation, element-state and agreement
records (several at the same time, ``node_up`` with no ``node_defined``,
``violation_end`` with no start, elements that serve before they join an
agreement) are folded, and each time-in-state figure is compared with the
reference below: for every millisecond of the goal window, the state left
by the records at or before it. Windows start after 0 and end before the
logged run end.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adhoc_sim.errors import IncompleteLog
from adhoc_sim.metrics import GoalSpec, MetricsFold

NODES = ("n0", "n1", "n2")
CLOUDLET_OF = {"e0": "c0", "e1": "c0", "e2": "c1", "e3": "c1"}
AGREEMENTS = ("a0", "a1")

node_records = st.tuples(
    st.sampled_from(("node_defined", "node_up", "node_down", "violation_start",
                     "violation_end")),
    st.sampled_from(NODES),
).map(lambda r: {"event": r[0], "node": r[1]})
element_records = st.tuples(st.sampled_from(sorted(CLOUDLET_OF)), st.booleans()).map(
    lambda r: {"event": "element_state", "element": r[0], "cloudlet": CLOUDLET_OF[r[0]],
               "serving": r[1]}
)
cloudlet_records = st.sampled_from(("c0", "c1")).map(
    lambda c: {"event": "cloudlet_defined", "cloudlet": c}
)
admitted_records = st.tuples(
    st.sampled_from(AGREEMENTS), st.integers(0, 120), st.integers(1, 120)
).map(lambda r: {"event": "agreement_admitted", "agreement": r[0], "request": "r" + r[0],
                 "nodes": ["n0"], "window": [r[1], r[1] + r[2]],
                 "predicted_availability": 0.5})
joined_records = st.tuples(
    st.sampled_from(AGREEMENTS), st.sampled_from(sorted(CLOUDLET_OF))
).map(lambda r: {"event": "agreement_element", "agreement": r[0], "element": r[1]})
# element records twice as likely: agreements then often hold overlapping elements
records = st.one_of(node_records, element_records, element_records, cloudlet_records,
                    admitted_records, joined_records)


@st.composite
def logs(draw):
    """(time-ordered (t, record) pairs ending in run_end, goal window)."""
    log, t = [], 0
    for gap, record in draw(st.lists(st.tuples(st.integers(0, 12), records), max_size=40)):
        t += gap  # a gap of 0 puts records at the same time
        log.append((t, record))
    run_end = t + draw(st.integers(3, 30))
    log.append((run_end, {"event": "run_end"}))
    start = draw(st.integers(1, run_end - 2))
    end = draw(st.integers(start + 1, run_end - 1))
    return log, (start, end)


NODE_UP = {"node_defined": True, "node_up": True, "node_down": False}
VIOLATING = {"violation_start": True, "violation_end": False}


def state_at(log, ms, is_about, value):
    """value(record) of the last record at or before ms that is_about; False
    before any."""
    state = False
    for t, record in log:
        if t > ms:
            break
        if is_about(record):
            state = value(record)
    return state


def flag_at(log, ms, flags, node):
    return state_at(log, ms, lambda r: r["event"] in flags and r["node"] == node,
                    lambda r: flags[r["event"]])


def serving_at(log, ms, eid):
    return state_at(log, ms, lambda r: r["event"] == "element_state" and r["element"] == eid,
                    lambda r: r["serving"])


def reference(log, window):
    """Each figure's ms in the window, counted one millisecond at a time."""
    start, end = window
    window_ms = range(start, end)
    events = [record for _t, record in log]
    nodes = {r["node"] for r in events if r["event"] in NODE_UP or r["event"] in VIOLATING}
    cloudlets = {r["cloudlet"] for r in events
                 if r["event"] in ("cloudlet_defined", "element_state")}
    agreements = {}  # id -> (window, element ids), as the broker's records left them
    for r in events:
        if r["event"] == "agreement_admitted":
            agreements[r["agreement"]] = (r["window"], set())
        elif r["event"] == "agreement_element" and r["agreement"] in agreements:
            agreements[r["agreement"]][1].add(r["element"])
    satisfaction = {}
    for aid, ((a_start, a_end), elements) in agreements.items():
        a_start, a_end = max(a_start, start), min(a_end, end)
        if a_end > a_start:
            satisfaction[aid] = (
                sum(any(serving_at(log, ms, eid) for eid in elements)
                    for ms in range(a_start, a_end)),
                a_end - a_start,
            )
    return {
        "node_uptime": {n: sum(flag_at(log, ms, NODE_UP, n) for ms in window_ms) for n in nodes},
        "intrusiveness": {
            n: sum(flag_at(log, ms, VIOLATING, n) for ms in window_ms) for n in nodes
        },
        "cloudlet_availability": {
            cid: sum(
                any(serving_at(log, ms, eid) for eid, c in CLOUDLET_OF.items() if c == cid)
                for ms in window_ms
            )
            for cid in cloudlets
        },
        "agreement_satisfaction": satisfaction,
    }


def _serving(eid, flag):
    return {"event": "element_state", "element": eid, "cloudlet": CLOUDLET_OF[eid],
            "serving": flag}


# two elements of one agreement serve overlapping spells: covered while either serves
OVERLAP = [
    (0, {"event": "agreement_admitted", "agreement": "a0", "request": "r0", "nodes": ["n0"],
         "window": [0, 100], "predicted_availability": 0.5}),
    (0, {"event": "agreement_element", "agreement": "a0", "element": "e0"}),
    (0, {"event": "agreement_element", "agreement": "a0", "element": "e2"}),
    (5, _serving("e0", True)), (10, _serving("e2", True)), (20, _serving("e0", False)),
    (30, _serving("e2", False)), (50, {"event": "run_end"}),
]


@settings(max_examples=300, deadline=None)
@given(logs())
@example((OVERLAP, (1, 49)))
def test_fold_time_in_state_equals_a_per_millisecond_count(case):
    log, window = case
    fold = MetricsFold(GoalSpec(window=window))
    for t, record in log:
        fold.add(t, "test", record)
    metrics = fold.metrics()
    expected = reference(log, window)
    window_ms = window[1] - window[0]
    for figure in ("node_uptime", "intrusiveness", "cloudlet_availability"):
        got = {key: (f["num"], f["den"]) for key, f in metrics[figure].items()}
        assert got == {key: (ms, window_ms) for key, ms in expected[figure].items()}, figure
    got = {aid: (f["num"], f["den"]) for aid, f in metrics["agreement_satisfaction"].items()}
    assert got == expected["agreement_satisfaction"]


def test_reservations_are_the_last_logged_decision_per_request():
    fold = MetricsFold(GoalSpec(window=(0, 10)))
    fold.add(1, "broker", {"event": "agreement_rejected", "request": "r2",
                           "reason": "capacity_exhausted", "predicted_availability": None})
    fold.add(2, "broker", {"event": "agreement_admitted", "agreement": "a1", "request": "r1",
                           "cloudlet": "c", "nodes": ["n2", "n1"], "window": [0, 5],
                           "predicted_availability": 0.75})
    assert fold.reservations() == {
        "r1": {"admitted": True, "agreement": "a1", "predicted_availability": 0.75,
               "nodes": ["n2", "n1"]},
        "r2": {"admitted": False, "reason": "capacity_exhausted",
               "predicted_availability": None},
    }
    assert list(fold.reservations()) == ["r1", "r2"]


def _membership(change, eid):
    return {"event": "membership", "cloudlet": CLOUDLET_OF[eid], "change": change,
            "element": eid, "version": 0}


def test_series_samples_the_state_left_by_the_records_at_or_before_each_instant():
    log = [
        (0, {"event": "node_defined", "node": "n1"}),
        (0, {"event": "node_defined", "node": "n0"}),
        (0, {"event": "cloudlet_defined", "cloudlet": "c1"}),
        (0, {"event": "cloudlet_defined", "cloudlet": "c0"}),
        (0, _serving("e0", True)),  # serving, but not yet a view member
        (5, _membership("join", "e2")),  # a member that never serves
        (10, _membership("join", "e0")),  # at a sample instant: counts there
        (10, _membership("join", "e1")),  # not serving: adds nothing
        (15, {"event": "violation_start", "node": "n0"}),
        (20, _serving("e1", True)),
        (20, {"event": "node_down", "node": "n1"}),
        (25, _membership("suspect", "e0")),
        (30, {"event": "violation_end", "node": "n0"}),
        (30, {"event": "run_end"}),
    ]
    fold = MetricsFold(GoalSpec(window=(0, 30)))
    for t, record in log:
        if record["event"] == "run_end":
            with pytest.raises(IncompleteLog):
                fold.series(10)
        fold.add(t, "test", record)
    columns, rows = fold.series(10)
    # definition order, not id order
    assert columns == ["time_ms", "c1_serving", "c0_serving", "n1_up", "n0_up",
                       "n1_violation", "n0_violation"]
    # the last row lands at the window's end, a multiple of the interval
    assert rows == ["0,0,0,1,1,0,0", "10,0,1,1,1,0,0", "20,0,2,0,1,0,1", "30,0,1,0,1,0,0"]
    assert [row.split(",")[0] for row in fold.series(7)[1]] == ["0", "7", "14", "21", "28"]
