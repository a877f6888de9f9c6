"""StepHistory against the interval scans it replaced.

The reference functions below are the loops that ``Node.up_ms``,
``Node.mean_demand`` and ``ComputeElementEngine.busy_ms`` ran over a plain
list of ``(t, value)`` breakpoints, and the loops ``TraceLoad`` ran over its
points. Random histories (with repeated timestamps, so zero-length
segments) are queried on windows before, inside, straddling and after their
breakpoints; integer results must be equal and mean demand ``==`` the
reference vector, bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from adhoc_sim.engines import ComputeElementEngine
from adhoc_sim.kernel import Simulator
from adhoc_sim.nodes import DOWN, UP, Node, TraceLoad
from adhoc_sim.resources import ResourceVector as RV


def ref_flag_ms(hist, start, end, on):
    total = 0
    for i, (t, value) in enumerate(hist):
        seg_start = max(t, start)
        seg_end = hist[i + 1][0] if i + 1 < len(hist) else end
        seg_end = min(seg_end, end)
        if value == on and seg_end > seg_start:
            total += seg_end - seg_start
    return total


def ref_mean_demand(hist, start, end, current):
    if end <= start:
        return current
    total = RV.zero()
    for i, (t, demand) in enumerate(hist):
        seg_start = max(t, start)
        seg_end = hist[i + 1][0] if i + 1 < len(hist) else end
        seg_end = min(seg_end, end)
        if seg_end > seg_start:
            total = total + demand.scale(seg_end - seg_start)
    return total.scale(1.0 / (end - start))


def ref_trace_demand_at(points, t):
    current = RV.zero()
    for pt, demand in points:
        if pt <= t:
            current = demand
        else:
            break
    return current


def ref_trace_mean_over(points, start, end):
    if end <= start:
        return ref_trace_demand_at(points, start)
    total = RV.zero()
    cursor = start
    current = ref_trace_demand_at(points, start)
    for pt, demand in points:
        if pt <= start:
            continue
        if pt >= end:
            break
        total = total + current.scale(pt - cursor)
        cursor = pt
        current = demand
    total = total + current.scale(end - cursor)
    return total.scale(1.0 / (end - start))


def breakpoints(values):
    """(t, value) lists with non-decreasing times from 0; a step of 0 repeats
    a timestamp."""
    step = st.tuples(st.integers(0, 40), values)

    def accumulate(steps):
        t, out = 0, []
        for dt, value in steps:
            t += dt
            out.append((t, value))
        return out

    return st.lists(step, max_size=30).map(accumulate)


windows = st.lists(
    st.tuples(st.integers(-50, 1300), st.integers(-50, 1300)), min_size=1, max_size=25
)
amounts = st.floats(0, 64, allow_nan=False, allow_infinity=False)
demands = st.builds(RV, amounts, amounts, amounts, amounts)


@settings(max_examples=150, deadline=None)
@given(breakpoints(st.sampled_from([UP, DOWN])), windows)
def test_up_ms_matches_scan(points, queries):
    node = Node(Simulator(seed=1), "n1", RV(4))
    for t, liveness in points:
        node.liveness_history.append(t, liveness)
    hist = [(0, UP)] + points
    assert list(node.liveness_history) == hist
    for start, end in queries:
        expected = ref_flag_ms(hist, start, end, UP) if end > start else 0
        assert node.up_ms(start, end) == expected
        fraction = expected / (end - start) if end > start else 0.0
        assert node.uptime_fraction(start, end) == fraction


@settings(max_examples=150, deadline=None)
@given(breakpoints(st.booleans()), windows)
def test_busy_ms_matches_scan(points, queries):
    engine = ComputeElementEngine(Simulator(seed=1), None, None)
    for t, busy in points:
        engine.busy_history.append(t, busy)
    # the scan started from an empty history
    for start, end in queries:
        assert engine.busy_ms(start, end) == ref_flag_ms(points, start, end, True)


@settings(max_examples=150, deadline=None)
@given(breakpoints(demands), windows)
def test_mean_demand_matches_scan(points, queries):
    node = Node(Simulator(seed=1), "n1", RV(64, 64, 64, 64))
    for t, demand in points:
        node.demand_history.append(t, demand)
        node.user_demand = demand
    hist = [(0, RV.zero())] + points
    for start, end in queries:
        expected = ref_mean_demand(hist, start, end, node.user_demand)
        assert node.mean_demand(start, end) == expected


# trace points as the scenario schema admits them: times >= 0, strictly increasing
trace_points = st.lists(
    st.tuples(st.integers(0, 1200), demands), max_size=30, unique_by=lambda p: p[0]
).map(lambda points: tuple(sorted(points, key=lambda p: p[0])))


@settings(max_examples=300, deadline=None)
@given(trace_points, windows)
def test_trace_load_matches_scan(points, queries):
    trace = TraceLoad(points)
    for start, end in queries:
        assert trace.demand_at(start) == ref_trace_demand_at(points, start)
        assert trace.mean_over(start, end) == ref_trace_mean_over(points, start, end)
