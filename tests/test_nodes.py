import pytest

from adhoc_sim.errors import NodeDown
from adhoc_sim.kernel import Dist, Simulator
from adhoc_sim.nodes import (
    DOWN,
    UP,
    ChurnModel,
    MarkovLoad,
    Node,
    ScriptedChurn,
    TraceLoad,
)
from adhoc_sim.resources import ResourceVector as RV


def cpu_mem(cpu, mem=0.0):
    return RV(cpu=cpu, memory=mem)


class TestResourceVector:
    def test_arithmetic_and_clamp(self):
        a = RV(4, 8192, 100, 10)
        b = RV(1.5, 2048, 200, 4)
        assert (a - b).clamped() == RV(2.5, 6144, 0, 6)
        assert a + b == RV(5.5, 10240, 300, 14)
        assert a.scale(0.5) == RV(2, 4096, 50, 5)

    def test_componentwise_comparison(self):
        assert RV(1, 1, 1, 1).le(RV(2, 1, 1, 1))
        assert not RV(1, 2, 1, 1).le(RV(2, 1, 1, 1))
        assert RV(1, 2, 1, 1).exceeds_any(RV(2, 1, 1, 1))

    def test_dict_round_trip(self):
        v = RV(1.5, 2048, 0, 3)
        assert RV.from_dict(v.as_dict()) == v
        with pytest.raises(ValueError):
            RV.from_dict({"cpu": 1, "disk": 2})


class TestChurn:
    def test_constant_up_duration_transitions_exactly(self):
        sim = Simulator(seed=1)
        node = Node(
            sim,
            "n1",
            RV(4),
            churn=ChurnModel(Dist.constant(3_600_000), Dist.constant(400_000)),
        )
        node.start()
        sim.run_until(3_599_999)
        assert node.liveness == UP
        sim.run_until(3_600_000)
        assert node.liveness == DOWN
        sim.run_until(4_000_000)
        assert node.liveness == UP

    def test_next_churn_transition_alternates(self):
        # each phase's length is drawn from its own distribution as it begins
        sim = Simulator(seed=1)
        node = Node(sim, "n1", RV(4), churn=ChurnModel(Dist.constant(100), Dist.constant(7)))
        node.start()
        sim.run_until(300)
        assert list(node.liveness_history) == [
            (0, UP), (100, DOWN), (107, UP), (207, DOWN), (214, UP),
        ]

    def test_long_run_uptime_matches_closed_form(self):
        # E_up/(E_up+E_down) = 0.9; measured over 4e9 ms of exponential churn
        sim = Simulator(seed=42)
        node = Node(
            sim,
            "n1",
            RV(4),
            churn=ChurnModel(Dist.exponential(3_600_000), Dist.exponential(400_000)),
        )
        node.start()
        horizon = 4_000_000_000
        sim.run_until(horizon)
        assert node.uptime_fraction(0, horizon) == pytest.approx(0.9, abs=0.01)

    def test_zero_down_duration_never_observed_down(self):
        sim = Simulator(seed=3)
        node = Node(
            sim, "n1", RV(4), churn=ChurnModel(Dist.constant(1000), Dist.constant(0))
        )
        node.start()
        sim.run_until(100_000)
        assert node.uptime_fraction(0, 100_000) == 1.0

    def test_liveness_strictly_alternates(self):
        sim = Simulator(seed=5)
        node = Node(
            sim,
            "n1",
            RV(4),
            churn=ChurnModel(Dist.exponential(5000), Dist.exponential(1000)),
        )
        node.start()
        sim.run_until(1_000_000)
        states = [lv for _, lv in node.liveness_history]
        for a, b in zip(states, states[1:]):
            assert a != b

    def test_scripted_churn(self):
        sim = Simulator(seed=1)
        node = Node(sim, "n1", RV(4), churn=ScriptedChurn(((500, DOWN), (900, UP))))
        node.start()
        sim.run_until(600)
        assert node.liveness == DOWN
        sim.run_until(1000)
        assert node.liveness == UP
        assert node.up_ms(0, 1000) == 600


class TestUserLoad:
    def trace_node(self):
        sim = Simulator(seed=1)
        trace = TraceLoad(((0, cpu_mem(1.5)), (1000, cpu_mem(3.0))))
        node = Node(sim, "n1", RV(4, 8192), user_load=trace, reserve_margin=RV.zero())
        node.start()
        return sim, node

    def test_trace_value_before_breakpoint(self):
        sim, node = self.trace_node()
        sim.run_until(999)
        assert node.user_demand.cpu == 1.5

    def test_trace_breakpoint_inclusive(self):
        sim, node = self.trace_node()
        sim.run_until(1000)
        assert node.user_demand.cpu == 3.0

    def test_markov_equal_demands_is_constant(self):
        sim = Simulator(seed=9)
        d = cpu_mem(2.0, 1024)
        node = Node(
            sim,
            "n1",
            RV(4, 8192),
            user_load=MarkovLoad(d, d, mean_idle_ms=1000, mean_active_ms=5000),
        )
        node.start()
        for t in (0, 1234, 50_000, 400_000):
            sim.run_until(t)
            assert node.user_demand == d

    def test_markov_mean_demand_near_stationary(self):
        sim = Simulator(seed=11)
        load = MarkovLoad(cpu_mem(0.5), cpu_mem(3.5), mean_idle_ms=20_000, mean_active_ms=10_000)
        node = Node(sim, "n1", RV(4, 8192), user_load=load)
        node.start()
        horizon = 300_000_000
        sim.run_until(horizon)
        measured = node.mean_demand(0, horizon)
        expected = load.stationary_mean()
        assert measured.cpu == pytest.approx(expected.cpu, rel=0.05)

    def test_trace_mean_over_window(self):
        trace = TraceLoad(((0, cpu_mem(1.0)), (1000, cpu_mem(3.0))))
        assert trace.mean_over(0, 2000).cpu == pytest.approx(2.0)
        assert trace.mean_over(500, 1500).cpu == pytest.approx(2.0)
        assert trace.mean_over(1000, 4000).cpu == pytest.approx(3.0)


class TestHeadroom:
    def test_arithmetic(self):
        sim = Simulator(seed=1)
        node = Node(sim, "n1", RV(4, 8192), reserve_margin=RV(0.5, 512))
        node.user_demand = RV(1.5, 2048)
        assert node.headroom() == RV(2.0, 5632)

    def test_clamped_at_zero_when_user_takes_all(self):
        sim = Simulator(seed=1)
        node = Node(sim, "n1", RV(4, 8192), reserve_margin=RV(0.5, 512))
        node.user_demand = RV(4, 8192)
        assert node.headroom() == RV.zero()

    def test_identity_with_zero_margin_and_demand(self):
        sim = Simulator(seed=1)
        node = Node(sim, "n1", RV(4, 8192), reserve_margin=RV.zero())
        assert node.headroom() == RV(4, 8192)

    def test_down_node_raises(self):
        sim = Simulator(seed=1)
        node = Node(sim, "n1", RV(4), churn=ScriptedChurn(((10, DOWN),)))
        node.start()
        sim.run_until(20)
        with pytest.raises(NodeDown):
            node.headroom()

    def test_follows_direct_demand_assignment(self):
        sim = Simulator(seed=1)
        node = Node(sim, "n1", RV(4, 8192), churn=ScriptedChurn(((10, DOWN), (20, UP))),
                    reserve_margin=RV(0.5, 512))
        node.start()
        assert node.headroom() == RV(3.5, 7680)
        node.user_demand = RV(1.5, 2048)
        assert node.headroom() == RV(2.0, 5632)
        sim.run_until(15)
        with pytest.raises(NodeDown):
            node.headroom()
        node.user_demand = RV(3.0, 1024)
        with pytest.raises(NodeDown):
            node.headroom()
        sim.run_until(25)
        assert node.headroom() == RV(0.5, 6656)

    def test_default_margin_is_ten_percent(self):
        sim = Simulator(seed=1)
        node = Node(sim, "n1", RV(4, 8192, 1000, 100))
        assert node.reserve_margin == RV(0.4, 819.2, 100, 10)

    def test_headroom_never_negative(self):
        sim = Simulator(seed=13)
        node = Node(
            sim,
            "n1",
            RV(2, 1024),
            user_load=MarkovLoad(cpu_mem(0.1), cpu_mem(2.0, 1024), 5000, 5000),
        )
        node.start()
        for t in range(0, 200_000, 7_000):
            sim.run_until(t)
            assert min(node.headroom()) >= 0
