import random

import pytest

from _broker_oracle import best_available_placement

from adhoc_sim.engines import COMPUTE
from adhoc_sim.errors import NoLiveElement
from adhoc_sim.kernel import Dist, SimulationAbort
from adhoc_sim.membership import CloudletPolicy
from adhoc_sim.nodes import DOWN, ChurnModel, MarkovLoad, TraceLoad
from adhoc_sim.qos import (
    Agreement,
    Forecaster,
    ReservationRequest,
    REJECT_AVAILABILITY,
    REJECT_CAPACITY,
    availability_of,
)
from adhoc_sim.resources import ResourceVector as RV
from adhoc_sim.runner import Simulation

CAPACITY = RV(8, 8192, 100_000, 100)
OFFICE_CHURN = ChurnModel(Dist.exponential(3_600_000), Dist.exponential(400_000))


def fleet(n_nodes=3, churn=OFFICE_CHURN, seed=1, cloudlet_kind=COMPUTE):
    s = Simulation(seed=seed, qos_mode="oracle")
    for i in range(1, n_nodes + 1):
        s.add_node(f"n{i}", CAPACITY, churn=churn, reserve_margin=RV.zero())
    s.add_cloudlet("c1", cloudlet_kind, CloudletPolicy(target_replication=1))
    return s


def request(rid="r1", count=3, target=0.995, window=(100_000, 200_000),
            demand=RV(1.0, 512, 1024, 5)):
    return ReservationRequest(
        request_id=rid,
        cloudlet_id="c1",
        demand=demand,
        element_count=count,
        window=window,
        availability_target=target,
    )


def broker_record(s, event):
    """The last broker record of the event: admissions and rejections log the
    predicted availability there."""
    return [e.record for e in s.sim.log if e.record["event"] == event][-1]


class TestForecast:
    def test_oracle_closed_form(self):
        s = fleet()
        forecast = s.broker.forecaster.forecast_capacity((0, 1000))
        assert forecast["n1"].availability == pytest.approx(0.9)

    def test_no_down_time_means_full_availability(self):
        s = fleet(churn=ChurnModel(Dist.exponential(3_600_000), Dist.constant(0)))
        forecast = s.broker.forecaster.forecast_capacity((0, 1000))
        assert forecast["n1"].availability == 1.0

    def test_no_churn_model_means_full_availability(self):
        s = fleet(churn=None)
        forecast = s.broker.forecaster.forecast_capacity((0, 1000))
        assert forecast["n1"].availability == 1.0

    def test_estimator_converges_to_stationary(self):
        s = Simulation(seed=9)
        s.add_node("n1", CAPACITY, churn=OFFICE_CHURN, reserve_margin=RV.zero())
        forecaster = Forecaster(
            s.nodes, mode="estimator", trailing_window_ms=10**9,
            now_fn=lambda: s.sim.now,
        )
        s.start()
        s.run_until(10**9)
        forecast = forecaster.forecast_capacity((s.sim.now, s.sim.now + 1000))
        assert 0.89 <= forecast["n1"].availability <= 0.91

    def test_headroom_uses_user_load_means(self):
        s = Simulation(seed=1)
        trace = TraceLoad(((0, RV(2.0)), (50_000, RV(4.0))))
        s.add_node("n1", CAPACITY, user_load=trace, reserve_margin=RV(0.5))
        s.add_cloudlet("c1", COMPUTE, CloudletPolicy())
        forecast = s.broker.forecaster.forecast_capacity((0, 100_000))
        # mean demand over window = 3.0; capacity 8 - 3 - 0.5 margin
        assert forecast["n1"].expected_headroom.cpu == pytest.approx(4.5)

    def test_markov_stationary_mean(self):
        s = Simulation(seed=1)
        load = MarkovLoad(RV(1.0), RV(3.0), mean_idle_ms=10_000, mean_active_ms=10_000)
        s.add_node("n1", CAPACITY, user_load=load, reserve_margin=RV.zero())
        s.add_cloudlet("c1", COMPUTE, CloudletPolicy())
        forecast = s.broker.forecaster.forecast_capacity((0, 100_000))
        assert forecast["n1"].expected_headroom.cpu == pytest.approx(6.0)


class TestNegotiate:
    def test_three_nines_from_three_nodes(self):
        s = fleet(n_nodes=3)
        result = s.broker.negotiate(request(count=3, target=0.995))
        assert isinstance(result, Agreement)
        admitted = broker_record(s, "agreement_admitted")
        assert admitted["predicted_availability"] == pytest.approx(0.999)
        assert sorted(result.reserved_nodes()) == ["n1", "n2", "n3"]

    def test_two_nodes_cannot_reach_995(self):
        s = fleet(n_nodes=2)
        result = s.broker.negotiate(request(count=2, target=0.995))
        assert result is None
        rejected = broker_record(s, "agreement_rejected")
        assert rejected["reason"] == REJECT_AVAILABILITY
        assert rejected["predicted_availability"] == pytest.approx(0.99)

    def test_capacity_exhausted_when_calendar_full(self):
        s = fleet(n_nodes=3)
        big = RV(7.0)
        first = s.broker.negotiate(request(rid="r1", count=3, target=0.5, demand=big))
        assert isinstance(first, Agreement)
        second = s.broker.negotiate(request(rid="r2", count=3, target=0.5, demand=big))
        assert second is None
        rejected = broker_record(s, "agreement_rejected")
        assert rejected["request"] == "r2" and rejected["reason"] == REJECT_CAPACITY

    def test_disjoint_windows_share_nodes(self):
        s = fleet(n_nodes=3)
        big = RV(7.0)
        a = s.broker.negotiate(request(rid="r1", count=3, target=0.5, demand=big,
                                       window=(100_000, 200_000)))
        b = s.broker.negotiate(request(rid="r2", count=3, target=0.5, demand=big,
                                       window=(200_000, 300_000)))
        assert isinstance(a, Agreement) and isinstance(b, Agreement)

    def test_calendar_soundness_after_admissions(self):
        s = fleet(n_nodes=5)
        rng = random.Random(11)
        admitted = []
        for i in range(30):
            start = rng.randrange(0, 500_000)
            win = (start, start + rng.randrange(10_000, 200_000))
            req = request(
                rid=f"r{i}",
                count=rng.randint(1, 3),
                target=rng.choice([0.5, 0.9, 0.99]),
                demand=RV(round(rng.uniform(0.5, 4.0), 2), 512, 1024, 5),
                window=win,
            )
            res = s.broker.negotiate(req)
            if isinstance(res, Agreement):
                admitted.append(res)
        forecast = s.broker.forecaster.forecast_capacity((0, 10**6))
        for node_id in s.nodes:
            limit = forecast[node_id].expected_headroom
            for t in range(0, 700_000, 10_000):
                assert not s.broker.calendar.reserved_at(node_id, t).exceeds_any(limit)

    def test_matches_bruteforce_oracle(self):
        # fleets on both sides of 10 nodes, where an exhaustive subset search
        # once took over from the greedy placement
        rng = random.Random(314)
        for instance in range(40):
            n_nodes = rng.randint(1, 5) if instance % 2 else rng.randint(11, 14)
            s = Simulation(seed=instance)
            for i in range(1, n_nodes + 1):
                up = rng.randrange(600_000, 7_200_000)
                down = rng.randrange(0, 1_200_000)
                s.add_node(
                    f"n{i}", CAPACITY,
                    churn=ChurnModel(Dist.exponential(up), Dist.exponential(down)),
                    reserve_margin=RV.zero(),
                )
            s.add_cloudlet("c1", COMPUTE, CloudletPolicy())
            for r in range(rng.randint(1, 4)):
                start = rng.randrange(0, 400_000)
                req = request(
                    rid=f"r{r}",
                    count=rng.randint(1, min(4, n_nodes)),
                    target=rng.choice([0.3, 0.8, 0.95, 0.999]),
                    demand=RV(round(rng.uniform(0.5, 6.0), 2), 512, 1024, 5),
                    window=(start, start + rng.randrange(20_000, 300_000)),
                )
                snapshot = {
                    node: [(e[0], e[1], e[2]) for e in entries]
                    for node, entries in s.broker.calendar.entries.items()
                }
                forecast = s.broker.forecaster.forecast_capacity(req.window)
                per_node = {
                    nid: (f.availability, f.expected_headroom)
                    for nid, f in forecast.items()
                }
                _nodes, best = best_available_placement(per_node, snapshot, req)
                result = s.broker.negotiate(req)
                if best is None:
                    assert result is None, (instance, req)
                    assert broker_record(s, "agreement_rejected")["reason"] == REJECT_CAPACITY
                    continue
                admitted = best >= req.availability_target
                assert isinstance(result, Agreement) == admitted, (instance, req)
                record = broker_record(
                    s, "agreement_admitted" if admitted else "agreement_rejected"
                )
                assert record["request"] == req.request_id
                assert record["predicted_availability"] == pytest.approx(best, abs=1e-12)


class TestDispatch:
    def deployed(self, reserve=True):
        s = fleet(n_nodes=3)
        eids = [s.deploy_element(f"n{i}", "c1", RV(1.0, 512, 1024, 5)) for i in (1, 2, 3)]
        s.run_until(2100)
        agreement = None
        if reserve:
            result = s.broker.negotiate(
                request(count=1, target=0.5, window=(s.sim.now, s.sim.now + 100_000))
            )
            assert isinstance(result, Agreement)
            s.run_until(s.sim.now + 3000)  # pre-deploy completes
            agreement = result
        return s, eids, agreement

    def test_reserved_first_even_with_less_headroom(self):
        s, eids, agreement = self.deployed()
        reserved_eid = agreement.reserved_elements()[0]
        assert s.dispatcher.dispatch("c1", agreement.agreement_id) == reserved_eid

    def test_dead_reserved_falls_back_to_max_headroom(self):
        s, eids, agreement = self.deployed()
        reserved_node = agreement.reserved_nodes()[0]
        # crash the reserved node; remaining nodes differ in headroom
        other = [n for n in ("n1", "n2", "n3") if n != reserved_node]
        s.nodes[other[0]].user_demand = RV(5.0)
        s.nodes[reserved_node]._apply_liveness(DOWN)
        picked = s.dispatcher.dispatch("c1", agreement.agreement_id)
        el = s.cloudlets["c1"].elements[picked]
        assert el.node_id == other[1]

    def test_best_effort_max_headroom_tiebreak(self):
        s, eids, _ = self.deployed(reserve=False)
        s.nodes["n2"].user_demand = RV(4.0)
        picked = s.dispatcher.dispatch("c1")
        el = s.cloudlets["c1"].elements[picked]
        assert el.node_id in ("n1", "n3")
        assert picked == min(e for e in eids if s.cloudlets["c1"].elements[e].node_id != "n2")

    def test_no_live_elements(self):
        s = fleet(n_nodes=1)
        with pytest.raises(NoLiveElement):
            s.dispatcher.dispatch("c1")

    def test_unknown_agreement_warns_and_falls_back(self):
        s, eids, _ = self.deployed(reserve=False)
        picked = s.dispatcher.dispatch("c1", agreement_id="a9999")
        assert picked in eids
        warnings = [
            e for e in s.sim.log if e.record.get("event") == "unknown_agreement"
        ]
        assert len(warnings) == 1


class TestRelease:
    def test_window_end_auto_expires(self):
        s = fleet(n_nodes=3)
        result = s.broker.negotiate(request(count=3, target=0.5, window=(50_000, 90_000)))
        assert isinstance(result, Agreement)
        s.run_until(90_000)
        assert result.state == "expired"
        assert s.broker.calendar.reserved_at(result.reserved_nodes()[0], 60_000) == RV.zero()

    def test_a_programming_error_in_a_pre_deploy_aborts_the_run(self):
        # only NodeDown and InsufficientHeadroom leave a reserved slot empty
        s = fleet(n_nodes=3)

        def broken(node_id, cloudlet_id, demand):
            raise KeyError(node_id)

        s.broker.deploy_fn = broken
        assert isinstance(s.broker.negotiate(request(target=0.5)), Agreement)
        with pytest.raises(SimulationAbort) as ei:
            s.run_until(200_000)
        assert isinstance(ei.value.__cause__, KeyError)
        assert not [e for e in s.sim.log if e.record["event"] == "pre_deploy_failed"]

    def test_availability_of(self):
        assert availability_of([0.9, 0.9, 0.9]) == pytest.approx(0.999)
        assert availability_of([]) == 0.0
