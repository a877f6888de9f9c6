import importlib.util
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhoc_sim import kernel
from adhoc_sim.kernel import Dist, EventLog, RngStream, SimulationAbort, Simulator, json_line


def ndjson(log):
    return "".join(json_line(e.t, e.component, e.record) for e in log)


def make_sim(seed=1):
    return Simulator(seed=seed)


class Recorder:
    """Collects (t, tag) for assertions; ``event(tag)`` is a payload that
    records its tag when it fires."""

    def __init__(self, sim):
        self.sim = sim
        self.seen = []

    def event(self, tag):
        return lambda: self.seen.append((self.sim.now, tag))


class TestScheduling:
    def test_delay_adds_to_now(self):
        sim = make_sim()
        rec = Recorder(sim)
        sim.schedule(lambda: sim.schedule(rec.event("x"), "A", 10), "boot", 5)
        sim.run_until(100)
        assert rec.seen == [(15, "x")]

    def test_zero_delay_fires_after_already_queued_same_tick(self):
        sim = make_sim()
        rec = Recorder(sim)
        sim.schedule(rec.event("first"), "A", 5)

        def at_five():
            sim.schedule(rec.event("second"), "A", 0)

        # boot event also lands at t=5, after "first" is queued
        sim.schedule(at_five, "boot", 5)
        sim.run_until(10)
        assert rec.seen == [(5, "first"), (5, "second")]

    def test_equal_time_fires_in_seq_order(self):
        sim = make_sim()
        rec = Recorder(sim)
        sim.schedule(rec.event("seq0"), "A", 7)
        sim.schedule(rec.event("seq1"), "A", 7)
        sim.run_until(7)
        assert [p for _, p in rec.seen] == ["seq0", "seq1"]

    def test_cancelled_event_never_fires_and_leaves_no_log(self):
        sim = make_sim()
        rec = Recorder(sim)
        h = sim.schedule(rec.event("x"), "A", 10)
        sim.cancel(h)
        log = sim.run_until(100)
        assert rec.seen == []
        assert len(log) == 0

    def test_cancel_releases_the_payload_at_once(self):
        sim = make_sim()

        class Payload:
            def __call__(self):
                raise AssertionError("a cancelled event fired")

        payload = Payload()
        alive = weakref.ref(payload)
        h = sim.schedule(payload, "A", 10)
        del payload
        assert alive() is not None  # the queue holds it until cancelled
        sim.cancel(h)
        assert alive() is None  # freed before the entry reaches the queue head
        sim.run_until(100)

    def test_negative_delay_rejected(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.schedule(lambda: None, "A", -1)

    def test_empty_queue_advances_clock(self):
        sim = make_sim()
        log = sim.run_until(100)
        assert sim.now == 100
        assert len(log) == 0

    def test_run_until_is_inclusive_of_t_end(self):
        sim = make_sim()
        rec = Recorder(sim)
        sim.schedule(rec.event("at_end"), "A", 50)
        sim.schedule(rec.event("beyond"), "A", 51)
        sim.run_until(50)
        assert [p for _, p in rec.seen] == ["at_end"]
        sim.run_until(51)
        assert [p for _, p in rec.seen] == ["at_end", "beyond"]

    def test_backwards_run_rejected(self):
        sim = make_sim()
        sim.run_until(10)
        with pytest.raises(ValueError):
            sim.run_until(5)


class TestProcessingOrder:
    def test_total_order_strictly_increasing(self):
        sim = make_sim()
        order = []
        # interleaved times, insertion order deliberately scrambled
        for delay, tag in [(9, 0), (3, 1), (9, 2), (3, 3), (1, 4)]:
            sim.schedule(lambda key=(delay, tag): order.append(key), "A", delay)
        sim.run_until(20)
        assert order == sorted(order)

    def test_handler_exception_aborts_with_event_identified(self):
        sim = make_sim()

        def boom():
            raise RuntimeError("invariant breached")

        sim.schedule(lambda: None, "quiet", 1)
        sim.schedule(boom, "broken", 42)
        with pytest.raises(SimulationAbort) as ei:
            sim.run_until(100)
        assert ei.value.at == 42
        assert ei.value.target == "broken"
        assert ei.value.seq == 1
        assert isinstance(ei.value.cause, RuntimeError)

    def test_non_callable_payload_aborts_with_target_and_seq(self):
        sim = make_sim()
        sim.schedule(lambda: None, "quiet", 1)
        sim.schedule("not a callable", "A", 3)
        with pytest.raises(SimulationAbort) as ei:
            sim.run_until(10)
        assert (ei.value.at, ei.value.target, ei.value.seq) == (3, "A", 1)
        assert isinstance(ei.value.cause, TypeError)
        assert "'A'" in str(ei.value) and "seq=1" in str(ei.value)


class TestLog:
    def test_log_is_append_only_and_time_ordered(self):
        sim = make_sim()

        def tick(p):
            return lambda: sim.record("A", {"event": "tick", "p": p})

        sim.schedule(tick(1), "A", 5)
        sim.schedule(tick(2), "A", 9)
        log = sim.run_until(10)
        times = [e.t for e in log]
        assert times == sorted(times)
        assert [e.record["p"] for e in log] == [1, 2]

    def test_two_runs_same_seed_bit_identical_log(self):
        def run():
            sim = make_sim(seed=77)
            draw = Dist.exponential(100).sampler(sim.stream("churn"), ms=True)

            def tick(p):
                d = draw()
                sim.record("A", {"event": "tick", "draw": d, "n": p})
                if p < 20:
                    sim.schedule(lambda: tick(p + 1), "A", d)

            sim.schedule(lambda: tick(0), "A", 0)
            return ndjson(sim.run_until(10_000))

        assert run() == run()


# JSON values a log record may hold, with floats whose shortest repr is long
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.1 + 0.2, 1e-7, 1e22, -0.0, 5e-324])
    | st.text()
)
_json_values = st.recursive(
    _json_scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=20,
)


# records whose encoding has a trap: float reprs, tuples, nesting, None and
# bools, and strings that need escaping, non-ASCII ones among them
TRICKY_RECORDS = [
    {"f": [1e-7, 1e16, -0.0, 0.1 + 0.2, 5e-324, 1e22, 2.5, 7]},
    {"tuple": (1, "a", (2.5, None)), "nested": [[1, [2, [3, []]]], {}]},
    {"none": None, "yes": True, "no": False, "zero": 0, "big": 2**70},
    {"esc": 'q"uote\\back\nline\ttab\x00\x1f\x7f', "uni": "k\u00e9\u4e2d\U0001f600",
     "k\u00e9y": "v", "": ""},
]


class TestLogLine:
    @settings(max_examples=300, deadline=None)
    @given(
        t=st.integers(min_value=0, max_value=2**62),
        component=st.text(),
        record=st.dictionaries(st.text(max_size=12), _json_values, max_size=6),
    )
    def test_line_is_sorted_compact_json(self, t, component, record):
        expected = json.dumps(
            {"t": t, "component": component, "record": record},
            sort_keys=True,
            separators=(",", ":"),
        )
        assert json_line(t, component, record) == expected + "\n"

    @pytest.mark.parametrize("component", ["kv:c1", 'n\u00e9"\\\n'])
    @pytest.mark.parametrize("record", TRICKY_RECORDS)
    def test_line_equals_json_dumps(self, component, record):
        expected = json.dumps(
            {"component": component, "record": record, "t": 12},
            sort_keys=True,
            separators=(",", ":"),
        )
        assert json_line(12, component, record) == expected + "\n"

    def test_fallback_without_the_c_encoder_writes_the_same_lines(self, monkeypatch):
        # the kernel as imported where the json C accelerator is missing
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        spec = importlib.util.spec_from_file_location("kernel_without_c", kernel.__file__)
        fallback = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fallback)
        assert fallback._encode_record is not kernel._encode_record
        for record in TRICKY_RECORDS:
            assert fallback.json_line(5, "c", record) == json_line(5, "c", record)

    def test_ndjson_is_one_line_per_entry(self):
        sim = make_sim()
        sim.record("kv:c1", {"event": "get_ok", "key": "k\u00e9", "version": 2})
        sim.record("runner", {"x": [1.5, None, True]})
        assert ndjson(sim.log) == (
            '{"component":"kv:c1","record":{"event":"get_ok","key":"k\\u00e9","version":2},"t":0}\n'
            '{"component":"runner","record":{"x":[1.5,null,true]},"t":0}\n'
        )


class TestEventLogModes:
    RECORDS = [
        (0, "runner", {"event": "run_start", "seed": 1}),
        (5, "kv:c1", {"event": "get_ok", "key": "k1", "version": 2}),
        (5, "infra:n1", {"event": "violation_start", "node": "n1"}),
    ]

    def fill(self, log):
        for t, component, record in self.RECORDS:
            log.append(t, component, record)

    def test_streamed_log_keeps_no_entry_and_reads_the_file_back(self, tmp_path):
        path = tmp_path / "events.ndjson"
        log = EventLog(str(path))
        self.fill(log)
        assert log.entries == [] and len(log) == 3
        # iteration flushes what is written so far
        assert [(e.t, e.component, e.record) for e in log] == self.RECORDS
        log.close()
        memory = EventLog()
        self.fill(memory)
        assert path.read_text(encoding="utf-8") == ndjson(memory)
        assert list(log) == memory.entries

    def test_both_modes_feed_the_fold_each_record_in_order(self, tmp_path):
        for path in (None, str(tmp_path / "events.ndjson")):
            folded = []
            log = EventLog(path, lambda *entry: folded.append(entry))
            self.fill(log)
            log.close()
            assert folded == self.RECORDS

    def test_streamed_log_rejects_time_going_backwards(self, tmp_path):
        log = EventLog(str(tmp_path / "events.ndjson"))
        log.append(10, "A", {"event": "x"})
        with pytest.raises(ValueError):
            log.append(9, "A", {"event": "y"})
        log.close()
        assert len(log) == 1

    def test_discard_closes_and_deletes_the_file(self, tmp_path):
        path = tmp_path / "events.ndjson"
        log = EventLog(str(path))
        self.fill(log)
        log.discard()
        assert not path.exists()


UNIT = Dist.uniform(0.0, 1.0)  # its draws are the stream's fractions u themselves


class TestPinnedDraws:
    """Draw values recorded before the draw path was rewritten: a change to
    the hash input, the bit selection or the scaling moves them. Each kind's
    sampler reproduces the values that ``draw_ms`` and ``uniform01`` drew
    before every draw went through ``Dist.sampler``."""

    def test_next_u64(self):
        s = RngStream(7, "net")
        draws = [s.next_u64() for _ in range(1001)]
        assert draws[:3] == [2183517074776288701, 8096669387352946426, 7529825434352729667]
        assert draws[11] == 17917885822457176807
        assert draws[1000] == 5332160370269262886
        assert RngStream(0, "arrivals/w").next_u64() == 17538539077252439886

    def test_uniform01(self):
        s = RngStream(7, "net")
        draw = UNIT.sampler(s)
        assert [draw() for _ in range(6)] == [
            0.11836869780658221, 0.43892132698324704, 0.40819265471809174,
            0.10312120548572068, 0.24167075949385486, 0.838856190147159,
        ]

    @pytest.mark.parametrize(
        "dist, expected, draws_used",
        [
            (Dist.exponential(100.0), [13, 58, 52, 11, 28, 183], 6),
            (Dist.uniform(10.0, 50.0), [15, 28, 26, 14, 20, 44], 6),
            (Dist.constant(42.4), [42, 42, 42, 42, 42, 42], 0),
        ],
    )
    def test_draw_ms_per_kind(self, dist, expected, draws_used):
        s = RngStream(7, "net")
        draw = dist.sampler(s, ms=True)
        assert [draw() for _ in range(6)] == expected
        assert s.counter == draws_used
        # without ms the same draws, unrounded; a new sampler per draw
        # continues the same stream
        s, again = RngStream(7, "net"), RngStream(7, "net")
        draw = dist.sampler(s)
        values = [draw() for _ in range(6)]
        assert [max(0, round(x)) for x in values] == expected
        assert [dist.sampler(again)() for _ in range(6)] == values
        assert s.counter == again.counter == draws_used


class TestStreams:
    def test_constant_is_degenerate(self):
        sim = make_sim()
        st = sim.stream("s")
        assert Dist.constant(5).sampler(st)() == 5.0
        assert st.counter == 0

    def test_same_seed_and_id_yield_identical_sequences(self):
        a = RngStream(9, "net")
        b = RngStream(9, "net")
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_stream_isolation(self):
        # draws on A must not perturb B's sequence
        solo = UNIT.sampler(RngStream(3, "B"))
        expected = [solo() for _ in range(50)]

        a = UNIT.sampler(RngStream(3, "A"))
        b = UNIT.sampler(RngStream(3, "B"))
        got = []
        for i in range(50):
            for _ in range(i % 5):
                a()
            got.append(b())
        assert got == expected

    def test_exponential_mean_within_two_percent(self):
        # law-of-large-numbers check over 1e5 draws
        st = RngStream(12345, "lln")
        mean = 400.0
        n = 100_000
        draw = Dist.exponential(mean).sampler(st)
        total = sum(draw() for _ in range(n))
        assert abs(total / n - mean) / mean < 0.02

    def test_uniform_bounds_and_mean(self):
        st = RngStream(5, "u")
        draw = Dist.uniform(10.0, 20.0).sampler(st)
        xs = [draw() for _ in range(20_000)]
        assert all(10.0 <= x < 20.0 for x in xs)
        assert abs(sum(xs) / len(xs) - 15.0) < 0.1

    def test_invalid_parameters_reported(self):
        assert Dist.exponential(0).problems()
        assert Dist.exponential(-3).problems()
        assert Dist.uniform(5, 4).problems()
        assert not Dist.uniform(4, 4).problems()
        assert not Dist.constant(-1).problems()  # durations validated at use sites

    def test_dist_json_round_trip(self):
        for d in [
            Dist.exponential(3.5),
            Dist.uniform(0, 9),
            Dist.constant(2),
        ]:
            assert Dist.from_json(d.to_json()) == d
