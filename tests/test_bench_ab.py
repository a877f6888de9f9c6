"""The pair statistics of bench/ab.py: pairs won by direction, ties counted
for neither side, quartiles taken inclusively, the gain-claim rule, events/s
as traced event counts over untraced event-loop seconds, and the per-span
call counts of the traced runs, identical only when both trees made the same
calls on every document. In-process pairs: each tree's package imported
under its own name, the first side alternating, and the head/base ratios'
quartiles and wins."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import ab  # noqa: E402


def test_pairs_won_follow_the_direction_and_ties_count_for_neither():
    pairs = [{"base": 10.0 + i, "head": 8.0 + i} for i in range(8)]
    pairs += [{"base": 5.0, "head": 5.0}, {"base": 4.0, "head": 6.0}]
    lower = ab.summarize(pairs, "lower")
    assert (lower["head_won"], lower["ties"], lower["pairs"]) == (8, 1, 10)
    higher = ab.summarize(pairs, "higher")
    assert (higher["head_won"], higher["ties"]) == (1, 1)
    assert lower["base"]["median"] == 12.5 and lower["head"]["median"] == 10.5


def test_claim_holds_when_the_head_wins_nine_of_ten_beyond_the_base_iqr():
    pairs = [{"base": 10.0 + 0.1 * i, "head": 8.0 + 0.1 * i} for i in range(9)]
    pairs.append({"base": 8.0, "head": 9.0})
    lower = ab.summarize(pairs, "lower")
    assert lower["head_won"] == 9 and lower["claim_holds"]
    assert not ab.summarize(pairs, "higher")["claim_holds"]
    flipped = [{"base": p["head"], "head": p["base"]} for p in pairs]
    assert ab.summarize(flipped, "higher")["claim_holds"]


def test_claim_fails_on_ties():
    pairs = [{"base": 5.0, "head": 5.0}] * 10
    summary = ab.summarize(pairs, "lower")
    assert (summary["head_won"], summary["ties"], summary["claim_holds"]) == (0, 10, False)


def test_claim_fails_when_the_median_gap_is_within_the_base_iqr():
    # the head wins every pair, by less than the base's own spread
    pairs = [{"base": float(b), "head": b - 0.5} for b in range(10, 20)]
    summary = ab.summarize(pairs, "lower")
    assert summary["head_won"] == 10
    assert summary["base"]["median"] - summary["head"]["median"] == 0.5
    assert summary["base"]["q3"] - summary["base"]["q1"] == 4.5
    assert not summary["claim_holds"]


def test_quartiles_are_inclusive():
    assert ab.quartiles([1, 2, 3, 4, 5]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}


def test_events_per_s_divides_event_counts_by_loop_seconds():
    spans = {"scenario.load": 0.25, "runner.build": 0.5, "adaptation.aggregate": 0.125,
             "cli.write": 0.125}
    measures = [
        {"host_s": host_s, "total_s": spans, "run_until_ms": 1_800_000,
         "setup_s": [0.01], "peak_rss_mb": 20.0}
        for host_s in (3.0, 5.0)
    ]
    assert ab.loop_s(measures[0]) == 2.0
    values = ab._pair_values(measures, [1000, 3000])
    assert values["kernel.events_per_s"] == pytest.approx(4000 / 6.0)
    assert values["host_s_per_sim_h"] == pytest.approx(8.0)
    assert ab.METRICS["kernel.events_per_s"] == ("1/s", "higher")


def fake_child(traced_calls):
    """A stand-in for ab._run_child: traced runs return the given span call
    counts per tree, untraced runs the same outputs and outcomes on both."""
    def run_child(tree, doc, out, trace=False):
        if trace:
            return {"calls": dict(traced_calls[tree][doc])}
        spans = dict.fromkeys(ab.NOT_LOOP, 0.0)
        return {"host_s": 2.0, "total_s": spans, "run_until_ms": 3_600_000,
                "setup_s": [0.1], "peak_rss_mb": 20.0,
                "outputs": dict.fromkeys(ab.OUTPUTS, "digest"),
                **dict.fromkeys(ab.OUTCOMES, {})}
    return run_child


@pytest.mark.parametrize("head_select_calls,same", [(120, True), (121, False)])
def test_span_calls_are_recorded_per_tree_and_document(monkeypatch, tmp_path,
                                                       head_select_calls, same):
    docs = ["d0", "d1"]
    base = {"d0": {"kernel.dispatch": 500, "adaptation.select": 120},
            "d1": {"kernel.dispatch": 800, "adaptation.select": 120}}
    head = {"d0": {"kernel.dispatch": 500, "adaptation.select": head_select_calls},
            "d1": dict(base["d1"])}
    monkeypatch.setattr(ab, "_run_child", fake_child({"B": base, "H": head}))
    rows, identical, calls = ab.compare({"base": "B", "head": "H"}, docs, 2, str(tmp_path))
    assert calls == {"base": [base["d0"], base["d1"]], "head": [head["d0"], head["d1"]]}
    assert identical["span_calls"] is same
    assert all(identical[name] for name in ab.OUTPUTS + ("simulated_outcomes",))
    assert identical["outcomes_not_identical"] == []
    # events/s still reads the kernel's events from the traced counts
    assert [row["base"]["kernel.events_per_s"] for row in rows] == [1300 / 4.0] * 2


def test_differing_entries_name_each_leaf_that_differs():
    base = {"kv": {"issued": 5, "failures": {"other": 0}}, "bytes": 10, "gone": 1}
    head = {"kv": {"issued": 5, "failures": {"other": 2}}, "bytes": 12, "new": 1}
    assert ab.differing_entries("counts", base, head) == [
        "counts.bytes", "counts.gone", "counts.kv.failures.other", "counts.new",
    ]
    assert ab.differing_entries("kv", base, dict(base)) == []


def test_ratios_summarize_each_pair_as_head_over_base():
    rows = [{"first": "base", "base": 2.0, "head": head} for head in (1.0, 1.5, 2.0, 3.0, 1.8)]
    summary = ab.summarize_ratios(rows)
    assert summary["head_over_base"] == {"q1": 0.75, "median": 0.9, "q3": 1.0}
    # a ratio of exactly 1 is a tie, not a win
    assert (summary["head_won"], summary["pairs"], summary["values"]) == (3, 5, rows)


class FakeCli:
    def __init__(self, side, calls, code=0):
        self.side, self.calls, self.code = side, calls, code

    def main(self, argv):
        self.calls.append((self.side, argv[argv.index("--scenario") + 1]))
        return self.code


def test_inproc_pairs_alternate_the_side_that_runs_first(tmp_path):
    calls = []
    clis = {side: FakeCli(side, calls) for side in ab.SIDES}
    rows = ab.inproc_pairs(clis, ["d0", "d1"], 3, str(tmp_path))
    assert [row["first"] for row in rows] == ["base", "head", "base"]
    base, head = ([(side, "d0"), (side, "d1")] for side in ab.SIDES)
    assert calls == base + head + head + base + base + head
    assert all(row[side] >= 0.0 for row in rows for side in ab.SIDES)
    clis["head"].code = 1
    with pytest.raises(RuntimeError):
        ab.inproc_pairs(clis, ["d0"], 2, str(tmp_path))


def test_load_package_imports_each_tree_under_its_own_name(tmp_path):
    for answer, side in enumerate(ab.SIDES):
        package = tmp_path / side / "src" / "adhoc_sim"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "answer.py").write_text(f"ANSWER = {answer}\n")
        (package / "cli.py").write_text(
            "from .answer import ANSWER\n\n\ndef main(argv=None):\n    return ANSWER\n"
        )
    names = {side: f"fake_adhoc_{side}" for side in ab.SIDES}
    try:
        clis = {side: ab.load_package(str(tmp_path / side), names[side]) for side in ab.SIDES}
        assert [clis[side].main() for side in ab.SIDES] == [0, 1]
        assert clis["head"].__name__ == "fake_adhoc_head.cli"
    finally:
        for name in list(sys.modules):
            if name.split(".")[0] in names.values():
                del sys.modules[name]
