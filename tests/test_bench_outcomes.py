"""The outcome grid of bench/outcomes.py: per workload and metric, each
side's mean and worst run and the runs the head moved, in the direction the
metric declares; per workload, the seeds whose mean failed share rose;
one short benchmark document run by the same tree imported twice reads no
difference on any metric; and a run records its adaptation actions by kind,
its downgrades, the repairs execution refused and the tasks still in
flight."""

import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import ab  # noqa: E402
import generate  # noqa: E402
import outcomes  # noqa: E402


def row(workload, base, head):
    return {"workload": workload, "base": base, "head": head}


def test_summary_counts_the_runs_each_direction_moved():
    rows = [
        row("w", {"lat": 10, "avail": 0.9, "repairs": 3}, {"lat": 8, "avail": 0.8, "repairs": 5}),
        row("w", {"lat": 12, "avail": 0.7, "repairs": 4}, {"lat": 12, "avail": 0.9, "repairs": 1}),
        row("w", {"lat": 9, "avail": 1.0, "repairs": 0}, {"lat": 11, "avail": 1.0, "repairs": 0}),
    ]
    lower = outcomes.summarize(rows, "lat", "lower")
    assert lower["base"] == {"mean": pytest.approx(31 / 3), "worst": 12}
    assert lower["head"] == {"mean": pytest.approx(31 / 3), "worst": 12}
    assert (lower["improved"], lower["worsened"], lower["runs"]) == (1, 1, 3)
    higher = outcomes.summarize(rows, "avail", "higher")
    assert (higher["base"]["worst"], higher["head"]["worst"]) == (0.7, 0.8)
    assert (higher["improved"], higher["worsened"]) == (1, 1)
    neither = outcomes.summarize(rows, "repairs", None)
    assert (neither["higher"], neither["lower"], neither["head"]["worst"]) == (1, 1, 5)


def test_summary_leaves_out_runs_without_a_value():
    rows = [row("w", {"p50": None}, {"p50": 40}), row("w", {"p50": 30}, {"p50": 20})]
    summary = outcomes.summarize(rows, "p50", "lower")
    assert summary["runs"] == 1 and summary["improved"] == 1
    assert outcomes.summarize(rows[:1], "p50", "lower") == {"better": "lower", "runs": 0}


def test_summary_groups_by_workload_and_covers_every_metric():
    figures = dict.fromkeys(outcomes.METRICS, 1)
    rows = [row("a", figures, figures), row("b", figures, dict(figures, kv_failed=2))]
    grid = outcomes.summarize_grid(rows)
    assert list(grid) == ["a", "b"] and set(grid["a"]) == set(outcomes.METRICS)
    assert grid["a"]["kv_failed"]["worsened"] == 0
    assert grid["b"]["kv_failed"]["worsened"] == 1
    backlog = outcomes.summarize_grid([row("a", figures, dict(figures, tasks_in_flight=0))])
    assert backlog["a"]["tasks_in_flight"] == {
        "better": "lower", "runs": 1, "base": {"mean": 1, "worst": 1},
        "head": {"mean": 0, "worst": 0}, "improved": 1, "worsened": 0,
    }


def test_seeds_whose_mean_failed_share_rose():
    """A seed rises when the mean over its replications does, even if one
    replication fell; one that moved only within its mean does not."""
    def run(workload, seed, base, head):
        return {"workload": workload, "seed": seed,
                "base": {"failed_share": base}, "head": {"failed_share": head}}

    rows = [
        run("a", 1, 0.10, 0.08), run("a", 1, 0.10, 0.13),  # mean 0.10 -> 0.105
        run("a", 2, 0.10, 0.05), run("a", 2, 0.10, 0.15),  # mean equal
        run("a", 3, 0.20, 0.10),
        run("b", 1, 0.00, 0.01),
    ]
    assert outcomes.failed_share_rose(rows) == {
        "a": [{"seed": 1, "base": pytest.approx(0.10), "head": pytest.approx(0.105)}],
        "b": [{"seed": 1, "base": 0.0, "head": 0.01}],
    }
    assert outcomes.failed_share_rose(rows[2:5]) == {"a": []}


def test_a_tree_against_itself_reads_no_difference(tmp_path):
    doc = tmp_path / "kv_read_churn.json"
    doc.write_bytes(generate.dump(generate.generate("kv_read_churn", 7, 0, run_ms=120_000)))
    names = {side: f"outcomes_self_{side}" for side in ab.SIDES}
    try:
        for side in ab.SIDES:
            ab.load_package(ROOT, names[side])
        rows = outcomes.run_grid(names, [{"workload": "kv_read_churn", "path": str(doc)}])
    finally:
        for name in list(sys.modules):
            if name.split(".")[0] in names.values():
                del sys.modules[name]
    [only] = rows
    assert only["base"] == only["head"]
    assert only["base"]["kv_ok"] > 0 and only["base"]["tasks_completed"] > 0
    for summary in outcomes.summarize_grid(rows)["kv_read_churn"].values():
        moved = {k: summary.get(k) for k in ("improved", "worsened", "higher", "lower")}
        assert not any(moved.values()), summary


MIXED = os.path.join(ROOT, "tests", "golden", "mixed.json")


def test_a_run_records_its_adaptation_actions_and_dropped_repairs():
    """The mixed golden executes 18 repairs and a rule add on its kv
    cloudlet and an add on its compute one."""
    out = outcomes.run_document("adhoc_sim", MIXED)
    assert {k: out[k] for k in ("actions.add", "actions.remove", "actions.rereplicate",
                                "action_downgrades", "repairs_run", "repairs_dropped")} == {
        "actions.add": 2, "actions.remove": 0, "actions.rereplicate": 18,
        "action_downgrades": 0, "repairs_run": 18, "repairs_dropped": 0,
    }
    assert out["tasks_submitted"] == (
        out["tasks_completed"] + out["tasks_lost"] + out["tasks_in_flight"]
    )


def test_a_refused_repair_counts_as_dropped(monkeypatch):
    """run_document wraps the controller method it finds and puts it back."""
    from adhoc_sim.adaptation import AdaptationController, Rereplicate

    execute = AdaptationController._execute_action

    def refuse_repairs(controller, action):
        if isinstance(action, Rereplicate):
            return False, "refused"
        return execute(controller, action)

    monkeypatch.setattr(AdaptationController, "_execute_action", refuse_repairs)
    out = outcomes.run_document("adhoc_sim", MIXED)
    # a refused key stays deficient, so each later epoch plans it again
    assert out["repairs_dropped"] == out["action_downgrades"] > 18
    assert (out["actions.rereplicate"], out["repairs_run"]) == (0, 0)
    assert AdaptationController._execute_action is refuse_repairs
