"""CLI exit-code contract for malformed scenario documents: each is rejected
with exit code 1 and a diagnostic naming the offending path, never with a
traceback."""

import json

import pytest

from adhoc_sim import cli


def _doc():
    return {
        "run": {"until": 60_000, "seed": 1},
        "fleet": [
            {
                "node_id": "n1",
                "capacity": {"cpu": 4, "memory": 8192, "storage": 100000, "network": 100},
                "churn": {
                    "kind": "stochastic",
                    "up": {"kind": "exponential", "mean": 60_000},
                    "down": {"kind": "exponential", "mean": 5_000},
                },
            }
        ],
        "cloudlets": [{"cloudlet_id": "kv", "engine": "kv_store"}],
    }


def _fleet_not_list(doc):
    doc["fleet"] = {"n1": doc["fleet"][0]}


def _node_not_object(doc):
    doc["fleet"] = ["n1"]


def _until_not_numeric(doc):
    doc["run"]["until"] = "ten minutes"


def _infinite_mean(doc):
    doc["fleet"][0]["churn"]["up"]["mean"] = float("inf")


@pytest.mark.parametrize(
    "mutate, diagnostic",
    [
        (_fleet_not_list, "invalid: fleet: must be a list"),
        (_node_not_object, "invalid: fleet[0]: must be an object"),
        (_until_not_numeric, "invalid: run.until: must be an integer"),
        (_infinite_mean, "invalid: fleet[0].churn.up: exponential mean must be finite and > 0"),
    ],
)
def test_malformed_scenario_exits_1_with_diagnostic(mutate, diagnostic, tmp_path, capsys):
    doc = _doc()
    mutate(doc)
    path = tmp_path / "scenario.json"
    # an overflowing literal, as a hand-written document would carry it
    path.write_text(json.dumps(doc).replace("Infinity", "1e309"))
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INVALID
    assert diagnostic in err
    assert "Traceback" not in err


def test_valid_scenario_runs(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_doc()))
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""
