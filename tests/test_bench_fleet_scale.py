"""The document builder of bench/fleet_scale.py: the compute_fleet template
scaled out to N nodes, its compute members and task rate scaled by N/100,
no reservations and 10 simulated minutes; a valid document that runs
through perfbench's child, untraced and traced."""

import json
import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "bench"))
import fleet_scale  # noqa: E402
from adhoc_sim.scenario import parse_scenario  # noqa: E402


def test_fleet_document_scales_the_template_to_200_nodes(tmp_path):
    doc = fleet_scale.fleet_document(200)
    template = fleet_scale.generate.generate(*fleet_scale.TEMPLATE, run_ms=fleet_scale.RUN_MS)
    ids = [node["node_id"] for node in doc["fleet"]]
    assert ids == [f"n{i:05d}" for i in range(1, 201)] == sorted(ids)
    for i in (0, 99, 100, 199):
        assert dict(doc["fleet"][i], node_id=None) == dict(template["fleet"][i % 100],
                                                            node_id=None)
    compute = next(c for c in doc["cloudlets"] if c["engine"] == "compute")
    assert (compute["policy"]["min_members"], compute["policy"]["max_members"]) == (6, 20)
    tasks = next(w for w in doc["workloads"] if w["kind"] == "tasks")
    assert tasks["arrival"]["rate_per_s"] == 4.0
    assert doc["reservations"] == [] and doc["run"]["until"] == 600_000
    scenario = parse_scenario(json.loads(json.dumps(doc)))
    assert len(scenario.fleet) == 200

    path = tmp_path / "fleet-200.json"
    path.write_text(json.dumps(doc))
    result = fleet_scale.run_tree(ROOT, str(path), str(tmp_path / "run"))
    assert result["loop_s"] > 0
    assert 0 < result["tasks_completed"] <= result["tasks_submitted"]
    assert fleet_scale.events(ROOT, str(path), str(tmp_path / "trace")) > 1000
