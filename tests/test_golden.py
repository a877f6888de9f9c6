"""Golden-digest gate: the event log of each committed scenario is pinned by
its sha256, so a change meant to leave behaviour alone (a speed-up, a
refactor) must reproduce it byte for byte. A deliberate behaviour change
re-records the digests and says so in CHANGES.md.

- kv_churn_crash: a kv cloudlet over 400 keys on six nodes with stochastic
  churn, scripted crashes and restarts, and owner load.
- mixed: kv and compute cloudlets, an estimator broker with one reservation,
  owner load and churn.
"""

import hashlib
import os

import pytest

from adhoc_sim import cli

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

DIGESTS = {
    "kv_churn_crash": "d23b527d42c6e3c140f947aa6e8d3014394c0730545ea8bd64007dbcfc6fae93",
    "mixed": "2a6b715c42643a14a30817ababf39c86d2d17cf5860b40bcde76f08b19efaff6",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_event_log_digest(name, tmp_path):
    code = cli.main([
        "run",
        "--scenario", os.path.join(GOLDEN_DIR, f"{name}.json"),
        "--out", str(tmp_path),
        "--format", "json",
        "--events",
    ])
    assert code == cli.EXIT_OK
    with open(tmp_path / "events.ndjson", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == DIGESTS[name]
