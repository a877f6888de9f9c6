"""The one defaults table. Each entry fills exactly one scenario field: the
`defaults` section's setting of the same key, or the `qos` or `adaptation`
field that a document gives once. The schema fills omitted fields from it
and echoes them into the run summary; the policies, services and the
simulation take their constructor defaults from it, so a component built
without a scenario behaves like one built from an empty document.
"""

from types import MappingProxyType

from .kernel import Dist
from .resources import ResourceVector

DEFAULTS = MappingProxyType({
    # simulation and node infrastructure
    "margin_fraction": 0.1,
    "deploy_ms": 2000,
    "shutdown_ms": 500,
    "network_latency": Dist.uniform(5.0, 50.0),
    "op_timeout_ms": 2000,
    "copy_ms_per_mb": 100.0,
    "sample_interval_ms": 10_000,
    # per-node intrusiveness policy
    "grace_ms": 1000,
    "throttle_first": True,
    "throttle_floor": 0.1,
    "enforce": True,
    # per-cloudlet policy
    "target_replication": 3,
    "heartbeat_interval_ms": 10_000,
    "timeout_multiplier": 3,
    "min_members": 1,
    "max_members": 10,
    "scale_high_watermark": 0.8,
    "scale_low_watermark": 0.2,
    "element_allocation": ResourceVector(1.0, 512, 1024, 5),
    # QoS broker
    "qos_mode": "oracle",
    "trailing_window_ms": 500_000_000,
    # adaptation loop
    "adaptation_enabled": True,
    "epoch_ms": 30_000,
    # workload generators
    "workload_start_ms": 5000,
})
