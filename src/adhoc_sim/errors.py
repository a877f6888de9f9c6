"""Error types shared across the simulator.

Errors raised by component operations are ordinary exceptions; a raise that
escapes an event handler aborts the whole run (see kernel.SimulationAbort).
"""


class AdhocSimError(Exception):
    """Base class for all simulator errors."""


class NodeDown(AdhocSimError):
    """Operation requires an Up node."""


class InsufficientHeadroom(AdhocSimError):
    """Requested allocation does not fit the node's available headroom."""


class UnknownElement(AdhocSimError):
    """No such element (or it is already dead)."""


class EngineMismatch(AdhocSimError):
    """Element engine kind does not match the cloudlet's."""


class NoLiveElement(AdhocSimError):
    """No live element can serve the request."""


class UnknownKey(AdhocSimError):
    """Key absent from the replica map."""


class QuorumUnavailable(AdhocSimError):
    """Fewer than a majority of a key's replicas answered."""


class MetadataQuorumUnavailable(QuorumUnavailable):
    """Fewer than a majority of metadata replicas are live."""


class NoSourceReplica(AdhocSimError):
    """All replicas of a key are lost; data cannot be re-created."""


class IncompleteLog(AdhocSimError):
    """Event log does not cover the queried window."""


class ScenarioParseError(AdhocSimError):
    """Scenario file is not well-formed."""


class ScenarioValidationError(AdhocSimError):
    """Scenario parsed but violates its invariants.

    Carries the full diagnostics list, not just the first problem.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))
