"""Multi-dimensional resource vectors (cpu cores, memory MB, storage MB, network Mbps).

Comparison is componentwise: a <= b iff every component of a is <= b's.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

COMPONENTS = ("cpu", "memory", "storage", "network")


@dataclass(frozen=True)
class ResourceVector:
    cpu: float = 0.0
    memory: float = 0.0
    storage: float = 0.0
    network: float = 0.0

    @staticmethod
    def zero() -> "ResourceVector":
        return ResourceVector()

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu + other.cpu,
            self.memory + other.memory,
            self.storage + other.storage,
            self.network + other.network,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu - other.cpu,
            self.memory - other.memory,
            self.storage - other.storage,
            self.network - other.network,
        )

    def scale(self, f: float) -> "ResourceVector":
        return ResourceVector(self.cpu * f, self.memory * f, self.storage * f, self.network * f)

    def clamped(self) -> "ResourceVector":
        """Componentwise max(0, x)."""
        return ResourceVector(
            max(0.0, self.cpu),
            max(0.0, self.memory),
            max(0.0, self.storage),
            max(0.0, self.network),
        )

    def le(self, other: "ResourceVector") -> bool:
        return (
            self.cpu <= other.cpu
            and self.memory <= other.memory
            and self.storage <= other.storage
            and self.network <= other.network
        )

    def exceeds_any(self, other: "ResourceVector") -> bool:
        """True iff some component of self is strictly greater than other's."""
        return not self.le(other)

    def non_negative(self) -> bool:
        return self.cpu >= 0 and self.memory >= 0 and self.storage >= 0 and self.network >= 0

    def any_positive(self) -> bool:
        return self.cpu > 0 or self.memory > 0 or self.storage > 0 or self.network > 0

    def as_dict(self) -> dict:
        return {
            "cpu": self.cpu,
            "memory": self.memory,
            "storage": self.storage,
            "network": self.network,
        }

    @staticmethod
    def from_dict(obj: dict) -> "ResourceVector":
        """Parse the document form: some of COMPONENTS, each a finite number
        >= 0; the rest are zero. Raises ValueError."""
        if type(obj) is not dict:
            raise ValueError(f"must be an object of {list(COMPONENTS)}, got {obj!r}")
        for key, x in obj.items():
            if key not in COMPONENTS or not (
                (type(x) is float or type(x) is int) and 0 <= x <= sys.float_info.max
            ):
                raise ValueError(f"must map {list(COMPONENTS)} to numbers >= 0, got {obj!r}")
        get = obj.get
        return ResourceVector(
            float(get("cpu", 0.0)), float(get("memory", 0.0)),
            float(get("storage", 0.0)), float(get("network", 0.0)),
        )
