"""Multi-dimensional resource vectors (cpu cores, memory MB, storage MB, network Mbps).

Comparison is componentwise, through ``le`` and ``exceeds_any``: a.le(b) iff
every component of a is <= b's.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

COMPONENTS = ("cpu", "memory", "storage", "network")

# builds a vector from its four components without the keyword-parsing
# constructor; every arithmetic result goes through it
_new = tuple.__new__


def _refused(op: str):
    def method(self, other):
        raise TypeError(
            f"'{op}' not supported between instances of "
            f"{type(self).__name__!r} and {type(other).__name__!r}"
        )

    return method


class ResourceVector(NamedTuple):
    """Immutable value; equal vectors hash equal. It is a tuple underneath,
    so the tuple operators that would repeat it (``*``) or order it
    lexicographically (``<`` and friends) raise ``TypeError`` instead."""

    cpu: float = 0.0
    memory: float = 0.0
    storage: float = 0.0
    network: float = 0.0

    @staticmethod
    def zero() -> "ResourceVector":
        return _ZERO

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        a, b, c, d = self
        e, f, g, h = other
        return _new(ResourceVector, (a + e, b + f, c + g, d + h))

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        a, b, c, d = self
        e, f, g, h = other
        return _new(ResourceVector, (a - e, b - f, c - g, d - h))

    __mul__ = __rmul__ = _refused("*")
    __lt__ = _refused("<")
    __le__ = _refused("<=")
    __gt__ = _refused(">")
    __ge__ = _refused(">=")

    def scale(self, f: float) -> "ResourceVector":
        a, b, c, d = self
        return _new(ResourceVector, (a * f, b * f, c * f, d * f))

    def clamped(self) -> "ResourceVector":
        """Componentwise max(0, x)."""
        a, b, c, d = self
        return _new(ResourceVector, (max(0.0, a), max(0.0, b), max(0.0, c), max(0.0, d)))

    def headroom(self, demand: "ResourceVector", margin: "ResourceVector") -> "ResourceVector":
        """Componentwise max(0, self - demand - margin): the value of
        ``(self - demand - margin).clamped()`` without the two vectors between."""
        a, b, c, d = self
        e, f, g, h = demand
        i, j, k, m = margin
        return _new(ResourceVector, (
            max(0.0, a - e - i), max(0.0, b - f - j), max(0.0, c - g - k), max(0.0, d - h - m),
        ))

    def le(self, other: "ResourceVector") -> bool:
        a, b, c, d = self
        e, f, g, h = other
        return a <= e and b <= f and c <= g and d <= h

    def exceeds_any(self, other: "ResourceVector") -> bool:
        """True iff some component of self is strictly greater than other's."""
        return not self.le(other)

    def any_positive(self) -> bool:
        a, b, c, d = self
        return a > 0 or b > 0 or c > 0 or d > 0

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


_ZERO = ResourceVector()
