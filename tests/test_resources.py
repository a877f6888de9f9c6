"""ResourceVector and the tuple-backed records against the frozen dataclass
they replace.

The reference below keeps the dataclass formulas exactly as they were
written; every arithmetic result must match it bit for bit, including
signed zeros, subnormals and overflow to infinity.
"""

from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhoc_sim.adaptation import KeySnapshot, MemberSnapshot, NodeSnapshot
from adhoc_sim.engines import VersionedValue
from adhoc_sim.qos import NodeForecast
from adhoc_sim.resources import ResourceVector as RV


def _ref_add(self, other):
    return type(self)(
        self.cpu + other.cpu,
        self.memory + other.memory,
        self.storage + other.storage,
        self.network + other.network,
    )


def _ref_sub(self, other):
    return type(self)(
        self.cpu - other.cpu,
        self.memory - other.memory,
        self.storage - other.storage,
        self.network - other.network,
    )


def _ref_scale(self, f):
    return type(self)(self.cpu * f, self.memory * f, self.storage * f, self.network * f)


def _ref_clamped(self):
    return type(self)(
        max(0.0, self.cpu),
        max(0.0, self.memory),
        max(0.0, self.storage),
        max(0.0, self.network),
    )


# the frozen dataclass ResourceVector was, under its own name so reprs compare
Reference = make_dataclass(
    "ResourceVector",
    [("cpu", float, 0.0), ("memory", float, 0.0), ("storage", float, 0.0), ("network", float, 0.0)],
    frozen=True,
    namespace={"__add__": _ref_add, "__sub__": _ref_sub, "scale": _ref_scale, "clamped": _ref_clamped},
)

_edge = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
    1.7976931348623157e308, -1.7976931348623157e308, 1e308, 0.1, 1.0,
])
_component = _edge | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6)
_components = st.tuples(_component, _component, _component, _component)


def bits(v):
    """Exact bit pattern of each component (float.hex keeps the sign of zero)."""
    return tuple(float(x).hex() for x in (v.cpu, v.memory, v.storage, v.network))


class TestArithmeticMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(x=_components, y=_components, z=_components, f=_component)
    def test_bit_identical(self, x, y, z, f):
        a, b, c = RV(*x), RV(*y), RV(*z)
        ra, rb, rc = Reference(*x), Reference(*y), Reference(*z)
        assert bits(a + b) == bits(ra + rb)
        assert bits(a - b) == bits(ra - rb)
        assert bits(a.scale(f)) == bits(ra.scale(f))
        assert bits(a.clamped()) == bits(ra.clamped())
        assert bits((a - b).clamped()) == bits((ra - rb).clamped())
        assert bits(a.headroom(b, c)) == bits((ra - rb - rc).clamped())
        assert type(a + b) is RV and type(a.headroom(b, c)) is RV

    def test_headroom_turns_negative_zero_positive(self):
        v = RV(-0.0, 1.0, 2.0, 3.0).headroom(RV(0.0), RV(0.0, 1.0, 2.0, 3.0))
        assert bits(v) == ("0x0.0p+0",) * 4


class TestValueSemantics:
    def test_fields_cannot_be_set(self):
        v = RV(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(AttributeError):
            v.cpu = 5.0
        with pytest.raises(AttributeError):
            v.extra = 1

    @pytest.mark.parametrize("op", [
        lambda v: v * 2,
        lambda v: 2 * v,
        lambda v: v < v,
        lambda v: v <= v,
        lambda v: v > v,
        lambda v: v >= v,
    ])
    def test_tuple_operators_refused_like_the_dataclass(self, op):
        with pytest.raises(TypeError):
            op(Reference(1.0, 2.0, 3.0, 4.0))
        with pytest.raises(TypeError):
            op(RV(1.0, 2.0, 3.0, 4.0))

    def test_equal_vectors_hash_equal(self):
        assert RV(1, 2, 0.0, 0) == RV(1.0, 2.0, -0.0, 0.0)
        assert hash(RV(1, 2, 0.0, 0)) == hash(RV(1.0, 2.0, -0.0, 0.0))
        assert hash(RV(1.5, 2.0)) == hash(Reference(1.5, 2.0))
        assert len({RV(1.0), RV(1.0), RV.zero(), RV()}) == 2

    @pytest.mark.parametrize("x", [(1.0, 512, 1024, 5), (0.1, -0.0, 5e-324, 1e308), ()])
    def test_repr_unchanged(self, x):
        assert repr(RV(*x)) == repr(Reference(*x))


class TestRecordsBuild:
    def test_keywords_and_defaults(self):
        assert RV(memory=2.0) == RV(0.0, 2.0, 0.0, 0.0)
        f = NodeForecast(node_id="n1", availability=0.9, expected_headroom=RV(1.0))
        assert (f.node_id, f.availability, f.expected_headroom) == ("n1", 0.9, RV(1.0))
        n = NodeSnapshot(node_id="n1", up=True, available_headroom=RV(1.0))
        assert n.available_headroom.cpu == 1.0 and n.up
        k = KeySnapshot(key="x", live_replica_elements=("e1",), live_replica_nodes=("n1",))
        assert (k.key, k.live_replica_nodes) == ("x", ("n1",))
        m = MemberSnapshot(element_id="e1", node_id="n1", effective_cpu=0.5)
        assert (m.node_id, m.effective_cpu) == ("n1", 0.5)
        v = VersionedValue(key="x", value="v", version=2)
        assert (v.value, v.version, v.size) == ("v", 2, 0)
