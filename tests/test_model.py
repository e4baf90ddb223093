import pytest
from hypothesis import given, strategies as st

from planwright.model import (
    ConnectorVariant,
    CostVector,
    Joint,
    Material,
    OpRateKind,
    Part,
    Tool,
    inches,
    ticks,
)


def test_ticks_basic():
    assert ticks(1) == 64
    assert ticks("23.5") == 1504
    assert ticks("3/16") == 12
    assert ticks("1/64") == 1
    assert ticks(0) == 0


def test_ticks_off_grid_rejected():
    with pytest.raises(ValueError):
        ticks("1/3")
    with pytest.raises(ValueError):
        ticks(-1)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000))
def test_tick_arithmetic_exact(a, b):
    assert ticks(inches(a)) + ticks(inches(b)) == a + b


def test_part_shape_validation():
    with pytest.raises(ValueError):
        Part(id="p", family="2x2", shape=())
    with pytest.raises(ValueError):
        Part(id="p", family="2x2", shape=(0,))
    with pytest.raises(ValueError):
        Part(id="p", family="2x2", shape=(1, 2, 3))
    assert not Part(id="p", family="2x2", shape=(64,)).is_sheet
    assert Part(id="p", family="sheet-1/2", shape=(64, 64)).is_sheet


def test_joint_validation():
    v = ConnectorVariant(id="v0", delta_a=0, delta_b=0)
    with pytest.raises(ValueError):
        Joint(id="j", part_a="a", part_b="a", variants=(v,))
    with pytest.raises(ValueError):
        Joint(id="j", part_a="a", part_b="b", variants=())
    with pytest.raises(ValueError):
        Joint(id="j", part_a="a", part_b="b", variants=(v, v))


def test_cost_vector_modes():
    two = CostVector(f_c=1.0, f_t=2.0)
    three = CostVector(f_c=1.0, f_t=2.0, f_p=0.5)
    assert two.objectives == (1.0, 2.0)
    assert three.objectives == (1.0, 0.5, 2.0)
    assert len(two.objectives) == 2 and len(three.objectives) == 3


@pytest.mark.parametrize("enum", [Tool, Material, OpRateKind])
def test_enum_members_hash_by_identity(enum):
    for member in enum:
        again = enum(member.value)
        assert again is member
        assert hash(again) == object.__hash__(member)
        assert {member: member.value}[again] == member.value
        assert again in {member}
        assert again in frozenset(enum)
