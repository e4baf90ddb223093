import random
from collections import Counter

import pytest

from planwright import corpus_path
from planwright.designspace import (
    DesignInputError,
    DesignSpace,
    detect_joints,
    enumerate_variants,
    instantiate,
    sample_design,
)
from planwright.io import load_design_space
from planwright.model import ConnectorVariant, Part, ticks


def two_by_two_space():
    parts = (Part(id="a", family="2x2", shape=(ticks(20),)),
             Part(id="b", family="2x2", shape=(ticks(10),)),
             Part(id="c", family="2x2", shape=(ticks(10),)))
    variants = [ConnectorVariant("v0", 0, 0), ConnectorVariant("v1", 0, -ticks(2))]
    joints = detect_joints(list(parts), [("a", "b", variants), ("a", "c", variants)])
    return DesignSpace(base_id="t", base_parts=parts, joints=tuple(joints))


def test_detect_joints_counts():
    space = two_by_two_space()
    assert len(space.joints) == 2
    assert detect_joints([], []) == []


def test_detect_joints_rejects_unknown_and_self():
    parts = [Part(id="a", family="2x2", shape=(64,))]
    v = [ConnectorVariant("v0", 0, 0)]
    with pytest.raises(DesignInputError):
        detect_joints(parts, [("a", "z", v)])
    with pytest.raises(DesignInputError):
        detect_joints(parts, [("a", "a", v)])


def test_cardinality_and_enumeration():
    space = two_by_two_space()
    assert space.cardinality == 4
    designs = enumerate_variants(space)
    assert len(designs) == 4
    assert len({d.id for d in designs}) == 4


def test_enumeration_is_lexicographic():
    parts = (Part(id="a", family="2x2", shape=(ticks(20),)),
             Part(id="b", family="2x2", shape=(ticks(10),)),
             Part(id="c", family="2x2", shape=(ticks(10),)))
    joints = detect_joints(list(parts), [
        ("a", "b", [ConnectorVariant(f"v{i}", 0, 0) for i in range(3)]),
        ("b", "c", [ConnectorVariant(f"w{i}", 0, 0) for i in range(2)])])
    space = DesignSpace("t", parts, tuple(joints))
    assert [d.id for d in enumerate_variants(space)] == \
        [f"t/v{i}-w{j}" for i in range(3) for j in range(2)]


def test_frame_corpus_enumerates_sixteen():
    space = load_design_space(corpus_path("frame"))
    assert space.cardinality == 16
    assert len(enumerate_variants(space)) == 16


def test_deltas_apply_to_length():
    space = two_by_two_space()
    sel = {space.joints[0].id: "v1", space.joints[1].id: "v0"}
    design = instantiate(space, sel)
    shapes = {p.id: p.shape[0] for p in design.parts}
    assert shapes == {"a": ticks(20), "b": ticks(8), "c": ticks(10)}
    assert design.provenance == sel


def test_collapsed_dimension_returns_none():
    parts = (Part(id="a", family="2x2", shape=(ticks(20),)),
             Part(id="b", family="2x2", shape=(ticks(1),)))
    variants = [ConnectorVariant("v0", 0, 0), ConnectorVariant("kill", 0, -ticks(2))]
    joints = detect_joints(list(parts), [("a", "b", variants)])
    space = DesignSpace("t", parts, tuple(joints))
    assert instantiate(space, {joints[0].id: "kill"}) is None
    assert [d.id for d in enumerate_variants(space)] == ["t/v0"]


def test_instantiate_idempotent_on_result():
    space = two_by_two_space()
    sel = {j.id: "v1" for j in space.joints}
    d1 = instantiate(space, sel)
    d2 = instantiate(space, sel)
    assert d1 == d2


def test_sample_design_deterministic_and_uniform():
    space = two_by_two_space()
    assert (sample_design(space, random.Random("x")).id
            == sample_design(space, random.Random("x")).id)
    counts = Counter(
        sample_design(space, random.Random(f"s{i}")).id for i in range(10_000)
    )
    assert set(counts) == {d.id for d in enumerate_variants(space)}
    # each of the 4 designs expected 2500 times; 5 sigma ~ 217
    for n in counts.values():
        assert abs(n - 2500) < 5 * (10_000 * 0.25 * 0.75) ** 0.5


def test_singleton_space_sampling():
    parts = (Part(id="a", family="2x2", shape=(ticks(20),)),)
    space = DesignSpace("t", parts, ())
    assert space.cardinality == 1
    assert sample_design(space, random.Random(0)).id == space.base_design().id


def test_sample_design_gives_up_when_every_selection_collapses():
    parts = [Part(id="a", family="2x2", shape=(ticks(1),)),
             Part(id="b", family="2x2", shape=(ticks(1),))]
    joints = detect_joints(parts, [("a", "b", [ConnectorVariant("cut", -ticks(1), 0)])])
    space = DesignSpace(base_id="t", base_parts=tuple(parts), joints=tuple(joints))
    with pytest.raises(DesignInputError, match="collapse"):
        sample_design(space, random.Random(0))
