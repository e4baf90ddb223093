import dataclasses
import random

import pytest

from planwright import corpus_path
from planwright.designspace import DesignSpace, detect_joints, enumerate_variants
from planwright.extraction import IceeParams, icee_run
from planwright.io import load_design_space
from planwright.libraries import default_stocks, default_tools
from planwright.model import ConnectorVariant, Part, ticks
from planwright.oracle import all_arrangements, brute_force_front
from planwright.packing import InfeasiblePartError, generate_arrangements, part_groups

STOCKS = default_stocks()
TOOLS = default_tools()


def long_short_space(family="2x2"):
    """`long` is 90in; the `ext` variant makes it 100in, longer than any stock."""
    parts = [Part(id="long", family=family, shape=(ticks(90),)),
             Part(id="short", family=family, shape=(ticks(10),))]
    variants = [ConnectorVariant("butt", 0, 0), ConnectorVariant("ext", ticks(10), 0)]
    joints = detect_joints(parts, [("long", "short", variants)])
    return DesignSpace(base_id="x", base_parts=tuple(parts), joints=tuple(joints))


def test_oracle_skips_oversize_variant_and_rejects_unknown_family():
    front = brute_force_front(long_short_space(), STOCKS, TOOLS, 2)
    assert front
    assert {design.id for design, _, _ in front} == {"x/butt"}
    with pytest.raises(InfeasiblePartError):
        brute_force_front(long_short_space(family="9x9"), STOCKS, TOOLS, 2)


def split_sizes_space():
    """Two sheet sizes, 48x10 and 10x48, and parts a 30x8 and b 8x8: the
    `tall` variant makes b 8x38, so that no one size holds both parts."""
    sheet = next(s for s in STOCKS if s.id == "sheet-1/2-24x20")
    stocks = [dataclasses.replace(sheet, id="wide", dims=(ticks(48), ticks(10))),
              dataclasses.replace(sheet, id="tall", dims=(ticks(10), ticks(48)))]
    parts = [Part(id="a", family="sheet-1/2", shape=(ticks(30), ticks(8))),
             Part(id="b", family="sheet-1/2", shape=(ticks(8), ticks(8)))]
    variants = [ConnectorVariant("plain", 0, 0), ConnectorVariant("tall", 0, ticks(30))]
    joints = detect_joints(parts, [("a", "b", variants)])
    return DesignSpace(base_id="t", base_parts=tuple(parts), joints=tuple(joints)), stocks


@pytest.mark.parametrize("mode", [2, 3])
def test_icee_skips_variant_that_no_one_stock_size_holds(mode):
    space, stocks = split_sizes_space()
    tall = [d for d in enumerate_variants(space) if d.id == "t/tall"]
    with pytest.raises(InfeasiblePartError) as err:
        part_groups(tall[0], stocks)
    assert str(err.value) == "no one 'sheet-1/2' stock size holds every wood part"
    oracle = brute_force_front(space, stocks, TOOLS, mode)
    assert {design.id for design, _, _ in oracle} == {"t/plain"}
    front, _ = icee_run(space, stocks, TOOLS, IceeParams(seed=0, objective_mode=mode))
    assert {s.cost.objectives for s in front} == {cost.objectives for _, _, cost in oracle}


def test_family_name_with_a_colon():
    # a family is a name, not a key to parse: `2x4:pine` groups as `2x4` did
    stocks = [dataclasses.replace(s, family="2x4:pine") if s.family == "2x4" else s
              for s in STOCKS]
    parts = (Part(id="a", family="2x4:pine", shape=(ticks(30),)),
             Part(id="b", family="2x4:pine", shape=(ticks(20),)))
    space = DesignSpace(base_id="pine", base_parts=parts, joints=())
    oracle = brute_force_front(space, stocks, TOOLS, 2)
    front, _ = icee_run(space, stocks, TOOLS, IceeParams(seed=0))
    assert oracle
    assert sorted(s.cost.objectives for s in front) == \
        sorted(cost.objectives for _, _, cost in oracle)


def test_icee_and_oracle_refuse_a_base_design_with_no_packing():
    parts = (Part(id="beam", family="2x4", shape=(ticks(100),)),
             Part(id="rail", family="2x4", shape=(ticks(20),)))
    space = DesignSpace(base_id="long", base_parts=parts, joints=())
    for search in (lambda: brute_force_front(space, STOCKS, TOOLS, 2),
                   lambda: icee_run(space, STOCKS, TOOLS, IceeParams(seed=0))):
        with pytest.raises(InfeasiblePartError, match="part beam: part does not fit any '2x4'"):
            search()


def shape_signature(arrangement, parts_by_id):
    return tuple(sorted(
        (inst.spec.id, tuple(sorted((off, parts_by_id[pid].shape) for pid, off in places)))
        for inst, places in arrangement.stocks))


@pytest.mark.parametrize("corpus", ["frame", "sheet-box"])
def test_oracle_covers_optimizer_packings(corpus):
    space = load_design_space(corpus_path(corpus))
    for design in enumerate_variants(space):
        parts_by_id = {p.id: p for p in design.parts}
        oracle = {shape_signature(a, parts_by_id)
                  for a in all_arrangements(design, STOCKS, TOOLS)}
        for budget in (1, 4, 50):
            for seed in range(3):
                rng = random.Random(f"{corpus}/{seed}")
                for arrangement in generate_arrangements(
                        design, STOCKS, budget, TOOLS, rng, {}):
                    assert shape_signature(arrangement, parts_by_id) in oracle
