import dataclasses
import random

import pytest

from planwright import corpus_path
from planwright.designspace import DesignSpace, detect_joints, enumerate_variants
from planwright.extraction import IceeParams, icee_run
from planwright.io import load_design_space
from planwright.libraries import default_stocks, default_tools, with_metal_twins
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


# corpus -> the oracle's front, in its order, in both objective modes: per
# member (design id, stock bill keys, cut ids, stack group per cut, (f_c,
# f_p, f_t)); mode 2's cost is the same without f_p
ORACLE_FRONTS = {
    "lframe": [
        ("lframe/butt", ("2x2-48#0",), ("2x2-48#0:c0", "2x2-48#0:c1"), (None, None),
         (5.5, 0.03125, 2.5)),
    ],
    "frame": [
        ("frame/inset-inset-inset-inset", ("2x2-24#0", "2x2-48#0"),
         ("2x2-24#0:c0", "2x2-24#0:c1", "2x2-48#0:c1", "2x2-48#0:c0"), (None,) * 4,
         (8.5, 0.0625, 4.033333333333333)),
        ("frame/inset-inset-inset-inset", ("2x2-24#0", "2x2-24#1", "2x2-24#2"),
         ("2x2-24#0:c0", "2x2-24#1:c0", "2x2-24#2:c0", "2x2-24#2:c1"),
         ("sg0", "sg0", None, None), (9.0, 0.046875, 3.5833333333333335)),
        ("frame/butt-butt-butt-butt", ("2x2-96#0",),
         ("2x2-96#0:c3", "2x2-96#0:c0", "2x2-96#0:c1", "2x2-96#0:c2"), (None,) * 4,
         (10.0, 0.0625, 3.4833333333333334)),
        ("frame/butt-butt-butt-butt", ("2x2-48#0", "2x2-48#1"),
         ("2x2-48#0:c0", "2x2-48#1:c0", "2x2-48#0:c1", "2x2-48#1:c1"),
         ("sg0", "sg0", "sg1", "sg1"), (11.0, 0.03125, 2.566666666666667)),
        ("frame/butt-butt-butt-butt", ("2x2-24#0", "2x2-24#1", "2x2-24#2", "2x2-24#3"),
         ("2x2-24#0:c0", "2x2-24#1:c0", "2x2-24#2:c0", "2x2-24#3:c0"), ("sg0",) * 4,
         (12.0, 0.015625, 1.3666666666666667)),
    ],
    "metal-mix": [
        ("metal-mix/butt", ("2x2-24#0", "metal-2x2-24#0"),
         ("2x2-24#0:c0", "metal-2x2-24#0:c0"), (None, None), (63.0, 0.03125, 3.683333333333333)),
    ],
}


@pytest.mark.parametrize("corpus,mode", [(corpus, mode) for corpus in sorted(ORACLE_FRONTS)
                                         for mode in (2, 3)])
def test_oracle_front_matches_pin(corpus, mode):
    space = load_design_space(corpus_path(corpus))
    stocks = with_metal_twins(STOCKS) if corpus == "metal-mix" else STOCKS
    front = brute_force_front(space, stocks, TOOLS, mode)
    assert [(design.id, tuple(inst.key for inst in plan.stock_bill),
             tuple(c.id for c in plan.cuts), tuple(c.stack_group for c in plan.cuts),
             cost.objectives) for design, plan, cost in front] == \
        [member[:4] + ((member[4][0], member[4][2]) if mode == 2 else member[4],)
         for member in ORACLE_FRONTS[corpus]]
