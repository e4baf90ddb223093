import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwright import corpus_path, packing
from planwright.cost import StockInstance
from planwright.io import load_design_space
from planwright.libraries import default_stocks, default_tools
from planwright.model import Design, Material, Part, Tool, part_fits_stock, ticks
from planwright.oracle import all_arrangements
from planwright.packing import (
    InfeasiblePartError,
    generate_arrangements,
    pack_fragments,
    pack_traversal,
    part_groups,
    shrink_instances,
)
from planwright.plans import cuts_for_instance, cutting_tool, layout

STOCKS = default_stocks()
TOOLS = default_tools()
KERF = ticks("1/8")


def lumber(i, length_in, family="2x4"):
    return Part(id=f"p{i}", family=family, shape=(ticks(length_in),))


def spec(stock_id):
    return next(s for s in STOCKS if s.id == stock_id)


def test_pack_traversal_offsets_with_kerf():
    parts = [lumber(i, 20) for i in range(4)]
    frag = pack_traversal(parts, spec("2x4-96"), KERF)
    assert len(frag) == 1
    offsets = [off[0] for _, off in frag[0][1]]
    assert offsets == [0, ticks("161/8"), ticks("161/4"), ticks("483/8")]
    # total span is 80 3/8 inches
    assert offsets[-1] + ticks(20) == ticks("643/8")


def test_pack_traversal_opens_second_stock():
    parts = [lumber(0, 50), lumber(1, 50)]
    frag = pack_traversal(parts, spec("2x4-96"), KERF)
    assert len(frag) == 2
    assert all(len(places) == 1 for _, places in frag)


def test_pack_traversal_rejects_oversized():
    with pytest.raises(InfeasiblePartError):
        pack_traversal([lumber(0, 97)], spec("2x4-96"), KERF)


def test_shrink_moves_to_cheapest_fit():
    parts = [lumber(0, 20)]
    frag = pack_traversal(parts, spec("2x4-96"), KERF)
    family = [s for s in STOCKS if s.family == "2x4" and s.material is Material.WOOD]
    shrunk = shrink_instances(frag, family, {p.id: p for p in parts}, {})
    assert shrunk[0][0].id == "2x4-24"


def test_shrink_keeps_needed_size():
    parts = [lumber(0, 40), lumber(1, 40)]
    frag = pack_traversal(parts, spec("2x4-96"), KERF)
    family = [s for s in STOCKS if s.family == "2x4" and s.material is Material.WOOD]
    shrunk = shrink_instances(frag, family, {p.id: p for p in parts}, {})
    assert shrunk[0][0].id == "2x4-96"


def scan_shrink(fragment, stocks, parts_by_id):
    """Reference: the cheapest holder of each instance, scanned afresh."""
    out = []
    for designated, places in fragment:
        axes = range(len(designated.dims))
        used = [max(off[a] + parts_by_id[pid].shape[a] for pid, off in places)
                for a in axes]
        fits = [s for s in stocks if s.is_sheet == designated.is_sheet
                and s.material is designated.material
                and all(s.dims[a] >= used[a] for a in axes)]
        out.append((min(fits, key=lambda s: (s.effective_price(), s.capacity, s.id),
                        default=designated), places))
    return out


@pytest.mark.parametrize("family", ["2x4", "sheet-1/2"])
def test_shared_shrink_lookup_matches_plain_scan(family):
    rng = random.Random(f"shrink-{family}")
    stocks = [s for s in STOCKS if s.family == family]
    holders = {}
    instances = 0
    for _ in range(60):
        if family == "2x4":
            parts = [lumber(i, rng.choice([5, 10, "20.5", 22, 30, 45]))
                     for i in range(rng.randint(1, 5))]
        else:
            parts = [Part(id=f"s{i}", family=family,
                          shape=(ticks(rng.choice([3, 5, "9.5", 11])),
                                 ticks(rng.choice([4, 6, "9.25", 19]))))
                     for i in range(rng.randint(1, 5))]
        by_id = {p.id: p for p in parts}
        designated = rng.choice([s for s in stocks
                                 if all(part_fits_stock(p, s) for p in parts)])
        fragment = pack_traversal(parts, designated, KERF)
        shared = shrink_instances(fragment, stocks, by_id, holders)
        instances += len(shared)
        assert shared == shrink_instances(fragment, stocks, by_id, {}) == \
            scan_shrink(fragment, stocks, by_id)
    # the lookup was shared: fewer distinct (spec, used extent) keys than
    # instances shrunk
    assert 0 < len(holders) < instances


def test_sheet_packing_shelves():
    parts = [Part(id=f"s{i}", family="sheet-1/2", shape=(ticks(9), ticks(5)))
             for i in range(2)]
    frag = pack_traversal(parts, spec("sheet-1/2-12x20"), KERF)
    assert len(frag) == 1
    offs = sorted(off for _, off in frag[0][1])
    assert offs[0] == (0, 0)
    assert offs[1] == (0, ticks("41/8"))


def design_of(parts):
    return Design(id="d", parts=tuple(parts), provenance={})


def test_generate_arrangements_dedup_and_determinism():
    parts = [lumber(i, 20) for i in range(3)]
    a1 = generate_arrangements(design_of(parts), STOCKS, 8, TOOLS, random.Random("s"), {})
    a2 = generate_arrangements(design_of(parts), STOCKS, 8, TOOLS, random.Random("s"), {})
    assert [a.stocks for a in a1] == [a.stocks for a in a2]
    layouts = [tuple(sorted((inst.spec.id, places) for inst, places in a.stocks))
               for a in a1]
    assert len(layouts) == len(set(layouts))


def random_parts(rng, kind):
    """1-5 lumber or sheet parts of two families, ids counting up from 0."""
    if kind == "lumber":
        return [lumber(i, rng.choice([5, 10, "20.5", 22, 30, 45]),
                       family=rng.choice(["2x2", "2x4"]))
                for i in range(rng.randint(1, 5))]
    return [Part(id=f"s{i}", family=rng.choice(["sheet-1/2", "sheet-3/4"]),
                 shape=(ticks(rng.choice([3, 5, "9.5", 11])),
                        ticks(rng.choice([4, 6, "9.25", 19]))))
            for i in range(rng.randint(1, 5))]


@pytest.mark.parametrize("kind", ["lumber", "sheet"])
def test_warm_packing_memo_gives_the_cold_arrangements(kind, monkeypatch):
    # one memo carried across designs and draws, as in a run: every call
    # returns what a fresh memo gives, in the same order, packing less
    rng = random.Random(f"warm-{kind}")
    packed = []
    pack = packing.pack_traversal
    monkeypatch.setattr(packing, "pack_traversal",
                        lambda *args: packed.append(args) or pack(*args))
    memo = {}
    cold_packs = warm_packs = 0
    for _ in range(30):
        design = design_of(random_parts(rng, kind))
        budget = rng.choice([1, 4, 12])
        seed = rng.random()
        generate_arrangements(design, STOCKS, budget, TOOLS, random.Random(-seed), memo)
        packed.clear()
        cold = generate_arrangements(design, STOCKS, budget, TOOLS, random.Random(seed), {})
        cold_packs += len(packed)
        packed.clear()
        warm = generate_arrangements(design, STOCKS, budget, TOOLS, random.Random(seed), memo)
        warm_packs += len(packed)
        assert warm == cold
    assert warm_packs < cold_packs


def repeated_parts(rng, kind, prefix):
    """2-5 lumber or sheet parts of one family whose shapes come from a pool
    of two, so shapes repeat; ids are `prefix` + running number."""
    if kind == "lumber":
        family = rng.choice(["2x2", "2x4"])
        pool = [(ticks(rng.choice([5, 10, "20.5", 22, 30, 45])),) for _ in range(2)]
    else:
        family = rng.choice(["sheet-1/2", "sheet-3/4"])
        pool = [(ticks(rng.choice([3, 5, "9.5", 11])), ticks(rng.choice([4, 6, "9.25"])))
                for _ in range(2)]
    return [Part(id=f"{prefix}{i}", family=family, shape=rng.choice(pool))
            for i in range(rng.randint(2, 5))]


def shape_key(fragment, parts_by_id):
    """A fragment without its part ids: each stock with its sorted (offset,
    part shape) pairs, stocks sorted."""
    return tuple(sorted((spec.id, tuple(sorted((off, parts_by_id[pid].shape)
                                               for pid, off in places)))
                        for spec, places in fragment))


@pytest.mark.parametrize("kind", ["lumber", "sheet"])
def test_memoized_packings_equal_fresh_packings(kind, monkeypatch):
    # one memo carried across designs whose part shapes repeat, under other
    # part ids per design, as in a run: `pack_fragments` returns the first
    # fresh packing of each id-free layout, in order, whether packed or
    # relabelled from the memo, and most come from the memo
    rng = random.Random(f"slots-{kind}")
    packed = []
    pack = packing.pack_traversal
    monkeypatch.setattr(packing, "pack_traversal",
                        lambda *args: packed.append(args) or pack(*args))
    memo = {}
    checked = 0
    for n in range(30):
        parts = repeated_parts(rng, kind, prefix=f"d{n}p")
        ((group, stocks, usable),) = part_groups(design_of(parts), STOCKS)
        by_id = {p.id: p for p in parts}
        orders = [rng.sample(group, len(group)) for _ in range(6)]
        fragments = pack_fragments(orders, stocks, usable, TOOLS, by_id, memo)
        kerf = TOOLS[cutting_tool(stocks[0])].kerf
        fresh = {}
        for designated in usable:
            for order in orders:
                fragment = shrink_instances(pack(order, designated, kerf), stocks, by_id, {})
                fresh.setdefault(shape_key(fragment, by_id), fragment)
        assert fragments == list(fresh.values())
        checked += len(usable) * len(orders)
    assert len(packed) < checked / 2


@pytest.mark.parametrize("kind", ["lumber", "sheet"])
def test_layout_is_id_free_and_is_the_signature(kind):
    # a packing's layout (offset-sorted (offset, part shape) pairs per
    # stock) and its cuts do not change when equal-shaped parts swap ids,
    # and `pack_fragments` keeps each shape sequence's packing under the
    # sorted (stock id, layout) of its stocks
    rng = random.Random(f"layout-{kind}")
    swaps = 0
    for n in range(30):
        parts = repeated_parts(rng, kind, prefix=f"d{n}p")
        ((group, stocks, usable),) = part_groups(design_of(parts), STOCKS)
        by_id = {p.id: p for p in parts}
        kerf = TOOLS[cutting_tool(stocks[0])].kerf
        orders = [rng.sample(group, len(group)) for _ in range(4)]
        memo = {}
        pack_fragments(orders, stocks, usable, TOOLS, by_id, memo)
        for designated in usable:
            for order in orders:
                fragment = shrink_instances(pack_traversal(order, designated, kerf),
                                            stocks, by_id, {})
                # the same shape sequence, equal-shaped parts in another order
                swapped = list(order)
                for shape in {p.shape for p in order}:
                    at = [k for k, p in enumerate(order) if p.shape == shape]
                    for k, j in zip(at, rng.sample(at, len(at))):
                        swapped[k] = order[j]
                swaps += swapped != order
                other = shrink_instances(pack_traversal(swapped, designated, kerf),
                                         stocks, by_id, {})
                assert [spec for spec, _ in other] == [spec for spec, _ in fragment]
                for (spec, places), (_, moved) in zip(fragment, other):
                    shapes = layout(places, by_id)
                    assert [off for off, _ in shapes] == sorted(off for _, off in places)
                    assert layout(moved, by_id) == shapes
                    inst = StockInstance(key="s#0", spec=spec)
                    assert cuts_for_instance(inst, layout(moved, by_id)) == \
                        cuts_for_instance(inst, shapes)
                signature, _ = memo[designated][tuple(p.shape for p in order)]
                assert signature == tuple(sorted((spec.id, layout(places, by_id))
                                                 for spec, places in fragment))
    assert swaps > 50


def size_descending(parts):
    return sorted(parts, key=lambda p: (-p.shape[0] * (p.shape[1] if p.is_sheet else 1), p.id))


def shape_sequences(parts):
    """The distinct shape sequences of every permutation of `parts`."""
    return {tuple(p.shape for p in order) for order in itertools.permutations(parts)}


def sampled_orders(parts, budget, rng):
    """Reference traversal orders by sampling alone: the two heuristic
    orders, then random shuffles until the budget or all distinct shape
    sequences are reached, one order per shape sequence. A group with more
    shape sequences than the budget must get exactly these."""
    orders, seen = [], set()

    def push(order):
        key = tuple(p.shape for p in order)
        if key not in seen:
            seen.add(key)
            orders.append(order)

    push(size_descending(parts))
    if len(orders) < budget:
        push(list(parts))
    limit = min(budget, len(shape_sequences(parts)))
    attempts = 0
    while len(orders) < limit and attempts < budget * 10:
        shuffled = list(parts)
        rng.shuffle(shuffled)
        push(shuffled)
        attempts += 1
    return orders[:budget]


@pytest.mark.parametrize("kind", ["lumber", "sheet"])
def test_small_groups_get_every_order_without_a_draw(kind):
    rng = random.Random(f"enumerate-{kind}")
    for _ in range(40):
        parts = random_parts(rng, kind)
        sequences = shape_sequences(parts)
        budget = len(sequences) + rng.choice([0, 1, 50])
        draws = random.Random(rng.random())
        state = draws.getstate()
        orders = packing._traversal_orders(parts, budget, draws)
        assert draws.getstate() == state
        shapes = [tuple(p.shape for p in order) for order in orders]
        assert sorted(shapes) == sorted(sequences)
        heuristic = list({tuple(p.shape for p in order): order
                          for order in (size_descending(parts), parts)}.values())
        assert orders[:len(heuristic)] == heuristic


@pytest.mark.parametrize("kind", ["lumber", "sheet"])
def test_large_groups_draw_the_orders_they_drew_before(kind):
    rng = random.Random(f"sample-{kind}")
    checked = 0
    for _ in range(40):
        parts = random_parts(rng, kind)
        sequences = len(shape_sequences(parts))
        if sequences < 3:
            continue
        budget = rng.randint(1, sequences - 1)
        seed = rng.random()
        draws, reference = random.Random(seed), random.Random(seed)
        orders = packing._traversal_orders(parts, budget, draws)
        assert orders == sampled_orders(parts, budget, reference)
        assert draws.getstate() == reference.getstate()
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("kind", ["lumber", "sheet"])
def test_enumerated_designs_are_packed_once_per_memo(kind, monkeypatch):
    # a design whose every group's shape sequences fit the budget draws
    # nothing: a warm memo returns the cold arrangements and packs nothing
    rng = random.Random(f"designs-{kind}")
    packed = []
    pack = packing.pack_traversal
    monkeypatch.setattr(packing, "pack_traversal",
                        lambda *args: packed.append(args) or pack(*args))
    memo = {}
    kept = 0
    for n in range(30):
        design = dataclasses.replace(design_of(random_parts(rng, kind)), id=f"d{n}")
        budget = rng.choice([1, 4, 12, 150])
        seed = rng.random()
        draws = random.Random(seed)
        cold = generate_arrangements(design, STOCKS, budget, TOOLS, draws, {})
        if draws.getstate() != random.Random(seed).getstate():
            continue
        assert generate_arrangements(design, STOCKS, budget, TOOLS, random.Random(seed),
                                     memo) == cold
        packed.clear()
        assert generate_arrangements(design, STOCKS, budget, TOOLS, random.Random(-seed),
                                     memo) == cold
        assert packed == []
        kept += 1
    assert kept >= 5


@pytest.mark.parametrize("kind", ["lumber", "sheet"])
def test_shape_sequences_give_every_permutation_packing(kind):
    # one traversal per distinct shape sequence, as the optimizer packs an
    # enumerated group, reaches every id-free packing that all n! part
    # orders reach, on every usable size, without a draw
    rng = random.Random(f"sound-{kind}")
    for n in range(40):
        parts = repeated_parts(rng, kind, prefix=f"d{n}p")
        ((group, stocks, usable),) = part_groups(design_of(parts), STOCKS)
        by_id = {p.id: p for p in parts}
        budget = len(shape_sequences(group)) + rng.choice([0, 3])
        draws = random.Random(rng.random())
        state = draws.getstate()
        orders = packing._traversal_orders(group, budget, draws)
        assert draws.getstate() == state
        # equal-shaped parts come in design order past the heuristic orders
        for order in orders[2:]:
            for shape in {p.shape for p in group}:
                assert [p for p in order if p.shape == shape] == \
                    [p for p in group if p.shape == shape]
        ours = pack_fragments(orders, stocks, usable, TOOLS, by_id, {})
        every = pack_fragments([list(order) for order in itertools.permutations(group)],
                               stocks, usable, TOOLS, by_id, {})
        assert sorted(shape_key(f, by_id) for f in ours) == \
            sorted(shape_key(f, by_id) for f in every)


def test_twelve_part_groups_are_enumerated_at_once():
    # 1 and 12 shape sequences, out of 12! part orders
    for lengths, sequences in (([20] * 12, 1), ([20] * 11 + [10], 12)):
        parts = [lumber(i, length) for i, length in enumerate(lengths)]
        draws = random.Random(0)
        start = time.perf_counter()
        orders = packing._traversal_orders(parts, 50, draws)
        arrangements = generate_arrangements(design_of(parts), STOCKS, 50, TOOLS, draws, {})
        assert time.perf_counter() - start < 1.0
        assert len(orders) == sequences
        assert arrangements
        assert draws.getstate() == random.Random(0).getstate()


def test_single_traversal_uses_descending_order():
    parts = [lumber(0, 10), lumber(1, 30), lumber(2, 20)]
    arrangements = generate_arrangements(
        design_of(parts), STOCKS, 1, TOOLS, random.Random(0), {}
    )
    # One designated size survives dedup per distinct packing; the first
    # traversal places parts longest-first.
    first = arrangements[0]
    by_part = {pid: off[0] for _, places in first.stocks for pid, off in places}
    assert by_part["p1"] < by_part["p2"] < by_part["p0"]


def test_parts_are_spaced_by_their_cutting_tool_kerf():
    tools = dict(TOOLS)
    tools[Tool.CHOPSAW] = dataclasses.replace(TOOLS[Tool.CHOPSAW], kerf=ticks("1/4"))
    tools[Tool.TRACKSAW] = dataclasses.replace(TOOLS[Tool.TRACKSAW], kerf=ticks("3/16"))
    parts = [lumber(i, 20) for i in range(3)] + [
        Part(id=f"s{i}", family="sheet-1/2", shape=(ticks(5), ticks(4)))
        for i in range(3)]
    design = design_of(parts)
    by_id = {p.id: p for p in parts}
    for arrangements in (generate_arrangements(design, STOCKS, 8, tools, random.Random(0), {}),
                         all_arrangements(design, STOCKS, tools)):
        gaps = {"lumber": 0, "row": 0, "shelf": 0}
        for inst, places in (s for a in arrangements for s in a.stocks):
            kerf = tools[cutting_tool(inst.spec)].kerf
            if not inst.spec.is_sheet:
                spans = sorted((off[0], by_id[pid].shape[0]) for pid, off in places)
                for (x, length), (nxt, _) in zip(spans, spans[1:]):
                    assert nxt == x + length + kerf
                    gaps["lumber"] += 1
                continue
            shelves = {}
            for pid, (x, y) in places:
                shelves.setdefault(y, []).append((x, *by_id[pid].shape))
            for row in shelves.values():
                row.sort()
                for (x, w, _), (nxt, _, _) in zip(row, row[1:]):
                    assert nxt == x + w + kerf
                    gaps["row"] += 1
            ys = sorted(shelves)
            for y, nxt in zip(ys, ys[1:]):
                assert nxt == y + shelves[y][0][2] + kerf
                gaps["shelf"] += 1
        assert all(gaps.values()), gaps


def test_group_parts_splits_family_and_material():
    # families sorted, a family's wood group before its metal group: this
    # order is `combine`'s product order
    stocks = STOCKS + [dataclasses.replace(s, id=f"{s.id}-m", material=Material.METAL)
                       for s in STOCKS if s.family == "2x2"]
    parts = [
        Part(id="m", family="2x2", shape=(ticks(10),), material=Material.METAL),
        lumber(1, 10, family="2x4"),
        lumber(0, 10, family="2x2"),
    ]
    groups = part_groups(design_of(parts), stocks)
    assert [[p.id for p in group] for group, _, _ in groups] == [["p0"], ["m"], ["p1"]]
    for group, group_stocks, usable in groups:
        assert {(s.family, s.material) for s in group_stocks} == \
            {(group[0].family, group[0].material)}
        capacities = [s.capacity for s in group_stocks]
        assert capacities == sorted(capacities, reverse=True)
        assert usable == [s for s in group_stocks if all(part_fits_stock(p, s) for p in group)]


def test_part_groups_oversized_part():
    design = design_of([Part(id="big", family="2x2", shape=(ticks(100),))])
    with pytest.raises(InfeasiblePartError) as err:
        part_groups(design, STOCKS)
    assert str(err.value) == "part big: part does not fit any '2x2' stock"


def test_part_groups_names_a_dimension_mismatch():
    # a 1-D part in a sheet family and a 2-D part in a lumber family fit no
    # stock because their dimension counts differ, not because of their size
    parts = [Part(id="strip", family="sheet-1/2", shape=(ticks(10),)),
             Part(id="panel", family="2x4", shape=(ticks(10), ticks(5))),
             lumber(0, 10)]
    with pytest.raises(InfeasiblePartError) as err:
        part_groups(design_of(parts), STOCKS)
    assert str(err.value) == ("part panel: 2-D part, but the '2x4' stocks are 1-D; "
                              "part strip: 1-D part, but the 'sheet-1/2' stocks are 2-D")


def test_part_groups_lists_every_problem():
    parts = [Part(id="odd", family="9x9", shape=(ticks(10),)),
             Part(id="m", family="2x4", shape=(ticks(10),), material=Material.METAL),
             lumber(0, 10)]
    with pytest.raises(InfeasiblePartError) as err:
        part_groups(design_of(parts), STOCKS)
    assert str(err.value) == ("part odd: unknown stock family '9x9'; "
                              "part m: no metal stock in family '2x4'")


def test_part_groups_empty():
    assert part_groups(design_of([]), STOCKS) == []


def test_part_groups_bundled_corpus():
    design = load_design_space(corpus_path("frame")).base_design()
    groups = part_groups(design, STOCKS)
    assert sorted(p.id for group, _, _ in groups for p in group) == \
        sorted(p.id for p in design.parts)


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=90 * 16), min_size=1,
                     max_size=6),
    kerf16=st.integers(min_value=0, max_value=4),
)
def test_pack_traversal_separation_property(lengths, kerf16):
    kerf = kerf16 * 4
    parts = [Part(id=f"p{i}", family="2x4", shape=(n * 4,))
             for i, n in enumerate(lengths)]
    frag = pack_traversal(parts, spec("2x4-96"), kerf)
    by_id = {p.id: p for p in parts}
    placed = set()
    for stock, places in frag:
        spans = sorted((off[0], off[0] + by_id[pid].shape[0]) for pid, off in places)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert b0 - a1 >= kerf
        assert spans[-1][1] <= stock.dims[0]
        placed.update(pid for pid, _ in places)
    assert placed == set(by_id)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(
        st.tuples(st.integers(min_value=1, max_value=11 * 16),
                  st.integers(min_value=1, max_value=11 * 16)),
        min_size=1, max_size=5),
)
def test_sheet_packing_no_overlap_property(dims):
    parts = [Part(id=f"p{i}", family="sheet-1/2", shape=(w * 4, h * 4))
             for i, (w, h) in enumerate(dims)]
    frag = pack_traversal(parts, spec("sheet-1/2-12x20"), KERF)
    by_id = {p.id: p for p in parts}
    for stock, places in frag:
        rects = []
        for pid, (x, y) in places:
            w, h = by_id[pid].shape
            assert x + w <= stock.dims[0] and y + h <= stock.dims[1]
            rects.append((x, y, x + w, y + h))
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                ax0, ay0, ax1, ay1 = rects[i]
                bx0, by0, bx1, by1 = rects[j]
                assert ax1 <= bx0 or bx1 <= ax0 or ay1 <= by0 or by1 <= ay0
