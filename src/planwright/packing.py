"""Arrangement generation: greedy traversal packing of parts onto stock.

Parts are grouped by stock family and material (`part_groups`, the one
rule for which design has a packing at all), then packed in a
traversal order onto instances of a designated stock size: first-fit with
kerf spacing between neighbors, opening a new instance when the next part
does not fit. Lumber packs as intervals; sheets use shelf-based guillotine
packing with shelves keyed by part height. After packing, every instance is
shrunk to the cheapest stock of the family that still holds its contents,
which is how cheaper small-stock arrangements enter the search space.

`part_groups`, `pack_fragments` and `combine` are the one enumeration
pipeline: the optimizer feeds it a budget of traversal orders
(`generate_arrangements`), the brute-force oracle feeds it every part
permutation. Both get arrangements in one per-stock layout. A packing
depends only on the designated size and the traversal's part shapes, not
on which part sits where, so a traversal is a shape sequence: a group
whose distinct shape sequences fit the budget gets each of them once,
and a larger group gets random ones. The packing memo keeps one packing
per (designated size, shape sequence), its parts as slots of the
traversal, and `pack_fragments` keeps one fragment per id-free shape
signature, labelled with the part ids of the first traversal that gave
it. The optimizer keeps one memo per run; the oracle passes a fresh memo
per call, so it stays an independent brute force.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

from .cost import StockInstance
from .model import Design, Material, Part, StockSpec, Tool, ToolSpec, part_fits_stock
from .plans import cutting_tool


class InfeasiblePartError(ValueError):
    pass


Places = tuple[tuple[str, tuple[int, ...]], ...]  # (part_id, offset), sorted
Fragment = list[tuple[StockSpec, list[tuple[str, tuple[int, ...]]]]]


@dataclass(frozen=True)
class Arrangement:
    """One packing of a design: each stock instance with its placed parts."""

    design_id: str
    stocks: tuple[tuple[StockInstance, Places], ...]


# designated size -> an order's shape sequence -> (its packing's shape
# signature, its shrunk packing with each placement's part given as its slot
# (index) in the order)
PackingMemo = dict[StockSpec, dict[tuple, tuple[tuple, tuple[tuple[StockSpec, tuple], ...]]]]


# one part group: its parts in design order, its family's stocks of its
# material and the sizes among them that hold every part, both largest first
PartGroup = tuple[list[Part], list[StockSpec], list[StockSpec]]


def part_groups(design: Design, stock_lib: list[StockSpec]) -> list[PartGroup]:
    """The design's parts grouped by (family, material), families sorted,
    a family's wood group before its metal group.

    Raises one InfeasiblePartError listing every problem: a part of an
    unknown family, a part whose family has no stock of its material, a
    part whose dimension count differs from its family's stocks', a part
    that no stock holds, and a group that no one stock size holds whole.
    """
    families = {s.family for s in stock_lib}
    grouped: dict[tuple[str, bool], list[Part]] = {}
    problems: list[str] = []
    for part in design.parts:
        if part.family in families:
            grouped.setdefault((part.family, part.material is Material.METAL), []).append(part)
        else:
            problems.append(f"part {part.id}: unknown stock family {part.family!r}")
    groups: list[PartGroup] = []
    for family, metal in sorted(grouped):
        parts = grouped[family, metal]
        material = parts[0].material
        stocks = sorted(
            (s for s in stock_lib if s.family == family and s.material is material),
            key=lambda s: (-s.capacity, s.id),
        )
        usable = [s for s in stocks if all(part_fits_stock(p, s) for p in parts)]
        if usable:
            groups.append((parts, stocks, usable))
            continue
        misfits = [p for p in parts if not any(part_fits_stock(p, s) for s in stocks)]
        for p in misfits:
            if not stocks:
                problems.append(f"part {p.id}: no {material.value} stock in family {family!r}")
            elif all(s.is_sheet != p.is_sheet for s in stocks):
                problems.append(f"part {p.id}: {len(p.shape)}-D part, but the {family!r} "
                                f"stocks are {len(stocks[0].dims)}-D")
            else:
                problems.append(f"part {p.id}: part does not fit any {family!r} stock")
        if not misfits:
            problems.append(f"no one {family!r} stock size holds every {material.value} part")
    if problems:
        raise InfeasiblePartError("; ".join(problems))
    return groups


@dataclass
class _OpenStock:
    spec: StockSpec
    placements: list[tuple[str, tuple[int, ...]]]
    used: int = 0  # 1D: occupied extent
    shelves: list | None = None  # 2D: [y, height, used_x]
    next_y: int = 0


def _place_1d(stock: _OpenStock, part: Part, kerf: int) -> bool:
    offset = 0 if stock.used == 0 else stock.used + kerf
    if offset + part.shape[0] > stock.spec.dims[0]:
        return False
    stock.placements.append((part.id, (offset,)))
    stock.used = offset + part.shape[0]
    return True


def _place_2d(stock: _OpenStock, part: Part, kerf: int) -> bool:
    w, h = part.shape
    width, height = stock.spec.dims
    if stock.shelves is None:
        stock.shelves = []
    for shelf in stock.shelves:
        y, sh, used_x = shelf
        if sh != h:
            continue
        x = 0 if used_x == 0 else used_x + kerf
        if x + w <= width:
            stock.placements.append((part.id, (x, y)))
            shelf[2] = x + w
            return True
    y = 0 if stock.next_y == 0 else stock.next_y + kerf
    if y + h > height or w > width:
        return False
    stock.shelves.append([y, h, w])
    stock.placements.append((part.id, (0, y)))
    stock.next_y = y + h
    return True


def pack_traversal(parts: list[Part], designated: StockSpec, kerf: int) -> Fragment:
    """Greedy first-fit packing of `parts` (in order) onto `designated` stock.

    Returns a fragment: a list of (spec, placements) per opened instance.
    Raises InfeasiblePartError when a part does not fit an empty stock.
    """
    opened: list[_OpenStock] = []
    for part in parts:
        placed = False
        for stock in opened:
            if part.is_sheet:
                placed = _place_2d(stock, part, kerf)
            else:
                placed = _place_1d(stock, part, kerf)
            if placed:
                break
        if not placed:
            stock = _OpenStock(spec=designated, placements=[])
            if not (_place_2d(stock, part, kerf) if part.is_sheet
                    else _place_1d(stock, part, kerf)):
                raise InfeasiblePartError(
                    f"part {part.id} does not fit stock {designated.id}"
                )
            opened.append(stock)
    return [(s.spec, s.placements) for s in opened]


def shrink_instances(
    fragment: Fragment, stocks: list[StockSpec], parts_by_id: dict[str, Part],
    holders: dict[tuple, StockSpec],
) -> Fragment:
    """Swap each instance for the cheapest family stock that holds its spread.

    `holders` keeps the answer per (instance spec, used extent) for later
    calls over the same `stocks`.
    """
    out = []
    for spec, placements in fragment:
        used = tuple(max(off[axis] + parts_by_id[pid].shape[axis] for pid, off in placements)
                     for axis in range(len(spec.dims)))
        key = (spec, used)
        best = holders.get(key)
        if best is None:
            candidates = [
                s for s in stocks
                if s.is_sheet == spec.is_sheet and s.material is spec.material
                and all(d >= u for d, u in zip(s.dims, used))
            ]
            best = holders[key] = min(
                candidates, key=lambda s: (s.effective_price(), s.capacity, s.id),
                default=spec)
        out.append((best, placements))
    return out


def _shape_orders(parts: list[Part], head: tuple[Part, ...] = ()) -> Iterator[list[Part]]:
    """`head` followed by every distinct shape sequence of `parts` once, in
    lexicographic order of shapes by first appearance, equal-shaped parts
    in design order: a multiset permutation."""
    if not parts:
        yield list(head)
    for shape in dict.fromkeys(p.shape for p in parts):
        k = next(i for i, p in enumerate(parts) if p.shape == shape)
        yield from _shape_orders(parts[:k] + parts[k + 1:], head + (parts[k],))


def _traversal_orders(parts: list[Part], budget: int, rng: random.Random) -> list[list[Part]]:
    """Size-descending first, then input order, then the other orders, one
    per shape sequence.

    When the budget holds all n! / prod(m_s!) distinct shape sequences (m_s
    parts of shape s) they are all returned, the rest in `_shape_orders`
    order, and `rng` is not drawn from. Otherwise random permutations fill
    the budget (up to `budget * 10` draws), a draw of a shape sequence
    already in skipped.
    """
    def size_key(p: Part) -> tuple:
        area = p.shape[0] * (p.shape[1] if p.is_sheet else 1)
        return (-area, p.id)

    orders: list[list[Part]] = []
    seen: set[tuple] = set()

    def push(order: list[Part]) -> None:
        key = tuple(p.shape for p in order)
        if key not in seen:
            seen.add(key)
            orders.append(order)

    push(sorted(parts, key=size_key))
    if len(orders) < budget:
        push(list(parts))
    sequences = math.factorial(len(parts))
    for m in collections.Counter(p.shape for p in parts).values():
        sequences //= math.factorial(m)
    if sequences <= budget:
        for order in _shape_orders(parts):
            push(order)
        return orders
    attempts = 0
    while len(orders) < budget and attempts < budget * 10:
        shuffled = list(parts)
        rng.shuffle(shuffled)
        push(shuffled)
        attempts += 1
    return orders


def pack_fragments(
    orders: list[list[Part]],
    stocks: list[StockSpec],
    usable: list[StockSpec],
    tools: dict[Tool, ToolSpec],
    parts_by_id: dict[str, Part],
    memo: PackingMemo,
) -> list[Fragment]:
    """Shrunk packings of every order onto every usable designated size,
    the first of each shape signature kept. Parts sit one kerf of the tool
    that will cut them apart (`plans.cutting_tool`) from each other.

    A fragment's shape signature is what its costs read: each instance's
    stock with the sorted (offset, part shape) pairs it holds, instances
    sorted. Part ids do not enter it, so fragments that differ only in
    which of two equal parts sits where are one.

    A designated size fixes its family's stocks and the kerf, and an
    order's shape sequence fixes where each of its slots goes: packing and
    shrinking read a part's shape, never its id. So `memo` keeps each
    packing and its signature by shape sequence, with slot k standing for
    the order's k-th part, for later calls with the same stock library and
    tools (one run's, or a fresh one per call); a packing kept is
    labelled with its order's part ids."""
    kerf = tools[cutting_tool(stocks[0])].kerf
    fragments: list[Fragment] = []
    seen: set[tuple] = set()
    holders: dict[tuple, StockSpec] = {}
    for designated in usable:
        packed = memo.setdefault(designated, {})
        for order in orders:
            shapes = tuple(p.shape for p in order)
            if shapes not in packed:
                fragment = shrink_instances(
                    pack_traversal(order, designated, kerf), stocks, parts_by_id, holders)
                slot = {p.id: k for k, p in enumerate(order)}
                slotted = tuple((spec, tuple((slot[pid], off) for pid, off in places))
                                for spec, places in fragment)
                packed[shapes] = (tuple(sorted(
                    (spec.id, tuple(sorted((off, shapes[k]) for k, off in places)))
                    for spec, places in slotted)), slotted)
            key, slotted = packed[shapes]
            if key not in seen:
                seen.add(key)
                fragments.append([(spec, [(order[k].id, off) for k, off in places])
                                  for spec, places in slotted])
    return fragments


def combine(
    design: Design, per_group: list[list[Fragment]], cap: int | None = None
) -> list[Arrangement]:
    """The first `cap` arrangements (all for None) of the cross product of
    per-group fragments. They are distinct: a group's fragments are, and
    groups hold disjoint parts."""
    return [_assemble(design, combo)
            for combo in itertools.islice(itertools.product(*per_group), cap)]


def generate_arrangements(
    design: Design,
    stock_lib: list[StockSpec],
    traversals: int,
    tools: dict[Tool, ToolSpec],
    rng: random.Random,
    memo: PackingMemo,
) -> tuple[Arrangement, ...]:
    """Up to `traversals` packings per designated stock size, deduplicated.

    Every usable stock size of each family is tried as the designated size;
    fragments across families combine by cross product (capped). `memo`
    (one per run, for its stock library and tools) keeps each traversal's
    packing by its shape sequence, so a traversal of the same shapes, drawn
    again, for this design or another, or with other parts of those shapes,
    is not packed again. When every group's distinct shape sequences fit
    the budget, no order is drawn from `rng`, and the arrangements depend
    on the design and budget alone.
    """
    if traversals < 1:
        raise ValueError("traversal budget must be >= 1")
    parts_by_id = {p.id: p for p in design.parts}
    per_group = [pack_fragments(_traversal_orders(parts, traversals, rng), stocks, usable,
                                tools, parts_by_id, memo)
                 for parts, stocks, usable in part_groups(design, stock_lib)]
    cap = max(traversals * 4, sum(len(f) for f in per_group))
    return tuple(combine(design, per_group, cap))


def _assemble(design: Design, fragments: tuple[Fragment, ...]) -> Arrangement:
    counters: dict[str, int] = {}
    stocks: list[tuple[StockInstance, Places]] = []
    for fragment in fragments:
        for spec, places in fragment:
            n = counters.get(spec.id, 0)
            counters[spec.id] = n + 1
            inst = StockInstance(key=f"{spec.id}#{n}", spec=spec)
            stocks.append((inst, tuple(sorted(places))))
    return Arrangement(design_id=design.id, stocks=tuple(stocks))
