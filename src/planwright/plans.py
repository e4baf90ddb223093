"""Cut-list generation from packings and fabrication-plan assembly.

Lumber placements become chopsaw cuts at part boundaries; sheet placements
become tracksaw guillotine cuts (shelf-separating horizontal cuts, then
vertical cuts within each shelf, with parent links recording the order
dependencies). Identical stock instances cut by a stackable tool can merge
into stacked operations.
"""

from __future__ import annotations

from dataclasses import replace

from .cost import Cut, FabPlan, StockInstance
from .model import MAX_STACK_HEIGHT, Part, StockSpec, Tool, ToolSpec


def cutting_tool(spec: StockSpec) -> Tool:
    """The tool that cuts parts out of `spec`; packing spaces them by its kerf."""
    return Tool.TRACKSAW if spec.is_sheet else Tool.CHOPSAW


def cuts_for_instance(
    inst: StockInstance,
    placements: list[tuple[str, tuple[int, ...]]],
    parts_by_id: dict[str, Part],
) -> list[Cut]:
    """Canonical cut list for one packed stock instance."""
    make = _sheet_cuts if inst.spec.is_sheet else _lumber_cuts
    return make(inst, placements, parts_by_id, cutting_tool(inst.spec))


def _lumber_cuts(inst, placements, parts_by_id, tool: Tool) -> list[Cut]:
    length = inst.spec.dims[0]
    cuts = []
    for i, (part_id, offset) in enumerate(sorted(placements, key=lambda p: p[1])):
        end = offset[0] + parts_by_id[part_id].shape[0]
        if end < length:
            cuts.append(Cut(
                id=f"{inst.key}:c{i}",
                tool=tool,
                stock_key=inst.key,
                kind="lumber",
                position=end,
            ))
    return cuts


def _sheet_cuts(inst, placements, parts_by_id, tool: Tool) -> list[Cut]:
    width, height = inst.spec.dims
    shelves: dict[int, list[tuple[str, tuple[int, ...]]]] = {}
    for part_id, offset in placements:
        shelves.setdefault(offset[1], []).append((part_id, offset))

    cuts: list[Cut] = []
    prev_hcut: str | None = None
    for y in sorted(shelves):
        members = sorted(shelves[y], key=lambda p: p[1][0])
        shelf_h = parts_by_id[members[0][0]].shape[1]
        top = y + shelf_h
        hcut_id = None
        if top < height:
            hcut_id = f"{inst.key}:h{y}"
            cuts.append(Cut(
                id=hcut_id,
                tool=tool,
                stock_key=inst.key,
                kind="sheet",
                axis=1,
                position=top,
                anchor=(0, y),
                parent=prev_hcut,
                op_length=width,
            ))
        strip_parent = hcut_id or prev_hcut
        for part_id, offset in members:
            right = offset[0] + parts_by_id[part_id].shape[0]
            if right < width:
                cuts.append(Cut(
                    id=f"{inst.key}:v{offset[0]}-{y}",
                    tool=tool,
                    stock_key=inst.key,
                    kind="sheet",
                    axis=0,
                    position=right,
                    anchor=(offset[0], y),
                    parent=strip_parent,
                    op_length=shelf_h,
                ))
        if hcut_id is not None:
            prev_hcut = hcut_id
    return cuts


def assemble_plan(
    design_id: str,
    per_stock: list[tuple[StockInstance, list[Cut]]],
) -> FabPlan:
    """Concatenate per-stock cut runs into an ordered plan."""
    cuts: list[Cut] = []
    for _, stock_cuts in per_stock:
        cuts.extend(stock_cuts)
    return FabPlan(
        design_id=design_id,
        cuts=tuple(cuts),
        stock_bill=tuple(inst for inst, _ in per_stock),
    )


def stacked_variant(
    design_id: str,
    per_stock: list[tuple[StockInstance, list[Cut]]],
    tools: dict[Tool, ToolSpec],
) -> FabPlan | None:
    """Merge identical stock runs into stacked operations, if any qualify.

    Stocks with the same spec and the same cut-geometry sequence, whose cuts
    all use one stackable tool, are cut simultaneously in chunks of up to
    the maximum stack height. Returns None when nothing can be stacked.
    """
    groups: dict[tuple, list[tuple[StockInstance, list[Cut]]]] = {}
    order: list[tuple] = []
    for inst, stock_cuts in per_stock:
        key = (inst.spec.id, tuple(c.geometry_key() for c in stock_cuts))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((inst, stock_cuts))

    stackable = False
    cuts: list[Cut] = []
    bill: list[StockInstance] = []
    group_no = 0
    for key in order:
        members = groups[key]
        tools_used = {c.tool for _, cs in members for c in cs}
        can_stack = (
            len(members) >= 2
            and len(tools_used) == 1
            and tools[next(iter(tools_used))].stackable
        )
        if not can_stack:
            for inst, stock_cuts in members:
                bill.append(inst)
                cuts.extend(stock_cuts)
            continue
        stackable = True
        for chunk_start in range(0, len(members), MAX_STACK_HEIGHT):
            chunk = members[chunk_start:chunk_start + MAX_STACK_HEIGHT]
            bill.extend(inst for inst, _ in chunk)
            if len(chunk) == 1:
                cuts.extend(chunk[0][1])
                continue
            n_cuts = len(chunk[0][1])
            for j in range(n_cuts):
                # one group id per simultaneous operation
                tag = f"sg{group_no}"
                group_no += 1
                for inst, stock_cuts in chunk:
                    cuts.append(replace(stock_cuts[j], stack_group=tag))
    if not stackable:
        return None
    return FabPlan(design_id=design_id, cuts=tuple(cuts), stock_bill=tuple(bill))
