"""Exhaustive reference search for small problems.

Enumerates every design variant, every part-permutation packing over every
usable designated stock size, and every feasible cut order (full
permutations up to a size limit, per-stock permutations beyond it), then
Pareto-filters the evaluated costs. Exponential by construction; meant as
ground truth for the heuristic search on tiny inputs, not for real use.

Packings come from `packing`'s shared enumerator, fed every part order
instead of a traversal budget; cut orders are enumerated here,
independently of the optimizer's order search.
"""

from __future__ import annotations

import itertools

from .analysis import pareto_filter
from .cost import Cut, FabPlan, PlanCost, StockInstance, evaluate_plan, order_is_feasible
from .designspace import DesignSpace, enumerate_variants
from .model import CostVector, Design, StockSpec, Tool, ToolSpec
from .packing import (
    Arrangement,
    InfeasiblePartError,
    combine,
    pack_fragments,
    part_groups,
)
from .plans import cuts_for_instance, layout, stacked_variant

FULL_PERMUTATION_LIMIT = 8


def all_arrangements(design: Design, stock_lib: list[StockSpec],
                     tools: dict[Tool, ToolSpec]) -> list[Arrangement]:
    """Every packing, one per shape signature, that any part order reaches
    on any designated size."""
    parts_by_id = {p.id: p for p in design.parts}
    try:
        groups = part_groups(design, stock_lib)
    except InfeasiblePartError:
        return []  # this variant has no packing
    per_group = []
    for parts, stocks, usable in groups:
        orders = [list(order) for order in itertools.permutations(parts)]
        per_group.append(pack_fragments(orders, stocks, usable, tools, parts_by_id, {}))
    return combine(design, per_group)


def all_cut_orders(per_stock: list[tuple[StockInstance, list[Cut]]]) -> list[list[Cut]]:
    """Every feasible ordering, including interleavings across stocks."""
    flat = [c for _, cuts in per_stock for c in cuts]
    if len(flat) <= FULL_PERMUTATION_LIMIT:
        return [list(p) for p in itertools.permutations(flat)
                if order_is_feasible(list(p))]
    # too many cuts for full interleaving: permute within each stock and
    # try every run order across stocks
    per_stock_orders = []
    for _, cuts in per_stock:
        if len(cuts) <= FULL_PERMUTATION_LIMIT:
            orders = [list(p) for p in itertools.permutations(cuts)
                      if order_is_feasible(list(p))]
        else:
            orders = [list(cuts)]
        per_stock_orders.append(orders)
    results = []
    for stock_perm in itertools.permutations(range(len(per_stock))):
        for combo in itertools.product(*per_stock_orders):
            order = [c for idx in stock_perm for c in combo[idx]]
            results.append(order)
    return results


def brute_force_design(
    design: Design,
    stock_lib: list[StockSpec],
    tools: dict[Tool, ToolSpec],
    mode: int,
) -> list[tuple[FabPlan, PlanCost]]:
    """All non-dominated plans for one fixed design."""
    parts_by_id = {p.id: p for p in design.parts}
    evaluated: list[tuple[FabPlan, PlanCost]] = []
    for arrangement in all_arrangements(design, stock_lib, tools):
        per_stock = [
            (inst, cuts_for_instance(inst, layout(places, parts_by_id)))
            for inst, places in sorted(arrangement.stocks, key=lambda s: s[0].key)
        ]
        for order in all_cut_orders(per_stock):
            plan = FabPlan(
                design_id=design.id,
                cuts=tuple(order),
                stock_bill=tuple(inst for inst, _ in per_stock),
            )
            evaluated.append((plan, evaluate_plan(plan, tools)))
        for reordered in _stacking_orders(per_stock):
            stacked = stacked_variant(design.id, reordered, tools)
            if stacked is not None:
                evaluated.append((stacked, evaluate_plan(stacked, tools)))
    return pareto_filter(evaluated, key=lambda pc: pc[1].vector(mode).objectives)


def _stacking_orders(per_stock):
    """Stacking-compatible reorderings: stock order x shared in-stock order.

    Stocks with identical cut-geometry sequences must be permuted by the
    same index permutation or they no longer stack, so permutations are
    chosen per geometry group.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (inst, cuts) in enumerate(per_stock):
        key = (inst.spec.id, tuple(c.geometry_key() for c in cuts))
        groups.setdefault(key, []).append(i)
    keys = list(groups)
    per_key_perms = []
    for key in keys:
        n = len(per_stock[groups[key][0]][1])
        perms = (list(itertools.permutations(range(n)))
                 if n <= FULL_PERMUTATION_LIMIT else [tuple(range(n))])
        per_key_perms.append(perms)
    for stock_order in itertools.permutations(range(len(per_stock))):
        for perm_combo in itertools.product(*per_key_perms):
            perm_of = dict(zip(keys, perm_combo))
            result = []
            feasible = True
            for i in stock_order:
                inst, cuts = per_stock[i]
                key = (inst.spec.id, tuple(c.geometry_key() for c in cuts))
                order = [cuts[j] for j in perm_of[key]]
                if not order_is_feasible(order):
                    feasible = False
                    break
                result.append((inst, order))
            if feasible:
                yield result


def brute_force_front(
    space: DesignSpace,
    stock_lib: list[StockSpec],
    tools: dict[Tool, ToolSpec],
    mode: int,
) -> list[tuple[Design, FabPlan, CostVector]]:
    """Non-dominated (design, plan, cost) triples over the whole space.

    Raises InfeasiblePartError when the base design has no packing; a
    variant with none is skipped."""
    part_groups(space.base_design(), stock_lib)
    pool: list[tuple[Design, FabPlan, PlanCost]] = []
    for design in enumerate_variants(space):
        for plan, cost in brute_force_design(design, stock_lib, tools, mode):
            pool.append((design, plan, cost))
    front = pareto_filter(pool, key=lambda t: t[2].vector(mode).objectives)
    return [(design, plan, cost.vector(mode)) for design, plan, cost in front]
