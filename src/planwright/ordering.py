"""Cut-order assignment: per-node search, term bounds, pruned refinement.

Each atomic e-node caches its minimum-precision and minimum-time cut orders
(found by trying up to P orders, exhaustively for small nodes). A term-level
lower bound prunes terms against the archive front. A surviving term of at
most EXHAUSTIVE_TERM_CUTS cuts gets its exact front of cut orders over all
its stocks; larger ones are refined by random feasibility-preserving swaps
for a fixed number of passes.

The exact front is a forward label-setting search (Martins 1984) over
states (done mask, last cut) instead of a scan of every permutation. The
state is enough: a stock's pieces depend only on the set of cuts already
made on it (lumber chops and guillotine sheet cuts under their parent
links alike), so each cut's measured length, operation time and precision
error are fixed by that set; setup sharing depends only on the previous
cut's (tool, axis, measured length), and loading only on whether the stock
changed.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass

from . import kernels
from .analysis import pareto_filter
from .cost import (
    Cut,
    FabPlan,
    PlanCost,
    StockInstance,
    evaluate_plan,
    load_seconds,
    measurement_error,
    new_sim,
    operation_seconds,
    order_is_feasible,
    resolve_geometry,
)
from .egraph import AtomicNode, BopEGraph, Term
from .model import (
    METAL_LOAD_FACTOR,
    METAL_OP_FACTOR,
    CostVector,
    Material,
    OpRateKind,
    Part,
    Tool,
    ToolSpec,
)
from .plans import assemble_plan, cuts_for_instance, stacked_variant

EXHAUSTIVE_NODE_CUTS = 4  # node order search is exhaustive up to this size
EXHAUSTIVE_TERM_CUTS = 6  # term refinement enumerates all orders up to this


@dataclass(frozen=True)
class NodeOrders:
    cuts: tuple[Cut, ...]  # canonical generation order
    best_precision: tuple[Cut, ...]
    best_precision_cost: tuple[int, float]  # (f_p ticks, f_t seconds)
    best_time: tuple[Cut, ...]
    best_time_cost: tuple[int, float]


@dataclass(frozen=True)
class Bounds:
    lower: CostVector
    upper: CostVector


OrderCache = dict[str, NodeOrders]


def _node_instance(node: AtomicNode) -> StockInstance:
    return StockInstance(key=node.id, spec=node.spec)


def _repair_order(cuts: list[Cut]) -> list[Cut]:
    """Stable reorder so every cut's parent precedes it: each step takes the
    lowest-index cut whose parent is already out."""
    children: dict[str, list[int]] = {}
    ready: list[int] = []
    for i, c in enumerate(cuts):
        if c.parent is None:
            ready.append(i)
        else:
            children.setdefault(c.parent, []).append(i)
    out: list[Cut] = []
    while ready:
        c = cuts[heapq.heappop(ready)]
        out.append(c)
        for i in children.pop(c.id, ()):
            heapq.heappush(ready, i)
    if len(out) != len(cuts):
        raise ValueError("cyclic cut dependencies")
    return out


def _eval_node_order(inst: StockInstance, order: list[Cut],
                     tools: dict[Tool, ToolSpec]) -> tuple[int, float]:
    plan = FabPlan(design_id="node", cuts=tuple(order), stock_bill=(inst,))
    cost = evaluate_plan(plan, tools)
    return cost.f_p_ticks, cost.f_t_seconds


def _kernel_applicable(inst: StockInstance, cuts: list[Cut]) -> bool:
    return (not inst.spec.is_sheet
            and all(c.kind == "lumber" and c.tool is Tool.CHOPSAW for c in cuts))


def _eval_orders(inst: StockInstance, cuts: list[Cut],
                 orders: list[list[Cut]],
                 tools: dict[Tool, ToolSpec]) -> list[tuple[int, float]]:
    if _kernel_applicable(inst, cuts) and orders:
        tool = tools[Tool.CHOPSAW]
        spec = inst.spec
        metal = spec.material is Material.METAL
        index = {c.id: i for i, c in enumerate(cuts)}
        positions = [c.position for c in cuts]
        return kernels.eval_orders_chop(
            positions,
            spec.dims[0],
            tool.kerf,
            tool.op_error_for(spec.material),
            tool.setup_full(False),
            -1.0 if tool.setup_partial is None else tool.setup_partial,
            tool.op_rate.value * (METAL_OP_FACTOR if metal else 1),
            (spec.load_full + spec.unload_full) * (METAL_LOAD_FACTOR if metal else 1),
            [tuple(index[c.id] for c in order) for order in orders],
        )
    return [_eval_node_order(inst, order, tools) for order in orders]


def candidate_orders(cuts: list[Cut], budget: int, rng: random.Random) -> list[list[Cut]]:
    """Up to `budget` distinct feasible orders: exhaustive for small cut
    counts, else canonical/reversed plus repaired random permutations."""
    k = len(cuts)
    if k <= EXHAUSTIVE_NODE_CUTS:
        return [list(p) for p in itertools.permutations(cuts)
                if order_is_feasible(list(p))][:budget]
    orders: list[list[Cut]] = []
    seen: set[tuple[str, ...]] = set()

    def push(order: list[Cut]) -> None:
        key = tuple(c.id for c in order)
        if key not in seen:
            seen.add(key)
            orders.append(order)

    push(list(cuts))
    push(_repair_order(list(reversed(cuts))))
    attempts = 0
    while len(orders) < budget and attempts < budget * 10:
        shuffled = list(cuts)
        rng.shuffle(shuffled)
        push(_repair_order(shuffled))
        attempts += 1
    return orders[:budget]


def optimize_enode(
    node: AtomicNode,
    parts_by_id: dict[str, Part],
    tools: dict[Tool, ToolSpec],
    budget: int,
    rng: random.Random,
) -> NodeOrders:
    """Search up to `budget` cut orders; cache argmin-f_p and argmin-f_t."""
    if budget < 1:
        raise ValueError("order budget must be >= 1")
    inst = _node_instance(node)
    cuts = cuts_for_instance(inst, list(node.placements), parts_by_id, tools)
    if not cuts:
        empty: tuple[Cut, ...] = ()
        return NodeOrders(empty, empty, (0, 0.0), empty, (0, 0.0))
    orders = candidate_orders(cuts, budget, rng)
    costs = _eval_orders(inst, cuts, orders, tools)
    best_p = min(range(len(orders)), key=lambda i: (costs[i][0], costs[i][1], i))
    best_t = min(range(len(orders)), key=lambda i: (costs[i][1], costs[i][0], i))
    return NodeOrders(
        cuts=tuple(cuts),
        best_precision=tuple(orders[best_p]),
        best_precision_cost=costs[best_p],
        best_time=tuple(orders[best_t]),
        best_time_cost=costs[best_t],
    )


# -- term-level bounds ------------------------------------------------------


def _term_stocks(egraph: BopEGraph, term: Term,
                 cache: OrderCache) -> list[tuple[StockInstance, NodeOrders]]:
    out = []
    for node in egraph.atomic_nodes_of(term):
        out.append((_node_instance(node), cache[node.id]))
    out.sort(key=lambda pair: pair[0].key)
    return out


def _concat_plan(design_id: str, stocks: list[tuple[StockInstance, NodeOrders]],
                 which: str) -> FabPlan:
    per_stock = []
    for inst, orders in stocks:
        chosen = orders.best_precision if which == "precision" else orders.best_time
        per_stock.append((inst, list(chosen)))
    return assemble_plan(design_id, per_stock)


def _min_epsilon(cut: Cut, cuts_same_axis: list[Cut], extent: int, kerf: int) -> int:
    """Smallest measurement residual over any admissible reference edge."""
    x = cut.position
    candidates = [x, extent - x - kerf]
    for other in cuts_same_axis:
        if other.id == cut.id:
            continue
        c = other.position
        if c < x:
            candidates.append(x - (c + kerf))
        elif c > x:
            candidates.append(c - x - kerf)
    return min(measurement_error(m) for m in candidates if m >= 0)


def _lower_bound(stocks: list[tuple[StockInstance, NodeOrders]],
                 tools: dict[Tool, ToolSpec]) -> CostVector:
    """Per-cut costs assuming every cut is independent of the others."""
    fp_low = 0
    ft_low = 0.0
    for inst, orders in stocks:
        spec = inst.spec
        metal = spec.material is Material.METAL
        for cut in orders.cuts:
            tool = tools[cut.tool]
            axis_cuts = [c for c in orders.cuts if c.axis == cut.axis]
            extent = spec.dims[cut.axis] if spec.is_sheet else spec.dims[0]
            fp_low += tool.op_error_for(spec.material)
            fp_low += _min_epsilon(cut, axis_cuts, extent, tool.kerf)

            setup_min = (tool.setup_partial if tool.setup_partial is not None
                         else tool.setup_full(spec.is_sheet))
            if tool.op_rate.kind is OpRateKind.PER_CUT:
                op = tool.op_rate.value
            else:
                op = tool.op_rate.seconds(cut.op_length or cut.depth or 0)
            if metal:
                op *= METAL_OP_FACTOR
            ft_low += setup_min + op
        if orders.cuts:
            w = spec.load_partial + spec.unload_partial
            if metal:
                w *= METAL_LOAD_FACTOR
            ft_low += w
    return CostVector(
        f_c=sum(inst.spec.effective_price() for inst, _ in stocks),
        f_t=ft_low / 60.0,
        f_p=fp_low / 64.0,
    )


def term_bounds(
    egraph: BopEGraph,
    term: Term,
    cache: OrderCache,
    tools: dict[Tool, ToolSpec],
) -> Bounds:
    """Upper: cost of the concatenated per-node best orders (realizable).
    Lower: per-cut costs assuming every cut is independent of the others."""
    stocks = _term_stocks(egraph, term, cache)
    design_id = egraph.design_id
    cost_p = evaluate_plan(_concat_plan(design_id, stocks, "precision"), tools)
    cost_t = evaluate_plan(_concat_plan(design_id, stocks, "time"), tools)
    upper = CostVector(
        f_c=cost_p.f_c,
        f_t=cost_t.f_t_minutes,
        f_p=cost_p.f_p_inches,
    )
    return Bounds(lower=_lower_bound(stocks, tools), upper=upper)


def _lex_front(labels: list[tuple[tuple[int, ...], float, int]]
               ) -> list[tuple[tuple[int, ...], float, int]]:
    """(path, f_t, f_p) labels in path order, less each one that a kept
    label with a smaller path weakly dominates."""
    kept: list[tuple[tuple[int, ...], float, int]] = []
    for label in sorted(labels):
        _, t, p = label
        for _, kt, kp in kept:
            if kt <= t and kp <= p:
                break
        else:
            kept.append(label)
    return kept


def _pareto_orders(cuts: list[Cut], bill: tuple[StockInstance, ...],
                   tools: dict[Tool, ToolSpec], mode: int) -> list[list[Cut]]:
    """Feasible orders of `cuts` that hold, for every non-dominated order
    cost, the lexicographically first order (by position in `cuts`) with it.

    Forward label-setting over states (done mask, last cut), one popcount at
    a time. The state fixes everything that later steps cost: a cut's
    measured length and operation length depend only on the set of cuts
    already made on its stock, setup sharing only on the last cut's
    signature, and loading only on the last cut's stock. A label is a path
    with its f_t seconds and f_p ticks, summed step by step in the same
    float order as `evaluate_plan`. A label is dropped only for a kept label
    at the same state with a smaller path and a weakly dominating value: the
    same suffix then completes that path to a smaller order whose cost is no
    worse (float sums are monotone), so no lexicographically first order of
    a non-dominated cost is ever dropped, even where rounding turns strict
    dominance into a tie. The returned orders are in lexicographic order and
    may include dominated ones.
    """
    n = len(cuts)
    index = {c.id: i for i, c in enumerate(cuts)}
    # bit n is never set, so a cut whose parent is missing is never ready
    need = [0 if c.parent is None else 1 << index.get(c.parent, n) for c in cuts]
    specs = {inst.key: inst.spec for inst in bill}
    on_stock: dict[str, int] = {}
    for i, c in enumerate(cuts):
        on_stock[c.stock_key] = on_stock.get(c.stock_key, 0) | 1 << i
    stock_mask = [on_stock[c.stock_key] for c in cuts]
    setup_partial = [tools[c.tool].setup_partial for c in cuts]
    setup_full = [tools[c.tool].setup_full(specs[c.stock_key].is_sheet) for c in cuts]
    load = [load_seconds([specs[c.stock_key]]) for c in cuts]

    # pieces of each stock after the cuts in a done-on-stock mask; every
    # feasible order of the same cuts leaves the same pieces
    sims = {(mask, 0): new_sim(specs[key]) for key, mask in on_stock.items()}

    def geometry(i: int, done: int) -> tuple[tuple, float, int]:
        """(setup signature, op seconds, f_p ticks) of cut i after the cuts
        in `done`, all on its stock."""
        cut = cuts[i]
        spec = specs[cut.stock_key]
        tool = tools[cut.tool]
        sim = sims[stock_mask[i], done].copy()
        measured, op_len = resolve_geometry([cut], tool, {cut.stock_key: sim})
        sims.setdefault((stock_mask[i], done | 1 << i), sim)
        # mode 2 has no f_p objective: a constant 0 never separates labels
        ticks = (0 if mode == 2 else
                 measurement_error(measured) + tool.op_error_for(spec.material))
        return ((cut.tool, cut.axis, measured),
                operation_seconds(cut, tool, spec, op_len), ticks)

    steps: dict[tuple[int, int], tuple[tuple, float, int]] = {}
    signature: dict[tuple[int, int], tuple] = {}
    layer: dict[tuple[int, int], list] = {(0, -1): [((), 0.0, 0)]}
    for _ in range(n):
        grown: dict[tuple[int, int], list] = {}
        for (mask, last), labels in layer.items():
            prev = signature.get((mask, last))
            for i in range(n):
                if mask >> i & 1 or need[i] & ~mask:
                    continue
                key = (i, mask & stock_mask[i])
                if key not in steps:
                    steps[key] = geometry(*key)
                sig, op_seconds, ticks = steps[key]
                if setup_partial[i] is not None and prev == sig:
                    setup = setup_partial[i]
                else:
                    setup = setup_full[i]
                run_load = load[i] if last < 0 or stock_mask[last] != stock_mask[i] else 0.0
                step = setup + run_load + op_seconds
                state = (mask | 1 << i, i)
                signature[state] = sig
                out = grown.setdefault(state, [])
                for path, t, p in labels:
                    out.append((path + (i,), t + step, p + ticks))
        layer = {state: _lex_front(labels) for state, labels in grown.items()}
    finals = [label for labels in layer.values() for label in labels]
    return [[cuts[i] for i in path] for path, _, _ in _lex_front(finals)]


# -- refinement --------------------------------------------------------------


def _weakly_dominated(lower: CostVector, front: list[tuple[float, ...]],
                      mode: int) -> bool:
    target = lower.objectives if mode == 3 else (lower.f_c, lower.f_t)
    return any(all(s <= t for s, t in zip(point, target)) for point in front)


def _stacked_candidates(design_id: str,
                        per_stock: list[tuple[StockInstance, list[Cut]]],
                        tools: dict[Tool, ToolSpec]) -> list[FabPlan]:
    plan = stacked_variant(design_id, per_stock, tools)
    return [plan] if plan is not None else []


def refine_term(
    egraph: BopEGraph,
    term: Term,
    cache: OrderCache,
    tools: dict[Tool, ToolSpec],
    archive_front: list[tuple[float, ...]],
    flip_iters: int,
    rng: random.Random,
    mode: int,
) -> list[tuple[FabPlan, PlanCost]]:
    """Ordered plans for a term, or [] when its lower bound is dominated.

    Starts from the upper-bound orders (the per-node best orders, plain and
    stacked). A term of at most EXHAUSTIVE_TERM_CUTS cuts then gets its
    exact order front: `_pareto_orders` finds, for every non-dominated
    cost, the lexicographically first feasible interleaving of all its
    cuts, which is what scoring every permutation would keep, plus the
    stacked per-stock canonical orders. Larger terms are refined by
    `flip_iters` passes of random adjacent swaps within each stock's run.
    """
    stocks = _term_stocks(egraph, term, cache)
    if _weakly_dominated(_lower_bound(stocks, tools), archive_front, mode):
        return []

    design_id = egraph.design_id
    evaluated: list[tuple[FabPlan, PlanCost]] = []

    def consider(plan: FabPlan) -> None:
        evaluated.append((plan, evaluate_plan(plan, tools)))

    start_variants = [
        [(inst, list(orders.best_precision)) for inst, orders in stocks],
        [(inst, list(orders.best_time)) for inst, orders in stocks],
    ]
    for per_stock in start_variants:
        consider(assemble_plan(design_id, per_stock))
        for plan in _stacked_candidates(design_id, per_stock, tools):
            consider(plan)

    all_cuts = [c for _, orders in stocks for c in orders.cuts]
    if flip_iters > 0 and len(all_cuts) <= EXHAUSTIVE_TERM_CUTS:
        bill = tuple(inst for inst, _ in stocks)
        for order in _pareto_orders(all_cuts, bill, tools, mode):
            consider(FabPlan(design_id=design_id, cuts=tuple(order), stock_bill=bill))
        # stacked counterparts of each per-stock canonical order
        canonical = [(inst, list(orders.cuts)) for inst, orders in stocks]
        for plan in _stacked_candidates(design_id, canonical, tools):
            consider(plan)
        return pareto_filter(evaluated, key=lambda pc: pc[1].vector(mode).objectives)

    # stochastic refinement: one adjacent feasible swap per stock per pass
    for per_stock in start_variants:
        current = [(inst, list(order)) for inst, order in per_stock]
        for _ in range(flip_iters):
            changed = False
            for _, order in current:
                if len(order) < 2:
                    continue
                i = rng.randrange(len(order) - 1)
                order[i], order[i + 1] = order[i + 1], order[i]
                if order_is_feasible(order):
                    changed = True
                else:
                    order[i], order[i + 1] = order[i + 1], order[i]
            if changed:
                consider(assemble_plan(design_id, current))
                for plan in _stacked_candidates(design_id, current, tools):
                    consider(plan)
    return pareto_filter(evaluated, key=lambda pc: pc[1].vector(mode).objectives)
