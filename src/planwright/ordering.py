"""Cut-order assignment: per-node search and term refinement.

Each atomic e-node caches its minimum-precision and minimum-time cut orders,
read off the exact order front of its one stock and memoized per run by
its cut pattern (stock spec and cut geometry). A node is looked up first
by its id-free packing (spec and offset-sorted (offset, part shape)
placements), which fixes its cuts, and its own `Cut` objects are built
only when read: for a term search's stacked candidates or a kept plan. A
term gets its exact front of cut orders, memoized per run by its stocks'
cut patterns, so terms of other iterations and designs that cut the same
patterns share it. Up to EXHAUSTIVE_TERM_CUTS cuts the front spans every
interleaving of its stocks' cuts; above that, the orders that cut each
stock in one run, stocks in bill order. No term is pruned: a term's plans
depend only on its cut patterns, the tools and the objective mode.

The fronts come from forward label-setting searches (Martins 1984), not
from a scan of every permutation, each a chain of one step, `_grow`: it
extends every label (path, f_t, f_p, state) of a path-ordered layer by
every move of its state and drops a new label that one kept before it at
its next state weakly dominates. A front is one path-ordered list of
labels. A stock's front, and a small term's, moves cut by cut over states
(done mask, last setup signature, last cut's stock), and ends on each
order's last setup signature (`_pareto_orders`). The state holds exactly
what fixes the future: a cut's piece, and with it its measured length,
operation time and precision error, is fixed by its nearest done siblings
(`StepTable`), which the done mask gives; setup sharing depends only on
the previous cut's (tool, axis, measured length), and loading only on
whether the stock changed. Orders whose last cuts share a signature share
a state. Nodes of more than 8 cuts may exceed MAX_LAYER_STATES states per
cut count; the search then keeps the most promising ones.

A term with one cut stock reads that stock's front. A term above
EXHAUSTIVE_TERM_CUTS cuts joins its stocks' fronts, moving stock by stock
over states that are the last cut's setup signature, each move a label of
the stock's front after it (`_joined`). Times are summed in whole quanta
(`cost.quanta`), so a sum does not depend on the order of its steps, and
the join finds the orders that scoring every one-run order would keep.

Those per-cut step costs come from one `StepTable` per stock cut pattern,
kept in the node memo for the whole run with the pattern's fronts: the
node search fills it, and every term search over a stock with that
pattern reads it, so a step is costed once per run per cut and nearest
done siblings, from the one piece its cut splits (`cost.cut_piece`), with
no piece simulator. A term's front
orders carry the costs their labels sum, and `evaluate_plan` is left to
the stacked plans. Refinement's candidates are the stacked per-node best
orders, then the term's exact front, then the stacked canonical orders;
the stacked ones are tried only for a term in which two cut stocks share a
pattern, since only such stocks stack.
The plain concatenations of the per-node best orders are not candidates:
unless a stock's search is capped, the front spans them, so they could
add a tie but never a cost. Refinement hands on each kept plan as a
recipe over the term's cuts and stocks, with its `CostVector` in the run's
objective mode; `build_plan` makes the plans of the recipes an extraction
keeps.

`candidate_orders`, `_repair_order` and `term_bounds` (with `_lower_bound`
and `_min_epsilon`) are not used by the search loop; they remain for the
benchmark's tracing and their tests.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Callable

from .analysis import pareto_filter
from .cost import (
    Cut,
    FabPlan,
    StockInstance,
    TIME_QUANTA,
    cut_cost,
    cut_piece,
    evaluate_plan,
    load_seconds,
    material_cost,
    measurement_error,
    narrowed,
    order_is_feasible,
    quanta,
    totals_vector,
    whole_piece,
)
from .egraph import AtomicNode, BopEGraph, Term
from .model import (
    METAL_LOAD_FACTOR,
    METAL_OP_FACTOR,
    CostVector,
    Material,
    OpRateKind,
    Part,
    StockSpec,
    Tool,
    ToolSpec,
)
from .plans import assemble_plan, cuts_for_instance, stacked_variant

EXHAUSTIVE_TERM_CUTS = 6  # terms up to this many cuts may interleave stocks
# states the label search keeps per number of cuts done; the last cut fixes
# a state's signature and stock, so 8 cuts give at most C(8, 4) * 4 = 280
# (done mask, last signature, last stock) states, and up to 8 stay exact
MAX_LAYER_STATES = 300


# (setup signature (tool, axis, measured length), op time in quanta, eps
# ticks, op-error ticks) of one cut made after a set of cuts on its stock
Step = tuple[tuple, int, int, int]


class StepTable:
    """One stock cut pattern of a run: its steps and its order fronts.

    A cut's siblings are the cuts with its parent, on its side of that
    parent: every cut of a stick, or the vertical cuts of one sheet shelf
    (`plans.cuts_for_instance`). Its base piece (`base`, a `cost` piece)
    is what its ancestors alone leave of the stock. Once its parent is
    done, the piece the cut splits is its base piece narrowed along its
    axis (`cost.narrowed`) by its nearest done siblings, provided each
    cut's parent comes before it, siblings share one axis and ascend in
    position, and a cut with children has no siblings; the table refuses
    cuts that break one of these (ValueError). Sheet cuts on both axes
    with no parent, say, are refused: their pieces depend on the order
    they are cut in.

    So a cut's `Step` is fixed by the cut and its nearest done siblings:
    `steps` holds it under `key`, filled on demand from that piece
    (`cost.cut_piece`, `cost.cut_cost`), and `siblings` holds each cut's
    masks of the siblings before and after it, from which `key` takes a
    done-on-stock mask's nearest ones. Equal steps share one tuple through
    `pool` (one per run). `parents` holds each cut's parent index (None:
    none), `beyond` where the piece beyond each cut begins (past its
    kerf), `setups` each cut's (partial setup or None, full setup) and
    `load` the stock's load, in quanta. `fronts` maps an entry signature to the
    pattern's mode-3 order labels after a cut with it (`front`); entry None
    is the node search.
    `best_precision` and `best_time` are the node search's (index path,
    (f_p ticks, f_t seconds)) of the best-f_p and best-f_t orders. A run's
    node memo holds one table per pattern, so a table stands for its
    pattern and compares by identity.
    """

    __slots__ = ("spec", "cuts", "tools", "k", "parents", "siblings", "beyond", "base",
                 "setups", "load", "steps", "pool", "fronts", "best_precision", "best_time")

    def __init__(self, spec: StockSpec, cuts: list[Cut],
                 tools: dict[Tool, ToolSpec], pool: dict[Step, Step]) -> None:
        self.spec = spec
        self.cuts = cuts  # the first stock with the pattern, canonical order
        self.tools = tools
        self.k = len(cuts)
        self.parents: list[int | None] = []
        self.beyond = [c.position + tools[c.tool].kerf for c in cuts]
        self.base: list[tuple] = []
        whole = whole_piece(spec.dims)
        index: dict[str, int] = {}
        groups: dict[tuple, int] = {}  # (parent, side) -> mask of its cuts
        keys = []
        for i, c in enumerate(cuts):
            p = index.get(c.parent)
            if p is not None:
                parent = cuts[p]
                side = c.anchor[parent.axis] >= parent.position  # beyond the parent
                base = (narrowed(self.base[p], parent.axis, start=self.beyond[p]) if side
                        else narrowed(self.base[p], parent.axis, end=parent.position))
            elif c.parent is None:
                side, base = False, whole
            else:
                raise ValueError(f"cut {c.id}: its parent must come before it")
            key = (p, side)
            mask = groups.get(key, 0)
            if mask:
                last = cuts[mask.bit_length() - 1]
                if last.axis != c.axis:
                    raise ValueError("sibling cuts must share one axis")
                if last.position >= c.position:
                    raise ValueError("sibling cuts must ascend in position")
            groups[key] = mask | 1 << i
            index[c.id] = i
            keys.append(key)
            self.parents.append(p)
            self.base.append(base)
        if any(groups[keys[p]] & groups[keys[p]] - 1 for p in self.parents if p is not None):
            raise ValueError("a cut with children must have no siblings")
        self.siblings = [(mask & (1 << i) - 1, mask >> i + 1 << i + 1)
                         for i, mask in enumerate(map(groups.get, keys))]
        self.setups = [(None if tools[c.tool].setup_partial is None
                        else quanta(tools[c.tool].setup_partial),
                        quanta(tools[c.tool].setup_full(spec.is_sheet))) for c in cuts]
        self.load = quanta(load_seconds([spec]))
        self.steps: dict[int, Step] = {}
        self.pool = pool
        self.fronts: dict[tuple | None, list[Label]] = {}
        self.best_precision = self.best_time = None  # set by the node search

    def front(self, entry: tuple | None = None) -> list[Label]:
        """`_pareto_orders([self], 3, entry)`, searched once per run."""
        front = self.fronts.get(entry)
        if front is None:
            front = self.fronts[entry] = _pareto_orders([self], 3, entry)
        return front

    def key(self, i: int, done: int) -> int:
        """The `steps` key of cut i after the cuts in `done`, as
        `_pareto_orders` reads it inline: (b + a) * k + i, b being 1 + the
        index of the nearest done sibling below (0: none) and a the bit of
        the nearest above (0: none), above bit i so that b + a is unique."""
        below, above = self.siblings[i]
        above &= done
        return ((done & below).bit_length() + (above & -above)) * self.k + i

    def step(self, i: int, done: int) -> Step:
        """The step of cut i after the cuts in `done`, its parent among them,
        made through its base piece narrowed by its nearest done siblings."""
        key = self.key(i, done)
        step = self.steps.get(key)
        if step is not None:
            return step
        cut = self.cuts[i]
        tool = self.tools[cut.tool]
        below, above = self.siblings[i]
        below, above = (done & below).bit_length() - 1, done & above
        piece = narrowed(self.base[i], cut.axis, self.beyond[below] if below >= 0 else None,
                         self.cuts[(above & -above).bit_length() - 1].position if above else None)
        sig, seconds, eps, perr = cut_cost(cut, tool, self.spec,
                                           *cut_piece(piece, cut, tool.kerf, self.spec.is_sheet))
        step = (sig, quanta(seconds), eps, perr)
        step = self.steps[key] = self.pool.setdefault(step, step)
        return step


class NodeOrders:
    """A node's minimum-precision and minimum-time cut orders: those of its
    cut pattern's step table (`steps`, shared by every node with the
    pattern), on the node's own cuts. The cuts are built from the node's
    packing (`cuts_for_instance`) when first read, unless the node search
    built them already."""

    __slots__ = ("node", "parts_by_id", "steps", "_cuts")

    def __init__(self, node: AtomicNode, parts_by_id: dict[str, Part],
                 steps: StepTable, cuts: tuple[Cut, ...] | None) -> None:
        self.node = node
        self.parts_by_id = parts_by_id
        self.steps = steps
        self._cuts = cuts

    @property
    def cuts(self) -> tuple[Cut, ...]:
        """The node's cuts, in canonical generation order."""
        if self._cuts is None:
            self._cuts = tuple(cuts_for_instance(
                _node_instance(self.node), list(self.node.placements), self.parts_by_id))
        return self._cuts

    @property
    def best_precision(self) -> tuple[Cut, ...]:
        return tuple(self.cuts[i] for i in self.steps.best_precision[0])

    @property
    def best_precision_cost(self) -> tuple[int, float]:  # (f_p ticks, f_t seconds)
        return self.steps.best_precision[1]

    @property
    def best_time(self) -> tuple[Cut, ...]:
        return tuple(self.cuts[i] for i in self.steps.best_time[0])

    @property
    def best_time_cost(self) -> tuple[int, float]:
        return self.steps.best_time[1]


@dataclass(frozen=True)
class Bounds:
    lower: CostVector
    upper: CostVector


@dataclass
class NodeMemo:
    """One run's node search results, for its tool table `tools`.

    `patterns` maps each cut pattern (spec, cut geometry and parent index
    per cut) to its `StepTable`, which holds the node search's best orders
    and the pattern's steps. `packings` maps each id-free packing (spec and
    the offset-sorted (offset, part shape) placements), which fixes the
    cuts, to its pattern's table. `pool` interns the steps of every table.
    """

    tools: dict[Tool, ToolSpec]
    patterns: dict[tuple, StepTable] = field(default_factory=dict)
    packings: dict[tuple, StepTable] = field(default_factory=dict)
    pool: dict[Step, Step] = field(default_factory=dict)


OrderCache = dict[str, NodeOrders]
# a term's stocks in bill order, each with its node's orders
TermStocks = list[tuple[StockInstance, NodeOrders]]
# a refined plan on a term's own cuts: (index into the term's cuts and
# stack group, per cut), (index into the term's stocks, per bill entry),
# its cost vector in the run's objective mode
Recipe = tuple[tuple[tuple[int, str | None], ...], tuple[int, ...], CostVector]
# the term's cut patterns (step tables), in `_term_stocks` order -> recipes
TermMemo = dict[tuple[StepTable, ...], tuple[Recipe, ...]]
# a search label: (path, f_t quanta, f_p ticks, state), and a move of a
# state: (path segment, next state, step f_t quanta, step f_p ticks)
Label = tuple[tuple[int, ...], int, int, tuple | None]
Move = tuple[tuple[int, ...], tuple | None, int, int]


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


def candidate_orders(cuts: list[Cut], budget: int, rng: random.Random) -> list[list[Cut]]:
    """Up to `budget` distinct feasible orders: exhaustive up to four cuts,
    else canonical/reversed plus repaired random permutations."""
    k = len(cuts)
    if k <= 4:
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
    memo: NodeMemo,
) -> NodeOrders:
    """Cache the node's minimum-precision and minimum-time cut orders.

    Both come from the exact order front of the node's one stock (its
    table's entry-None `front`): best-f_p by (f_p, f_t, order) and best-f_t
    by (f_t, f_p, order), orders compared by cut index, which is the
    permutation argmin with first-order tie-break. The answer depends only
    on the stock spec and the cut geometry, given `memo.tools`, so `memo`
    (one per run) holds it in the pattern's step table, as index paths, and
    each node gets it on its own cuts. A node's cuts and their canonical
    order follow from its placements' offsets and part shapes alone
    (`plans.cuts_for_instance`), so a node whose id-free packing
    `memo` knows gets its table without building its cuts, and the table's
    index paths pick the same cuts out of its own; otherwise its cuts give
    the pattern. An uncut node's one order is empty.
    """
    packing = (node.spec, tuple(sorted((off, parts_by_id[pid].shape)
                                       for pid, off in node.placements)))
    table = memo.packings.get(packing)
    if table is not None:
        return NodeOrders(node, parts_by_id, table, None)
    cuts = cuts_for_instance(_node_instance(node), list(node.placements), parts_by_id)
    index = {c.id: i for i, c in enumerate(cuts)}
    key = (node.spec, tuple((c.geometry_key(), index.get(c.parent)) for c in cuts))
    table = memo.patterns.get(key)
    if table is None:
        table = StepTable(node.spec, cuts, memo.tools, memo.pool)
        labels = table.front()
        p = min(labels, key=lambda label: (label[2], label[1], label[0]))
        t = min(labels, key=lambda label: (label[1], label[2], label[0]))
        table.best_precision, table.best_time = (
            (path, (ticks, q / TIME_QUANTA)) for path, q, ticks, _ in (p, t))
        memo.patterns[key] = table
    memo.packings[packing] = table
    return NodeOrders(node, parts_by_id, table, tuple(cuts))


# -- term-level bounds ------------------------------------------------------


def _term_stocks(egraph: BopEGraph, term: Term, cache: OrderCache) -> TermStocks:
    out = []
    for node in egraph.atomic_nodes_of(term):
        out.append((_node_instance(node), cache[node.id]))
    out.sort(key=lambda pair: pair[0].key)
    return out


def _concat_plan(design_id: str, stocks: TermStocks, which: str) -> FabPlan:
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


def _lower_bound(stocks: TermStocks, tools: dict[Tool, ToolSpec]) -> CostVector:
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
    Lower: per-cut costs assuming every cut is independent of the others.

    The lower bound holds for unstacked plans only. Stacking cuts several
    stocks in one operation, which the bound charges once per cut: four
    2x4-96 sticks each cut into six 12" parts have the bound (40 $,
    6.8 min, 0.375") while their stacked plan costs (40 $, 4.317 min,
    0.094").
    """
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


def _grow(layer: list[Label], moves: Callable[[tuple | None], list[Move]]
          ) -> list[Label]:
    """One label-setting step (Martins 1984), the one dominance rule of
    every search here: each label of `layer` extended by each move
    (segment, next state, f_t, f_p) of its state, its segment appended to
    its path and its costs added, less each new label that a label kept
    before it at its next state weakly dominates.

    `layer` holds distinct paths of one length in path order, and `moves`
    gives each state's moves in segment order, segments of one length per
    step. The new labels are then made in path order too, so the labels
    kept before one at its state are exactly those with smaller paths, and
    no sort is needed. A dropped label has a smaller one at its state with
    no worse cost; a state fixes what every later step costs, so the same
    moves complete both, and for every non-dominated cost of a search the
    lexicographically first path with it is kept. After a step onto one
    state, the labels are that front, in path order.
    """
    grown: list[Label] = []
    kept: dict[tuple | None, list[tuple[int, int]]] = {}  # (f_t, f_p) per next state
    made: dict[tuple | None, list[Move]] = {}
    for path, t, p, state in layer:
        out = made.get(state)
        if out is None:
            out = made[state] = moves(state)
        for segment, to, step_t, step_p in out:
            t2, p2 = t + step_t, p + step_p
            front = kept.setdefault(to, [])
            for kt, kp in front:
                if kt <= t2 and kp <= p2:
                    break
            else:
                front.append((t2, p2))
                grown.append((path + segment, t2, p2, to))
    return grown


def _cap_layer(layer: list[Label]) -> list[Label]:
    """`layer` less all but the MAX_LAYER_STATES states whose best labels
    come first, taken in turn by (f_p, f_t, path) and by (f_t, f_p, path).
    No two states share a path, so the choice is a total order and
    deterministic."""
    if len(layer) <= MAX_LAYER_STATES:  # no more states than labels
        return layer
    states: dict[tuple | None, list[Label]] = {}
    for label in layer:
        states.setdefault(label[3], []).append(label)
    if len(states) <= MAX_LAYER_STATES:
        return layer
    by_p = sorted(states, key=lambda s: min((p, t, path) for path, t, p, _ in states[s]))
    by_t = sorted(states, key=lambda s: min((t, p, path) for path, t, p, _ in states[s]))
    kept: set[tuple | None] = set()
    for pair in zip(by_p, by_t):
        for state in pair:
            if len(kept) < MAX_LAYER_STATES:
                kept.add(state)
    return [label for label in layer if label[3] in kept]


def _pareto_orders(tables: list[StepTable], mode: int, entry: tuple | None = None
                   ) -> list[Label]:
    """Labels (path, f_t quanta, f_p ticks, last setup signature) of feasible
    orders of the stocks' cuts, in path order, a path being the order's
    indices into the concatenated cuts of `tables` (the stocks in bill
    order), each with its exact `evaluate_plan` cost (f_p held at 0 in mode
    2) as if it followed a cut of setup signature `entry` (None: a full
    setup first). Per last signature, they are the orders that no smaller
    order ending on it weakly dominates, so a `_grow` onto one state keeps
    the front.

    Precondition: each stock's cuts are contiguous and in the canonical
    order of its table's pattern, so cut i of a stock whose cuts start at
    `offset` reads its step off that table at local index i - offset and
    local done mask `(mask & stock mask) >> offset`.

    n `_grow` steps over states (done mask, last setup signature, last cut's
    stock), one cut each, then one onto each state's last setup signature.
    The state fixes everything that later steps cost: a cut's measured
    length and operation length depend only on its nearest done siblings,
    which the done mask gives (`StepTable`), setup sharing only on the last
    signature, and loading only on the last cut's stock. A label's f_t and
    f_p are exact integer sums of its steps, as `evaluate_plan`'s are.

    A layer of more than MAX_LAYER_STATES states (none for 8 cuts or fewer)
    is cut down to that many by `_cap_layer`; the result is then a
    deterministic heuristic front rather than the exact one.
    """
    n = sum(table.k for table in tables)
    # per cut: its table's steps and size, its index in the table, the
    # offset and mask of its stock's cuts, the masks of its siblings before
    # and after it in the table, its partial setup (None: none) and full
    # setup, and its table
    per_cut: list[tuple[dict[int, Step], int, int, int, int, int, int, int | None, int,
                        StepTable]] = []
    need = []  # per cut, the mask of its parent
    offset = 0
    for table in tables:
        stock = ((1 << table.k) - 1) << offset
        for j, parent in enumerate(table.parents):
            per_cut.append((table.steps, table.k, j, offset, stock) + table.siblings[j]
                           + table.setups[j] + (table,))
            need.append(0 if parent is None else 1 << offset + parent)
        offset += table.k

    def moves(state: tuple) -> list[Move]:
        mask, prev, last_stock = state
        out = []
        for i in range(n):
            if mask >> i & 1 or need[i] & ~mask:
                continue
            steps, k, j, offset, stock, below, above, partial, full, table = per_cut[i]
            done = (mask & stock) >> offset
            above &= done
            sig, op_time, eps, perr = (
                steps.get(((done & below).bit_length() + (above & -above)) * k + j)
                or table.step(j, done))
            setup = partial if partial is not None and prev == sig else full
            # mode 2 has no f_p objective: a constant 0 never separates labels
            out.append(((i,), (mask | 1 << i, sig, stock),
                        setup + (table.load if stock != last_stock else 0) + op_time,
                        0 if mode == 2 else eps + perr))
        return out

    layer: list[Label] = [((), 0, 0, (0, entry, 0))]
    for _ in range(n):
        layer = _cap_layer(_grow(layer, moves))
    return _grow(layer, lambda state: [((), state[1], 0, 0)])


def _stock_moves(table: StepTable, offset: int, mode: int
                 ) -> Callable[[tuple | None], list[Move]]:
    """`_joined`'s moves over one cut stock whose cuts start at `offset`:
    from a last setup signature, one per label of the stock's front after
    it, onto that label's last signature."""
    opens = {table.step(j, 0)[0] for j, c in enumerate(table.cuts)
             if c.parent is None and table.setups[j][0] is not None}

    def moves(sig: tuple | None) -> list[Move]:
        return [(tuple(offset + i for i in path), last, t, 0 if mode == 2 else p)
                for path, t, p, last in table.front(sig if sig in opens else None)]
    return moves


def _joined(tables: list[StepTable], mode: int) -> list[Label] | None:
    """`_pareto_orders`' labels for orders that cut each stock in one run,
    stocks in bill order, found by joining the stocks' fronts. Those are
    all the feasible orders when at most one stock has cuts, and the ones
    the term's front spans above EXHAUSTIVE_TERM_CUTS cuts. None for a term
    of two or more cut stocks with fewer cuts (its orders may interleave
    stocks).

    One `_grow` step per cut stock, over states that are the last cut's
    setup signature, all that the next stock's cost takes from the stocks
    before it: its first cut gets a partial setup when it repeats that
    signature, and it pays its own load anyway. So a stock's moves are the
    labels of its table's front after that signature, already in path
    order, and an uncut stock leaves the state as it is. After a signature
    that no first cut of the stock with a partial setup repeats, every
    order costs what it costs after a full setup, so the entry-None front
    (the node search) serves. In mode 2 the labels' f_p is held at 0.

    A stock's labels sum its steps from 0, and the join adds that sum to
    the running one: integer sums do not depend on their order, so a stock
    order is dropped from its front only for a smaller one no worse after
    any prefix, and the join keeps what scoring every one-run order would
    keep. A stock of more than 8 cuts has capped fronts, so the join is then
    a heuristic.
    """
    cut = [table for table in tables if table.k]
    if len(cut) > 1 and sum(table.k for table in cut) <= EXHAUSTIVE_TERM_CUTS:
        return None
    layer: list[Label] = [((), 0, 0, None)]
    offset = 0
    for table in cut:
        layer = _grow(layer, _stock_moves(table, offset, mode))
        offset += table.k
    return layer


# -- refinement --------------------------------------------------------------


def build_plan(design_id: str, stocks: TermStocks, recipe: Recipe) -> FabPlan:
    """A recipe's plan on the cuts and stocks of the term `refine_term`
    gave it for."""
    cut_refs, bill_refs, _ = recipe
    all_cuts = [c for _, orders in stocks for c in orders.cuts]
    cuts = tuple(all_cuts[i] if group is None else replace(all_cuts[i], stack_group=group)
                 for i, group in cut_refs)
    return FabPlan(design_id=design_id, cuts=cuts,
                   stock_bill=tuple(stocks[j][0] for j in bill_refs))


def refine_term(
    egraph: BopEGraph,
    term: Term,
    cache: OrderCache,
    mode: int,
    memo: TermMemo,
) -> tuple[TermStocks, tuple[Recipe, ...]]:
    """The term's stocks and its non-dominated ordered plans, found by
    `_refined`, as recipes over those stocks, each with its cost vector in
    objective mode `mode`. `build_plan` makes a recipe's plan.

    The plans depend only on the term's cut patterns (the step tables of
    its node orders, in stock order), given the mode. The tables cost the
    plans with the tools of the node memo that built them, one per run, so
    the node orders in `cache` come from one node search. `memo` (one per
    run and mode) holds the recipes per tuple of tables, and every term
    with the same patterns gets them without a search, or a cut built.
    """
    stocks = _term_stocks(egraph, term, cache)
    tables = tuple(orders.steps for _, orders in stocks)
    recipes = memo.get(tables)
    if recipes is None:
        recipes = memo[tables] = _refined(egraph.design_id, stocks, mode)
    return stocks, recipes


def _may_stack(tables: list[StepTable]) -> bool:
    """Whether two cut stocks share a step table. `stacked_variant` stacks
    only cut stocks of one spec and one cut geometry, which is one pattern,
    and a run has one table per pattern; so without a shared table it
    returns None."""
    cut = [table for table in tables if table.k]
    return len(set(cut)) < len(cut)


def _refined(design_id: str, stocks: TermStocks, mode: int) -> tuple[Recipe, ...]:
    """`refine_term`'s search: its candidates as recipes, costed and
    filtered, so that only the kept ones become plans.

    The candidates are the stacked per-node best orders, then the term's
    exact order front, then the stacked per-stock canonical orders, each
    costed once as a `CostVector` in mode `mode`. A front order takes its
    label's (f_t quanta, f_p ticks), which sum its steps exactly as
    `evaluate_plan` does (a mode-2 label's f_p is 0; its vector has none),
    and the term's f_c; stacked plans go through `evaluate_plan`. The front
    holds, for every non-dominated cost, the lexicographically first
    feasible order of all the term's cuts, which is what scoring every such
    order would keep: up to EXHAUSTIVE_TERM_CUTS cuts every interleaving of
    its stocks, above that every order that cuts each stock in one run,
    stocks in bill order. `_joined` finds it for a term with one cut stock
    and for every term above EXHAUSTIVE_TERM_CUTS cuts, `_pareto_orders`
    for the others. The plain concatenations of the per-node best orders
    are not candidates: each cuts every stock in one run, stocks in bill
    order, so unless a stock's search is capped the front spans it, and it
    could add a tie but never a cost.

    Stacked candidates are tried only where `_may_stack` allows one, so a
    term without two cut stocks of one pattern builds no cut.
    """
    bill = tuple(inst for inst, _ in stocks)
    f_c = material_cost(bill)
    tables = [orders.steps for _, orders in stocks]
    stackable = _may_stack(tables)
    plain_bill = tuple(range(len(bill)))
    candidates: list[Recipe] = []

    def consider_stacked(pick: Callable[[NodeOrders], tuple[Cut, ...]]) -> None:
        if not stackable:
            return
        tools = tables[0].tools  # the node memo's, which the steps were costed with
        plan = stacked_variant(design_id, [(inst, list(pick(orders))) for inst, orders in stocks],
                               tools)
        if plan is not None:
            at = {c.id: i for i, c in enumerate(c for _, orders in stocks for c in orders.cuts)}
            stock_at = {inst.key: j for j, inst in enumerate(bill)}
            candidates.append((tuple((at[c.id], c.stack_group) for c in plan.cuts),
                               tuple(stock_at[inst.key] for inst in plan.stock_bill),
                               evaluate_plan(plan, tools).vector(mode)))

    consider_stacked(lambda orders: orders.best_precision)
    consider_stacked(lambda orders: orders.best_time)
    labels = _joined(tables, mode)
    if labels is None:
        labels = _pareto_orders(tables, mode)
    for path, q, ticks, _ in _grow(labels, lambda state: [((), None, 0, 0)]):
        candidates.append((tuple((i, None) for i in path), plain_bill,
                           totals_vector(f_c, q / TIME_QUANTA, ticks, mode)))
    # stacked counterparts of each per-stock canonical order
    consider_stacked(lambda orders: orders.cuts)
    return tuple(pareto_filter(candidates, key=lambda recipe: recipe[2].objectives))
