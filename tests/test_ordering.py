import dataclasses
import itertools
import math
import random
import time

import pytest

from planwright.analysis import pareto_filter
from planwright.cost import (
    FabPlan,
    PlanError,
    StockInstance,
    evaluate_plan,
    order_is_feasible,
    quanta,
)
from planwright.plans import assemble_plan, cuts_for_instance, stacked_variant
from planwright.egraph import AtomicNode, BopEGraph
from planwright.libraries import default_stocks, default_tools, with_metal_twins
from planwright.model import OpRate, OpRateKind, Part, Tool, ticks
from planwright import cost as cost_module, ordering
from planwright.ordering import (
    EXHAUSTIVE_TERM_CUTS,
    NodeMemo,
    StepTable,
    _repair_order,
    build_plan,
    candidate_orders,
    optimize_enode,
    refine_term,
    term_bounds,
)
from planwright.packing import Arrangement

STOCKS = {s.id: s for s in with_metal_twins(default_stocks())}
TOOLS = default_tools()


def lumber_node(lengths_in, stock_id="2x4-96", nid="n0"):
    parts = {}
    placements = []
    offset = 0
    kerf = TOOLS_KERF
    for i, length in enumerate(lengths_in):
        pid = f"p{i}"
        parts[pid] = Part(id=pid, family=STOCKS[stock_id].family,
                          shape=(ticks(length),))
        placements.append((pid, (offset,)))
        offset += ticks(length) + kerf
    node = AtomicNode(id=nid, spec=STOCKS[stock_id], placements=tuple(placements))
    return node, parts


TOOLS_KERF = next(t for t in TOOLS.values() if t.kerf and t.setup_partial).kerf


def refined_plans(g, term, cache, mode, memo):
    """`refine_term`'s plans, each built from its recipe by `build_plan`,
    with its cost."""
    stocks, recipes = refine_term(g, term, cache, mode, memo)
    return [(build_plan(g.design_id, stocks, recipe), recipe[2]) for recipe in recipes]


def node_outcome(orders):
    """All that a node's orders carry but its step table: its cuts and its
    best orders with their costs."""
    return (orders.cuts, orders.best_precision, orders.best_precision_cost,
            orders.best_time, orders.best_time_cost)


def eval_node_order(inst, order):
    """(f_p ticks, f_t seconds) of one stock cut in `order`."""
    plan = FabPlan(design_id="node", cuts=tuple(order), stock_bill=(inst,))
    cost = evaluate_plan(plan, TOOLS)
    return cost.f_p_ticks, cost.f_t_seconds


def exhaustive_node_costs(node, parts):
    inst = StockInstance(key=f"{node.spec.id}#0", spec=node.spec)
    cuts = cuts_for_instance(inst, list(node.placements), parts)
    costs = []
    for perm in itertools.permutations(cuts):
        order = list(perm)
        if not order_is_feasible(order):
            continue
        plan = assemble_plan("d", [(inst, order)])
        c = evaluate_plan(plan, TOOLS)
        costs.append((c.f_p_ticks, c.f_t_seconds))
    return costs


def test_optimize_enode_matches_exhaustive_small():
    node, parts = lumber_node([10, 20, 30])
    result = optimize_enode(node, parts, NodeMemo(TOOLS))
    all_costs = exhaustive_node_costs(node, parts)
    assert result.best_precision_cost[0] == min(p for p, _ in all_costs)
    assert result.best_time_cost[1] == min(t for _, t in all_costs)


def test_optimize_enode_order_dependent_case():
    # offsets land off the measurement grid, so the reference edge matters
    node, parts = lumber_node([ticks("395/64") / 64, 30, 40])
    result = optimize_enode(node, parts, NodeMemo(TOOLS))
    all_costs = exhaustive_node_costs(node, parts)
    assert len({p for p, _ in all_costs}) > 1
    assert result.best_precision_cost[0] == min(p for p, _ in all_costs)


def test_candidate_orders_budget_and_feasibility():
    node, parts = lumber_node([5, 6, 7, 8, 9, 10, 11])
    inst = StockInstance(key=f"{node.spec.id}#0", spec=node.spec)
    cuts = cuts_for_instance(inst, list(node.placements), parts)
    assert len(cuts) > 4
    orders = candidate_orders(cuts, 25, random.Random("b"))
    assert len(orders) == 25
    sigs = {tuple(c.id for c in o) for o in orders}
    assert len(sigs) == 25
    assert all(order_is_feasible(o) for o in orders)
    assert all(sorted(c.id for c in o) == sorted(c.id for c in cuts) for o in orders)


def term_for(lengths_in, stock_id="2x4-96"):
    node, parts = lumber_node(lengths_in, stock_id)
    g = BopEGraph("d", frozenset(parts))
    inst = StockInstance(key=f"{stock_id}#0", spec=STOCKS[stock_id])
    # register via the public path: a one-instance arrangement
    g.add_arrangement(Arrangement(
        design_id="d", stocks=((inst, tuple(sorted(node.placements))),)))
    term = g.individuals()[0]
    cache = {}
    for nid in term:
        n = g.nodes[nid]
        if isinstance(n, AtomicNode):
            cache[nid] = optimize_enode(n, parts, NodeMemo(TOOLS))
    return g, term, cache, node, parts


def test_term_bounds_sound_against_exhaustive():
    g, term, cache, node, parts = term_for([10, 20, 30])
    bounds = term_bounds(g, term, cache, TOOLS)
    for fp_ticks, ft_seconds in exhaustive_node_costs(node, parts):
        assert bounds.lower.f_p <= fp_ticks / 64.0 + 1e-9
        assert bounds.lower.f_t <= ft_seconds / 60.0 + 1e-9
    assert bounds.lower.f_c == bounds.upper.f_c
    assert bounds.lower.f_t <= bounds.upper.f_t + 1e-9
    assert bounds.lower.f_p <= bounds.upper.f_p + 1e-9


def test_refine_term_within_exhaustive_pareto():
    g, term, cache, node, parts = term_for([10, 20, 30])
    all_costs = exhaustive_node_costs(node, parts)
    best_t = min(t for _, t in all_costs)
    best_p = min(p for p, _ in all_costs)
    for mode in (2, 3):
        results = refined_plans(g, term, cache, mode, {})
        assert results
        # refined plans never beat the exhaustive (non-stacked) optimum on
        # either axis unless stacking applies (single stock: it cannot); a
        # mode-2 vector has no f_p
        for plan, cost in results:
            assert len(cost.objectives) == mode
            assert cost.f_t >= best_t / 60
            if mode == 3:
                assert cost.f_p >= best_p / 64
        assert any(c.f_t == best_t / 60 for _, c in results)
        # results are mutually non-dominated
        objs = [c.objectives for _, c in results]
        for a in objs:
            assert not any(all(x <= y for x, y in zip(b, a)) and b != a for b in objs)


def test_optimize_enode_empty_node():
    # a single part filling one whole designated stock needs no cuts
    stock = STOCKS["2x4-24"]
    pid = "p0"
    parts = {pid: Part(id=pid, family="2x4", shape=(stock.dims[0],))}
    node = AtomicNode(id="n0", spec=stock, placements=((pid, (0,)),))
    result = optimize_enode(node, parts, NodeMemo(TOOLS))
    assert result.cuts == ()
    assert result.best_time_cost == (0, 0.0)


def scan_repair_order(cuts):
    """Reference: the rescanning loop `_repair_order` replaced."""
    done = set()
    remaining = list(cuts)
    out = []
    while remaining:
        for i, c in enumerate(remaining):
            if c.parent is None or c.parent in done:
                out.append(c)
                done.add(c.id)
                del remaining[i]
                break
        else:
            raise ValueError("cyclic cut dependencies")
    return out


def test_repair_order_matches_rescanning_loop():
    rng = random.Random("repair")
    for _ in range(200):
        stocks = [random_stock(rng, "sheet") for _ in range(rng.randint(1, 3))]
        _, _, cache = build_term(stocks)
        cuts = [c for orders in cache.values() for c in orders.cuts]
        rng.shuffle(cuts)
        assert [c.id for c in _repair_order(cuts)] == \
            [c.id for c in scan_repair_order(cuts)]
    # a cut whose parent is missing never becomes ready
    cuts = next(iter(cache.values())).cuts
    child = next(c for c in cuts if c.parent is not None)
    with pytest.raises(ValueError):
        _repair_order([child])


# -- exact order front: parity with scoring every permutation ---------------

LUMBER = ["2x2-24", "2x4-48", "metal-2x2-24", "metal-2x4-48"]
LENGTHS = [ticks(x) for x in (4, 5, 6, "6.125", "395/64")]
SHEETS = ["sheet-1/2-24x20", "sheet-3/4-12x20"]
SHELF_HEIGHTS = [ticks(x) for x in (4, "5.5", 6)]
WIDTHS = [ticks(x) for x in (3, "3.25", 5)]


def place(spec, layout, parts, prefix="p"):
    """Sorted places of `layout` on `spec`, adding its parts to `parts`
    with ids `prefix` + running number.

    A lumber layout lists part lengths, packed end to end from offset 0; a
    sheet layout lists shelves, bottom up, as (height, part widths), giving
    horizontal cuts with parent links and vertical cuts that depend on them.
    """
    places = []

    def part(shape, offset):
        pid = f"{prefix}{len(parts)}"
        parts[pid] = Part(id=pid, family=spec.family, shape=shape,
                          material=spec.material)
        places.append((pid, offset))

    if spec.is_sheet:
        y = 0
        for height, widths in layout:
            x = 0
            for w in widths:
                part((w, height), (x, y))
                x += w + TOOLS_KERF
            y += height + TOOLS_KERF
    else:
        offset = 0
        for length in layout:
            part((length,), (offset,))
            offset += length + TOOLS_KERF
    return tuple(sorted(places))


def atomic_nodes(g, term):
    """The atomic nodes the term lists, in its order."""
    return [g.nodes[nid] for nid in term if isinstance(g.nodes[nid], AtomicNode)]


def build_term(stocks, tools=TOOLS, prefix="p", first_node=0, node_memo=None):
    """A term over one arrangement of `stocks`, with its node order cache.

    Each entry is (stock id, layout), a layout as `place` takes it. Part
    ids start with `prefix`; node ids count up from `first_node`. The node
    searches share `node_memo` (by default a new one for `tools`).
    """
    if node_memo is None:
        node_memo = NodeMemo(tools)
    parts = {}
    placed = []
    for j, (stock_id, layout) in enumerate(stocks):
        spec = STOCKS[stock_id]
        inst = StockInstance(key=f"{stock_id}#{j}", spec=spec)
        placed.append((inst, place(spec, layout, parts, prefix)))
    g = BopEGraph("d", frozenset(parts))
    g._next = first_node
    g.add_arrangement(Arrangement(design_id="d", stocks=tuple(placed)))
    term = g.individuals()[0]
    cache = {n.id: optimize_enode(n, parts, node_memo)
             for n in atomic_nodes(g, term)}
    return g, term, cache


def random_stock(rng, kind):
    if kind == "sheet":
        shelves = [(rng.choice(SHELF_HEIGHTS),
                    [rng.choice(WIDTHS) for _ in range(rng.randint(1, 2))])
                   for _ in range(rng.randint(1, 2))]
        return rng.choice(SHEETS), shelves
    return rng.choice(LUMBER), [rng.choice(LENGTHS)
                                for _ in range(rng.randint(1, 3))]


def permutation_refine(g, term, cache, mode, tools=TOOLS):
    """Reference: `refine_term` with every feasible order of the term's cuts
    scored by `evaluate_plan`, as its cost vector in `mode`. Up to
    EXHAUSTIVE_TERM_CUTS cuts that is every permutation; above, every order
    that cuts each stock in one run, stocks in `_term_stocks` order."""
    stocks = sorted(((StockInstance(key=n.id, spec=n.spec), cache[n.id])
                     for n in atomic_nodes(g, term)), key=lambda s: s[0].key)
    evaluated = []

    def consider(plan):
        evaluated.append((plan, evaluate_plan(plan, tools).vector(mode)))

    def consider_stacked(per_stock):
        plan = stacked_variant("d", per_stock, tools)
        if plan is not None:
            consider(plan)

    consider_stacked([(inst, list(orders.best_precision)) for inst, orders in stocks])
    consider_stacked([(inst, list(orders.best_time)) for inst, orders in stocks])
    all_cuts = [c for _, orders in stocks for c in orders.cuts]
    bill = tuple(inst for inst, _ in stocks)
    if len(all_cuts) <= EXHAUSTIVE_TERM_CUTS:
        perms = itertools.permutations(all_cuts)
    else:
        runs = [[run for run in itertools.permutations(orders.cuts)
                 if order_is_feasible(list(run))] for _, orders in stocks]
        perms = (sum(combo, ()) for combo in itertools.product(*runs))
    for perm in perms:
        if order_is_feasible(list(perm)):
            consider(FabPlan(design_id="d", cuts=perm, stock_bill=bill))
    consider_stacked([(inst, list(orders.cuts)) for inst, orders in stocks])
    return pareto_filter(evaluated, key=lambda pc: pc[1].objectives)


def outcome(results):
    """Each plan's stock bill, its cuts' stocks, geometries and stack groups,
    and its cost."""
    return [((tuple(sorted((i.key, i.spec.id) for i in plan.stock_bill)),
              tuple((c.stock_key, c.geometry_key(), c.stack_group) for c in plan.cuts)),
             cost) for plan, cost in results]


# the largest terms the parity tests check against scoring every order
PARITY_MAX_CUTS = 10


def term_cuts(stocks):
    return sum(len(o.cuts) for o in build_term(stocks)[2].values())


def assert_parity(stocks, mode, tools=TOOLS):
    g, term, cache = build_term(stocks, tools)
    assert sum(len(orders.cuts) for orders in cache.values()) <= PARITY_MAX_CUTS
    got = refined_plans(g, term, cache, mode, {})
    assert outcome(got) == outcome(permutation_refine(g, term, cache, mode, tools))
    return got


@pytest.mark.parametrize("mode", [2, 3])
@pytest.mark.parametrize("kind", ["lumber", "sheet"])
def test_exact_order_front_matches_permutations(kind, mode):
    # 40 terms of at most EXHAUSTIVE_TERM_CUTS cuts, whose orders may
    # interleave stocks, and 12 of 7-10 cuts, cut one stock after another
    rng = random.Random(f"{kind}-{mode}")
    small = large = 0
    while small < 40 or large < 12:
        stocks = [random_stock(rng, kind) for _ in range(rng.randint(1, 4))]
        n_cuts = term_cuts(stocks)
        if n_cuts <= EXHAUSTIVE_TERM_CUTS and small < 40:
            small += 1
        elif EXHAUSTIVE_TERM_CUTS < n_cuts <= PARITY_MAX_CUTS and large < 12:
            large += 1
        else:
            continue
        assert_parity(stocks, mode)


@pytest.mark.parametrize("mode", [2, 3])
def test_exact_order_front_interleaves_stocks(mode):
    # Each stick's second cut is measured 16.75" off its far end. Cutting
    # them back to back shares the jig (15 s setup instead of 60 s), which
    # is worth the 15 s of reloading the first stick: 244 s against 274 s
    # for the best order that cuts one stick after the other.
    got = assert_parity([("2x2-24", [ticks(3), ticks(4)]),
                         ("2x2-24", [ticks(4), ticks(3)])], mode)
    fastest, cost = min(got, key=lambda pc: pc[1].f_t)
    runs = [key for key, _ in itertools.groupby(c.stock_key for c in fastest.cuts)]
    assert len(runs) > len(set(runs)), runs
    assert cost.f_t == 244.0 / 60


@pytest.mark.parametrize("mode", [2, 3])
def test_exact_order_front_partial_setup_tie(mode):
    # Two sheets whose 3" parts share one vertical-cut setup when cut back
    # to back, across the sheets: three feasible interleavings tie on cost,
    # none of them a start plan, and the first in permutation order is the
    # one to keep.
    stocks = [("sheet-1/2-24x20", [(ticks(4), [ticks(3)])]),
              ("sheet-1/2-24x20", [(ticks("5.5"), [ticks(3), ticks(3)])])]
    got = assert_parity(stocks, mode)
    plan, cost = min(got, key=lambda pc: pc[1].f_t)
    _, _, cache = build_term(stocks)
    term_cuts = [c for nid in sorted(cache) for c in cache[nid].cuts]
    ties = [perm for perm in itertools.permutations(term_cuts)
            if order_is_feasible(list(perm)) and evaluate_plan(
                FabPlan("d", perm, plan.stock_bill), TOOLS).vector(mode) == cost]
    assert len(ties) == 3
    assert plan.cuts == ties[0]
    partial = TOOLS[plan.cuts[0].tool].setup_partial
    assert any(row.setup == partial for row in evaluate_plan(plan, TOOLS).rows)


def test_exact_order_front_keeps_first_order_on_rounding_ties():
    # A 0.1 s chop is no whole number of 1/64 s, so float sums of the steps
    # would depend on the order they are added in. f_t sums them exactly:
    # orders made of the same steps have one f_t_seconds, and of the orders
    # tied on a front cost the first in permutation order is kept.
    tools = dict(TOOLS)
    tools[Tool.CHOPSAW] = dataclasses.replace(
        TOOLS[Tool.CHOPSAW], op_rate=OpRate(OpRateKind.PER_CUT, 0.1))
    stocks = [("metal-2x2-24", [ticks(6)]), ("2x2-24", [ticks("395/64")]),
              ("2x2-24", [ticks(5), ticks("6.125")]),
              ("metal-2x4-48", [ticks("395/64")])]
    got = assert_parity(stocks, 2, tools)
    g, term, cache = build_term(stocks, tools)
    term_cuts = [c for nid in sorted(cache) for c in cache[nid].cuts]
    bill = got[0][0].stock_bill
    seconds = {}
    orders = {}
    for perm in itertools.permutations(term_cuts):
        cost = evaluate_plan(FabPlan("d", perm, bill), tools)
        steps = tuple(sorted((row.setup, row.load, row.op) for row in cost.rows))
        seconds.setdefault(steps, set()).add(cost.f_t_seconds)
        orders.setdefault(cost.vector(2), []).append(perm)
    assert all(len(s) == 1 for s in seconds.values())
    assert any(len(orders[cost]) > 1 for _, cost in got)
    for plan, cost in got:
        assert plan.cuts == orders[cost][0]


@pytest.mark.parametrize("mode", [2, 3])
@pytest.mark.parametrize("stocks", [
    # the fastest order ends the first stick on a 6" cut and starts the
    # second one on a 6" cut, so the jig carries over the stock boundary;
    # the second stick's order for it is not on its front after a full setup
    [("2x2-48", [ticks(6), ticks("395/64"), ticks("6.125"), ticks(4)]),
     ("2x4-48", [ticks(6), ticks(4), ticks(5), ticks(5)])],
    # the same with an uncut 2x4-24 between them: it makes no cut, so the
    # setup still carries over
    [("2x2-48", [ticks(6), ticks("395/64"), ticks("6.125"), ticks(4)]),
     ("2x4-24", [STOCKS["2x4-24"].dims[0]]),
     ("2x4-48", [ticks(6), ticks(4), ticks(5), ticks(5)])],
    # metal lumber: its load and operation factors
    [("metal-2x4-48", [ticks(4), ticks(5), ticks(5)]),
     ("metal-2x4-48", [ticks(6), ticks("6.125")]),
     ("metal-2x2-24", [ticks(4), ticks("6.125"), ticks("395/64")])],
], ids=["boundary", "uncut-between", "metal"])
def test_joined_front_shares_setup_across_stocks(stocks, mode):
    # lumber terms above EXHAUSTIVE_TERM_CUTS cuts: their fronts join the
    # stocks' fronts, one of them searched after the previous stock's last
    # cut (an entry front)
    assert term_cuts(stocks) > EXHAUSTIVE_TERM_CUTS
    got = assert_parity(stocks, mode)
    plan, _ = min(got, key=lambda pc: pc[1].f_t)
    assert not any(c.stack_group for c in plan.cuts)
    firsts = [i for i, c in enumerate(plan.cuts)
              if i and c.stock_key != plan.cuts[i - 1].stock_key]
    partial = TOOLS[Tool.CHOPSAW].setup_partial
    rows = evaluate_plan(plan, TOOLS).rows
    assert any(rows[i].setup == partial for i in firsts)


def raw_joined(tables, mode):
    """Reference for `ordering._joined`: the join over states that are the
    raw last setup signatures, each stock's moves its front after the
    state, whatever the state."""
    cut = [table for table in tables if table.k]
    if len(cut) > 1 and sum(table.k for table in cut) <= EXHAUSTIVE_TERM_CUTS:
        return None
    layer = [((), 0, 0, None)]
    offset = 0
    for table in cut:
        def moves(sig, table=table, offset=offset):
            return [(tuple(offset + i for i in path), last, t, 0 if mode == 2 else p)
                    for path, t, p, last in table.front(sig)]
        layer = ordering._grow(layer, moves)
        offset += table.k
    return layer


@pytest.mark.parametrize("mode", [2, 3])
def test_joined_state_merge_is_exact(mode, monkeypatch):
    # `_joined` keeps a label's last setup signature only when the next cut
    # stock can open with it (its `opens`) and merges the rest into None. On
    # random terms above EXHAUSTIVE_TERM_CUTS cuts, of sticks cut from two
    # lengths (so that a stock's first cut often repeats the last signature
    # of the stock before it), a quarter of them with a sheet too, the
    # recipes equal those of a join over the raw last signatures, and some
    # of them share a setup across a stock boundary
    rng = random.Random(f"join-states-{mode}")
    node_memo = NodeMemo(TOOLS)
    stock_moves = ordering._stock_moves
    carried = set()  # the signatures the join's moves keep

    def recorded(table, offset, mode, kept):
        moves = stock_moves(table, offset, mode, kept)

        def wrapped(sig):
            out = moves(sig)
            carried.update(to for _, to, _, _ in out if to is not None)
            return out
        return wrapped

    monkeypatch.setattr(ordering, "_stock_moves", recorded)
    partial = TOOLS[Tool.CHOPSAW].setup_partial
    terms = across = 0
    while terms < 40:
        pool = rng.sample(LENGTHS, 2)
        stocks = [(rng.choice(LUMBER), [rng.choice(pool) for _ in range(rng.randint(1, 4))])
                  for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.25:
            stocks.insert(rng.randint(0, len(stocks)), random_stock(rng, "sheet"))
        g, term, cache = build_term(stocks, node_memo=node_memo)
        term_stocks = ordering._term_stocks(g, term, cache)
        cut = [orders.steps for _, orders in term_stocks if orders.cuts]
        if len(cut) < 2 or sum(table.k for table in cut) <= EXHAUSTIVE_TERM_CUTS:
            continue
        terms += 1
        got = ordering._refined(g.design_id, term_stocks, mode)
        with monkeypatch.context() as patched:
            patched.setattr(ordering, "_joined", raw_joined)
            assert ordering._refined(g.design_id, term_stocks, mode) == got
        for recipe in got:
            plan = build_plan(g.design_id, term_stocks, recipe)
            rows = evaluate_plan(plan, TOOLS).rows
            across += any(rows[i].setup == partial and not plan.cuts[i].stack_group
                          for i in range(1, len(rows))
                          if plan.cuts[i].stock_key != plan.cuts[i - 1].stock_key)
    assert carried and across


# -- node order search: parity with scoring every permutation ----------------


def layout_node(stock_id, layout, nid="n0", prefix="p"):
    """One packed stock as an atomic node, with its parts."""
    spec = STOCKS[stock_id]
    parts = {}
    placements = place(spec, layout, parts, prefix)
    return AtomicNode(id=nid, spec=spec, placements=placements), parts


def random_node(rng, kind):
    """Wood or metal lumber with 1-7 cuts, or a sheet with 1-8 cuts."""
    if kind == "lumber":
        stock_id = rng.choice(["2x4-48", "metal-2x4-48", "2x2-96", "metal-2x2-96"])
        return stock_id, [rng.choice(LENGTHS) for _ in range(rng.randint(1, 7))]
    while True:
        shelves = [(rng.choice(SHELF_HEIGHTS),
                    [rng.choice(WIDTHS) for _ in range(rng.randint(1, 3))])
                   for _ in range(rng.randint(1, 3))]
        # one horizontal cut per shelf and one vertical cut per part
        if len(shelves) + sum(len(w) for _, w in shelves) <= 8:
            return rng.choice(["sheet-1/2-24x20", "metal-sheet-3/4-24x20"]), shelves


def brute_force_node(node, parts):
    """(best-f_p order, its cost, best-f_t order, its cost) over every
    feasible permutation, first permutation winning ties."""
    inst = StockInstance(key=node.id, spec=node.spec)
    cuts = cuts_for_instance(inst, list(node.placements), parts)
    orders = [perm for perm in itertools.permutations(cuts)
              if order_is_feasible(list(perm))]
    costs = [eval_node_order(inst, order) for order in orders]
    p = min(range(len(orders)), key=lambda i: (costs[i][0], costs[i][1], i))
    t = min(range(len(orders)), key=lambda i: (costs[i][1], costs[i][0], i))
    return orders[p], costs[p], orders[t], costs[t]


@pytest.mark.parametrize("kind,count", [("lumber", 40), ("sheet", 40)])
def test_node_orders_match_permutation_argmin(kind, count):
    rng = random.Random(f"node-{kind}")
    sizes = set()
    for _ in range(count):
        node, parts = layout_node(*random_node(rng, kind))
        got = optimize_enode(node, parts, NodeMemo(TOOLS))
        sizes.add(len(got.cuts))
        assert (got.best_precision, got.best_precision_cost,
                got.best_time, got.best_time_cost) == brute_force_node(node, parts)
    assert max(sizes) == (7 if kind == "lumber" else 8)


def test_node_memo_shares_orders_across_relabelled_nodes():
    memo = NodeMemo(TOOLS)
    for stock_id, layout in [("2x4-48", [LENGTHS[4], LENGTHS[0], LENGTHS[4]]),
                             ("sheet-1/2-24x20", [(SHELF_HEIGHTS[1], WIDTHS[:2]),
                                                  (SHELF_HEIGHTS[0], WIDTHS[1:])])]:
        first, first_parts = layout_node(stock_id, layout, "n3")
        again, again_parts = layout_node(stock_id, layout, "n17", prefix="q")
        assert set(first_parts).isdisjoint(again_parts)
        size = len(memo.patterns)
        a = optimize_enode(first, first_parts, memo)
        assert len(memo.patterns) == size + 1
        b = optimize_enode(again, again_parts, memo)
        assert len(memo.patterns) == size + 1
        assert a.steps is b.steps
        assert node_outcome(b) == node_outcome(optimize_enode(again, again_parts, NodeMemo(TOOLS)))
        assert all(c.stock_key == "n17" for c in b.best_precision + b.best_time)
        index_a = {c.id: i for i, c in enumerate(a.cuts)}
        index_b = {c.id: i for i, c in enumerate(b.cuts)}
        for order_a, order_b in [(a.best_precision, b.best_precision),
                                 (a.best_time, b.best_time)]:
            assert [index_a[c.id] for c in order_a] == [index_b[c.id] for c in order_b]
        assert (a.best_precision_cost, a.best_time_cost) == \
            (b.best_precision_cost, b.best_time_cost)
    # the stock spec and the cut geometry are part of the pattern: the metal
    # twin and a stick cut at other places are searched anew
    for stock_id, layout in [("metal-2x4-48", [LENGTHS[4], LENGTHS[0], LENGTHS[4]]),
                             ("2x4-48", [LENGTHS[4], LENGTHS[4], LENGTHS[0]])]:
        node, parts = layout_node(stock_id, layout, "n9")
        size = len(memo.patterns)
        assert node_outcome(optimize_enode(node, parts, memo)) == \
            node_outcome(optimize_enode(node, parts, NodeMemo(TOOLS)))
        assert len(memo.patterns) == size + 1


def test_node_memo_finds_tables_by_packing(monkeypatch):
    # a node whose id-free packing (spec, offset-sorted (offset, part shape)
    # placements) the memo knows gets that packing's table without building
    # a cut, also under other part ids; one whose first part is shorter gets
    # a table of its own. Every node's cuts, built when first read, are its
    # packing's.
    rng = random.Random("packings")
    built = []
    cuts_for = ordering.cuts_for_instance
    monkeypatch.setattr(ordering, "cuts_for_instance",
                        lambda inst, *args: built.append(inst.key) or cuts_for(inst, *args))
    for kind in ["lumber", "sheet"] * 10:
        stock_id, layout = random_node(rng, kind)
        first, parts = layout_node(stock_id, layout, "n1")
        same = dataclasses.replace(first, id="n2")
        relabelled, relabelled_parts = layout_node(stock_id, layout, "n3", prefix="q")
        memo = NodeMemo(TOOLS)
        built.clear()
        a = optimize_enode(first, parts, memo)
        b = optimize_enode(same, parts, memo)
        c = optimize_enode(relabelled, relabelled_parts, memo)
        assert built == ["n1"]
        assert a.steps is b.steps is c.steps
        assert len(memo.patterns) == 1 and len(memo.packings) == 1
        shorter_parts = dict(parts, p0=dataclasses.replace(
            parts["p0"], shape=(parts["p0"].shape[0] - ticks(1),) + parts["p0"].shape[1:]))
        shorter = dataclasses.replace(first, id="n4")
        d = optimize_enode(shorter, shorter_parts, memo)
        assert d.steps is not a.steps
        for node, node_parts, orders in [(first, parts, a), (same, parts, b),
                                         (relabelled, relabelled_parts, c),
                                         (shorter, shorter_parts, d)]:
            inst = StockInstance(key=node.id, spec=node.spec)
            assert orders.cuts == tuple(cuts_for(inst, list(node.placements), node_parts))
            assert node_outcome(orders) == \
                node_outcome(optimize_enode(node, node_parts, NodeMemo(TOOLS)))
        assert built.count("n2") == 2  # b's cuts once, then a fresh search's


@pytest.mark.parametrize("stock_id,layout", [
    ("2x4-96", [LENGTHS[i % 5] for i in range(16)]),
    ("sheet-1/2-48x36", [(SHELF_HEIGHTS[i % 3], [WIDTHS[(i + j) % 3] for j in range(3)])
                         for i in range(4)]),
], ids=["lumber", "sheet"])
def test_large_node_search_is_capped(stock_id, layout):
    node, parts = layout_node(stock_id, layout)
    start = time.perf_counter()
    got = optimize_enode(node, parts, NodeMemo(TOOLS))
    assert time.perf_counter() - start < 2.0
    assert len(got.cuts) == 16
    inst = StockInstance(key=node.id, spec=node.spec)
    for order, cost in [(got.best_precision, got.best_precision_cost),
                        (got.best_time, got.best_time_cost)]:
        assert sorted(c.id for c in order) == sorted(c.id for c in got.cuts)
        assert order_is_feasible(list(order))
        assert eval_node_order(inst, order) == cost
    # the same stock as a 16-cut term: its search is capped the same way,
    # and every plan cuts all 16 cuts at the cost it reports
    g, term, cache = build_term([(stock_id, layout)])
    cuts = sorted(c.id for orders in cache.values() for c in orders.cuts)
    start = time.perf_counter()
    refined = refined_plans(g, term, cache, 3, {})
    assert time.perf_counter() - start < 2.0
    assert refined
    for plan, cost in refined:
        assert sorted(c.id for c in plan.cuts) == cuts
        assert order_is_feasible(list(plan.cuts))
        assert evaluate_plan(plan, TOOLS).vector(3) == cost


# -- term memo: one exact front per run and term cut pattern -----------------


def refine(term_parts, mode, memo=None):
    g, term, cache = term_parts
    return refined_plans(g, term, cache, mode, {} if memo is None else memo)


def full_outcome(results):
    """All that a refined plan carries: cut ids, stack groups, bill, cost."""
    return [(plan.design_id, [(c.id, c.stack_group) for c in plan.cuts],
             plan.stock_bill, cost) for plan, cost in results]


def node_ids(term_parts):
    g, term, _ = term_parts
    return [n.id for n in atomic_nodes(g, term)]


@pytest.mark.parametrize("mode", [2, 3])
def test_term_memo_shares_fronts_across_relabelled_terms(mode, monkeypatch):
    # as in a run, every node search shares one node memo, so a cut pattern
    # has one step table, which the term memo keys on
    rng = random.Random(f"term-memo-{mode}")
    node_memo = NodeMemo(TOOLS)
    memo = {}
    stacked = 0
    cases = [[("2x2-24", [ticks(3), ticks(4)])] * 2]
    large = []
    while len(cases) < 16 or len(large) < 6:
        stocks = [random_stock(rng, rng.choice(["lumber", "sheet"]))
                  for _ in range(rng.randint(1, 3))]
        n_cuts = term_cuts(stocks)
        if n_cuts <= EXHAUSTIVE_TERM_CUTS and len(cases) < 16:
            cases.append(stocks)
        elif EXHAUSTIVE_TERM_CUTS < n_cuts <= PARITY_MAX_CUTS and len(large) < 6:
            large.append(stocks)
    for stocks in cases + large:
        first = build_term(stocks, node_memo=node_memo)
        again = build_term(stocks, prefix="q", first_node=20, node_memo=node_memo)
        assert set(node_ids(first)).isdisjoint(node_ids(again))
        assert set(first[0].design_parts).isdisjoint(again[0].design_parts)
        refine(first, mode, memo)
        size = len(memo)
        got = refine(again, mode, memo)
        assert len(memo) == size
        assert full_outcome(got) == full_outcome(refine(again, mode))
        assert all(c.stock_key in node_ids(again) for plan, _ in got for c in plan.cuts)
        stacked += any(c.stack_group for plan, _ in got for c in plan.cuts)
    assert stacked
    # the stock spec, the cut geometry and the parent links are all part of
    # the pattern: the metal twin, a moved cut and the same cuts with other
    # parent links are each searched anew
    base = [("2x4-48", [LENGTHS[4], LENGTHS[0]]),
            ("sheet-1/2-24x20", [(SHELF_HEIGHTS[1], WIDTHS[:2])])]
    refine(build_term(base, node_memo=node_memo), mode, memo)
    twin = [("metal-2x4-48", base[0][1]), base[1]]
    moved = [("2x4-48", [LENGTHS[0], LENGTHS[4]]), base[1]]
    for stocks in (twin, moved):
        size = len(memo)
        term_parts = build_term(stocks, prefix="q", first_node=20, node_memo=node_memo)
        assert full_outcome(refine(term_parts, mode, memo)) == \
            full_outcome(refine(term_parts, mode))
        assert len(memo) == size + 1
    cuts_for_instance = ordering.cuts_for_instance

    def chained(*args):
        # each vertical cut of a sheet shelf the parent of the next one: the
        # step table accepts these links, and the later cut of each pair
        # must now come after the earlier one
        cuts = cuts_for_instance(*args)
        return cuts[:1] + [
            dataclasses.replace(c, parent=prev.id)
            if c.kind == "sheet" and c.axis == prev.axis == 0 and c.parent == prev.parent else c
            for prev, c in zip(cuts, cuts[1:])]

    monkeypatch.setattr(ordering, "cuts_for_instance", chained)
    # a packing the node memo knows keeps its own links, whatever its part
    # ids, so the relinked nodes look their patterns up in the run's pattern
    # tables through packings of their own
    patterns_only = NodeMemo(TOOLS, patterns=node_memo.patterns, steps=node_memo.steps)
    relinked = build_term(base, prefix="u", first_node=20, node_memo=patterns_only)
    cuts = [c for orders in relinked[2].values() for c in orders.cuts]
    axis = {c.id: c.axis for c in cuts}
    assert any(c.kind == "sheet" and c.axis == axis.get(c.parent) == 0 for c in cuts)
    size = len(memo)
    assert full_outcome(refine(relinked, mode, memo)) == \
        full_outcome(refine(relinked, mode))
    assert len(memo) == size + 1


@pytest.mark.parametrize("mode", [2, 3])
def test_term_memo_shares_uncut_stocks(mode):
    # one part exactly filling a 2x4-24 leaves that stock uncut; its pattern
    # has one step table like any other, so the relabelled term is a hit
    node_memo = NodeMemo(TOOLS)
    memo = {}
    stocks = [("2x4-24", [STOCKS["2x4-24"].dims[0]]), ("2x4-48", [LENGTHS[4], LENGTHS[0]])]
    first = build_term(stocks, node_memo=node_memo)
    again = build_term(stocks, prefix="q", first_node=20, node_memo=node_memo)
    assert sorted(len(o.cuts) for o in again[2].values()) == [0, 2]
    refine(first, mode, memo)
    size = len(memo)
    got = refine(again, mode, memo)
    assert len(memo) == size
    assert full_outcome(got) == full_outcome(refine(again, mode))


# -- step tables: plan costs and term searches read the node searches' steps --


def random_term(rng, max_stocks=3):
    """1-`max_stocks` random lumber or sheet stocks, each wood or metal."""
    stocks = []
    for _ in range(rng.randint(1, max_stocks)):
        stock_id, layout = random_stock(rng, rng.choice(["lumber", "sheet"]))
        if rng.random() < 0.3 and not stock_id.startswith("metal-"):
            stock_id = "metal-" + stock_id
        stocks.append((stock_id, layout))
    return stocks


def assert_costs_are_evaluate_plan(results, mode):
    for plan, cost in results:
        assert cost == evaluate_plan(plan, TOOLS).vector(mode)


# terms the random ones may miss: two sheets whose 4" shelves are best cut
# back to back (interleaved front orders that no plain per-node best order
# dominates, so a wrong label sum cannot hide behind one), a tracksaw sheet
# term and a lumber one above EXHAUSTIVE_TERM_CUTS (joins of their stocks'
# fronts, the lumber one with an entry front; tracksaw step times are no
# whole numbers of 1/64 s), and two like sticks, whose stacked plans
# `evaluate_plan` costs
LABEL_SUM_TERMS = {
    "interleaved": [("sheet-1/2-24x20", [(SHELF_HEIGHTS[0], WIDTHS[1:2])]),
                    ("sheet-3/4-12x20", [(SHELF_HEIGHTS[0], WIDTHS[1::-1])])],
    "sheet": [("sheet-1/2-24x20", [(SHELF_HEIGHTS[1], WIDTHS[:2]),
                                   (SHELF_HEIGHTS[0], WIDTHS[1:])]),
              ("sheet-3/4-12x20", [(SHELF_HEIGHTS[2], WIDTHS[:1])])],
    "joined": [("2x2-48", [ticks(6), ticks("395/64"), ticks("6.125"), ticks(4)]),
               ("2x4-48", [ticks(6), ticks(4), ticks(5), ticks(5)])],
    "stacked": [("2x2-24", [ticks(3), ticks(4)])] * 2,
}


@pytest.mark.parametrize("mode", [2, 3])
def test_refined_costs_equal_evaluate_plan(mode):
    # every refined cost is `evaluate_plan`'s, exactly: a front order's is
    # its label's sums, a plain per-node best order's is replayed
    rng = random.Random(f"replay-{mode}")
    node_memo = NodeMemo(TOOLS)
    term_memo = {}
    sizes = set()
    metal = False
    while len(sizes) < PARITY_MAX_CUTS or len(term_memo) < 60:
        stocks = random_term(rng)
        term_parts = build_term(stocks, node_memo=node_memo)
        n_cuts = sum(len(o.cuts) for o in term_parts[2].values())
        if not 1 <= n_cuts <= PARITY_MAX_CUTS:
            continue
        sizes.add(n_cuts)
        metal |= any(stock_id.startswith("metal-") for stock_id, _ in stocks)
        for memo in (None, term_memo, term_memo):
            assert_costs_are_evaluate_plan(refine(term_parts, mode, memo), mode)
    assert metal
    for kind, stocks in LABEL_SUM_TERMS.items():
        term_parts = build_term(stocks, node_memo=node_memo)
        cut = [o.steps for o in term_parts[2].values() if o.cuts]
        results = refine(term_parts, mode, term_memo)
        assert_costs_are_evaluate_plan(results, mode)
        if kind == "interleaved":
            assert any(len(list(itertools.groupby(c.stock_key for c in plan.cuts))) > 2
                       for plan, _ in results)
        elif kind == "stacked":
            assert any(c.stack_group for plan, _ in results for c in plan.cuts)
        else:
            assert len(cut) > 1 and sum(t.k for t in cut) > EXHAUSTIVE_TERM_CUTS
    # one stock of 10 cuts: its node search is capped, and its term, in
    # either mode, reads the node search's front instead of searching again,
    # so the table gains no step
    stocks = [("2x4-96", [LENGTHS[i % 5] for i in range(10)])]
    term_parts = build_term(stocks, node_memo=node_memo)
    (table,) = {orders.steps for orders in term_parts[2].values()}
    assert table.k == 10
    filled = len(table.steps)
    for memo in (None, term_memo, term_memo):
        assert_costs_are_evaluate_plan(refine(term_parts, mode, memo), mode)
    assert len(table.steps) == filled


@pytest.mark.parametrize("mode", [2, 3])
def test_refine_term_costs_stacked_plans_with_node_memo_tools(mode):
    # three 378-tick parts on a 2x2-24 leave a 378-tick offcut, so the
    # fastest order measures every cut at 378 ticks and shares setups; two
    # such sticks stack. A chopsaw whose partial setup is not the default
    # table's prices those plans differently, and refinement costs them
    # with the tools of the node memo that built the term's step tables.
    tools = dict(TOOLS)
    tools[Tool.CHOPSAW] = dataclasses.replace(TOOLS[Tool.CHOPSAW], setup_partial=5)
    g, term, cache = build_term([("2x2-24", [378] * 3)] * 2, tools)
    results = refined_plans(g, term, cache, mode, {})
    stacked = [(plan, cost) for plan, cost in results
               if any(c.stack_group for c in plan.cuts)]
    assert stacked
    for plan, cost in results:
        assert cost == evaluate_plan(plan, tools).vector(mode)
    assert all(cost != evaluate_plan(plan, TOOLS).vector(mode) for plan, cost in stacked)


@pytest.mark.parametrize("mode", [2, 3])
def test_stacked_candidates_need_a_shared_pattern(mode, monkeypatch):
    # `_refined` tries stacked candidates only when two cut stocks share a
    # step table (`_may_stack`). On random terms, many of alike stocks or of
    # parts whose lengths repeat, `stacked_variant` stacks none of the
    # best-f_p, best-f_t or canonical orders of a term without a shared
    # table, and the recipes are those of trying the stacked candidates on
    # every term
    rng = random.Random(f"may-stack-{mode}")
    node_memo = NodeMemo(TOOLS)
    may_stack = {True: 0, False: 0}
    stacked = 0
    for n in range(300):
        if n % 3 == 0:
            pool = rng.sample(LENGTHS, 2)
            stocks = [(rng.choice(LUMBER), [rng.choice(pool) for _ in range(rng.randint(1, 3))])
                      for _ in range(rng.randint(2, 4))]
        else:
            stocks = random_term(rng)
            if n % 3 == 1:
                stocks = [rng.choice(stocks) for _ in range(rng.randint(2, 4))]
        g, term, cache = build_term(stocks, node_memo=node_memo)
        term_stocks = ordering._term_stocks(g, term, cache)
        may = ordering._may_stack([orders.steps for _, orders in term_stocks])
        may_stack[may] += 1
        if not may:
            for pick in ("best_precision", "best_time", "cuts"):
                per_stock = [(inst, list(getattr(orders, pick))) for inst, orders in term_stocks]
                assert stacked_variant("d", per_stock, TOOLS) is None
        got = ordering._refined("d", term_stocks, mode)
        with monkeypatch.context() as patched:
            patched.setattr(ordering, "_may_stack", lambda tables: True)
            assert ordering._refined("d", term_stocks, mode) == got
        stacked += any(group for refs, _, _ in got for _, group in refs)
    assert may_stack[True] > 50 and may_stack[False] > 50 and stacked


@pytest.mark.parametrize("mode", [2, 3])
def test_term_search_reads_node_steps(mode, monkeypatch):
    # stocks of up to 8 cuts searched as nodes: a term over them, small or
    # large, is searched and costed without costing a single cut afresh
    # (its step tables costed every step when they were made) or
    # simulating one (no two stocks are alike, so no stacked plan is
    # evaluated). A term
    # with one cut stock reads its node search's front, and a lumber or
    # sheet term above EXHAUSTIVE_TERM_CUTS joins its stocks' fronts,
    # searching only the entry fronts its tables lack; a smaller term of
    # several cut stocks runs one term search.
    rng = random.Random(f"no-resim-{mode}")
    node_memo = NodeMemo(TOOLS)
    terms = []
    while len(terms) < 30:
        stocks = random_term(rng, max_stocks=4)
        if len(set(map(repr, stocks))) == len(stocks) and term_cuts(stocks) <= 12:
            terms.append(build_term(stocks, node_memo=node_memo))
    lumber = [("2x2-48", [ticks(6), ticks("395/64"), ticks("6.125"), ticks(4)]),
              ("2x4-48", [ticks(6), ticks(4), ticks(5), ticks(5)])]
    terms.append(build_term(lumber, node_memo=node_memo))
    calls = []
    searches = []
    resolve = cost_module.resolve_geometry
    pareto_orders = ordering._pareto_orders

    def costed(*args):
        raise AssertionError(f"a step costed during refinement: {args}")

    def simulated(*args):
        calls.append(args)
        return resolve(*args)

    def searched(tables, mode, entry=None):
        searches.append((len(tables), entry))
        return pareto_orders(tables, mode, entry)

    monkeypatch.setattr(ordering, "measured_length", costed)
    monkeypatch.setattr(ordering, "cut_cost", costed)
    monkeypatch.setattr(cost_module, "resolve_geometry", simulated)
    monkeypatch.setattr(ordering, "_pareto_orders", searched)
    kinds = set()
    entered = 0
    for again in (False, True):
        for term_parts in terms:
            orders = term_parts[2].values()
            n_cuts = sum(len(o.cuts) for o in orders)
            cut = [o for o in orders if o.cuts]
            if len(cut) < 2:
                kind = "one stock"
            elif n_cuts <= EXHAUSTIVE_TERM_CUTS:
                kind = "interleaved"
            elif any(o.steps.spec.is_sheet for o in cut):
                kind = "sheet"
            else:
                kind = "joined"
            kinds.add(kind)
            searches.clear()
            assert refine(term_parts, mode)
            if kind == "one stock" or kind != "interleaved" and again:
                assert searches == []
            elif kind == "interleaved":
                assert searches == [(len(orders), None)]
            else:
                assert all(size == 1 and entry is not None for size, entry in searches)
                entered += len(searches)
    assert kinds == {"one stock", "interleaved", "sheet", "joined"}
    assert entered  # the last term's second stock needs an entry front
    assert calls == []


# -- steps from the one piece a cut splits -----------------------------------


def layout_cuts(stock_id, layout):
    """The spec and canonical cuts of one packed stock."""
    node, parts = layout_node(stock_id, layout)
    inst = StockInstance(key=node.id, spec=node.spec)
    return node.spec, cuts_for_instance(inst, list(node.placements), parts)


def table_for(stock_id, layout, shared=None):
    """A step table for one packed stock, built without a node search."""
    spec, cuts = layout_cuts(stock_id, layout)
    return StepTable(spec, cuts, TOOLS, {} if shared is None else shared)


def step_of(table, i, done):
    """The step `_pareto_orders` reads for cut i after the cuts in `done`:
    keyed by the nearest done siblings below and above it."""
    below, above = table.siblings[i]
    above &= done
    return table.steps[((done & below).bit_length() + (above & -above)) * table.k + i]


def simulated_step(spec, cuts, i, done):
    """The step of cut i after the cuts in `done`, made on a fresh simulator
    in index order; None when the done cuts cannot all be made, and the
    `PlanError` message when cut i cannot."""
    sim = {"s": cost_module._Sim(spec.dims)}
    cuts = [dataclasses.replace(c, stock_key="s") for c in cuts]
    for j in range(len(cuts)):
        if done >> j & 1:
            try:
                cost_module.resolve_geometry([cuts[j]], TOOLS[cuts[j].tool], sim)
            except PlanError:
                return None
    cut, tool = cuts[i], TOOLS[cuts[i].tool]
    try:
        measured, op_len = cost_module.resolve_geometry([cut], tool, sim)
    except PlanError as e:
        return str(e)
    sig, seconds, eps, perr = cost_module.cut_cost(
        cost_module.cut_record(cut, tool, spec, op_len), measured)
    return sig, quanta(seconds), eps, perr


def feasible_steps(cuts):
    """Every (i, done) whose cut i may come next after the cuts in `done`:
    each done cut's parent done, and cut i's, cut i not done."""
    index = {c.id: j for j, c in enumerate(cuts)}
    parent = [index.get(c.parent) for c in cuts]
    for done in range(1 << len(cuts)):
        if any(done >> j & 1 and p is not None and not done >> p & 1
               for j, p in enumerate(parent)):
            continue
        for i in range(len(cuts)):
            if not done >> i & 1 and (parent[i] is None or done >> parent[i] & 1):
                yield i, done


def edge_shelves(rng, count):
    """A 24x20 sheet's shelves, bottom up, the top one reaching the sheet's
    top edge, so that it gets no horizontal cut: its vertical cuts share the
    parent of the shelf below's (or have none, when `count` is 1)."""
    heights = [rng.choice(SHELF_HEIGHTS) for _ in range(count - 1)]
    height = STOCKS["sheet-1/2-24x20"].dims[1]
    heights.append(height - sum(heights) - (count - 1) * TOOLS_KERF)
    return (rng.choice(["sheet-1/2-24x20", "metal-sheet-3/4-24x20"]),
            [(h, [rng.choice(WIDTHS) for _ in range(rng.randint(1, 3))]) for h in heights])


def sliver_layout():
    """A stick whose last part ends within one kerf of its end: its last cut
    hits no piece."""
    kerf = TOOLS[Tool.CHOPSAW].kerf
    length = STOCKS["2x4-48"].dims[0]
    return "2x4-48", [ticks(10), ticks(12), length - ticks(22) - 2 * kerf - kerf // 2]


def test_steps_match_fresh_simulator():
    # a table holds one step per cut and choice of nearest done sibling
    # below (none or one) and above (likewise), and nothing else: every
    # feasible (done, i) of random lumber and sheet shelf patterns, and of
    # sheets whose top shelf reaches the sheet's edge (one shelf or more),
    # reads the step a fresh simulator gives
    rng = random.Random("steps")
    patterns = []
    for kind in ("lumber", "sheet"):
        patterns += [random_node(rng, kind) for _ in range(15)]
    patterns += [edge_shelves(rng, count) for count in (1, 2, 3) for _ in range(4)]
    lengths = {}
    shapes = set()  # (parent is None, sides of the parent) of sheet verticals
    for stock_id, layout in patterns:
        table = table_for(stock_id, layout)
        sides = {}
        for c in table.cuts:
            if c.axis == 0 and table.spec.is_sheet:
                parent = next((p for p in table.cuts if p.id == c.parent), None)
                sides.setdefault(c.parent, set()).add(
                    parent is not None and c.anchor[1] >= parent.position)
        shapes.update((parent is None, len(s)) for parent, s in sides.items())
        assert len(table.steps) == sum((below.bit_count() + 1) * (above.bit_count() + 1)
                                       for below, above in table.siblings)
        for i, done in feasible_steps(table.cuts):
            want = simulated_step(table.spec, table.cuts, i, done)
            if want is not None:
                assert step_of(table, i, done) == want
                lengths.setdefault((table.spec.is_sheet, table, i), set()).add(want[0][2])
    # sheet verticals below their parent only, on both sides of one parent,
    # and with no parent
    assert shapes == {(False, 1), (False, 2), (True, 1)}
    # on both kinds of stock, some cut's measured length depends on the done cuts
    assert {sheet for (sheet, _, _), measured in lengths.items() if len(measured) > 1} == \
        {False, True}
    # a cut that no piece holds: building the table raises what the
    # simulator raises for the first such cut, and what `evaluate_plan`
    # raises on the canonical order
    spec, cuts = layout_cuts(*sliver_layout())
    raised = {}
    for i, done in feasible_steps(cuts):
        want = simulated_step(spec, cuts, i, done)
        if isinstance(want, str):
            raised.setdefault(i, want)
    inst = StockInstance(key="s", spec=spec)
    plan = FabPlan(design_id="d", cuts=tuple(dataclasses.replace(c, stock_key="s") for c in cuts),
                   stock_bill=(inst,))
    with pytest.raises(PlanError) as planned:
        evaluate_plan(plan, TOOLS)
    with pytest.raises(PlanError) as built:
        StepTable(spec, cuts, TOOLS, {})
    assert str(built.value) == raised[min(raised)] == str(planned.value) == \
        f"1D cut at {cuts[-1].position} hits no piece"


def test_steps_are_one_object_per_record_and_length():
    # on random sticks and sheets, and sheets whose top shelf reaches the
    # sheet's edge, the tables of one map hold one step object per (record,
    # measured length), the `cost.cut_cost` step of the two, and some step
    # is held by several tables
    rng = random.Random("step-map")
    patterns = [random_node(rng, kind) for kind in ("lumber", "sheet") for _ in range(12)]
    patterns += [edge_shelves(rng, count) for count in (1, 2, 3) for _ in range(3)]
    shared = {}
    readers = {}  # id of a step -> the tables that hold it
    for stock_id, layout in patterns:
        table = table_for(stock_id, layout, shared)
        for step in table.steps.values():
            readers.setdefault(id(step), set()).add(table)
    objects = set()
    for record, by_length in shared.items():
        for measured, step in by_length.items():
            sig, seconds, eps, perr = cost_module.cut_cost(record, measured)
            assert step == (sig, quanta(seconds), eps, perr)
            objects.add(id(step))
    assert len(objects) == sum(len(by_length) for by_length in shared.values())
    assert objects == set(readers)
    assert any(len(tables) > 1 for tables in readers.values())


def test_step_table_refuses_cuts_outside_its_piece_rule():
    # siblings (cuts with one parent, on one side of it) must share one
    # axis and ascend in position, a cut with children must have no
    # siblings, and a cut's parent must come before it: so the one-shelf
    # sheet without its parent links, whose pieces depend on the order its
    # cuts are made in, is refused
    lumber = table_for("2x4-48", [ticks(10), ticks(12), ticks(6)]).cuts
    sheet = table_for("sheet-1/2-24x20", [(SHELF_HEIGHTS[0], WIDTHS[:2])]).cuts
    assert [c.axis for c in sheet] == [1, 0, 0] and sheet[1].parent == sheet[0].id
    spec = {"lumber": STOCKS["2x4-48"], "sheet": STOCKS["sheet-1/2-24x20"]}
    for cuts, message in [
        (lumber[::-1], "sibling cuts must ascend in position"),
        (sheet[:1] + sheet[:0:-1], "sibling cuts must ascend in position"),
        (lumber[:2] + [dataclasses.replace(lumber[2], parent=lumber[0].id)],
         "a cut with children must have no siblings"),
        (sheet[1:] + sheet[:1], "its parent must come before it"),
        ([dataclasses.replace(c, parent=None) for c in sheet], "sibling cuts must share one axis"),
    ]:
        with pytest.raises(ValueError, match=message):
            StepTable(spec[cuts[0].kind], cuts, TOOLS, {})
    for cuts in (lumber, sheet):
        assert StepTable(spec[cuts[0].kind], cuts, TOOLS, {}).k == 3


def lex_front(labels):
    """(path, f_t, f_p) labels in path order, less each one that a kept
    label with a smaller path weakly dominates."""
    kept = []
    for label in sorted(labels):
        _, t, p = label
        if not any(kt <= t and kp <= p for _, kt, kp in kept):
            kept.append(label)
    return kept


def layer_loop_orders(tables, mode, entry=None, full_state=False):
    """Reference: `_pareto_orders` keeping each layer per state (done mask,
    last setup signature, last cut's stock), each state's labels sorted and
    filtered by `lex_front`, capped by `_cap_layer`. A state keeps its last
    signature only while a cut still to make can repeat it (with a partial
    setup), or once every cut is done; with `full_state`, it keeps every
    last signature and no layer is capped. Returns the fronts per last
    setup signature and whether any layer was capped."""
    n = sum(table.k for table in tables)
    per_cut = []
    need = []
    makes = []  # per cut, the signatures it can repeat
    start = 0
    for table in tables:
        stock = ((1 << table.k) - 1) << start
        per_cut.extend((table, j, start, stock) + table.setups[j] for j in range(table.k))
        index = {c.id: start + j for j, c in enumerate(table.cuts)}
        need.extend(0 if c.parent is None else 1 << index[c.parent] for c in table.cuts)
        makes.extend(set() if table.setups[j][0] is None
                     else {step[0] for key, step in table.steps.items() if key % table.k == j}
                     for j in range(table.k))
        start += table.k
    layer = {(0, entry, 0): [((), 0, 0)]}
    capped = False
    for _ in range(n):
        grown = {}
        for (mask, prev, last_stock), labels in layer.items():
            for i in range(n):
                if mask >> i & 1 or need[i] & ~mask:
                    continue
                table, j, offset, stock, partial, full = per_cut[i]
                sig, op_time, eps, perr = step_of(table, j, (mask & stock) >> offset)
                setup = partial if partial is not None and prev == sig else full
                step_t = setup + (table.load if stock != last_stock else 0) + op_time
                ticks_ = 0 if mode == 2 else eps + perr
                done = mask | 1 << i
                if not (full_state or done == (1 << n) - 1
                        or any(sig in makes[c] for c in range(n) if not done >> c & 1)):
                    sig = None
                grown.setdefault((done, sig, stock), []).extend(
                    (path + (i,), t + step_t, p + ticks_) for path, t, p in labels)
        layer = {state: lex_front(labels) for state, labels in grown.items()}
        if not full_state and len(layer) > ordering.MAX_LAYER_STATES:
            flat = [label + (state,) for state, labels in layer.items() for label in labels]
            kept = {label[3] for label in ordering._cap_layer(flat)}
            layer = {state: labels for state, labels in layer.items() if state in kept}
            capped = True
    groups = {}
    for (_, sig, _), labels in layer.items():
        groups.setdefault(sig, []).extend(labels)
    return {sig: lex_front(labels) for sig, labels in groups.items()}, capped


def search_fronts(tables, mode, entry=None):
    """`_pareto_orders`' labels per last setup signature, checked to come
    in path order."""
    labels = ordering._pareto_orders(tables, mode, entry)
    assert [label[0] for label in labels] == sorted(label[0] for label in labels)
    got = {}
    for path, t, p, sig in labels:
        got.setdefault(sig, []).append((path, t, p))
    return got


def parity_stocks(rng):
    """Seeded single stocks of at most 8 cuts (2x4 sticks cut from two part
    lengths, sheet panels), and terms of two and three stocks and at most
    6 cuts whose sticks share their part lengths, as step table lists."""
    cases = []
    for _ in range(8):
        pool = rng.sample(LENGTHS, 2)
        cases.append([table_for("2x4-96", [rng.choice(pool) for _ in range(rng.randint(4, 8))])])
    for _ in range(6):
        stock_id, layout = random_node(rng, "sheet")
        cases.append([table_for(stock_id, layout)])
    node_memo = NodeMemo(TOOLS)
    while len(cases) < 26:
        pool = rng.sample(LENGTHS, 2)
        stocks = [(rng.choice(LUMBER), [rng.choice(pool) for _ in range(rng.randint(1, 3))])
                  for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.3:
            stocks[rng.randrange(len(stocks))] = random_stock(rng, "sheet")
        g, term, cache = build_term(stocks, node_memo=node_memo)
        tables = [orders.steps for _, orders in ordering._term_stocks(g, term, cache)]
        if len(tables) > 1 and sum(table.k for table in tables) <= EXHAUSTIVE_TERM_CUTS:
            cases.append(tables)
    return cases


def recorded_layers(monkeypatch):
    """The states of each layer `_grow` returns from now on, as a list that
    grows as searches run."""
    layers = []
    grow = ordering._grow

    def recorded(layer, moves):
        out = grow(layer, moves)
        layers.append({label[3] for label in out})
        return out

    monkeypatch.setattr(ordering, "_grow", recorded)
    return layers


@pytest.mark.parametrize("mode", [2, 3])
def test_live_signature_search_matches_full_state_loop(mode, monkeypatch):
    # a state keeps its last signature only while a cut still to make can
    # repeat it: every next cut pays after any other signature what it pays
    # after None, so merging those states changes no label, path or order.
    # On single stocks of at most 8 cuts and on terms whose stocks share
    # part lengths (so a cut can repeat another stock's signature), entered
    # after None and after each signature a stock opens with, the search
    # equals the uncapped loop over (done mask, last signature, last stock)
    rng = random.Random(f"live-signatures-{mode}")
    cases = parity_stocks(rng)
    layers = recorded_layers(monkeypatch)
    across = 0
    for tables in cases:
        n = sum(table.k for table in tables)
        assert n <= 8
        for entry in (None,) + tuple({sig for table in tables for sig in table.opens}):
            want, capped = layer_loop_orders(tables, mode, entry, full_state=True)
            assert not capped
            assert search_fronts(tables, mode, entry) == want
        starts = list(itertools.accumulate([0] + [table.k for table in tables]))
        owners = {}
        for table, start in zip(tables, starts):
            for sig, cuts in table.repeats.items():
                owners.setdefault(sig, set()).add(start)
        across += any(len(stocks) > 1 for stocks in owners.values())
    # some states merged into None, and some term's cut can repeat a
    # signature of a cut on another of its stocks
    assert any(state[1] is None for states in layers for state in states if state)
    assert across


def test_dead_signatures_leave_one_state_per_done_mask(monkeypatch):
    # no two cuts of this stick can make one setup signature, so no cut can
    # repeat the last one: every layer before the last holds one state per
    # done mask, its signature None, and the last one state per signature
    table = table_for("2x4-96", [ticks(x) for x in (3, 7, 13, 21, 31)])
    assert all(cuts & cuts - 1 == 0 for cuts in table.repeats.values())
    layers = recorded_layers(monkeypatch)
    ordering._pareto_orders([table], 3)
    k = table.k
    for done, states in enumerate(layers[:k - 1], start=1):
        assert len(states) == math.comb(k, done)
        assert {sig for _, sig, _ in states} == {None}
        assert {mask.bit_count() for mask, _, _ in states} == {done}
    assert len({mask for mask, _, _ in layers[k - 1]}) == 1


@pytest.mark.parametrize("kind", ["lumber", "sheet"])
def test_capped_search_matches_layer_loop(kind):
    # single stocks above 8 cuts, whose searches may be capped: 2x4-96
    # sticks of 9-12 cuts and 48x36 sheets of 3-4 shelves and 10-16 cuts
    rng = random.Random(f"capped-{kind}")
    capped = 0
    cases = 0
    while cases < 4:
        if kind == "lumber":
            table = table_for("2x4-96", [rng.choice(LENGTHS)
                                         for _ in range(rng.randint(9, 12))])
        else:
            table = table_for("sheet-1/2-48x36", [
                (rng.choice(SHELF_HEIGHTS),
                 [rng.choice(WIDTHS) for _ in range(rng.randint(2, 4))])
                for _ in range(rng.randint(3, 4))])
            if not 10 <= table.k <= 16:
                continue
        assert table.k > 8
        cases += 1
        for mode in (2, 3):
            want, was_capped = layer_loop_orders([table], mode)
            got = {}  # the search's labels per last setup signature
            for path, t, p, sig in ordering._pareto_orders([table], mode):
                got.setdefault(sig, []).append((path, t, p))
            assert got == want
            capped += was_capped
    assert capped
