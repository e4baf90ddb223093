import dataclasses
import itertools
import random
import time

import pytest

from planwright.analysis import pareto_filter
from planwright.cost import FabPlan, StockInstance, evaluate_plan, order_is_feasible
from planwright.plans import assemble_plan, cuts_for_instance, stacked_variant
from planwright.egraph import AtomicNode, BopEGraph
from planwright.libraries import default_stocks, default_tools, with_metal_twins
from planwright.model import OpRate, OpRateKind, Part, Tool, ticks
from planwright.ordering import (
    EXHAUSTIVE_TERM_CUTS,
    _eval_node_order,
    _repair_order,
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


def exhaustive_node_costs(node, parts):
    inst = StockInstance(key=f"{node.spec.id}#0", spec=node.spec)
    cuts = cuts_for_instance(inst, list(node.placements), parts, TOOLS)
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
    result = optimize_enode(node, parts, TOOLS)
    all_costs = exhaustive_node_costs(node, parts)
    assert result.best_precision_cost[0] == min(p for p, _ in all_costs)
    assert result.best_time_cost[1] == min(t for _, t in all_costs)


def test_optimize_enode_order_dependent_case():
    # offsets land off the measurement grid, so the reference edge matters
    node, parts = lumber_node([ticks("395/64") / 64, 30, 40])
    result = optimize_enode(node, parts, TOOLS)
    all_costs = exhaustive_node_costs(node, parts)
    assert len({p for p, _ in all_costs}) > 1
    assert result.best_precision_cost[0] == min(p for p, _ in all_costs)


def test_candidate_orders_budget_and_feasibility():
    node, parts = lumber_node([5, 6, 7, 8, 9, 10, 11])
    inst = StockInstance(key=f"{node.spec.id}#0", spec=node.spec)
    cuts = cuts_for_instance(inst, list(node.placements), parts, TOOLS)
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
    term = g.term_from_choices({})
    cache = {}
    for cid, nid in term.chosen.items():
        n = g.nodes[nid]
        if isinstance(n, AtomicNode):
            cache[nid] = optimize_enode(n, parts, TOOLS)
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
    results = refine_term(g, term, cache, TOOLS, [], flip_iters=20,
                          rng=random.Random(1), mode=2)
    assert results
    all_costs = exhaustive_node_costs(node, parts)
    # refined plans never beat the exhaustive (non-stacked) optimum on
    # either axis unless stacking applies (single stock: it cannot)
    best_t = min(t for _, t in all_costs)
    best_p = min(p for p, _ in all_costs)
    for plan, cost in results:
        assert cost.f_t_seconds >= best_t - 1e-9
        assert cost.f_p_ticks >= best_p
    assert any(abs(c.f_t_seconds - best_t) < 1e-9 for _, c in results)
    # results are mutually non-dominated
    objs = [c.vector(2).objectives for _, c in results]
    for a in objs:
        assert not any(all(x <= y for x, y in zip(b, a)) and b != a for b in objs)


def test_refine_term_prunes_dominated_lower_bound():
    g, term, cache, node, parts = term_for([10, 20, 30])
    results = refine_term(g, term, cache, TOOLS, [(0.0, 0.0)], flip_iters=5,
                          rng=random.Random(1), mode=2)
    assert results == []


def test_optimize_enode_empty_node():
    # a single part filling one whole designated stock needs no cuts
    stock = STOCKS["2x4-24"]
    pid = "p0"
    parts = {pid: Part(id=pid, family="2x4", shape=(stock.dims[0],))}
    node = AtomicNode(id="n0", spec=stock, placements=((pid, (0,)),))
    result = optimize_enode(node, parts, TOOLS)
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


def build_term(stocks, tools=TOOLS):
    """A term over one arrangement of `stocks`, with its node order cache.

    Each entry is (stock id, layout), a layout as `place` takes it.
    """
    parts = {}
    placed = []
    for j, (stock_id, layout) in enumerate(stocks):
        spec = STOCKS[stock_id]
        inst = StockInstance(key=f"{stock_id}#{j}", spec=spec)
        placed.append((inst, place(spec, layout, parts)))
    g = BopEGraph("d", frozenset(parts))
    g.add_arrangement(Arrangement(design_id="d", stocks=tuple(placed)))
    term = g.term_from_choices({})
    cache = {n.id: optimize_enode(n, parts, tools)
             for n in g.atomic_nodes_of(term)}
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
    """Reference: `refine_term`'s small-term branch as it was, with every
    feasible permutation of the term's cuts scored by `evaluate_plan`."""
    stocks = sorted(((StockInstance(key=n.id, spec=n.spec), cache[n.id])
                     for n in g.atomic_nodes_of(term)), key=lambda s: s[0].key)
    evaluated = []

    def consider(plan):
        evaluated.append((plan, evaluate_plan(plan, tools)))

    def consider_stacked(per_stock):
        plan = stacked_variant("d", per_stock, tools)
        if plan is not None:
            consider(plan)

    for per_stock in (
        [(inst, list(orders.best_precision)) for inst, orders in stocks],
        [(inst, list(orders.best_time)) for inst, orders in stocks],
    ):
        consider(assemble_plan("d", per_stock))
        consider_stacked(per_stock)
    all_cuts = [c for _, orders in stocks for c in orders.cuts]
    bill = tuple(inst for inst, _ in stocks)
    for perm in itertools.permutations(all_cuts):
        if order_is_feasible(list(perm)):
            consider(FabPlan(design_id="d", cuts=perm, stock_bill=bill))
    consider_stacked([(inst, list(orders.cuts)) for inst, orders in stocks])
    return pareto_filter(evaluated, key=lambda pc: pc[1].vector(mode).objectives)


def outcome(results):
    return [(plan.signature(), (cost.f_c, cost.f_t_seconds, cost.f_p_ticks))
            for plan, cost in results]


def assert_parity(stocks, mode, tools=TOOLS):
    g, term, cache = build_term(stocks, tools)
    n_cuts = sum(len(orders.cuts) for orders in cache.values())
    assert n_cuts <= EXHAUSTIVE_TERM_CUTS
    got = refine_term(g, term, cache, tools, [], flip_iters=5,
                      rng=random.Random(0), mode=mode)
    assert outcome(got) == outcome(permutation_refine(g, term, cache, mode, tools))
    return got


@pytest.mark.parametrize("mode", [2, 3])
@pytest.mark.parametrize("kind", ["lumber", "sheet"])
def test_exact_order_front_matches_permutations(kind, mode):
    rng = random.Random(f"{kind}-{mode}")
    checked = 0
    while checked < 40:
        stocks = [random_stock(rng, kind) for _ in range(rng.randint(1, 4))]
        g, term, cache = build_term(stocks)
        if sum(len(o.cuts) for o in cache.values()) > EXHAUSTIVE_TERM_CUTS:
            continue
        assert_parity(stocks, mode)
        checked += 1


@pytest.mark.parametrize("mode", [2, 3])
def test_exact_order_front_interleaves_stocks(mode):
    # Each stick's second cut is measured 16.75" off its far end. Cutting
    # them back to back shares the jig (15 s setup instead of 60 s), which
    # is worth the 15 s of reloading the first stick: 244 s against 274 s
    # for the best order that cuts one stick after the other.
    got = assert_parity([("2x2-24", [ticks(3), ticks(4)]),
                         ("2x2-24", [ticks(4), ticks(3)])], mode)
    fastest, cost = min(got, key=lambda pc: pc[1].f_t_seconds)
    runs = [key for key, _ in itertools.groupby(c.stock_key for c in fastest.cuts)]
    assert len(runs) > len(set(runs)), runs
    assert cost.f_t_seconds == 244.0


@pytest.mark.parametrize("mode", [2, 3])
def test_exact_order_front_partial_setup_tie(mode):
    # Two sheets whose 3" parts share one vertical-cut setup when cut back
    # to back, across the sheets: three feasible interleavings tie on cost,
    # none of them a start plan, and the first in permutation order is the
    # one to keep.
    stocks = [("sheet-1/2-24x20", [(ticks(4), [ticks(3)])]),
              ("sheet-1/2-24x20", [(ticks("5.5"), [ticks(3), ticks(3)])])]
    got = assert_parity(stocks, mode)
    plan, cost = min(got, key=lambda pc: pc[1].f_t_seconds)
    _, _, cache = build_term(stocks)
    term_cuts = [c for nid in sorted(cache) for c in cache[nid].cuts]
    key = cost.vector(mode)
    ties = [perm for perm in itertools.permutations(term_cuts)
            if order_is_feasible(list(perm)) and evaluate_plan(
                FabPlan("d", perm, plan.stock_bill), TOOLS).vector(mode) == key]
    assert len(ties) == 3
    assert plan.cuts == ties[0]
    partial = TOOLS[plan.cuts[0].tool].setup_partial
    assert any(row.setup == partial for row in cost.rows)


def test_exact_order_front_keeps_first_order_on_rounding_ties():
    # A 0.1 s chop makes f_t's float sum depend on the order of its terms:
    # orders with the same steps can differ by a rounding step in seconds
    # and still tie in minutes. Scoring every permutation keeps the first
    # of them; pruning labels in value order instead of path order would
    # keep the one with fewer seconds.
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
    for perm in itertools.permutations(term_cuts):
        cost = evaluate_plan(FabPlan("d", perm, bill), tools)
        seconds.setdefault(cost.vector(2), set()).add(cost.f_t_seconds)
    assert any(len(seconds[cost.vector(2)]) > 1 for _, cost in got)


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
    cuts = cuts_for_instance(inst, list(node.placements), parts, TOOLS)
    orders = [perm for perm in itertools.permutations(cuts)
              if order_is_feasible(list(perm))]
    costs = [_eval_node_order(inst, list(order), TOOLS) for order in orders]
    p = min(range(len(orders)), key=lambda i: (costs[i][0], costs[i][1], i))
    t = min(range(len(orders)), key=lambda i: (costs[i][1], costs[i][0], i))
    return orders[p], costs[p], orders[t], costs[t]


@pytest.mark.parametrize("kind,count", [("lumber", 40), ("sheet", 40)])
def test_node_orders_match_permutation_argmin(kind, count):
    rng = random.Random(f"node-{kind}")
    sizes = set()
    for _ in range(count):
        node, parts = layout_node(*random_node(rng, kind))
        got = optimize_enode(node, parts, TOOLS)
        sizes.add(len(got.cuts))
        assert (got.best_precision, got.best_precision_cost,
                got.best_time, got.best_time_cost) == brute_force_node(node, parts)
    assert max(sizes) == (7 if kind == "lumber" else 8)


def test_node_memo_shares_orders_across_relabelled_nodes():
    memo = {}
    for stock_id, layout in [("2x4-48", [LENGTHS[4], LENGTHS[0], LENGTHS[4]]),
                             ("sheet-1/2-24x20", [(SHELF_HEIGHTS[1], WIDTHS[:2]),
                                                  (SHELF_HEIGHTS[0], WIDTHS[1:])])]:
        first, first_parts = layout_node(stock_id, layout, "n3")
        again, again_parts = layout_node(stock_id, layout, "n17", prefix="q")
        assert set(first_parts).isdisjoint(again_parts)
        size = len(memo)
        a = optimize_enode(first, first_parts, TOOLS, memo)
        assert len(memo) == size + 1
        b = optimize_enode(again, again_parts, TOOLS, memo)
        assert len(memo) == size + 1
        assert b == optimize_enode(again, again_parts, TOOLS)
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
        size = len(memo)
        assert optimize_enode(node, parts, TOOLS, memo) == \
            optimize_enode(node, parts, TOOLS)
        assert len(memo) == size + 1


@pytest.mark.parametrize("stock_id,layout", [
    ("2x4-96", [LENGTHS[i % 5] for i in range(16)]),
    ("sheet-1/2-48x36", [(SHELF_HEIGHTS[i % 3], [WIDTHS[(i + j) % 3] for j in range(3)])
                         for i in range(4)]),
], ids=["lumber", "sheet"])
def test_large_node_search_is_capped(stock_id, layout):
    node, parts = layout_node(stock_id, layout)
    start = time.perf_counter()
    got = optimize_enode(node, parts, TOOLS)
    assert time.perf_counter() - start < 2.0
    assert len(got.cuts) == 16
    inst = StockInstance(key=node.id, spec=node.spec)
    for order, cost in [(got.best_precision, got.best_precision_cost),
                        (got.best_time, got.best_time_cost)]:
        assert sorted(c.id for c in order) == sorted(c.id for c in got.cuts)
        assert order_is_feasible(list(order))
        assert _eval_node_order(inst, list(order), TOOLS) == cost
