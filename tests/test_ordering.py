import itertools
import random

from planwright.cost import StockInstance, evaluate_plan, order_is_feasible
from planwright.plans import assemble_plan, cuts_for_instance
from planwright.egraph import AtomicNode, BopEGraph
from planwright.libraries import default_stocks, default_tools
from planwright.model import Part, ticks
from planwright.ordering import (
    candidate_orders,
    optimize_enode,
    refine_term,
    term_bounds,
)

STOCKS = {s.id: s for s in default_stocks()}
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
    result = optimize_enode(node, parts, TOOLS, budget=1000, rng=random.Random(0))
    all_costs = exhaustive_node_costs(node, parts)
    assert result.best_precision_cost[0] == min(p for p, _ in all_costs)
    assert result.best_time_cost[1] == min(t for _, t in all_costs)


def test_optimize_enode_order_dependent_case():
    # offsets land off the measurement grid, so the reference edge matters
    node, parts = lumber_node([ticks("395/64") / 64, 30, 40])
    result = optimize_enode(node, parts, TOOLS, budget=1000, rng=random.Random(0))
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
    from planwright.packing import Arrangement

    g.add_arrangement(Arrangement(
        design_id="d", stocks=((inst, tuple(sorted(node.placements))),)))
    term = g.term_from_choices({})
    cache = {}
    for cid, nid in term.chosen.items():
        n = g.nodes[nid]
        if isinstance(n, AtomicNode):
            cache[nid] = optimize_enode(n, parts, TOOLS, 50, random.Random(0))
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
    result = optimize_enode(node, parts, TOOLS, 10, random.Random(0))
    assert result.cuts == ()
    assert result.best_time_cost == (0, 0.0)
