import random

from planwright.cost import StockInstance
from planwright.egraph import AtomicNode, BopEGraph, ComposeNode
from planwright.libraries import default_stocks
from planwright.packing import Arrangement

STOCKS = {s.id: s for s in default_stocks()}


def arr(design_id, parts, *instances):
    """instances: list of (stock_id, [(part_id, offset_x), ...])"""
    return Arrangement(design_id=design_id, stocks=tuple(
        (StockInstance(key=f"{stock_id}#{i}", spec=STOCKS[stock_id]),
         tuple(sorted((pid, (off,)) for pid, off in places)))
        for i, (stock_id, places) in enumerate(instances)
    ))


def test_single_stock_arrangement_one_atomic():
    g = BopEGraph("d", frozenset({"a", "b"}))
    new = g.add_arrangement(
        arr("d", "ab", ("2x4-96", [("a", 0), ("b", 1500)]))
    )
    assert len(new) == 1
    assert isinstance(g.nodes[new[0]], AtomicNode)
    assert g.root is not None
    assert g.count_terms() == 1


def test_two_stock_arrangement_adds_compose():
    g = BopEGraph("d", frozenset({"a", "b"}))
    new = g.add_arrangement(
        arr("d", "ab", ("2x4-48", [("a", 0)]), ("2x4-48", [("b", 0)]))
    )
    kinds = sorted(type(g.nodes[n]).__name__ for n in new)
    assert kinds == ["AtomicNode", "AtomicNode", "ComposeNode"]
    assert g.count_terms() == 1


def test_readd_is_noop():
    g = BopEGraph("d", frozenset({"a", "b"}))
    a = arr("d", "ab", ("2x4-48", [("a", 0)]), ("2x4-48", [("b", 0)]))
    g.add_arrangement(a)
    assert g.add_arrangement(a) == []


def test_count_terms_mixes_alternatives():
    g = BopEGraph("d", frozenset({"a", "b"}))
    # one single-stock packing, plus 3 alternatives for {a} x 1 for {b}
    g.add_arrangement(arr("d", "ab", ("2x4-96", [("a", 0), ("b", 1500)])))
    for stock in ("2x4-24", "2x4-48", "2x4-96"):
        g.add_arrangement(arr("d", "ab", (stock, [("a", 0)]), ("2x4-24", [("b", 0)])))
    # terms: the whole-stock atomic + compose(3 choices for {a} x 1 for {b})
    assert g.count_terms() == 1 + 3 * 1
    assert g.check_acyclic()


def test_sample_term_deterministic_and_closed():
    g = BopEGraph("d", frozenset({"a", "b"}))
    g.add_arrangement(arr("d", "ab", ("2x4-96", [("a", 0), ("b", 1500)])))
    g.add_arrangement(arr("d", "ab", ("2x4-48", [("a", 0)]), ("2x4-48", [("b", 0)])))
    t1 = g.sample_term(random.Random("k"))
    t2 = g.sample_term(random.Random("k"))
    assert t1.signature() == t2.signature()
    # the closure covers the root and, for compose picks, every child class
    node = g.nodes[t1.chosen[t1.root]]
    if isinstance(node, ComposeNode):
        assert all(c in t1.chosen for c in node.children)


def test_term_from_choices_completes_partial_map():
    g = BopEGraph("d", frozenset({"a", "b"}))
    g.add_arrangement(arr("d", "ab", ("2x4-48", [("a", 0)]), ("2x4-48", [("b", 0)])))
    term = g.term_from_choices({})
    stack = [term.root]
    seen = set()
    while stack:
        cid = stack.pop()
        seen.add(cid)
        node = g.nodes[term.chosen[cid]]
        if isinstance(node, ComposeNode):
            stack.extend(node.children)
    assert seen == set(term.chosen)


def test_contract_keeps_pareto_nodes_and_fresh_class_ids():
    g = BopEGraph("d", frozenset({"a", "b"}))
    g.add_arrangement(arr("d", "ab", ("2x4-96", [("a", 0), ("b", 1500)])))
    for stock in ("2x4-24", "2x4-48", "2x4-96"):
        g.add_arrangement(arr("d", "ab", (stock, [("a", 0)]), ("2x4-24", [("b", 0)])))
    favored = g.term_from_choices({})
    class_count = len(g.classes)
    g.contract([favored], 1, lambda nid: 0.0)
    assert g.check_acyclic()
    assert g.count_terms() >= 1
    for eclass in g.classes.values():
        assert len(eclass.nodes) == 1
    # each surviving class keeps the favored node
    for cid, nid in favored.chosen.items():
        if cid in g.classes:
            assert g.classes[cid].nodes == [nid]
    # ids allocated after contraction never collide with survivors
    before = set(g.classes)
    g.add_arrangement(arr("d", "ab", ("2x4-24", [("a", 0)]), ("2x4-48", [("b", 0)])))
    assert before <= set(g.classes)
    assert class_count >= len(before)


def test_contract_ranks_by_scalar_bound():
    g = BopEGraph("d", frozenset({"a"}))
    g.add_arrangement(arr("d", "a", ("2x4-96", [("a", 0)])))
    g.add_arrangement(arr("d", "a", ("2x4-24", [("a", 0)])))
    root = g.root
    price = {nid: g.nodes[nid].spec.effective_price() for nid in g.classes[root].nodes}
    g.contract([], 1, scalar_bound=lambda nid: price[nid])
    kept = g.classes[root].nodes
    assert len(kept) == 1
    assert g.nodes[kept[0]].spec.id == "2x4-24"
