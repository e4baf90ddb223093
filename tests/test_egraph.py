import random

from planwright.cost import StockInstance
from planwright.egraph import AtomicNode, BopEGraph, ComposeNode
from planwright.libraries import default_stocks, default_tools
from planwright.model import Design, Part
from planwright.packing import Arrangement, generate_arrangements


def check_acyclic(g):
    """Reference: every compose node's child classes cover strictly smaller
    part sets than the class that holds the node."""
    for node in g.nodes.values():
        if isinstance(node, ComposeNode):
            parent = next(eclass.part_set for eclass in g.classes.values()
                          if node.id in eclass.nodes)
            if not all(g.classes[child].part_set < parent for child in node.children):
                return False
    return True

STOCKS = {s.id: s for s in default_stocks()}
TOOLS = default_tools()


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
    assert check_acyclic(g)


def test_sample_deterministic_and_closed():
    g = BopEGraph("d", frozenset({"a", "b"}))
    g.add_arrangement(arr("d", "ab", ("2x4-96", [("a", 0), ("b", 1500)])))
    g.add_arrangement(arr("d", "ab", ("2x4-48", [("a", 0)]), ("2x4-48", [("b", 0)])))
    t1 = g.sample(random.Random("k"))
    t2 = g.sample(random.Random("k"))
    assert t1 == t2
    # the closure covers the root and, for compose picks, every child class
    root, chosen = as_dict(g, t1)
    node = g.nodes[chosen[root]]
    if isinstance(node, ComposeNode):
        assert all(c in chosen for c in node.children)


def test_first_term_is_closed():
    g = BopEGraph("d", frozenset({"a", "b"}))
    g.add_arrangement(arr("d", "ab", ("2x4-48", [("a", 0)]), ("2x4-48", [("b", 0)])))
    root, chosen = as_dict(g, g.individuals()[0])
    stack = [root]
    seen = set()
    while stack:
        cid = stack.pop()
        seen.add(cid)
        node = g.nodes[chosen[cid]]
        if isinstance(node, ComposeNode):
            stack.extend(node.children)
    assert seen == set(chosen)


def test_contract_keeps_pareto_nodes_and_fresh_class_ids():
    g = BopEGraph("d", frozenset({"a", "b"}))
    g.add_arrangement(arr("d", "ab", ("2x4-96", [("a", 0), ("b", 1500)])))
    for stock in ("2x4-24", "2x4-48", "2x4-96"):
        g.add_arrangement(arr("d", "ab", (stock, [("a", 0)]), ("2x4-24", [("b", 0)])))
    favored = g.individuals()[0]
    class_count = len(g.classes)
    g.contract([favored], 1, lambda nid: 0.0)
    assert check_acyclic(g)
    assert g.count_terms() >= 1
    for eclass in g.classes.values():
        assert len(eclass.nodes) == 1
    # each surviving class keeps the favored node
    for cid, nid in as_dict(g, favored)[1].items():
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


# -- the two-level walks against walks over any acyclic e-graph -----------------


def as_dict(g, individual):
    """The individual as (root class, {class: node}), the form the
    references below give."""
    return g.root, dict(zip((g.root, *g.slots(individual[0])), individual))


def reference_close(g, pick):
    """Stack walk from the root over any acyclic e-graph, choosing
    `pick(cid)` in each class it reaches."""
    chosen = {}
    stack = [g.root]
    while stack:
        cid = stack.pop()
        if cid in chosen:
            continue
        nid = chosen[cid] = pick(cid)
        node = g.nodes[nid]
        if isinstance(node, ComposeNode):
            stack.extend(node.children)
    return g.root, chosen


def reference_terms(g):
    """Recursive enumeration of every term of any acyclic e-graph."""
    def class_terms(cid):
        out = []
        for nid in g.classes[cid].nodes:
            node = g.nodes[nid]
            if isinstance(node, AtomicNode):
                out.append({cid: nid})
            else:
                partials = [{cid: nid}]
                for child in node.children:
                    extended = []
                    for sub in class_terms(child):
                        for p in partials:
                            merged = dict(p)
                            merged.update(sub)
                            extended.append(merged)
                    partials = extended
                out.extend(partials)
        return out

    return [] if g.root is None else [(g.root, c) for c in class_terms(g.root)]


def random_design(rng):
    parts = tuple(Part(id=f"p{i}", family=rng.choice(("2x4", "2x2")),
                       shape=(rng.randint(12, 90) * 32,))
                  for i in range(rng.randint(2, 6)))
    return Design(id="d", parts=parts)


def random_egraphs(n):
    """(seed, stage, e-graph): random designs' e-graphs after one and two
    rounds of arrangements, after contracting them, and after one more
    round."""
    for seed in range(n):
        rng = random.Random(seed)
        design = random_design(rng)
        g = BopEGraph(design.id, frozenset(p.id for p in design.parts))
        memo = {}

        def expand():
            for a in generate_arrangements(design, list(STOCKS.values()),
                                           rng.randint(2, 10), TOOLS, rng, memo):
                g.add_arrangement(a)

        expand()
        yield seed, "expanded", g
        expand()
        yield seed, "expanded twice", g
        bound = {nid: rng.random() for nid in g.nodes}
        g.contract([g.sample(rng) for _ in range(3)], rng.randint(1, 3),
                   bound.__getitem__)
        yield seed, "contracted", g
        expand()
        yield seed, "expanded after contracting", g


def test_egraph_has_two_levels():
    """Every compose node is in the root class, over other classes, and
    every other class holds only atomic nodes: the walks rely on it."""
    for seed, stage, g in random_egraphs(12):
        for cid, eclass in g.classes.items():
            for nid in eclass.nodes:
                node = g.nodes[nid]
                if isinstance(node, ComposeNode):
                    assert cid == g.root and g.root not in node.children, (seed, stage)
                else:
                    assert isinstance(node, AtomicNode)
        assert check_acyclic(g)


def test_walks_match_the_generic_walks():
    multi = 0  # graphs with a compose node over two classes of two nodes or more
    for seed, stage, g in random_egraphs(12):
        individuals = g.individuals()
        assert [as_dict(g, i) for i in individuals] == reference_terms(g), (seed, stage)
        assert g.count_terms() == len(individuals)
        for draw in range(4):
            rng, ref_rng = random.Random(draw), random.Random(draw)
            individual = g.sample(rng)
            assert as_dict(g, individual) == reference_close(
                g, lambda cid: ref_rng.choice(g.classes[cid].nodes)), (seed, stage)
            assert rng.getstate() == ref_rng.getstate()
            # an individual lists its root node, then one node per slot class
            # (`as_dict` would drop any more)
            assert len(individual) == 1 + len(g.slots(individual[0])), (seed, stage)
        multi += any(sum(len(g.classes[c].nodes) > 1 for c in node.children) > 1
                     for node in g.nodes.values() if isinstance(node, ComposeNode))
    assert multi > 0


def test_empty_egraph_has_no_terms():
    g = BopEGraph("d", frozenset({"a"}))
    assert g.individuals() == [] and g.count_terms() == 0
    g.contract([], 1, lambda nid: 0.0)
    assert g.classes == {} and g.nodes == {}
