import dataclasses
import itertools
import math
import random

import pytest

from planwright import corpus_path, designspace, extraction
from planwright.analysis import ClipReport, hypervolume, pareto_filter, point_dominates
from planwright.cost import StockInstance, evaluate_plan
from planwright.designspace import DesignSpace, detect_joints, enumerate_variants
from planwright.egraph import AtomicNode, BopEGraph, ComposeNode
from planwright.extraction import (
    P_CROSSOVER,
    P_MUTATION,
    IceeParams,
    baseline_run,
    crowding_distance,
    icee_run,
    non_dominated_sort,
)
from planwright.io import design_space_from_json, load_design_space
from planwright.libraries import default_stocks, default_tools, with_metal_twins
from planwright.model import ConnectorVariant, CostVector, Design, Part, ticks
from planwright.ordering import NodeMemo
from planwright.packing import Arrangement, InfeasiblePartError, part_groups
from test_egraph import as_dict
from test_front_digest import ring_design

STOCKS = default_stocks()
TOOLS = default_tools()

FAST = IceeParams(iterations=4, traversals=12, population=40, generations=4,
                  seed=7)


def run(corpus, params=FAST):
    space = load_design_space(corpus_path(corpus))
    return icee_run(space, STOCKS, TOOLS, params)


def test_non_dominated_sort_ranks():
    objs = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (3.0, 3.0)]
    assert non_dominated_sort(objs) == [0, 1, 0, 2]


def double_loop_sort(objs):
    """Reference: the all-pairs sort `non_dominated_sort` replaced."""
    n = len(objs)
    ranks = [0] * n
    dominated_by = [0] * n
    dominates_list = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and point_dominates(objs[i], objs[j]):
                dominates_list[i].append(j)
            elif i != j and point_dominates(objs[j], objs[i]):
                dominated_by[i] += 1
    current = [i for i in range(n) if dominated_by[i] == 0]
    rank = 0
    while current:
        nxt = []
        for i in current:
            ranks[i] = rank
            for j in dominates_list[i]:
                dominated_by[j] -= 1
                if dominated_by[j] == 0:
                    nxt.append(j)
        current = nxt
        rank += 1
    return ranks


def test_non_dominated_sort_matches_double_loop():
    rng = random.Random("nds")
    for m in (2, 3):
        worst = tuple([float("inf")] * m)
        for _ in range(150):
            # few distinct values per axis: many ties, duplicates and chains
            pool = [tuple(float(rng.randint(0, 4)) for _ in range(m))
                    for _ in range(rng.randint(1, 12))] + [worst]
            objs = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
            assert non_dominated_sort(objs) == double_loop_sort(objs), objs
        # GA-shaped: a population of 120 holding at most 12 distinct tuples,
        # the "worst" tuple of a pruned term among them
        for _ in range(20):
            pool = [tuple(rng.randint(0, 40) / 4 for _ in range(m))
                    for _ in range(rng.randint(1, 11))] + [worst]
            objs = [rng.choice(pool) for _ in range(120)]
            assert non_dominated_sort(objs) == double_loop_sort(objs), objs


def test_crowding_distance_extremes_infinite():
    objs = [(0.0, 3.0), (1.0, 2.0), (3.0, 0.0)]
    dist = crowding_distance(objs)
    assert dist[0] == dist[2] == float("inf")
    assert 0.0 < dist[1] < float("inf")


def test_icee_run_deterministic():
    front1, report1 = run("lframe")
    front2, report2 = run("lframe")
    assert [s.cost.objectives for s in front1] == [s.cost.objectives for s in front2]
    assert report1["iterations"] == report2["iterations"]


def test_front_mutually_non_dominated_and_costs_verified():
    front, _ = run("tiny-table")
    objs = [s.cost.objectives for s in front]
    assert sorted(objs) == sorted(pareto_filter(objs))
    for sol in front:
        recomputed = evaluate_plan(sol.plan, TOOLS).vector(2)
        assert recomputed.objectives == sol.cost.objectives
        assert sol.plan.design_id == sol.design.id


def test_hypervolume_monotone_over_iterations():
    _, report = run("frame")
    hvs = [it["hypervolume"] for it in report["iterations"]]
    assert all(b >= a - 1e-9 for a, b in zip(hvs, hvs[1:]))
    assert report["design_space_cardinality"] == 16


def test_report_counts_term_patterns():
    # frame's terms have at most six cuts, so every refined term's exact
    # front is searched once per distinct pattern and shared after that
    _, report = run("frame")
    patterns = [it["term_patterns"] for it in report["iterations"]]
    assert 0 < patterns[0] and patterns == sorted(patterns)
    assert all(it["term_patterns"] <= it["terms_refined"]
               for it in report["iterations"])
    assert patterns[-1] < report["iterations"][-1]["terms_refined"]


def test_seed_changes_search_but_front_stays_optimal_on_lframe():
    # lframe's optimum is a single point; any seed must find it
    for seed in (1, 2, 3):
        front, _ = run("lframe", dataclasses.replace(FAST, seed=seed))
        assert min(s.cost.f_c for s in front) == 5.5


def test_baseline_restricted_to_base_design():
    space = load_design_space(corpus_path("frame"))
    base = space.base_design()
    # with three slots, iteration 0's last slot finds the one-design sweep
    # done before any design is expanded, and falls back to the base
    for per_iter in (2, 3):
        params = dataclasses.replace(FAST, designs_per_iter=per_iter)
        front, _ = baseline_run(space, STOCKS, TOOLS, params)
        assert all(s.design.id == base.id for s in front)
        assert min(s.cost.f_c for s in front) == 10.0


def test_optimized_weakly_improves_on_baseline():
    space = load_design_space(corpus_path("frame"))
    # enough iterations for the breadth sweep to visit all 16 designs
    full = dataclasses.replace(FAST, iterations=16)
    opt, _ = icee_run(space, STOCKS, TOOLS, full)
    base, _ = baseline_run(space, STOCKS, TOOLS, full)
    ref = (100.0, 100.0)
    hv_opt = hypervolume([s.cost.objectives for s in opt], ref, ClipReport())
    hv_base = hypervolume([s.cost.objectives for s in base], ref, ClipReport())
    assert hv_opt >= hv_base
    assert min(s.cost.f_c for s in opt) == 8.5


def test_contraction_drops_the_orders_of_removed_nodes(monkeypatch):
    # after a run, each design keeps node orders for exactly the atomic
    # nodes its contracted e-graph still holds; 3 nodes per class make
    # contraction remove some
    states = {}
    searched = []
    ensure_state = extraction._ensure_state
    optimize_enode = extraction.optimize_enode

    def recorded(all_states, design):
        states[design.id] = ensure_state(all_states, design)
        return states[design.id]

    def counted(node, *args):
        searched.append(node.id)
        return optimize_enode(node, *args)

    monkeypatch.setattr(extraction, "_ensure_state", recorded)
    monkeypatch.setattr(extraction, "optimize_enode", counted)
    run("frame", dataclasses.replace(FAST, top_nodes=3))
    kept = 0
    for state in states.values():
        atomic = {nid for nid, node in state.egraph.nodes.items()
                  if isinstance(node, AtomicNode)}
        assert set(state.cache) == atomic
        kept += len(atomic)
    assert 0 < kept < len(searched)


@pytest.mark.parametrize("corpus,params", [
    ("frame", IceeParams(seed=0)),
    ("sheet-box", IceeParams(seed=0, objective_mode=3, iterations=5)),
])
def test_extraction_builds_plans_only_for_its_solutions(corpus, params, monkeypatch):
    # refinement hands on recipes with their costs; each extraction builds
    # one plan per solution it returns, through the one plan builder
    built = []
    recipes = []
    extractions = []
    build_plan = extraction.build_plan
    refine_term = extraction.refine_term
    ga_extract = extraction.ga_extract

    def counted_build(*args):
        built.append(args)
        return build_plan(*args)

    def counted_refine(*args):
        stocks, term_recipes = refine_term(*args)
        recipes.extend(term_recipes)
        return stocks, term_recipes

    def counted_extract(*args):
        start = len(built)
        sols, refined = ga_extract(*args)
        extractions.append((len(built) - start, len(sols)))
        return sols, refined

    monkeypatch.setattr(extraction, "build_plan", counted_build)
    monkeypatch.setattr(extraction, "refine_term", counted_refine)
    monkeypatch.setattr(extraction, "ga_extract", counted_extract)
    run(corpus, params)
    assert extractions
    assert all(plans == sols for plans, sols in extractions)
    assert len(built) < len(recipes)


def test_extraction_of_an_empty_egraph_is_empty():
    design = Design("d", (Part("a", "2x4", (ticks(10),)),))
    state = extraction._DesignState(design=design, egraph=BopEGraph("d", frozenset({"a"})))
    assert extraction.ga_extract(state, FAST, random.Random(0), {}) == ([], 0)


# -- the GA on flat individuals against the GA on dict-based terms ---------------


def reference_close(g, pick):
    """Choose `pick(cid)` in the root class, then in the chosen node's child
    classes, last first."""
    nid = pick(g.root)
    chosen = {g.root: nid}
    node = g.nodes[nid]
    for cid in reversed(node.children if isinstance(node, ComposeNode) else ()):
        chosen[cid] = pick(cid)
    return g.root, chosen


def reference_ga(g, params, rng, refine, seen):
    """Reference: the GA loop on dict-based terms, (root class, {class:
    node}), each closed from the root over a choice map, as it was before
    individuals were flat. `refine(term)` gives a term's recipes; each
    distinct term is refined once. Returns the refined (term, recipes) in
    first-evaluation order, and counts in `seen` the root crossovers that
    fill a class from its first node and the mutations on the root class."""
    refined = {}

    def from_choices(choices):
        def pick(cid):
            nodes = g.classes[cid].nodes
            return choices[cid] if choices.get(cid) in nodes else nodes[0]
        return reference_close(g, pick)

    def fitness(term):
        key = (term[0], tuple(sorted(term[1].items())))
        if key not in refined:
            refined[key] = (term, refine(term))
        return min(recipe[2].objectives for recipe in refined[key][1])

    population = [reference_close(g, lambda cid: rng.choice(g.classes[cid].nodes))
                  for _ in range(params.population)]
    fitnesses = [fitness(t) for t in population]
    for _ in range(params.generations):
        ranks = non_dominated_sort(fitnesses)
        crowd = crowding_distance(fitnesses)

        def tournament():
            i, j = rng.randrange(len(population)), rng.randrange(len(population))
            if (ranks[i], -crowd[i]) <= (ranks[j], -crowd[j]):
                return population[i]
            return population[j]

        offspring = []
        while len(offspring) < params.population:
            (_, a), (_, b) = tournament(), tournament()
            choices = dict(a)
            if rng.random() < P_CROSSOVER:
                shared = sorted(set(a) & set(b))
                if shared:
                    pick = rng.choice(shared)
                    choices[pick] = b[pick]
            child = from_choices(choices)
            seen["root crossover fills"] += not set(child[1]) <= set(choices)
            if rng.random() < P_MUTATION:
                cid = rng.choice(sorted(child[1]))
                mutated = dict(child[1])
                mutated[cid] = rng.choice(g.classes[cid].nodes)
                seen["root mutations"] += cid == g.root
                child = from_choices(mutated)
            offspring.append(child)
        population = offspring
        fitnesses = [fitness(t) for t in population]
    return list(refined.values())


def random_two_level_egraph(rng):
    """Random packings of 2-5 parts, each part set on one stock or split
    over several, so the root class mixes atomic and compose nodes."""
    parts = [f"p{i}" for i in range(rng.randint(2, 5))]
    g = BopEGraph("d", frozenset(parts))
    for _ in range(rng.randint(1, 14)):
        order = rng.sample(parts, len(parts))
        cuts = sorted(rng.sample(range(1, len(parts)), rng.randint(0, len(parts) - 1)))
        blocks = [order[i:j] for i, j in zip([0, *cuts], [*cuts, len(parts)])]
        g.add_arrangement(Arrangement("d", tuple(
            (StockInstance(f"s#{k}", rng.choice(STOCKS[:3])),
             tuple(sorted((pid, (rng.randint(0, 2),)) for pid in block)))
            for k, block in enumerate(blocks))))
    return g


def fake_recipes(term):
    """One or two recipes whose costs follow from the term alone."""
    rng = random.Random(str(sorted(term[1].items())))
    return tuple(((), (), CostVector(rng.randint(0, 4), rng.randint(0, 4)))
                 for _ in range(rng.randint(1, 2)))


def test_flat_ga_matches_the_dict_based_ga(monkeypatch):
    refined = []

    def refine_term(egraph, individual, cache, mode, memo):
        term = as_dict(egraph, individual)
        refined.append(term)
        return None, fake_recipes(term)

    monkeypatch.setattr(extraction, "refine_term", refine_term)
    monkeypatch.setattr(extraction, "build_plan", lambda *args: None)
    seen = dict.fromkeys(["root crossover fills", "root mutations", "atomic roots",
                          "population 1", "population 2", "generations 0"], 0)
    rng = random.Random("flat ga")
    for case in range(300):
        g = random_two_level_egraph(rng)
        params = IceeParams(population=rng.choice((1, 2, 3, 5, 8)),
                            generations=rng.choice((0, 1, 3, 6)))
        if g.count_terms() <= params.population:
            continue
        seed = f"ga/{case}"
        ga_rng, ref_rng = random.Random(seed), random.Random(seed)
        refined.clear()
        state = extraction._DesignState(design=Design("d", ()), egraph=g)
        sols, count = extraction.ga_extract(state, params, ga_rng, {})
        expected = reference_ga(g, params, ref_rng, fake_recipes, seen)
        assert refined == [term for term, _ in expected], case
        assert count == len(expected)
        kept = pareto_filter([(term, recipe[2]) for term, recipes in expected
                              for recipe in recipes], key=lambda e: e[1].objectives)
        assert [(as_dict(g, s.term), s.cost) for s in sols] == kept, case
        assert ga_rng.getstate() == ref_rng.getstate(), case
        seen["atomic roots"] += any(isinstance(g.nodes[nid], AtomicNode)
                                    for nid in g.classes[g.root].nodes)
        seen["population 1"] += params.population == 1
        seen["population 2"] += params.population == 2
        seen["generations 0"] += params.generations == 0
    assert all(seen.values()), seen


# -- the lazy design sweep against the list it replaced ----------------------


def list_based_icee_run(space, stock_lib, tools, params, skip=True):
    """Reference: `icee_run` sweeping a list of every design of a small
    space, built up front, with a cursor, as it was before the sweep was
    lazy. With `skip`, a design is not expanded or extracted again after
    an expansion in which every part group's n! orders fit the budget and
    the extraction drew nothing from its rng (it enumerated the terms).
    Returns the front, the report's iterations and explored designs, and
    the number of expansions."""
    base = space.base_design()
    states, exhausted = {}, set()
    packing_memo, node_memo, term_memo = {}, NodeMemo(tools), {}
    archive, report_iters = [], []
    enumerated = (enumerate_variants(space)
                  if space.cardinality <= extraction.BREADTH_ENUMERATION_LIMIT else [])
    cursor = terms_refined = stall = expansions = 0
    prev_hv = None

    def next_unexplored():
        nonlocal cursor
        while cursor < len(enumerated):
            cursor += 1
            if enumerated[cursor - 1].id not in states:
                return enumerated[cursor - 1]
        return None

    for iteration in range(params.iterations):
        rng_iter = extraction._rng(params.seed, "iter", iteration)
        chosen = []
        for slot in range(params.designs_per_iter):
            if iteration == 0 and slot == 0:
                chosen.append(base)
            elif slot == 0 and cursor < len(enumerated):
                chosen.append(next_unexplored() or base)
            elif archive and rng_iter.random() < params.alpha:
                chosen.append(states[rng_iter.choice(
                    sorted({s.design.id for s in archive}))].design)
            else:
                design = next_unexplored()
                if design is None and space.cardinality > len(enumerated):
                    design = extraction.sample_design(space, rng_iter)
                if design is None:
                    design = states[rng_iter.choice(sorted(states))].design if states else base
                chosen.append(design)
        new, expanded = [], set()
        budget = max(1, params.traversals // len(chosen))
        for k, design in enumerate(chosen):
            state = states.setdefault(design.id, extraction._DesignState(
                design, BopEGraph(design.id, frozenset(p.id for p in design.parts))))
            if skip and design.id in exhausted:
                continue
            rng_task = extraction._rng(params.seed, "design", design.id, iteration, k)
            try:
                extraction._expand(state, stock_lib, tools, budget, node_memo, packing_memo,
                                   rng_task, params.population)
            except InfeasiblePartError:
                continue
            expansions += 1
            expanded.add(design.id)
            drawn = rng_task.getstate()
            sols, refined = extraction.ga_extract(state, params, rng_task, term_memo)
            if (rng_task.getstate() == drawn and all(
                    math.factorial(len(parts)) <= budget
                    for parts, _, _ in part_groups(design, stock_lib))):
                exhausted.add(design.id)
            terms_refined += refined
            new += sols
        archive = extraction._merge_archive(archive, new)
        for design in chosen:
            state = states[design.id]
            state.egraph.contract([s.term for s in archive if s.design.id == design.id],
                                  params.top_nodes, extraction._node_scalar_bound(state))
            state.cache = {nid: o for nid, o in state.cache.items()
                           if nid in state.egraph.nodes}
        hv = hypervolume([s.cost.objectives for s in archive],
                         extraction.default_reference(params.objective_mode), ClipReport())
        report_iters.append({
            "iteration": iteration, "designs": sorted({d.id for d in chosen}),
            "expanded": sorted(expanded),
            "terms_refined": terms_refined, "term_patterns": len(term_memo),
            "front_size": len(archive), "hypervolume": hv})
        stall = stall + 1 if prev_hv and (hv - prev_hv) / prev_hv < 0.01 else 0
        prev_hv = hv
        if stall >= 3 and not any(d.id not in states for d in enumerated):
            break
    return archive, report_iters, sorted(states), expansions


def collapsing_space():
    """16 selections, 7 of which shorten part b or c to nothing."""
    parts = (Part("a", "2x4", (ticks(20),)), Part("b", "2x4", (ticks(10),)),
             Part("c", "2x4", (ticks(10),)))
    variants = [ConnectorVariant("v0", 0, 0), ConnectorVariant("v1", 0, -ticks(2)),
                ConnectorVariant("vx", 0, -ticks(10)),
                ConnectorVariant("v3", -ticks(1), ticks(1))]
    joints = detect_joints(list(parts), [("a", "b", variants), ("a", "c", variants)])
    return DesignSpace("t", parts, tuple(joints))


@pytest.mark.parametrize("space,params", [
    (load_design_space(corpus_path("frame")), IceeParams(seed=0, designs_per_iter=1)),
    (collapsing_space(), IceeParams(seed=0, iterations=12, designs_per_iter=3, alpha=0.0)),
], ids=["frame-one-design-per-iteration", "collapsing-selections"])
def test_lazy_sweep_matches_the_list_based_sweep(space, params, monkeypatch):
    sampled = []
    sample_design = extraction.sample_design

    def counted_sample(*args):
        sampled.append(sample_design(*args))
        return sampled[-1]

    monkeypatch.setattr(extraction, "sample_design", counted_sample)
    front, report = icee_run(space, STOCKS, TOOLS, params)
    run_samples = len(sampled)
    expected = list_based_icee_run(space, STOCKS, TOOLS, params)
    assert ([s.cost.objectives for s in front], report["iterations"],
            report["designs_explored"]) == (
        [s.cost.objectives for s in expected[0]], *expected[1:3])
    # both sample the same designs, and only a space some of whose
    # selections collapse samples at all, once its sweep is done
    assert sampled[:run_samples] == sampled[run_samples:]
    assert bool(sampled) == (space.cardinality > len(enumerate_variants(space)))


# -- skipping re-picks of exhausted designs against a loop that expands them ----


def skip_case(name):
    """(design space, stock library) of a corpus or an n-part ring (ring seed 0)."""
    if name.startswith("ring-"):
        return design_space_from_json(ring_design(0, int(name[5:]))), STOCKS
    stocks = with_metal_twins(STOCKS) if name == "metal-mix" else STOCKS
    return load_design_space(corpus_path(name)), stocks


def front_bytes(front):
    """Every field of a front that a skipped re-pick could move."""
    return repr([(s.design.id, s.cost.objectives, s.term, [c.id for c in s.plan.cuts],
                  [inst.key for inst in s.plan.stock_bill],
                  [c.stack_group for c in s.plan.cuts]) for s in front])


@pytest.mark.parametrize("name", ["frame", "lframe", "sheet-box", "metal-mix",
                                  "ring-3", "ring-4", "ring-5"])
def test_skipping_exhausted_designs_keeps_every_front(name):
    space, stocks = skip_case(name)
    for mode, seed in itertools.product((2, 3), range(4)):
        params = IceeParams(seed=seed, objective_mode=mode)
        front, report = icee_run(space, stocks, TOOLS, params)
        full = list_based_icee_run(space, stocks, TOOLS, params, skip=False)
        case = (mode, seed)
        assert front_bytes(front) == front_bytes(full[0]), case
        assert len(report["iterations"]) == len(full[1]), case
        assert all(ours["terms_refined"] <= theirs["terms_refined"]
                   for ours, theirs in zip(report["iterations"], full[1])), case
        # the designs expanded are those the reference's own rule expands
        skipping = list_based_icee_run(space, stocks, TOOLS, params)
        assert report["iterations"] == skipping[1], case


@pytest.mark.parametrize("name,params,full,skipping", [
    ("frame", IceeParams(seed=0), 20, 12),
    ("sheet-box", IceeParams(seed=0, objective_mode=3, iterations=5), 10, 4),
    # every frame design has 3 or more terms, which outgrow a population of
    # 2: the GA runs on every pick
    ("frame", IceeParams(seed=0, population=2), 20, 20),
], ids=["frame", "sheet-box", "frame-ga"])
def test_exhausted_designs_are_expanded_once(name, params, full, skipping, monkeypatch):
    space, stocks = skip_case(name)
    calls = []
    generate = extraction.generate_arrangements

    def counted(*args):
        calls.append(args[0].id)
        return generate(*args)

    monkeypatch.setattr(extraction, "generate_arrangements", counted)
    _, report = icee_run(space, stocks, TOOLS, params)
    assert len(calls) == skipping
    assert sum(map(len, (it["expanded"] for it in report["iterations"]))) <= skipping
    assert report["iterations"] == list_based_icee_run(space, stocks, TOOLS, params)[1]
    assert list_based_icee_run(space, stocks, TOOLS, params, skip=False)[3] == full


def test_sweep_instantiates_only_the_designs_it_reaches(monkeypatch):
    # a 1-iteration ring-8 run explores the base alone; its space has 256 designs
    calls = []
    instantiate = designspace.instantiate

    def counted(*args):
        calls.append(args)
        return instantiate(*args)

    monkeypatch.setattr(designspace, "instantiate", counted)
    space = design_space_from_json(ring_design(0, 8))
    assert space.cardinality == 256
    _, report = icee_run(space, STOCKS, TOOLS, IceeParams(seed=0, iterations=1))
    assert report["designs_explored"] == [space.base_design().id]
    assert len(calls) <= 3


def test_params_validation():
    import pytest

    with pytest.raises(ValueError):
        IceeParams(iterations=0)
    with pytest.raises(ValueError):
        IceeParams(alpha=1.5)
    with pytest.raises(ValueError):
        IceeParams(objective_mode=4)
    with pytest.raises(ValueError, match="generations"):
        IceeParams(generations=-1)
    assert IceeParams(generations=0).generations == 0


def test_objective_mode_three():
    front, _ = run("lframe", dataclasses.replace(FAST, objective_mode=3))
    assert all(len(s.cost.objectives) == 3 for s in front)
