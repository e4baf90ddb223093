import dataclasses
import random

import pytest

from planwright import corpus_path, extraction
from planwright.analysis import ClipReport, hypervolume, pareto_filter, point_dominates
from planwright.cost import evaluate_plan
from planwright.egraph import AtomicNode, BopEGraph
from planwright.extraction import (
    IceeParams,
    baseline_run,
    crowding_distance,
    icee_run,
    non_dominated_sort,
)
from planwright.io import load_design_space
from planwright.libraries import default_stocks, default_tools
from planwright.model import Design, Part, ticks

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
    # nodes its contracted e-graph still holds
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
    run("frame")
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
