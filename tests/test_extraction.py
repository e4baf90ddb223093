import dataclasses
import random

from planwright import corpus_path
from planwright.analysis import hypervolume, pareto_filter, point_dominates
from planwright.cost import evaluate_plan
from planwright.extraction import (
    IceeParams,
    baseline_run,
    crowding_distance,
    icee_run,
    non_dominated_sort,
)
from planwright.io import load_design_space
from planwright.libraries import default_stocks, default_tools

STOCKS = default_stocks()
TOOLS = default_tools()

FAST = IceeParams(iterations=4, traversals=12, population=40, generations=4,
                  flip_iters=8, seed=7)


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


def test_crowding_distance_extremes_infinite():
    objs = [(0.0, 3.0), (1.0, 2.0), (3.0, 0.0)]
    dist = crowding_distance(objs, [0, 1, 2])
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


def test_seed_changes_search_but_front_stays_optimal_on_lframe():
    # lframe's optimum is a single point; any seed must find it
    for seed in (1, 2, 3):
        front, _ = run("lframe", dataclasses.replace(FAST, seed=seed))
        assert min(s.cost.f_c for s in front) == 5.5


def test_baseline_restricted_to_base_design():
    space = load_design_space(corpus_path("frame"))
    front, _ = baseline_run(space, STOCKS, TOOLS, FAST)
    base = space.base_design()
    assert all(s.design.id == base.id for s in front)
    assert min(s.cost.f_c for s in front) == 10.0


def test_optimized_weakly_improves_on_baseline():
    space = load_design_space(corpus_path("frame"))
    # enough iterations for the breadth sweep to visit all 16 designs
    full = dataclasses.replace(FAST, iterations=16)
    opt, _ = icee_run(space, STOCKS, TOOLS, full)
    base, _ = baseline_run(space, STOCKS, TOOLS, full)
    ref = (100.0, 100.0)
    hv_opt = hypervolume([s.cost.objectives for s in opt], ref)
    hv_base = hypervolume([s.cost.objectives for s in base], ref)
    assert hv_opt >= hv_base
    assert min(s.cost.f_c for s in opt) == 8.5


def test_params_validation():
    import pytest

    with pytest.raises(ValueError):
        IceeParams(iterations=0)
    with pytest.raises(ValueError):
        IceeParams(alpha=1.5)
    with pytest.raises(ValueError):
        IceeParams(objective_mode=4)


def test_objective_mode_three():
    front, _ = run("lframe", dataclasses.replace(FAST, objective_mode=3))
    assert all(len(s.cost.objectives) == 3 for s in front)
