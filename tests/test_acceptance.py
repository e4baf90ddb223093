"""End-to-end acceptance checks. Each test prints one PASS line on success;
a failure shows up as an ordinary pytest failure for that criterion."""

import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from planwright import CORPUS_NAMES, corpus_path
from planwright.analysis import (
    hypervolume,
    hypervolume_inclusion_exclusion,
    improvement_table,
    pareto_filter,
    point_dominates,
)
from planwright.cost import (
    Cut,
    StockInstance,
    evaluate_plan,
    measurement_error,
    order_is_feasible,
)
from planwright.egraph import AtomicNode, BopEGraph
from planwright.extraction import IceeParams, baseline_run, icee_run
from planwright.io import load_design_space
from planwright.libraries import default_stocks, default_tools, with_metal_twins
from planwright.model import Material, Part, Tool, ticks
from planwright.oracle import brute_force_front
from planwright.ordering import optimize_enode, refine_term, term_bounds
from planwright.packing import Arrangement
from planwright.plans import assemble_plan, cuts_for_instance, stacked_variant

STOCKS = default_stocks()
STOCKS_ALL = with_metal_twins(STOCKS)
BY_ID = {s.id: s for s in STOCKS_ALL}
TOOLS = default_tools()

GOLDEN_PRICES = {
    "2x2-24": 3.0, "2x2-48": 5.5, "2x2-96": 10.0,
    "2x4-24": 3.0, "2x4-48": 5.5, "2x4-96": 10.0,
    "4x4-24": 7.5, "4x4-48": 13.75, "4x4-96": 25.0,
    "2x8-24": 7.5, "2x8-48": 13.75, "2x8-96": 25.0,
    "sheet-1/2-12x20": 5.5, "sheet-1/2-24x20": 10.0, "sheet-1/2-48x36": 30.0,
    "sheet-3/4-12x20": 7.0, "sheet-3/4-24x20": 12.0, "sheet-3/4-48x36": 32.0,
}
# (load_full, load_partial, unload_full, unload_partial) seconds
GOLDEN_HANDLING = {
    "2x2-24": (10, 1, 5, 1), "2x2-48": (20, 2, 8, 2), "2x2-96": (40, 3, 15, 2),
    "2x4-24": (10, 1, 5, 1), "2x4-48": (20, 2, 8, 2), "2x4-96": (40, 4, 15, 2),
    "4x4-24": (15, 2, 5, 1), "4x4-48": (30, 4, 10, 2), "4x4-96": (60, 6, 20, 3),
    "2x8-24": (15, 2, 5, 1), "2x8-48": (30, 4, 10, 2), "2x8-96": (60, 6, 20, 3),
    "sheet-1/2-12x20": (30, 3, 10, 2), "sheet-1/2-24x20": (50, 5, 15, 2),
    "sheet-1/2-48x36": (100, 10, 20, 2),
    "sheet-3/4-12x20": (30, 3, 10, 2), "sheet-3/4-24x20": (50, 5, 15, 2),
    "sheet-3/4-48x36": (100, 10, 20, 2),
}
GOLDEN_TOOL_ERROR_TICKS = {
    Tool.CHOPSAW: 1, Tool.BANDSAW: 4, Tool.JIGSAW: 12,
    Tool.TRACKSAW: 2, Tool.DRILL: 2,
}


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def chop_cut(cid, stock_key, position, measured=None):
    return Cut(id=cid, tool=Tool.CHOPSAW, stock_key=stock_key, kind="manual",
               position=position, measured_len=measured or position)


def single_cut_plan(stock_id, tool, position_in=10):
    spec = BY_ID[stock_id]
    inst = StockInstance(key=f"{stock_id}#0", spec=spec)
    pos = ticks(position_in)
    if tool is Tool.DRILL:
        cut = Cut(id="c0", tool=tool, stock_key=inst.key, kind="drill",
                  position=pos, measured_len=pos, depth=ticks(2))
    elif tool in (Tool.BANDSAW, Tool.JIGSAW, Tool.TRACKSAW):
        cut = Cut(id="c0", tool=tool, stock_key=inst.key, kind="manual",
                  position=pos, measured_len=pos, op_length=ticks(9))
    else:
        cut = chop_cut("c0", inst.key, pos)
    return assemble_plan("d", [(inst, [cut])])


def test_01_cost_table_fidelity():
    # stock prices: a cut-free plan costs exactly the catalog price
    for stock_id, price in GOLDEN_PRICES.items():
        inst = StockInstance(key=f"{stock_id}#0", spec=BY_ID[stock_id])
        plan = assemble_plan("d", [(inst, [])])
        assert evaluate_plan(plan, TOOLS).f_c == price, stock_id
    # load/unload and setup: single on-grid chopsaw cut per lumber stock
    for stock_id, (lf, lp, uf, up) in GOLDEN_HANDLING.items():
        spec = BY_ID[stock_id]
        tool = Tool.TRACKSAW if spec.is_sheet else Tool.CHOPSAW
        cost = evaluate_plan(single_cut_plan(stock_id, tool), TOOLS)
        if spec.is_sheet:
            # tracksaw full setup is 180 s; a 9" rip at 4.5 in/s takes 2 s
            assert cost.f_t_seconds == 180 + lf + uf + 2, stock_id
        else:
            assert cost.f_t_seconds == 60 + lf + uf + 1, stock_id
    # chopsaw partial setup: repeated measurement totals 15 + 1 = 16 s
    spec = BY_ID["2x4-96"]
    inst = StockInstance(key="2x4-96#0", spec=spec)
    m = ticks(10)
    cuts = [chop_cut("c0", inst.key, spec.dims[0] - TOOLS[Tool.CHOPSAW].kerf - m, m),
            chop_cut("c1", inst.key, m, m)]
    cost = evaluate_plan(assemble_plan("d", [(inst, cuts)]), TOOLS)
    assert cost.f_t_seconds == (60 + 1) + (15 + 1) + 40 + 15
    # per-cut tool errors on on-grid cuts
    for tool, err in GOLDEN_TOOL_ERROR_TICKS.items():
        stock_id = "sheet-1/2-24x20" if tool is Tool.TRACKSAW else "2x4-96"
        cost = evaluate_plan(single_cut_plan(stock_id, tool), TOOLS)
        assert cost.f_p_ticks == err, tool
    # remaining setup/op numbers
    # other tools on a 2x4-96 (handling 40 + 15): bandsaw/jigsaw run a 9"
    # path at 1 in/s; the drill sinks a 2" hole at 0.1 in/s
    assert evaluate_plan(single_cut_plan("2x4-96", Tool.BANDSAW),
                         TOOLS).f_t_seconds == 20 + 55 + 9
    assert evaluate_plan(single_cut_plan("2x4-96", Tool.JIGSAW),
                         TOOLS).f_t_seconds == 30 + 55 + 9
    assert evaluate_plan(single_cut_plan("2x4-96", Tool.DRILL),
                         TOOLS).f_t_seconds == 20 + 55 + 20
    ok(1, "prices, setup/op seconds, per-cut errors, handling all exact")


def test_02_measurement_error_property():
    for m in range(1, 10_001):
        eps = measurement_error(m)
        assert eps in (0, 1, 2)
        assert eps == measurement_error(m + 4)
        assert (eps == 0) == (m % 4 == 0)
    ok(2, "eps in {0,1,2}, 4-tick periodic, zero exactly on the grid")


def test_03_metal_modifiers():
    def costs(stock_id, tool):
        return evaluate_plan(single_cut_plan(stock_id, tool), TOOLS)

    wood = costs("2x2-24", Tool.CHOPSAW)
    metal = costs("metal-2x2-24", Tool.CHOPSAW)
    assert metal.f_c == 20 * wood.f_c
    # decompose: setup 60 unchanged; op 1 -> 10; load/unload 15 -> 75
    assert wood.f_t_seconds == 60 + 15 + 1
    assert metal.f_t_seconds == 60 + 15 * 5 + 1 * 10
    assert metal.f_p_ticks == wood.f_p_ticks  # chopsaw error unchanged
    wood_j = costs("2x2-24", Tool.JIGSAW)
    metal_j = costs("metal-2x2-24", Tool.JIGSAW)
    assert metal_j.f_p_ticks == 2 * wood_j.f_p_ticks
    ok(3, "price x20, op x10, handling x5, setup unchanged, jigsaw error x2")


def random_term(rng):
    """Random single-stock lumber term with 1..6 cuts."""
    stock_id = rng.choice(["2x2-96", "2x4-96", "2x2-48"])
    spec = BY_ID[stock_id]
    kerf = TOOLS[Tool.CHOPSAW].kerf
    n = rng.randint(1, 6)
    parts = {}
    placements = []
    offset = 0
    budget = spec.dims[0] - n * kerf
    for i in range(n):
        pid = f"p{i}"
        max_len = budget - (n - 1 - i)  # leave at least 1 tick per later part
        length = rng.randint(1, max(1, max_len // (n - i)))
        budget -= length
        parts[pid] = Part(id=pid, family=spec.family, shape=(length,))
        placements.append((pid, (offset,)))
        offset += length + kerf
    inst = StockInstance(key=f"{stock_id}#0", spec=spec)
    g = BopEGraph("d", frozenset(parts))
    g.add_arrangement(Arrangement(
        design_id="d", stocks=((inst, tuple(sorted(placements))),)))
    term = g.term_from_choices({})
    node = next(nd for nd in g.nodes.values() if isinstance(nd, AtomicNode))
    cache = {node.id: optimize_enode(node, parts, TOOLS)}
    return g, term, cache, inst, node, parts


def test_04_bounds_soundness_and_refinement():
    rng = random.Random("bounds")
    for _ in range(500):
        g, term, cache, inst, node, parts = random_term(rng)
        cuts = cuts_for_instance(inst, list(node.placements), parts, TOOLS)
        exhaustive = []
        for perm in itertools.permutations(cuts):
            order = list(perm)
            if not order_is_feasible(order):
                continue
            cost = evaluate_plan(assemble_plan("d", [(inst, order)]), TOOLS)
            exhaustive.append((cost.f_p_ticks / 64.0, cost.f_t_seconds / 60.0))
        bounds = term_bounds(g, term, cache, TOOLS)
        best_p = min(p for p, _ in exhaustive)
        best_t = min(t for _, t in exhaustive)
        for fp, ft in exhaustive:
            assert bounds.lower.f_p <= fp + 1e-12
            assert bounds.lower.f_t <= ft + 1e-12
        # the attained upper is realizable, hence within the exhaustive range
        assert bounds.upper.f_p >= best_p - 1e-12
        assert bounds.upper.f_t >= best_t - 1e-12
        front = pareto_filter([(round(p, 12), round(t, 12))
                               for p, t in exhaustive])
        refined = refine_term(g, term, cache, TOOLS, [], flip_iters=10,
                              rng=rng, mode=3)
        assert refined
        for _, cost in refined:
            point = (round(cost.f_p_ticks / 64.0, 12),
                     round(cost.f_t_seconds / 60.0, 12))
            assert point in front, point
    ok(4, "500 random terms: bounds sound, refinement on the order-Pareto set")


ORACLE_PARAMS = IceeParams(seed=3, iterations=16)


def test_05_oracle_front_equivalence():
    ratios = {}
    for name in CORPUS_NAMES:
        space = load_design_space(corpus_path(name))
        stocks = STOCKS_ALL if any(
            p.material is Material.METAL for p in space.base_parts) else STOCKS
        oracle_pts = sorted({cost.objectives for _, _, cost
                             in brute_force_front(space, stocks, TOOLS, mode=2)})
        front, _ = icee_run(space, stocks, TOOLS, ORACLE_PARAMS)
        pts = [s.cost.objectives for s in front]
        # feasibility: every solution re-evaluates to its reported cost
        for sol in front:
            assert evaluate_plan(sol.plan, TOOLS).vector(2).objectives \
                == sol.cost.objectives
            assert sol.plan.design_id == sol.design.id
        # mutual non-domination
        for a in pts:
            assert not any(point_dominates(b, a) for b in pts)
        ref = (100.0, 100.0)
        ratio = hypervolume(pts, ref) / hypervolume(oracle_pts, ref)
        ratios[name] = ratio
        assert ratio >= 0.95, (name, ratio)
    ok(5, "oracle HV ratios " + ", ".join(
        f"{k}={v:.5f}" for k, v in ratios.items()))


def test_06_frame_alignment():
    space = load_design_space(corpus_path("frame"))
    params = IceeParams(seed=0, iterations=16)
    front, _ = icee_run(space, STOCKS, TOOLS, params)
    opt_costs = [s.cost for s in front]
    assert 8.5 in {c.f_c for c in opt_costs}
    base_front, _ = baseline_run(space, STOCKS, TOOLS, params)
    base_costs = [s.cost for s in base_front]
    assert min(c.f_c for c in base_costs) == 10.0
    table = improvement_table(base_costs, opt_costs)
    assert table[0] == 15
    ok(6, "front reaches $8.50, baseline min $10.00, 15% at 0 $/h")


def test_07_hypervolume_correctness():
    assert hypervolume([(0.0, 0.0)], (1.0, 1.0)) == 1.0
    assert hypervolume([(0.5, 0.5)], (1.0, 1.0)) == 0.25
    assert hypervolume([(0.2, 0.6), (0.6, 0.2)], (1.0, 1.0)) \
        == pytest.approx(0.48)
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        pts = rng.uniform(0.0, 1.0, size=(k, 3))
        exact = hypervolume_inclusion_exclusion(
            [tuple(map(float, p)) for p in pts], (1.0, 1.0, 1.0))
        samples = rng.uniform(0.0, 1.0, size=(1_000_000, 3))
        hit = np.zeros(len(samples), dtype=bool)
        for p in pts:
            hit |= (samples >= p).all(axis=1)
        estimate = hit.mean()
        sigma = max((estimate * (1 - estimate) / len(samples)) ** 0.5, 1e-9)
        assert abs(exact - estimate) <= 3 * sigma + 1e-6, (exact, estimate)
    ok(7, "analytic values exact; inclusion-exclusion within 3 sigma of MC")


def test_08_worker_count_determinism(tmp_path):
    # the optimizer is single-process; the check is that a fixed seed
    # reproduces the front byte for byte
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        result = subprocess.run(
            [sys.executable, "-m", "planwright.cli", "optimize",
             corpus_path("frame"), "--seed", "11", "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ),
        )
        assert result.returncode == 0, result.stderr
        outputs.append((out / "front.csv").read_bytes())
    assert outputs[0] == outputs[1]
    ok(8, "front.csv byte-identical across two runs with one seed")


def test_09_stacking_benefit():
    spec = BY_ID["2x2-24"]
    per_stock = []
    for i in range(2):
        inst = StockInstance(key=f"2x2-24#{i}", spec=spec)
        per_stock.append((inst, [chop_cut(f"c{i}", inst.key, ticks(10))]))
    sequential = assemble_plan("d", per_stock)
    stacked = stacked_variant("d", per_stock, TOOLS)
    assert stacked is not None
    t_seq = evaluate_plan(sequential, TOOLS).f_t_seconds
    t_stack = evaluate_plan(stacked, TOOLS).f_t_seconds
    # sequential: full setup + cut + full handling, then the second stock
    # reuses the jig (partial setup): (60+1+15) + (15+1+15) = 107
    assert t_seq == (60 + 1 + 15) + (15 + 1 + 15)
    # stacked: one setup and one cut; the second stock pays partial
    # load/unload: 60 + 1 + (10+5) + (1+1) = 78
    assert t_stack == 60 + 1 + (10 + 5) + (1 + 1)
    assert t_stack < t_seq
    assert t_seq - t_stack == 29
    ok(9, f"stacked {t_stack:.0f} s vs sequential {t_seq:.0f} s")


def test_10_alpha_behavior():
    space = load_design_space(corpus_path("tiny-table"))
    wins = 0
    for rep in range(5):
        hv = {}
        for alpha in (0.95, 0.5):
            params = IceeParams(seed=100 + rep, alpha=alpha, iterations=6,
                                traversals=20, population=60, generations=5)
            front, _ = icee_run(space, STOCKS, TOOLS, params)
            hv[alpha] = hypervolume([s.cost.objectives for s in front],
                                    (100.0, 100.0))
        if hv[0.95] >= hv[0.5]:
            wins += 1
    assert wins >= 3, wins
    ok(10, f"alpha 0.95 at least matches alpha 0.5 in {wins}/5 matched runs")
