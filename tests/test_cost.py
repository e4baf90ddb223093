import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from planwright.cost import (
    Cut,
    FabPlan,
    PlanError,
    StockInstance,
    cut_piece,
    evaluate_plan,
    material_cost,
    measurement_error,
    order_is_feasible,
    split_piece,
    whole_piece,
)
from planwright.libraries import default_stocks, default_tools, metal_twin
from planwright.model import Tool, ticks

STOCKS = {s.id: s for s in default_stocks()}
TOOLS = default_tools()


def chop(cid, key, position, **kw):
    return Cut(id=cid, tool=Tool.CHOPSAW, stock_key=key, kind="lumber",
               position=position, **kw)


def lumber_plan(stock_id, positions, key="s0"):
    inst = StockInstance(key=key, spec=STOCKS[stock_id])
    cuts = tuple(chop(f"c{i}", key, p) for i, p in enumerate(positions))
    return FabPlan(design_id="d", cuts=cuts, stock_bill=(inst,))


# -- measurement error ----------------------------------------------------------


def test_measurement_error_examples():
    assert measurement_error(320) == 0  # 5" lands on the 1/16" grid
    assert measurement_error(321) == 1
    assert measurement_error(322) == 2
    assert measurement_error(323) == 1


@given(st.integers(min_value=1, max_value=10_000))
def test_measurement_error_range_and_period(m):
    eps = measurement_error(m)
    assert eps in (0, 1, 2)
    assert eps == measurement_error(m + 4)
    assert (eps == 0) == (m % 4 == 0)


# -- time -----------------------------------------------------------------------


def test_first_cut_on_fresh_96_lumber_totals_116s():
    plan = lumber_plan("2x4-96", [ticks(20)])
    cost = evaluate_plan(plan, TOOLS)
    row = cost.rows[0]
    assert (row.setup, row.load, row.op) == (60, 40 + 15, 1)
    assert cost.f_t_seconds == 116
    assert cost.f_t_minutes == pytest.approx(116 / 60)


def test_f_t_is_the_exact_sum_of_step_times():
    # tracksaw operation times (4.5 in/s) are no whole numbers of 1/64 s,
    # so float sums of them depend on their order; in every order f_t is
    # the exact sum of the rows' times, rounded once
    inst = StockInstance(key="s0", spec=STOCKS["sheet-1/2-24x20"])
    cuts = [Cut(id=f"c{i}", tool=Tool.TRACKSAW, stock_key="s0", kind="manual",
                measured_len=ticks(m), op_length=ticks(w))
            for i, (m, w) in enumerate([(4, 3), (4, "5.5"), (6, 20), (5, "3.25")])]
    for perm in itertools.permutations(cuts):
        cost = evaluate_plan(FabPlan(design_id="d", cuts=perm, stock_bill=(inst,)), TOOLS)
        exact = sum(Fraction(r.setup) + Fraction(r.load) + Fraction(r.op) for r in cost.rows)
        assert cost.f_t_seconds == float(exact)


def test_partial_cut_totals_16s():
    inst = StockInstance(key="s0", spec=STOCKS["2x4-96"])
    cuts = tuple(
        Cut(id=f"c{i}", tool=Tool.CHOPSAW, stock_key="s0", kind="manual",
            measured_len=ticks(20), op_length=0)
        for i in range(2)
    )
    plan = FabPlan(design_id="d", cuts=cuts, stock_bill=(inst,))
    cost = evaluate_plan(plan, TOOLS)
    second = cost.rows[1]
    assert (second.setup, second.load, second.op) == (15, 0, 1)
    assert second.seconds == 16


def test_empty_plan_is_free():
    plan = FabPlan(design_id="d", cuts=(), stock_bill=())
    cost = evaluate_plan(plan, TOOLS)
    assert (cost.f_c, cost.f_t_seconds, cost.f_p_ticks) == (0, 0, 0)


def test_material_cost_sums_stock_bill():
    bill = (StockInstance("a", STOCKS["2x2-48"]), StockInstance("b", STOCKS["2x2-24"]))
    assert material_cost(bill) == 8.5


def test_one_2x4_96_costs_ten_dollars():
    plan = lumber_plan("2x4-96", [])
    assert material_cost(plan.stock_bill) == 10.0


# -- precision ------------------------------------------------------------------


def test_single_chopsaw_cut_on_grid_gives_op_error_only():
    plan = lumber_plan("2x4-96", [ticks(5)])  # measured 5" is on-grid
    cost = evaluate_plan(plan, TOOLS)
    assert cost.f_p_ticks == 1  # chopsaw op error is 1/64"
    assert cost.f_p_inches == 1 / 64


def test_cut_order_changes_precision():
    # the middle cut's piece keeps an original edge in one order only
    plan = lumber_plan("2x4-96", [395, 3219, 3509])
    swapped = FabPlan(design_id="d",
                      cuts=(plan.cuts[0], plan.cuts[2], plan.cuts[1]),
                      stock_bill=plan.stock_bill)
    assert evaluate_plan(plan, TOOLS).f_p_ticks == 6
    assert evaluate_plan(swapped, TOOLS).f_p_ticks == 7


def test_reordering_never_changes_material():
    positions = [ticks(10), ticks(30), ticks(50)]
    plan = lumber_plan("2x4-96", positions)
    costs = {
        evaluate_plan(FabPlan("d", tuple(perm), plan.stock_bill), TOOLS).f_c
        for perm in itertools.permutations(plan.cuts)
    }
    assert costs == {10.0}


def test_adding_a_cut_is_monotone():
    short = lumber_plan("2x4-96", [ticks(10)])
    longer = lumber_plan("2x4-96", [ticks(10), ticks(30)])
    cs, cl = evaluate_plan(short, TOOLS), evaluate_plan(longer, TOOLS)
    assert cl.f_t_seconds >= cs.f_t_seconds
    assert cl.f_p_ticks >= cs.f_p_ticks


# -- stacking -------------------------------------------------------------------


def _two_24s(stacked):
    group = "sg0" if stacked else None
    insts = (StockInstance("a", STOCKS["2x2-24"]), StockInstance("b", STOCKS["2x2-24"]))
    cuts = (chop("c0", "a", ticks("11.5"), stack_group=group),
            chop("c1", "b", ticks("11.5"), stack_group=group))
    return FabPlan(design_id="d", cuts=cuts, stock_bill=insts)


def test_stacking_two_24s_saves_29_seconds():
    sequential = evaluate_plan(_two_24s(False), TOOLS)
    stacked = evaluate_plan(_two_24s(True), TOOLS)
    # sequential: (60+15+1) + (15+15+1); stacked: 60 + (15 + 2) + 1
    assert sequential.f_t_seconds == 107
    assert stacked.f_t_seconds == 78
    assert sequential.f_t_seconds - stacked.f_t_seconds == 29


def test_stack_counts_error_once():
    assert evaluate_plan(_two_24s(True), TOOLS).f_p_ticks == \
        evaluate_plan(_two_24s(False), TOOLS).f_p_ticks // 2


def test_stack_height_cap():
    insts = tuple(StockInstance(f"s{i}", STOCKS["2x2-24"]) for i in range(5))
    cuts = tuple(chop(f"c{i}", f"s{i}", ticks(10), stack_group="sg0") for i in range(5))
    plan = FabPlan(design_id="d", cuts=cuts, stock_bill=insts)
    with pytest.raises(PlanError):
        evaluate_plan(plan, TOOLS)


def test_stack_rejects_unstackable_tool():
    insts = tuple(StockInstance(f"s{i}", STOCKS["2x2-24"]) for i in range(2))
    cuts = tuple(
        Cut(id=f"c{i}", tool=Tool.BANDSAW, stock_key=f"s{i}", kind="manual",
            measured_len=ticks(10), op_length=ticks(2), stack_group="sg0")
        for i in range(2)
    )
    with pytest.raises(PlanError):
        evaluate_plan(FabPlan("d", cuts, insts), TOOLS)


# -- mixed material -------------------------------------------------------------


def test_metal_modifiers():
    wood_spec = STOCKS["2x2-24"]
    metal_spec = metal_twin(wood_spec)
    wood = FabPlan("d", (chop("c0", "w", ticks(10)),),
                   (StockInstance("w", wood_spec),))
    metal = FabPlan("d", (chop("c0", "m", ticks(10)),),
                    (StockInstance("m", metal_spec),))
    cw, cm = evaluate_plan(wood, TOOLS), evaluate_plan(metal, TOOLS)
    assert cm.f_c == 20 * cw.f_c == 60.0
    rw, rm = cw.rows[0], cm.rows[0]
    assert rm.op == 10 * rw.op        # operations 10x slower
    assert rm.load == 5 * rw.load     # load/unload 5x slower
    assert rm.setup == rw.setup       # setup unchanged
    assert rm.op_error_ticks == rw.op_error_ticks  # chopsaw error unchanged


def test_jigsaw_error_doubles_on_metal():
    wood_spec = STOCKS["2x2-24"]
    metal_spec = metal_twin(wood_spec)

    def jig_plan(spec, key):
        cut = Cut(id="c0", tool=Tool.JIGSAW, stock_key=key, kind="manual",
                  measured_len=ticks(5), op_length=ticks(2))
        return FabPlan("d", (cut,), (StockInstance(key, spec),))

    wood = evaluate_plan(jig_plan(wood_spec, "w"), TOOLS)
    metal = evaluate_plan(jig_plan(metal_spec, "m"), TOOLS)
    assert wood.f_p_inches == 3 / 16
    assert metal.f_p_inches == 3 / 8


def test_drill_time_uses_depth():
    cut = Cut(id="c0", tool=Tool.DRILL, stock_key="s", kind="drill",
              measured_len=ticks(4), depth=ticks(2))
    plan = FabPlan("d", (cut,), (StockInstance("s", STOCKS["2x4-96"]),))
    row = evaluate_plan(plan, TOOLS).rows[0]
    assert row.op == 20.0  # 2 inches at 0.1 in/s


# -- pieces ---------------------------------------------------------------------


def test_piece_is_one_interval_per_axis():
    # a horizontal cut at 6" across a 24x20 sheet measures 6" off the
    # bottom edge, cuts the 24" width and leaves two pieces whose edges at
    # the cut are cut ones
    w, h, kerf = ticks(24), ticks(20), 8
    sheet = whole_piece((w, h))
    assert sheet == ((0, w, True, True), (0, h, True, True))
    cut = Cut(id="h", tool=Tool.TRACKSAW, stock_key="s", kind="sheet", axis=1,
              position=ticks(6), anchor=(0, 0))
    assert cut_piece(sheet, cut, kerf, True) == (ticks(6), w)
    assert split_piece(sheet, cut, kerf) == [
        ((0, w, True, True), (0, ticks(6), True, False)),
        ((0, w, True, True), (ticks(6) + kerf, h, False, True))]
    stick = whole_piece((ticks(48),))
    assert cut_piece(stick, chop("c", "s", ticks(10)), kerf, False) == (ticks(10), 0)
    # a cut along an axis that its stock does not have
    with pytest.raises(PlanError, match="cut c: its stock has no axis 1"):
        cut_piece(stick, chop("c", "s", ticks(10), axis=1), kerf, False)


# -- feasibility ----------------------------------------------------------------


def test_order_feasibility_respects_parents():
    a = chop("a", "s", ticks(10))
    b = Cut(id="b", tool=Tool.CHOPSAW, stock_key="s", kind="lumber",
            position=ticks(20), parent="a")
    assert order_is_feasible([a, b])
    assert not order_is_feasible([b, a])
