import random

import pytest

from planwright.cost import Cut, FabPlan, StockInstance, cut_record, evaluate_plan, load_seconds
from planwright.kernels import eval_orders_chop
from planwright.libraries import default_stocks, default_tools, with_metal_twins
from planwright.model import Tool, ticks

STOCKS = {s.id: s for s in with_metal_twins(default_stocks())}
TOOLS = default_tools()


def test_kernel_known_value_first_cut():
    # one chop at 30" on a 96" two-by-four: 60 setup + 55 handling + 1 op,
    # measured length 30" is on-grid so precision is just the tool error
    (fp, ft), = eval_orders_chop(
        positions=[30 * 64],
        stock_len=96 * 64,
        kerf=8,
        op_error_ticks=1,
        setup_full=60.0,
        setup_partial=15.0,
        op_seconds=1.0,
        load_seconds=55.0,
        orders=[(0,)],
    )
    assert (fp, ft) == (1, 116.0)


def test_kernel_partial_setup_on_repeat_measurement():
    # both cuts measure a 10" piece off an original edge, so the second
    # reuses the jig: 15 + 1 seconds instead of 60 + 1
    stock_len = 96 * 64
    results = eval_orders_chop(
        positions=[10 * 64, stock_len - 8 - 10 * 64],
        stock_len=stock_len,
        kerf=8,
        op_error_ticks=1,
        setup_full=60.0,
        setup_partial=15.0,
        op_seconds=1.0,
        load_seconds=55.0,
        orders=[(1, 0)],
    )
    (fp, ft), = results
    assert ft == 55.0 + (60.0 + 1.0) + (15.0 + 1.0)
    assert fp == 2


@pytest.mark.parametrize("stock_id", ["2x4-96", "metal-2x2-48"])
def test_kernel_matches_evaluate_plan_on_random_orders(stock_id):
    # random parts chopped off one stick, from few lengths so that some
    # orders measure one length twice in a row (a partial setup), each
    # order scored by the kernel and by the plan evaluator
    rng = random.Random(f"kernel-{stock_id}")
    spec, tool = STOCKS[stock_id], TOOLS[Tool.CHOPSAW]
    inst = StockInstance(key="s", spec=spec)
    lengths = [ticks(x) for x in (4, 6, "6.125", "395/64")]
    partial = 0
    for _ in range(12):
        positions = []
        end = rng.choice(lengths)
        while end + tool.kerf <= spec.dims[0] and len(positions) < 6:
            positions.append(end)
            end += tool.kerf + rng.choice(lengths)
        cuts = [Cut(id=f"c{i}", tool=Tool.CHOPSAW, stock_key="s", kind="lumber", position=x)
                for i, x in enumerate(positions)]
        orders = [tuple(rng.sample(range(len(cuts)), len(cuts))) for _ in range(8)]
        got = eval_orders_chop(
            positions=positions,
            stock_len=spec.dims[0],
            kerf=tool.kerf,
            op_error_ticks=tool.op_error_for(spec.material),
            setup_full=tool.setup_full(False),
            setup_partial=tool.setup_partial,
            op_seconds=cut_record(cuts[0], tool, spec, 0)[2],
            load_seconds=load_seconds([spec]),
            orders=orders,
        )
        for order, result in zip(orders, got):
            plan = FabPlan("d", tuple(cuts[i] for i in order), (inst,))
            cost = evaluate_plan(plan, TOOLS)
            assert result == (cost.f_p_ticks, cost.f_t_seconds)
            partial += sum(row.setup == tool.setup_partial for row in cost.rows)
    assert partial
