import itertools
import random

from planwright.cost import StockInstance
from planwright.egraph import AtomicNode
from planwright.kernels import eval_orders_chop
from planwright.libraries import default_stocks, default_tools, with_metal_twins
from planwright.model import Part, Tool
from planwright.ordering import _eval_node_order, _eval_orders, _kernel_applicable
from planwright.plans import cuts_for_instance

TOOLS = default_tools()
LUMBER = [s for s in with_metal_twins(default_stocks()) if not s.is_sheet]


def random_lumber_node(rng):
    """1-5 parts packed end to end; repeated lengths exercise partial setups."""
    spec = rng.choice(LUMBER)
    kerf = TOOLS[Tool.CHOPSAW].kerf
    n = rng.randint(1, 5)
    cap = (spec.dims[0] - n * kerf) // n
    parts, placements, offset = {}, [], 0
    for i in range(n):
        length = min(cap, rng.choice((10 * 64, 12 * 64, rng.randint(64, cap))))
        parts[f"p{i}"] = Part(id=f"p{i}", family=spec.family, shape=(length,),
                              material=spec.material)
        placements.append((f"p{i}", (offset,)))
        offset += length + kerf
    return AtomicNode(id="n", spec=spec, placements=tuple(placements)), parts


def test_chop_evaluator_matches_evaluate_plan():
    rng = random.Random("kernel-vs-evaluate_plan")
    for _ in range(400):
        node, parts = random_lumber_node(rng)
        inst = StockInstance(key=node.id, spec=node.spec)
        cuts = cuts_for_instance(inst, list(node.placements), parts, TOOLS)
        assert _kernel_applicable(inst, cuts)
        orders = [list(p) for p in itertools.permutations(cuts)]
        expected = [_eval_node_order(inst, order, TOOLS) for order in orders]
        assert _eval_orders(inst, cuts, orders, TOOLS) == expected, node


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
