"""Evaluator for chop-cut orders on a single lumber stock.

The search loop no longer calls it: per-node cut orders come from each
step table's own search, ordering._stock_front. It gives the (f_p ticks,
f_t seconds) of a one-stock chop-saw plan, stock loaded once. It cuts the
stick with the plan evaluator's piece tracker (`cost._Sim`, pieces as
`cost` describes them), and stays only because the benchmark's tracing
names it.
"""

from __future__ import annotations

from .cost import Cut, _Sim, measurement_error
from .model import Tool

COMPILED = False  # no compiled kernel; perfbench/run.py reads this flag


def eval_orders_chop(
    positions: list[int],
    stock_len: int,
    kerf: int,
    op_error_ticks: int,
    setup_full: float,
    setup_partial: float,  # negative = tool has no partial setup
    op_seconds: float,
    load_seconds: float,
    orders: list[tuple[int, ...]],
) -> list[tuple[int, float]]:
    """(f_p ticks, f_t seconds) of each cut order, stock loaded once."""
    cuts = [Cut(id=f"c{i}", tool=Tool.CHOPSAW, stock_key="", kind="lumber", position=x)
            for i, x in enumerate(positions)]
    results = []
    for order in orders:
        sim = _Sim((stock_len,))
        fp = 0
        ft = load_seconds
        prev_measured = -1
        for idx in order:
            measured, _ = sim.cut(cuts[idx], kerf)
            fp += measurement_error(measured) + op_error_ticks
            ft += setup_partial if setup_partial >= 0 and measured == prev_measured else setup_full
            ft += op_seconds
            prev_measured = measured
        results.append((fp, ft))
    return results
