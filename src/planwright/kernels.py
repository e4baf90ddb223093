"""Evaluator for chop-cut orders on a single lumber stock.

This is the inner loop of per-node cut-order search (ordering._eval_orders).
It reproduces, bit for bit, the (f_p ticks, f_t seconds) that
cost.evaluate_plan gives the same one-stock chop-saw plan
(see tests/test_kernels.py).
"""

from __future__ import annotations

from .model import MEASUREMENT_GRID_TICKS as GRID

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
    results = []
    for order in orders:
        # pieces: (start, end, left-edge original, right-edge original)
        pieces = [(0, stock_len, True, True)]
        fp = 0
        ft = load_seconds
        prev_measured = -1
        for idx in order:
            x = positions[idx]
            for i, (a, b, lo, ro) in enumerate(pieces):
                if a <= x and x + kerf <= b:
                    near, far = x - a, b - x - kerf
                    if lo and ro:
                        measured = near if near < far else far
                    elif lo:
                        measured = near
                    elif ro:
                        measured = far
                    else:
                        measured = near if near < far else far
                    repl = []
                    if x > a:
                        repl.append((a, x, lo, False))
                    if b > x + kerf:
                        repl.append((x + kerf, b, False, ro))
                    pieces[i:i + 1] = repl
                    break
            else:
                raise ValueError(f"cut at {x} hits no piece")
            r = measured % GRID
            fp += (r if r < GRID - r else GRID - r) + op_error_ticks
            if setup_partial >= 0 and measured == prev_measured:
                ft += setup_partial
            else:
                ft += setup_full
            ft += op_seconds
            prev_measured = measured
        results.append((fp, ft))
    return results
