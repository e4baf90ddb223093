from planwright.kernels import eval_orders_chop


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
