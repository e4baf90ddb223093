"""The names the benchmark's tracer patches and reads must exist.

`perfbench/tracing.py` swaps module attributes of planwright for timing
wrappers, and `perfbench/run.py` reads `kernels.COMPILED`. A change that
deletes or renames one of them breaks `perfbench/run.py --trace 1`, which no
other test runs; this test fails instead.
"""

import importlib.util
from pathlib import Path

from planwright import kernels

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_exist_and_are_callable():
    tracing = load_tracing()
    table = tracing._patch_table(tracing.Tracer())
    assert table
    for owner, attr, name, _, _ in table:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, name)


def test_compiled_flag_exists():
    assert hasattr(kernels, "COMPILED")
