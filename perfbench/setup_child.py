"""Time one set-up of a workload in a fresh interpreter.

Set-up is what a library user pays before the first ``icee_run``: importing
planwright, building the stock and tool tables, and loading or generating
the design spaces. Prints the seconds it took, then the seconds the host
speed probe (calibrate.py) takes right after it.

    python3 perfbench/setup_child.py <workload> <seed>
"""

import sys
import time
from pathlib import Path


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    import workloads

    workloads.build(workload, seed)
    seconds = time.perf_counter() - start
    import calibrate

    print(repr(seconds), repr(calibrate.probe()))


if __name__ == "__main__":
    main()
