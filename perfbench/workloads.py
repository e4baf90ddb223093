"""Workload inputs: the same seed always gives the same inputs.

Each workload is a list of cases; one pass of the closed loop runs every
case once through ``icee_run``. Importing this module imports planwright,
so the set-up probe times the import together with the input build.
"""

from __future__ import annotations

from dataclasses import dataclass

from planwright import IceeParams, corpus_path, default_stocks, default_tools
from planwright.designspace import DesignSpace
from planwright.io import design_space_from_json, load_design_space

from synth import ring_design

# Why each workload exists, and which layers it is predicted not to move,
# is recorded in BENCHMARK.json and README.md next to this file.
WORKLOADS = ("lumber-exhaustive", "sheet-3obj", "synth-sampled")

# Each case's time is the median of several runs in one measurement
# (run.py), so runs must be a few seconds long. frame takes about 1 s and
# finds the same front at every seed. tiny-table is left out: a full run
# takes 17-40 s, and a one-iteration run's front depends on the seed (seed
# 103 misses the oracle's (11 $, 2.83 min) plan), so front_hv would not
# repeat and the oracle gate would fail.
FRAME_SEEDS_PER_PASS = 3
# With default parameters sheet-box stops on stall after 6 or 7 iterations,
# about half the seeds each, which makes per-run times bimodal. A fixed
# iteration count (reached before any stall stop) keeps them unimodal.
SHEET_ITERATIONS = 5
SHEET_SEEDS_PER_PASS = 4
# The ring suite is fixed rather than drawn from --seed: on these designs a
# run's time varies up to 2x with the ICEE seed, and whether it completes or
# hits the packing defect flips with it too, so a seeded suite small enough
# to run in one pass cannot give steady timings. One ring per size and one
# ICEE iteration keep a pass to a few seconds, so every ring runs several
# times in a measurement.
RING_SIZES = (8, 12, 16)
RING_SEED = 0
RING_ICEE_SEED = 0
SYNTH_ITERATIONS = 1

# Hypervolume reference points, (f_c $, f_t min) or (f_c $, f_p in, f_t min),
# just beyond the oracle front's worst point on each axis ($0.5 on f_c, 9-18%
# of the front's range on the others), so that losing any one front point
# moves front_hv by several percent.
CORPUS_REFERENCE = {
    "frame": (12.5, 4.5),  # oracle nadir (12, 4.03)
    "sheet-box": (10.5, 0.26, 20.0),  # oracle nadir (10, 0.25, 19.66)
}
# Rings have no oracle. The reference is 10% beyond the worst point of the
# one-iteration front on each axis: 8 parts (25, 9.97), 12 parts (30, 13.18).
# The 16-part ring raises on the known packing defect; its reference is the
# 12-part one scaled per part (revisit once it completes).
RING_REFERENCE = {8: (27.5, 11.0), 12: (33.0, 14.5), 16: (44.0, 19.3)}


@dataclass(frozen=True)
class Case:
    label: str
    space: DesignSpace
    params: IceeParams
    corpus: str | None  # bundled corpus name: the oracle gate applies
    reference: tuple[float, ...]  # hypervolume reference point


def build(workload: str, seed: int):
    """(cases, stock library, tool table) for one workload and seed."""
    stocks, tools = default_stocks(), default_tools()
    if workload == "lumber-exhaustive":
        space = load_design_space(corpus_path("frame"))
        first = seed * FRAME_SEEDS_PER_PASS
        cases = [
            Case(f"frame@{s}", space, IceeParams(seed=s), "frame",
                 CORPUS_REFERENCE["frame"])
            for s in range(first, first + FRAME_SEEDS_PER_PASS)
        ]
    elif workload == "sheet-3obj":
        space = load_design_space(corpus_path("sheet-box"))
        first = seed * SHEET_SEEDS_PER_PASS
        cases = [
            Case(f"sheet-box@{s}", space,
                 IceeParams(seed=s, objective_mode=3,
                            iterations=SHEET_ITERATIONS), "sheet-box",
                 CORPUS_REFERENCE["sheet-box"])
            for s in range(first, first + SHEET_SEEDS_PER_PASS)
        ]
    elif workload == "synth-sampled":
        params = IceeParams(seed=RING_ICEE_SEED, iterations=SYNTH_ITERATIONS)
        cases = []
        for n in RING_SIZES:
            space = design_space_from_json(ring_design(RING_SEED, n))
            cases.append(Case(f"{space.base_id}@{RING_ICEE_SEED}",
                              space, params, None, RING_REFERENCE[n]))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return cases, stocks, tools
