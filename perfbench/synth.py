"""Seeded synthetic ring designs for the synth-sampled workload.

A ring of N 2x2 lumber parts, each joined to the next (the last to the
first). Part lengths are drawn on the 1/16" measuring grid; every joint
offers a butt variant (no length change) and a lap variant (the second
part runs on by the 1 1/2" width of a 2x2). Designs are never filtered:
some of them trip known packing defects, and the benchmark counts those
runs as failed operations instead of hiding them.
"""

from __future__ import annotations

import random

SIXTEENTHS_PER_INCH = 16
MIN_LENGTH_IN = 6
MAX_LENGTH_IN = 46
LAP_RUN_ON_IN = "3/2"


def ring_design(seed: int, n_parts: int) -> dict:
    """Design JSON (the format of ``planwright.io``) for one ring."""
    if n_parts < 2:
        raise ValueError("a ring needs at least 2 parts")
    rng = random.Random(f"ring/{seed}/{n_parts}")
    lo = MIN_LENGTH_IN * SIXTEENTHS_PER_INCH
    hi = MAX_LENGTH_IN * SIXTEENTHS_PER_INCH
    parts = [
        {"id": f"p{i}", "family": "2x2",
         "shape_in": [f"{rng.randint(lo, hi)}/{SIXTEENTHS_PER_INCH}"]}
        for i in range(n_parts)
    ]
    joints = [
        {"part_a": f"p{i}", "part_b": f"p{(i + 1) % n_parts}",
         "variants": [
             {"id": "butt", "delta_a_in": "0", "delta_b_in": "0"},
             {"id": "lap", "delta_a_in": "0", "delta_b_in": LAP_RUN_ON_IN},
         ]}
        for i in range(n_parts)
    ]
    return {"id": f"ring{n_parts}-s{seed}", "parts": parts, "joints": joints}
