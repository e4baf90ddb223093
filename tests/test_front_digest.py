"""Front digest guard: the exact fronts of seven fixed runs.

A change meant to make the search faster without changing what it finds
must leave these fronts as they are: every member's design id, cut order
and exact cost tuple, its plan's stock bill and each cut's stack group,
and each iteration's counters from the run's report (distinct terms
refined so far, term cut patterns searched, front size).
If a change moves them on purpose, say why and take the new digest from
the changed code.
"""

import importlib.util
from pathlib import Path

import pytest

from planwright import corpus_path
from planwright.extraction import IceeParams, icee_run
from planwright.io import design_space_from_json, load_design_space
from planwright.libraries import default_stocks, default_tools, with_metal_twins

SYNTH = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"

# corpus -> (params, stock library)
CASES = {
    "frame": (IceeParams(seed=0), default_stocks()),
    "sheet-box": (IceeParams(seed=0, objective_mode=3, iterations=5), default_stocks()),
    # the only corpus with 6-cut terms
    "tiny-table": (IceeParams(seed=0), default_stocks()),
    # metal stock: its load and operation factors
    "metal-mix": (IceeParams(seed=0, objective_mode=3), with_metal_twins(default_stocks())),
}

# ring of N parts (ring seed 0) -> ICEE iterations at ICEE seed 0: the
# benchmark's rings, whose lumber terms above 6 cuts join their stocks'
# fronts, and a longer ring-12 run whose terms also need entry fronts
RINGS = {"ring-8": (8, 1), "ring-12": (12, 1), "ring-12-3it": (12, 3)}

DIGEST = {
    "frame": [
        ("frame/butt-butt-butt-butt",
         ("n0:c3", "n0:c0", "n0:c1", "n0:c2"),
         (10.0, 3.4833333333333334)),
        ("frame/butt-butt-butt-butt",
         ("n24:c0", "n25:c0", "n24:c1", "n25:c1"),
         (11.0, 2.566666666666667)),
        ("frame/butt-butt-butt-butt",
         ("n39:c0", "n40:c0", "n41:c0", "n42:c0"),
         (12.0, 1.3666666666666667)),
    ],
    "sheet-box": [
        # f_t sums the steps exactly (`cost.quanta`), so this order ties
        # with n8's vertical cuts taken 656, 952, 0, 328 and, being first,
        # is kept; float sums in cut order made that one 1 ulp faster
        ("sheet-box/rabbet-rabbet",
         ("n8:h0", "n8:h328", "n8:h656", "n8:h952",
          "n8:v0-0", "n8:v0-328", "n8:v0-656", "n8:v0-952"),
         (5.5, 0.25, 19.664814814814815)),
        ("sheet-box/rabbet-rabbet",
         ("n0:h0", "n0:h328", "n0:v0-0", "n0:v0-328", "n0:v584-0", "n0:v584-328"),
         (10.0, 0.1875, 15.831481481481482)),
    ],
    "tiny-table": [
        ("tiny-table/butt-butt",
         ("n0:c0", "n0:c5", "n0:c4", "n0:c3", "n0:c2", "n0:c1"),
         (10.0, 4.766666666666667)),
        ("tiny-table/butt-butt",
         ("n28:c2", "n29:c2", "n28:c0", "n29:c0", "n28:c1", "n29:c1"),
         (11.0, 2.8333333333333335)),
    ],
    "metal-mix": [
        ("metal-mix/butt", ("n0:c0", "n1:c0"), (63.0, 0.03125, 3.683333333333333)),
    ],
    "ring-8": [
        ("ring8-s0/butt-butt-butt-butt-butt-butt-butt-butt",
         ("n0:c0", "n0:c1", "n0:c2", "n1:c0", "n1:c1", "n1:c2", "n1:c3", "n1:c4"),
         (20.0, 9.966666666666667)),
        ("ring8-s0/butt-butt-butt-butt-butt-butt-butt-butt",
         ("n67:c0", "n73:c0", "n79:c2", "n79:c0", "n79:c1", "n87:c0", "n87:c1",
          "n97:c0"),
         (25.0, 9.5)),
    ],
    "ring-12": [
        ("ring12-s0/butt-butt-lap-lap-butt-butt-lap-butt-lap-butt-lap-lap",
         ("n91:c2", "n91:c0", "n91:c1", "n92:c0", "n92:c1", "n92:c2", "n92:c3",
          "n93:c0", "n93:c1", "n93:c2", "n93:c3"),
         (30.0, 13.183333333333334)),
    ],
    "ring-12-3it": [
        ("ring12-s0/butt-butt-lap-lap-butt-butt-lap-butt-lap-butt-lap-lap",
         ("n754:c0", "n754:c2", "n754:c1", "n758:c0", "n758:c2", "n758:c1",
          "n758:c3", "n758:c4", "n760:c0", "n760:c1", "n760:c2"),
         (30.0, 12.433333333333334)),
    ],
}

# per front member, in DIGEST order: (stock bill keys, stack group per cut)
PLANS = {
    "frame": [(("n0",), (None,) * 4),
              (("n24", "n25"), ("sg0", "sg0", "sg1", "sg1")),
              (("n39", "n40", "n41", "n42"), ("sg0",) * 4)],
    "sheet-box": [(("n8",), (None,) * 8), (("n0",), (None,) * 6)],
    "tiny-table": [(("n0",), (None,) * 6),
                   (("n28", "n29"), ("sg0", "sg0", "sg1", "sg1", "sg2", "sg2"))],
    "metal-mix": [(("n0", "n1"), (None,) * 2)],
    "ring-8": [(("n0", "n1"), (None,) * 8),
               (("n67", "n73", "n79", "n87", "n97"), (None,) * 8)],
    "ring-12": [(("n91", "n92", "n93"), (None,) * 11)],
    "ring-12-3it": [(("n754", "n758", "n760"), (None,) * 11)],
}

# per iteration: (terms_refined, term_patterns, front_size)
COUNTERS = {
    # a re-pick of a design whose arrangements and terms are all in refines
    # nothing (frame, sheet-box and metal-mix re-pick such designs)
    "frame": [(37, 3, 3), (74, 12, 3), (111, 12, 3), (185, 24, 3), (222, 33, 3),
        (259, 33, 3), (296, 56, 3), (333, 56, 3), (370, 56, 3), (444, 56, 3)],
    "sheet-box": [(32, 12, 1), (68, 32, 1), (104, 34, 1), (136, 42, 2), (136, 42, 2)],
    "tiny-table": [(152, 26, 2), (351, 90, 2), (546, 136, 2), (756, 212, 2)],
    "metal-mix": [(1, 1, 1), (2, 2, 1), (2, 2, 1), (2, 2, 1)],
    "ring-8": [(204, 148, 2)],
    "ring-12": [(187, 185, 1)],
    "ring-12-3it": [(187, 185, 1), (460, 403, 1), (737, 615, 1)],
}


def ring_design(seed, n_parts):
    spec = importlib.util.spec_from_file_location("perfbench_synth", SYNTH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ring_design(seed, n_parts)


def digest(space, stocks, params):
    """The run's front digest, its plans' bills and stack groups, and its
    per-iteration counters."""
    front, report = icee_run(space, stocks, default_tools(), params)
    return ([(s.design.id, tuple(c.id for c in s.plan.cuts), s.cost.objectives)
             for s in front],
            [(tuple(inst.key for inst in s.plan.stock_bill),
              tuple(c.stack_group for c in s.plan.cuts)) for s in front],
            [(it["terms_refined"], it["term_patterns"], it["front_size"])
             for it in report["iterations"]])


@pytest.mark.parametrize("corpus", sorted(CASES))
def test_front_matches_digest(corpus):
    params, stocks = CASES[corpus]
    assert digest(load_design_space(corpus_path(corpus)), stocks, params) == \
        (DIGEST[corpus], PLANS[corpus], COUNTERS[corpus])


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_ring_front_matches_digest(ring):
    n_parts, iterations = RINGS[ring]
    space = design_space_from_json(ring_design(0, n_parts))
    params = IceeParams(seed=0, iterations=iterations)
    assert digest(space, default_stocks(), params) == \
        (DIGEST[ring], PLANS[ring], COUNTERS[ring])
