"""Front digest guard: the exact fronts of seven fixed runs.

A change meant to make the search faster without changing what it finds
must leave these fronts as they are: every member's design id, cut order
and exact cost tuple, its plan's stock bill and each cut's stack group,
and each iteration's counters from the run's report (distinct terms
refined so far, term cut patterns searched, front size).
If a change moves them on purpose, say why and take the new digest from
the changed code.

A second, cost-only guard pins each corpus's sorted (design id, objectives)
front in both objective modes over several ICEE seeds. Node ids, cut ids
and counters do not enter it, so it holds across changes that renumber the
e-graph or refine fewer terms but must find the same costs.
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
         ("n1:c0", "n2:c0", "n1:c1", "n2:c1"),
         (11.0, 2.566666666666667)),
        ("frame/butt-butt-butt-butt",
         ("n4:c0", "n5:c0", "n6:c0", "n7:c0"),
         (12.0, 1.3666666666666667)),
    ],
    "sheet-box": [
        # f_t sums the steps exactly (`cost.quanta`), so this order ties
        # with n2's vertical cuts taken 656, 952, 0, 328 and, being first,
        # is kept; float sums in cut order made that one 1 ulp faster
        ("sheet-box/rabbet-rabbet",
         ("n2:h0", "n2:h328", "n2:h656", "n2:h952",
          "n2:v0-0", "n2:v0-328", "n2:v0-656", "n2:v0-952"),
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
         ("n18:c2", "n19:c2", "n18:c0", "n19:c0", "n18:c1", "n19:c1"),
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
              (("n1", "n2"), ("sg0", "sg0", "sg1", "sg1")),
              (("n4", "n5", "n6", "n7"), ("sg0",) * 4)],
    "sheet-box": [(("n2",), (None,) * 8), (("n0",), (None,) * 6)],
    "tiny-table": [(("n0",), (None,) * 6),
                   (("n18", "n19"), ("sg0", "sg0", "sg1", "sg1", "sg2", "sg2"))],
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
    "frame": [(3, 3, 3), (10, 10, 3), (17, 10, 3), (36, 22, 3), (43, 29, 3),
        (55, 29, 3), (75, 48, 3), (82, 48, 3), (94, 48, 3), (121, 50, 3)],
    "sheet-box": [(8, 8, 1), (26, 26, 1), (44, 30, 1), (52, 38, 2), (52, 38, 2)],
    "tiny-table": [(26, 24, 2), (112, 92, 2), (176, 132, 2), (243, 192, 2)],
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


# corpus -> objective mode -> the sorted (design id, objectives) front of
# every seed in `cost_seeds`
COST_FRONTS = {
    "frame": {
        2: [("frame/butt-butt-butt-butt", (10.0, 3.4833333333333334)),
            ("frame/butt-butt-butt-butt", (11.0, 2.566666666666667)),
            ("frame/butt-butt-butt-butt", (12.0, 1.3666666666666667))],
        3: [("frame/butt-butt-butt-butt", (10.0, 0.0625, 3.4833333333333334)),
            ("frame/butt-butt-butt-butt", (11.0, 0.03125, 2.566666666666667)),
            ("frame/butt-butt-butt-butt", (12.0, 0.015625, 1.3666666666666667))],
    },
    "lframe": {
        2: [("lframe/butt", (5.5, 2.5))],
        3: [("lframe/butt", (5.5, 0.03125, 2.5))],
    },
    "metal-mix": {
        2: [("metal-mix/butt", (63.0, 3.683333333333333))],
        3: [("metal-mix/butt", (63.0, 0.03125, 3.683333333333333))],
    },
    "sheet-box": {
        2: [("sheet-box/rabbet-rabbet", (5.5, 19.664814814814815)),
            ("sheet-box/rabbet-rabbet", (10.0, 15.831481481481482))],
        3: [("sheet-box/rabbet-rabbet", (5.5, 0.25, 19.664814814814815)),
            ("sheet-box/rabbet-rabbet", (10.0, 0.1875, 15.831481481481482))],
    },
    "tiny-table": {
        2: [("tiny-table/butt-butt", (10.0, 4.766666666666667)),
            ("tiny-table/butt-butt", (11.0, 2.8333333333333335))],
        3: [("tiny-table/butt-butt", (10.0, 0.09375, 4.766666666666667)),
            ("tiny-table/butt-butt", (11.0, 0.046875, 2.8333333333333335))],
    },
}


def cost_seeds(corpus):
    """ICEE seeds of the cost-only guard: tiny-table's runs are the slowest."""
    return range(2) if corpus == "tiny-table" else range(4)


@pytest.mark.parametrize("corpus,mode", [(corpus, mode) for corpus in sorted(COST_FRONTS)
                                         for mode in (2, 3)])
def test_cost_front_matches_pin(corpus, mode):
    space = load_design_space(corpus_path(corpus))
    stocks = with_metal_twins(default_stocks()) if corpus == "metal-mix" else default_stocks()
    for seed in cost_seeds(corpus):
        front, _ = icee_run(space, stocks, default_tools(),
                            IceeParams(seed=seed, objective_mode=mode))
        assert sorted((s.design.id, s.cost.objectives) for s in front) == \
            COST_FRONTS[corpus][mode], seed
