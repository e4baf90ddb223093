"""Front digest guard: the exact fronts of four fixed runs.

A change meant to make the search faster without changing what it finds
must leave these fronts as they are: every member's design id, cut order
and exact cost tuple. If a change moves them on purpose, say why and take
the new digest from the changed code.
"""

import pytest

from planwright import corpus_path
from planwright.extraction import IceeParams, icee_run
from planwright.io import load_design_space
from planwright.libraries import default_stocks, default_tools, with_metal_twins

# corpus -> (params, stock library)
CASES = {
    "frame": (IceeParams(seed=0), default_stocks()),
    "sheet-box": (IceeParams(seed=0, objective_mode=3, iterations=5), default_stocks()),
    # the only corpus with 6-cut terms
    "tiny-table": (IceeParams(seed=0), default_stocks()),
    # metal stock: its load and operation factors
    "metal-mix": (IceeParams(seed=0, objective_mode=3), with_metal_twins(default_stocks())),
}

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
        ("sheet-box/rabbet-rabbet",
         ("n8:h0", "n8:h328", "n8:h656", "n8:h952",
          "n8:v0-656", "n8:v0-952", "n8:v0-0", "n8:v0-328"),
         (5.5, 0.25, 19.66481481481481)),
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
}


@pytest.mark.parametrize("corpus", sorted(CASES))
def test_front_matches_digest(corpus):
    space = load_design_space(corpus_path(corpus))
    params, stocks = CASES[corpus]
    front, _ = icee_run(space, stocks, default_tools(), params)
    digest = [(s.design.id, tuple(c.id for c in s.plan.cuts), s.cost.objectives)
              for s in front]
    assert digest == DIGEST[corpus]
