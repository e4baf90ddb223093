"""Co-optimization of part designs and fabrication plans.

Searches joint variants, stock packings, and cut orders to produce a
Pareto front over material cost (dollars), fabrication time (minutes),
and cutting precision (inches).
"""

from importlib import resources

from .cost import FabPlan, PlanCost, evaluate_plan
from .designspace import DesignSpace, enumerate_variants
from .extraction import IceeParams, Solution, baseline_run, icee_run
from .libraries import default_stocks, default_tools, load_libraries
from .model import CostVector, Design, Material, Part, Tool, inches, ticks

__version__ = "0.1.0"

CORPUS_NAMES = ("frame", "lframe", "tiny-table", "sheet-box", "metal-mix")


def corpus_path(name: str) -> str:
    """Filesystem path of a bundled example design space."""
    if name not in CORPUS_NAMES:
        raise KeyError(f"unknown corpus {name!r}; choose from {CORPUS_NAMES}")
    return str(resources.files(__name__).joinpath("data", f"{name}.json"))


__all__ = [
    "CORPUS_NAMES",
    "CostVector",
    "Design",
    "DesignSpace",
    "FabPlan",
    "IceeParams",
    "Material",
    "Part",
    "PlanCost",
    "Solution",
    "Tool",
    "baseline_run",
    "corpus_path",
    "default_stocks",
    "default_tools",
    "enumerate_variants",
    "evaluate_plan",
    "icee_run",
    "inches",
    "load_libraries",
    "ticks",
]
