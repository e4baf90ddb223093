"""Pareto-front utilities: dominance, filtering, hypervolume, scalarization.

Hypervolume is exact: sort-and-sweep in 2D and slab slicing over the third
objective in 3D; points outside the reference box are clipped to it and
listed in the caller's `ClipReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .model import CostVector

DEFAULT_REF_2D = (100.0, 100.0)
DEFAULT_REF_3D = (300.0, 300.0, 300.0)
DEFAULT_PRICES = (0, 10, 20, 40, 80, 160, 240, 400)

T = TypeVar("T")


def default_reference(mode: int) -> tuple[float, ...]:
    return DEFAULT_REF_2D if mode == 2 else DEFAULT_REF_3D


def point_dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """a weakly better everywhere and strictly better somewhere (minimization)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_filter(items: list[T],
                  key: Callable[[T], tuple[float, ...]] | None = None) -> list[T]:
    """Items with non-dominated objective tuples, sorted by those tuples.

    `key` maps an item to its objectives (default: the item is its own
    tuple). Only the first item of each distinct tuple is kept.
    """
    first: dict[tuple[float, ...], T] = {}
    for item in items:
        first.setdefault(item if key is None else key(item), item)
    # a dominating tuple sorts first, and some non-dominated one dominates
    # every dominated tuple, so checking against the front so far suffices
    front: list[tuple[float, ...]] = []
    for obj in sorted(first):
        if not any(point_dominates(q, obj) for q in front):
            front.append(obj)
    return [first[obj] for obj in front]


@dataclass
class ClipReport:
    clipped: list[tuple[float, ...]] = field(default_factory=list)

    @property
    def warnings(self) -> list[str]:
        return [f"point {p} not dominated by the reference point; clipped"
                for p in self.clipped]


def _clip(points: list[tuple[float, ...]], ref: tuple[float, ...],
          report: ClipReport) -> list[tuple[float, ...]]:
    out = []
    for p in points:
        if len(p) != len(ref):
            raise ValueError("point/reference dimensionality mismatch")
        if any(x >= r for x, r in zip(p, ref)):
            report.clipped.append(p)
            clipped = tuple(min(x, r) for x, r in zip(p, ref))
            out.append(clipped)
        else:
            out.append(p)
    return out


def hypervolume(points: list[tuple[float, ...]], ref: tuple[float, ...],
                report: ClipReport) -> float:
    """Exact dominated volume of `points` up to the reference point; the
    points outside it are clipped to it and listed in `report`. The
    reference point must be finite."""
    if not all(map(math.isfinite, ref)):
        raise ValueError(f"reference point {ref} is not finite")
    if len(ref) not in (2, 3):
        raise ValueError("hypervolume supports 2 or 3 objectives")
    if not points:
        return 0.0
    pts = pareto_filter(_clip(points, ref, report))
    return _hv2(pts, ref) if len(ref) == 2 else _hv3(pts, ref)


def _hv2(points: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
    # points are non-dominated and sorted ascending in x, so descending in y
    hv = 0.0
    prev_y = ref[1]
    for x, y in points:
        if x >= ref[0] or y >= prev_y:
            continue
        hv += (ref[0] - x) * (prev_y - y)
        prev_y = y
    return hv


def _hv3(points: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
    # slab decomposition along the third objective
    zs = sorted({p[2] for p in points})
    hv = 0.0
    for i, z in enumerate(zs):
        z_next = zs[i + 1] if i + 1 < len(zs) else ref[2]
        if z_next <= z:
            continue
        slab = pareto_filter([(p[0], p[1]) for p in points if p[2] <= z])
        hv += _hv2(slab, (ref[0], ref[1])) * (z_next - z)
    return hv


def scalar_cost(cost: CostVector, hourly_price: float) -> float:
    """Dollars: material plus labor at `hourly_price` per hour (f_t in minutes)."""
    return cost.f_c + hourly_price * cost.f_t / 60.0


def scalarize(costs: list[CostVector], hourly_price: float) -> tuple[int, float]:
    """Index of the cheapest front member after scalarization, and its cost.

    Ties break toward lower f_c, then lower f_t. A labor price must be a
    number >= 0.
    """
    if not hourly_price >= 0:
        raise ValueError(f"labor price must be >= 0, got {hourly_price}")
    if not costs:
        raise ValueError("front is empty")
    best = min(
        range(len(costs)),
        key=lambda i: (scalar_cost(costs[i], hourly_price),
                       costs[i].f_c, costs[i].f_t),
    )
    return best, scalar_cost(costs[best], hourly_price)


def improvement_table(
    front_a: list[CostVector],
    front_b: list[CostVector],
    prices: tuple[float, ...],
) -> list[int | None]:
    """Integer percent improvement of front_b over front_a per price.

    None marks an undefined entry (zero scalarized baseline).
    """
    if not front_a or not front_b:
        raise ValueError("both fronts must be nonempty")
    out: list[int | None] = []
    for price in prices:
        _, a = scalarize(front_a, price)
        _, b = scalarize(front_b, price)
        if a == 0:
            out.append(None)
        else:
            out.append(round(100.0 * (a - b) / a))
    return out
