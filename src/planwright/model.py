"""Core domain types: lengths, stock, tools, parts, designs, cost vectors.

All geometry is integer arithmetic in 1/64-inch ticks so measurement
residuals and per-tool errors are exact. Times are seconds, money is
dollars, and cost vectors convert to the reporting units (minutes, inches)
at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

TICKS_PER_INCH = 64
# Finest measurable grid: 1/16 inch.
MEASUREMENT_GRID_TICKS = 4

# Metal work modifiers relative to wood.
METAL_PRICE_FACTOR = 20
METAL_OP_FACTOR = 10
METAL_LOAD_FACTOR = 5
METAL_JIGSAW_ERROR_FACTOR = 2

MAX_STACK_HEIGHT = 4


def ticks(inches: float | int | str | Fraction) -> int:
    """Convert a length in inches to integer ticks.

    Accepts ints, floats, Fractions, or strings like "23.5" or "3/16".
    Raises ValueError when the value does not land on the 1/64" grid.
    """
    frac = Fraction(inches) * TICKS_PER_INCH
    if frac.denominator != 1:
        raise ValueError(f"{inches} in. is not a multiple of 1/64 in.")
    t = int(frac)
    if t < 0:
        raise ValueError(f"negative length: {inches}")
    return t


def inches(t: int) -> float:
    """Ticks back to inches (exact: 1/64 is a binary fraction)."""
    return t / TICKS_PER_INCH


class Material(Enum):
    WOOD = "wood"
    METAL = "metal"

    # Enum.__hash__ hashes the member name in Python on every dict or set
    # lookup; members are singletons compared by identity, so the identity
    # hash is equivalent and runs in C
    __hash__ = object.__hash__


class Tool(Enum):
    CHOPSAW = "chopsaw"
    BANDSAW = "bandsaw"
    JIGSAW = "jigsaw"
    TRACKSAW = "tracksaw"
    DRILL = "drill"

    __hash__ = object.__hash__  # identity hash, as for Material


class OpRateKind(Enum):
    PER_CUT = "per_cut"            # fixed seconds per operation
    PER_INCH = "per_inch"          # inches of cut length per second
    PER_DEPTH_INCH = "per_depth_inch"  # inches of depth per second

    __hash__ = object.__hash__  # identity hash, as for Material


@dataclass(frozen=True)
class OpRate:
    kind: OpRateKind
    value: float  # seconds for PER_CUT, inches/second otherwise

    def __post_init__(self) -> None:
        if not 0 < self.value < math.inf:
            raise ValueError(f"op rate value must be finite and positive, got {self.value}")

    def seconds(self, length_ticks: int) -> float:
        if self.kind is OpRateKind.PER_CUT:
            return self.value
        return inches(length_ticks) / self.value


@dataclass(frozen=True, slots=True)
class StockSpec:
    """A purchasable piece of stock (lumber length or sheet rectangle)."""

    id: str
    family: str
    dims: tuple[int, ...]  # ticks; (length,) for lumber, (w, h) for sheets
    price: float
    load_full: float
    load_partial: float
    unload_full: float
    unload_partial: float
    material: Material = Material.WOOD

    def __post_init__(self) -> None:
        if len(self.dims) not in (1, 2):
            raise ValueError(f"stock {self.id}: dims must have 1 or 2 entries")
        for name in ("price", "load_full", "load_partial", "unload_full",
                     "unload_partial"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"stock {self.id}: {name} must be finite and positive")

    @property
    def is_sheet(self) -> bool:
        return len(self.dims) == 2

    @property
    def capacity(self) -> int:
        """The first dimension (a stick's length, a sheet's width), by
        which `packing.family_stocks` orders a family largest first."""
        return self.dims[0]

    def effective_price(self) -> float:
        if self.material is Material.METAL:
            return self.price * METAL_PRICE_FACTOR
        return self.price


@dataclass(frozen=True)
class ToolSpec:
    id: Tool
    setup_full_lumber: float
    setup_full_sheet: float
    setup_partial: Optional[float]
    op_rate: OpRate
    op_error: int  # ticks
    kerf: int  # ticks
    stackable: bool

    def __post_init__(self) -> None:
        if self.setup_partial is not None and self.id not in (Tool.CHOPSAW, Tool.TRACKSAW):
            raise ValueError(f"{self.id.value}: partial setup only for chopsaw/tracksaw")
        if self.op_error <= 0:
            raise ValueError(f"{self.id.value}: op_error must be positive")
        for name in ("setup_full_lumber", "setup_full_sheet", "setup_partial"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{self.id.value}: {name} must be finite and >= 0")

    def setup_full(self, sheet: bool) -> float:
        return self.setup_full_sheet if sheet else self.setup_full_lumber

    def op_error_for(self, material: Material) -> int:
        if material is Material.METAL and self.id is Tool.JIGSAW:
            return self.op_error * METAL_JIGSAW_ERROR_FACTOR
        return self.op_error


@dataclass(frozen=True, slots=True)
class Part:
    id: str
    family: str
    shape: tuple[int, ...]  # ticks; (length,) or (w, h)
    material: Material = Material.WOOD

    def __post_init__(self) -> None:
        if len(self.shape) not in (1, 2):
            raise ValueError(f"part {self.id}: shape must have 1 or 2 entries")
        if any(d <= 0 for d in self.shape):
            raise ValueError(f"part {self.id}: dimensions must be positive")

    @property
    def is_sheet(self) -> bool:
        return len(self.shape) == 2


@dataclass(frozen=True)
class ConnectorVariant:
    """One way to realize a joint, expressed as end-length adjustments."""

    id: str
    delta_a: int  # ticks added to part_a's adjustable dimension at this joint
    delta_b: int  # ticks added to part_b's adjustable dimension


@dataclass(frozen=True)
class Joint:
    id: str
    part_a: str
    part_b: str
    variants: tuple[ConnectorVariant, ...]

    def __post_init__(self) -> None:
        if self.part_a == self.part_b:
            raise ValueError(f"joint {self.id}: cannot join a part to itself")
        if not self.variants:
            raise ValueError(f"joint {self.id}: needs at least one variant")
        ids = [v.id for v in self.variants]
        if len(set(ids)) != len(ids):
            raise ValueError(f"joint {self.id}: duplicate variant ids")


@dataclass(frozen=True, slots=True)
class Design:
    """A concrete design: parts with final dimensions plus variant provenance."""

    id: str
    parts: tuple[Part, ...]
    provenance: dict[str, str] = field(default_factory=dict)  # joint id -> variant id


@dataclass(frozen=True, slots=True)
class CostVector:
    """(f_c dollars, f_p inches, f_t minutes); f_p is None in 2-objective mode."""

    f_c: float
    f_t: float
    f_p: Optional[float] = None

    def __post_init__(self) -> None:
        if self.f_c < 0 or self.f_t < 0 or (self.f_p is not None and self.f_p < 0):
            raise ValueError("cost components must be non-negative")

    @property
    def objectives(self) -> tuple[float, ...]:
        if self.f_p is None:
            return (self.f_c, self.f_t)
        return (self.f_c, self.f_p, self.f_t)


@dataclass(frozen=True)
class Violation:
    part_id: str
    message: str


def validate_design(design: Design, stock_lib: list[StockSpec]) -> list[Violation]:
    """Check every part belongs to a known family and fits on some stock."""
    by_family: dict[str, list[StockSpec]] = {}
    for s in stock_lib:
        by_family.setdefault(s.family, []).append(s)

    violations: list[Violation] = []
    for part in design.parts:
        stocks = by_family.get(part.family)
        if stocks is None:
            violations.append(Violation(part.id, f"unknown stock family {part.family!r}"))
            continue
        candidates = [s for s in stocks if s.material is part.material]
        if not candidates:
            violations.append(
                Violation(part.id, f"no {part.material.value} stock in family {part.family!r}")
            )
            continue
        if not any(part_fits_stock(part, s) for s in candidates):
            violations.append(
                Violation(part.id, f"part does not fit any {part.family!r} stock")
            )
    return violations


def part_fits_stock(part: Part, stock: StockSpec) -> bool:
    if part.is_sheet != stock.is_sheet:
        return False
    if part.is_sheet:
        return part.shape[0] <= stock.dims[0] and part.shape[1] <= stock.dims[1]
    return part.shape[0] <= stock.dims[0]
