"""Fabrication-plan cost evaluation: material dollars, time, precision.

A plan is an ordered list of cuts over a bill of stock instances. Time and
precision are order-dependent: setup sharing needs consecutive cuts with
identical parameters, load/unload is paid per contiguous run on a stock,
and the measured length of a cut depends on which reference edges of its
piece survive earlier cuts.

A piece is one interval (start, end, start original, end original) per
axis of its stock: one for a stick, x then y for a sheet. An edge stays
original until a cut makes it. A cut along axis a splits interval a
(`split_piece`, two calls of `narrowed`), is measured off its edges and
cuts the span of the other axis, which a stick does not have
(`cut_piece`). Only this module builds or reads a piece; `cut_cost` turns
a cut's measured and cut lengths into its setup signature, operation
time and precision error.

Step times (setup, load and operation seconds) are floats, but a plan's
f_t sums them exactly, as whole numbers of 1/TIME_QUANTA s (`quanta`), so
that the total does not depend on the order the steps are added in. It
becomes float seconds, `q / TIME_QUANTA` (one correctly rounded division),
only where a `PlanCost` or a cost vector is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import (
    MEASUREMENT_GRID_TICKS,
    METAL_LOAD_FACTOR,
    METAL_OP_FACTOR,
    MAX_STACK_HEIGHT,
    CostVector,
    Material,
    StockSpec,
    Tool,
    ToolSpec,
)


# f_t is summed in whole units of 2^-64 s: a float of at least 2^-12 s is
# such a whole number, so every step time converts exactly
TIME_QUANTA = 2**64


def quanta(seconds: float) -> int:
    """`seconds` as a whole number of 1/TIME_QUANTA s."""
    return round(seconds * TIME_QUANTA)


class PlanError(ValueError):
    """Raised when a plan is structurally invalid."""


@dataclass(frozen=True, slots=True)
class StockInstance:
    key: str  # unique within a plan, e.g. "2x2-48#0"
    spec: StockSpec


@dataclass(frozen=True, slots=True)
class Cut:
    """One cutting (or drilling) operation on a stock instance.

    Generated cuts carry geometry (kind/axis/position) and get their
    measured length from the piece they split (`cut_piece`). Manual cuts
    (loaded from plan files) may instead carry an explicit measured_len and
    op_length.
    """

    id: str
    tool: Tool
    stock_key: str
    kind: str  # "lumber" | "sheet" | "manual" | "drill"
    axis: int = 0  # sheets: 0 = vertical cut at x, 1 = horizontal cut at y
    position: int = 0  # ticks
    anchor: tuple[int, int] = (0, 0)  # sheets: a point inside the cut's piece
    parent: Optional[str] = None  # cut that must precede this one
    measured_len: Optional[int] = None  # ticks, manual plans only
    op_length: Optional[int] = None  # ticks, manual plans only
    depth: Optional[int] = None  # ticks, drill only
    stack_group: Optional[str] = None

    def geometry_key(self) -> tuple:
        return (self.tool, self.kind, self.axis, self.position, self.anchor,
                self.measured_len, self.op_length, self.depth)


@dataclass(frozen=True, slots=True)
class FabPlan:
    design_id: str
    cuts: tuple[Cut, ...]
    stock_bill: tuple[StockInstance, ...]

    def signature(self) -> tuple:
        return (
            tuple(sorted((i.key, i.spec.id) for i in self.stock_bill)),
            tuple((c.stock_key, c.geometry_key(), c.stack_group) for c in self.cuts),
        )


@dataclass(frozen=True, slots=True)
class CutTimeBreakdown:
    cut_id: str
    setup: float
    load: float
    op: float
    eps_ticks: int
    op_error_ticks: int
    merged: bool = False  # non-lead member of a stack group

    @property
    def seconds(self) -> float:
        return self.setup + self.load + self.op


@dataclass
class PlanCost:
    rows: list[CutTimeBreakdown]
    f_c: float
    f_t_seconds: float
    f_p_ticks: int

    @property
    def f_t_minutes(self) -> float:
        return self.f_t_seconds / 60.0

    @property
    def f_p_inches(self) -> float:
        return self.f_p_ticks / 64.0

    def vector(self, mode: int) -> CostVector:
        return totals_vector(self.f_c, self.f_t_seconds, self.f_p_ticks, mode)


def totals_vector(f_c: float, f_t_seconds: float, f_p_ticks: int,
                  mode: int) -> CostVector:
    """A plan's totals as a cost vector: minutes, and inches in mode 3 only."""
    if mode == 2:
        return CostVector(f_c=f_c, f_t=f_t_seconds / 60.0)
    return CostVector(f_c=f_c, f_t=f_t_seconds / 60.0, f_p=f_p_ticks / 64.0)


def measurement_error(measured_ticks: int) -> int:
    """Residual of a measured length against the 1/16" grid, in ticks."""
    if measured_ticks < 0:
        raise ValueError("measured length must be non-negative")
    r = measured_ticks % MEASUREMENT_GRID_TICKS
    return min(r, MEASUREMENT_GRID_TICKS - r)


class _Sim:
    """Piece tracker: the pieces of one stock left by the cuts so far,
    starting from the uncut stock of dimensions `dims`."""

    def __init__(self, dims: tuple[int, ...]) -> None:
        self.sheet = len(dims) == 2
        self.pieces = [whole_piece(dims)]

    def cut(self, cut: Cut, kerf: int) -> tuple[int, int]:
        """Make `cut` through the first piece that `holds` it."""
        piece = next((p for p in self.pieces if holds(p, cut, kerf, self.sheet)), None)
        measured_and_op = cut_piece(piece, cut, kerf, self.sheet)
        at = self.pieces.index(piece)
        self.pieces[at:at + 1] = split_piece(piece, cut, kerf)
        return measured_and_op


def whole_piece(dims: tuple[int, ...]) -> tuple:
    """An uncut stock of dimensions `dims` as a piece: every edge original."""
    return tuple((0, d, True, True) for d in dims)


def narrowed(piece: tuple, axis: int, start: int | None = None, end: int | None = None
             ) -> tuple:
    """`piece` with its interval along `axis` moved to begin at `start` and
    end at `end` (None: that edge kept), each moved edge a cut one."""
    a, b, near, far = piece[axis]
    if start is not None:
        a, near = start, False
    if end is not None:
        b, far = end, False
    return piece[:axis] + ((a, b, near, far),) + piece[axis + 1:]


def holds(piece: tuple, cut: Cut, kerf: int, sheet: bool) -> bool:
    """Whether `piece` holds `cut`: its anchor on a sheet, its kerf on lumber."""
    if sheet:
        (x0, x1, _, _), (y0, y1, _, _) = piece
        ax, ay = cut.anchor
        return x0 <= ax < x1 and y0 <= ay < y1
    (a, b, _, _), = piece
    return a <= cut.position and cut.position + kerf <= b


def cut_piece(piece: tuple | None, cut: Cut, kerf: int, sheet: bool) -> tuple[int, int]:
    """The measured length of `cut` made through `piece`, the one piece of
    its stock that may hold it (None: none does), and the length it cuts:
    a sheet cut is a full-width (axis 1, at y) or full-height (axis 0, at
    x) guillotine cut through its piece, and a stick's cut cuts 0."""
    if piece is None or not holds(piece, cut, kerf, sheet):
        raise PlanError(f"2D cut anchor {cut.anchor} hits no piece" if sheet
                        else f"1D cut at {cut.position} hits no piece")
    if not 0 <= cut.axis < len(piece):
        raise PlanError(f"cut {cut.id}: its stock has no axis {cut.axis!r}")
    x = cut.position
    a, b, near, far = piece[cut.axis]
    if not (a <= x and x + kerf <= b):
        raise PlanError(f"{('vertical', 'horizontal')[cut.axis]} cut outside its piece")
    span = a - b  # so that the loop adds the span of the other axis, if any
    for lo, hi, _, _ in piece:
        span += hi - lo
    return _measured_from_refs(x - a, b - x - kerf, near, far), span


def split_piece(piece: tuple, cut: Cut, kerf: int) -> list[tuple]:
    """The nonempty pieces that `cut` leaves of `piece`, in order."""
    axis, x = cut.axis, cut.position
    return [p for p in (narrowed(piece, axis, end=x), narrowed(piece, axis, start=x + kerf))
            if p[axis][0] < p[axis][1]]


def _measured_from_refs(near: int, far: int, near_orig: bool, far_orig: bool) -> int:
    """Distance from the governing reference edge to the cut.

    Original stock edges are preferred; a piece with no original edge falls
    back to its nearest (previously cut) edge.
    """
    if near_orig and far_orig:
        return min(near, far)
    if near_orig:
        return near
    if far_orig:
        return far
    return min(near, far)


def _group_stacked(cuts: tuple[Cut, ...]) -> list[list[Cut]]:
    """Group consecutive cuts sharing a stack_group into single operations."""
    ops: list[list[Cut]] = []
    for cut in cuts:
        if (ops and cut.stack_group is not None
                and ops[-1][0].stack_group == cut.stack_group):
            ops[-1].append(cut)
        else:
            ops.append([cut])
    return ops


def _validate_stack(op: list[Cut], instances: dict[str, StockInstance],
                    tools: dict[Tool, ToolSpec]) -> None:
    lead = op[0]
    if len(op) > MAX_STACK_HEIGHT:
        raise PlanError(f"stack {lead.stack_group} exceeds height {MAX_STACK_HEIGHT}")
    if not tools[lead.tool].stackable:
        raise PlanError(f"stack {lead.stack_group}: {lead.tool.value} is not stackable")
    keys = [c.stock_key for c in op]
    if len(set(keys)) != len(keys):
        raise PlanError(f"stack {lead.stack_group}: repeated stock instance")
    fam = instances[lead.stock_key].spec.family
    for c in op[1:]:
        if c.geometry_key() != lead.geometry_key():
            raise PlanError(f"stack {lead.stack_group}: mismatched cut geometry")
        if instances[c.stock_key].spec.family != fam:
            raise PlanError(f"stack {lead.stack_group}: mixed stock families")


def material_cost(stock_bill: tuple[StockInstance, ...]) -> float:
    """f_c: sum of stock prices; metal stock costs 20x its wood price."""
    return sum(inst.spec.effective_price() for inst in stock_bill)


def evaluate_plan(plan: FabPlan, tools: dict[Tool, ToolSpec]) -> PlanCost:
    """Full ordered evaluation producing per-cut breakdowns and totals."""
    instances = _checked_instances(plan)
    sims = {key: _Sim(inst.spec.dims) for key, inst in instances.items()}

    rows: list[CutTimeBreakdown] = []
    f_t = 0  # quanta
    f_p = 0
    prev_signature: Optional[tuple] = None
    current_run: Optional[tuple[str, ...]] = None

    for op in _group_stacked(plan.cuts):
        lead = op[0]
        if len(op) > 1:
            _validate_stack(op, instances, tools)
        tool = tools[lead.tool]
        spec = instances[lead.stock_key].spec

        measured, op_len = resolve_geometry(op, tool, sims)
        # every stacked member is cut simultaneously
        signature, op_seconds, eps, perr = cut_cost(lead, tool, spec, measured, op_len)

        # Setup time: partial only when the preceding operation used the
        # same tool with identical setup parameters.
        if tool.setup_partial is not None and prev_signature == signature:
            setup = tool.setup_partial
        else:
            setup = tool.setup_full(spec.is_sheet)
        prev_signature = signature

        # Load/unload: paid on the first operation of each contiguous run on
        # a stock (or stack of stocks); stacked followers pay partial rates.
        run_key = tuple(sorted(c.stock_key for c in op))
        if run_key != current_run:
            load = load_seconds([instances[c.stock_key].spec for c in op])
            current_run = run_key
        else:
            load = 0.0

        f_p += eps + perr
        f_t += quanta(setup) + quanta(load) + quanta(op_seconds)

        rows.append(CutTimeBreakdown(lead.id, setup, load, op_seconds, eps, perr))
        for c in op[1:]:
            rows.append(CutTimeBreakdown(c.id, 0.0, 0.0, 0.0, 0, 0, merged=True))

    return PlanCost(rows=rows, f_c=material_cost(plan.stock_bill),
                    f_t_seconds=f_t / TIME_QUANTA, f_p_ticks=f_p)


def _checked_instances(plan: FabPlan) -> dict[str, StockInstance]:
    """The plan's stock instances by key, once it is known that no two
    share a key, no two cuts share an id, and every cut is on a listed
    stock and comes after its parent, which is on the same stock."""
    instances: dict[str, StockInstance] = {}
    for inst in plan.stock_bill:
        if inst.key in instances:
            raise PlanError(f"stock instance {inst.key!r} is listed twice")
        instances[inst.key] = inst
    stock_of: dict[str, str] = {}
    for cut in plan.cuts:
        if cut.stock_key not in instances:
            raise PlanError(f"unknown stock instance {cut.stock_key!r}")
        if cut.id in stock_of:
            raise PlanError(f"cut id {cut.id!r} is used twice")
        stock_of[cut.id] = cut.stock_key
    made: set[str] = set()
    for cut in plan.cuts:
        if cut.parent is not None:
            if cut.parent not in stock_of:
                raise PlanError(f"cut {cut.id!r}: parent {cut.parent!r} is not in the plan")
            if stock_of[cut.parent] != cut.stock_key:
                raise PlanError(f"cut {cut.id!r}: parent {cut.parent!r} is on another stock")
            if cut.parent not in made:
                raise PlanError(f"cut {cut.id!r} comes before its parent {cut.parent!r}")
        made.add(cut.id)
    return instances


def resolve_geometry(op: list[Cut], tool: ToolSpec, sims: dict) -> tuple[int, int]:
    """Returns (measured length, op length) for one operation, advancing sims."""
    lead = op[0]
    if lead.kind == "manual" or lead.kind == "drill":
        if lead.measured_len is None:
            raise PlanError(f"cut {lead.id}: manual cut needs measured_len")
        return lead.measured_len, lead.op_length or 0

    measured, op_len = sims[lead.stock_key].cut(lead, tool.kerf)
    for c in op[1:]:  # stacked members share the lead's geometry; cut each stock
        sims[c.stock_key].cut(c, tool.kerf)
    return measured, op_len


def cut_cost(lead: Cut, tool: ToolSpec, spec: StockSpec, measured: int, op_len: int
             ) -> tuple[tuple, float, int, int]:
    """The (setup signature, operation seconds, eps ticks, op-error ticks)
    of one (possibly stacked) operation led by `lead`, from its measured
    length and the length it cuts. Two operations in a row with one setup
    signature (tool, axis, measured length) share the saw's setup."""
    if lead.kind == "drill":
        if lead.depth is None:
            raise PlanError(f"cut {lead.id}: drill cut needs a depth")
        seconds = tool.op_rate.seconds(lead.depth)
    else:
        seconds = tool.op_rate.seconds(op_len)
    if spec.material is Material.METAL:
        seconds *= METAL_OP_FACTOR
    return ((lead.tool, lead.axis, measured), seconds, measurement_error(measured),
            tool.op_error_for(spec.material))


def load_seconds(specs: list[StockSpec]) -> float:
    """Load/unload time of a run starting on these stocks; stacked
    followers (all but the first) pay partial rates."""
    load = 0.0
    for j, s in enumerate(specs):
        if j == 0:
            w = s.load_full + s.unload_full
        else:
            w = s.load_partial + s.unload_partial
        if s.material is Material.METAL:
            w *= METAL_LOAD_FACTOR
        load += w
    return load


def order_is_feasible(cuts: list[Cut]) -> bool:
    """Parents (guillotine dependencies) must precede their children."""
    done: set[str] = set()
    for c in cuts:
        if c.parent is not None and c.parent not in done:
            return False
        done.add(c.id)
    return True
