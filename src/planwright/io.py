"""File formats: design spaces, plans, fronts (CSV/JSON), reports, SVG plots.

Fronts use CSV with a fixed column order so runs can be diffed byte for
byte. Parsing checks that every cost is a finite number and that f_p is
empty on every row or on none. It keeps the original field strings, so a
parse/re-emit round trip is the identity. Plots are hand-emitted SVG
primitives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .cost import Cut, FabPlan, StockInstance
from .designspace import DesignInputError, DesignSpace, detect_joints
from .model import ConnectorVariant, Material, Part, StockSpec, Tool, ticks

FRONT_HEADER = "design_id,plan_id,f_c,f_p,f_t"


def fmt_num(x: float) -> str:
    """Canonical decimal rendering: 10 significant digits (`.10g`), so
    3.4833333333333334 is written 3.483333333; no exponent for our range."""
    s = format(x, ".10g")
    return s


# -- design spaces -------------------------------------------------------------


def _length(value) -> int:
    """Inches (number, decimal string, or fraction string) to ticks."""
    if isinstance(value, str):
        value = Fraction(value)
    return ticks(value)


def _signed_length(value) -> int:
    if isinstance(value, str):
        value = Fraction(value)
    frac = Fraction(value)
    sign = -1 if frac < 0 else 1
    return sign * ticks(abs(frac))


def load_design_space(path: str) -> DesignSpace:
    with open(path) as fh:
        payload = json.load(fh)
    return design_space_from_json(payload)


def _id(value, what: str) -> str:
    """`value` when it is a string: ids are compared and hashed as such."""
    if not isinstance(value, str):
        raise ValueError(f"{what} {value!r} is not a string")
    return value


def design_space_from_json(payload: dict) -> DesignSpace:
    try:
        base_id = _id(payload["id"], "design id")
        parts = [
            Part(
                id=_id(p["id"], "part id"),
                family=p["family"],
                shape=tuple(_length(v) for v in p["shape_in"]),
                material=Material(p.get("material", "wood")),
            )
            for p in payload["parts"]
        ]
        adjacency = [
            (
                _id(j["part_a"], "joint part"),
                _id(j["part_b"], "joint part"),
                [
                    ConnectorVariant(
                        id=_id(v["id"], "variant id"),
                        delta_a=_signed_length(v.get("delta_a_in", 0)),
                        delta_b=_signed_length(v.get("delta_b_in", 0)),
                    )
                    for v in j["variants"]
                ],
            )
            for j in payload.get("joints", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DesignInputError(f"bad design file: {exc}") from exc
    if not parts:
        raise DesignInputError("bad design file: empty parts list")
    joints = detect_joints(parts, adjacency)
    return DesignSpace(base_id=base_id, base_parts=tuple(parts), joints=tuple(joints))


# -- plans ---------------------------------------------------------------------


def load_plan(path: str, stock_lib: list[StockSpec]) -> FabPlan:
    with open(path) as fh:
        payload = json.load(fh)
    return plan_from_json(payload, stock_lib)


def _axis(value) -> int:
    """A cut's axis: 0 (vertical, at x) or 1 (horizontal, at y)."""
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {value!r}")
    return value


def plan_from_json(payload: dict, stock_lib: list[StockSpec]) -> FabPlan:
    specs = {s.id: s for s in stock_lib}
    try:
        bill = tuple(
            StockInstance(key=o["key"], spec=specs[o["stock_id"]])
            for o in payload["stock_bill"]
        )
        cuts = tuple(
            Cut(
                id=c["id"],
                tool=Tool(c["tool"]),
                stock_key=c["stock_key"],
                kind=c.get("kind", "manual"),
                axis=_axis(c.get("axis", 0)),
                position=_length(c["position_in"]) if "position_in" in c else 0,
                anchor=(tuple(_length(v) for v in c["anchor_in"])
                        if "anchor_in" in c else (0, 0)),
                parent=c.get("parent"),
                measured_len=(_length(c["measured_in"])
                              if "measured_in" in c else None),
                op_length=(_length(c["op_length_in"])
                           if "op_length_in" in c else None),
                depth=_length(c["depth_in"]) if "depth_in" in c else None,
                stack_group=c.get("stack_group"),
            )
            for c in payload["cuts"]
        )
    except KeyError as exc:
        raise DesignInputError(f"bad plan file: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DesignInputError(f"bad plan file: {exc}") from exc
    return FabPlan(design_id=payload.get("design_id", "plan"),
                   cuts=cuts, stock_bill=bill)


# -- fronts --------------------------------------------------------------------


@dataclass(frozen=True)
class FrontRow:
    design_id: str
    plan_id: str
    f_c: str
    f_p: str
    f_t: str

    @property
    def objectives2(self) -> tuple[float, float]:
        return (float(self.f_c), float(self.f_t))

    @property
    def objectives3(self) -> tuple[float, float, float]:
        return (float(self.f_c), float(self.f_p), float(self.f_t))

    def line(self) -> str:
        return ",".join((self.design_id, self.plan_id,
                         self.f_c, self.f_p, self.f_t))


def front_rows(solutions) -> list[FrontRow]:
    """Canonical CSV rows for a front (sorted; plan ids assigned by rank)."""
    ordered = sorted(solutions, key=lambda s: (s.cost.objectives, s.design.id))
    return [
        FrontRow(
            design_id=sol.design.id,
            plan_id=f"p{i}",
            f_c=fmt_num(sol.cost.f_c),
            f_p=fmt_num(sol.cost.f_p) if sol.cost.f_p is not None else "",
            f_t=fmt_num(sol.cost.f_t),
        )
        for i, sol in enumerate(ordered)
    ]


def write_front_csv(rows: list[FrontRow], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(emit_front_csv(rows))


def read_front_csv(path: str) -> list[FrontRow]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != FRONT_HEADER:
        raise DesignInputError(f"{path}: expected header {FRONT_HEADER!r}")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 5:
            raise DesignInputError(f"{path}:{n}: expected 5 fields")
        row = FrontRow(*fields)
        if rows and (row.f_p == "") != (rows[0].f_p == ""):
            raise DesignInputError(f"{path}:{n}: f_p must be empty on every row or on none")
        for name in ("f_c", "f_p", "f_t") if row.f_p else ("f_c", "f_t"):
            try:
                value = float(getattr(row, name))
            except ValueError:
                raise DesignInputError(f"{path}:{n}: {name} is not a number") from None
            if not math.isfinite(value):
                raise DesignInputError(f"{path}:{n}: {name} is not finite")
        rows.append(row)
    return rows


def emit_front_csv(rows: list[FrontRow]) -> str:
    return FRONT_HEADER + "\n" + "".join(r.line() + "\n" for r in rows)


def front_json(rows: list[FrontRow], solutions) -> str:
    ordered = sorted(solutions, key=lambda s: (s.cost.objectives, s.design.id))
    entries = []
    for row, sol in zip(rows, ordered):
        entries.append({
            "design_id": row.design_id,
            "plan_id": row.plan_id,
            "f_c": sol.cost.f_c,
            "f_t": sol.cost.f_t,
            "f_p": sol.cost.f_p,
            "stock_bill": [
                {"key": i.key, "stock_id": i.spec.id}
                for i in sol.plan.stock_bill
            ],
            "cut_order": [c.id for c in sol.plan.cuts],
        })
    return json.dumps({"front": entries}, indent=2)


# -- SVG -----------------------------------------------------------------------

SVG_WIDTH, SVG_HEIGHT = 640, 480  # front plot size, pixels
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def front_svg(rows: list[FrontRow]) -> str:
    """Scatter of (f_c, f_t) with one color per design variant."""
    margin = 50.0
    pts = [(float(r.f_c), float(r.f_t), r.design_id) for r in rows]
    designs = sorted({d for _, _, d in pts})
    color = {d: _PALETTE[i % len(_PALETTE)] for i, d in enumerate(designs)}
    if pts:
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    else:
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x: float) -> float:
        return margin + (x - x0) / (x1 - x0) * (SVG_WIDTH - 2 * margin)

    def sy(y: float) -> float:
        return SVG_HEIGHT - margin - (y - y0) / (y1 - y0) * (SVG_HEIGHT - 2 * margin)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{margin}" y1="{SVG_HEIGHT - margin}" x2="{SVG_WIDTH - margin}" '
        f'y2="{SVG_HEIGHT - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{SVG_HEIGHT - margin}" stroke="black"/>',
        f'<text x="{SVG_WIDTH / 2}" y="{SVG_HEIGHT - 10}" text-anchor="middle" '
        f'font-size="12">material cost ($)</text>',
        f'<text x="14" y="{SVG_HEIGHT / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {SVG_HEIGHT / 2})">fabrication time (min)</text>',
    ]
    for x, y, d in pts:
        out.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" '
            f'fill="{color[d]}"><title>{d}</title></circle>'
        )
    for i, d in enumerate(designs):
        ly = margin + 14 * i
        out.append(f'<circle cx="{SVG_WIDTH - margin + 10}" cy="{ly}" r="4" '
                   f'fill="{color[d]}"/>')
        out.append(f'<text x="{SVG_WIDTH - margin + 18}" y="{ly + 4}" '
                   f'font-size="10">{d}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# -- evaluate breakdown --------------------------------------------------------

BREAKDOWN_HEADER = "cut_id,setup_s,load_s,op_s,eps_in,op_error_in"


def breakdown_csv(cost) -> str:
    """Per-cut (s_i, w_i, o_i, eps_i, p_i) rows plus the three totals."""
    lines = [BREAKDOWN_HEADER]
    for row in cost.rows:
        lines.append(",".join((
            row.cut_id,
            fmt_num(row.setup),
            fmt_num(row.load),
            fmt_num(row.op),
            fmt_num(row.eps_ticks / 64.0),
            fmt_num(row.op_error_ticks / 64.0),
        )))
    lines.append(f"total,f_c={fmt_num(cost.f_c)},"
                 f"f_t_s={fmt_num(cost.f_t_seconds)},"
                 f"f_p_in={fmt_num(cost.f_p_inches)},,")
    return "\n".join(lines) + "\n"
