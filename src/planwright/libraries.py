"""Default stock and tool libraries, plus JSON (de)serialization.

The built-in values mirror a published price/time/error survey for a small
home shop: stock prices, per-tool setup and operation times, per-tool
operation error, and per-stock load/unload times.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Iterable

from .designspace import DesignInputError
from .model import (
    Material,
    OpRate,
    OpRateKind,
    StockSpec,
    Tool,
    ToolSpec,
    ticks,
)
from .plans import cutting_tool

# (family, dims in inches, price $, F-load, P-load, F-unload, P-unload)
_STOCK_ROWS: list[tuple[str, tuple[float, ...], float, int, int, int, int]] = [
    ("2x2", (24,), 3.0, 10, 1, 5, 1),
    ("2x2", (48,), 5.5, 20, 2, 8, 2),
    ("2x2", (96,), 10.0, 40, 3, 15, 2),
    ("2x4", (24,), 3.0, 10, 1, 5, 1),
    ("2x4", (48,), 5.5, 20, 2, 8, 2),
    ("2x4", (96,), 10.0, 40, 4, 15, 2),
    ("4x4", (24,), 7.5, 15, 2, 5, 1),
    ("4x4", (48,), 13.75, 30, 4, 10, 2),
    ("4x4", (96,), 25.0, 60, 6, 20, 3),
    ("2x8", (24,), 7.5, 15, 2, 5, 1),
    ("2x8", (48,), 13.75, 30, 4, 10, 2),
    ("2x8", (96,), 25.0, 60, 6, 20, 3),
    ("sheet-1/2", (12, 20), 5.5, 30, 3, 10, 2),
    ("sheet-1/2", (24, 20), 10.0, 50, 5, 15, 2),
    ("sheet-1/2", (48, 36), 30.0, 100, 10, 20, 2),
    ("sheet-3/4", (12, 20), 7.0, 30, 3, 10, 2),
    ("sheet-3/4", (24, 20), 12.0, 50, 5, 15, 2),
    ("sheet-3/4", (48, 36), 32.0, 100, 10, 20, 2),
]

DEFAULT_KERF = ticks("1/8")


def _stock_id(family: str, dims: tuple[float, ...], material: Material) -> str:
    size = "x".join(f"{d:g}" for d in dims)
    base = f"{family}-{size}"
    return base if material is Material.WOOD else f"metal-{base}"


def default_stocks() -> list[StockSpec]:
    stocks = []
    for family, dims, price, lf, lp, uf, up in _STOCK_ROWS:
        stocks.append(
            StockSpec(
                id=_stock_id(family, dims, Material.WOOD),
                family=family,
                dims=tuple(ticks(d) for d in dims),
                price=price,
                load_full=lf,
                load_partial=lp,
                unload_full=uf,
                unload_partial=up,
                material=Material.WOOD,
            )
        )
    return stocks


def metal_twin(stock: StockSpec) -> StockSpec:
    """Metal stock with the same geometry; priced at cost time (20x wood)."""
    return replace(stock, id=f"metal-{stock.id}", material=Material.METAL)


def with_metal_twins(stocks: Iterable[StockSpec]) -> list[StockSpec]:
    out = list(stocks)
    for s in list(out):
        if s.material is Material.WOOD:
            out.append(metal_twin(s))
    return out


def default_tools() -> dict[Tool, ToolSpec]:
    specs = [
        ToolSpec(Tool.CHOPSAW, 60, 60, 15, OpRate(OpRateKind.PER_CUT, 1.0),
                 op_error=ticks("1/64"), kerf=DEFAULT_KERF, stackable=True),
        ToolSpec(Tool.BANDSAW, 20, 90, None, OpRate(OpRateKind.PER_INCH, 1.0),
                 op_error=ticks("1/16"), kerf=DEFAULT_KERF, stackable=False),
        ToolSpec(Tool.JIGSAW, 30, 60, None, OpRate(OpRateKind.PER_INCH, 1.0),
                 op_error=ticks("3/16"), kerf=DEFAULT_KERF, stackable=False),
        ToolSpec(Tool.TRACKSAW, 180, 180, 75, OpRate(OpRateKind.PER_INCH, 4.5),
                 op_error=ticks("1/32"), kerf=DEFAULT_KERF, stackable=True),
        ToolSpec(Tool.DRILL, 20, 20, None, OpRate(OpRateKind.PER_DEPTH_INCH, 0.1),
                 op_error=ticks("1/32"), kerf=0, stackable=False),
    ]
    return {t.id: t for t in specs}


def stock_to_json(s: StockSpec) -> dict[str, Any]:
    return {
        "id": s.id,
        "family": s.family,
        "dims_in": [d / 64 for d in s.dims],
        "price": s.price,
        "load_full": s.load_full,
        "load_partial": s.load_partial,
        "unload_full": s.unload_full,
        "unload_partial": s.unload_partial,
        "material": s.material.value,
    }


def stock_from_json(obj: dict[str, Any]) -> StockSpec:
    return StockSpec(
        id=obj["id"],
        family=obj["family"],
        dims=tuple(ticks(d) for d in obj["dims_in"]),
        price=obj["price"],
        load_full=obj["load_full"],
        load_partial=obj["load_partial"],
        unload_full=obj["unload_full"],
        unload_partial=obj["unload_partial"],
        material=Material(obj.get("material", "wood")),
    )


def tool_to_json(t: ToolSpec) -> dict[str, Any]:
    return {
        "id": t.id.value,
        "setup_full_lumber": t.setup_full_lumber,
        "setup_full_sheet": t.setup_full_sheet,
        "setup_partial": t.setup_partial,
        "op_rate_kind": t.op_rate.kind.value,
        "op_rate_value": t.op_rate.value,
        "op_error_in": t.op_error / 64,
        "kerf_in": t.kerf / 64,
        "stackable": t.stackable,
    }


def tool_from_json(obj: dict[str, Any]) -> ToolSpec:
    return ToolSpec(
        id=Tool(obj["id"]),
        setup_full_lumber=obj["setup_full_lumber"],
        setup_full_sheet=obj["setup_full_sheet"],
        setup_partial=obj["setup_partial"],
        op_rate=OpRate(OpRateKind(obj["op_rate_kind"]), obj["op_rate_value"]),
        op_error=ticks(obj["op_error_in"]),
        kerf=ticks(obj["kerf_in"]),
        stackable=obj["stackable"],
    )


def dump_libraries() -> str:
    payload = {
        "stocks": [stock_to_json(s) for s in default_stocks()],
        "tools": [tool_to_json(t) for t in default_tools().values()],
    }
    return json.dumps(payload, indent=2)


def load_libraries(path: str | None) -> tuple[list[StockSpec], dict[Tool, ToolSpec]]:
    """Load stock/tool overrides from JSON; None means built-in defaults.
    Raises DesignInputError for a malformed file, a repeated stock or tool
    id, or a stock whose cutting tool the tools lack."""
    if path is None:
        return default_stocks(), default_tools()
    with open(path) as fh:
        payload = json.load(fh)
    try:
        stocks = [stock_from_json(o) for o in payload.get("stocks", [])]
        tools_list = [tool_from_json(o) for o in payload.get("tools", [])]
    except KeyError as exc:
        raise DesignInputError(f"bad library file: missing field {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise DesignInputError(f"bad library file: {exc}") from exc
    for kind, ids in (("stock", [s.id for s in stocks]),
                      ("tool", [t.id.value for t in tools_list])):
        repeated = next((i for n, i in enumerate(ids) if i in ids[:n]), None)
        if repeated is not None:
            raise DesignInputError(f"bad library file: repeated {kind} id {repeated!r}")
    stocks = stocks or default_stocks()
    tools = {t.id: t for t in tools_list} if tools_list else default_tools()
    for s in stocks:
        if cutting_tool(s) not in tools:
            raise DesignInputError(
                f"bad library file: no tool {cutting_tool(s).value!r} for stock {s.id!r}")
    return stocks, tools
