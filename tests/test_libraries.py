import json

import pytest

from planwright import corpus_path
from planwright.cli import main
from planwright.libraries import (
    default_stocks,
    default_tools,
    dump_libraries,
    load_libraries,
    metal_twin,
    with_metal_twins,
)
from planwright.model import Material, OpRateKind, Tool, ticks


# Stock id -> (price, F-load, P-load, F-unload, P-unload)
GOLDEN_STOCKS = {
    "2x2-24": (3.0, 10, 1, 5, 1),
    "2x2-48": (5.5, 20, 2, 8, 2),
    "2x2-96": (10.0, 40, 3, 15, 2),
    "2x4-24": (3.0, 10, 1, 5, 1),
    "2x4-48": (5.5, 20, 2, 8, 2),
    "2x4-96": (10.0, 40, 4, 15, 2),
    "4x4-24": (7.5, 15, 2, 5, 1),
    "4x4-48": (13.75, 30, 4, 10, 2),
    "4x4-96": (25.0, 60, 6, 20, 3),
    "2x8-24": (7.5, 15, 2, 5, 1),
    "2x8-48": (13.75, 30, 4, 10, 2),
    "2x8-96": (25.0, 60, 6, 20, 3),
    "sheet-1/2-12x20": (5.5, 30, 3, 10, 2),
    "sheet-1/2-24x20": (10.0, 50, 5, 15, 2),
    "sheet-1/2-48x36": (30.0, 100, 10, 20, 2),
    "sheet-3/4-12x20": (7.0, 30, 3, 10, 2),
    "sheet-3/4-24x20": (12.0, 50, 5, 15, 2),
    "sheet-3/4-48x36": (32.0, 100, 10, 20, 2),
}


def test_stock_table_golden():
    stocks = {s.id: s for s in default_stocks()}
    assert set(stocks) == set(GOLDEN_STOCKS)
    for sid, (price, lf, lp, uf, up) in GOLDEN_STOCKS.items():
        s = stocks[sid]
        assert s.price == price
        assert (s.load_full, s.load_partial, s.unload_full, s.unload_partial) == (lf, lp, uf, up)
        assert s.material is Material.WOOD


def test_tool_table_golden():
    tools = default_tools()
    chop = tools[Tool.CHOPSAW]
    assert (chop.setup_full_lumber, chop.setup_partial) == (60, 15)
    assert chop.op_rate.kind is OpRateKind.PER_CUT and chop.op_rate.value == 1.0
    assert chop.op_error == ticks("1/64")
    assert chop.stackable

    band = tools[Tool.BANDSAW]
    assert (band.setup_full_lumber, band.setup_full_sheet) == (20, 90)
    assert band.setup_partial is None
    assert band.op_rate.value == 1.0
    assert band.op_error == ticks("1/16")

    jig = tools[Tool.JIGSAW]
    assert (jig.setup_full_lumber, jig.setup_full_sheet) == (30, 60)
    assert jig.setup_partial is None
    assert jig.op_error == ticks("3/16")

    track = tools[Tool.TRACKSAW]
    assert (track.setup_full_lumber, track.setup_full_sheet) == (180, 180)
    assert track.setup_partial == 75
    assert track.op_rate.value == 4.5
    assert track.op_error == ticks("1/32")
    assert track.stackable

    drill = tools[Tool.DRILL]
    assert (drill.setup_full_lumber, drill.setup_full_sheet) == (20, 20)
    assert drill.setup_partial is None
    assert drill.op_rate.kind is OpRateKind.PER_DEPTH_INCH
    assert drill.op_rate.value == 0.1
    assert drill.op_error == ticks("1/32")
    assert drill.kerf == 0


def test_tracksaw_nine_inch_cut_is_two_seconds():
    track = default_tools()[Tool.TRACKSAW]
    assert track.op_rate.seconds(ticks(9)) == 2.0


def test_metal_twin_pricing():
    base = next(s for s in default_stocks() if s.id == "2x2-24")
    twin = metal_twin(base)
    assert twin.id == "metal-2x2-24"
    assert twin.material is Material.METAL
    assert twin.effective_price() == 20 * base.effective_price() == 60.0
    assert twin.dims == base.dims


def test_with_metal_twins_doubles_library():
    stocks = default_stocks()
    both = with_metal_twins(stocks)
    assert len(both) == 2 * len(stocks)


def test_dump_and_load_round_trip(tmp_path):
    path = tmp_path / "libs.json"
    path.write_text(dump_libraries())
    stocks, tools = load_libraries(str(path))
    assert {s.id for s in stocks} == set(GOLDEN_STOCKS)
    loaded = {s.id: s for s in stocks}
    for s in default_stocks():
        assert loaded[s.id] == s
    assert tools == default_tools()


def test_dump_is_valid_json():
    payload = json.loads(dump_libraries())
    assert len(payload["stocks"]) == 18
    assert len(payload["tools"]) == 5


def test_load_missing_file():
    with pytest.raises(OSError):
        load_libraries("/nonexistent/libs.json")


# (section, entry index, field, message fragment, values to reject); entry
# 3 of the tools is the tracksaw
LIBRARY_NUMBERS = [
    *[("stocks", 0, name, f"{name} must be finite and positive",
       (0, -1, float("nan"), float("inf")))
      for name in ("price", "load_full", "load_partial", "unload_full", "unload_partial")],
    ("tools", 3, "op_rate_value", "op rate value must be finite and positive",
     (0, -1, float("nan"), float("inf"))),
    *[("tools", 3, name, f"{name} must be finite and >= 0",
       (-1, float("nan"), float("inf")))
      for name in ("setup_full_lumber", "setup_full_sheet", "setup_partial")],
]


@pytest.mark.parametrize("section, index, field, message, bad_values", LIBRARY_NUMBERS,
                         ids=[f"{row[0]}-{row[2]}" for row in LIBRARY_NUMBERS])
def test_library_number_out_of_range_exits_2(tmp_path, capsys, section, index, field,
                                             message, bad_values):
    path = tmp_path / "libraries.json"
    for value in bad_values:
        payload = json.loads(dump_libraries())
        payload[section][index][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_libraries(str(path))
        argv = ["optimize", corpus_path("lframe"), "--libraries", str(path),
                "--out", str(tmp_path)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "front.csv").exists()


def test_zero_setup_time_is_accepted(tmp_path):
    payload = json.loads(dump_libraries())
    for name in ("setup_full_lumber", "setup_full_sheet", "setup_partial"):
        payload["tools"][3][name] = 0
    path = tmp_path / "libraries.json"
    path.write_text(json.dumps(payload))
    _, tools = load_libraries(str(path))
    assert tools[Tool.TRACKSAW].setup_partial == 0
