import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from planwright import corpus_path
from planwright.cost import StockInstance, evaluate_plan
from planwright.designspace import DesignInputError
from planwright.io import (
    FRONT_HEADER,
    load_design_space,
    load_plan,
    plan_from_json,
    read_front_csv,
    write_front_csv,
)
from planwright.libraries import default_stocks, default_tools
from planwright.model import TICKS_PER_INCH, Part, Tool, ticks
from planwright.plans import assemble_plan, cuts_for_instance, layout


def run_cli(*argv, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "planwright.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


FAST_ARGS = ["--iterations", "4", "--traversals", "12", "--population", "40",
             "--generations", "4"]


def test_load_design_space_round_trip():
    space = load_design_space(corpus_path("frame"))
    assert space.base_id == "frame"
    assert len(space.base_parts) == 4
    assert len(space.joints) == 4


def test_load_design_space_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"id": "x", "parts": []}))
    with pytest.raises(DesignInputError):
        load_design_space(str(bad))
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_design_space(str(bad))


def test_plan_from_json_errors():
    stocks = default_stocks()
    with pytest.raises(DesignInputError):
        plan_from_json({"stock_bill": [{"key": "k"}], "cuts": []}, stocks)
    with pytest.raises(DesignInputError):
        plan_from_json(
            {"stock_bill": [], "cuts": [{"id": "c"}]}, stocks)


def plan_payload():
    return {
        "design_id": "d",
        "stock_bill": [{"key": "2x4-96#0", "stock_id": "2x4-96"}],
        "cuts": [{"id": "c0", "tool": "chopsaw", "stock_key": "2x4-96#0",
                  "position_in": "30", "measured_in": "30"}],
    }


def test_evaluate_breakdown_golden(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_payload()))
    result = run_cli("evaluate", str(plan))
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "cut_id,setup_s,load_s,op_s,eps_in,op_error_in"
    assert lines[1].startswith("c0,60,55,1,")
    total = lines[-1]
    assert "f_t_s=116" in total and "f_c=10" in total


def linked_plan_payload():
    """Two sticks; the second cut of the first depends on its first cut."""
    cut = {"tool": "chopsaw", "kind": "lumber", "stock_key": "2x4-96#0"}
    return {
        "design_id": "d",
        "stock_bill": [{"key": "2x4-96#0", "stock_id": "2x4-96"},
                       {"key": "2x4-96#1", "stock_id": "2x4-96"}],
        "cuts": [dict(cut, id="c0", position_in="30"),
                 dict(cut, id="c1", position_in="50", parent="c0")],
    }


def test_evaluate_accepts_a_linked_plan(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(linked_plan_payload()))
    result = run_cli("evaluate", str(plan))
    assert result.returncode == 0, result.stderr
    assert "f_c=20" in result.stdout


def _reversed_cuts(payload):
    payload["cuts"].reverse()


def _unknown_parent(payload):
    payload["cuts"][1]["parent"] = "c9"


def _repeated_cut_id(payload):
    payload["cuts"][1]["id"] = "c0"


def _repeated_stock_key(payload):
    payload["stock_bill"][1] = {"key": "2x4-96#0", "stock_id": "2x2-24"}


def _parent_on_another_stock(payload):
    payload["cuts"][1]["stock_key"] = "2x4-96#1"


def _axis_not_a_number(payload):
    payload["cuts"][1]["axis"] = "1"


def _axis_the_stick_lacks(payload):
    payload["cuts"][1]["axis"] = 1


def _split_stack_group(payload):
    # c0 and its twin on the second stick share a stack group, c1 between
    payload["cuts"][0]["stack_group"] = "g"
    payload["cuts"].append(dict(payload["cuts"][0], id="c2", stock_key="2x4-96#1"))


def _unknown_stock_id(payload):
    payload["stock_bill"][1]["stock_id"] = "2x4-97"


def _unknown_kind(payload):
    payload["cuts"][1]["kind"] = "manul"


def _drill_without_measured_length(payload):
    payload["cuts"][1].update(kind="drill", tool="drill", depth_in="1")


def _cut_id_not_a_string(payload):
    payload["cuts"][1]["id"] = ["c1"]


@pytest.mark.parametrize("fault, message", [
    (_reversed_cuts, "cut 'c1' comes before its parent 'c0'"),
    (_unknown_parent, "cut 'c1': parent 'c9' is not in the plan"),
    (_repeated_cut_id, "cut id 'c0' is used twice"),
    (_repeated_stock_key, "stock instance '2x4-96#0' is listed twice"),
    (_parent_on_another_stock, "cut 'c1': parent 'c0' is on another stock"),
    (_axis_not_a_number, "axis must be 0 or 1, got '1'"),
    (_axis_the_stick_lacks, "cut c1: its stock has no axis 1"),
    (_split_stack_group, "stack g: its cuts are not consecutive"),
    (_unknown_stock_id, "unknown stock id '2x4-97'"),
    (_unknown_kind, "kind must be lumber, sheet, manual or drill, got 'manul'"),
    (_cut_id_not_a_string, "cut id ['c1'] is not a string"),
    (_drill_without_measured_length, "cut c1: drill cut needs a measured length"),
])
def test_evaluate_rejects_malformed_plans(tmp_path, fault, message):
    payload = linked_plan_payload()
    fault(payload)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(payload))
    result = run_cli("evaluate", str(plan))
    assert result.returncode == 2, result.stdout
    assert result.stdout == ""
    assert message in result.stderr


def test_front_csv_round_trip_byte_identical(tmp_path):
    path = tmp_path / "front.csv"
    for body in ("d/a,p0,8.5,,4.033333333\nd/b,p0,10,,3.483333333\n",
                 "d/a,p0,8.5,0,4.033333333\nd/b,p0,10,0.046875,3.483333333\n"):
        rows = read_front_csv_from_text(FRONT_HEADER + "\n" + body, tmp_path)
        write_front_csv(rows, str(path))
        text = path.read_text()
        assert text == FRONT_HEADER + "\n" + body
        rows2 = read_front_csv(str(path))
        write_front_csv(rows2, str(path))
        assert path.read_text() == text


def read_front_csv_from_text(text, tmp_path):
    p = tmp_path / "in.csv"
    p.write_text(text)
    return read_front_csv(str(p))


def test_cli_optimize_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        result = run_cli("optimize", corpus_path("lframe"), *FAST_ARGS,
                         "--out", str(out))
        assert result.returncode == 0, result.stderr
    for name in ("front.csv", "front.json", "report.json", "front.svg"):
        assert (out1 / name).exists()
    assert (out1 / "front.csv").read_bytes() == (out2 / "front.csv").read_bytes()
    front = (out1 / "front.csv").read_text().splitlines()
    assert front[0] == FRONT_HEADER
    assert len(front) >= 2


def test_cli_baseline_expands_an_enumerated_design_once(tmp_path):
    # lframe's base design is enumerated: re-picks of it add nothing, are
    # not expanded, and the run stops on stall after 4 iterations
    result = run_cli("optimize", corpus_path("lframe"), "--baseline", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert [it["expanded"] for it in report["iterations"]] == [["lframe/butt"], [], [], []]
    lines = [line.split()[2] for line in result.stdout.splitlines()
             if line.startswith("iter ")]
    assert lines == ["expanded=1"] + ["expanded=0"] * 3


def test_cli_output_dir_env(tmp_path):
    out = tmp_path / "envout"
    result = run_cli("optimize", corpus_path("lframe"), *FAST_ARGS,
                     env_extra={"PLANWRIGHT_OUT": str(out)})
    assert result.returncode == 0, result.stderr
    assert (out / "front.csv").exists()


def test_cli_svg_well_formed(tmp_path):
    run_cli("optimize", corpus_path("lframe"), *FAST_ARGS, "--out", str(tmp_path))
    root = ET.parse(tmp_path / "front.svg").getroot()
    assert root.tag.endswith("svg")


def test_cli_compare_hypervolume_scalarize(tmp_path):
    run_cli("optimize", corpus_path("lframe"), *FAST_ARGS, "--out", str(tmp_path))
    front = str(tmp_path / "front.csv")
    result = run_cli("hypervolume", front)
    assert result.returncode == 0
    assert float(result.stdout.split(":")[-1]) > 0
    result = run_cli("scalarize", front, "--price", "0")
    assert result.returncode == 0
    assert ",5.5" in result.stdout
    result = run_cli("compare", front, front)
    assert result.returncode == 0
    assert "improvement_pct:0,0,0,0,0,0,0,0" in result.stdout


def test_cli_exit_codes(tmp_path):
    assert run_cli("optimize", "/nonexistent.json").returncode == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("optimize", str(bad)).returncode == 2
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"id": "x", "parts": []}))
    assert run_cli("optimize", str(empty)).returncode == 2


@pytest.mark.parametrize("command", ["optimize", "oracle"])
def test_cli_refuses_a_base_design_with_no_packing(tmp_path, command):
    design = tmp_path / "long.json"
    design.write_text(json.dumps({"id": "long", "parts": [
        {"id": "beam", "family": "2x4", "shape_in": ["100"]},
        {"id": "rail", "family": "2x4", "shape_in": ["20"]}]}))
    result = run_cli(command, str(design), "--out", str(tmp_path / "out"))
    assert result.returncode == 2, result.stdout
    assert result.stdout == ""
    assert "error: part beam: part does not fit any '2x4' stock" in result.stderr


def test_cli_rejects_negative_counts_and_prices(tmp_path):
    result = run_cli("optimize", corpus_path("lframe"), *FAST_ARGS, "--generations", "-1",
                     "--out", str(tmp_path))
    assert result.returncode == 2, result.stderr
    assert "generations must be >= 0" in result.stderr
    assert not (tmp_path / "front.csv").exists()
    run_cli("optimize", corpus_path("lframe"), *FAST_ARGS, "--out", str(tmp_path))
    front = str(tmp_path / "front.csv")
    for argv in (["scalarize", front, "--price", "-1"],
                 ["compare", front, front, "--prices", "0", "-1"]):
        result = run_cli(*argv)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert "labor price must be >= 0, got -1.0" in result.stderr


@pytest.mark.parametrize("command", ["hypervolume", "compare"])
def test_cli_rejects_non_finite_reference(tmp_path, command):
    front = tmp_path / "front.csv"
    front.write_text(FRONT_HEADER + "\nd,p0,5.5,,3.25\nd,p1,3,,8\n")
    fronts = [str(front)] * (2 if command == "compare" else 1)
    for ref in (["nan", "nan"], ["inf", "nan"], ["1", "inf"]):
        result = run_cli(command, *fronts, "--ref", *ref)
        assert result.returncode == 2, result.stdout
        assert result.stdout == ""
        assert "is not finite" in result.stderr
    # a finite reference that no point is inside still clips and warns
    result = run_cli(command, *fronts, "--ref", "-1", "-1")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("0\n" if command == "hypervolume" else "hv_a=0\nhv_b=0\n")
    assert result.stderr.count("warning: point") == 2 * len(fronts)


@pytest.mark.parametrize("command", ["hypervolume", "scalarize", "compare"])
@pytest.mark.parametrize("body, message", [
    ("d,p0,nan,,3.25\n", ":2: f_c is not finite"),
    ("d,p0,5.5,,3.25\nd,p1,3,,-inf\n", ":3: f_t is not finite"),
    ("d,p0,5.5,inf,3.25\n", ":2: f_p is not finite"),
    ("d,p0,five,,3.25\n", ":2: f_c is not a number"),
    # the f_p of a 3-objective row would be dropped in a 2-objective score
    ("d,p0,5.5,,3.25\nd,p1,3,0.5,8\n", ":3: f_p must be empty on every row or on none"),
    ("d,p0,5.5,0.5,3.25\nd,p1,3,,8\n", ":3: f_p must be empty on every row or on none"),
])
def test_cli_rejects_bad_front_rows(tmp_path, command, body, message):
    front = tmp_path / "front.csv"
    front.write_text(FRONT_HEADER + "\n" + body)
    argv = {"hypervolume": [str(front)], "scalarize": [str(front), "--price", "0"],
            "compare": [str(front), str(front)]}[command]
    result = run_cli(command, *argv)
    assert result.returncode == 2, result.stdout
    assert result.stdout == ""
    assert message in result.stderr


def test_cli_hypervolume_of_an_empty_front(tmp_path):
    # a header-only front has no f_p column to read its mode from: it takes
    # the reference point's, and its hypervolume is 0
    empty = tmp_path / "empty.csv"
    empty.write_text(FRONT_HEADER + "\n")
    for ref in ([], ["100", "100"], ["100", "100", "100"]):
        result = run_cli("hypervolume", str(empty), *(["--ref", *ref] if ref else []))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0\n"
    result = run_cli("hypervolume", str(empty), "--ref", "1", "1", "1", "1")
    assert result.returncode == 2, result.stdout
    assert "reference point dimension mismatch" in result.stderr


def test_cli_compare_rejects_an_empty_front(tmp_path):
    empty, full = tmp_path / "empty.csv", tmp_path / "full.csv"
    empty.write_text(FRONT_HEADER + "\n")
    full.write_text(FRONT_HEADER + "\nd,p0,5.5,,3.25\n")
    for fronts in ([empty, full], [full, empty], [empty, empty]):
        result = run_cli("compare", *map(str, fronts))
        assert result.returncode == 2, result.stdout
        assert result.stdout == ""
        assert "both fronts must be nonempty" in result.stderr


@pytest.mark.parametrize("payload, message", [
    ({"parts": [{"id": "a", "family": "2x2", "shape_in": ["20"]}]},
     "bad design file: 'id'"),
    # two 40" parts "a" need two 2x2-48 sticks
    ({"id": "x", "parts": [{"id": "a", "family": "2x2", "shape_in": ["40"]},
                           {"id": "a", "family": "2x2", "shape_in": ["40"]}]},
     "repeats part id 'a'"),
    ({"id": "x", "parts": [{"id": ["a"], "family": "2x2", "shape_in": ["20"]}]},
     r"part id \['a'\] is not a string"),
], ids=["no-id", "repeated-part-id", "list-part-id"])
def test_bad_design_file_is_a_validation_error(tmp_path, payload, message):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DesignInputError, match=message):
        load_design_space(str(path))
    result = run_cli("optimize", str(path), *FAST_ARGS, cwd=tmp_path)
    assert result.returncode == 2, result.stderr


def test_cli_dump_libraries():
    result = run_cli("dump-libraries")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert len(payload["stocks"]) == 18
    assert len(payload["tools"]) == 5


@pytest.mark.parametrize("fault", ["stock without price", "tool without setup",
                                   "dims not a list", "not an object", "repeated stock id",
                                   "repeated tool id", "no chopsaw"])
def test_cli_bad_library_file_is_a_validation_error(tmp_path, fault):
    libraries = json.loads(run_cli("dump-libraries").stdout)
    message = "error: bad library file"
    if fault == "stock without price":
        del libraries["stocks"][0]["price"]
    elif fault == "tool without setup":
        del libraries["tools"][0]["setup_full_lumber"]
    elif fault == "dims not a list":
        libraries["stocks"][0]["dims_in"] = 24
    elif fault == "repeated stock id":
        libraries["stocks"].append(dict(libraries["stocks"][0], price=1.0))
        message += f": repeated stock id {libraries['stocks'][0]['id']!r}"
    elif fault == "repeated tool id":
        libraries["tools"].append(libraries["tools"][0])
        message += f": repeated tool id {libraries['tools'][0]['id']!r}"
    elif fault == "no chopsaw":
        libraries["tools"] = [t for t in libraries["tools"] if t["id"] != "chopsaw"]
        message += f": no tool 'chopsaw' for stock {libraries['stocks'][0]['id']!r}"
    else:
        libraries = libraries["stocks"]
    lib_path = tmp_path / "libraries.json"
    lib_path.write_text(json.dumps(libraries))
    for command, args in (("optimize", FAST_ARGS), ("oracle", [])):
        result = run_cli(command, corpus_path("lframe"), *args,
                         "--libraries", str(lib_path), "--out", str(tmp_path))
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(message), result.stderr


def test_evaluate_rejects_a_tool_the_libraries_lack(tmp_path):
    libraries = json.loads(run_cli("dump-libraries").stdout)
    libraries["tools"] = [t for t in libraries["tools"] if t["id"] != "jigsaw"]
    lib_path = tmp_path / "libraries.json"
    lib_path.write_text(json.dumps(libraries))
    payload = plan_payload()
    payload["cuts"][0]["tool"] = "jigsaw"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(payload))
    result = run_cli("evaluate", str(plan), "--libraries", str(lib_path))
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr == "error: cut c0: no tool 'jigsaw' in the tool table\n"
    assert run_cli("evaluate", str(plan)).returncode == 0


def test_cli_optimize_reports_clipped_points(tmp_path):
    # stock at 100 times its price puts every lframe plan beyond the 100 $
    # of the default reference point: the final front is clipped, and the
    # run says so in report.json and on stderr
    libraries = json.loads(run_cli("dump-libraries").stdout)
    for stock in libraries["stocks"]:
        stock["price"] *= 100
    lib_path = tmp_path / "libraries.json"
    lib_path.write_text(json.dumps(libraries))
    for name, lib in (("plain", []), ("dear", ["--libraries", str(lib_path)])):
        result = run_cli("optimize", corpus_path("lframe"), *FAST_ARGS, *lib,
                         "--out", str(tmp_path / name))
        assert result.returncode == 0, result.stderr
        report = json.loads((tmp_path / name / "report.json").read_text())
        front = read_front_csv(str(tmp_path / name / "front.csv"))
        warnings = [line for line in result.stderr.splitlines()
                    if line.startswith("warning: point")]
        if name == "plain":
            assert report["clipped_points"] == [] and warnings == []
        else:
            clipped = report["clipped_points"]
            assert sorted(map(tuple, clipped)) == sorted(tuple(r.objectives2) for r in front)
            assert len(warnings) == len(clipped) > 0


def test_cli_oracle_matches_optimize_on_lframe(tmp_path):
    opt_dir = tmp_path / "opt"
    orc_dir = tmp_path / "orc"
    run_cli("optimize", corpus_path("lframe"), *FAST_ARGS, "--out", str(opt_dir))
    result = run_cli("oracle", corpus_path("lframe"), "--out", str(orc_dir))
    assert result.returncode == 0, result.stderr
    opt = {tuple(r.objectives2) for r in read_front_csv(str(opt_dir / "front.csv"))}
    orc = {tuple(r.objectives2) for r in read_front_csv(str(orc_dir / "front.csv"))}
    assert opt == orc


@pytest.mark.parametrize("command", ["optimize", "oracle"])
@pytest.mark.parametrize("where", ["file", "under a file"])
def test_cli_refuses_an_output_path_that_is_no_directory(tmp_path, command, where):
    # the output directory is checked before the search: an I/O error line
    # and exit 1, nothing printed and no traceback
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker if where == "file" else blocker / "sub"
    result = run_cli(command, corpus_path("lframe"), *(FAST_ARGS if command == "optimize" else ()),
                     "--out", str(out))
    assert result.returncode == 1, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"


def test_load_plan_round_trip(tmp_path):
    plan_file = tmp_path / "p.json"
    plan_file.write_text(json.dumps(plan_payload()))
    plan = load_plan(str(plan_file), default_stocks())
    assert plan.design_id == "d"
    assert len(plan.cuts) == 1
    assert plan.cuts[0].position == 30 * 64


def test_plan_file_keeps_sheet_cut_anchors():
    # two shelves on one sheet: each cut splits the piece its anchor lies
    # in, and the upper shelf's cuts lie outside the piece at (0, 0)
    spec = next(s for s in default_stocks() if s.id == "sheet-1/2-24x20")
    tools = default_tools()
    kerf = tools[Tool.TRACKSAW].kerf
    parts = {pid: Part(id=pid, family=spec.family, shape=(ticks(w), ticks(h)))
             for pid, w, h in [("a", 10, 5), ("b", 8, 5), ("c", 12, 6)]}
    placements = [("a", (0, 0)), ("b", (ticks(10) + kerf, 0)),
                  ("c", (0, ticks(5) + kerf))]
    inst = StockInstance(key="s#0", spec=spec)
    plan = assemble_plan("d", [(inst, cuts_for_instance(inst, layout(placements, parts)))])
    assert any(c.anchor != (0, 0) for c in plan.cuts)

    def length(t):
        return str(Fraction(t, TICKS_PER_INCH))

    payload = {
        "design_id": "d",
        "stock_bill": [{"key": inst.key, "stock_id": spec.id}],
        "cuts": [{"id": c.id, "tool": c.tool.value, "stock_key": c.stock_key,
                  "kind": c.kind, "axis": c.axis, "position_in": length(c.position),
                  "anchor_in": [length(x) for x in c.anchor], "parent": c.parent,
                  "op_length_in": length(c.op_length)} for c in plan.cuts],
    }
    loaded = plan_from_json(payload, default_stocks())
    assert evaluate_plan(loaded, tools) == evaluate_plan(plan, tools)
    assert loaded == plan
