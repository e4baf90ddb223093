import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from planwright import corpus_path
from planwright.designspace import DesignInputError
from planwright.io import (
    FRONT_HEADER,
    load_design_space,
    load_plan,
    plan_from_json,
    read_front_csv,
    write_front_csv,
)
from planwright.libraries import default_stocks


def run_cli(*argv, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "planwright.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


FAST_ARGS = ["--iterations", "4", "--traversals", "12", "--population", "40",
             "--generations", "4", "--flip-iters", "8"]


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


def test_front_csv_round_trip_byte_identical(tmp_path):
    path = tmp_path / "front.csv"
    rows = read_front_csv_from_text(
        FRONT_HEADER + "\n"
        "d/a,p0,8.5,,4.033333333\n"
        "d/b,p0,10,0.046875,3.483333333\n",
        tmp_path)
    write_front_csv(rows, str(path))
    text = path.read_text()
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


def test_cli_dump_libraries():
    result = run_cli("dump-libraries")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert len(payload["stocks"]) == 18
    assert len(payload["tools"]) == 5


def test_cli_oracle_matches_optimize_on_lframe(tmp_path):
    opt_dir = tmp_path / "opt"
    orc_dir = tmp_path / "orc"
    run_cli("optimize", corpus_path("lframe"), *FAST_ARGS, "--out", str(opt_dir))
    result = run_cli("oracle", corpus_path("lframe"), "--out", str(orc_dir))
    assert result.returncode == 0, result.stderr
    opt = {tuple(r.objectives2) for r in read_front_csv(str(opt_dir / "front.csv"))}
    orc = {tuple(r.objectives2) for r in read_front_csv(str(orc_dir / "front.csv"))}
    assert opt == orc


def test_load_plan_round_trip(tmp_path):
    plan_file = tmp_path / "p.json"
    plan_file.write_text(json.dumps(plan_payload()))
    plan = load_plan(str(plan_file), default_stocks())
    assert plan.design_id == "d"
    assert len(plan.cuts) == 1
    assert plan.cuts[0].position == 30 * 64
