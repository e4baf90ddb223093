"""Command-line interface.

Subcommands: optimize (co-optimization run), evaluate (plan cost
breakdown), compare (two fronts), hypervolume, scalarize, dump-libraries,
and oracle (exhaustive front for tiny inputs). Exit codes: 0 success,
1 I/O problems, 2 validation problems.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, io as pio
from .cost import PlanError, evaluate_plan
from .designspace import DesignInputError
from .extraction import IceeParams, Solution, ValidationFailure, baseline_run, icee_run
from .libraries import dump_libraries, load_libraries, with_metal_twins
from .model import Material
from .oracle import brute_force_front

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2

OUTPUT_DIR_ENV = "PLANWRIGHT_OUT"


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _load_inputs(args):
    space = pio.load_design_space(args.design)
    stocks, tools = load_libraries(getattr(args, "libraries", None))
    if any(p.material is Material.METAL for p in space.base_parts):
        stocks = with_metal_twins(stocks)
    return space, stocks, tools


def _params_from_args(args) -> IceeParams:
    kwargs = {}
    for name in ("seed", "alpha", "iterations", "traversals", "top_nodes",
                 "population", "flip_iters", "generations", "designs_per_iter"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    if getattr(args, "objectives", None) is not None:
        kwargs["objective_mode"] = args.objectives
    return IceeParams(**kwargs)


def cmd_optimize(args) -> int:
    space, stocks, tools = _load_inputs(args)
    params = _params_from_args(args)
    run = baseline_run if args.baseline else icee_run
    front, report = run(space, stocks, tools, params)
    for entry in report["iterations"]:
        print("iter {iteration}: terms_refined={terms_refined} "
              "front={front_size} hv={hypervolume:.6g}".format(**entry))
    out = _out_dir(args)
    rows = pio.front_rows(front)
    pio.write_front_csv(rows, os.path.join(out, "front.csv"))
    with open(os.path.join(out, "front.json"), "w") as fh:
        fh.write(pio.front_json(rows, front) + "\n")
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out, "front.svg"), "w") as fh:
        fh.write(pio.front_svg(rows))
    print(f"front: {len(rows)} solutions -> {out}/front.csv")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    stocks, tools = load_libraries(args.libraries)
    plan = pio.load_plan(args.plan, stocks)
    cost = evaluate_plan(plan, tools)
    sys.stdout.write(pio.breakdown_csv(cost))
    return EXIT_OK


def _front_mode(rows) -> int:
    return 2 if any(r.f_p == "" for r in rows) else 3


def _front_points(rows, mode):
    return [r.objectives2 if mode == 2 else r.objectives3 for r in rows]


def cmd_compare(args) -> int:
    rows_a = pio.read_front_csv(args.front_a)
    rows_b = pio.read_front_csv(args.front_b)
    mode_a, mode_b = _front_mode(rows_a), _front_mode(rows_b)
    if mode_a != mode_b:
        print("error: fronts have different objective modes", file=sys.stderr)
        return EXIT_VALIDATION
    ref = (tuple(args.ref) if args.ref
           else analysis.default_reference(mode_a))
    if len(ref) != mode_a:
        print("error: reference point dimension mismatch", file=sys.stderr)
        return EXIT_VALIDATION
    pts_a = _front_points(rows_a, mode_a)
    pts_b = _front_points(rows_b, mode_a)
    report = analysis.ClipReport()
    hv_a = analysis.hypervolume(pts_a, ref, report)
    hv_b = analysis.hypervolume(pts_b, ref, report)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"hv_a={pio.fmt_num(hv_a)}")
    print(f"hv_b={pio.fmt_num(hv_b)}")

    labels = ["M", "T"] if mode_a == 2 else ["M", "P", "T"]
    for d, label in enumerate(labels):
        min_a = min((p[d] for p in pts_a), default=float("nan"))
        min_b = min((p[d] for p in pts_b), default=float("nan"))
        print(f"{label}_a={pio.fmt_num(min_a)} {label}_b={pio.fmt_num(min_b)}")

    prices = tuple(args.prices) if args.prices else analysis.DEFAULT_PRICES
    front_a = [analysis.CostVector(f_c=float(r.f_c), f_t=float(r.f_t))
               for r in rows_a]
    front_b = [analysis.CostVector(f_c=float(r.f_c), f_t=float(r.f_t))
               for r in rows_b]
    table = analysis.improvement_table(front_a, front_b, prices)
    print("price:" + ",".join(str(p) for p in prices))
    print("improvement_pct:" + ",".join(
        "" if v is None else str(v) for v in table))
    return EXIT_OK


def cmd_hypervolume(args) -> int:
    rows = pio.read_front_csv(args.front)
    mode = _front_mode(rows)
    ref = tuple(args.ref) if args.ref else analysis.default_reference(mode)
    if len(ref) != mode:
        print("error: reference point dimension mismatch", file=sys.stderr)
        return EXIT_VALIDATION
    report = analysis.ClipReport()
    hv = analysis.hypervolume(_front_points(rows, mode), ref, report)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(pio.fmt_num(hv))
    return EXIT_OK


def cmd_scalarize(args) -> int:
    rows = pio.read_front_csv(args.front)
    costs = [analysis.CostVector(f_c=float(r.f_c), f_t=float(r.f_t))
             for r in rows]
    if not costs:
        print("error: empty front", file=sys.stderr)
        return EXIT_VALIDATION
    idx, value = analysis.scalarize(costs, args.price)
    print(f"{rows[idx].design_id},{rows[idx].plan_id},{pio.fmt_num(value)}")
    return EXIT_OK


def cmd_dump_libraries(args) -> int:
    text = dump_libraries()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_oracle(args) -> int:
    space, stocks, tools = _load_inputs(args)
    mode = args.objectives or 2
    front = brute_force_front(space, stocks, tools, mode)
    solutions = [Solution(design=d, plan=p, cost=c) for d, p, c in front]
    rows = pio.front_rows(solutions)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        pio.write_front_csv(rows, os.path.join(args.out, "front.csv"))
    sys.stdout.write(pio.emit_front_csv(rows))
    return EXIT_OK


def _add_common_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("design", help="design-space JSON file")
    p.add_argument("--libraries", help="stock/tool library JSON")
    p.add_argument("--objectives", type=int, choices=(2, 3))
    p.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planwright",
        description="co-optimize carpentry designs and fabrication plans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="search the design/plan space")
    _add_common_run_args(p)
    p.add_argument("--baseline", action="store_true",
                   help="fix the design; optimize fabrication only")
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--traversals", type=int)
    p.add_argument("--top-nodes", dest="top_nodes", type=int)
    p.add_argument("--population", type=int)
    p.add_argument("--flip-iters", dest="flip_iters", type=int)
    p.add_argument("--generations", type=int)
    p.add_argument("--designs-per-iter", dest="designs_per_iter", type=int)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", help="cost breakdown for a plan file")
    p.add_argument("plan", help="plan JSON file")
    p.add_argument("--libraries")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="compare two front CSV files")
    p.add_argument("front_a")
    p.add_argument("front_b")
    p.add_argument("--ref", type=float, nargs="+")
    p.add_argument("--prices", type=float, nargs="+")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("hypervolume", help="hypervolume of a front CSV")
    p.add_argument("front")
    p.add_argument("--ref", type=float, nargs="+")
    p.set_defaults(func=cmd_hypervolume)

    p = sub.add_parser("scalarize", help="best front row at an hourly price")
    p.add_argument("front")
    p.add_argument("--price", type=float, required=True,
                   help="labor price in dollars per hour")
    p.set_defaults(func=cmd_scalarize)

    p = sub.add_parser("dump-libraries", help="print built-in stock/tool tables")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dump_libraries)

    p = sub.add_parser("oracle", help="exhaustive front for tiny inputs")
    _add_common_run_args(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DesignInputError, ValidationFailure, PlanError, ValueError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
