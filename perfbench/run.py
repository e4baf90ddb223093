"""End-to-end benchmark of planwright's ICEE loop.

    python3 perfbench/run.py --workload lumber-exhaustive --seed 0 \
        --seconds 30 --trace 0

Runs ``icee_run`` as a library user does: one process, one thread, a
closed loop in which the next run starts only when the previous one has
finished. One pass runs every case of the workload once; passes repeat
until ``--seconds`` have elapsed (at least one pass). A host speed probe
(calibrate.py) runs between runs, and end-to-end times are scaled by it.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics per traced pass,
plus the tracing overhead (traced minus untraced pass wall time).

Every completed front goes through the correctness gate (gate.py). The
last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit status: 0 when the gate passes, 1 when it
finds a wrong front, 2 when the program or BENCHMARK.json (which names the
metrics and their units) cannot be found or the arguments are invalid.
Environment, per-case details and spans are written to
``.bench_build/perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60


@dataclass
class Run:
    case: int
    seconds: float
    front: list | None
    report: dict | None
    error: str | None
    traced: bool
    round_s: float  # host speed: seconds per probe round (calibrate.py)

    @property
    def scaled(self) -> float:
        """Seconds at the host's reference speed (calibrate.py)."""
        return self.seconds * calibrate.REFERENCE_S / self.round_s


def _import_program():
    if not (SRC / "planwright" / "__init__.py").is_file():
        print(f"perfbench: no planwright sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import planwright

    if Path(planwright.__file__).resolve().parent != SRC / "planwright":
        print(f"perfbench: imported planwright from {planwright.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        sys.exit(2)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, scaled like run times."""
    child = Path(__file__).resolve().parent / "setup_child.py"
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(child), workload, str(seed)],
            capture_output=True, text=True, check=True, cwd=ROOT,
            timeout=SETUP_TIMEOUT_S)
        seconds, round_s = map(float, out.stdout.split()[-2:])
        times.append(seconds * calibrate.REFERENCE_S / round_s)
    return times


def _failure(exc: BaseException) -> str:
    """Error text plus the chain of planwright calls that raised it."""
    chain = [f"{Path(fs.filename).stem}.{fs.name}"
             for fs in traceback.extract_tb(exc.__traceback__)
             if Path(fs.filename).parent.name == "planwright"]
    return f"{type(exc).__name__}: {exc} [{' > '.join(chain)}]"


def _run_pass(cases, stocks, tools, runs: list[Run], tracer=None,
              indices=None, sample=False) -> float:
    """Run the cases (all, or those at `indices`) once; return the wall time.

    With `sample`, the host's speed is probed during each run (and the
    probe's time left out of the run's); otherwise only between runs.
    """
    from planwright import icee_run

    from tracing import ROOT_SPAN

    wall = 0.0
    before = calibrate.probe()
    for idx in range(len(cases)) if indices is None else indices:
        case = cases[idx]
        gc.collect()
        args = (case.space, stocks, tools, case.params)
        front = report = error = None
        sampler = calibrate.Sampler()
        start = time.perf_counter()
        try:
            if tracer is not None:
                tracer.run_id += 1
                front, report = tracer.call(ROOT_SPAN, icee_run, args, {})
            elif sample:
                with sampler:
                    front, report = icee_run(*args)
            else:
                front, report = icee_run(*args)
        except Exception as exc:  # a raised run is a failed operation
            error = _failure(exc)
        seconds = time.perf_counter() - start - sampler.spent
        after = calibrate.probe()
        ticks = sampler.rounds_s
        round_s = sum(ticks) / len(ticks) if ticks else (before + after) / 2
        runs.append(Run(idx, seconds, front, report, error,
                        tracer is not None, round_s))
        before = after
        wall += seconds
    return wall


def _gate(cases, runs, stocks, tools, digest):
    """(problems, warnings, oracle ratios) over every run made."""
    import gate

    problems: list[str] = []
    warnings: list[str] = []
    ratios: dict[str, float] = {}
    outcomes: dict[int, set] = {}
    for run in runs:
        case = cases[run.case]
        key = (run.error,) if run.front is None else gate.outcome_key(run.front)
        outcomes.setdefault(run.case, set()).add(key)
        if run.front is None:
            continue
        problems += gate.check_front(case, run.front, tools)
        if case.corpus is not None and case.label not in ratios:
            ratio, bad, clipped = gate.check_oracle(
                case, run.front, stocks, tools, OUT_DIR, digest)
            ratios[case.label] = ratio
            problems += bad
            warnings += clipped
    for idx, keys in sorted(outcomes.items()):
        if len(keys) > 1:
            problems.append(f"{cases[idx].label}: {len(keys)} different "
                            "outcomes from the same inputs")
    if not any(sum(r.case == i for r in runs) > 1 for i in range(len(cases))):
        problems.append("no case ran twice; determinism unchecked")
    return problems, warnings, ratios


def _end_to_end(cases, runs, passes, setups):
    """End-to-end metrics of an untraced measurement.

    Every time is scaled to the host's reference speed by the probe run
    next to it (calibrate.py). A pass's wall time is the sum of each case's
    median scaled run time. The median of all completed runs' raw times is
    reported as ``run_s_p50``, without a bound: it moves with the host's
    speed, whose phases last up to minutes.
    """
    from planwright.analysis import ClipReport, hypervolume

    by_case: dict[int, list[Run]] = {}
    for r in runs:
        by_case.setdefault(r.case, []).append(r)
    case_s = {i: statistics.median(r.scaled for r in rs)
              for i, rs in by_case.items()}
    # one front per case: deterministic per seed (the gate checks repeats)
    completed = {i: rs[0] for i, rs in by_case.items() if rs[0].front is not None}
    clips = ClipReport()
    hv = sum(hypervolume([s.cost.objectives for s in r.front],
                         cases[i].reference, clips)
             for i, r in completed.items())
    iterations = sum(len(r.report["iterations"]) for r in completed.values())
    completed_s = sum(case_s[i] for i in completed)
    done = [r.seconds for r in runs if r.front is not None]
    per_case = ", ".join(f"{cases[i].label} {case_s[i]:.3f} s x{len(rs)}"
                         for i, rs in by_case.items())
    speed = statistics.median(calibrate.REFERENCE_S / r.round_s for r in runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(case_s.values()),
        "run_s_p50": statistics.median(done) if done else 0.0,
        "iters_per_s": iterations / completed_s if completed_s else 0.0,
        "front_hv": hv,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh-interpreter set-ups, scaled",
        "wall_s": f"one pass, from each case's median scaled run over "
                  f"{passes} passes ({per_case}); host ran at {speed:.2f}x "
                  "the reference speed (median)",
        "run_s_p50": f"median of {len(done)} completed runs, raw; unbounded",
        "iters_per_s": f"{iterations} iterations in {completed_s:.3f} s "
                       f"(scaled) of {len(completed)} completed cases",
        "front_hv": f"sum over {len(completed)} completed cases, "
                    f"{len(clips.clipped)} points clipped",
        "peak_rss_mb": "peak resident set of this process",
    }
    return metrics, notes, clips


def _per_layer(names, tracer, passes, untraced_walls, traced_walls, compiled):
    """Per-layer metrics per traced pass.

    ``.s`` is a span's total time; ``.self_s`` excludes its child spans.
    ``trace.remainder_s`` is icee_run time outside every layer span.
    """
    from tracing import ROOT_SPAN

    summary = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0}

    def span(name, field):
        return summary.get(name, empty)[field] / passes

    def counter(name):
        return tracer.counters.get(name, 0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in names:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = span(layer, "calls")
        elif field == "s":
            out[name] = span(layer, "total_s")
        elif field == "self_s":
            out[name] = span(layer, "self_s")
    refines = span("ordering.refine_term", "calls")
    pruned = counter("ordering.refine_term.pruned")
    terms = span("extraction.evaluate_term", "calls")
    out.update({
        "ordering.terms_pruned": pruned,
        "ordering.prune_ratio": ratio(pruned, refines),
        "ordering.optimize_enode.errors": span("ordering.optimize_enode", "raised"),
        "ordering.orders_scored": counter("ordering.orders_scored"),
        "kernels.eval_orders_chop.orders": counter("kernels.eval_orders_chop.orders"),
        "kernels.compiled": 1.0 if compiled else 0.0,
        "packing.arrangements": counter("packing.arrangements"),
        "egraph.nodes_added": counter("egraph.nodes_added"),
        "egraph.nodes_pre_contract": counter("egraph.nodes_pre_contract"),
        "egraph.nodes_post_contract": counter("egraph.nodes_post_contract"),
        "extraction.refine_cache_hit_ratio": ratio(terms - refines, terms),
        # icee_run computes the front hypervolume once per finished iteration
        "extraction.iterations": span("analysis.hypervolume", "calls"),
        "trace.remainder_s": span(ROOT_SPAN, "self_s"),
        "trace.overhead_s": min(traced_walls) - min(untraced_walls),
    })
    # The self times sum to the root span's total by construction (the
    # remainder is the root's self time); what matters is how much of the
    # traced wall the layer spans cover.
    traced_mean = sum(traced_walls) / passes
    layers_s = traced_mean - out["trace.remainder_s"]
    accounting = (f"layer spans cover {layers_s:.4f} s of the {traced_mean:.4f} s "
                  f"traced pass ({layers_s / traced_mean:.1%}, mean of {passes}); "
                  f"remainder {out['trace.remainder_s']:.4f} s; untraced pass "
                  f"{min(untraced_walls):.4f} s (fastest)")
    return {n: out[n] for n in names}, summary, accounting


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    end_to_end_units, per_layer_units = _metric_units()
    _import_program()
    import gate
    import workloads
    from planwright import kernels

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    digest = gate.source_digest(SRC)
    env = {
        "python": platform.python_version(),
        "kernels_compiled": kernels.COMPILED,
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "git_commit": _git_commit(),
        "source_sha256": digest,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }

    setups = _setup_seconds(args.workload, args.seed)
    cases, stocks, tools = workloads.build(args.workload, args.seed)

    runs: list[Run] = []
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    tracer = None
    start = time.perf_counter()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        while True:
            untraced_walls.append(_run_pass(cases, stocks, tools, runs))
            with tracing.patched(tracer):
                traced_walls.append(_run_pass(cases, stocks, tools, runs, tracer))
            if time.perf_counter() - start >= args.seconds:
                break
    else:
        while True:
            untraced_walls.append(_run_pass(cases, stocks, tools, runs,
                                            sample=True))
            if time.perf_counter() - start >= args.seconds:
                break
        metrics, notes, clips = _end_to_end(cases, runs, len(untraced_walls),
                                            setups)
        if len(untraced_walls) == 1:
            # one pass ran each case once: repeat the quickest completed case
            # (any case when none completed) so determinism is still checked
            quickest = min(runs, key=lambda r: (r.front is None, r.seconds)).case
            _run_pass(cases, stocks, tools, runs, indices=[quickest])

    problems, warnings, ratios = _gate(cases, runs, stocks, tools, digest)
    failures = Counter(f"{cases[r.case].label}: {r.error}"
                       for r in runs if r.error is not None)
    attempted, failed = len(runs), sum(failures.values())

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        units = per_layer_units
        metrics, summary, accounting = _per_layer(
            units, tracer, len(traced_walls), untraced_walls, traced_walls,
            kernels.COMPILED)
        for name in sorted(summary):
            agg = summary[name]
            print(f"  span {name:<32} calls={agg['calls']:<9} "
                  f"total={agg['total_s']:.4f}s self={agg['self_s']:.4f}s "
                  f"raised={agg['raised']}")
        print(f"accounting: {accounting}")
        spans_path = OUT_DIR / f"spans-{args.workload}-s{args.seed}.csv"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
        notes = {}
    else:
        units = end_to_end_units
        warnings += clips.warnings
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name:<38} {metrics[name]:>16.6f} {unit:<6} {note}")
    if not args.trace:
        print(f"  {'run_s_p50':<38} {metrics['run_s_p50']:>16.6f} {'s':<6} "
              f"{notes['run_s_p50']}")
    print(f"  {'fail_rate':<38} {failed / attempted:>16.6f} {'ratio':<6} "
          f"{failed} failed / {attempted} attempted")
    for text, n in sorted(failures.items()):
        print(f"  failed x{n}: {text}")
    for label, ratio in ratios.items():
        print(f"  oracle hypervolume ratio {label}: {ratio:.6f}")
    for text in warnings:
        print(f"  warning: {text}")
    for text in problems:
        print(f"  WRONG: {text}")
    correct = not problems
    print(f"correctness gate: {'pass' if correct else 'FAIL'}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    details = dict(result, environment=env, failures=failures,
                   problems=problems, warnings=warnings, oracle_ratios=ratios,
                   cases=[c.label for c in cases],
                   runs=[{"case": cases[r.case].label, "seconds": r.seconds,
                          "round_s": r.round_s,
                          "traced": r.traced, "error": r.error,
                          "front": None if r.front is None
                          else list(gate.outcome_key(r.front))}
                         for r in runs])
    (OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
