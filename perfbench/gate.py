"""Correctness gate: a wrong front fails the benchmark.

Checks every completed run:
  * each front plan re-evaluates with ``evaluate_plan`` to its reported cost;
  * no front point dominates another;
  * each plan belongs to the design it is reported with;
  * on bundled corpora, the front's hypervolume, at the case's reference
    point, is at least the share of the independent brute-force oracle's
    that the program reached when the benchmark was written (it is 1 on
    sheet-box; frame's front misses the oracle's two cheapest plans, so
    its share is 0.797);
  * repeated runs of one case give identical front rows (or the same error).

The oracle front is computed outside the timed region and cached under
``.bench_build/perfbench``, keyed by a digest of the program's sources.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from planwright import corpus_path
from planwright.analysis import ClipReport, hypervolume, point_dominates
from planwright.cost import evaluate_plan
from planwright.io import front_rows, load_design_space
from planwright.oracle import brute_force_front

# Lowest accepted share of the oracle front's hypervolume, per corpus. The
# program reached 0.7971 (frame) and 1.0 (sheet-box); dropping any one front
# point takes each case below its threshold.
MIN_ORACLE_HV_RATIO = {"frame": 0.79, "sheet-box": 0.99}


def source_digest(src: Path) -> str:
    """Digest of every file of the planwright package (code and data)."""
    h = hashlib.sha256()
    pkg = src / "planwright"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def oracle_points(corpus: str, mode: int, stocks, tools, cache_dir: Path,
                  digest: str) -> list[tuple[float, ...]]:
    path = cache_dir / f"oracle-{corpus}-{mode}-{digest[:16]}.json"
    if path.is_file():
        return [tuple(p) for p in json.loads(path.read_text())]
    space = load_design_space(corpus_path(corpus))
    points = sorted({cost.objectives for _, _, cost
                     in brute_force_front(space, stocks, tools, mode)})
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(points))
    os.replace(tmp, path)
    return points


def outcome_key(front) -> tuple[str, ...]:
    return tuple(row.line() for row in front_rows(front))


def check_front(case, front, tools) -> list[str]:
    """Problems with one completed front; empty when it is sound."""
    mode = case.params.objective_mode
    problems = []
    for sol in front:
        again = evaluate_plan(sol.plan, tools).vector(mode)
        if again != sol.cost:
            problems.append(f"{case.label}: plan re-evaluates to "
                            f"{again.objectives}, reported {sol.cost.objectives}")
        if sol.plan.design_id != sol.design.id:
            problems.append(f"{case.label}: plan of {sol.plan.design_id!r} "
                            f"reported for {sol.design.id!r}")
    points = [s.cost.objectives for s in front]
    for a in points:
        if any(point_dominates(b, a) for b in points):
            problems.append(f"{case.label}: front point {a} is dominated")
    return problems


def check_oracle(case, front, stocks, tools, cache_dir, digest):
    """(hypervolume ratio to the oracle front, problems, clip warnings)."""
    oracle = oracle_points(case.corpus, case.params.objective_mode, stocks,
                           tools, cache_dir, digest)
    clips = ClipReport()
    ratio = (hypervolume([s.cost.objectives for s in front], case.reference,
                         clips)
             / hypervolume(oracle, case.reference, clips))
    least = MIN_ORACLE_HV_RATIO[case.corpus]
    problems = []
    if ratio < least:
        problems.append(f"{case.label}: hypervolume ratio to oracle "
                        f"{ratio:.5f} < {least}")
    return ratio, problems, [f"{case.label}: {w}" for w in clips.warnings]
