import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwright.analysis import (
    DEFAULT_PRICES,
    ClipReport,
    _clip,
    hypervolume,
    improvement_table,
    pareto_filter,
    point_dominates,
    scalar_cost,
    scalarize,
)
from planwright.model import CostVector


def hypervolume_inclusion_exclusion(points, ref):
    """Reference: the hypervolume of `points` clipped to `ref`, summed by
    inclusion-exclusion over every subset of their front. Exponential time,
    for small fronts only."""
    pts = pareto_filter(_clip(points, ref, ClipReport()))
    hv = 0.0
    for r in range(1, len(pts) + 1):
        for subset in itertools.combinations(pts, r):
            vol = 1.0
            for d in range(len(ref)):
                edge = ref[d] - max(p[d] for p in subset)
                vol *= max(edge, 0.0)
            hv += vol if r % 2 == 1 else -vol
    return hv


def cv(f_c, f_t):
    return CostVector(f_c=f_c, f_t=f_t)


def test_dominates_trivials():
    assert point_dominates((1, 1), (2, 2))
    assert point_dominates((1, 2), (1, 3))
    assert not point_dominates((1, 1), (1, 1))
    assert not point_dominates((1, 3), (2, 2))


def oracle_pareto(points):
    unique = sorted(set(points))
    return [p for p in unique
            if not any(
                all(x <= y for x, y in zip(q, p)) and q != p for q in unique)]


def test_pareto_filter_against_quadratic_oracle():
    rng = random.Random("pf")
    for dim in (2, 3):
        points = [tuple(rng.randint(0, 20) for _ in range(dim))
                  for _ in range(1000)]
        assert pareto_filter(points) == oracle_pareto(points)


def test_pareto_filter_dedup_and_sorted():
    out = pareto_filter([(1.0, 2.0), (1.0, 2.0), (2.0, 1.0)])
    assert out == [(1.0, 2.0), (2.0, 1.0)]
    # keyed: first item per non-dominated key, returned sorted by key
    items = [("c", (2.0, 1.0)), ("a", (1.0, 2.0)), ("x", (2.0, 2.0)),
             ("b", (1.0, 2.0)), ("d", (2.0, 1.0))]
    out = pareto_filter(items, key=lambda item: item[1])
    assert out == [("a", (1.0, 2.0)), ("c", (2.0, 1.0))]


def test_hypervolume_exact_2d():
    assert hypervolume([(0.0, 0.0)], (1.0, 1.0), ClipReport()) == 1.0
    assert hypervolume([(0.5, 0.5)], (1.0, 1.0), ClipReport()) == 0.25
    # two-point staircase: 0.5*0.8 + (0.8-0.5)*0.4... laid out explicitly:
    # (0.2, 0.6) contributes (1-0.2)*(1-0.6)=0.32; (0.6, 0.2) adds
    # (1-0.6)*(0.6-0.2)=0.16 -> 0.48
    assert hypervolume([(0.2, 0.6), (0.6, 0.2)], (1.0, 1.0),
                       ClipReport()) == pytest.approx(0.48)


def test_hypervolume_3d_matches_inclusion_exclusion():
    rng = random.Random("hv3")
    for _ in range(25):
        pts = [tuple(rng.uniform(0, 1) for _ in range(3)) for _ in range(6)]
        ref = (1.0, 1.0, 1.0)
        assert hypervolume(pts, ref, ClipReport()) == pytest.approx(
            hypervolume_inclusion_exclusion(pts, ref), abs=1e-9)


def test_hypervolume_monte_carlo_check():
    rng = random.Random("mc")
    pts = [tuple(rng.uniform(0, 1) for _ in range(3)) for _ in range(5)]
    ref = (1.0, 1.0, 1.0)
    n = 200_000
    hits = 0
    for _ in range(n):
        x = tuple(rng.uniform(0, 1) for _ in range(3))
        if any(all(p[d] <= x[d] for d in range(3)) for p in pts):
            hits += 1
    estimate = hits / n
    sigma = (estimate * (1 - estimate) / n) ** 0.5
    assert abs(hypervolume(pts, ref, ClipReport()) - estimate) < 5 * sigma + 1e-6


def test_hypervolume_clips_and_warns():
    report = ClipReport()
    hv = hypervolume([(0.5, 0.5), (2.0, 0.1)], (1.0, 1.0), report)
    assert report.clipped == [(2.0, 0.1)]
    assert len(report.warnings) == 1
    # clipping to the reference boundary zeroes the offender's contribution
    assert hv == pytest.approx(0.25)


def test_hypervolume_empty_and_degenerate():
    assert hypervolume([], (1.0, 1.0), ClipReport()) == 0.0
    assert hypervolume([(1.0, 1.0)], (1.0, 1.0), ClipReport()) == 0.0


@pytest.mark.parametrize("ref", [(float("nan"), 1.0), (1.0, float("inf")),
                                 (0.0, 0.0, -float("inf"))])
def test_hypervolume_rejects_non_finite_reference(ref):
    for points in ([], [(0.5,) * len(ref)]):
        with pytest.raises(ValueError, match="not finite"):
            hypervolume(points, ref, ClipReport())


@pytest.mark.parametrize("ref", [(1.0,), (1.0, 1.0, 1.0, 1.0)])
def test_hypervolume_rejects_a_reference_of_another_dimension(ref):
    # an empty front is no exception
    for points in ([], [(0.5,) * len(ref)]):
        with pytest.raises(ValueError, match="2 or 3 objectives"):
            hypervolume(points, ref, ClipReport())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 0.99), st.floats(0, 0.99)), min_size=1,
                max_size=8))
def test_hypervolume_front_invariance(points):
    ref = (1.0, 1.0)
    assert hypervolume(points, ref, ClipReport()) == pytest.approx(
        hypervolume(pareto_filter(points), ref, ClipReport()))


def test_scalar_cost_units():
    # 30 minutes at $40/h adds $20 of labor
    assert scalar_cost(cv(5.0, 30.0), 40.0) == pytest.approx(25.0)
    assert scalar_cost(cv(5.0, 30.0), 0.0) == 5.0


def test_scalarize_picks_min_and_breaks_ties():
    front = [cv(10.0, 0.0), cv(4.0, 90.0), cv(6.0, 30.0)]
    idx, value = scalarize(front, 0.0)
    assert (idx, value) == (1, 4.0)
    idx, value = scalarize(front, 4.0)  # costs: 10, 10, 8
    assert (idx, value) == (2, 8.0)
    idx, _ = scalarize(front, 240.0)  # costs: 10, 364, 126 -> first
    assert idx == 0
    # exact tie: prefer lower f_c
    idx, _ = scalarize([cv(2.0, 60.0), cv(1.0, 120.0)], 1.0)
    assert idx == 1
    with pytest.raises(ValueError):
        scalarize([], 0.0)
    for price in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="labor price"):
            scalarize(front, price)
        with pytest.raises(ValueError, match="labor price"):
            improvement_table(front, front, (0, price))


def test_improvement_table_zero_when_equal():
    front = [cv(10.0, 5.0)]
    assert improvement_table(front, front, DEFAULT_PRICES) == [0] * 8


def test_improvement_table_frozen_example():
    base = [cv(10.0, 209.0)]
    better = [cv(8.5, 242.0), cv(12.0, 82.0)]
    got = improvement_table(base, better, DEFAULT_PRICES)
    # price 0: (10 - 8.5) / 10 = 15%
    assert got[0] == 15
    assert all(isinstance(v, int) for v in got)


def test_improvement_table_none_on_zero_baseline():
    assert improvement_table([cv(0.0, 0.0)], [cv(1.0, 1.0)], DEFAULT_PRICES)[0] is None


def test_point_dominates():
    assert point_dominates((1.0, 1.0), (1.0, 2.0))
    assert not point_dominates((1.0, 2.0), (2.0, 1.0))
