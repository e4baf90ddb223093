"""ICEE driver: iterative expansion, GA-based Pareto extraction, contraction.

Each iteration picks designs (depth: reuse a design already on the front,
with probability alpha; breadth: a fresh variant), expands their e-graphs
with new arrangements, optimizes new atomic nodes' cut orders, extracts
non-dominated terms (exhaustively when the term space is small, otherwise
with an NSGA-II style GA), merges into the archive, and contracts each
e-graph to its top-n nodes per class.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace

from .analysis import default_reference, hypervolume, pareto_filter
from .cost import FabPlan, PlanCost
from .designspace import DesignSpace, enumerate_variants, sample_design
from .egraph import AtomicNode, BopEGraph, Term
from .libraries import DEFAULT_KERF
from .model import CostVector, Design, StockSpec, Tool, ToolSpec, validate_design
from .ordering import NodeMemo, OrderCache, optimize_enode, refine_term
from .packing import generate_arrangements

BREADTH_ENUMERATION_LIMIT = 1024  # design spaces this small are swept in order


@dataclass(frozen=True)
class IceeParams:
    traversals: int = 50          # packing traversal budget T
    top_nodes: int = 10           # contraction keeps n nodes per class
    population: int = 120
    p_crossover: float = 0.95
    p_mutation: float = 0.1
    flip_iters: int = 20          # refinement passes t
    alpha: float = 0.75           # depth (reuse) vs breadth (new design)
    iterations: int = 10
    objective_mode: int = 2       # 2 = (f_c, f_t); 3 adds f_p
    seed: int = 0
    generations: int = 8          # GA generations per extraction
    designs_per_iter: int = 2

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be in [0, 1]")
        if not (0.0 <= self.p_crossover <= 1.0 and 0.0 <= self.p_mutation <= 1.0):
            raise ValueError("probabilities must be in [0, 1]")
        if self.objective_mode not in (2, 3):
            raise ValueError("objective_mode must be 2 or 3")
        for name in ("traversals", "top_nodes", "population", "iterations",
                     "designs_per_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class Solution:
    design: Design
    plan: FabPlan
    cost: CostVector
    term: Term | None = None


class ValidationFailure(ValueError):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations))


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(f"{seed}/" + "/".join(str(t) for t in tags))


@dataclass
class _DesignState:
    design: Design
    egraph: BopEGraph
    cache: OrderCache = field(default_factory=dict)
    refine_cache: dict[tuple, list[tuple[FabPlan, PlanCost]]] = field(default_factory=dict)


def _front_points(archive: list[Solution]) -> list[tuple[float, ...]]:
    return [s.cost.objectives for s in archive]


def _merge_archive(archive: list[Solution], new: list[Solution]) -> list[Solution]:
    return pareto_filter(archive + new, key=lambda s: s.cost.objectives)


def _node_scalar_bound(state: _DesignState):
    """Per-node scalarized lower bound used for contraction tie-breaking."""
    memo: dict[str, float] = {}
    egraph = state.egraph

    def class_min(cid: str) -> float:
        return min(bound(nid) for nid in egraph.classes[cid].nodes)

    def bound(nid: str) -> float:
        if nid in memo:
            return memo[nid]
        node = egraph.nodes[nid]
        if isinstance(node, AtomicNode):
            orders = state.cache.get(nid)
            value = node.spec.effective_price()
            if orders is not None:
                value += orders.best_time_cost[1] / 60.0
                value += orders.best_precision_cost[0] / 64.0
        else:
            value = sum(class_min(cid) for cid in node.children)
        memo[nid] = value
        return value

    return bound


def evaluate_term(
    state: _DesignState,
    term: Term,
    tools: dict[Tool, ToolSpec],
    params: IceeParams,
    archive_front: list[tuple[float, ...]],
    rng: random.Random,
) -> list[Solution]:
    key = term.signature()
    cached = state.refine_cache.get(key)
    if cached is None:
        cached = refine_term(
            state.egraph, term, state.cache, tools, archive_front,
            params.flip_iters, rng, params.objective_mode,
        )
        state.refine_cache[key] = cached
    return [
        Solution(design=state.design, plan=plan,
                 cost=cost.vector(params.objective_mode), term=term)
        for plan, cost in cached
    ]


def _enumerate_terms(egraph: BopEGraph, limit: int) -> list[Term] | None:
    """All terms when the space is small; None when it exceeds `limit`."""
    if egraph.root is None or egraph.count_terms() > limit:
        return None

    def class_terms(cid: str) -> list[dict[str, str]]:
        out = []
        for nid in egraph.classes[cid].nodes:
            node = egraph.nodes[nid]
            if isinstance(node, AtomicNode):
                out.append({cid: nid})
            else:
                partials = [{cid: nid}]
                for child in node.children:
                    extended = []
                    for sub in class_terms(child):
                        for p in partials:
                            merged = dict(p)
                            merged.update(sub)
                            extended.append(merged)
                    partials = extended
                out.extend(partials)
        return out

    return [Term(root=egraph.root, chosen=c) for c in class_terms(egraph.root)]


# -- NSGA-II helpers ----------------------------------------------------------


def non_dominated_sort(objs: list[tuple[float, ...]]) -> list[int]:
    """Rank per individual (0 = best front)."""
    n = len(objs)
    ranks = [0] * n
    dominated_by = [0] * n
    dominates_list: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        a = objs[i]
        for j in range(i + 1, n):
            b = objs[j]
            if a == b:
                continue
            # distinct tuples: weakly better everywhere means dominating
            if all(x <= y for x, y in zip(a, b)):
                dominates_list[i].append(j)
                dominated_by[j] += 1
            elif all(x >= y for x, y in zip(a, b)):
                dominates_list[j].append(i)
                dominated_by[i] += 1
    current = [i for i in range(n) if dominated_by[i] == 0]
    rank = 0
    while current:
        nxt = []
        for i in current:
            ranks[i] = rank
            for j in dominates_list[i]:
                dominated_by[j] -= 1
                if dominated_by[j] == 0:
                    nxt.append(j)
        current = nxt
        rank += 1
    return ranks


def crowding_distance(objs: list[tuple[float, ...]], indices: list[int]) -> dict[int, float]:
    dist = {i: 0.0 for i in indices}
    if not indices:
        return dist
    m = len(objs[indices[0]])
    for d in range(m):
        ordered = sorted(indices, key=lambda i: objs[i][d])
        lo, hi = objs[ordered[0]][d], objs[ordered[-1]][d]
        dist[ordered[0]] = dist[ordered[-1]] = float("inf")
        if hi == lo:
            continue
        for k in range(1, len(ordered) - 1):
            gap = objs[ordered[k + 1]][d] - objs[ordered[k - 1]][d]
            dist[ordered[k]] += gap / (hi - lo)
    return dist


def ga_extract(
    state: _DesignState,
    tools: dict[Tool, ToolSpec],
    params: IceeParams,
    archive_front: list[tuple[float, ...]],
    rng: random.Random,
) -> list[Solution]:
    """Non-dominated solutions of one design's e-graph.

    Small term spaces are enumerated exactly; larger ones run a rank +
    crowding GA with e-node choice crossover and re-sampling mutation.
    """
    egraph = state.egraph
    if egraph.root is None:
        return []

    all_terms = _enumerate_terms(egraph, params.population)
    collected: list[Solution] = []
    if all_terms is not None:
        for term in all_terms:
            collected.extend(
                evaluate_term(state, term, tools, params, archive_front, rng))
        return _merge_archive([], collected)

    population = [egraph.sample_term(rng) for _ in range(params.population)]
    worst = tuple([float("inf")] * params.objective_mode)

    def fitness(term: Term) -> tuple[float, ...]:
        sols = evaluate_term(state, term, tools, params, archive_front, rng)
        collected.extend(sols)
        if not sols:
            return worst
        return min(s.cost.objectives for s in sols)

    fitnesses = [fitness(t) for t in population]

    for _ in range(params.generations):
        ranks = non_dominated_sort(fitnesses)
        crowd = crowding_distance(fitnesses, list(range(len(population))))

        def tournament() -> Term:
            i, j = rng.randrange(len(population)), rng.randrange(len(population))
            if (ranks[i], -crowd[i]) <= (ranks[j], -crowd[j]):
                return population[i]
            return population[j]

        offspring: list[Term] = []
        while len(offspring) < params.population:
            a, b = tournament(), tournament()
            choices = dict(a.chosen)
            if rng.random() < params.p_crossover:
                shared = sorted(set(a.chosen) & set(b.chosen))
                if shared:
                    pick = rng.choice(shared)
                    choices[pick] = b.chosen[pick]
            child = egraph.term_from_choices(choices)
            if rng.random() < params.p_mutation:
                cid = rng.choice(sorted(child.chosen))
                mutated = dict(child.chosen)
                mutated[cid] = rng.choice(egraph.classes[cid].nodes)
                child = egraph.term_from_choices(mutated)
            offspring.append(child)
        population = offspring
        fitnesses = [fitness(t) for t in population]

    return _merge_archive([], collected)


# -- outer loop ----------------------------------------------------------------


def _ensure_state(
    states: dict[str, _DesignState], design: Design
) -> _DesignState:
    if design.id not in states:
        part_ids = frozenset(p.id for p in design.parts)
        states[design.id] = _DesignState(
            design=design, egraph=BopEGraph(design.id, part_ids))
    return states[design.id]


def _expand(
    state: _DesignState,
    stock_lib: list[StockSpec],
    tools: dict[Tool, ToolSpec],
    budget: int,
    memo: NodeMemo,
    rng: random.Random,
) -> None:
    arrangements = generate_arrangements(
        state.design, stock_lib, budget, DEFAULT_KERF, rng)
    parts_by_id = {p.id: p for p in state.design.parts}
    for arrangement in arrangements:
        for nid in state.egraph.add_arrangement(arrangement):
            node = state.egraph.nodes[nid]
            if isinstance(node, AtomicNode):
                state.cache[nid] = optimize_enode(node, parts_by_id, tools, memo)
    # new arrangements invalidate cached refinement pruning decisions
    state.refine_cache.clear()


def icee_run(
    space: DesignSpace,
    stock_lib: list[StockSpec],
    tools: dict[Tool, ToolSpec],
    params: IceeParams,
) -> tuple[list[Solution], dict]:
    """Full co-optimization; returns (front, report)."""
    base = space.base_design()
    violations = validate_design(base, stock_lib)
    if violations:
        raise ValidationFailure(violations)

    states: dict[str, _DesignState] = {}
    node_memo: NodeMemo = {}  # node cut orders per pattern, for this run's tools
    archive: list[Solution] = []
    ref = default_reference(params.objective_mode)
    report_iters: list[dict] = []
    enumerated: list[Design] = []
    if space.cardinality <= BREADTH_ENUMERATION_LIMIT:
        enumerated = enumerate_variants(space, space.cardinality)
    breadth_cursor = 0
    terms_refined = 0
    prev_hv = None
    stall = 0

    for iteration in range(params.iterations):
        rng_iter = _rng(params.seed, "iter", iteration)
        chosen: list[Design] = []
        for slot in range(params.designs_per_iter):
            if iteration == 0 and slot == 0:
                chosen.append(base)
                continue
            if slot == 0 and enumerated and breadth_cursor < len(enumerated):
                # sweep small design spaces systematically, one per iteration
                while breadth_cursor < len(enumerated):
                    candidate = enumerated[breadth_cursor]
                    breadth_cursor += 1
                    if candidate.id not in states:
                        break
                else:
                    candidate = base
                chosen.append(candidate)
                continue
            depth_pool = sorted({s.design.id for s in archive})
            if archive and rng_iter.random() < params.alpha:
                did = rng_iter.choice(depth_pool)
                chosen.append(states[did].design)
            else:
                design = None
                if enumerated:
                    while breadth_cursor < len(enumerated):
                        candidate = enumerated[breadth_cursor]
                        breadth_cursor += 1
                        if candidate.id not in states:
                            design = candidate
                            break
                if design is None:
                    design = (sample_design(space, rng_iter)
                              if space.cardinality > len(enumerated)
                              else None)
                if design is None:
                    did = rng_iter.choice(sorted(states)) if states else None
                    design = states[did].design if did else base
                chosen.append(design)

        budget = max(1, params.traversals // max(1, len(chosen)))
        front_pts = _front_points(archive)
        new_solutions: list[Solution] = []
        for k, design in enumerate(chosen):
            state = _ensure_state(states, design)
            if validate_design(design, stock_lib):
                continue
            rng_task = _rng(params.seed, "design", design.id, iteration, k)
            _expand(state, stock_lib, tools, budget, node_memo, rng_task)
            sols = ga_extract(state, tools, params, front_pts, rng_task)
            terms_refined += len(state.refine_cache)
            new_solutions.extend(sols)

        archive = _merge_archive(archive, new_solutions)

        for design in chosen:
            state = states[design.id]
            front_terms = [s.term for s in archive
                           if s.design.id == design.id and s.term is not None]
            state.egraph.contract(front_terms, params.top_nodes,
                                  _node_scalar_bound(state))

        hv = hypervolume(_front_points(archive), ref)
        report_iters.append({
            "iteration": iteration,
            "designs": sorted({d.id for d in chosen}),
            "terms_refined": terms_refined,
            "front_size": len(archive),
            "hypervolume": hv,
        })
        if prev_hv is not None and prev_hv > 0 and (hv - prev_hv) / prev_hv < 0.01:
            stall += 1
        else:
            stall = 0
        prev_hv = hv
        sweep_pending = enumerated and any(
            d.id not in states for d in enumerated)
        if stall >= 3 and not sweep_pending:
            break

    report = {
        "params": asdict(params),
        "reference_point": list(ref),
        "iterations": report_iters,
        "design_space_cardinality": space.cardinality,
        "designs_explored": sorted(states),
        "term_space_sizes": {
            did: states[did].egraph.count_terms() for did in sorted(states)
        },
        "front_size": len(archive),
        "hypervolume": report_iters[-1]["hypervolume"] if report_iters else 0.0,
    }
    return archive, report


def baseline_run(
    space: DesignSpace,
    stock_lib: list[StockSpec],
    tools: dict[Tool, ToolSpec],
    params: IceeParams,
) -> tuple[list[Solution], dict]:
    """ICEE restricted to the input design (no variant exploration)."""
    restricted = DesignSpace(
        base_id=space.base_id,
        base_parts=space.base_parts,
        joints=tuple(
            replace(j, variants=(j.variants[0],)) for j in space.joints
        ),
    )
    return icee_run(restricted, stock_lib, tools, params)

