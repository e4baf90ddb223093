"""ICEE driver: iterative expansion, GA-based Pareto extraction, contraction.

Each iteration picks designs (depth: reuse a design already on the front,
with probability alpha; breadth: a fresh variant), expands their e-graphs
with new arrangements, optimizes new atomic nodes' cut orders, extracts
non-dominated terms (exhaustively when the term space is small, otherwise
with an NSGA-II style GA), merges into the archive, and contracts each
e-graph to its top-n nodes per class. A term is one flat tuple of node ids
(`egraph.Individual`) in the GA, refinement, solutions and contraction.
Small design spaces are swept lazily, one design at a time. A design whose
expansion drew no traversal and whose terms were all enumerated is
exhausted: a later pick of it is neither expanded nor extracted, since it
would re-add the same arrangements and re-find costs already merged, but
it is still contracted.

The run keeps three memos: traversal packings (`packing.PackingMemo`),
node cut orders by packing and cut pattern (`NodeMemo`) and term recipes
by cut patterns (`TermMemo`). Extraction works on the recipes' costs and
builds a `FabPlan` only for each solution it returns.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import asdict, dataclass, field, replace

from .analysis import ClipReport, default_reference, hypervolume, pareto_filter
from .cost import FabPlan
from .designspace import DesignSpace, iter_variants, sample_design
from .egraph import AtomicNode, BopEGraph, Individual
from .model import CostVector, Design, StockSpec, Tool, ToolSpec
from .ordering import (
    NodeMemo,
    OrderCache,
    Recipe,
    TermMemo,
    TermStocks,
    build_plan,
    optimize_enode,
    refine_term,
)
from .packing import InfeasiblePartError, PackingMemo, generate_arrangements, part_groups

BREADTH_ENUMERATION_LIMIT = 1024  # design spaces this small are swept in order
P_CROSSOVER = 0.95  # GA: chance an offspring takes one class's node from its second parent
P_MUTATION = 0.1  # GA: chance an offspring re-draws one class's node


@dataclass(frozen=True)
class IceeParams:
    traversals: int = 50          # packing traversal budget T
    top_nodes: int = 10           # contraction keeps n nodes per class
    population: int = 120
    alpha: float = 0.75           # depth (reuse) vs breadth (new design)
    iterations: int = 10
    objective_mode: int = 2       # 2 = (f_c, f_t); 3 adds f_p
    seed: int = 0
    generations: int = 8          # GA generations per extraction
    designs_per_iter: int = 2

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be in [0, 1]")
        if self.objective_mode not in (2, 3):
            raise ValueError("objective_mode must be 2 or 3")
        for name in ("traversals", "top_nodes", "population", "iterations",
                     "designs_per_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")


@dataclass(frozen=True, slots=True)
class Solution:
    design: Design
    plan: FabPlan
    cost: CostVector
    term: Individual | None = None


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(f"{seed}/" + "/".join(str(t) for t in tags))


@dataclass
class _DesignState:
    design: Design
    egraph: BopEGraph
    cache: OrderCache = field(default_factory=dict)
    exhausted: bool = False  # a re-pick would add nothing (set by `_expand`)


def _merge_archive(archive: list[Solution], new: list[Solution]) -> list[Solution]:
    return pareto_filter(archive + new, key=lambda s: s.cost.objectives)


def _node_scalar_bound(state: _DesignState):
    """Per-node scalarized lower bound used for contraction tie-breaking."""
    egraph = state.egraph

    @functools.cache
    def bound(nid: str) -> float:
        node = egraph.nodes[nid]
        if isinstance(node, AtomicNode):
            table = state.cache[nid].steps
            return (node.spec.effective_price() + table.best_time[1][1] / 60.0
                    + table.best_precision[1][0] / 64.0)
        return sum(min(bound(child) for child in egraph.classes[cid].nodes)
                   for cid in node.children)

    return bound


# one extraction's refined terms, in first-evaluation order: term -> (its stocks, recipes)
RefineCache = dict[Individual, tuple[TermStocks, tuple[Recipe, ...]]]


def evaluate_term(
    state: _DesignState,
    individual: Individual,
    params: IceeParams,
    memo: TermMemo,
    refine_cache: RefineCache,
) -> tuple[Recipe, ...]:
    """Refine the term: its stocks and its recipes, each with its cost
    vector, go into `refine_cache`."""
    refine_cache[individual] = refine_term(state.egraph, individual, state.cache,
                                           params.objective_mode, memo)
    return refine_cache[individual][1]


# -- NSGA-II helpers ----------------------------------------------------------


def non_dominated_sort(objs: list[tuple[float, ...]]) -> list[int]:
    """Rank per individual (0 = best front).

    Efficient non-dominated sort, sequential search (Zhang et al., IEEE TEC
    2015), over the distinct tuples only: taken in lexicographic order, a
    tuple can be dominated only by tuples already placed, so each goes to
    the first front that holds no tuple dominating it. Equal tuples share
    a rank, as they do under the all-pairs sort.
    """
    fronts: list[list[tuple[float, ...]]] = []
    rank_of: dict[tuple[float, ...], int] = {}
    for a in sorted(set(objs)):
        for rank, front in enumerate(fronts):
            # distinct tuples: weakly better everywhere means dominating
            if not any(all(x <= y for x, y in zip(b, a)) for b in front):
                break
        else:
            rank = len(fronts)
            fronts.append([])
        fronts[rank].append(a)
        rank_of[a] = rank
    return [rank_of[a] for a in objs]


def crowding_distance(objs: list[tuple[float, ...]]) -> list[float]:
    """Crowding distance of each individual (extremes are infinite)."""
    dist = [0.0] * len(objs)
    if not objs:
        return dist
    for d in range(len(objs[0])):
        ordered = sorted(range(len(objs)), key=lambda i: objs[i][d])
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
    params: IceeParams,
    rng: random.Random,
    memo: TermMemo,
) -> tuple[list[Solution], int]:
    """Non-dominated solutions of one design's e-graph, and the number of
    distinct terms refined.

    Small term spaces are enumerated exactly; larger ones run a rank +
    crowding GA with e-node choice crossover and re-sampling mutation, on
    the recipes' costs alone. Individuals are flat (`egraph.Individual`),
    and each distinct one is refined once, when first drawn. Each evaluated
    term's recipes are filtered once, in the order of the terms' first
    evaluations, keeping the first of each cost, and only the kept ones are
    built into plans.
    """
    egraph = state.egraph
    refine_cache: RefineCache = {}

    def evaluated() -> tuple[list[Solution], int]:
        kept = pareto_filter(
            [(term, stocks, recipe) for term, (stocks, recipes) in refine_cache.items()
             for recipe in recipes],
            key=lambda entry: entry[2][2].objectives)
        return [Solution(design=state.design, cost=recipe[2], term=term,
                         plan=build_plan(egraph.design_id, stocks, recipe))
                for term, stocks, recipe in kept], len(refine_cache)

    if egraph.count_terms() <= params.population:
        for individual in egraph.individuals():
            evaluate_term(state, individual, params, memo, refine_cache)
        return evaluated()

    root = egraph.root
    # per root node: (class, slot) of its individuals' classes, by class
    ranked = {nid: sorted((cid, slot) for slot, cid in enumerate((root, *egraph.slots(nid))))
              for nid in egraph.classes[root].nodes}

    @functools.cache
    def fitness(individual: Individual) -> tuple[float, ...]:
        # every term has a plan: refinement keeps a best of its candidates
        recipes = evaluate_term(state, individual, params, memo, refine_cache)
        return min(recipe[2].objectives for recipe in recipes)

    @functools.cache
    def pair(a: str, b: str) -> tuple[list, tuple]:
        """For root nodes a then b: the slots in a and in b of each class both
        have, by class (crossover's draw), and per later slot of b its class's
        slot in a (0 if none) and first node (the fill for a new root b)."""
        in_a = dict(ranked[a])
        return ([(in_a[cid], slot) for cid, slot in ranked[b] if cid in in_a],
                tuple((in_a.get(cid, 0), egraph.classes[cid].nodes[0])
                      for cid in egraph.slots(b)))

    def replaced(individual: Individual, slot: int, nid: str) -> Individual:
        """The individual with `nid` in `slot`; a new root node keeps the nodes
        of the classes both roots have and takes the first node of the rest."""
        if slot:
            return (*individual[:slot], nid, *individual[slot + 1:])
        fill = pair(individual[0], nid)[1]
        return (nid, *[individual[i] if i else first for i, first in fill])

    population = [egraph.sample(rng) for _ in range(params.population)]
    fitnesses = [fitness(ind) for ind in population]

    for _ in range(params.generations):
        keys = list(zip(non_dominated_sort(fitnesses),
                        [-d for d in crowding_distance(fitnesses)]))

        def tournament() -> Individual:
            i, j = rng.randrange(len(population)), rng.randrange(len(population))
            return population[i] if keys[i] <= keys[j] else population[j]

        offspring: list[Individual] = []
        while len(offspring) < params.population:
            a, b = tournament(), tournament()
            child = a
            if rng.random() < P_CROSSOVER:
                slot_a, slot_b = rng.choice(pair(a[0], b[0])[0])
                child = replaced(a, slot_a, b[slot_b])
            if rng.random() < P_MUTATION:
                cid, slot = rng.choice(ranked[child[0]])
                child = replaced(child, slot, rng.choice(egraph.classes[cid].nodes))
            offspring.append(child)
        population = offspring
        fitnesses = [fitness(ind) for ind in population]

    return evaluated()


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
    packing_memo: PackingMemo,
    rng: random.Random,
    population: int,
) -> None:
    """Add the design's arrangements to its e-graph and search the new
    atomic nodes' cut orders.

    When no traversal was drawn from `rng` (every part group's orders fit
    the budget), the arrangements depend on the design and budget alone,
    and a re-pick would add them again. If the term space then fits
    `population`, extraction enumerates it, so a re-pick would also find
    the same terms again: the state is marked exhausted."""
    drawn = rng.getstate()
    arrangements = generate_arrangements(state.design, stock_lib, budget, tools, rng,
                                         packing_memo)
    parts_by_id = {p.id: p for p in state.design.parts}
    for arrangement in arrangements:
        for nid in state.egraph.add_arrangement(arrangement):
            node = state.egraph.nodes[nid]
            if isinstance(node, AtomicNode):
                state.cache[nid] = optimize_enode(node, parts_by_id, memo)
    state.exhausted = (rng.getstate() == drawn
                       and state.egraph.count_terms() <= population)


def icee_run(
    space: DesignSpace,
    stock_lib: list[StockSpec],
    tools: dict[Tool, ToolSpec],
    params: IceeParams,
) -> tuple[list[Solution], dict]:
    """Full co-optimization; returns (front, report).

    Raises InfeasiblePartError when the base design has no packing; a
    chosen variant with none is skipped."""
    base = space.base_design()
    part_groups(base, stock_lib)

    states: dict[str, _DesignState] = {}
    packing_memo: PackingMemo = {}  # traversal packings, for this run's stocks and tools
    node_memo = NodeMemo(tools)  # node cut orders and steps per pattern
    term_memo: TermMemo = {}  # term order fronts per pattern, for this run's tools and mode
    archive: list[Solution] = []
    ref = default_reference(params.objective_mode)
    report_iters: list[dict] = []
    terms_refined = 0
    prev_hv = None
    stall = 0
    clip = ClipReport()  # the last front's points outside the reference box
    swept = 0  # designs the sweep has yielded, explored or not

    def sweep():
        """A small design space's designs in order, checked against the explored
        ones when pulled: only the base, yielded first, is explored sooner."""
        nonlocal swept
        if space.cardinality <= BREADTH_ENUMERATION_LIMIT:
            for design in iter_variants(space):
                swept += 1
                if design.id not in states:
                    yield design

    unexplored = sweep()

    for iteration in range(params.iterations):
        rng_iter = _rng(params.seed, "iter", iteration)
        chosen: list[Design] = []
        for slot in range(params.designs_per_iter):
            if iteration == 0 and slot == 0:
                chosen.append(base)
                continue
            if slot == 0 and (design := next(unexplored, None)):
                # sweep small design spaces systematically, one per iteration
                chosen.append(design)
                continue
            depth_pool = sorted({s.design.id for s in archive})
            if archive and rng_iter.random() < params.alpha:
                did = rng_iter.choice(depth_pool)
                chosen.append(states[did].design)
            else:
                design = next(unexplored, None)
                if design is None and space.cardinality > swept:
                    # the sweep is done and missed some selection
                    design = sample_design(space, rng_iter)
                if design is None:
                    # states is empty only while iteration 0 picks its slots
                    design = (states[rng_iter.choice(sorted(states))].design
                              if states else base)
                chosen.append(design)

        budget = max(1, params.traversals // len(chosen))
        new_solutions: list[Solution] = []
        expanded: set[str] = set()
        for k, design in enumerate(chosen):
            state = _ensure_state(states, design)
            if state.exhausted:
                # its arrangements and terms are all in, their costs merged
                continue
            rng_task = _rng(params.seed, "design", design.id, iteration, k)
            try:
                # part_groups raises before any packing or rng_task draw, so
                # a design with no packing leaves its e-graph empty
                _expand(state, stock_lib, tools, budget, node_memo, packing_memo, rng_task,
                        params.population)
            except InfeasiblePartError:
                continue
            expanded.add(design.id)
            sols, refined = ga_extract(state, params, rng_task, term_memo)
            terms_refined += refined
            new_solutions.extend(sols)

        archive = _merge_archive(archive, new_solutions)

        for design in chosen:
            state = states[design.id]
            front_terms = [s.term for s in archive if s.design.id == design.id]
            state.egraph.contract(front_terms, params.top_nodes,
                                  _node_scalar_bound(state))
            # node ids are never reused: a removed node's orders are dead
            state.cache = {nid: orders for nid, orders in state.cache.items()
                           if nid in state.egraph.nodes}

        clip = ClipReport()
        hv = hypervolume([s.cost.objectives for s in archive], ref, clip)
        report_iters.append({
            "iteration": iteration,
            "designs": sorted({d.id for d in chosen}),
            "expanded": sorted(expanded),
            "terms_refined": terms_refined,
            "term_patterns": len(term_memo),
            "front_size": len(archive),
            "hypervolume": hv,
        })
        if prev_hv is not None and prev_hv > 0 and (hv - prev_hv) / prev_hv < 0.01:
            stall += 1
        else:
            stall = 0
        prev_hv = hv
        if stall >= 3:
            # stop unless the sweep has a design left, which is put back
            pending = next(unexplored, None)
            if pending is None:
                break
            unexplored = itertools.chain((pending,), unexplored)

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
        "hypervolume": report_iters[-1]["hypervolume"],
        "clipped_points": [list(p) for p in clip.clipped],
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

