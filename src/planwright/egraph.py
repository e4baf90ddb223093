"""BOP e-graph: a compact encoding of alternative fabrication arrangements.

E-classes are keyed by the set of parts they fabricate; e-nodes are either
atomic (one packed stock instance) or compositions of disjoint child
classes.

The graph has two levels. `add_arrangement` is the only place nodes are
made: one atomic node per stock, in the class of that stock's part set,
and for two or more stocks one compose node in the root class (all the
design's parts) over those classes. Each of those stocks holds a strict
subset of the parts, so every compose node is in the root class and every
other class holds only atomic nodes. A term is a root node and, for a
compose node, one atomic node per child class, held as a flat
`Individual`; the walks below read the graph that way. Extraction,
refinement and contraction all take a term as its `Individual`.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .model import StockSpec
from .packing import Arrangement


@dataclass(frozen=True)
class AtomicNode:
    id: str
    spec: StockSpec
    placements: tuple[tuple[str, tuple[int, ...]], ...]  # (part_id, offset)


@dataclass(frozen=True)
class ComposeNode:
    id: str
    children: tuple[str, ...]  # e-class ids, sorted


ENode = AtomicNode | ComposeNode


@dataclass
class EClass:
    id: str
    part_set: frozenset[str]
    nodes: list[str] = field(default_factory=list)


# A term, flat: its root node id, then the node chosen in each of that
# node's child classes, last child class first (`BopEGraph.slots`).
Individual = tuple[str, ...]


class BopEGraph:
    def __init__(self, design_id: str, part_ids: frozenset[str]) -> None:
        self.design_id = design_id
        self.design_parts = part_ids
        self.classes: dict[str, EClass] = {}
        self.nodes: dict[str, ENode] = {}
        self._class_of_partset: dict[frozenset[str], str] = {}
        self._hashcons: dict[tuple, str] = {}
        self._next = 0
        self._next_class = 0

    # -- construction -----------------------------------------------------

    def _class_for(self, part_set: frozenset[str]) -> EClass:
        cid = self._class_of_partset.get(part_set)
        if cid is None:
            cid = f"c{self._next_class}"
            self._next_class += 1
            self._class_of_partset[part_set] = cid
            self.classes[cid] = EClass(id=cid, part_set=part_set)
        return self.classes[cid]

    @property
    def root(self) -> Optional[str]:
        return self._class_of_partset.get(self.design_parts)

    def _intern(self, signature: tuple, build: Callable[[str], ENode],
                part_set: frozenset[str], new_ids: list[str]) -> str:
        nid = self._hashcons.get(signature)
        if nid is not None:
            return nid
        nid = f"n{self._next}"
        self._next += 1
        node = build(nid)
        self.nodes[nid] = node
        self._hashcons[signature] = nid
        eclass = self._class_for(part_set)
        eclass.nodes.append(nid)
        new_ids.append(nid)
        return nid

    def add_arrangement(self, arrangement: Arrangement) -> list[str]:
        """Insert one atomic e-node per stock instance plus a compose node
        stitching them under the root class; hash-consed, so re-adding the
        same arrangement is a no-op."""
        covered = {pid for _, places in arrangement.stocks for pid, _ in places}
        if covered != self.design_parts:
            raise ValueError(
                f"arrangement covers {sorted(covered)} but design has "
                f"{sorted(self.design_parts)}"
            )
        new_ids: list[str] = []
        child_classes = []
        for inst, placements in sorted(arrangement.stocks, key=lambda s: s[0].key):
            part_set = frozenset(pid for pid, _ in placements)
            sig = ("atomic", inst.spec.id, placements)
            self._intern(
                sig,
                lambda nid, s=inst.spec, pl=placements: AtomicNode(nid, s, pl),
                part_set,
                new_ids,
            )
            child_classes.append(self._class_for(part_set).id)

        if len(child_classes) > 1:
            children = tuple(sorted(child_classes))
            sig = ("compose", children)
            self._intern(
                sig,
                lambda nid, ch=children: ComposeNode(nid, ch),
                self.design_parts,
                new_ids,
            )
        return new_ids

    # -- queries ----------------------------------------------------------

    def slots(self, nid: str) -> tuple[str, ...]:
        """The classes an individual with root node `nid` lists after it:
        the node's child classes, last first (none for an atomic node). A
        seed's GA draws depend on this order."""
        node = self.nodes[nid]
        return node.children[::-1] if isinstance(node, ComposeNode) else ()

    def sample(self, rng: random.Random) -> Individual:
        """A random individual: a root node, then a node per slot class."""
        nid = rng.choice(self._root_nodes())
        return (nid, *[rng.choice(self.classes[cid].nodes) for cid in self.slots(nid)])

    def _root_nodes(self) -> list[str]:
        """The root class's nodes; none before the first arrangement."""
        root = self.root
        return [] if root is None else self.classes[root].nodes

    def count_terms(self) -> int:
        total = 0
        for nid in self._root_nodes():
            node = self.nodes[nid]
            total += (math.prod([len(self.classes[cid].nodes) for cid in node.children])
                      if isinstance(node, ComposeNode) else 1)
        return total

    def individuals(self) -> list[Individual]:
        """Every term, flat: per root node, each choice of one node per
        child class, the first child class varying fastest."""
        out = []
        for nid in self._root_nodes():
            picks = [()]
            for cid in reversed(self.slots(nid)):
                picks = [(c, *p) for c in self.classes[cid].nodes for p in picks]
            out += [(nid, *p) for p in picks]
        return out

    # -- contraction -------------------------------------------------------

    def contract(
        self,
        pareto_terms: list[Individual],
        n: int,
        scalar_bound: Callable[[str], float],
    ) -> None:
        """Keep the top-n e-nodes per class, ranked by how many of the given
        Pareto terms list them, then by scalarized lower bound, then by id."""
        if n < 1:
            raise ValueError("n must be >= 1")
        appearances = Counter(nid for individual in pareto_terms for nid in individual)

        for eclass in self.classes.values():
            ranked = sorted(
                eclass.nodes,
                key=lambda nid: (-appearances[nid], scalar_bound(nid), nid),
            )
            eclass.nodes = ranked[:n]

        self._garbage_collect()

    def _garbage_collect(self) -> None:
        # the root and its compose nodes' children (no root: no classes)
        live_classes = {self.root, *(cid for nid in self._root_nodes()
                                     for cid in self.slots(nid))}
        self.classes = {cid: c for cid, c in self.classes.items() if cid in live_classes}
        self._class_of_partset = {
            c.part_set: cid for cid, c in self.classes.items()
        }
        live_nodes = {nid for c in self.classes.values() for nid in c.nodes}
        self.nodes = {nid: nd for nid, nd in self.nodes.items() if nid in live_nodes}
        self._hashcons = {
            sig: nid for sig, nid in self._hashcons.items() if nid in live_nodes
        }
