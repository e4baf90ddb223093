"""Design-variant enumeration and sampling.

A base design declares parts, adjacency, and per-joint connector variants.
Selecting one variant per joint and applying its end-length deltas yields a
concrete design; the space is the cross product of per-joint choices.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass

from .model import ConnectorVariant, Design, Joint, Part


MAX_COLLAPSED_DRAWS = 10_000  # consecutive collapsed samples before giving up


class DesignInputError(ValueError):
    """Malformed design input (unknown parts, self-joints, ...)."""


@dataclass(frozen=True)
class DesignSpace:
    base_id: str
    base_parts: tuple[Part, ...]
    joints: tuple[Joint, ...]

    @property
    def cardinality(self) -> int:
        n = 1
        for j in self.joints:
            n *= len(j.variants)
        return n

    def base_design(self) -> Design:
        """The design with every joint at its first (identity) variant."""
        selection = {j.id: j.variants[0].id for j in self.joints}
        design = instantiate(self, selection)
        if design is None:
            raise DesignInputError("base variant selection produces an empty part")
        return design


def detect_joints(
    base_parts: list[Part],
    adjacency: list[tuple[str, str, list[ConnectorVariant]]],
) -> list[Joint]:
    """One joint per declared adjacency pair, seeded with its variants."""
    known = set()
    for part in base_parts:
        if part.id in known:
            raise DesignInputError(f"design repeats part id {part.id!r}")
        known.add(part.id)
    joints = []
    for idx, (a, b, variants) in enumerate(adjacency):
        for pid in (a, b):
            if pid not in known:
                raise DesignInputError(f"adjacency references unknown part {pid!r}")
        if a == b:
            raise DesignInputError(f"adjacency ({a}, {b}) joins a part to itself")
        joints.append(Joint(id=f"j{idx}", part_a=a, part_b=b, variants=tuple(variants)))
    return joints


def instantiate(space: DesignSpace, selection: dict[str, str]) -> Design | None:
    """Apply the selected variant deltas; None when a dimension collapses.

    Deltas accumulate on the last shape dimension of each joined part (the
    length of lumber, the height of a sheet rectangle). Applying the same
    selection to the result is a no-op because provenance is rebuilt from
    the base parts every time.
    """
    deltas: dict[str, int] = {p.id: 0 for p in space.base_parts}
    for joint in space.joints:
        variant = _variant(joint, selection[joint.id])
        deltas[joint.part_a] += variant.delta_a
        deltas[joint.part_b] += variant.delta_b

    parts = []
    for p in space.base_parts:
        shape = list(p.shape)
        shape[-1] += deltas[p.id]
        if shape[-1] <= 0:
            return None
        parts.append(Part(id=p.id, family=p.family, shape=tuple(shape), material=p.material))

    label = "-".join(selection[j.id] for j in space.joints) or "base"
    return Design(
        id=f"{space.base_id}/{label}",
        parts=tuple(parts),
        provenance=dict(selection),
    )


def _variant(joint: Joint, variant_id: str) -> ConnectorVariant:
    for v in joint.variants:
        if v.id == variant_id:
            return v
    raise DesignInputError(f"joint {joint.id}: unknown variant {variant_id!r}")


def iter_variants(space: DesignSpace) -> Iterator[Design]:
    """Every design of the space, made when pulled, in lexicographic order
    of variant selections; selections that collapse a part are skipped."""
    for combo in itertools.product(*(j.variants for j in space.joints)):
        design = instantiate(space, {j.id: v.id for j, v in zip(space.joints, combo)})
        if design is not None:
            yield design


def enumerate_variants(space: DesignSpace) -> list[Design]:
    """`iter_variants` as a list."""
    return list(iter_variants(space))


def sample_design(space: DesignSpace, rng: random.Random) -> Design:
    """Uniform over variant selections; resamples collapsed geometries.

    Raises DesignInputError after MAX_COLLAPSED_DRAWS collapsed draws in a
    row, which is how a space where every selection collapses a part shows.
    """
    for _ in range(MAX_COLLAPSED_DRAWS):
        selection = {j.id: rng.choice(j.variants).id for j in space.joints}
        design = instantiate(space, selection)
        if design is not None:
            return design
    raise DesignInputError(
        f"{MAX_COLLAPSED_DRAWS} sampled variant selections in a row collapse a part")
