"""Edge colorings, properness checking, and palette extraction.

A coloring of a graph is a list of positive colors indexed by edge id:
`colors[eid]` is the color of edge `eid`, and every edge has one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .graph import Graph


class ColoringError(ValueError):
    """Raised for partial or improper colorings where a proper one is required."""


@dataclass(frozen=True)
class Violation:
    vertex: int
    edge_a: int
    edge_b: int


@dataclass(frozen=True)
class PaletteSummary:
    """Per-vertex palettes of a proper coloring plus distinct-palette count."""

    palette_of: tuple[frozenset[int], ...]
    distinct: int
    multiplicity: dict[frozenset[int], int]


def _check_entries(g: Graph, colors: Sequence[int]) -> None:
    """Raise unless `colors` holds one positive color per edge of g."""
    if len(colors) != g.edge_count:
        raise ColoringError(
            f"coloring lists {len(colors)} edges, but the graph has {g.edge_count}")
    if min(colors, default=1) < 1:
        eid = next(eid for eid, col in enumerate(colors) if col < 1)
        raise ColoringError(f"edge {eid} has non-positive color {colors[eid]}")


def verify_proper(g: Graph, colors: Sequence[int]) -> list[Violation]:
    """All properness violations of a coloring; empty means proper.

    A violation names a vertex and the two incident edges sharing a color.
    Loops can never be properly colored and are reported against themselves.
    """
    _check_entries(g, colors)
    violations: list[Violation] = []
    for v in range(g.vertex_count):
        by_color: dict[int, list[int]] = {}
        for eid in g.incidence[v]:
            if g.is_loop(eid):
                violations.append(Violation(v, eid, eid))
                continue
            by_color.setdefault(colors[eid], []).append(eid)
        for group in by_color.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    violations.append(Violation(v, group[i], group[j]))
    return violations


def palette_summary(g: Graph, colors: Sequence[int]) -> PaletteSummary:
    """Palettes of a proper coloring; raises on one of the wrong length, or
    a non-positive, looped or improper one, with the message `verify_proper`
    leads to."""
    _check_entries(g, colors)
    palettes = tuple(frozenset(map(colors.__getitem__, ids)) for ids in g.incidence)
    # a loop (listed once) or a repeated color leaves the sizes short of 2|E|
    if sum(map(len, palettes)) != 2 * g.edge_count:
        first = verify_proper(g, colors)[0]
        raise ColoringError(
            f"improper coloring: vertex {first.vertex} sees color "
            f"{colors[first.edge_a]} on edges {first.edge_a} and {first.edge_b}")
    multiplicity: dict[frozenset[int], int] = {}
    for p in palettes:
        multiplicity[p] = multiplicity.get(p, 0) + 1
    return PaletteSummary(palettes, len(multiplicity), multiplicity)
