"""Edge colorings, properness checking, and palette extraction."""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph


class ColoringError(ValueError):
    """Raised for partial or improper colorings where a proper one is required."""


@dataclass
class EdgeColoring:
    """Assignment of a positive color to each edge id of a host graph.

    May be partial while a construction is still filling it in; every public
    operation that consumes a coloring requires it to be total.
    """

    color_of: dict[int, int] = field(default_factory=dict)

    def colors_used(self) -> int:
        return len(set(self.color_of.values()))


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


def verify_proper(g: Graph, c: EdgeColoring) -> list[Violation]:
    """All properness violations of a total coloring; empty means proper.

    A violation names a vertex and the two incident edges sharing a color.
    Loops can never be properly colored and are reported against themselves.
    """
    for eid in range(g.edge_count):
        if eid not in c.color_of:
            raise ColoringError(f"partial coloring: edge {eid} has no color")
        if c.color_of[eid] < 1:
            raise ColoringError(f"edge {eid} has non-positive color {c.color_of[eid]}")
    if len(c.color_of) > g.edge_count:  # every edge is colored, so one id is stray
        stray = min(eid for eid in c.color_of if not 0 <= eid < g.edge_count)
        raise ColoringError(
            f"edge {stray} is colored, but the graph has {g.edge_count} edges")
    violations: list[Violation] = []
    for v in range(g.vertex_count):
        by_color: dict[int, list[int]] = {}
        for eid in g.incidence[v]:
            if g.is_loop(eid):
                violations.append(Violation(v, eid, eid))
                continue
            by_color.setdefault(c.color_of[eid], []).append(eid)
        for group in by_color.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    violations.append(Violation(v, group[i], group[j]))
    return violations


def palette_summary(g: Graph, c: EdgeColoring) -> PaletteSummary:
    """Palettes of a proper coloring; raises on a partial, non-positive,
    looped or improper one, or one naming an edge g lacks, with the message
    `verify_proper` leads to."""
    get = c.color_of.get
    colors = [get(eid, 0) for eid in range(g.edge_count)]  # 0 marks a missing color
    palettes = tuple(frozenset(map(colors.__getitem__, ids)) for ids in g.incidence)
    # a loop (listed once) or a repeated color leaves the sizes short of 2|E|
    if (min(colors, default=1) < 1 or sum(map(len, palettes)) != 2 * g.edge_count
            or len(c.color_of) != g.edge_count):
        bad = verify_proper(g, c)  # raises on a partial, non-positive or stray one
        first = bad[0]
        raise ColoringError(
            f"improper coloring: vertex {first.vertex} sees color "
            f"{c.color_of[first.edge_a]} on edges {first.edge_a} and {first.edge_b}")
    multiplicity: dict[frozenset[int], int] = {}
    for p in palettes:
        multiplicity[p] = multiplicity.get(p, 0) + 1
    return PaletteSummary(palettes, len(multiplicity), multiplicity)
