"""Edge colorings, properness checking, and palette extraction.

A coloring of a graph is a list of positive colors indexed by edge id:
`colors[eid]` is the color of edge `eid`, and every edge has one.
"""

from __future__ import annotations

from collections import Counter
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


# the most colors `palette_summary` gives one bit each: at this many, masks
# of vertices with few colors were measured no slower than a set per vertex
_MASK_COLORS = 1024


def palette_summary(g: Graph, colors: Sequence[int]) -> PaletteSummary:
    """Palettes of a proper coloring; raises on one of the wrong length, or
    a non-positive, looped or improper one, with the message `verify_proper`
    leads to.

    One pass over the edges ORs bit k into both ends' masks for the color
    of sorted rank k among those used, so a huge color costs no more than a
    small one.  Only the distinct masks become frozensets, which
    `palette_of` shares; `multiplicity` lists them in the order of the
    first vertex that has each.  Past `_MASK_COLORS` colors a mask update
    would cost O(colors) bits, so each vertex gets a frozenset instead.
    """
    _check_entries(g, colors)
    distinct = set(colors)
    if len(distinct) <= _MASK_COLORS:
        used = sorted(distinct)
        bit = {c: 1 << k for k, c in enumerate(used)}
        keys = [0] * g.vertex_count
        for (u, v), c in zip(g.edges, colors):
            b = bit[c]
            keys[u] |= b
            keys[v] |= b
        size, as_set = int.bit_count, lambda mask: frozenset(_colors_in(mask, used))
    else:
        keys = [frozenset(map(colors.__getitem__, ids)) for ids in g.incidence]
        size, as_set = len, frozenset
    # a loop (counted once at its vertex) or a repeated color leaves the
    # sizes short of 2|E|
    if sum(map(size, keys)) != 2 * g.edge_count:
        first = verify_proper(g, colors)[0]
        raise ColoringError(
            f"improper coloring: vertex {first.vertex} sees color "
            f"{colors[first.edge_a]} on edges {first.edge_a} and {first.edge_b}")
    counts = Counter(keys)  # first-seen order
    palette = {key: as_set(key) for key in counts}
    multiplicity = {palette[key]: count for key, count in counts.items()}
    return PaletteSummary(tuple(map(palette.__getitem__, keys)),
                          len(multiplicity), multiplicity)


def _colors_in(mask: int, used: list[int]) -> list[int]:
    """The colors `used[k]` whose bit k is set in `mask`, lowest bit first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(used[low.bit_length() - 1])
        mask ^= low
    return out
