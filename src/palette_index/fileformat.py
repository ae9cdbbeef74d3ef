"""Plain-text graph and coloring formats.

GraphFile::

    # optional comments
    p <vertex_count> <edge_count>
    e <u> <v>          (1-indexed, one line per edge, in edge-id order)

ColoringFile::

    s <colors_used> <distinct_palettes>
    c <edge_index> <color>   (1-indexed edge ids, each exactly once)

Comment lines start with ``#``; key=value summary lines are tolerated when
parsing colorings so a stream carrying a trailing summary re-parses cleanly.
Both parsers accept CRLF line ends and ignore one leading UTF-8 byte-order
mark.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graph import Graph


# UTF-8 byte-order mark; str.removeprefix returns the text itself, in O(1),
# when no mark leads it
_BOM = "\ufeff"


class FormatError(ValueError):
    """Malformed text input; the message carries the offending line number."""


def serialize_graph(g: Graph) -> str:
    lines = [f"p {g.vertex_count} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    n = count = -1  # vertex and edge counts, once the header is read
    edges: list[tuple[int, int]] = []
    lines = text.removeprefix(_BOM).splitlines()
    for ln, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if n < 0:
            if parts[0] != "p" or len(parts) != 3:
                raise FormatError(f"line {ln}: expected header 'p <vertices> <edges>'")
            try:
                n, count = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"line {ln}: non-integer header fields") from None
            if n < 0 or count < 0:
                raise FormatError(f"line {ln}: negative counts in header")
            continue
        if parts[0] != "e" or len(parts) != 3:
            raise FormatError(f"line {ln}: expected edge line 'e <u> <v>'")
        try:
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
        except ValueError:
            raise FormatError(f"line {ln}: non-integer endpoint") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {ln}: endpoint out of range 1..{n}")
        if u == v:
            raise FormatError(f"line {ln}: loop at vertex {u + 1} is not allowed")
        edges.append((u, v))
    if n < 0:
        raise FormatError("line 1: missing header")
    if len(edges) != count:
        raise FormatError(
            f"line {len(lines)}: header promises {count} edges, found {len(edges)}")
    return Graph(n, tuple(edges))  # checked edge by edge above, as build_graph would


def serialize_coloring(colors: Sequence[int], distinct_palettes: int) -> str:
    lines = [f"s {len(set(colors))} {distinct_palettes}"]
    lines.extend(f"c {eid} {col}" for eid, col in enumerate(colors, start=1))
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, edge_count: int) -> tuple[list[int], tuple[int, int]]:
    """Parse a coloring stream of a graph with `edge_count` edges; returns
    the colors by edge id and the (colors_used, distinct_palettes) header
    pair as written.  Every edge must be colored, and only those edges."""
    header: tuple[int, int] | None = None
    colors: dict[int, int] = {}
    for ln, raw in enumerate(text.removeprefix(_BOM).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line.split()[0]:
            continue  # trailing summary tokens, not part of the coloring
        parts = line.split()
        if header is None:
            if parts[0] != "s" or len(parts) != 3:
                raise FormatError(f"line {ln}: expected header 's <colors> <palettes>'")
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise FormatError(f"line {ln}: non-integer header fields") from None
            continue
        if parts[0] != "c" or len(parts) != 3:
            raise FormatError(f"line {ln}: expected coloring line 'c <edge> <color>'")
        try:
            eid, col = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(f"line {ln}: non-integer fields") from None
        if eid < 1:
            raise FormatError(f"line {ln}: edge index must be positive")
        if col < 1:
            raise FormatError(f"line {ln}: colors must be positive")
        if eid in colors:
            raise FormatError(f"line {ln}: edge {eid} colored twice")
        colors[eid] = col
    if header is None:
        raise FormatError("line 1: missing header")
    missing = next((eid for eid in range(1, edge_count + 1) if eid not in colors), None)
    if missing is not None:
        raise FormatError(f"partial coloring: edge {missing} has no color")
    if len(colors) > edge_count:  # every edge is colored, so one id is stray
        stray = min(eid for eid in colors if eid > edge_count)
        raise FormatError(f"edge {stray} is colored, but the graph has {edge_count} edges")
    return [colors[eid] for eid in range(1, edge_count + 1)], header
