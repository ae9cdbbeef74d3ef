"""Constructive proper edge colorings with guaranteed palette bounds.

Each operation returns a :class:`ConstructionResult` whose coloring is
verified proper and whose distinct-palette count is checked against the
bound the construction promises before it is handed back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .coloring import palette_summary
from .decompose import (cyclic_interval_coloring, factor_arcs,
                        konig_coloring, matching_covering_max_degree,
                        maximum_matching, parity_split,
                        peel_perfect_matchings, split_part_vertices)
from .graph import (SIDE_X, SIDE_Y, Bipartition, BiregularProfile, Graph,
                    GraphError, bipartition, biregular_profile, edge_subgraph,
                    gen_complete_bipartite, gen_grid, without_isolated)


@dataclass
class ConstructionResult:
    coloring: list[int]  # the color of each edge, by edge id
    claimed_palette_bound: int
    theorem_tag: str
    colors_used: int
    palettes: int  # distinct palettes actually achieved


def _finish(g: Graph, colors: list[int], bound: int,
            tag: str) -> ConstructionResult:
    summary = palette_summary(g, colors)  # raises if improper or an edge is left 0
    if summary.distinct > bound:
        raise AssertionError(
            f"{tag}: produced {summary.distinct} palettes, over the promised {bound}")
    return ConstructionResult(colors, bound, tag, len(set(colors)), summary.distinct)


def _require_bipartite(g: Graph) -> Bipartition:
    bip = bipartition(g)
    if bip is None:
        raise GraphError("graph is not bipartite")
    return bip


# ----------------------------------------------------------------------
# even bipartite graphs and the doubling trick
# ----------------------------------------------------------------------

def color_even_bipartite(g: Graph) -> ConstructionResult:
    """Proper coloring of an even bipartite graph where every palette is a
    union of color pairs {2i-1, 2i}.

    Loops raise every vertex to the maximum degree and the regular
    multigraph is split into 2-factors, as `factor_arcs` reads them off an
    Euler orientation.  An edge of factor i takes 2i-1 when its arc leaves
    side X and 2i when it leaves side Y; each cycle alternates the sides,
    so each vertex with edges in factor i meets both colors of its pair.
    The loops are arcs appended to the orientation, never walked, and the
    factors come from splitting even levels along closed trails (Kőnig
    only at odd levels), in O(m log(maxdeg/2)) when maxdeg/2 is a power of
    two.  The distinct-palette count is at most the sum over present
    degrees d of C(maxdeg/2, d/2).
    """
    _require_bipartite(g)
    if g.has_isolated_vertices():
        raise GraphError("isolated vertices are not allowed here")
    return _pairs_result(g)


def _pairs_result(g: Graph) -> ConstructionResult:
    return _finish(g, _pair_colors(g), _even_pairs_bound(g), "even-bipartite-pairs")


def _pair_colors(g: Graph) -> list[int]:
    """`color_even_bipartite`'s colors on an even bipartite g, without its
    sides: an edge of factor i whose arc is k-th in the orientation takes
    2i-1 + k mod 2.  Each circuit starts at its component's smallest
    vertex, which `bipartition` puts on side X, and has even length, so
    the arc leaves side X exactly when k is even."""
    factor, _, arc = factor_arcs(g)  # raises unless every degree is even
    return [2 * i - 1 + (k & 1) for i, k in zip(factor, arc)]


def _even_pairs_bound(g: Graph) -> int:
    return sum(math.comb(g.max_degree // 2, d // 2) for d in g.degree_set())


def doubling_palette_bound(g: Graph) -> int:
    """Palette bound for a bipartite graph colored through its even closure:
    odd degrees d contribute C(ceil(maxdeg/2), (d+1)/2)*(d+1) palettes, even
    degrees d contribute C(ceil(maxdeg/2), d/2)."""
    half = (g.max_degree + 1) // 2
    bound = 0
    for d in g.degree_set():
        if d % 2 == 1:
            bound += math.comb(half, (d + 1) // 2) * (d + 1)
        else:
            bound += math.comb(half, d // 2)
    return bound


def color_via_doubling(g: Graph) -> ConstructionResult:
    """Color any bipartite graph by coloring its even closure and restricting
    back; works for odd degrees at the cost of a larger palette bound."""
    _require_bipartite(g)
    if g.has_isolated_vertices():
        raise GraphError("isolated vertices are not allowed here")
    return _doubling_result(g)


def _doubling_result(g: Graph) -> ConstructionResult:
    bound = doubling_palette_bound(g)
    if g.max_degree == 4:
        assert bound <= 11
        if g.min_degree >= 2:
            assert bound <= 7
    return _finish(g, _doubling_colors(g), bound, "doubling")


def _doubling_colors(g: Graph) -> list[int]:
    """The pair colors of a bipartite g's even closure, on copy 1, which
    keeps g's edge ids.  The closure is the graph `even_closure` returns,
    built here without its bipartite check: every caller knows g's sides,
    and the pair colors need none."""
    n = g.vertex_count
    copy2 = tuple((u + n, v + n) for u, v in g.edges)
    joins = tuple((v, v + n) for v, d in enumerate(g.degrees) if d % 2)
    return _pair_colors(Graph(2 * n, g.edges + copy2 + joins))[:g.edge_count]


def color_deg5(g: Graph) -> ConstructionResult:
    """Color a bipartite graph of maximum degree 5: a matching covering the
    degree-5 vertices gets a fifth color, the rest is colored by doubling.

    With a perfect matching the palette bound drops from 23 to 12.
    """
    return build_route("deg5", g)


def _color_deg5(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    # a perfect matching earns 12 from either deg5 row
    if 2 * len(f.matching) == g.vertex_count:
        matching, bound, tag = f.matching, 12, "deg5-perfect-matching"
    else:
        matching, tag = matching_covering_max_degree(g, f.bip), "deg5"
    return _in_bands(g, f, [(_rest(g, matching), _doubling_colors),
                            (matching, None)], bound, tag)


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

def grid_palette_value(m: int, n: int) -> int:
    """The exact palette index of the m-by-n grid."""
    if m < 2 or n < 2:
        raise GraphError(f"grid dimensions must be at least 2, got ({m}, {n})")
    if m == 2 and n == 2:
        return 1
    if min(m, n) == 2:
        return 2
    if (m * n) % 2 == 0:
        return 3
    return 5


def _grid_color(m: int, n: int, i: int, j: int, down: bool) -> int:
    """Color of the m-by-n grid's edge from 1-based position (i, j) to its
    right neighbour, or to the one below when `down` is true.

    An even number of rows takes the even-row pattern, and m odd with n even
    takes it on the transposed grid.  With m and n both odd, rows 1..m-3
    take the even-row pattern, the last three rows a 3-row pattern, and the
    seam between them is colored 4 throughout.
    """
    if m % 2 and n % 2 == 0:
        m, n, i, j, down = n, m, j, i, not down
    if m % 2:
        row = i - (m - 3)  # 1..3 in the last three rows, 0 on the seam's top
        if row == 0 and down:
            return 4
        if row > 0 and not down:
            return (2, 2, 4)[row - 1] if j % 2 else (1, 4, 2)[row - 1]
        if row == 1:
            return 1 if j == 1 else 2 if j == n else 3
        if row == 2:
            return 3 if j == 1 else 1
    if not down:
        return 2 if j % 2 else 1
    if i % 2 == 0:
        return 3 if j in (1, n) else 4
    if j == n:
        return 2 if n % 2 else 1
    return 1 if j == 1 else 3


def color_grid(m: int, n: int) -> ConstructionResult:
    """Color the m-by-n grid with at most 4 colors achieving the exact
    palette-index value (1, 2, 3, or 5 depending on the dimensions)."""
    return build_route("grid", gen_grid(m, n))


def _color_grid_edges(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    """Apply the pattern of the grid `f.dims` to g's edges."""
    m, n = f.dims
    colors = [0] * g.edge_count
    for eid, (u, v) in enumerate(g.edges):
        if u > v:
            u, v = v, u
        # vertex x is grid position (x // n + 1, x % n + 1)
        colors[eid] = _grid_color(m, n, u // n + 1, u % n + 1, v - u == n)
    return _finish(g, colors, bound, "grid")


def recognize_grid(g: Graph) -> tuple[int, int] | None:
    """Dimensions (m, n) when g carries the grid generator's exact labeling
    (any edge order)."""
    n_verts = g.vertex_count
    for m in range(2, n_verts // 2 + 1):
        n, rest = divmod(n_verts, m)
        if rest or 2 * m * n - m - n != g.edge_count:
            continue
        # with as many edges as the m-by-n grid, each one a grid edge (x to
        # x + n, or x to x + 1 within a row) and none repeated, g is that
        # grid; edge x to x + n is keyed 2x + 1, x to x + 1 keyed 2x
        seen = bytearray(2 * n_verts)
        for u, v in g.edges:
            if u > v:
                u, v = v, u
            if v - u == n:
                key = 2 * u + 1
            elif v - u == 1 and v % n:
                key = 2 * u
            else:
                break
            if seen[key]:
                break
            seen[key] = 1
        else:
            return (m, n)
    return None


def color_grid_on(g: Graph) -> ConstructionResult:
    """Color a graph recognized as a grid, keyed to its own edge ids."""
    return build_route("grid", g)


# ----------------------------------------------------------------------
# complete bipartite graphs
# ----------------------------------------------------------------------

def _complete_bipartite_color(a: int, b: int, i: int, j: int) -> int:
    """Color of K_{a,b}'s edge from the i-th vertex of the a-vertex side to
    the j-th of the b-vertex side, both 1-based.

    A base d-coloring of K_{d,d} (d = gcd) is translated across blocks of d;
    every vertex on the a-vertex side sees all b colors, and the b-vertex
    side shares palettes in blocks of d, giving 1 + b/d palettes in total.
    """
    d = math.gcd(a, b)
    return 1 + (i + j - 2) % d + d * (((i - 1) // d + (j - 1) // d) % (b // d))


def color_complete_bipartite(a: int, b: int) -> ConstructionResult:
    """Proper b-coloring of K_{a,b} (a < b) with exactly 1 + b/gcd(a,b)
    distinct palettes; every vertex on the small side sees all b colors."""
    if a < 1 or a >= b:
        raise GraphError(f"need 1 <= a < b, got ({a}, {b})")
    g = gen_complete_bipartite(a, b)
    result = build_route("complete-bipartite", g)
    summary = palette_summary(g, result.coloring)
    full = frozenset(range(1, b + 1))
    assert all(summary.palette_of[i] == full for i in range(a))
    assert result.palettes == result.claimed_palette_bound
    return result


# ----------------------------------------------------------------------
# biregular families
# ----------------------------------------------------------------------

def _split_classes(g: Graph, bip: Bipartition, unit: int) -> list[frozenset[int]]:
    """Split every vertex into degree-`unit` copies and peel the
    `unit`-regular result into `unit` perfect matchings.  Edge ids survive
    the split, so each class meets every vertex of g degree/unit times."""
    split, back = split_part_vertices(g, unit)
    side_of = tuple(bip.side_of[v] for v in back)
    return peel_perfect_matchings(split, Bipartition(side_of))


def _rest(g: Graph, part: frozenset[int]) -> list[int]:
    return [eid for eid in range(g.edge_count) if eid not in part]


def _on_rest(g: Graph, part: frozenset[int],
             split: Callable[[Graph], Sequence[Sequence[int]]]) -> list[list[int]]:
    """`split` of the subgraph of g's edges outside `part`, with its edge
    ids mapped back to g's.  The subgraph keeps g's vertices, so g's sides
    are its sides."""
    rest, kept = edge_subgraph(g, _rest(g, part))
    return [[kept[eid] for eid in piece] for piece in split(rest)]


def _in_bands(g: Graph, f: RouteFacts,
              parts: list[tuple[Sequence[int], Callable[[Graph], list[int]] | None]],
              bound: int, tag: str) -> ConstructionResult:
    """Color each part of g's edges in its own band: a part's colors are
    shifted by the sum of the maximum degrees of the parts before it.

    A part with a builder takes the builder's colors, pairs or doubling, on
    its subgraph with isolated vertices dropped (edge ids survive the trim);
    they need no sides, and no bipartite check, since the route has found g
    bipartite.  A part without one is colored by Kőnig on g's sides, which
    keep the subgraph's vertex set; on a factor whose side-X vertices have
    one edge each, such as a star forest or a matching, that gives each
    side-Y vertex's k-th edge, by id, color k.  Only the coloring of the
    whole is verified.
    """
    colors = [0] * g.edge_count
    shift = 0
    for edge_ids, build in parts:
        sub, kept = edge_subgraph(g, edge_ids)
        part = (konig_coloring(sub, f.bip) if build is None
                else build(without_isolated(sub)[0]))
        for eid, c in zip(kept, part):
            colors[eid] = c + shift
        shift += sub.max_degree
    return _finish(g, colors, bound, tag)


def color_3_3r(g: Graph) -> ConstructionResult:
    """Color a (3,3r)- or (3r-3,3r)-biregular graph within r*r + 1 palettes.

    A perfect matching of the cubic split graph pulls back to a factor F
    meeting each big-side vertex r times; the rest is a graph with all
    degrees even, colored in pairs, and F gets the r extra colors.
    """
    return build_route("deg3-family", g)


def _color_3_3r(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    factor = _split_classes(g, f.bip, 3)[0]
    tag = "deg3-multiple" if f.prof.a == 3 else "deg3-multiple-complement"
    return _in_bands(g, f, [(_rest(g, factor), _pair_colors),
                            (factor, None)], bound, tag)


def color_4_4r(g: Graph) -> ConstructionResult:
    """Color a (4,4r)- or (4r-4,4r)-biregular graph within r*r + 1 palettes
    by parity-splitting into two half-degree graphs colored in disjoint
    pair ranges."""
    return build_route("deg4-family", g)


def _color_4_4r(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    tag = "deg4-multiple" if f.prof.a == 4 else "deg4-multiple-complement"
    return _in_bands(g, f, [(half, _pair_colors) for half in parity_split(g)],
                     bound, tag)


def color_5_5r(g: Graph) -> ConstructionResult:
    """Color a (5,5r)-biregular graph within r**3 + 1 palettes: pull back a
    factor from the 5-regular split, color the remaining (4,4r) graph, and
    spend r extra colors on the factor."""
    return build_route("deg5-family", g)


def _color_5_5r(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    factor = _split_classes(g, f.bip, 5)[0]
    # the rest is (4,4r)-biregular: its parity halves take the (4,4r) row's
    # bands, and the factor the r colors after them
    halves = _on_rest(g, factor, parity_split)
    return _in_bands(g, f, [(half, _pair_colors) for half in halves]
                     + [(factor, None)], bound, "deg5-multiple")


def color_r_2r(g: Graph) -> ConstructionResult:
    """Color an (r,2r)-biregular graph within 2**ceil(r/2) + 1 palettes.

    Even r = 2k: the degree-k split decomposes the graph into k pieces with
    degrees (2,4), each colored in its own 4-color band.  Odd r = 2k+1: a
    pulled-back (1,2) factor takes the last two colors, and the rest, a
    (2k,4k)-biregular graph, is split and colored as in the even case.
    """
    return build_route("half-family", g)


def _color_r_2r(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    r = f.prof.a
    if r % 2 == 0:
        pieces, extra = _split_classes(g, f.bip, r // 2), []
    else:
        # side X has degree r, so only side Y really splits
        factor = _split_classes(g, f.bip, r)[0]
        assert all(sum(e in factor for e in g.incidence[y]) == 2
                   for y in f.prof.y_vertices)
        # the rest is (r-1,2r-2)-biregular: its pieces take the even case's
        # bands, on g's sides, and the factor the last two colors
        pieces = _on_rest(g, factor, lambda rest: _split_classes(rest, f.bip, r // 2))
        extra = [(factor, None)]
    return _in_bands(g, f, [(piece, _pair_colors) for piece in pieces] + extra,
                     bound, "half-degree-family")


def color_3_5(g: Graph) -> ConstructionResult:
    """Color a (3,5)-biregular graph within 7 palettes: a matching saturating
    the degree-5 side takes color 5, the rest is colored by doubling."""
    return build_route("deg35-family", g)


def _color_3_5(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    matching = matching_covering_max_degree(g, f.bip)
    return _in_bands(g, f, [(_rest(g, matching), _doubling_colors),
                            (matching, None)], bound, "deg35-matching")


def _konig_result(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    return _finish(g, konig_coloring(g, f.bip), bound, "konig")


def _is_complete_bipartite(g: Graph, prof: BiregularProfile) -> bool:
    xs, ys = len(prof.x_vertices), len(prof.y_vertices)
    # the counts first: the O(m) simplicity scan only runs when they match
    return (g.edge_count == xs * ys and prof.b == xs and prof.a == ys
            and g.is_simple())


def _complete_on_graph(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    """Apply the complete-bipartite pattern to a graph recognized as K_{a,b},
    whatever its vertex labels."""
    a, b = f.prof.a, f.prof.b
    us = sorted(f.prof.y_vertices)  # the small, high-degree side
    vs = sorted(f.prof.x_vertices)
    u_index = {v: i + 1 for i, v in enumerate(us)}
    v_index = {v: j + 1 for j, v in enumerate(vs)}
    colors = [0] * g.edge_count
    for eid, (p, q) in enumerate(g.edges):
        if p not in u_index:
            p, q = q, p
        colors[eid] = _complete_bipartite_color(a, b, u_index[p], v_index[q])
    return _finish(g, colors, bound, "complete-bipartite")


# ----------------------------------------------------------------------
# the route table: where each construction applies and what it promises
# ----------------------------------------------------------------------

@dataclass
class RouteFacts:
    """The facts about one graph that the routes test, each computed at most
    once and only when a route asks for it."""

    g: Graph

    @cached_property
    def prof(self) -> BiregularProfile | None:
        return biregular_profile(self.g)

    @cached_property
    def bip(self) -> Bipartition | None:
        """A bipartition; with a profile, the one whose side X has degree a.

        A graph recognized as the m-by-n grid (`dims`) takes its sides from
        the grid labeling, position parity (x // n + x % n) % 2, without a
        search: the grid is connected and vertex 0 is on side X, so these
        are the sides `bipartition` finds.  Rows alternate two patterns, so
        the sides are those two rows repeated.
        """
        if self.prof is None:
            if self.dims is not None:
                m, n = self.dims
                row = tuple(j % 2 for j in range(n + 1))  # row 0, and one more
                return Bipartition(((row[:n] + row[1:]) * ((m + 1) // 2))[:m * n])
            return bipartition(self.g)
        side = [SIDE_Y] * self.g.vertex_count
        for v in self.prof.x_vertices:
            side[v] = SIDE_X
        return Bipartition(tuple(side))

    @cached_property
    def dims(self) -> tuple[int, int] | None:
        # Every grid but 2x2 puts (1,1), of degree 2, and (2,2), of degree 3
        # or 4, on one side, so no other biregular graph is a grid.
        if self.prof is not None and (self.prof.a, self.prof.b) != (2, 2):
            return None
        return recognize_grid(self.g)

    @cached_property
    def even(self) -> bool:  # bipartite with every degree even
        return self.bip is not None and self.g.is_even()

    @cached_property
    def matching(self) -> frozenset[int]:  # a maximum matching; needs a bipartition
        return maximum_matching(self.g, self.bip)

    @cached_property
    def cyclic(self) -> list[int] | None:  # needs a (2,2r+1) profile
        return cyclic_interval_coloring(self.g, self.bip)


@dataclass(frozen=True)
class Route:
    """A construction with the catalog tag and justification of its bound.
    `bound` is None where the route does not apply."""

    tag: str
    note: str
    bound: Callable[[RouteFacts], int | None]
    build: Callable[[Graph, RouteFacts, int], ConstructionResult]


def _on_profile(family: Callable[[int, int], int | None]
                ) -> Callable[[RouteFacts], int | None]:
    """Route bound of a family of (a,b)-biregular graphs, a <= b."""
    return lambda f: None if f.prof is None else family(f.prof.a, f.prof.b)


def _deg5_perfect_bound(f: RouteFacts) -> int | None:
    g, bip = f.g, f.bip
    # a perfect matching needs sides of equal size; a regular bipartite graph has one
    if bip is None or g.max_degree != 5 or 2 * len(bip.x_vertices()) != g.vertex_count:
        return None
    regular = f.prof is not None and f.prof.a == f.prof.b
    return 12 if regular or 2 * len(f.matching) == g.vertex_count else None


# `color_auto` builds the applicable row with the smallest promised bound;
# ties go to the row listed first.  It compares promises, not results, and
# builds one row, so a row with a looser bound can give fewer palettes: on
# gen_random_biregular(5, 9, 2, 0) `doubling` (bound 70) gives 23 and
# `konig-biregular` (bound 127) would give 19.
#
# A row names its body, or writes it in place when it is one call.  No row
# calls a public builder: the pair and doubling rows build on the facts
# the route already holds, with no second search for the sides, and report
# their construction's own bound and tag, as `color_even_bipartite` and
# `color_via_doubling` do.
ROUTES: tuple[Route, ...] = (
    Route("grid", "m-by-n grid in the generator's labeling",
          lambda f: None if f.dims is None else grid_palette_value(*f.dims),
          _color_grid_edges),
    Route("star", "disjoint stars",
          _on_profile(lambda a, b: b + 1 if a == 1 < b else None),
          # Kőnig on the profile's sides: each center's k-th edge gets k
          lambda g, f, bound: _finish(g, konig_coloring(g, f.bip), bound, "star")),
    Route("even-family", "(2,2r)- or (2r-2,2r)-biregular",
          _on_profile(lambda a, b: b // 2 + 1
                      if b % 2 == 0 and a in (2, b - 2) and a < b else None),
          lambda g, f, bound: _pairs_result(g)),
    Route("two-odd-family",
          "(2,2r+1)-biregular with a cyclic-interval (2r+1)-coloring found "
          "within the repair budget",
          lambda f: (f.prof.b + 1 if f.prof is not None and f.prof.a == 2
                     and f.prof.b % 2 == 1 and f.cyclic is not None else None),
          lambda g, f, bound: _finish(g, f.cyclic, bound, "two-odd-cyclic")),
    Route("deg3-family", "(3,3r)- or (3r-3,3r)-biregular, r >= 2",
          _on_profile(lambda a, b: (b // 3) ** 2 + 1
                      if b % 3 == 0 and b // 3 >= 2 and a in (3, b - 3) else None),
          _color_3_3r),
    Route("deg4-family", "(4,4r)- or (4r-4,4r)-biregular, r >= 2",
          _on_profile(lambda a, b: (b // 4) ** 2 + 1
                      if b % 4 == 0 and b // 4 >= 2 and a in (4, b - 4) else None),
          _color_4_4r),
    Route("deg5-family", "(5,5r)-biregular, r >= 2",
          _on_profile(lambda a, b: (b // 5) ** 3 + 1
                      if a == 5 and b % 5 == 0 and b // 5 >= 2 else None),
          _color_5_5r),
    Route("half-family", "(r,2r)-biregular, r >= 2",
          _on_profile(lambda a, b: 2 ** ((a + 1) // 2) + 1
                      if b == 2 * a and a >= 2 else None),
          _color_r_2r),
    Route("deg35-family", "(3,5)-biregular",
          _on_profile(lambda a, b: 7 if (a, b) == (3, 5) else None), _color_3_5),
    Route("complete-bipartite", "complete bipartite K_{a,b}, a < b",
          lambda f: (1 + f.prof.b // math.gcd(f.prof.a, f.prof.b)
                     if f.prof is not None and f.prof.a < f.prof.b
                     and _is_complete_bipartite(f.g, f.prof) else None),
          _complete_on_graph),
    Route("konig-regular", "regular bipartite",
          _on_profile(lambda a, b: 1 if a == b else None), _konig_result),
    Route("konig-biregular", "(a,b)-biregular, from a maxdeg coloring",
          _on_profile(lambda a, b: 1 + math.comb(b, a) if a < b else None),
          _konig_result),
    Route("even-pairs", "even bipartite",
          lambda f: _even_pairs_bound(f.g) if f.even else None,
          lambda g, f, bound: _pairs_result(g)),
    Route("even-deg4", "even bipartite, maxdeg 4",
          lambda f: 3 if f.even and f.g.max_degree == 4 else None,
          lambda g, f, bound: _pairs_result(g)),
    Route("even-deg6", "even bipartite, maxdeg 6",
          lambda f: 7 if f.even and f.g.max_degree == 6 else None,
          lambda g, f, bound: _pairs_result(g)),
    Route("doubling", "bipartite",
          lambda f: None if f.bip is None else doubling_palette_bound(f.g),
          lambda g, f, bound: _doubling_result(g)),
    Route("deg4", "bipartite, maxdeg 4",
          lambda f: 11 if f.bip is not None and f.g.max_degree == 4 else None,
          lambda g, f, bound: _doubling_result(g)),
    Route("deg4-no-pendant", "bipartite, maxdeg 4, no pendants",
          lambda f: (7 if f.bip is not None and f.g.max_degree == 4
                     and f.g.min_degree >= 2 else None),
          lambda g, f, bound: _doubling_result(g)),
    Route("deg5", "bipartite, maxdeg 5",
          lambda f: 23 if f.bip is not None and f.g.max_degree == 5 else None,
          _color_deg5),
    Route("deg5-perfect-matching", "bipartite, maxdeg 5, perfect matching",
          _deg5_perfect_bound, _color_deg5),
)


def route_bounds(facts: RouteFacts) -> list[tuple[Route, int]]:
    """The routes that apply, with their bounds, smallest first; ties keep
    table order, so the first is the route `color_auto` takes."""
    bounds = [(route, route.bound(facts)) for route in ROUTES]
    return sorted((rb for rb in bounds if rb[1] is not None), key=lambda rb: rb[1])


def _color_by_best_route(g: Graph, facts: RouteFacts) -> ConstructionResult:
    routes = route_bounds(facts)
    if not routes:
        raise GraphError("no coloring strategy applies to this graph")
    route, bound = routes[0]
    return route.build(g, facts, bound)


def build_route(tag: str, g: Graph) -> ConstructionResult:
    """Build the ROUTES row `tag` on g, even where `color_auto` takes another.

    g is checked with the row's own bound, the condition `color_auto` tests,
    so the condition is written once: isolated vertices are refused, and a
    graph outside the row raises GraphError `graph is not <note>`, the row's
    note.  On a graph in the row the coloring is the one `color_auto` builds
    when it takes that row.
    """
    route = next((r for r in ROUTES if r.tag == tag), None)
    if route is None:
        raise ValueError(f"no route is tagged {tag!r}")
    if g.has_isolated_vertices():
        raise GraphError("isolated vertices are not allowed here")
    facts = RouteFacts(g)
    bound = route.bound(facts)
    if bound is None:
        raise GraphError(f"graph is not {route.note}")
    return route.build(g, facts, bound)


def color_auto(g: Graph) -> ConstructionResult:
    """Color g by the applicable route with the smallest promised bound;
    ties go to the route listed first in ROUTES.  Only that route is built,
    so a route with a looser promise may achieve fewer palettes."""
    if g.has_isolated_vertices():
        raise GraphError("isolated vertices are not allowed here")
    return _color_by_best_route(g, RouteFacts(g))


def color_biregular_auto(g: Graph) -> ConstructionResult:
    """`color_auto` for biregular graphs, and for bipartite graphs whose
    degrees are all even."""
    facts = RouteFacts(g)
    if facts.prof is None and (not facts.even or g.has_isolated_vertices()):
        raise GraphError("graph is not biregular")
    return _color_by_best_route(g, facts)
