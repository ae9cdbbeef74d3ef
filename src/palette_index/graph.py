"""Graph container, structural queries, and generators.

Vertices are dense integers ``0..vertex_count-1``.  Edges are an ordered
tuple of endpoint pairs; the position of a pair in that tuple is the edge's
stable id for the lifetime of the value.  The container is a multigraph:
parallel edges and loops are representable; ``build_graph`` checks the
endpoints and rejects loops.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

SIDE_X = 0
SIDE_Y = 1


class GraphError(ValueError):
    """Raised when an operation is handed a graph it cannot accept."""


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids incident with each vertex, ascending; a loop appears once."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            if v != u:
                inc[v].append(eid)
        return tuple(tuple(ids) for ids in inc)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.vertex_count
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1  # a loop contributes 2 to its vertex
        return tuple(degs)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @property
    def min_degree(self) -> int:
        return min(self.degrees, default=0)

    def degree_set(self) -> tuple[int, ...]:
        """Sorted distinct vertex degrees (the degree set of the graph)."""
        return tuple(sorted(set(self.degrees)))

    def is_loop(self, eid: int) -> bool:
        u, v = self.edges[eid]
        return u == v

    def other_end(self, eid: int, v: int) -> int:
        a, b = self.edges[eid]
        return b if v == a else a

    def is_even(self) -> bool:
        return all(d % 2 == 0 for d in self.degrees)

    def has_isolated_vertices(self) -> bool:
        # more vertices than edge ends: no per-vertex degrees needed
        return self.vertex_count > 2 * self.edge_count or 0 in self.degrees

    def is_simple(self) -> bool:
        seen = set()
        for u, v in self.edges:
            if u == v:
                return False
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
        return True


@dataclass(frozen=True)
class Bipartition:
    """Side assignment of a bipartite graph; 0 means side X, 1 means side Y."""

    side_of: tuple[int, ...]

    def x_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, s in enumerate(self.side_of) if s == SIDE_X)

    def y_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, s in enumerate(self.side_of) if s == SIDE_Y)


@dataclass(frozen=True)
class BiregularProfile:
    """Degrees and part sizes of an (a,b)-biregular graph, normalized a <= b."""

    a: int
    b: int
    x_vertices: tuple[int, ...]  # the side whose vertices all have degree a
    y_vertices: tuple[int, ...]


@dataclass(frozen=True)
class Component:
    """A connected component with maps back to the host graph."""

    graph: Graph
    vertex_ids: tuple[int, ...]  # local vertex -> host vertex
    edge_ids: tuple[int, ...]  # local edge -> host edge


def build_graph(vertex_count: int,
                edges: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> Graph:
    if vertex_count < 0:
        raise GraphError(f"negative vertex count {vertex_count}")
    for eid, (u, v) in enumerate(edges):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphError(f"edge {eid} endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphError(f"edge {eid} is a loop at {u} but loops are not allowed")
    return Graph(vertex_count, tuple((u, v) for u, v in edges))


def bipartition(g: Graph) -> Bipartition | None:
    """Two-color the vertices by BFS, or return None if an odd cycle exists.

    The smallest vertex of every component goes to side X, so the result is
    deterministic.  Isolated vertices end up on side X.
    """
    side = [-1] * g.vertex_count
    incidence, edges = g.incidence, g.edges
    for root in range(g.vertex_count):
        if side[root] != -1:
            continue
        side[root] = SIDE_X
        queue = [root]
        for v in queue:  # visits the vertices appended while it runs
            side_v = side[v]
            for eid in incidence[v]:
                x, y = edges[eid]
                w = x ^ y ^ v  # the other end
                if w == v:
                    return None  # a loop is an odd cycle
                side_w = side[w]
                if side_w == -1:
                    side[w] = 1 - side_v
                    queue.append(w)
                elif side_w == side_v:
                    return None
    return Bipartition(tuple(side))


def biregular_profile(g: Graph) -> BiregularProfile | None:
    """Detect an (a,b)-biregular structure.

    Returns None unless g is bipartite and, component by component, one part
    is degree-homogeneous with degree a and the other with degree b (a <= b
    after normalization).  Graphs with isolated vertices never qualify.

    For a < b that holds exactly when every edge joins a degree-a vertex to a
    degree-b vertex, so the degree classes are the sides; a regular graph
    takes the sides of `bipartition`.
    """
    degs = g.degrees
    degree_set = g.degree_set()
    if not degree_set or degree_set[0] == 0 or len(degree_set) > 2:
        return None
    if len(degree_set) == 1:
        bip = bipartition(g)
        if bip is None:
            return None
        a = b = degree_set[0]
        x_verts, y_verts = bip.x_vertices(), bip.y_vertices()
    else:
        a, b = degree_set
        if any(degs[u] == degs[v] for u, v in g.edges):
            return None
        x_verts = tuple(v for v in range(g.vertex_count) if degs[v] == a)
        y_verts = tuple(v for v in range(g.vertex_count) if degs[v] == b)
    return BiregularProfile(a, b, x_verts, y_verts)


def gen_complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with u-vertices 0..a-1, v-vertices a..a+b-1, edges in (i,j) order."""
    if a < 1 or b < 1:
        raise GraphError(f"complete bipartite needs positive part sizes, got ({a}, {b})")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph(a + b, tuple(edges))


def gen_grid(m: int, n: int) -> Graph:
    """The m-by-n grid; vertex (i,j) (1-based) has id (i-1)*n + (j-1).

    Horizontal edges come first, row by row, then vertical edges.
    """
    if m < 2 or n < 2:
        raise GraphError(f"grid dimensions must be at least 2, got ({m}, {n})")
    edges: list[tuple[int, int]] = []
    for i in range(m):
        for j in range(n - 1):
            edges.append((i * n + j, i * n + j + 1))
    for i in range(m - 1):
        for j in range(n):
            edges.append((i * n + j, (i + 1) * n + j))
    return Graph(m * n, tuple(edges))


def gen_random_biregular(a: int, b: int, scale: int, seed: int) -> Graph:
    """A seeded simple (a,b)-biregular graph with scale*b + scale*a vertices.

    The degree-a side has scale*b vertices (ids 0..scale*b-1), the degree-b
    side scale*a vertices.  Half-edges are paired configuration-model style;
    multi-edges are then removed by degree-preserving swaps, restarting when
    a repair stalls.
    """
    if not (1 <= a <= b):
        raise GraphError(f"need 1 <= a <= b, got ({a}, {b})")
    if scale < 1:
        raise GraphError(f"scale must be positive, got {scale}")
    x_count, y_count = scale * b, scale * a
    rng = random.Random(seed)
    if b == x_count:
        # every degree-b vertex must be adjacent to the whole other side, so
        # the only simple realization is complete
        edges = sorted((x, x_count + y) for x in range(x_count) for y in range(y_count))
        return Graph(x_count + y_count, tuple(edges))
    budget = 10 * scale * b
    g = _random_bipartite_with_degrees([a] * x_count, [b] * y_count, rng,
                                       restarts=budget)
    if g is None:
        raise GraphError(
            f"could not realize a simple ({a},{b})-biregular graph at scale {scale} "
            f"within {budget} restarts; parameters too tight")
    return g


def _repair_multiedges(pairs: list[tuple[int, int]],
                       rng: random.Random, attempts: int) -> bool:
    """Swap endpoints between random edge pairs until no duplicates remain.

    A swap only creates pairs that were absent, so the first duplicate's
    index never moves left and one forward pointer finds it.
    """
    counts = Counter(pairs)
    n_dup = sum(c - 1 for c in counts.values())
    i = 0
    for _ in range(attempts):
        if n_dup == 0:
            return True
        while counts[pairs[i]] < 2:
            i += 1
        j = rng.randrange(len(pairs))
        xi, yi = pairs[i]
        xj, yj = pairs[j]
        if i == j or xi == xj or yi == yj:
            continue
        new_i, new_j = (xi, yj), (xj, yi)
        if counts[new_i] or counts[new_j]:
            continue
        for old in (pairs[i], pairs[j]):
            if counts[old] > 1:
                n_dup -= 1
            counts[old] -= 1
        counts[new_i] += 1
        counts[new_j] += 1
        pairs[i], pairs[j] = new_i, new_j
    return n_dup == 0


def even_closure(g: Graph) -> Graph:
    """Two disjoint copies of g plus one edge per odd-degree vertex between
    its two copies.  The result is even and bipartite.

    Copy 1 keeps g's vertex and edge ids: edge e of g is edge e of the
    closure, for every e in 0..edge_count-1.
    """
    if bipartition(g) is None:
        raise GraphError("even closure requires a bipartite graph")
    n = g.vertex_count
    edges = list(g.edges)
    edges.extend((u + n, v + n) for u, v in g.edges)
    for v in range(n):
        if g.degrees[v] % 2 == 1:
            edges.append((v, v + n))
    return Graph(2 * n, tuple(edges))


def components(g: Graph) -> list[Component]:
    """Connected components with back-maps, ordered by smallest vertex id."""
    seen = [False] * g.vertex_count
    result: list[Component] = []
    for root in range(g.vertex_count):
        if seen[root]:
            continue
        seen[root] = True
        verts = [root]
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for eid in g.incidence[v]:
                w = g.other_end(eid, v)
                if not seen[w]:
                    seen[w] = True
                    verts.append(w)
                    queue.append(w)
        verts.sort()
        local = {host: i for i, host in enumerate(verts)}
        edge_ids = sorted({eid for v in verts for eid in g.incidence[v]})
        local_edges = tuple((local[g.edges[eid][0]], local[g.edges[eid][1]])
                            for eid in edge_ids)
        result.append(Component(
            Graph(len(verts), local_edges),
            tuple(verts), tuple(edge_ids)))
    return result


def edge_subgraph(g: Graph, edge_ids) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on the same vertex set keeping only the given edges.

    Edges keep their relative order; returns the kept ids (new id -> old id).
    """
    kept = tuple(sorted(edge_ids))
    edges = tuple(g.edges[eid] for eid in kept)
    return Graph(g.vertex_count, edges), kept


def without_isolated(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Drop degree-0 vertices, keeping edge ids intact (new vertex -> old).

    With no degree-0 vertex, returns g itself, with its cached incidence and
    degrees, and the identity map `tuple(range(n))`.
    """
    if not g.has_isolated_vertices():
        return g, tuple(range(g.vertex_count))
    keep = sorted({v for edge in g.edges for v in edge})  # no list over all vertices
    local = {host: i for i, host in enumerate(keep)}
    edges = tuple((local[u], local[v]) for u, v in g.edges)
    return Graph(len(keep), edges), tuple(keep)


def gen_random_even_bipartite(max_degree: int, seed: int) -> Graph:
    """A seeded bipartite graph whose degrees are even and at most max_degree,
    with the maximum degree attained.  Used for exercising the even-degree
    coloring bound on non-biregular inputs.

    A drawn degree sequence that no simple bipartite graph has is rejected
    by the Gale–Ryser test before any pairing, and the next one is drawn.
    """
    if max_degree < 2 or max_degree % 2 != 0:
        raise GraphError(f"max degree must be even and >= 2, got {max_degree}")
    rng = random.Random(seed)
    choices = list(range(2, max_degree + 1, 2))
    for _ in range(100):
        x_degs = [rng.choice(choices)
                  for _ in range(rng.randint(max(4, max_degree), max_degree + 5))]
        if max_degree not in x_degs:
            x_degs[0] = max_degree
        total = sum(x_degs)
        # enough Y-vertices that every degree fits on the other side
        y_count = max(-(-total // max_degree), max(x_degs))
        # equal even parts, each in 2..max_degree: parts filled up to the
        # cap would fail the Gale–Ryser test from max degree 16 on
        q, r = divmod(total // 2, y_count)
        y_degs = [2 * q + 2] * r + [2 * q] * (y_count - r)
        g = _random_bipartite_with_degrees(x_degs, y_degs, rng, restarts=40)
        if g is not None:
            return g
    raise GraphError(f"failed to sample an even bipartite graph for seed {seed}")


def _random_bipartite_with_degrees(x_degs: list[int], y_degs: list[int],
                                   rng: random.Random, restarts: int) -> Graph | None:
    """Configuration pairing with repair for an arbitrary bipartite degree
    sequence; None when no simple realization was found within `restarts`
    fresh pairings.

    A sequence that fails the Gale–Ryser test has no simple realization, so
    it returns None before any pairing, drawing nothing from `rng`.
    """
    if not _bipartite_graphical(x_degs, y_degs):
        return None
    nx = len(x_degs)
    x_stubs = [x for x, d in enumerate(x_degs) for _ in range(d)]
    for _ in range(restarts):
        y_stubs = [nx + y for y, d in enumerate(y_degs) for _ in range(d)]
        rng.shuffle(y_stubs)
        pairs = list(zip(x_stubs, y_stubs))
        if _repair_multiedges(pairs, rng, attempts=50 * len(pairs)):
            return Graph(nx + len(y_degs), tuple(sorted(pairs)))
    return None


def _bipartite_graphical(x_degs: list[int], y_degs: list[int]) -> bool:
    """Gale–Ryser: whether some simple bipartite graph has these side degrees.

    With the X degrees sorted descending, the k largest must fit into what Y
    can take from k vertices, the sum over Y of min(d, k), for every k.  That
    capacity is a running sum of the conjugate of the Y degrees (how many
    reach t, for t = 1..k), so the test costs a sort of X plus one pass over
    Y and its degree range, never |X|*|Y|.
    """
    if sum(x_degs) != sum(y_degs):
        return False
    reaching = [0] * (max(y_degs, default=0) + 1)  # reaching[t]: Y degrees >= t
    for d in y_degs:
        reaching[d] += 1
    for t in range(len(reaching) - 2, -1, -1):
        reaching[t] += reaching[t + 1]
    # at k = max(y_degs) the capacity is the whole sum, so no later k fails
    need = capacity = 0
    for k, d in zip(range(1, len(reaching)), sorted(x_degs, reverse=True)):
        need += d
        capacity += reaching[k]
        if need > capacity:
            return False
    return True
