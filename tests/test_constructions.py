from __future__ import annotations

import hashlib
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palette_index import constructions, decompose
from palette_index.coloring import ColoringError, palette_summary
from palette_index.constructions import (ROUTES, RouteFacts, build_route,
                                         color_3_3r, color_3_5, color_4_4r,
                                         color_5_5r, color_auto,
                                         color_biregular_auto,
                                         color_complete_bipartite, color_deg5,
                                         color_even_bipartite, color_grid,
                                         color_grid_on, color_r_2r,
                                         color_via_doubling,
                                         grid_palette_value, recognize_grid)
from palette_index.decompose import factor_arcs
from palette_index.exact import palette_index_exact
from palette_index.graph import (SIDE_X, GraphError, bipartition,
                                 build_graph,
                                 gen_complete_bipartite,
                                 gen_grid, gen_random_biregular,
                                 gen_random_even_bipartite)


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(*graphs):
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.vertex_count
    return build_graph(offset, edges)


# every ConstructionResult verifies properness and its bound internally, so
# these tests focus on the promised palette structure


def test_even_bipartite_k24():
    result = color_even_bipartite(gen_complete_bipartite(2, 4))
    assert result.claimed_palette_bound == 3  # C(2,1) + C(2,2)
    assert result.palettes == 3  # the exact value for this graph


def test_even_bipartite_pair_palettes():
    g = gen_random_even_bipartite(6, 12)
    result = color_even_bipartite(g)
    summary = palette_summary(g, result.coloring)
    full = frozenset(range(1, g.max_degree + 1))
    for v in range(g.vertex_count):
        palette = summary.palette_of[v]
        assert all(c in palette for c in
                   {p + 1 if p % 2 == 1 else p - 1 for p in palette})
        if g.degrees[v] == g.max_degree:
            assert palette == full


@pytest.mark.parametrize("r", [2, 3])
def test_even_bipartite_two_regular_families(r):
    g = gen_random_biregular(2, 2 * r, 2, 5)
    result = color_even_bipartite(g)
    assert result.palettes == r + 1  # exact for these degree profiles


def test_even_bipartite_c6_single_palette():
    assert color_even_bipartite(cycle(6)).palettes == 1


def test_even_bipartite_rejects_odd_degrees():
    with pytest.raises(GraphError):
        color_even_bipartite(gen_complete_bipartite(2, 3))


def hand_walk_cycles(g):
    """Each 2-factor's cycles walked by hand, as (i, edge-id cycle) pairs:
    take factor i of g padded with loops up to the maximum degree from the
    table `color_even_bipartite` reads (the edges of the arcs of color i,
    one leaving each vertex), drop the loops, and walk each cycle of factor
    i from its smallest vertex along its smaller edge id."""
    n, m, r = g.vertex_count, g.edge_count, g.max_degree // 2
    color, tails, source = decompose._two_factor_table(g, r)
    cycles = []
    for i in range(1, r + 1):
        arcs = [a for a, c in enumerate(color) if c == i]
        assert sorted(tails[a] for a in arcs) == list(range(n))
        real = sorted(source[a] for a in arcs if a < m)
        inc = {}
        for eid in real:
            for v in g.edges[eid]:
                inc.setdefault(v, []).append(eid)
        unused = set(real)
        for v0 in sorted(inc):
            starters = [e for e in inc[v0] if e in unused]
            if not starters:
                continue
            eid, cur, cycle = starters[0], v0, []
            while True:
                cycle.append(eid)
                unused.discard(eid)
                cur = g.other_end(eid, cur)
                nxt = [e for e in inc[cur] if e in unused]
                if not nxt:
                    break
                eid = nxt[0]
            assert cur == v0
            cycles.append((i, cycle))
    return cycles


def reference_even_pairs_colors(g):
    """An even bipartite coloring with each hand-walked cycle of factor i
    colored alternately 2i-1, 2i from its start."""
    colors = [0] * g.edge_count
    for i, cycle in hand_walk_cycles(g):
        for pos, eid in enumerate(cycle):
            colors[eid] = 2 * i - 1 + pos % 2
    return colors


def assert_palettes_match_the_hand_walk(g):
    """`color_even_bipartite` gives every vertex the hand walk's palette,
    and colors each edge of factor i 2i-1 when its arc leaves side X and 2i
    when it leaves side Y."""
    colors = color_even_bipartite(g).coloring
    assert palette_summary(g, colors).palette_of == \
        palette_summary(g, reference_even_pairs_colors(g)).palette_of
    factor, tail = factor_arcs(g)
    side = bipartition(g).side_of
    for eid, c in enumerate(colors):
        assert (c + 1) // 2 == factor[eid]
        assert (c % 2 == 1) == (side[tail[eid]] == SIDE_X)


def even_bipartite_multigraph(delta, rng):
    """A random even bipartite multigraph of maximum degree at most delta,
    without isolated vertices: closed walks x0 y0 x1 y1 .. x0 across two
    sides, where the walk x y x is a pair of parallel edges."""
    a, b = rng.randint(1, 6), rng.randint(1, 6)
    deg = [0] * (a + b)
    edges = []
    for _ in range(rng.randint(1, 12)):
        k = rng.randint(1, 4)
        xs = [rng.randrange(a) for _ in range(k)]
        ys = [a + rng.randrange(b) for _ in range(k)]
        walk = [e for i in range(k) for e in ((xs[i], ys[i]), (ys[i], xs[i - 1]))]
        ends = [v for e in walk for v in e]
        if all(deg[v] + ends.count(v) <= delta for v in set(ends)):
            edges += walk
            for v in ends:
                deg[v] += 1
    present = sorted({v for e in edges for v in e})
    new_id = dict(zip(present, rng.sample(range(len(present)), len(present))))
    rng.shuffle(edges)
    return build_graph(len(present), [(new_id[u], new_id[v]) for u, v in edges])


def relabeled_union(copies, g, rng):
    """`copies` disjoint copies of g with vertex ids permuted and edges
    shuffled, so no component's vertices are consecutive."""
    n = g.vertex_count
    perm = rng.sample(range(copies * n), copies * n)
    edges = [(perm[k * n + u], perm[k * n + v])
             for k in range(copies) for u, v in g.edges]
    rng.shuffle(edges)
    return build_graph(copies * n, edges)


@pytest.mark.parametrize("delta", [2, 4, 6, 8])
def test_even_bipartite_palettes_match_the_hand_walk(delta):
    rng = random.Random(delta)
    graphs = [gen_random_even_bipartite(delta, seed) for seed in range(25)]
    graphs += [even_bipartite_multigraph(delta, rng) for _ in range(40)]
    graphs.append(relabeled_union(60, gen_complete_bipartite(2, delta), rng))
    graphs.append(gen_random_biregular(2, delta, 800 // delta, 1))
    padding, two_cycles = set(), 0
    for g in graphs:
        assert_palettes_match_the_hand_walk(g)
        padding |= {(g.max_degree - d) // 2 for d in g.degrees}
        two_cycles += sum(len(c) == 2 for _, c in hand_walk_cycles(g))
    # vertices took every count of padding loops, and factors held 2-cycles
    assert padding == set(range(delta // 2))
    assert two_cycles > 0


@pytest.mark.parametrize("a,b", [(2, 4), (2, 6), (4, 8)])
def test_even_family_palettes_match_the_hand_walk(a, b):
    for scale in (1, 2, 3):
        for seed in range(4):
            assert_palettes_match_the_hand_walk(gen_random_biregular(a, b, scale, seed))


def test_doubling_sharpness_union():
    sharp = disjoint_union(gen_complete_bipartite(1, 4),
                           gen_complete_bipartite(2, 4),
                           gen_complete_bipartite(3, 4))
    result = color_via_doubling(sharp)
    assert result.claimed_palette_bound == 11
    assert result.palettes == 11  # the union is known to need all 11


def test_doubling_even_graph_matches_direct_scheme():
    g = gen_random_even_bipartite(4, 7)
    assert color_via_doubling(g).palettes == color_even_bipartite(g).palettes


def test_doubling_path():
    result = color_via_doubling(build_graph(3, [(0, 1), (1, 2)]))
    assert result.claimed_palette_bound == 3
    assert result.palettes == 3  # a 3-vertex star needs one palette per vertex


def test_deg5_star():
    result = color_deg5(gen_complete_bipartite(1, 5))
    assert result.palettes == 6  # stars need one palette per vertex
    assert result.colors_used == 5


def test_deg5_k35_bound():
    result = color_deg5(gen_complete_bipartite(3, 5))
    assert result.claimed_palette_bound == 23
    assert result.palettes <= 23


def test_deg5_perfect_matching_variant():
    g = gen_random_biregular(5, 5, 1, 3)
    result = color_deg5(g)
    assert result.theorem_tag == "deg5-perfect-matching"
    assert result.claimed_palette_bound == 12


def test_deg5_rejects_wrong_degree():
    with pytest.raises(GraphError):
        color_deg5(gen_complete_bipartite(2, 4))


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("n", range(2, 9))
def test_grid_exact_palette_counts(m, n):
    result = color_grid(m, n)
    assert result.palettes == grid_palette_value(m, n)
    assert result.colors_used <= 4


def test_grid_value_table():
    assert grid_palette_value(2, 2) == 1
    assert grid_palette_value(2, 7) == 2
    assert grid_palette_value(4, 5) == 3
    assert grid_palette_value(3, 3) == 5


def test_recognize_grid_roundtrip():
    assert recognize_grid(gen_grid(3, 4)) == (3, 4)
    assert recognize_grid(gen_complete_bipartite(2, 4)) is None
    result = color_grid_on(gen_grid(5, 3))
    assert result.palettes == 5


def reference_recognize_grid(g):
    """The sorted-multiset definition: g's edges, each as a sorted pair,
    sorted, equal those of `gen_grid(m, n)`."""
    edge_multiset = sorted(tuple(sorted(e)) for e in g.edges)
    for m in range(2, g.vertex_count // 2 + 1):
        n, rest = divmod(g.vertex_count, m)
        if not rest and sorted(tuple(sorted(e)) for e in gen_grid(m, n).edges) == edge_multiset:
            return (m, n)
    return None


def grid_variants(m, n, rng):
    """The m-by-n grid, shuffled with endpoints flipped, then mutants of it."""
    grid = gen_grid(m, n)
    count = grid.vertex_count
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in grid.edges]
    rng.shuffle(edges)
    yield "shuffled", build_graph(count, edges)
    present = {tuple(sorted(e)) for e in edges}
    off_grid = rng.choice([(u, v) for u in range(count) for v in range(u + 1, count)
                           if (u, v) not in present])
    i = rng.randrange(len(edges))
    yield "off-grid", build_graph(count, edges[:i] + [off_grid] + edges[i + 1:])
    j = (i + 1 + rng.randrange(len(edges) - 1)) % len(edges)
    yield "duplicate", build_graph(count, edges[:i] + [edges[j]] + edges[i + 1:])
    # position (i, j) labeled column-major: the n-by-m grid's labeling
    yield "transposed", build_graph(count, [(u % n * m + u // n, v % n * m + v // n)
                                            for u, v in edges])
    yield "shifted", build_graph(count, [((u + 1) % count, (v + 1) % count)
                                         for u, v in edges])
    pool = [(u, v) for u in range(count) for v in range(u + 1, count)]
    yield "random", build_graph(count, rng.sample(pool, len(edges)))


@pytest.mark.parametrize("m", range(2, 10))
@pytest.mark.parametrize("n", range(2, 10))
def test_recognize_grid_matches_the_multiset_definition(m, n):
    rng = random.Random(f"{m}x{n}")
    for kind, g in grid_variants(m, n, rng):
        got = recognize_grid(g)
        assert got == reference_recognize_grid(g), kind
        if kind == "shuffled":
            assert got == (m, n)
        elif kind == "transposed":
            assert got == (n, m)


@pytest.mark.parametrize("m", range(2, 10))
@pytest.mark.parametrize("n", range(2, 10))
def test_route_sides_of_grid_variants_match_bfs(m, n):
    rng = random.Random(f"{m}x{n}")
    for kind, g in grid_variants(m, n, rng):
        assert RouteFacts(g).bip == bipartition(g), kind


def reference_grid_colors(m, n):
    """The grid patterns as tables keyed by sorted coordinate pairs, 1-based:
    the even-row pattern, its transpose, and the 3-row pattern under an
    all-4 seam."""
    def key(p, q):
        return (p, q) if p <= q else (q, p)

    def even_rows(m, n):
        colors = {}
        for i in range(1, m + 1):
            for j in range(1, n):
                colors[key((i, j), (i, j + 1))] = 2 if j % 2 == 1 else 1
        for i in range(1, m // 2 + 1):
            for j in range(1, n):
                colors[key((2 * i - 1, j), (2 * i, j))] = 1 if j == 1 else 3
        for i in range(1, m // 2):
            for j in range(1, n + 1):
                colors[key((2 * i, j), (2 * i + 1, j))] = 3 if j in (1, n) else 4
        for i in range(1, m // 2 + 1):
            colors[key((2 * i - 1, n), (2 * i, n))] = 2 if n % 2 == 1 else 1
        return colors

    def three_rows(n):
        colors = {}
        row_colors = {1: (2, 1), 2: (2, 4), 3: (4, 2)}  # (odd j, even j)
        for i in (1, 2, 3):
            odd_c, even_c = row_colors[i]
            for j in range(1, n):
                colors[key((i, j), (i, j + 1))] = odd_c if j % 2 == 1 else even_c
        for j in range(2, n):
            colors[key((1, j), (2, j))] = 3
            colors[key((2, j), (3, j))] = 1
        colors[key((1, 1), (2, 1))] = 1
        colors[key((2, n), (3, n))] = 1
        colors[key((1, n), (2, n))] = 2
        colors[key((2, 1), (3, 1))] = 3
        return colors

    if m % 2 == 0:
        return even_rows(m, n)
    if n % 2 == 0:
        return {key((j1, i1), (j2, i2)): c
                for ((i1, j1), (i2, j2)), c in even_rows(n, m).items()}
    if m == 3:
        return three_rows(n)
    colors = even_rows(m - 3, n)
    for ((i1, j1), (i2, j2)), c in three_rows(n).items():
        colors[key((i1 + m - 3, j1), (i2 + m - 3, j2))] = c
    for j in range(1, n + 1):
        colors[key((m - 3, j), (m - 2, j))] = 4
    return colors


@pytest.mark.parametrize("m", range(2, 16))
def test_grid_colors_match_the_reference_patterns(m):
    for n in range(2, 16):
        g = gen_grid(m, n)
        table = reference_grid_colors(m, n)
        assert len(table) == g.edge_count
        got = color_grid(m, n).coloring
        for eid, (u, v) in enumerate(g.edges):
            u, v = min(u, v), max(u, v)
            assert got[eid] == table[((u // n + 1, u % n + 1), (v // n + 1, v % n + 1))], \
                (m, n, u, v)


def reference_complete_bipartite_colors(a, b):
    """K_{a,b}'s pattern as a table keyed by (i, j), 1-based, i on the
    a-vertex side: a base d-coloring of K_{d,d} (d = gcd) translated across
    blocks of d."""
    d = math.gcd(a, b)
    colors = {}
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            base = 1 + ((1 + (i - 1) % d) + (1 + (j - 1) % d) - 2) % d
            colors[(i, j)] = base + d * (((i - 1) // d + (j - 1) // d) % (b // d))
    return colors


def test_complete_bipartite_colors_match_the_reference_table():
    for a in range(1, 17):
        for b in range(a + 1, 17):
            table = reference_complete_bipartite_colors(a, b)
            got = color_complete_bipartite(a, b).coloring
            assert got == [table[divmod(eid, b)[0] + 1, eid % b + 1]
                           for eid in range(a * b)], (a, b)


@pytest.mark.parametrize("a,b", [(1, 4), (2, 3), (2, 6), (3, 5), (4, 6), (3, 9),
                                 (6, 8), (5, 15)])
def test_complete_bipartite_on_relabeled_graphs_follows_the_closed_form(a, b):
    rng = random.Random(f"K{a},{b}")
    labels = list(range(a + b))
    rng.shuffle(labels)
    edges = [(labels[u], labels[v]) if rng.random() < 0.5 else (labels[v], labels[u])
             for u, v in gen_complete_bipartite(a, b).edges]
    rng.shuffle(edges)
    g = build_graph(a + b, edges)
    small = sorted(labels[:a])  # the a vertices of degree b
    big = sorted(labels[a:])
    d = math.gcd(a, b)
    got = build_route("complete-bipartite", g).coloring
    for eid, (p, q) in enumerate(g.edges):
        if p not in small:
            p, q = q, p
        i, j = small.index(p) + 1, big.index(q) + 1
        assert got[eid] == 1 + (i + j - 2) % d + d * (((i - 1) // d + (j - 1) // d) % (b // d))


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 8)
                                 for b in range(a + 1, 9)])
def test_complete_bipartite_block_counts(a, b):
    result = color_complete_bipartite(a, b)
    assert result.palettes == 1 + b // math.gcd(a, b)
    assert result.colors_used == b


def test_complete_bipartite_small_side_full_palette():
    g = gen_complete_bipartite(2, 4)
    result = color_complete_bipartite(2, 4)
    summary = palette_summary(g, result.coloring)
    assert summary.palette_of[0] == summary.palette_of[1] == frozenset({1, 2, 3, 4})


@pytest.mark.parametrize("a,b", [(2, 4), (4, 6), (3, 5), (4, 8)])
def test_complete_bipartite_big_side_palette_blocks(a, b):
    d = math.gcd(a, b)
    g = gen_complete_bipartite(a, b)
    summary = palette_summary(g, color_complete_bipartite(a, b).coloring)
    for block in range(b // d):
        block_palettes = {summary.palette_of[a + block * d + k] for k in range(d)}
        assert len(block_palettes) == 1


def test_complete_bipartite_rejects_bad_sizes():
    with pytest.raises(GraphError):
        color_complete_bipartite(3, 3)


def test_3_3r_k36():
    result = color_3_3r(gen_complete_bipartite(3, 6))
    assert result.claimed_palette_bound == 5
    assert result.palettes <= 5


def test_3_3r_random_instances():
    assert color_3_3r(gen_random_biregular(3, 9, 2, 4)).palettes <= 10
    assert color_3_3r(gen_random_biregular(6, 9, 2, 4)).palettes <= 10


def test_finish_rejects_an_edge_a_builder_left_uncolored(monkeypatch):
    # the (3,3r) row colors its factor last, by Kőnig; one color short, the
    # factor's last edge keeps the 0 its row's list starts with
    g = gen_random_biregular(3, 9, 2, 4)
    real, missed = constructions.konig_coloring, []

    def one_short(sub, bip):
        missed.append(g.edges.index(sub.edges[-1]))  # g is simple
        return real(sub, bip)[:-1]

    monkeypatch.setattr(constructions, "konig_coloring", one_short)
    with pytest.raises(ColoringError) as err:
        color_3_3r(g)
    assert len(missed) == 1
    assert str(err.value) == f"edge {missed[0]} has non-positive color 0"


def test_4_4r_instances():
    assert color_4_4r(gen_random_biregular(4, 8, 2, 1)).palettes <= 5
    assert color_4_4r(gen_random_biregular(4, 12, 2, 1)).palettes <= 10
    assert color_4_4r(gen_random_biregular(4, 16, 2, 1)).palettes <= 17
    assert color_4_4r(gen_random_biregular(8, 12, 2, 1)).palettes <= 10


def test_5_5r_instance():
    result = color_5_5r(gen_random_biregular(5, 10, 2, 8))
    assert result.claimed_palette_bound == 9
    assert result.palettes <= 9


def test_r_2r_even_and_odd():
    assert color_r_2r(gen_random_biregular(6, 12, 2, 2)).palettes <= 9
    assert color_r_2r(gen_random_biregular(8, 16, 1, 2)).palettes <= 17
    assert color_r_2r(gen_random_biregular(3, 6, 2, 2)).palettes <= 5
    assert color_r_2r(gen_complete_bipartite(2, 4)).palettes == 3


def test_3_5_instances():
    assert color_3_5(gen_complete_bipartite(3, 5)).palettes == 5  # exact value
    assert color_3_5(gen_random_biregular(3, 5, 2, 6)).palettes <= 7


def two_odd(g):
    return build_route("two-odd-family", g)


def test_2_odd_k23():
    result = two_odd(gen_complete_bipartite(2, 3))
    assert result.claimed_palette_bound == 4
    assert result.palettes == 4  # sharp for (2,3)-profiles


def test_2_odd_random_23():
    for seed in range(3):
        result = two_odd(gen_random_biregular(2, 3, 3, seed))
        assert result.palettes == 4


def test_2_odd_k25():
    result = two_odd(gen_complete_bipartite(2, 5))
    assert result.claimed_palette_bound == 6


@pytest.mark.parametrize("b", [7, 9])
def test_2_odd_wider_profiles(b):
    shuffled = relabeled_union(4, gen_random_biregular(2, b, 3, 1), random.Random(b))
    for g in (gen_random_biregular(2, b, 2, 3), shuffled):
        assert two_odd(g).palettes <= b + 1


# 50 edges on which a block-interval search of 5*10**4 nodes finds no
# coloring; the repair takes 8 steps
TWO_ODD_REPRO = gen_random_biregular(2, 5, 5, 1)


def test_2_odd_colors_the_graph_the_block_search_declined():
    result = two_odd(TWO_ODD_REPRO)
    assert (result.palettes, result.claimed_palette_bound, result.theorem_tag) \
        == (6, 6, "two-odd-cyclic")
    assert color_auto(TWO_ODD_REPRO).theorem_tag == "two-odd-cyclic"


def test_2_odd_declines_where_its_search_finds_no_coloring(monkeypatch):
    # with no steps the repair cannot mend the Kőnig start
    monkeypatch.setattr(decompose, "_REPAIR_STEPS_PER_EDGE", 0)
    note = next(r.note for r in ROUTES if r.tag == "two-odd-family")
    with pytest.raises(GraphError, match=re.escape(f"graph is not {note}")):
        two_odd(TWO_ODD_REPRO)
    assert color_auto(TWO_ODD_REPRO).theorem_tag == "doubling"


# small (2,odd) graphs whose palette index the exact solver proves in
# well under a second
SMALL_TWO_ODD = [gen_random_biregular(2, b, scale, seed)
                 for b, scale, seeds in ((3, 1, 1), (3, 2, 2), (3, 3, 2),
                                         (5, 1, 1), (5, 2, 3), (7, 1, 1))
                 for seed in range(seeds)]


@pytest.mark.parametrize("g", SMALL_TWO_ODD)
def test_2_odd_lies_between_the_exact_value_and_b_plus_1(g):
    b = g.max_degree
    exact = palette_index_exact(g)
    assert exact.proved
    rng = random.Random(g.edge_count)
    for h in (g, relabeled_union(1, g, rng), relabeled_union(3, g, rng)):
        assert exact.value <= two_odd(h).palettes <= b + 1


def test_2_odd_colors_are_pinned_across_python_versions(monkeypatch):
    # the repair takes 165 random steps on these 130 edges, more than a
    # budget of one step per edge allows, so a change in the rng's stream
    # moves the digest
    g = gen_random_biregular(2, 13, 5, 2)
    text = " ".join(map(str, two_odd(g).coloring))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cdc37930fdd97121800395be3736f61b5a5fb8af12dca998742740a09a509f43")
    monkeypatch.setattr(decompose, "_REPAIR_STEPS_PER_EDGE", 1)
    with pytest.raises(GraphError):
        two_odd(g)


def deg5_graphs(count, rng):
    """Simple bipartite graphs of maximum degree 5 and no isolated vertex,
    on 4 to 8 vertices a side; equal sides often hold a perfect matching."""
    graphs = []
    while len(graphs) < count:
        xs, ys = rng.randint(4, 8), rng.randint(4, 8)
        deg, edges = [0] * (xs + ys), set()
        for _ in range(4 * (xs + ys)):
            u, v = rng.randrange(xs), rng.randrange(xs, xs + ys)
            if deg[u] < 5 and deg[v] < 5 and (u, v) not in edges:
                edges.add((u, v))
                deg[u] += 1
                deg[v] += 1
        if 0 not in deg and 5 in deg:
            graphs.append(build_graph(xs + ys, sorted(edges)))
    return graphs


def test_family_row_colorings_are_pinned():
    # every byte of every family row's coloring, by builder and theorem tag:
    # a change to how a row colors its parts or its extra factor moves it
    rng = random.Random(27)
    runs = [(build, gen_random_biregular(a, b, scale, seed))
            for build, a, b in ((color_3_3r, 3, 6), (color_3_3r, 3, 9),
                                (color_3_3r, 6, 9), (color_3_3r, 9, 12),
                                (color_4_4r, 4, 8), (color_4_4r, 4, 12),
                                (color_4_4r, 8, 12), (color_5_5r, 5, 10),
                                (color_5_5r, 5, 15), (color_r_2r, 2, 4),
                                (color_r_2r, 3, 6), (color_r_2r, 4, 8),
                                (color_r_2r, 5, 10), (color_r_2r, 7, 14),
                                (color_3_5, 3, 5), (color_auto, 1, 4),
                                (color_auto, 1, 7))
            for scale, seed in ((1, 0), (2, 1), (3, 2))]
    runs += [(color_3_3r, relabeled_union(3, gen_random_biregular(6, 9, 1, 0), rng)),
             (color_auto, relabeled_union(4, gen_random_biregular(1, 5, 2, 0), rng))]
    runs += [(color_deg5, g) for g in deg5_graphs(20, rng)]
    h, tags = hashlib.sha256(), set()
    for build, g in runs:
        result = build(g)
        tags.add(result.theorem_tag)
        h.update(repr((result.theorem_tag, result.coloring)).encode())
    assert tags == {"deg3-multiple", "deg3-multiple-complement", "deg4-multiple",
                    "deg4-multiple-complement", "deg5-multiple",
                    "half-degree-family", "deg35-matching", "deg5",
                    "deg5-perfect-matching", "star"}
    assert h.hexdigest() == (
        "5728f62138178012527b9e835c2a5e84f23c1ee1991b920f1db9adc55964fc24")


def test_route_colorings_are_pinned():
    # every byte of the colorings of the rows outside the families, each
    # taken by `color_auto`: a change to the 2-factor table, Kőnig's
    # coloring, the cyclic-interval repair or the grid pattern moves it
    graphs = [gen_grid(m, n) for m, n in ((3, 5), (6, 9), (12, 13))]
    graphs += [gen_random_biregular(a, b, scale, seed)
               for a, b in ((3, 3), (4, 4), (6, 6), (5, 7), (4, 7), (5, 9),
                            (3, 7), (2, 5), (2, 7), (2, 9))
               for scale, seed in ((2, 1), (3, 2))]
    graphs += [gen_random_even_bipartite(d, seed) for d in (4, 6, 8, 10) for seed in (0, 1)]
    h, routes = hashlib.sha256(), set()
    for g in graphs:
        routes.add(constructions.route_bounds(RouteFacts(g))[0][0].tag)
        result = color_auto(g)
        h.update(repr((result.theorem_tag, result.coloring)).encode())
    assert routes == {"grid", "konig-regular", "konig-biregular", "even-pairs",
                      "doubling", "two-odd-family"}
    assert h.hexdigest() == (
        "05f79da1ab58ddfa72ef666b1010024184be9c9d174ed29aabdf0a87cf7e195b")


def test_deg5_rejects_isolated():
    star_plus_isolated = build_graph(7, [(0, 1 + i) for i in range(5)])
    with pytest.raises(GraphError):
        color_deg5(star_plus_isolated)


def test_auto_routes_even_family():
    result = color_biregular_auto(gen_complete_bipartite(2, 6))
    assert result.theorem_tag == "even-bipartite-pairs"
    assert result.palettes == 4


def test_auto_routes_complete_when_strictly_better():
    result = color_biregular_auto(gen_complete_bipartite(3, 9))
    assert result.theorem_tag == "complete-bipartite"
    assert result.palettes == 4


def test_auto_star_and_regular():
    assert color_biregular_auto(gen_complete_bipartite(1, 4)).theorem_tag == "star"
    assert color_biregular_auto(gen_complete_bipartite(4, 4)).palettes == 1


def test_auto_generic_falls_back_to_konig():
    g = gen_random_biregular(3, 4, 2, 5)
    result = color_biregular_auto(g)
    assert result.theorem_tag == "konig"
    assert result.claimed_palette_bound == 1 + math.comb(4, 3)


def test_auto_takes_the_general_bipartite_routes_off_family():
    # (4,10) is in no named family: even-pairs promises 11, Konig 211
    result = color_biregular_auto(gen_random_biregular(4, 10, 3, 3))
    assert result.claimed_palette_bound <= 11
    assert result.theorem_tag == "even-bipartite-pairs"


def test_auto_accepts_even_degree_set_nonbiregular():
    g = gen_random_even_bipartite(4, 3)
    result = color_biregular_auto(g)
    assert result.palettes <= result.claimed_palette_bound


def test_auto_rejects_odd_nonbiregular():
    path4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(GraphError):
        color_biregular_auto(path4)


def test_auto_never_worse_than_generic_bound():
    for a, b, scale, seed in [(2, 4, 2, 0), (3, 6, 2, 1), (3, 4, 2, 2),
                              (4, 5, 1, 3), (2, 3, 2, 4)]:
        g = gen_random_biregular(a, b, scale, seed)
        result = color_biregular_auto(g)
        assert result.claimed_palette_bound <= 1 + math.comb(b, a)


def test_constructions_work_on_disconnected_inputs():
    g = disjoint_union(gen_complete_bipartite(2, 4), cycle(6))
    result = color_even_bipartite(g)
    assert result.palettes <= result.claimed_palette_bound
    two = disjoint_union(gen_random_biregular(3, 6, 1, 0),
                         gen_random_biregular(3, 6, 1, 1))
    assert color_3_3r(two).palettes <= 5


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 3), st.integers(0, 200))
def test_even_scheme_bound_property(half, seed):
    g = gen_random_even_bipartite(2 * half, seed)
    result = color_even_bipartite(g)
    expected = sum(math.comb(g.max_degree // 2, d // 2) for d in g.degree_set())
    assert result.claimed_palette_bound == expected
    assert result.palettes <= expected
