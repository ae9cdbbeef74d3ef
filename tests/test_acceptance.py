"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the 6-vertex exhaustive variant of criterion 6 carries the ``slow``
marker (the 5-vertex variant always runs).
"""

from __future__ import annotations

import hashlib
import math
import time

import pytest

from palette_index.analysis import (classify_full_palette, decide_palette_two,
                                    palette_lower_bound)
from palette_index.coloring import palette_summary, verify_proper
from palette_index.constructions import (color_biregular_auto,
                                         color_complete_bipartite,
                                         color_even_bipartite, color_grid,
                                         grid_palette_value)
from palette_index.exact import palette_index_exact, palette_index_naive
from palette_index.graph import (build_graph, edge_subgraph,
                                 gen_complete_bipartite, gen_grid,
                                 gen_random_biregular,
                                 gen_random_even_bipartite, without_isolated)
from palette_index.suite import (regular_graphs_upto_8_edges, run_suite,
                                 two_palette_instance, _covering_graphs)


def _report(number: int, name: str, elapsed: float) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s]")


def test_criterion_1_grid_values():
    start = time.monotonic()
    for m, n, expected in [(2, 2, 1), (2, 3, 2), (2, 4, 2), (2, 5, 2), (3, 3, 5)]:
        result = palette_index_exact(gen_grid(m, n))
        assert result.proved and result.value == expected, (m, n, result.value)
    for m in range(2, 9):
        for n in range(2, 9):
            expected = grid_palette_value(m, n)
            built = color_grid(m, n)
            assert built.palettes == expected, (m, n)
            if (m * n) % 2 == 0:
                assert palette_lower_bound(gen_grid(m, n))[0] == expected
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(1, "grid palette values", elapsed)


def test_criterion_2_complete_bipartite():
    start = time.monotonic()
    assert palette_index_exact(gen_complete_bipartite(2, 3)).value == 4
    assert palette_index_exact(gen_complete_bipartite(2, 4)).value == 3
    for b in (2, 3, 4):
        assert palette_index_exact(gen_complete_bipartite(1, b)).value == b + 1
    for a in range(1, 8):
        for b in range(a + 1, 9):
            result = color_complete_bipartite(a, b)
            assert result.palettes == 1 + b // math.gcd(a, b), (a, b)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(2, "complete bipartite values", elapsed)


def test_criterion_3_even_bipartite_bound():
    start = time.monotonic()
    for i in range(50):
        delta = 4 if i < 25 else 6
        g = gen_random_even_bipartite(delta, 3000 + i)
        result = color_even_bipartite(g)  # verifies properness internally
        bound = sum(math.comb(delta // 2, d // 2) for d in g.degree_set())
        assert result.palettes <= bound, (i, result.palettes, bound)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(3, "even bipartite palette bound", elapsed)


BIREGULAR_EXPECTED = {
    (2, 4): 3, (2, 6): 4, (3, 6): 5, (3, 9): 10, (4, 8): 5,
    (4, 12): 10, (5, 10): 9, (6, 12): 9, (3, 5): 7, (2, 3): 4,
}


def test_criterion_4_biregular_constructions():
    start = time.monotonic()
    for (a, b), bound in sorted(BIREGULAR_EXPECTED.items()):
        for scale, seed in ((1, 1), (2, 2), (3, 3)):
            g = gen_random_biregular(a, b, scale, 900 + seed + 10 * a + b)
            result = color_biregular_auto(g)
            assert not verify_proper(g, result.coloring)
            assert result.palettes <= bound, (a, b, scale, result.palettes)
            assert palette_lower_bound(g)[0] <= bound
            if a == 2 and b % 2 == 0:
                assert result.palettes == b // 2 + 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report(4, "biregular family bounds", elapsed)


CONJECTURE_PROFILES = [(2, 6), (6, 8), (3, 6), (3, 9), (4, 6), (4, 8), (4, 12),
                       (4, 16), (5, 10), (6, 9), (6, 12), (8, 12), (8, 16),
                       (12, 16)]


def test_criterion_5_conjecture_sanity():
    start = time.monotonic()
    for a, b in CONJECTURE_PROFILES:
        scale = 1 if a * b >= 96 else 2
        g = gen_random_biregular(a, b, scale, 8000 + a * 100 + b)
        result = color_biregular_auto(g)
        assert result.palettes <= 1 + max(a, b), (a, b, result.palettes)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report(5, "palette counts within 1+max degree", elapsed)


def _equivalence_sweep(n_max: int) -> int:
    checked = 0
    for n in range(2, n_max + 1):
        for g in _covering_graphs(n):
            want = classify_full_palette(g)[0]
            got = palette_index_exact(g).value == g.vertex_count
            assert want == got, (n, g.edges)
            checked += 1
    return checked


def test_criterion_6_full_palette_equivalence_upto5():
    start = time.monotonic()
    checked = _equivalence_sweep(5)
    elapsed = time.monotonic() - start
    _report(6, f"full-palette classification, {checked} graphs to 5 vertices",
            elapsed)


@pytest.mark.slow
def test_criterion_6_full_palette_equivalence_upto6():
    start = time.monotonic()
    checked = _equivalence_sweep(6)
    elapsed = time.monotonic() - start
    assert elapsed < 600
    _report(6, f"full-palette classification, {checked} graphs to 6 vertices",
            elapsed)


def test_criterion_7_palette_two():
    start = time.monotonic()
    for seed in range(20):
        g = two_palette_instance(6000 + seed)
        ok, cert = decide_palette_two(g)
        assert ok and cert is not None, seed
        assert cert.h1_edges | cert.h2_edges == set(range(g.edge_count))
        assert not (cert.h1_edges & cert.h2_edges)
        for part in (cert.h1_edges, cert.h2_edges):
            sub, kept = edge_subgraph(g, part)
            sub, _ = without_isolated(sub)
            assert len(set(sub.degrees)) == 1
            # class 1: the certificate's own coloring, restricted to the part
            restricted = [cert.coloring[host] for host in kept]
            assert not verify_proper(sub, restricted)
            assert len(set(restricted)) == sub.max_degree
        v1 = {v for e in cert.h1_edges for v in g.edges[e]}
        v2 = {v for e in cert.h2_edges for v in g.edges[e]}
        assert v1 <= v2 == set(range(g.vertex_count))
    for name, g in regular_graphs_upto_8_edges():
        assert decide_palette_two(g)[0] is False, name
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(7, "two-palette decision and certificates", elapsed)


def test_criterion_8_solver_vs_naive():
    import random

    start = time.monotonic()
    rng = random.Random(424242)
    checked = 0
    while checked < 200:
        n = rng.randint(3, 7)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pool)
        m = rng.randint(1, min(7, len(pool)))
        g, _ = without_isolated(build_graph(n, sorted(pool[:m])))
        if g.vertex_count < 2:
            continue
        assert palette_index_exact(g).value == palette_index_naive(g), g.edges
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(8, "pruned solver equals naive enumeration", elapsed)


def test_criterion_9_suite_determinism():
    start = time.monotonic()
    first = run_suite(threads=1).render()
    second = run_suite(threads=1).render()
    assert first == second
    threaded = run_suite(threads=4).render()
    assert first == threaded
    assert "status=fail" not in first
    # the report's bytes are pinned: a change that moves a line re-pins this
    # digest and names each changed line, and why, in CHANGES.md
    assert hashlib.sha256(first.encode()).hexdigest() == (
        "22de4e184c55895f72b39f276ae92f121d5491df58f8a7e023827e1175b30a4f")
    elapsed = time.monotonic() - start
    _report(9, "suite byte-determinism across runs and workers", elapsed)
