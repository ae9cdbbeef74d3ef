"""Reproduction suite: every desk-scale number the library claims, re-derived
from scratch with fixed seeds and reported one line per case.

Machine-readable case lines go to the report (byte-identical across runs and
worker counts); wall-clock timings are kept separately for diagnostics.
"""

from __future__ import annotations

import math
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from .analysis import (classify_full_palette, decide_palette_two,
                       palette_lower_bound)
from .coloring import palette_summary
from .constructions import (color_biregular_auto, color_complete_bipartite,
                            color_even_bipartite, color_grid,
                            grid_palette_value)
from .exact import palette_index_exact, palette_index_naive
from .graph import (Graph, build_graph, gen_complete_bipartite, gen_grid,
                    gen_random_biregular, gen_random_even_bipartite,
                    without_isolated)


@dataclass
class CaseOutcome:
    computed: str
    passed: bool
    proved: bool = True


@dataclass
class SuiteCase:
    case_id: str
    provenance: str  # paper / derived / trivial
    expected: str
    run: Callable[[], CaseOutcome]


@dataclass
class SuiteReport:
    lines: list[str]
    n_passed: int
    n_total: int
    runtimes: dict[str, float] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == self.n_total

    def render(self) -> str:
        body = "\n".join(self.lines)
        status = "pass" if self.all_passed else "fail"
        footer = f"suite status={status} passed={self.n_passed}/{self.n_total}"
        return (body + "\n" if body else "") + footer + "\n"


# ----------------------------------------------------------------------
# deterministic instance generators
# ----------------------------------------------------------------------

def two_palette_instance(seed: int) -> Graph:
    """A graph with exactly two palettes: two disjoint perfect matchings
    (a spanning union of even cycles) plus one extra matching edge."""
    rng = random.Random(seed)
    n = rng.choice([6, 8])
    while True:
        def perfect_matching() -> set[tuple[int, int]]:
            perm = rng.sample(range(n), n)
            return {tuple(sorted((perm[2 * i], perm[2 * i + 1])))
                    for i in range(n // 2)}

        m1, m2 = perfect_matching(), perfect_matching()
        if m1 & m2:
            continue
        base = m1 | m2
        spare = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in base]
        if not spare:
            continue
        extra = spare[rng.randrange(len(spare))]
        return build_graph(n, sorted(base) + [extra])


def regular_graphs_upto_8_edges() -> list[tuple[str, Graph]]:
    """Every simple regular graph with at most 8 edges, up to isomorphism:
    disjoint edges, disjoint unions of cycles, and the complete graph K4."""
    out: list[tuple[str, Graph]] = []
    for k in range(1, 9):
        edges = [(2 * i, 2 * i + 1) for i in range(k)]
        out.append((f"{k}xK2", build_graph(2 * k, edges)))
    cycle_multisets = [[3], [4], [5], [6], [3, 3], [7], [3, 4],
                       [8], [3, 5], [4, 4]]
    for lengths in cycle_multisets:
        edges: list[tuple[int, int]] = []
        offset = 0
        for length in lengths:
            edges.extend((offset + i, offset + (i + 1) % length)
                         for i in range(length))
            offset += length
        name = "+".join(f"C{length}" for length in lengths)
        out.append((name, build_graph(offset, edges)))
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    out.append(("K4", k4))
    return out


def _covering_graphs(n: int):
    """All labeled simple graphs on exactly n vertices with no isolated
    vertex, by edge-subset enumeration."""
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1, 1 << len(pool)):
        edges = [pool[k] for k in range(len(pool)) if mask >> k & 1]
        used = set()
        for e in edges:
            used.update(e)
        if len(used) == n:
            yield build_graph(n, edges)


# ----------------------------------------------------------------------
# case construction
# ----------------------------------------------------------------------

GRID_EXACT_CASES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3)]

KAB_EXACT_CASES = [((2, 3), 4), ((2, 4), 3), ((1, 2), 3), ((1, 3), 4), ((1, 4), 5)]

BIREGULAR_BOUNDS = {
    (2, 4): 3, (2, 6): 4, (3, 6): 5, (3, 9): 10, (4, 8): 5,
    (4, 12): 10, (5, 10): 9, (6, 12): 9, (3, 5): 7, (2, 3): 4,
}

CONJECTURE_PROFILES = [
    (2, 6), (6, 8), (3, 6), (3, 9), (4, 6), (4, 8), (4, 12),
    (4, 16), (5, 10), (6, 9), (6, 12), (8, 12), (8, 16), (12, 16),
]


def _grid_exact_case(m: int, n: int) -> SuiteCase:
    expected = grid_palette_value(m, n)

    def run() -> CaseOutcome:
        result = palette_index_exact(gen_grid(m, n))
        return CaseOutcome(str(result.value),
                           result.value == expected and result.proved,
                           result.proved)

    return SuiteCase(f"grid-exact-{m}x{n}", "paper", str(expected), run)


def _grid_construct_case(m: int, n: int) -> SuiteCase:
    expected = grid_palette_value(m, n)

    def run() -> CaseOutcome:
        result = color_grid(m, n)
        ok = result.palettes == expected and result.colors_used <= 4
        if (m * n) % 2 == 0:
            ok = ok and palette_lower_bound(gen_grid(m, n))[0] == expected
        return CaseOutcome(str(result.palettes), ok)

    return SuiteCase(f"grid-construct-{m}x{n}", "paper", str(expected), run)


def _kab_exact_case(a: int, b: int, expected: int) -> SuiteCase:
    def run() -> CaseOutcome:
        result = palette_index_exact(gen_complete_bipartite(a, b))
        return CaseOutcome(str(result.value),
                           result.value == expected and result.proved,
                           result.proved)

    return SuiteCase(f"kab-exact-{a}x{b}", "paper", str(expected), run)


def _kab_formula_case(a: int) -> SuiteCase:
    def run() -> CaseOutcome:
        for b in range(a + 1, 9):
            want = 1 + b // math.gcd(a, b)
            result = color_complete_bipartite(a, b)
            if result.palettes != want:
                return CaseOutcome(f"K{a}x{b}:{result.palettes}", False)
        return CaseOutcome("ok", True)

    return SuiteCase(f"kab-formula-a{a}", "paper", "ok", run)


def _even_bound_case(delta: int) -> SuiteCase:
    def run() -> CaseOutcome:
        for seed in range(25):
            g = gen_random_even_bipartite(delta, 1000 * delta + seed)
            result = color_even_bipartite(g)  # verifies properness itself
            if result.palettes > result.claimed_palette_bound:
                return CaseOutcome(f"seed{seed}:{result.palettes}", False)
        return CaseOutcome("ok", True)

    return SuiteCase(f"even-bound-deg{delta}", "paper", "ok", run)


def _biregular_case(a: int, b: int, bound: int) -> SuiteCase:
    def run() -> CaseOutcome:
        worst = 0
        for scale, seed in ((1, 11), (2, 22), (3, 33)):
            g = gen_random_biregular(a, b, scale, seed * 100 + a * 10 + b)
            result = color_biregular_auto(g)
            worst = max(worst, result.palettes)
            if result.palettes > bound:
                return CaseOutcome(f"scale{scale}:{result.palettes}", False)
            if palette_lower_bound(g)[0] > bound:
                return CaseOutcome(f"scale{scale}:lower-bound", False)
            if a == 2 and b % 2 == 0 and result.palettes != b // 2 + 1:
                return CaseOutcome(f"scale{scale}:{result.palettes}", False)
        return CaseOutcome(f"<={worst}", True)

    return SuiteCase(f"biregular-{a}-{b}", "paper", f"<={bound}", run)


def _conjecture_case(a: int, b: int) -> SuiteCase:
    cap = 1 + max(a, b)

    def run() -> CaseOutcome:
        scale = 1 if a * b >= 96 else 2
        g = gen_random_biregular(a, b, scale, 7000 + a * 100 + b)
        result = color_biregular_auto(g)
        return CaseOutcome(str(result.palettes), result.palettes <= cap)

    return SuiteCase(f"conjecture-{a}-{b}", "paper", f"<={cap}", run)


def _classify_case(n_max: int) -> SuiteCase:
    def run() -> CaseOutcome:
        checked = 0
        for n in range(2, n_max + 1):
            for g in _covering_graphs(n):
                want = classify_full_palette(g)[0]
                got = palette_index_exact(g).value == g.vertex_count
                if want != got:
                    return CaseOutcome(f"n{n}:mismatch", False)
                checked += 1
        return CaseOutcome(f"{checked}-agree", True)

    return SuiteCase(f"classify-equivalence-n{n_max}", "paper",
                     "all-agree", run)


def _palette_two_constructed_case() -> SuiteCase:
    def run() -> CaseOutcome:
        for seed in range(20):
            g = two_palette_instance(5000 + seed)
            ok, cert = decide_palette_two(g)
            if not ok or cert is None:
                return CaseOutcome(f"seed{seed}:not-two", False)
        return CaseOutcome("20/20", True)

    return SuiteCase("palette-two-constructed", "derived", "20/20", run)


def _palette_two_regular_case() -> SuiteCase:
    def run() -> CaseOutcome:
        for name, g in regular_graphs_upto_8_edges():
            ok, _ = decide_palette_two(g)
            if ok:
                return CaseOutcome(f"{name}:two", False)
        return CaseOutcome("never-two", True)

    return SuiteCase("palette-two-regular", "paper", "never-two", run)


def _solver_vs_naive_case() -> SuiteCase:
    def run() -> CaseOutcome:
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
            if palette_index_exact(g).value != palette_index_naive(g):
                return CaseOutcome(f"graph{checked}:differ", False)
            checked += 1
        return CaseOutcome("200/200", True)

    return SuiteCase("solver-vs-naive", "derived", "200/200", run)


def build_cases(include_slow: bool = False) -> list[SuiteCase]:
    cases: list[SuiteCase] = []
    for m, n in GRID_EXACT_CASES:
        cases.append(_grid_exact_case(m, n))
    for m in range(2, 9):
        for n in range(2, 9):
            cases.append(_grid_construct_case(m, n))
    for (a, b), expected in KAB_EXACT_CASES:
        cases.append(_kab_exact_case(a, b, expected))
    for a in range(1, 8):
        cases.append(_kab_formula_case(a))
    for delta in (4, 6):
        cases.append(_even_bound_case(delta))
    for (a, b), bound in sorted(BIREGULAR_BOUNDS.items()):
        cases.append(_biregular_case(a, b, bound))
    for a, b in CONJECTURE_PROFILES:
        cases.append(_conjecture_case(a, b))
    cases.append(_classify_case(5))
    if include_slow:
        cases.append(_classify_case(6))
    cases.append(_palette_two_constructed_case())
    cases.append(_palette_two_regular_case())
    cases.append(_solver_vs_naive_case())
    return cases


def run_suite(filter_pattern: str | None = None, include_slow: bool = False,
              threads: int | None = None) -> SuiteReport:
    """Run all (or the filtered subset of) suite cases and build the report.

    The worker count comes from the argument or PALETTE_SUITE_THREADS; the
    report is assembled in case-id order either way.
    """
    cases = build_cases(include_slow)
    if filter_pattern:
        cases = [c for c in cases if filter_pattern in c.case_id]
    cases.sort(key=lambda c: c.case_id)
    if threads is None:
        threads = int(os.environ.get("PALETTE_SUITE_THREADS", "1"))

    def execute(case: SuiteCase) -> tuple[CaseOutcome, float]:
        start = time.monotonic()
        try:
            outcome = case.run()
        except Exception as exc:  # a failing case must not sink the suite
            outcome = CaseOutcome(f"error:{type(exc).__name__}", False)
        return outcome, time.monotonic() - start

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(execute, cases))
    else:
        results = [execute(c) for c in cases]

    lines = []
    runtimes = {}
    n_passed = 0
    for case, (outcome, elapsed) in zip(cases, results):
        status = "pass" if outcome.passed else "fail"
        n_passed += outcome.passed
        lines.append(
            f"case {case.case_id} expected={case.expected} "
            f"computed={outcome.computed} tag={case.provenance} "
            f"proved={str(outcome.proved).lower()} status={status}")
        runtimes[case.case_id] = elapsed
    return SuiteReport(lines, n_passed, len(cases), runtimes)
