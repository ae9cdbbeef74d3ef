"""The route table: `color_auto` and the bound catalog read the same routes,
so the catalog's best constructed bound is the route the dispatcher takes."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import palette_index
from palette_index import constructions
from palette_index.analysis import upper_bound_catalog
from palette_index.coloring import palette_summary
from palette_index.constructions import (ROUTES, RouteFacts, color_2_odd,
                                         color_3_3r, color_3_5, color_4_4r,
                                         color_5_5r, color_auto,
                                         color_complete_bipartite_on,
                                         color_deg5, color_grid_on,
                                         color_r_2r, route_bounds)
from palette_index.graph import (GraphError, build_graph,
                                 gen_complete_bipartite, gen_grid,
                                 gen_random_biregular,
                                 gen_random_even_bipartite, without_isolated)
from palette_index.suite import BIREGULAR_BOUNDS, CONJECTURE_PROFILES

from conftest import bipartite_graphs

SUITE_PROFILES = sorted(set(BIREGULAR_BOUNDS) | set(CONJECTURE_PROFILES))


def assert_catalog_agrees_with_dispatcher(g):
    report = upper_bound_catalog(g)
    uppers = [e for e in report.entries if e.direction == "upper"]
    best = min(e.value for e in uppers)
    assert report.upper[0] == best
    if not any(e.constructed and e.value == best for e in uppers):
        assert report.witness is None
        return
    route, bound = route_bounds(RouteFacts(g))[0]
    assert (bound, route.tag) == report.upper
    result = color_auto(g)
    assert palette_summary(g, report.witness).distinct == result.palettes
    assert result.palettes <= bound


@pytest.mark.parametrize("a,b", SUITE_PROFILES)
def test_catalog_agrees_with_dispatcher_on_suite_profiles(a, b):
    scale = 1 if a * b >= 96 else 2
    assert_catalog_agrees_with_dispatcher(gen_random_biregular(a, b, scale, 5))


@st.composite
def routed_graphs(draw):
    kind = draw(st.sampled_from(("biregular", "even", "bipartite")))
    if kind == "biregular":
        a = draw(st.integers(1, 6))
        b = draw(st.integers(a, 8))
        try:
            return gen_random_biregular(a, b, draw(st.integers(1, 2)),
                                        draw(st.integers(0, 10 ** 6)))
        except GraphError:
            assume(False)
    if kind == "even":
        return gen_random_even_bipartite(draw(st.sampled_from((2, 4, 6, 8))),
                                         draw(st.integers(0, 10 ** 6)))
    return without_isolated(draw(bipartite_graphs(max_side=6, max_m=20)))[0]


@settings(deadline=None, max_examples=40)
@given(routed_graphs())
def test_catalog_agrees_with_dispatcher_on_random_graphs(g):
    assert_catalog_agrees_with_dispatcher(g)


def test_kab_strategy_checks_its_input():
    g = gen_complete_bipartite(2, 6)
    relabeled = build_graph(8, [(7 - u, 7 - v) for u, v in g.edges])
    assert color_complete_bipartite_on(relabeled).palettes == 4
    for not_kab in (gen_complete_bipartite(3, 3), gen_random_biregular(2, 4, 2, 1)):
        with pytest.raises(GraphError):
            color_complete_bipartite_on(not_kab)


def relabeled(g):
    top = g.vertex_count - 1
    return build_graph(g.vertex_count, [(top - u, top - v) for u, v in g.edges])


# every row with a public builder, and a member on which `color_auto` takes it
ROW_MEMBERS = [
    (color_grid_on, "grid", gen_grid(5, 6)),
    (color_2_odd, "two-odd-family", gen_random_biregular(2, 5, 2, 1)),
    (color_3_3r, "deg3-family", gen_random_biregular(3, 9, 2, 1)),
    (color_3_3r, "deg3-family", gen_random_biregular(6, 9, 2, 1)),
    (color_4_4r, "deg4-family", gen_random_biregular(4, 8, 2, 1)),
    (color_5_5r, "deg5-family", gen_random_biregular(5, 10, 2, 1)),
    (color_r_2r, "half-family", gen_random_biregular(6, 12, 2, 1)),
    (color_r_2r, "half-family", gen_random_biregular(7, 14, 2, 1)),
    (color_3_5, "deg35-family", gen_random_biregular(3, 5, 2, 1)),
    (color_complete_bipartite_on, "complete-bipartite",
     relabeled(gen_complete_bipartite(3, 7))),
    # degrees 5, 3, 2 and 1 and unequal sides: no perfect matching, and
    # the doubling bound is 27
    (color_deg5, "deg5", build_graph(8, [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
                                         (1, 3), (1, 4), (1, 5), (2, 6)])),
]


@pytest.mark.parametrize("builder,tag,g", ROW_MEMBERS)
def test_a_public_builder_is_its_row(builder, tag, g):
    route = route_bounds(RouteFacts(g))[0][0]
    assert route.tag == tag
    auto, direct = color_auto(g), builder(g)
    assert direct.coloring.color_of == auto.coloring.color_of
    assert ((direct.palettes, direct.claimed_palette_bound, direct.theorem_tag)
            == (auto.palettes, auto.claimed_palette_bound, auto.theorem_tag))
    off_row = gen_complete_bipartite(3, 4) if tag == "grid" else gen_grid(3, 4)
    with pytest.raises(GraphError) as err:
        builder(off_row)
    assert route.note in str(err.value)


def test_the_readme_route_table_lists_the_routes_in_order():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Routes\n")[1]
    section = section.split("\n## ")[0]
    tags = re.findall(r"^\| \d+ \| `([^`]+)` \|", section, re.MULTILINE)
    assert tags == [route.tag for route in ROUTES]


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(Path(palette_index.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("palette_index"):
                continue
            offenders.extend(f"{path.name}: {alias.name}" for alias in node.names
                             if alias.name.startswith("_"))
    assert offenders == []


def test_every_benchmark_traced_name_resolves():
    # the benchmark's tracer looks every TRACED name up with getattr, so a
    # deleted or renamed function would stop every workload
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{name}" for mod, names in spans.TRACED.items()
               for name in names if not callable(getattr(
                   importlib.import_module(f"palette_index.{mod}"), name, None))]
    assert missing == []


def test_no_module_sets_the_recursion_limit():
    offenders = []
    for path in sorted(Path(palette_index.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            # `sys.setrecursionlimit` is an attribute; `from sys import ...` an alias
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "setrecursionlimit":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_nested_function_calls_itself():
    # a recursive function, module-level or nested, is bounded by Python's
    # recursion limit, not by the search budgets
    offenders = set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def calls_itself(fn):
        return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == fn.name for node in ast.walk(fn))

    for path in sorted(Path(palette_index.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, functions) and calls_itself(top):
                offenders.add(f"{path.name}: {top.name}")
        for outer in ast.walk(tree):
            if not isinstance(outer, functions):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, functions):
                    continue
                if calls_itself(inner):
                    offenders.add(f"{path.name}: {outer.name}.{inner.name}")
    assert offenders == set()


def test_auto_computes_the_deg5_matching_once(monkeypatch):
    # balanced sides, maximum degree 5, not regular, with a perfect matching
    g = build_graph(12, [(0, 6), (1, 6), (1, 10), (2, 6), (2, 7), (2, 8),
                         (2, 11), (3, 8), (3, 9), (3, 11), (4, 8), (4, 9),
                         (4, 10), (5, 6), (5, 7), (5, 9), (5, 10), (5, 11)])
    calls = []
    real = constructions.maximum_matching

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(constructions, "maximum_matching", counted)
    result = color_auto(g)
    assert result.theorem_tag == "deg5-perfect-matching"
    assert len(calls) == 1


@pytest.mark.parametrize("a,b,tag", [(3, 9, "deg3-multiple"),
                                     (4, 8, "deg4-multiple"),
                                     (3, 5, "deg35-matching")])
def test_a_family_route_reads_the_profile_once(monkeypatch, a, b, tag):
    g = gen_random_biregular(a, b, 4, 1)
    calls = []
    real = constructions.biregular_profile

    def counted(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(constructions, "biregular_profile", counted)
    assert color_auto(g).theorem_tag == tag
    assert calls == [g]


@pytest.mark.parametrize("entry", [color_auto, upper_bound_catalog])
def test_a_grid_is_recognized_once(monkeypatch, entry):
    calls = []
    real = constructions.recognize_grid

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(constructions, "recognize_grid", counted)
    entry(gen_grid(5, 6))
    assert len(calls) == 1
