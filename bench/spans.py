"""Spans around the package's public functions, recorded from outside.

`Tracer.install` rebinds each listed function, in its defining module and in
every `palette_index` module that imported the same object, to a wrapper
that records a span: name, start, end, parent span, op id and pass.  Spans
stay in memory; `Tracer.uninstall` puts every original back.  Closures
inside a function (such as the exact solver's search) cannot be wrapped, so
the solver's work is read from the node count it returns.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# module -> public functions traced in it
TRACED = {
    "cli": ("cli_main",),
    "fileformat": ("parse_graph", "serialize_coloring"),
    "graph": ("bipartition", "biregular_profile", "components", "gen_grid",
              "edge_subgraph", "without_isolated", "even_closure",
              "gen_random_biregular", "gen_random_even_bipartite"),
    "constructions": ("recognize_grid", "color_biregular_auto", "color_4_4r",
                      "color_3_3r", "color_5_5r", "color_r_2r", "color_3_5",
                      "color_even_bipartite", "color_via_doubling",
                      "color_deg5", "color_grid_on"),
    "decompose": ("konig_coloring", "peel_perfect_matchings",
                  "maximum_matching", "two_factorization", "eulerian_circuit",
                  "parity_split", "split_part_vertices",
                  "matching_covering_max_degree"),
    "coloring": ("palette_summary", "verify_proper"),
    "analysis": ("upper_bound_catalog", "palette_lower_bound",
                 "classify_full_palette", "decide_palette_two"),
    "exact": ("palette_index_exact", "palette_index_naive"),
}

# spans whose call count is reported besides their self time
COUNTED = ("graph.bipartition", "graph.biregular_profile", "graph.components",
           "graph.gen_grid", "constructions.recognize_grid",
           "decompose.maximum_matching", "decompose.peel_perfect_matchings",
           "decompose.eulerian_circuit", "coloring.palette_summary")

SUITE_FAMILIES = ("grid-exact", "grid-construct", "kab-exact", "kab-formula",
                  "even-bound", "biregular", "conjecture", "classify",
                  "palette-two", "solver-vs-naive")

_NAME, _START, _END, _PARENT, _OP, _PASS, _NODES = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = ""
        self.pass_no = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.op_id, self.pass_no, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                span[_NODES] = getattr(result, "nodes", 0)
                return result
            finally:
                stack.pop()
                span[_END] = clock()

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "palette_index" or key.startswith("palette_index.")]
        for mod_name, names in TRACED.items():
            home = sys.modules[f"palette_index.{mod_name}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-pass totals from the spans, then the median over passes."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        passes = sorted({s[_PASS] for s in self.spans})
        per_pass = {p: {} for p in passes}
        for idx, span in enumerate(self.spans):
            acc = per_pass[span[_PASS]]
            name = span[_NAME]
            acc[f"{name}.self_s"] = (acc.get(f"{name}.self_s", 0.0)
                                     + span[_END] - span[_START] - child[idx])
            acc[f"{name}.calls"] = acc.get(f"{name}.calls", 0) + 1
            if name == "exact.palette_index_exact":
                acc["exact.nodes"] = acc.get("exact.nodes", 0) + span[_NODES]
            if name == "graph.gen_grid" and self._under(idx, "constructions.recognize_grid"):
                acc["grids_under_recognition"] = acc.get("grids_under_recognition", 0) + 1
        out: dict[str, float] = {}
        for mod_name, names in TRACED.items():
            for fn_name in names:
                key = f"{mod_name}.{fn_name}"
                out[f"{key}.self_s"] = _median(per_pass, f"{key}.self_s")
                if key in COUNTED:
                    out[f"{key}.calls"] = _median(per_pass, f"{key}.calls")
        recognitions = out["constructions.recognize_grid.calls"]
        out["constructions.grids_per_recognition"] = (
            _median(per_pass, "grids_under_recognition") / recognitions
            if recognitions else 0.0)
        out["exact.nodes"] = _median(per_pass, "exact.nodes")
        solver_s = out["exact.palette_index_exact.self_s"]
        out["exact.nodes_per_s"] = out["exact.nodes"] / solver_s if solver_s else 0.0
        return out

    def _under(self, idx: int, ancestor: str) -> bool:
        parent = self.spans[idx][_PARENT]
        while parent >= 0:
            if self.spans[parent][_NAME] == ancestor:
                return True
            parent = self.spans[parent][_PARENT]
        return False


def _median(per_pass: dict[int, dict], key: str) -> float:
    if not per_pass:
        return 0.0
    return statistics.median(acc.get(key, 0) for acc in per_pass.values())


def suite_families(runtimes: dict[str, float]) -> dict[str, float]:
    """Suite case runtimes summed by family (case-id prefix)."""
    out = dict.fromkeys(SUITE_FAMILIES, 0.0)
    for case_id, seconds in runtimes.items():
        family = next(f for f in SUITE_FAMILIES if case_id.startswith(f))
        out[family] += seconds
    return out
