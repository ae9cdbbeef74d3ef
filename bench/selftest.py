#!/usr/bin/env python3
"""Self-tests of the benchmark: python3 bench/selftest.py

They check the checker, the seeding of the inputs, that tracing restores
every function it wrapped, that BENCHMARK.json names what run.py prints,
and that every workload fails the same share of ops at two seeds.  The
last test runs each workload for one pass per seed, about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

import check
import inputs
import run
import spans

BENCH = Path(__file__).resolve().parent

# a path a-b-c-d: edges 1=(1,2), 2=(2,3), 3=(3,4)
PATH = [(1, 2), (2, 3), (3, 4)]
# colors 1,2,1: palettes {1}, {1,2}, {1,2}, {1}
PROPER = "s 2 2\nc 1 1\nc 2 2\nc 3 1\n"


class CheckerTest(unittest.TestCase):
    def test_accepts_a_proper_coloring(self):
        self.assertEqual(check.recount(PATH, PROPER), (2, None))
        got, why = check.check_color(PATH, "palettes=2 bound=3 theorem=t\n",
                                     PROPER, (3, "t"))
        self.assertIsNone(why)
        self.assertEqual(got, (2, True))

    def test_rejects_a_repeated_color_at_a_vertex(self):
        text = "s 1 2\nc 1 1\nc 2 1\nc 3 1\n"
        _, why = check.check_color(PATH, "palettes=2 bound=3 theorem=t\n",
                                   text, (3, "t"))
        self.assertIn("sees color 1 twice", why)

    def test_rejects_a_wrong_palettes_line(self):
        _, why = check.check_color(PATH, "palettes=3 bound=3 theorem=t\n",
                                   PROPER, (3, "t"))
        self.assertIn("recount 2", why)

    def test_rejects_an_edge_left_uncolored_or_colored_twice(self):
        self.assertIn("uncolored", check.recount(PATH, "s 2 2\nc 1 1\nc 2 2\n")[1])
        twice = PROPER + "c 3 2\n"
        self.assertIn("colored twice", check.recount(PATH, twice)[1])

    def test_rejects_an_unpinned_route(self):
        _, why = check.check_color(PATH, "palettes=2 bound=3 theorem=t\n",
                                   PROPER, (3, "other"))
        self.assertIn("pinned", why)

    def test_rejects_bounds_with_lower_above_upper(self):
        _, why = check.check_bounds("lower 5 a\nupper 4 b\n", (5, 4))
        self.assertIn("exceeds", why)
        self.assertEqual(check.check_bounds("lower 3 a\nupper 3 b\n", (3, 3)),
                         ((3, 3), None))

    def test_exact_needs_the_pinned_value_and_a_matching_witness(self):
        ok = check.check_exact(PATH, "palette_index=2 proved=true\n", 0, PROPER, 2, None)
        self.assertEqual(ok, ((2, True), None))
        self.assertIsNotNone(check.check_exact(
            PATH, "palette_index=3 proved=true\n", 0, PROPER, 3, None)[1])
        self.assertIsNotNone(check.check_exact(
            PATH, "palette_index=2 proved=true\n", 3, PROPER, 2, None)[1])
        budget = check.check_exact(PATH, "palette_index=2 proved=false\n", 3,
                                   PROPER, None, (2, None))
        self.assertEqual(budget, ((2, False), None))

    def test_suite_report_must_repeat_byte_for_byte(self):
        lines = [f"case c{i} expected=1 computed=<=3 tag=paper proved=true status=pass"
                 for i in range(check.SUITE_CASES)]
        report = "\n".join(lines) + (f"\nsuite status=pass passed={check.SUITE_CASES}"
                                     f"/{check.SUITE_CASES}\n")
        self.assertEqual(check.check_suite(report, None),
                         ((3 * check.SUITE_CASES, check.SUITE_CASES), None))
        self.assertIsNotNone(check.check_suite(report, report + "\n")[1])


class RunnerTest(unittest.TestCase):
    def test_a_missing_or_garbled_output_is_a_failed_op(self):
        run._import_package()
        with tempfile.TemporaryDirectory() as tmp:
            runner = run.Runner("exact", Path(tmp), {"k3-4.txt": "p 2 1\ne 1 2\n"},
                                speed=None)
            op = inputs.ops("exact")[1]
            record = {"palettes": 0, "proved": 0}
            runner._check(op, 0, "palette_index=5 proved=true\n", None, None, record)
            runner._check(op, 0, "palette_index=x proved=true\n", None, None, record)
            (Path(tmp) / f"{op.op_id}.out").write_text("s 1 1\nc 1 one\n")
            runner._check(op, 0, "palette_index=5 proved=true\n", None, None, record)
        self.assertEqual((runner.attempted, runner.failed, len(runner.incorrect)), (3, 3, 3))
        self.assertIn("unreadable output", runner.failures[0])
        self.assertIn("unreadable output", runner.failures[2])


class InputTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in ("construct", "catalog", "exact"):
            first = inputs.make_inputs(workload, 1)
            self.assertEqual(first, inputs.make_inputs(workload, 1), workload)
            self.assertNotEqual(first, inputs.make_inputs(workload, 2), workload)
        self.assertEqual(inputs.make_inputs("suite", 1), {})

    def test_biregular_inputs_are_simple_with_the_named_degrees(self):
        import random
        for a, b, scale in ((3, 5, 20), (6, 6, 10), (4, 8, 5)):
            n, edges = inputs.biregular(a, b, scale, random.Random(7))
            self.assertEqual(len(set(edges)), len(edges))
            deg = Counter(w for e in edges for w in e)
            self.assertEqual({deg[x] for x in range(scale * b)}, {a})
            self.assertEqual({deg[y] for y in range(scale * b, n)}, {b})

    def test_every_op_has_an_input(self):
        for workload in inputs.WORKLOADS:
            files = inputs.make_inputs(workload, 1)
            for op in inputs.ops(workload):
                self.assertTrue(op.graph is None or op.graph in files, op.op_id)


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_wrapped_function(self):
        run._import_package()
        mods = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "palette_index"}
        before = {k: dict(vars(m)) for k, m in mods.items()}
        tracer = spans.Tracer()
        tracer.install()
        graph_mod = sys.modules["palette_index.graph"]
        self.assertIsNot(graph_mod.components, before["palette_index.graph"]["components"])
        self.assertIs(sys.modules["palette_index.decompose"].components, graph_mod.components)
        graph_mod.components(graph_mod.gen_grid(2, 3))
        self.assertEqual([s[0] for s in tracer.spans], ["graph.gen_grid", "graph.components"])
        tracer.uninstall()
        for key, mod in mods.items():
            for attr, value in before[key].items():
                self.assertIs(vars(mod)[attr], value, f"{key}.{attr}")

    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        tracer.spans[:] = [["constructions.recognize_grid", 0.0, 1.0, -1, "op", 0, 0],
                           ["graph.gen_grid", 0.2, 0.5, 0, "op", 0, 0],
                           ["graph.gen_grid", 0.5, 0.6, 0, "op", 0, 0],
                           ["graph.gen_grid", 2.0, 2.5, -1, "op", 0, 0]]
        got = tracer.layer_metrics()
        self.assertAlmostEqual(got["constructions.recognize_grid.self_s"], 0.6)
        self.assertAlmostEqual(got["graph.gen_grid.self_s"], 0.9)
        self.assertEqual(got["graph.gen_grid.calls"], 3)
        self.assertEqual(got["constructions.grids_per_recognition"], 2)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_prints(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         run.per_layer_spec())
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), inputs.WORKLOADS)


class SecondSeedTest(unittest.TestCase):
    def test_every_workload_fails_the_same_share_at_two_seeds(self):
        for workload in inputs.WORKLOADS:
            outcomes = []
            for seed in (1, 2):
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                    capture_output=True, text=True, check=True)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertTrue(result["correct"], workload)
                outcomes.append(result["failed"] / result["attempted"])
            self.assertEqual(outcomes[0], outcomes[1], workload)


if __name__ == "__main__":
    unittest.main()
