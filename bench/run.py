#!/usr/bin/env python3
"""The palette-index benchmark.

    python3 bench/run.py --workload construct --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, each in its own interpreter

One run of a workload generates its inputs from the seed, imports the
package from `src/` next to this directory, and repeats passes until the
time is up.  A pass runs every op of the workload once, in a fixed order,
in-process through `palette_index.cli.cli_main` (the suite through
`run_suite`).  Every output is checked by `check.py`.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, the end-to-end metrics with `--trace 0` and the per-layer
metrics with `--trace 1`.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import inputs
import spans
from speed import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "palettes": ("count", "lower"),
    "proved": ("count", "higher"),
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Name -> (unit, better) of every per-layer metric, in print order."""
    spec = {}
    for mod_name, names in spans.TRACED.items():
        for fn_name in names:
            key = f"{mod_name}.{fn_name}"
            spec[f"{key}.self_s"] = ("s", "lower")
            if key in spans.COUNTED:
                spec[f"{key}.calls"] = ("count", "lower")
    spec["constructions.grids_per_recognition"] = ("ratio", "lower")
    spec["exact.nodes"] = ("count", "lower")
    spec["exact.nodes_per_s"] = ("1/s", "higher")
    for family in spans.SUITE_FAMILIES:
        spec[f"suite.{family}.s"] = ("s", "lower")
    for workload in inputs.WORKLOADS:
        for op in inputs.ops(workload):
            spec[f"op.{op.op_id}.s"] = ("s", "lower")
    spec["op.samples"] = ("count", "higher")
    spec["trace.passes"] = ("count", "higher")
    spec["process.cpu_s"] = ("s", "lower")
    spec["process.wall_s"] = ("s", "lower")
    spec["process.speed"] = ("ratio", "higher")
    spec["trace.overhead_ratio"] = ("ratio", "lower")
    return spec


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def _import_package():
    """Import the package under test from ROOT/src, afresh."""
    for name in [n for n in sys.modules if n.split(".")[0] == "palette_index"]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import palette_index
    import palette_index.cli
    import palette_index.suite
    if not Path(palette_index.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"palette_index loaded from {palette_index.__file__}, "
                          f"not from {ROOT / 'src'}")
    return palette_index


def set_up(workload: str, seed: int, workdir: Path,
           speed: SpeedClock) -> tuple[float, dict[str, str]]:
    """Import plus generating and writing the inputs, SETUP_REPEATS times;
    returns the median scaled time and the inputs."""
    times, texts = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _import_package()
        files = inputs.make_inputs(workload, seed)
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        times.append(speed.scaled(start, time.perf_counter()))
        if texts is not None and files != texts:
            raise RuntimeError("inputs differ between set-ups of one seed")
        texts = files
    return statistics.median(times), texts


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

class Runner:
    def __init__(self, workload: str, workdir: Path, files: dict[str, str],
                 speed: SpeedClock) -> None:
        self.ops = inputs.ops(workload)
        self.speed = speed
        self.workdir = workdir
        self.edges = {name: check.parse_graph(text) for name, text in files.items()}
        self.cli = sys.modules["palette_index.cli"]
        self.suite = sys.modules["palette_index.suite"]
        self.first_report: str | None = None
        self.tracer: spans.Tracer | None = None
        self.attempted = self.failed = 0
        self.incorrect: list[str] = []
        self.failures: list[str] = []

    def _argv(self, op: inputs.Op) -> list[str]:
        argv = [op.command, str(self.workdir / op.graph), *op.args]
        if op.command in ("color", "exact"):
            argv += ["--output", str(self._out(op))]
        return argv

    def _out(self, op: inputs.Op) -> Path:
        return self.workdir / f"{op.op_id}.out"

    def _call(self, op: inputs.Op):
        if self.tracer:
            self.tracer.op_id = op.op_id
        if op.command == "suite":
            report = self.suite.run_suite(None, include_slow=False, threads=1)
            return 0, report.render(), report.runtimes
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.cli_main(self._argv(op))
        return code, stdout.getvalue(), None

    def run_pass(self) -> dict:
        if self.tracer:
            self.tracer.pass_no += 1
        results = []
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for op in self.ops:
            start = time.perf_counter()
            try:
                code, stdout, extra = self._call(op)
                error = None
            except Exception as exc:  # the op failed; the pass goes on
                code, stdout, extra, error = None, "", None, type(exc).__name__
            results.append((op, code, stdout, extra, error,
                            self.speed.scaled(start, time.perf_counter())))
        record = {"wall": time.perf_counter() - wall0, "cpu": time.process_time() - cpu0,
                  "ops": {}, "palettes": 0, "proved": 0, "gap": 0, "suite": {}}
        for op, code, stdout, extra, error, seconds in results:
            record["ops"][op.op_id] = seconds
            self._check(op, code, stdout, extra, error, record)
        return record

    def _check(self, op, code, stdout, extra, error, record) -> None:
        self.attempted += 1
        if error is not None:
            reason, wrong = f"raised {error}", False
        elif code not in ((0, 3) if op.command == "exact" else (0,)):
            reason, wrong = f"exit {code}", False
        else:
            wrong = True
            try:
                reason = self._verify(op, code, stdout, extra, record)
            except (OSError, ValueError, IndexError) as exc:  # missing or garbled output
                reason = f"unreadable output: {exc}"
        if reason:
            self.failed += 1
            self.failures.append(f"{op.op_id}: {reason}")
            if wrong:
                self.incorrect.append(f"{op.op_id}: {reason}")

    def _verify(self, op, code, stdout, extra, record) -> str | None:
        if op.command == "suite":
            got, why = check.check_suite(stdout, self.first_report)
            if not why:
                self.first_report = self.first_report or stdout
                record["palettes"] += got[0]
                record["proved"] += got[1]
                record["suite"] = spans.suite_families(extra)
            return why
        edges = self.edges[op.graph]
        if op.command == "bounds":
            got, why = check.check_bounds(stdout, op.expect)
            if not why:
                record["palettes"] += got[1]
                record["proved"] += got[0] == got[1]
                record["gap"] += got[1] - got[0]
            return why
        coloring = self._out(op).read_text(encoding="utf-8")
        if op.command == "color":
            got, why = check.check_color(edges, stdout, coloring, op.expect)
            if not why:
                record["palettes"] += got[0]
                record["proved"] += got[1]
            return why
        got, why = check.check_exact(edges, stdout, code, coloring, op.expect,
                                     op.budget_range)
        if not why:
            value, proved = got
            record["palettes"] += value if op.budget_range is None else 0
            record["proved"] += proved
        return why

    def run_until(self, deadline: float) -> list[dict]:
        """Passes until the next one would end after `deadline`; at least one."""
        done, longest = [], 0.0
        while True:
            start = time.perf_counter()
            done.append(self.run_pass())
            now = time.perf_counter()
            longest = max(longest, now - start)
            if now + longest > deadline:
                return done


def _op_median(passes: list[dict], op_id: str) -> float:
    return statistics.median(p["ops"][op_id] for p in passes)


def pass_seconds(passes: list[dict]) -> float:
    """Time of one pass at reference speed, taken op by op: the sum of each
    op's median."""
    return sum(_op_median(passes, op_id) for op_id in passes[0]["ops"])


def end_to_end(runner: Runner, passes: list[dict], setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "pass_s": pass_seconds(passes),
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "palettes": statistics.median(p["palettes"] for p in passes),
        "proved": statistics.median(p["proved"] for p in passes),
    }


def per_layer(runner: Runner, plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = dict.fromkeys(per_layer_spec(), 0.0)
    out.update(runner.tracer.layer_metrics())
    reports = [p["suite"] for p in plain if p["suite"]]
    for family in spans.SUITE_FAMILIES if reports else ():
        out[f"suite.{family}.s"] = statistics.median(r[family] for r in reports)
    for op in runner.ops:
        out[f"op.{op.op_id}.s"] = _op_median(plain, op.op_id)
    out["op.samples"] = len(plain)
    out["trace.passes"] = len(traced)
    out["process.cpu_s"] = statistics.median(p["cpu"] for p in plain)
    out["process.wall_s"] = statistics.median(p["wall"] for p in plain)
    out["process.speed"] = runner.speed.speed()
    out["trace.overhead_ratio"] = pass_seconds(traced) / pass_seconds(plain) - 1
    return out


def run_workload(args) -> int:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    speed = SpeedClock()
    speed.start()
    try:
        try:
            setup_s, files = set_up(args.workload, args.seed, workdir, speed)
        except ImportError as exc:
            sys.stderr.write(f"error: cannot import the package under test: {exc}\n")
            return 2
        limit_before = sys.getrecursionlimit()
        runner = Runner(args.workload, workdir, files, speed)
        start = time.perf_counter()
        if not args.trace:
            plain, traced = runner.run_until(start + args.seconds), []
        else:
            plain = runner.run_until(start + args.seconds / 2)
            runner.tracer = spans.Tracer()
            runner.tracer.install()
            try:
                traced = runner.run_until(start + args.seconds)
            finally:
                runner.tracer.uninstall()
            runner.tracer.write(str(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = (per_layer(runner, plain, traced) if args.trace
                   else end_to_end(runner, plain, setup_s))
        units = per_layer_spec() if args.trace else END_TO_END
        pass_s = pass_seconds(plain)
        edges = sum(len(e) for e in runner.edges.values())
        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "input_edges": {name: len(e) for name, e in runner.edges.items()},
            "recursion_limit": {"before": limit_before, "after": sys.getrecursionlimit(),
                                "changed": sys.getrecursionlimit() != limit_before},
            "passes": len(plain), "traced_passes": len(traced),
            "pass_s": pass_s, "wall_s": statistics.median(p["wall"] for p in plain),
            "cpu_s": statistics.median(p["cpu"] for p in plain), "speed": speed.speed(),
            "edges_per_s": edges / pass_s if edges else None,
            "fail_ratio": runner.failed / runner.attempted,
            "bound_gap": statistics.median(p["gap"] for p in plain),
            "failures": sorted(set(runner.failures)),
            "op_s": {op.op_id: [p["ops"][op.op_id] for p in plain] for op in runner.ops},
        }
        print(json.dumps({"info": info}))
        print(json.dumps({
            "correct": not runner.incorrect,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                        for name in units},
        }))
        return 0
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own interpreter; prints each result and a table."""
    results = {}
    for workload in inputs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    names = per_layer_spec() if args.trace else END_TO_END
    print(f"{'metric':45s} {'unit':8s} " + " ".join(f"{w:>12s}" for w in results))
    for name, (unit, _) in names.items():
        row = " ".join(f"{r['metrics'][name]['value']:12.6g}" for r in results.values())
        print(f"{name:45s} {unit:8s} {row}")
    for workload, r in results.items():
        print(f"{workload}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*inputs.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
