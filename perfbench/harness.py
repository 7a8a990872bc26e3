"""Benchmark driver: runs a workload's cells for a time budget, times each
round, checks every written output and prints one JSON result line.

A pass runs every cell of the workload once, the way `fedtruth run` does:
build the config, `run_experiment`, then write the round CSV and JSON
summary. A run first makes one untimed pass at the cells' default seeds
and compares its outputs with reference.json, then repeats timed passes at
`--seed` until `--seconds` have elapsed. Round k of a cell runs from the
k-th call of `select_round_roster` to the next, and the last round ends
when `run_experiment` returns; setup is everything before the first roster
call. The calibration kernel runs at each roster call and once more after
the last round, outside every round, and each time is scaled to a
reference core by the kernel times around it (see calibration.py). Each
time is then the median over the timed passes (see `typical`).

With `--trace 1` each timed pass runs twice, once plain and once with spans
recorded at the layer boundaries (see tracing.py); the result then carries
the per-layer metrics and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import fedtruth
from fedtruth.cli import summarize, write_round_csv
from fedtruth.config import config_from_dict
from fedtruth.simulator import run_experiment

import calibration
import checks
import tracing
from workloads import WORKLOADS, Cell, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

END_TO_END = {
    "rounds_per_s": "rounds/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# reported next to END_TO_END; it is 0 on a good run, so the `failed` and
# `attempted` fields of the result line carry it to the driver
FAILED_FRAC = "failed_frac"


def layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if ".us_per_" in name:
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


@dataclass
class CellRun:
    name: str
    setup_s: float = 0.0
    round_s: List[float] = field(default_factory=list)
    write_s: float = 0.0
    # calibration kernel times: before each round, then after the last
    bursts: List[float] = field(default_factory=list)
    aggregate_s: float = 0.0
    digests: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.setup_s + sum(self.round_s) + self.write_s

    def on_reference_core(self) -> "CellRun":
        """The run's times scaled to the reference core: each round by the
        kernel times at its two ends, setup and write by their median."""
        if not self.bursts:
            return self
        whole = calibration.run_factor(self.bursts)
        return replace(self, setup_s=whole * self.setup_s,
                       round_s=(calibration.round_factors(self.bursts)
                                * np.array(self.round_s)).tolist(),
                       write_s=whole * self.write_s)


def run_cell(cell: Cell, master_seed: int, out_dir: Path,
             tracer: Optional[tracing.Tracer] = None) -> CellRun:
    """One cell end to end, timed; outputs go to out_dir/<cell>.csv|json."""
    run = CellRun(cell.name)
    csv_path = out_dir / f"{cell.name}.csv"
    summary_path = out_dir / f"{cell.name}.json"
    stamps: List[Tuple[float, float]] = []
    bursts: List[float] = []
    hooks = tracer.installed(stamps) if tracer \
        else tracing.stamp_rounds(stamps, bursts)
    span = tracer.span if tracer else (lambda _: contextlib.nullcontext())
    try:
        with hooks, span("harness.cell"):
            start = time.perf_counter()
            with span("harness.run"):
                cfg = config_from_dict(cell.with_seed(master_seed))
                cfg.output.name = cell.name
                reports = run_experiment(cfg)
            run_end = time.perf_counter()
            if not tracer:
                bursts.append(calibration.burst())
            with span("harness.write"):
                write_round_csv(csv_path, cfg, reports)
                with open(summary_path, "w") as fh:
                    json.dump(summarize(cfg, reports), fh, indent=2)
                    fh.write("\n")
            end = time.perf_counter()
        run.digests = checks.digests(csv_path, summary_path)
    except Exception:  # a failing cell is a result, not a crash
        run.problems.append(traceback.format_exc())
        return run
    run.setup_s = stamps[0][0] - start
    ends = [arrived for arrived, _ in stamps[1:]] + [run_end]
    run.round_s = [end_k - left for (_, left), end_k in zip(stamps, ends)]
    run.write_s = end - run_end
    run.bursts = bursts
    run.aggregate_s = sum(r.aggregation_wall_time for r in reports)
    return run


def run_pass(workload: Workload, master_seed: Optional[int], out_dir: Path,
             tracer: Optional[tracing.Tracer] = None) -> List[CellRun]:
    """Every cell once, at `master_seed` or else at its default seed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return [run_cell(cell, cell.config["master_seed"] if master_seed is None
                     else master_seed, out_dir, tracer)
            for cell in workload.cells]


def check_reference(workload: Workload, runs: List[CellRun],
                    reference: dict) -> None:
    expected = reference.get(workload.name, {})
    for run in runs:
        if not run.problems:
            run.problems += checks.compare(run.digests,
                                           expected.get(run.name, {}),
                                           "reference")


def check_repeat(workload: Workload, runs: List[CellRun], out_dir: Path,
                 first: Optional[List[CellRun]]) -> None:
    """The first pass at a seed must satisfy the row invariants; every
    later pass must reproduce its outputs."""
    for k, (cell, run) in enumerate(zip(workload.cells, runs)):
        if run.problems:
            continue
        if first is None:
            run.problems += checks.check_invariants(
                out_dir / f"{cell.name}.csv", out_dir / f"{cell.name}.json",
                cell.rounds, cell.iteration_cap)
        else:
            run.problems += checks.compare(run.digests, first[k].digests,
                                           "first pass")


def typical(passes: List[List[CellRun]],
            scaled: bool = True) -> List[CellRun]:
    """Per cell, the median setup, write and k-th round over the passes,
    each first scaled to the reference core unless `scaled` is false.

    The passes ran the same inputs, so the k-th rounds of two passes do
    the same work; the median drops rounds that a short stall of the
    host (another tenant's burst, a preempted vCPU) lengthened.
    """
    out = []
    for runs in zip(*passes):
        timed = [r for r in runs if r.round_s]
        if timed:
            if scaled:
                timed = [r.on_reference_core() for r in timed]
            out.append(CellRun(
                timed[0].name,
                setup_s=statistics.median(r.setup_s for r in timed),
                round_s=np.median([r.round_s for r in timed],
                                  axis=0).tolist(),
                write_s=statistics.median(r.write_s for r in timed)))
    return out


def end_to_end(cells: List[CellRun], seeds: int) -> Dict[str, float]:
    """Metrics over the typical cells of every seed; setup and wall time
    are per seed, i.e. per workload pass."""
    round_ms = 1e3 * np.array([t for c in cells for t in c.round_s])
    if not round_ms.size:
        return {name: 0.0 for name in END_TO_END}
    p50, p90 = np.percentile(round_ms, [50, 90])
    return {
        "rounds_per_s": round_ms.size / (1e-3 * round_ms.sum()),
        "round_ms_p50": float(p50),
        "round_ms_p90": float(p90),
        "setup_s": sum(c.setup_s for c in cells) / seeds,
        "wall_s": sum(c.wall_s for c in cells) / seeds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reference: dict, out_dir: Path) -> dict:
    """Check the default seeds, then run timed passes for `seconds`,
    cycling through the workload's seeds for `seed`."""
    cells = run_pass(workload, None, out_dir / "reference")  # also warms up
    check_reference(workload, cells, reference)
    seeds = workload.run_seeds(seed)
    tracer = tracing.Tracer() if trace else None
    plain: Dict[int, List[List[CellRun]]] = {s: [] for s in seeds}
    traced: Dict[int, List[List[CellRun]]] = {s: [] for s in seeds}
    start = time.perf_counter()
    i = 0
    while i < len(seeds) or time.perf_counter() - start < seconds:
        master = seeds[i % len(seeds)]
        i += 1
        for passes, pass_tracer in [(plain, None)] + \
                ([(traced, tracer)] if tracer else []):
            runs = run_pass(workload, master, out_dir, pass_tracer)
            first = plain[master][0] if plain[master] else None
            check_repeat(workload, runs, out_dir, first)
            passes[master].append(runs)
            cells += runs

    # a cell fails when any of its runs raised or wrote wrong outputs
    failed = {c.name for c in cells if c.problems}
    for cell in cells:
        if cell.problems:
            print(f"{workload.name}/{cell.name}: " + "; ".join(cell.problems),
                  file=sys.stderr)
    typical_cells = [c for s in seeds for c in typical(plain[s])]
    if tracer:
        tracer.write(out_dir / "spans.jsonl")
        traced_runs = [c for s in seeds for p in traced[s] for c in p]
        values = tracer.layer_metrics(
            sum(len(traced[s]) for s in seeds),
            sum(c.aggregate_s for c in traced_runs))
        # traced passes run no calibration kernel, so compare raw times
        plain_loop = sum(sum(c.round_s) for s in seeds
                         for c in typical(plain[s], scaled=False))
        traced_loop = sum(sum(c.round_s) for s in seeds
                          for c in typical(traced[s]))
        values["trace_overhead_frac"] = \
            traced_loop / plain_loop - 1.0 if plain_loop else 0.0
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(typical_cells, len(seeds))
        units = END_TO_END
    return {
        "correct": not failed,
        "attempted": len(workload.cells),
        "failed": len(failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in sorted(values)},
        "passes": sum(len(plain[s]) for s in seeds),
        "rounds": sum(len(c.round_s) for s in seeds for p in plain[s]
                      for c in p),
    }


def blas_threads() -> Optional[int]:
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def print_result(workload: str, result: dict, env: dict) -> None:
    """Human lines, the environment line, then the result line last."""
    for name, metric in result["metrics"].items():
        print(f"{workload:<11} {name:<40} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    print(f"{workload:<11} {FAILED_FRAC:<40} "
          f"{result['failed'] / result['attempted']:>14.6g} ratio")
    print(json.dumps({"env": env, "passes": result["passes"],
                      "rounds": result["rounds"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted",
                                             "failed", "metrics")}))


def run_one(args) -> int:
    if not Path(fedtruth.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported fedtruth from {fedtruth.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    reference = json.loads(REFERENCE.read_text())
    out_dir = OUT / args.workload
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), reference, out_dir)
    with open(out_dir / f"result-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "env": env, "seed": args.seed}, fh, indent=2)
    print_result(args.workload, result, env)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        print("\n".join(line for line in done.stdout.splitlines()
                        if not line.startswith("{")))
        if done.returncode != 0:
            print(f"{name}: failed (exit {done.returncode})", file=sys.stderr)
            status = 1
    return status


def record() -> int:
    """Rewrite reference.json from one default-seed pass per workload."""
    reference = {}
    for workload in WORKLOADS.values():
        runs = run_pass(workload, None, OUT / "record" / workload.name)
        failed = [r.problems for r in runs if r.problems]
        if failed:
            print("\n".join(failed[0]), file=sys.stderr)
            return 1
        reference[workload.name] = {r.name: r.digests for r in runs}
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload; default: all, each in its "
                             "own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json at the default seeds")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload:
        return run_one(args)
    return run_all(args)
