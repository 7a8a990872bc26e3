"""Command-line front end: run one experiment, sweep a scenario grid, or
benchmark aggregator timings.

Per-round results land in a CSV (schema below) plus a JSON summary; sweeps
additionally produce a merged long-format CSV and a gnuplot script for
plotting accuracy curves.

CSV schema:
    round, aggregator, distance, coefficient, n_adversaries, attack,
    main_acc, backdoor_acc, agg_time_s, iters, weight_c0..weight_c{k-1}
Timing columns (agg_time_s) are the only nondeterministic fields.
"""

import argparse
import copy
import csv
import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from .attacks import AttackKind
from .config import (AggregatorConfig, ExperimentConfig, _build, _read_yaml,
                     _set, check_file_name, config_from_dict, load_config)
from .rng import stream
from .simulator import (AGGREGATORS, AggregationContext, RoundReport,
                        run_experiment)

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _attack_label(cfg: ExperimentConfig) -> str:
    if cfg.attack.kind is AttackKind.NONE or cfg.attack.n_adversaries == 0:
        return "none"
    label = cfg.attack.kind.value
    if cfg.attack.kind is AttackKind.BACKDOOR:
        label += f"-{cfg.attack.backdoor.flavor.value}"
    return f"{label}/{cfg.attack.strategy.value}"


def write_round_csv(path: Path, cfg: ExperimentConfig,
                    reports: List[RoundReport]) -> None:
    k = cfg.fl.clients_per_round
    header = ["round", "aggregator", "distance", "coefficient",
              "n_adversaries", "attack", "main_acc", "backdoor_acc",
              "agg_time_s", "iters"] + [f"weight_c{i}" for i in range(k)]
    run_columns = [cfg.aggregator.kind, cfg.aggregator.distance.value,
                   cfg.aggregator.coefficient.value, cfg.attack.n_adversaries,
                   _attack_label(cfg)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in reports:
            weights = r.weights if r.weights is not None else [None] * k
            writer.writerow([r.round_index] + run_columns + [
                _fmt(r.main_accuracy), _fmt(r.backdoor_accuracy),
                _fmt(r.aggregation_wall_time), _fmt(r.fedtruth_iterations),
            ] + [_fmt(w) for w in weights])


def summarize(cfg: ExperimentConfig, reports: List[RoundReport]) -> dict:
    iters = [r.fedtruth_iterations for r in reports
             if r.fedtruth_iterations is not None]
    return {
        "name": cfg.output.name,
        "aggregator": cfg.aggregator.kind,
        "rounds": len(reports),
        "final_main_accuracy": reports[-1].main_accuracy,
        "final_backdoor_accuracy": reports[-1].backdoor_accuracy,
        "mean_aggregation_time_s":
            float(np.mean([r.aggregation_wall_time for r in reports])),
        "mean_fedtruth_iterations":
            float(np.mean(iters)) if iters else None,
    }


def _run_single(cfg: ExperimentConfig, out_dir: Path,
                name: str) -> List[RoundReport]:
    reports = run_experiment(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_round_csv(out_dir / f"{name}.csv", cfg, reports)
    with open(out_dir / f"{name}.json", "w") as fh:
        json.dump(summarize(cfg, reports), fh, indent=2)
        fh.write("\n")
    return reports


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config, args.set or ())
        out_dir = cfg.output.resolved_dir()
        reports = _run_single(cfg, out_dir, cfg.output.name)
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    final = reports[-1]
    line = (f"{cfg.output.name}: {len(reports)} rounds, "
            f"final accuracy {final.main_accuracy:.4f}")
    if final.backdoor_accuracy is not None:
        line += f", backdoor {final.backdoor_accuracy:.4f}"
    print(line)
    print(f"wrote {out_dir / (cfg.output.name + '.csv')}")
    return 0


# -- sweep ----------------------------------------------------------------

# each list of a spec: the config key it sets, its merged column and name part
LISTS = {"aggregators": ("aggregator.kind", "aggregator", "{}"),
         "adversary_counts": ("attack.n_adversaries", "n_adversaries",
                              "adv{}"),
         "biases": ("dataset.noniid_bias", "bias", "bias{}"),
         "distances": ("aggregator.distance", "distance", "{}"),
         "seeds": ("master_seed", "seed", "seed{}")}


@dataclasses.dataclass
class SweepSpec:
    """A scenario grid over a base config: the lists set the keys in LISTS,
    and `axes` maps other dotted keys to their values. The cells cross the
    lists in field order, then the axes in mapping order. Each axis holds
    values, none twice; the cap is >= 1 and `name` a plain file name."""
    base: Optional[str] = None  # required; relative to the spec's folder
    aggregators: List[str] = dataclasses.field(default_factory=list)
    adversary_counts: List[int] = dataclasses.field(default_factory=list)
    biases: List[float] = dataclasses.field(default_factory=list)
    distances: List[str] = dataclasses.field(default_factory=list)
    seeds: List[int] = dataclasses.field(default_factory=list)
    axes: dict = dataclasses.field(default_factory=dict)
    cap: int = 64
    name: str = "sweep"

    def __post_init__(self):
        if self.base is None:
            raise ValueError("base: required, the config the cells override")
        if not isinstance(self.axes, dict):
            raise ValueError(f"axes: expected a mapping, got {self.axes!r}")
        for label, values in [(key, getattr(self, key)) for key in LISTS] \
                + [(f"axes: {key}", v) for key, v in self.axes.items()]:
            if not isinstance(values, list) or not values:
                raise ValueError(f"{label}: expected a non-empty list")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{label}: repeats {value!r}")
        # {config key: (merged column, cell-name part, values)}, in order
        self.table = {key: (column, part, getattr(self, field))
                      for field, (key, column, part) in LISTS.items()}
        for key, values in self.axes.items():
            if not isinstance(key, str):
                raise ValueError(f"axes: expected dotted keys, got {key!r}")
            clash = [k for k in [*self.table, "output"] if k == key or
                     key.startswith(k + ".") or k.startswith(key + ".")]
            if clash:
                raise ValueError(f"axes: {key}: the sweep sets {clash[0]}")
            self.table[key] = (key, key + "={}", values)
        if self.cap < 1:
            raise ValueError("cap: must be >= 1")
        check_file_name("name", self.name)


def load_sweep(path) -> SweepSpec:
    """Load a sweep spec, built and checked by the config's typed builder;
    `name` defaults to the file's stem."""
    path = Path(path)
    data = _read_yaml(path, "sweep spec")
    data.setdefault("name", path.stem)
    try:
        spec = _build(SweepSpec, data)
    except ValueError as err:
        raise ValueError(f"sweep spec: {err}") from None
    spec.base = str((path.parent / spec.base).resolve())
    return spec


def cell_configs(spec: SweepSpec) -> List[tuple]:
    """(cell, config) per cell in product order: the base file's mapping
    with the cell's {config key: value} set and its name as output.name."""
    cells = [dict(zip(spec.table, values)) for values in
             itertools.product(*(v for _, _, v in spec.table.values()))]
    if len(cells) > spec.cap:
        raise ValueError(
            f"sweep has {len(cells)} cells, over the cap of {spec.cap}")
    base = _read_yaml(Path(spec.base), "config file")
    pairs = []
    for cell in cells:
        name = "_".join(spec.table[key][1].format(value)
                        for key, value in cell.items())
        data = copy.deepcopy(base)
        try:
            for key, value in {**cell, "output.name": name}.items():
                _set(data, key, value)
            pairs.append((cell, config_from_dict(data)))
        except ValueError as err:
            raise ValueError(f"sweep cell {name}: {err}") from None
    return pairs


def _gnuplot_script(cell_files: List[str]) -> str:
    # per-round cell CSVs: column 1 = round, column 7 = main_acc; with no
    # cell to plot the settings stand alone, as gnuplot refuses a bare plot
    lines = [
        'set datafile separator ","',
        'set key outside',
        'set xlabel "round"',
        'set ylabel "main accuracy"',
        'set yrange [0:1]',
    ]
    if cell_files:
        lines.append("plot " + ", \\\n     ".join(
            f'"{name}" every ::1 using 1:7 with lines '
            f'title "{Path(name).stem}"' for name in cell_files))
    return "\n".join(lines + [""])


def cmd_sweep(args) -> int:
    try:
        spec = load_sweep(args.spec)
        # every cell passes validation before the first one runs
        cells = cell_configs(spec)
        out_dir = cells[0][1].output.resolved_dir() / spec.name
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    merged_rows = []
    statuses = []
    for cell, cfg in cells:
        name = cfg.output.name
        try:
            reports = _run_single(cfg, out_dir, name)
            merged_rows.extend([_fmt(value) for value in cell.values()] + [
                r.round_index, _fmt(r.main_accuracy),
                _fmt(r.backdoor_accuracy), _fmt(r.aggregation_wall_time),
                _fmt(r.fedtruth_iterations)] for r in reports)
            statuses.append((name, "ok", ""))
        except (OSError, ValueError, RuntimeError) as err:
            statuses.append((name, "failed", str(err)))
            print(f"cell {name} failed: {err}", file=sys.stderr)

    merged_path = out_dir / f"{spec.name}_merged.csv"
    header = [column for column, _, _ in spec.table.values()] + [
        "round", "main_acc", "backdoor_acc", "agg_time_s", "iters"]
    ok_cells = [f"{name}.csv" for name, status, _ in statuses
                if status == "ok"]
    try:
        with open(merged_path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + merged_rows)
        with open(out_dir / f"{spec.name}_cells.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([["cell", "status", "detail"]] + statuses)
        (out_dir / f"{spec.name}.gp").write_text(_gnuplot_script(ok_cells))
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    print(f"{len(ok_cells)}/{len(cells)} cells ok, merged -> {merged_path}")
    return 1 if len(ok_cells) < len(cells) else 0


# -- bench ----------------------------------------------------------------

BENCH_LAYER_COUNT = 8  # synthetic layered split used for the per-layer variant
BENCH_MIN_CLIENTS = 3  # krum and flame need at least 3 updates


def bench_aggregation(n_clients_list: List[int], dim: int,
                      repetitions: int = 3,
                      aggregators: Optional[List[str]] = None) -> List[dict]:
    """Mean seconds per call of each registry entry on synthetic random
    updates, the same entry the simulator calls for that kind.

    Inputs are seed-deterministic; timings obviously are not. The relative
    ordering across aggregators is the reproducible object.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    names = aggregators or list(AGGREGATORS)
    rows = []
    for n in n_clients_list:
        if n < 1 or dim < 1:
            raise ValueError("n_clients and dim must be positive")
        flats = stream(1234, "bench", n, dim).normal(size=(n, dim))
        server = flats[0] + stream(99, "bench-server", n).normal(size=dim) * 0.1
        ctx = AggregationContext(
            layer_sizes=[len(idx) for idx in np.array_split(
                np.arange(dim), min(BENCH_LAYER_COUNT, dim))],
            config=AggregatorConfig(),
            krum_f=min(3, max(0, n - 3)),
            server_update=lambda: server,
            flame_rng=lambda: stream(5, "bench-flame", n))
        for name in names:
            entry = AGGREGATORS[name]
            entry(flats, ctx)  # warm-up, excluded from timing
            start = time.perf_counter()
            for _ in range(repetitions):
                entry(flats, ctx)
            elapsed = (time.perf_counter() - start) / repetitions
            rows.append({"aggregator": name, "n_clients": n, "dim": dim,
                         "mean_seconds": elapsed})
    return rows


def cmd_bench(args) -> int:
    try:
        n_list = [int(x) for x in args.clients.split(",")]
        if min(n_list) < BENCH_MIN_CLIENTS:
            raise ValueError(
                f"--clients: each count must be at least "
                f"{BENCH_MIN_CLIENTS}, got {min(n_list)}")
        rows = bench_aggregation(n_list, args.dim, args.reps)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"{'aggregator':<15} {'n':>6} {'dim':>8} {'mean_s':>12}")
    for row in rows:
        print(f"{row['aggregator']:<15} {row['n_clients']:>6} "
              f"{row['dim']:>8} {row['mean_seconds']:>12.6f}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["aggregator", "n_clients", "dim",
                                "mean_seconds"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedtruth",
        description="Deterministic federated-learning simulator with "
                    "truth-discovery aggregation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="YAML experiment config")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field, e.g. fl.rounds=3")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario grid")
    p_sweep.add_argument("spec", help="YAML sweep spec")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bench = sub.add_parser("bench", help="time aggregators on synthetic "
                                           "updates")
    p_bench.add_argument("--clients", default="10,100,1000",
                         help="comma-separated client counts")
    p_bench.add_argument("--dim", type=int, default=10000)
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--out", default=None, help="optional CSV path")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
