import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedtruth.cli import bench_aggregation, cell_configs, load_sweep, main
from fedtruth.config import config_from_dict
from fedtruth.simulator import AGGREGATORS

from helpers import MINIMAL, without_timing_bytes, write_config

ROOT = Path(__file__).resolve().parent.parent


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


DROP = object()  # the spec leaves the key out


def write_sweep(tmp_path, config=None, **fields):
    """A one-cell sweep spec (fedtruth, 0 adversaries, bias 0.8, euclidean,
    seed 0) over `config`, a fresh minimal config if None; each of `fields`
    replaces its key, or leaves it out if DROP."""
    spec = {"base": str(config or write_config(tmp_path)),
            "aggregators": ["fedtruth"], "adversary_counts": [0],
            "biases": [0.8], "distances": ["euclidean"], "seeds": [0]}
    for key, value in fields.items():
        if value is DROP:
            del spec[key]
        else:
            spec[key] = value
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(spec))
    return path


def test_missing_config_is_reported(capsys):
    rc = main(["run", "/nonexistent/config.yaml"])
    assert rc == 1
    assert "/nonexistent/config.yaml" in capsys.readouterr().err


def test_run_writes_csv_and_summary(tmp_path):
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    rows = read_csv(tmp_path / "out" / "exp.csv")
    header = rows[0]
    assert header[:10] == ["round", "aggregator", "distance", "coefficient",
                           "n_adversaries", "attack", "main_acc",
                           "backdoor_acc", "agg_time_s", "iters"]
    assert header[10:] == [f"weight_c{i}" for i in range(4)]
    assert len(rows) == 1 + 3
    summary = json.loads((tmp_path / "out" / "exp.json").read_text())
    assert summary["rounds"] == 3
    assert summary["aggregator"] == "fedtruth"


def test_summary_matches_csv_recomputation(tmp_path):
    path = write_config(tmp_path)
    main(["run", str(path)])
    rows = read_csv(tmp_path / "out" / "exp.csv")
    header, data = rows[0], rows[1:]
    acc = [float(r[header.index("main_acc")]) for r in data]
    times = [float(r[header.index("agg_time_s")]) for r in data]
    iters = [float(r[header.index("iters")]) for r in data
             if r[header.index("iters")]]
    summary = json.loads((tmp_path / "out" / "exp.json").read_text())
    assert abs(summary["final_main_accuracy"] - acc[-1]) <= 1e-12
    assert abs(summary["mean_aggregation_time_s"] - np.mean(times)) <= 1e-12
    assert abs(summary["mean_fedtruth_iterations"] - np.mean(iters)) <= 1e-12


def test_set_override_shortens_run(tmp_path):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--set", "fl.rounds=2"]) == 0
    assert len(read_csv(tmp_path / "out" / "exp.csv")) == 1 + 2


def test_bad_override_reports_error(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--set", "fl.bogus=1"]) == 1
    assert "fl.bogus" in capsys.readouterr().err


def test_root_set_taking_a_whole_class_is_one_error_line(tmp_path, capsys):
    # two pool rows, one per class: FLTrust's half-pool root takes a class
    synth = {**MINIMAL["dataset"]["synth"], "n_train": 2}
    path = write_config(tmp_path, extra={
        "dataset": {**MINIMAL["dataset"], "synth": synth},
        "aggregator": {"kind": "fltrust"}, "fltrust_root_fraction": 0.5})
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fltrust_root_fraction: ")
    assert err.count("\n") == 1 and "class" in err
    assert not (tmp_path / "out").exists()


def test_unknown_aggregator_kind_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="nope"):
        config_from_dict({"aggregator": {"kind": "nope"}})
    path = write_config(tmp_path)
    assert main(["run", str(path), "--set", "aggregator.kind=nope"]) == 1
    assert "nope" in capsys.readouterr().err
    spec = write_sweep(tmp_path, path, aggregators=["fedtruth", "nope"])
    assert main(["sweep", str(spec)]) == 1
    assert "nope" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep").exists()


def test_misspelt_sweep_distance_refused_before_execution(tmp_path, capsys):
    spec = write_sweep(tmp_path, distances=["euclidean", "cosin"])
    assert main(["sweep", str(spec)]) == 1
    assert "cosin" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep").exists()


def test_runs_byte_identical_modulo_timing(tmp_path):
    path_a = write_config(tmp_path, "a")
    path_b = write_config(tmp_path, "b")
    main(["run", str(path_a)])
    main(["run", str(path_b)])
    rows_a = without_timing_bytes(tmp_path / "out" / "a.csv")
    rows_b = without_timing_bytes(tmp_path / "out" / "b.csv")
    assert rows_a == rows_b


def test_sweep_produces_cells_and_merged(tmp_path):
    spec = write_sweep(tmp_path, aggregators=["fedtruth", "fedavg"])
    assert main(["sweep", str(spec)]) == 0
    out = tmp_path / "out" / "sweep"
    cells = sorted(p.name for p in out.glob("*_seed0.csv"))
    assert len(cells) == 2
    merged = read_csv(out / "sweep_merged.csv")
    assert merged[0] == ["aggregator", "n_adversaries", "bias", "distance",
                        "seed", "round", "main_acc", "backdoor_acc",
                        "agg_time_s", "iters"]
    assert len(merged) == 1 + 2 * 3  # two cells, three rounds each
    assert (out / "sweep.gp").exists()
    statuses = read_csv(out / "sweep_cells.csv")
    assert all(row[1] == "ok" for row in statuses[1:])


def test_sweep_cap_refused_before_execution(tmp_path):
    spec = write_sweep(tmp_path, aggregators=["fedtruth", "fedavg"],
                       adversary_counts=[0, 1], biases=[0.5, 0.8],
                       seeds=[0, 1], cap=3)
    assert main(["sweep", str(spec)]) == 1
    assert not (tmp_path / "out" / "sweep").exists()


def test_sweep_rejects_empty_lists(tmp_path):
    spec = write_sweep(tmp_path, aggregators=[])
    assert main(["sweep", str(spec)]) == 1


@pytest.mark.parametrize("field", ["seeds", "aggregators", "biases"])
def test_sweep_refuses_non_list_field(field, tmp_path, capsys):
    path = write_sweep(tmp_path, **{field: 3})
    assert main(["sweep", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"sweep spec: {field}: expected a list" in err
    assert not (tmp_path / "out" / "sweep").exists()


@pytest.mark.parametrize("key, value", [
    ("seeds", DROP), ("base", DROP), ("cap", None), ("cap", 1.5),
    ("name", 5), ("biases", ["high"]),
], ids=["no-seeds", "no-base", "cap-null", "cap-fraction", "name-number",
        "bias-word"])
def test_bad_sweep_spec_names_its_key(key, value, tmp_path, capsys):
    # no-seeds, cap-null and name-number used to die with a TypeError
    # traceback, and a cap of 1.5 was taken
    path = write_sweep(tmp_path, **{key: value})
    assert main(["sweep", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: sweep spec: {key}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, values, shown", [
    ("aggregators", ["fedavg", "fedavg"], "'fedavg'"),
    ("adversary_counts", [0, 1, 0], "0"),
    ("biases", [0.8, 0.80], "0.8"),
    ("distances", ["euclidean", "cosine", "euclidean"], "'euclidean'"),
    ("seeds", [3, 3], "3"),
])
def test_sweep_refuses_repeated_values(key, values, shown, tmp_path, capsys):
    # a repeated value used to run its cells twice, double the merged rows
    # and still report every cell ok
    path = write_sweep(tmp_path, **{key: values})
    assert main(["sweep", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: sweep spec: {key}: repeats {shown}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cap", [0, -2])
def test_sweep_refuses_cap_below_one(cap, tmp_path, capsys):
    path = write_sweep(tmp_path, cap=cap)
    assert main(["sweep", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: sweep spec: cap: must be >= 1"]
    assert not (tmp_path / "out").exists()


def test_sweep_spec_must_be_a_mapping(tmp_path, capsys):
    # used to die with a TypeError traceback
    path = tmp_path / "sweep.yaml"
    path.write_text("5\n")
    assert main(["sweep", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: sweep spec: expected a mapping, got 5"]


def test_sweep_partial_failure_recorded(tmp_path):
    # a boosted update of 1e305 * u overflows the estimator's distances,
    # which only the run can find: that cell fails, the benign one runs
    base = write_config(tmp_path, extra={
        "attack": {"kind": "model_boost", "strategy": "with_boosting",
                   "n_adversaries": 0, "boosting_factor": 1e305}})
    spec = write_sweep(tmp_path, base, adversary_counts=[0, 1])
    rc = main(["sweep", str(spec)])
    assert rc == 1
    statuses = read_csv(tmp_path / "out" / "sweep" / "sweep_cells.csv")
    by_status = {row[0]: row[1] for row in statuses[1:]}
    assert sorted(by_status.values()) == ["failed", "ok"]


def test_sweep_whose_cells_all_fail_writes_a_script_without_plot(tmp_path):
    # the one cell overflows: the script keeps its settings and leaves out
    # the plot command, which gnuplot refuses without a curve
    base = write_config(tmp_path, extra={
        "attack": {"kind": "model_boost", "strategy": "with_boosting",
                   "n_adversaries": 0, "boosting_factor": 1e305}})
    spec = write_sweep(tmp_path, base, adversary_counts=[1])
    assert main(["sweep", str(spec)]) == 1
    out = tmp_path / "out" / "sweep"
    assert [row[1] for row in read_csv(out / "sweep_cells.csv")[1:]] == [
        "failed"]
    lines = (out / "sweep.gp").read_text().splitlines()
    assert lines[0] == 'set datafile separator ","'
    assert lines[-1] == "set yrange [0:1]"
    assert not any(line.startswith("plot") for line in lines)


def test_sweep_refused_when_a_cell_breaks_validation(tmp_path, capsys):
    # 2 of 4 roster clients breaks the threat model; the sweep used to run
    # the first cell and record the second as failed
    base = write_config(tmp_path, extra={
        "attack": {"kind": "model_boost", "strategy": "with_boosting"}})
    spec = write_sweep(tmp_path, base, adversary_counts=[1, 2])
    assert main(["sweep", str(spec)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: sweep cell "
                               "fedtruth_adv2_bias0.8_euclidean_seed0: "
                               "threat model: ")
    assert not (tmp_path / "out" / "sweep").exists()


def test_bench_rows_one_per_aggregator_and_n():
    rows = bench_aggregation([4, 6], dim=32, repetitions=1)
    keys = {(r["aggregator"], r["n_clients"]) for r in rows}
    assert len(keys) == len(rows)
    assert all(r["mean_seconds"] >= 0.0 for r in rows)
    ns = {r["n_clients"] for r in rows}
    assert ns == {4, 6}
    for n in ns:
        assert {r["aggregator"] for r in rows
                if r["n_clients"] == n} == set(AGGREGATORS)


def test_bench_subset_of_aggregators():
    rows = bench_aggregation([5], dim=16, repetitions=2,
                             aggregators=["fedtruth", "krum"])
    assert {r["aggregator"] for r in rows} == {"fedtruth", "krum"}


def test_bench_cli_smoke(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--clients", "4,5", "--dim", "16", "--reps", "1",
                 "--out", str(out)]) == 0
    assert out.exists()
    assert "fedtruth" in capsys.readouterr().out


@pytest.mark.parametrize("clients", ["2", "4,1", "0"])
def test_bench_cli_rejects_fewer_than_three_clients(clients, capsys):
    # krum and flame cannot run below 3 clients, so the table is refused
    # before any row is timed
    assert main(["bench", "--clients", clients, "--dim", "8",
                 "--reps", "1"]) == 1
    captured = capsys.readouterr()
    assert "at least 3" in captured.err
    assert captured.out == ""


def test_bench_rejects_bad_sizes():
    with pytest.raises(ValueError):
        bench_aggregation([0], dim=16)
    with pytest.raises(ValueError):
        bench_aggregation([4], dim=16, repetitions=0)


def test_sweep_example_matches_committed_golden(tmp_path, monkeypatch):
    # fedtruth, fedavg, median and krum under boosting at 0 and 3 adversaries
    monkeypatch.setenv("FEDTRUTH_OUT_ROOT", str(tmp_path))
    assert main(["sweep", str(ROOT / "configs" / "sweep_example.yaml")]) == 0
    name = "sweep_example/sweep_example_merged.csv"
    assert without_timing_bytes(tmp_path / name) == \
        without_timing_bytes(ROOT / "runs" / name)


def test_baseline_run_matches_committed_golden(tmp_path):
    # the committed runs/baseline.* came from this exact command
    assert main(["run", str(ROOT / "configs" / "baseline.yaml"),
                 "--set", "fl.rounds=5",
                 "--set", f"output.directory={tmp_path}"]) == 0
    assert without_timing_bytes(tmp_path / "baseline.csv") == \
        without_timing_bytes(ROOT / "runs" / "baseline.csv")
    timing = {"mean_aggregation_time_s"}
    ours = json.loads((tmp_path / "baseline.json").read_text())
    golden = json.loads((ROOT / "runs" / "baseline.json").read_text())
    assert ours.keys() == golden.keys()
    assert {k: v for k, v in ours.items() if k not in timing} == \
        {k: v for k, v in golden.items() if k not in timing}


def test_sweep_axes_are_typed_columns_and_name_parts(tmp_path):
    # a null radius used to be refused, as its `key=None` override string
    # parsed back as the word 'None'
    base = write_config(tmp_path)
    spec = write_sweep(tmp_path, base, axes={
        "aggregator.coefficient": ["neglog", "inverse"],
        "attack.pgd_radius": [None, 0.04]})
    assert main(["sweep", str(spec)]) == 0
    out = tmp_path / "out" / "sweep"
    merged = read_csv(out / "sweep_merged.csv")
    assert merged[0] == ["aggregator", "n_adversaries", "bias", "distance",
                         "seed", "aggregator.coefficient",
                         "attack.pgd_radius", "round", "main_acc",
                         "backdoor_acc", "agg_time_s", "iters"]
    assert [row[5:7] for row in merged[1::3]] == [
        ["neglog", ""], ["neglog", "0.04"], ["inverse", ""],
        ["inverse", "0.04"]]
    names = [f"fedtruth_adv0_bias0.8_euclidean_seed0_aggregator.coefficient="
             f"{coefficient}_attack.pgd_radius={radius}"
             for coefficient in ("neglog", "inverse")
             for radius in ("None", "0.04")]
    assert [row[0] for row in read_csv(out / "sweep_cells.csv")[1:]] == names
    assert main(["run", str(base), "--set", "aggregator.coefficient=inverse",
                 "--set", "attack.pgd_radius=null"]) == 0
    assert without_timing_bytes(out / f"{names[2]}.csv") == \
        without_timing_bytes(tmp_path / "out" / "exp.csv")


def test_sweep_crosses_the_lists_before_the_axes(tmp_path):
    spec = load_sweep(write_sweep(
        tmp_path, aggregators=["fedtruth", "fedavg"],
        axes={"aggregator.coefficient": ["neglog", "inverse"]}))
    pairs = cell_configs(spec)
    assert [cell for cell, _ in pairs] == [
        {"aggregator.kind": kind, "attack.n_adversaries": 0,
         "dataset.noniid_bias": 0.8, "aggregator.distance": "euclidean",
         "master_seed": 0, "aggregator.coefficient": coefficient}
        for kind in ("fedtruth", "fedavg")
        for coefficient in ("neglog", "inverse")]
    assert [(cfg.aggregator.kind, cfg.aggregator.coefficient.value)
            for _, cfg in pairs] == [
        ("fedtruth", "neglog"), ("fedtruth", "inverse"),
        ("fedavg", "neglog"), ("fedavg", "inverse")]


@pytest.mark.parametrize("axes, message", [
    (3, "sweep spec: axes: expected a mapping, got 3"),
    ({1: ["a"]}, "sweep spec: axes: expected dotted keys, got 1"),
    ({"fl.rounds": 2}, "sweep spec: axes: fl.rounds: expected a non-empty "
                       "list"),
    ({"fl.rounds": []}, "sweep spec: axes: fl.rounds: expected a non-empty "
                        "list"),
    ({"fl.rounds": [2, 3, 2]}, "sweep spec: axes: fl.rounds: repeats 2"),
    ({"master_seed": [1, 2]},
     "sweep spec: axes: master_seed: the sweep sets master_seed"),
    ({"aggregator": [{"kind": "fedavg"}]},
     "sweep spec: axes: aggregator: the sweep sets aggregator.kind"),
    ({"output.directory": ["elsewhere"]},
     "sweep spec: axes: output.directory: the sweep sets output"),
    ({"fl.bogus": [1]}, "sweep cell fedtruth_adv0_bias0.8_euclidean_seed0_"
                        "fl.bogus=1: unknown config keys ['fl.bogus']"),
], ids=["not-mapping", "key-number", "value-scalar", "value-empty",
        "value-repeat", "list-key", "list-section", "output", "unknown"])
def test_bad_sweep_axes_refused_before_execution(axes, message, tmp_path,
                                                  capsys):
    path = write_sweep(tmp_path, axes=axes)
    assert main(["sweep", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["a/b", "", ".."])
def test_sweep_name_must_be_a_plain_file_name(name, tmp_path, capsys):
    # a/b used to run every cell, then die writing <out>/a/b/a/b_merged.csv
    path = write_sweep(tmp_path, name=name)
    assert main(["sweep", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: sweep spec: name: expected a plain file name, got {name!r}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["x/y", ""])
def test_output_name_must_be_a_plain_file_name(name, tmp_path, capsys):
    # x/y used to train every round and then fail to write; an empty name
    # wrote the hidden files .csv and .json
    with pytest.raises(ValueError, match="^output.name: "):
        config_from_dict({"output": {"name": name}})
    path = write_config(tmp_path)
    assert main(["run", str(path), "--set", f"output.name={name!r}"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: output.name: expected a plain file name, got {name!r}"]
    assert not (tmp_path / "out").exists()


def test_sweep_axis_value_that_is_no_file_name_refused(tmp_path, capsys):
    # each cell's name is its output.name, so a value holding a path
    # separator cannot name the cell's files
    path = write_sweep(tmp_path, axes={
        "dataset.idx.train_images": ["data/train.idx"]})
    assert main(["sweep", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: sweep cell ")
    assert ": output.name: expected a plain file name, got " in lines[0]
    assert not (tmp_path / "out").exists()


def test_sweep_output_directory_blocked_is_one_error_line(tmp_path, capsys):
    # a file where the output directory goes used to raise a traceback
    path = write_sweep(tmp_path)
    (tmp_path / "out").write_text("in the way\n")
    assert main(["sweep", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(tmp_path / "out") in lines[0]


def test_sweep_merged_write_failure_is_one_error_line(tmp_path, capsys):
    # the cells run; a directory where the merged CSV goes stops its write
    path = write_sweep(tmp_path)
    merged = tmp_path / "out" / "sweep" / "sweep_merged.csv"
    merged.mkdir(parents=True)
    assert main(["sweep", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(merged) in lines[0] and captured.out == ""
    assert (tmp_path / "out" / "sweep" /
            "fedtruth_adv0_bias0.8_euclidean_seed0.csv").exists()
