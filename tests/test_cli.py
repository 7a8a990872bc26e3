import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedtruth.cli import bench_aggregation, main
from fedtruth.config import config_from_dict
from fedtruth.simulator import AGGREGATORS

ROOT = Path(__file__).resolve().parent.parent

MINIMAL = {
    "dataset": {"samples_per_client": 30,
                "synth": {"n_train": 400, "n_test": 120, "n_features": 6,
                          "n_classes": 2, "spread": 0.2}},
    "fl": {"total_clients": 6, "clients_per_round": 4, "rounds": 3,
           "learning_rate": 0.3, "batch_size": 16},
    "aggregator": {"kind": "fedtruth"},
}


def write_config(tmp_path, name="exp", extra=None):
    data = dict(MINIMAL)
    if extra:
        data = {**data, **extra}
    data.setdefault("output", {})["directory"] = str(tmp_path / "out")
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def strip_timing(rows):
    header = rows[0]
    drop = header.index("agg_time_s")
    return [[cell for i, cell in enumerate(row) if i != drop]
            for row in rows]


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


def test_unknown_aggregator_kind_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="nope"):
        config_from_dict({"aggregator": {"kind": "nope"}})
    path = write_config(tmp_path)
    assert main(["run", str(path), "--set", "aggregator.kind=nope"]) == 1
    assert "nope" in capsys.readouterr().err
    spec = tmp_path / "sweep.yaml"
    spec.write_text(yaml.safe_dump({
        "base": str(path), "aggregators": ["fedtruth", "nope"],
        "adversary_counts": [0], "biases": [0.8],
        "distances": ["euclidean"], "seeds": [0]}))
    assert main(["sweep", str(spec)]) == 1
    assert "nope" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep").exists()


def test_misspelt_sweep_distance_refused_before_execution(tmp_path, capsys):
    path = write_config(tmp_path)
    spec = tmp_path / "sweep.yaml"
    spec.write_text(yaml.safe_dump({
        "base": str(path), "aggregators": ["fedtruth"],
        "adversary_counts": [0], "biases": [0.8],
        "distances": ["euclidean", "cosin"], "seeds": [0]}))
    assert main(["sweep", str(spec)]) == 1
    assert "cosin" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep").exists()


def test_runs_byte_identical_modulo_timing(tmp_path):
    path_a = write_config(tmp_path, "a")
    path_b = write_config(tmp_path, "b")
    main(["run", str(path_a)])
    main(["run", str(path_b)])
    rows_a = strip_timing(read_csv(tmp_path / "out" / "a.csv"))
    rows_b = strip_timing(read_csv(tmp_path / "out" / "b.csv"))
    assert rows_a == rows_b


def test_sweep_produces_cells_and_merged(tmp_path):
    base = write_config(tmp_path)
    spec = tmp_path / "sweep.yaml"
    spec.write_text(yaml.safe_dump({
        "base": str(base),
        "aggregators": ["fedtruth", "fedavg"],
        "adversary_counts": [0],
        "biases": [0.8],
        "distances": ["euclidean"],
        "seeds": [0],
    }))
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
    base = write_config(tmp_path)
    spec = tmp_path / "sweep.yaml"
    spec.write_text(yaml.safe_dump({
        "base": str(base),
        "aggregators": ["fedtruth", "fedavg"],
        "adversary_counts": [0, 1],
        "biases": [0.5, 0.8],
        "distances": ["euclidean"],
        "seeds": [0, 1],
        "cap": 3,
    }))
    assert main(["sweep", str(spec)]) == 1
    assert not (tmp_path / "out" / "sweep").exists()


def test_sweep_rejects_empty_lists(tmp_path):
    base = write_config(tmp_path)
    spec = tmp_path / "sweep.yaml"
    spec.write_text(yaml.safe_dump({
        "base": str(base), "aggregators": [], "adversary_counts": [0],
        "biases": [0.8], "distances": ["euclidean"], "seeds": [0]}))
    assert main(["sweep", str(spec)]) == 1


@pytest.mark.parametrize("field", ["seeds", "aggregators", "biases"])
def test_sweep_refuses_non_list_field(field, tmp_path, capsys):
    base = write_config(tmp_path)
    spec = {"base": str(base), "aggregators": ["fedtruth"],
            "adversary_counts": [0], "biases": [0.8],
            "distances": ["euclidean"], "seeds": [0]}
    spec[field] = 3
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(spec))
    assert main(["sweep", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"sweep spec: {field}: expected a list" in err
    assert not (tmp_path / "out" / "sweep").exists()


DROP = object()  # the spec leaves the key out


@pytest.mark.parametrize("key, value", [
    ("seeds", DROP), ("base", DROP), ("cap", None), ("cap", 1.5),
    ("name", 5), ("biases", ["high"]),
], ids=["no-seeds", "no-base", "cap-null", "cap-fraction", "name-number",
        "bias-word"])
def test_bad_sweep_spec_names_its_key(key, value, tmp_path, capsys):
    # no-seeds, cap-null and name-number used to die with a TypeError
    # traceback, and a cap of 1.5 was taken
    spec = {"base": str(write_config(tmp_path)), "aggregators": ["fedtruth"],
            "adversary_counts": [0], "biases": [0.8],
            "distances": ["euclidean"], "seeds": [0]}
    if value is DROP:
        del spec[key]
    else:
        spec[key] = value
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(spec))
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
    spec = {"base": str(write_config(tmp_path)), "aggregators": ["fedtruth"],
            "adversary_counts": [0], "biases": [0.8],
            "distances": ["euclidean"], "seeds": [0], key: values}
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(spec))
    assert main(["sweep", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: sweep spec: {key}: repeats {shown}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cap", [0, -2])
def test_sweep_refuses_cap_below_one(cap, tmp_path, capsys):
    spec = {"base": str(write_config(tmp_path)), "aggregators": ["fedtruth"],
            "adversary_counts": [0], "biases": [0.8],
            "distances": ["euclidean"], "seeds": [0], "cap": cap}
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(spec))
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
    spec = tmp_path / "sweep.yaml"
    spec.write_text(yaml.safe_dump({
        "base": str(base),
        "aggregators": ["fedtruth"],
        "adversary_counts": [0, 1],
        "biases": [0.8],
        "distances": ["euclidean"],
        "seeds": [0],
    }))
    rc = main(["sweep", str(spec)])
    assert rc == 1
    statuses = read_csv(tmp_path / "out" / "sweep" / "sweep_cells.csv")
    by_status = {row[0]: row[1] for row in statuses[1:]}
    assert sorted(by_status.values()) == ["failed", "ok"]


def test_sweep_refused_when_a_cell_breaks_validation(tmp_path, capsys):
    # 2 of 4 roster clients breaks the threat model; the sweep used to run
    # the first cell and record the second as failed
    base = write_config(tmp_path, extra={
        "attack": {"kind": "model_boost", "strategy": "with_boosting"}})
    spec = tmp_path / "sweep.yaml"
    spec.write_text(yaml.safe_dump({
        "base": str(base), "aggregators": ["fedtruth"],
        "adversary_counts": [1, 2], "biases": [0.8],
        "distances": ["euclidean"], "seeds": [0]}))
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


def without_timing_bytes(path):
    lines = path.read_bytes().splitlines(keepends=True)
    drop = lines[0].split(b",").index(b"agg_time_s")
    return [b",".join(f for i, f in enumerate(line.split(b",")) if i != drop)
            for line in lines]


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
