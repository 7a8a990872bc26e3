"""Checks of the benchmark harness itself.

    python3 -m pytest perfbench/selftest.py -q

Not named test_*.py, so the package's own test run does not collect it.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibration  # noqa: E402
import checks  # noqa: E402
import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = ROOT / "runs" / "sweep_example" / \
    "fedtruth_adv3_bias0.8_euclidean_seed2.csv"


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == harness.END_TO_END


def test_smoke_run_prints_every_end_to_end_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "boost",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in [*_units("end_to_end").items(),
                       (harness.FAILED_FRAC, "ratio")]:
        assert any(line.split()[1:2] == [name] and line.endswith(unit)
                   for line in lines), name
    env = json.loads(lines[-2])["env"]
    assert env["blas_threads"] == 1 and env["nproc"] >= 1


def test_corrupted_reference_fails_every_cell(tmp_path):
    reference = json.loads(harness.REFERENCE.read_text())
    digests = reference["boost"]["boost"]
    digests["csv"] = hashlib.sha256(digests["csv"].encode()).hexdigest()
    result = harness.measure(WORKLOADS["boost"], 5, 0, False, reference,
                             tmp_path)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] == 1


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    reference = json.loads(harness.REFERENCE.read_text())
    result = harness.measure(WORKLOADS["boost"], 5, 0, True, reference,
                             tmp_path)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == _units("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # boost: 100 rounds of 10 clients, 30 epochs of one 60-row batch
    assert metrics["training.local_train_calls"] == 1000
    assert metrics["training.sgd_steps"] == 30000
    assert metrics["truth.estimate_calls"] == 100
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    rounds = [s for s in map(json.loads, spans)
              if s["name"] == "simulator.round"]
    assert len(rounds) == 100 and all(s["end"] > s["start"] for s in rounds)


def test_rounds_scale_by_the_kernel_times_at_their_ends():
    ref = calibration.REFERENCE_S
    run = harness.CellRun("c", setup_s=2.0, round_s=[1.0, 1.0], write_s=3.0,
                          bursts=[ref, 3 * ref, ref])
    scaled = run.on_reference_core()
    # round 0 sat between kernels twice as slow as the reference on average
    assert scaled.round_s == pytest.approx([0.5, 0.5])
    # setup and write use the median kernel time, here the reference
    assert (scaled.setup_s, scaled.write_s) == pytest.approx((2.0, 3.0))


@pytest.mark.skipif(not GOLDEN.exists(), reason="golden CSV not present")
def test_boost_reference_is_the_committed_golden_csv():
    reference = json.loads(harness.REFERENCE.read_text())
    masked = checks.masked_csv(GOLDEN.read_bytes())
    assert reference["boost"]["boost"]["csv"] \
        == hashlib.sha256(masked).hexdigest()


@pytest.mark.skipif(not GOLDEN.exists(), reason="golden CSV not present")
def test_invariants_catch_bad_rows(tmp_path):
    csv_path, summary_path = tmp_path / "c.csv", tmp_path / "c.json"
    summary_path.write_bytes(GOLDEN.with_suffix(".json").read_bytes())
    assert checks.check_invariants(GOLDEN, summary_path, 100, 100) == []
    lines = GOLDEN.read_text().splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[6] = "1.5"           # main_acc
    fields[9] = "101"           # iters over the cap
    fields[10] = repr(float(fields[10]) + 1e-6)  # weights off by 1e-6
    csv_path.write_text("".join(lines[:5] + [",".join(fields)] + lines[6:]))
    problems = checks.check_invariants(csv_path, summary_path, 100, 100)
    assert [p.split(":")[1].split()[0] for p in problems] \
        == ["main_acc", "iters", "weights"]
