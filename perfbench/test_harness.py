"""Smoke tests of the benchmark harness at a tiny train length."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from anglereloc import regressor
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TINY = dict(seed=3, seconds=0, iterations=4)


def test_untraced_run_repeats_and_reports_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs, metrics, attempted, failed = harness.run(
        WORKLOADS["sparse-multiview"], trace=False, out_dir=tmp_path, **TINY
    )
    assert {m["name"] for m in spec["end_to_end"]} <= set(metrics)
    assert inputs["rounds"] >= 3
    assert attempted == 4 * inputs["rounds"] * inputs["rooms"]
    assert failed == 0 and inputs["free_table_rows"] > 0
    again = harness.run(WORKLOADS["sparse-multiview"], trace=False, out_dir=tmp_path, **TINY)
    assert again[1]["median_err"] == metrics["median_err"]


def test_traced_run_reports_every_layer_and_writes_spans(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, metrics, _, _ = harness.run(
        WORKLOADS["sparse-multiview"], trace=True, out_dir=tmp_path, **TINY
    )
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)
    assert metrics["losses.angle_terms.calls_per_iter"] > 1
    assert metrics["scenegen.points_per_image"] > 0
    lines = (tmp_path / "spans-sparse-multiview.jsonl").read_text().splitlines()
    assert {json.loads(line)["name"] for line in lines} >= {
        "regressor.train",
        "losses.multiview_image_loss",
        "scenegen.build_dataset",
    }
    # the wrappers are gone once the run is over
    assert regressor.train.__name__ == "train"


def test_traced_mlp_run_times_the_network(tmp_path):
    _, metrics, _, _ = harness.run(WORKLOADS["mlp"], trace=True, out_dir=tmp_path, **TINY)
    assert metrics["regressor.PatchMLP.forward_cached.self_ms_per_iter"] > 0
    assert metrics["regressor.PatchMLP.backward.self_ms_per_iter"] > 0
    # weights and biases of the 16-64-64-3 network
    assert metrics["regressor.adam_step.elements_per_iter"] == 17 * 64 + 65 * 64 + 65 * 3
    assert metrics["regressor.FreeTable.predict_image.self_ms_per_iter"] == 0


def test_wrong_output_fails_the_run(tmp_path, monkeypatch):
    def off_by_one(self, dataset, image_id):
        return dataset.observations[image_id].gt_coords + 1.0, None

    monkeypatch.setattr(regressor.GtLookup, "predict_image", off_by_one)
    with pytest.raises(harness.CheckFailed, match="GtLookup"):
        harness.run(WORKLOADS["sparse-multiview"], trace=False, out_dir=tmp_path, **TINY)


def _command(cwd):
    args = ["--workload", "sparse-multiview", "--seed", "3", "--seconds", "0"]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--iterations", "4"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_command_prints_result_as_last_line():
    proc = _command(ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 12
    assert "nonfinite_frac" in proc.stdout and "behind_frac" in proc.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
