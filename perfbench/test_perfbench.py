"""Checks of the benchmark itself: its gates, its negative control and its
output format.

    python3 -m pytest perfbench -q

Every run here is a short one (``--seconds`` of 1 or less), so the numbers
are meaningless; only gates, metric names and units are checked.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from shiftbnn import grng, nn, train  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_declared_metrics_match_the_code():
    assert WORKLOADS == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


def test_gates_pass(tmp_path):
    result, gates = bench.run("blenet-s8", 3, 0.5, False, str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    assert set(gates.attempted) == {"finite_loss", "checkpoint_equal",
                                    "round_trip_block", "round_trip_start"}
    assert list(tmp_path.iterdir()) == []  # checkpoints are cleaned up


def test_negative_control_fails_every_gate_it_should(tmp_path):
    """A wrong SHIFT tap set, as ``verify-equivalence --corrupt-second-pass``
    uses, must break store==shift; reversing with it must break the
    round trip."""
    result, gates = bench.run("blenet-s8", 3, 0.5, False, str(tmp_path), corrupt=True)
    assert not result["correct"]
    assert result["failed"] == sum(gates.failed.values()) > 0
    assert gates.failed["checkpoint_equal"] == 1
    assert gates.failed["round_trip_block"] > 0
    assert gates.failed["round_trip_start"] == gates.attempted["round_trip_start"]
    assert gates.failed["finite_loss"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_noise_bytes_equal_the_cost_model(workload, tmp_path):
    originals = (nn.conv_forward, grng.extend_backward, train.counts_to_eps,
                 train.Trainer.train_step, grng.GrngStream.retrieve_block)
    result, gates = bench.run(workload, 5, 0.1, True, str(tmp_path))
    assert result["correct"], dict(gates.failed)
    spec = bench.costmodel.MODEL_PRESETS[bench.WORKLOADS[workload][0]]
    assert gates.attempted["noise_bytes"] == len(spec.layers)
    metrics = result["metrics"]
    for layer in spec.layers:
        measured = metrics[f"noise_bytes.{layer.name}.measured"]["value"]
        assert measured == metrics[f"noise_bytes.{layer.name}.modelled"]["value"] > 0
    assert metrics["lfsr.extend_backward.bits"]["value"] > 0
    assert metrics["cell.fc1.update.s"]["value"] > 0
    # the tracer put every function back
    assert originals == (nn.conv_forward, grng.extend_backward, train.counts_to_eps,
                         train.Trainer.train_step, grng.GrngStream.retrieve_block)


def _command(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    run = _command(ROOT, workload, trace)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = _command(tmp_path, WORKLOADS[0], 0)
    assert run.returncode != 0
    assert run.stdout == ""
