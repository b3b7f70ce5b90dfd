"""Tests of the benchmark itself, in small configurations.

    python3 -m pytest -q bench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import worker as worker_module  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def bench(workload, trace, seconds=1, seed=3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]


def worker(workload, *extra, seed=3, cwd):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), *extra],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    layer = [(n, u, b) for n, u, b in tracer.layer_metric_specs()]
    layer.append(("trace.overhead_s", "s", "lower"))
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == layer


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, info = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: row["unit"] for name, row in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(row["value"] > 0 for row in result["metrics"].values())
    assert info["seed"] == 3 and info["trace"] is False


def test_traced_run_emits_every_per_layer_metric():
    result, info = bench("family-sweep", 1)
    assert result["correct"] and result["failed"] == 0
    assert {name: row["unit"] for name, row in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert info["trace"] is True
    metrics = {name: row["value"] for name, row in result["metrics"].items()}
    assert metrics["smoothing.smooth_in_t.calls"] > 0
    assert metrics["foliation.c0_distance.points"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tracing_leaves_outputs_unchanged(workload, tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = worker(workload, "--passes", "1", cwd=tmp_path / "plain")
    traced = worker(workload, "--passes", "1", "--trace",
                    cwd=tmp_path / "traced")
    assert plain["failed"] == traced["failed"] == 0
    assert plain["fingerprint"] == traced["fingerprint"]
    counts = {k: v for k, v in traced["layers"].items()
              if not k.endswith(("self_s", "c0_s"))}
    again = worker(workload, "--passes", "1", "--trace",
                   cwd=tmp_path / "plain")
    assert counts == {k: v for k, v in again["layers"].items()
                      if not k.endswith(("self_s", "c0_s"))}


def test_wrong_expected_value_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads.CliScenarios, "TISCHLER_EXPECTED",
                        (["1", "17/13"], 12, 8.2e-4, 5e-6))
    workload = workloads.CliScenarios(0)
    workload.setup()
    outcomes = [worker_module.run_item(item)
                for item in workload.pass_items(0)]
    failed = [misses for _w, _c, misses, _b in outcomes if misses]
    assert len(outcomes) == 5
    assert len(failed) == 1 and "rational" in failed[0][0]


def test_tracer_rebinds_and_restores_aliases():
    import flowbox
    from flowbox import (cli, decomposition, denjoy, foliation, measure,
                         smoothing)

    original = foliation.c0_distance
    t = tracer.Tracer()
    t.install()
    try:
        for module in (foliation, smoothing, denjoy, flowbox):
            assert module.c0_distance is not original
            assert module.c0_distance.__wrapped__ is original
        for module in (decomposition, smoothing, denjoy, measure, cli):
            assert module.validate.__wrapped__ is not None
    finally:
        t.uninstall()
    for module in (foliation, smoothing, denjoy, flowbox):
        assert module.c0_distance is original
    assert not hasattr(decomposition.validate, "__wrapped__")


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "tracer.py"):
        (tmp_path / "bench" / name).write_text((BENCH / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
