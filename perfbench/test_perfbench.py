"""Tests of the benchmark itself: every metric is printed with its unit,
wrong output fails the run, and a missing program is refused.

    python3 -m pytest -q perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)), m["name"]
        if not trace:
            assert entry["value"] > 0, m["name"]


def test_per_layer_names_match_the_spec():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == tracing.PER_LAYER


def _one_request(tmp_path, reference=None, tracer=None):
    """Run and check the first deep_sin request of seed 5."""
    workload = wl.DeepSin(seed=5, scratch=tmp_path, reference=reference)
    m = wl.Measurement()
    wl.run_request(next(workload.cycles())[0], m, tracer)
    m.adjust_last(1.0)      # no host-speed probes around a single request
    return workload, m


def test_seed_output_passes_its_reference(tmp_path):
    workload, m = _one_request(tmp_path)
    assert m.attempted == wl.DeepSin.BLOCK and m.failed == 0
    assert workload.checker.spot_check() == (wl.SPOT_ROWS, 0)


def test_every_timed_request_gets_an_adjusted_time(tmp_path):
    workload = wl.DeepSin(seed=5, scratch=tmp_path)
    m = wl.measure(workload.cycles(), 0.1)
    assert len(m.adjusted) == len(m.latencies) == wl.DeepSin.STRATA
    assert all(a > 0 for a in m.adjusted)
    assert m.rows_per_s == m.rows / sum(m.adjusted)


def test_perturbed_reference_row_fails_the_run(tmp_path):
    workload, _ = _one_request(tmp_path)
    first = workload.checker.spot["deep_sin"][0]
    reference = copy.deepcopy(workload.checker.reference)
    reference["deep_sin"]["rows"][first][0] += 1e-6
    _, m = _one_request(tmp_path, reference)
    assert m.failed == 1


def test_perturbed_log10_t_fails_the_spot_check(tmp_path):
    reference = copy.deepcopy(wl.load_reference("deep_sin"))
    workload, _ = _one_request(tmp_path, reference)
    first = workload.checker.spot["deep_sin"][0]
    reference["deep_sin"]["rows"][first][5] += 1e-6
    assert workload.checker.spot_check() == (wl.SPOT_ROWS, 1)


def test_missing_wrapped_name_reads_null(tmp_path, monkeypatch):
    from mazersim import cli

    monkeypatch.delattr(cli, "wavefunction")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced = _one_request(tmp_path, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced, traced)
    assert metrics["transfer.us_per_sample"] is None
    assert metrics["transfer.solves"] == 2 * wl.DeepSin.BLOCK
    assert metrics["segment_basis.evals.slope_forbidden"] > 0
    assert abs(metrics["trace.residual_s"]) < 0.01 * traced.busy_s


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "deep_sin", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
