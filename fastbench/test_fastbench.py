"""FastBench self-tests: tiny-scale smoke runs of the benchmark itself.

    python3 -m pytest fastbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import ledger  # noqa: E402
from programs import WORKLOADS  # noqa: E402
from repro.timing.cache.hierarchy import CacheHierarchy  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.1


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_and_units():
    report = bench.measure("boot-idle", 1, 0, trace=False, scale=TINY)
    assert report.result()["correct"], report.failures
    assert {name: m["unit"] for name, m in report.metrics.items()} == \
        _units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in report.metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_is_checked_and_sums(workload):
    report = bench.measure(workload, 1, 0, trace=True, scale=TINY)
    # The tracer leaves every output check and counter repeat passing,
    # and every wrapped layer fires.
    assert report.result()["correct"], report.failures
    assert {name: m["unit"] for name, m in report.metrics.items()} == \
        _units(SPEC["per_layer"])
    traced = [s for s in report.samples if s.ledger is not None]
    assert len(traced) >= bench.MIN_TRACED
    for sample in traced:
        total = sample.setup_s + sample.run_s
        assert sample.ledger.total_self_s == pytest.approx(total, rel=0.02)


def test_other_seed_runs_clean():
    report = bench.measure("chase", 7, 0, trace=False, scale=TINY)
    assert report.result()["correct"], report.failures
    assert report.failed == 0 and report.attempted >= bench.MIN_SAMPLES
    assert report.metrics["peak_rss_mb"]["value"] > 0


def test_dead_wrapper_fails_the_traced_run(monkeypatch):
    # The memory hierarchy runs unwrapped: its time lands in its callers,
    # so the self times still sum, but the layer must not read as free.
    monkeypatch.setattr(ledger, "SPANS", tuple(
        span for span in ledger.SPANS if span[0] is not CacheHierarchy))
    workload = WORKLOADS["chase"]
    tracer = ledger.Ledger().install()
    try:
        sample = bench.simulate(workload, 1, TINY, ledger=tracer)
    finally:
        tracer.uninstall()
    assert tracer.total_self_s == pytest.approx(
        sample.setup_s + sample.run_s, rel=0.02)
    assert bench._problems(sample, workload, sample, None, None) == [
        "layer timing.memhier never fired"]


def test_output_check_reports_differing_fields():
    reference = {"timing": {"cycles": 10, "instructions": 5}, "console": "a"}
    actual = {"timing": {"cycles": 11, "instructions": 5}, "console": "b"}
    assert bench.differences(reference, actual) == [
        "console: 'a' != 'b'", "timing.cycles: 10 != 11"]


def test_fails_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "fastbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pulse-*"))
    proc = subprocess.run(
        [sys.executable, "fastbench/run.py", "--workload", "branchy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
