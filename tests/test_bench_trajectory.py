"""The bench gate fails on drift and never touches the baseline."""

import copy
import dataclasses
import importlib.util
import json
import os

import pytest

from repro import kernelbench

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "bench_trajectory.py")


def _bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """The script as a module, the kernel scenario's run stubbed.

    Each stubbed run returns ``bench.fresh`` invariants; the committed
    baseline at ``bench.baseline_path`` is what a match writes.
    """
    spec = importlib.util.spec_from_file_location("bench_trajectory", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    current = {"monotasks_per_s": 50.0, "wall_s": 0.48}
    module.fresh = {"jobs": 3, "monotasks": 24, "telemetry_points": 10}
    monkeypatch.setattr(kernelbench, "SCENARIO", dataclasses.replace(
        kernelbench.SCENARIO,
        run=lambda: (copy.deepcopy(module.fresh), {"current": current})))
    module.baseline = {
        "benchmark": "kernel_throughput",
        "workload": kernelbench.SCENARIO.workload,
        "repeats": 2,
        "invariants": dict(module.fresh),
        "current": current,
        "min_monotasks_per_s": 10.0,
    }
    monkeypatch.setattr(module, "ROOT", str(tmp_path))
    module.baseline_path = str(tmp_path / "BENCH_kernel.json")
    module.write(module.baseline, module.baseline_path)
    return module


def test_match_passes_and_writes_output(bench, tmp_path):
    out = tmp_path / "out.json"
    assert bench.main(["--bench", "kernel", "--output", str(out),
                       "--check", bench.baseline_path]) == 0
    assert json.loads(out.read_text()) == bench.baseline


def test_drift_fails_and_leaves_baseline_unchanged(bench, tmp_path):
    before = _bytes(bench.baseline_path)
    bench.fresh["telemetry_points"] = 11
    out = tmp_path / "out.json"
    assert bench.main(["--bench", "kernel", "--output", str(out),
                       "--check", bench.baseline_path]) == 1
    assert _bytes(bench.baseline_path) == before
    # The drifted result is still written where it was asked for.
    assert json.loads(out.read_text())["invariants"]["telemetry_points"] == 11


def test_repeats_that_disagree_exit_1_and_write_nothing(
        bench, tmp_path, monkeypatch, capsys):
    points = iter([10, 11])
    monkeypatch.setattr(kernelbench, "SCENARIO", dataclasses.replace(
        kernelbench.SCENARIO,
        run=lambda: ({"telemetry_points": next(points)},
                     {"current": {"wall_s": 1.0}})))
    out = tmp_path / "out.json"
    assert bench.main(["--bench", "kernel", "--output", str(out)]) == 1
    assert "invariants.telemetry_points: 10 != 11" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("output", [None, "same", "link"])
def test_output_onto_the_baseline_is_refused(bench, tmp_path, output):
    """With ``--output`` omitted the default output is the baseline."""
    before = _bytes(bench.baseline_path)
    bench.fresh["telemetry_points"] = 11
    argv = ["--bench", "kernel", "--check", bench.baseline_path]
    if output == "same":
        argv += ["--output", bench.baseline_path]
    elif output == "link":
        link = tmp_path / "link.json"
        os.symlink(bench.baseline_path, link)
        argv += ["--output", str(link)]
    assert bench.main(argv) == 2
    assert _bytes(bench.baseline_path) == before
