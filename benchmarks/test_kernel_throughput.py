"""Kernel-throughput benchmark: simulated monotasks/sec, observed.

Runs the seeded serving stream from ``repro.kernelbench`` -- the
MonoSpark engine with the full always-on clarity/telemetry pipeline
attached -- through the shared ``repro.bench`` runner and checker
against the committed ``BENCH_kernel.json``: the deterministic workload
invariants must match exactly (same seed => identical counts on any
machine), and the measured throughput must clear the committed
conservative floor.  The committed file also keeps the frozen
pre-optimization baseline, so the emitted table shows the speedup
trajectory.
"""

import json
import os

from helpers import emit, once

from repro.bench import check, run
from repro.kernelbench import SCENARIO

BASELINE_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_kernel.json")


def test_kernel_throughput(benchmark):
    with open(BASELINE_PATH) as handle:
        committed = json.load(handle)

    result = once(benchmark,
                  lambda: run(SCENARIO, repeats=2, committed=committed))
    frozen = committed.get("baseline", {})
    current = result["current"]
    invariants = result["invariants"]
    workload = result["workload"]

    rows = [
        ["pre-optimization (frozen)", frozen.get("wall_s", "-"),
         frozen.get("monotasks_per_s", "-"),
         frozen.get("events_per_s", "-"), "1.0x"],
        ["this run", f"{current['wall_s']:.3f}",
         f"{current['monotasks_per_s']:.1f}",
         f"{current['events_per_s']:.1f}",
         f"{result.get('speedup_monotasks', float('nan')):.2f}x"],
    ]
    notes = [
        f"{invariants['jobs']} jobs / {invariants['monotasks']} monotasks "
        f"/ {invariants['events_scheduled']} kernel events in "
        f"{invariants['sim_time_s']:.0f} simulated seconds (seed "
        f"{workload['seed']}), telemetry sampled every "
        f"{workload['telemetry_interval_s']:.0f}s",
        f"committed CI floor: {committed['min_monotasks_per_s']} "
        f"monotasks/s",
    ]
    emit("kernel_throughput",
         f"kernel throughput, {workload['machines']} workers x "
         f"{workload['disks']} HDD, observed serving stream",
         ["kernel", "wall s", "monotasks/s", "events/s", "speedup"],
         rows, notes=notes)

    # Exact invariants and workload; throughput only against the floor.
    assert check(SCENARIO, result, committed) == []
