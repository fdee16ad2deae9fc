"""Kernel-throughput benchmark: simulated monotasks/sec, observed.

The ROADMAP's "simulator-kernel raw speed" item (and the Dask-overheads
paper in PAPERS.md) says per-task *runtime* overhead, not scheduling
policy, is what caps task throughput.  This module pins that number: a
seeded serving run on the MonoSpark engine with the **full always-on
observability pipeline attached** -- clarity aggregation folding every
completed job's critical path, plus a telemetry sampler snapshotting
every gauge each simulated second -- measured in wall-clock time.  The
paper's clarity story (PAPER.md §4) only holds if observing the system
stays cheap, so the benchmark deliberately charges the kernel for its
observability, not just for its event loop.

Two kinds of numbers come out:

* **Deterministic workload invariants** -- jobs completed, monotask
  count, events scheduled, final simulated time, telemetry points
  retained.  Same seed => identical values, on any machine; CI diffs
  them exactly.
* **Wall-clock throughput** -- simulated monotasks (and kernel events)
  processed per real second.  Machine-dependent; the committed
  ``BENCH_kernel.json`` keeps the pre-optimization baseline frozen next
  to the current measurement so the speedup trajectory is visible, and
  CI only enforces a conservative floor.

:data:`SCENARIO` is this benchmark for :mod:`repro.bench`;
``scripts/bench_trajectory.py --bench kernel`` and
``benchmarks/test_kernel_throughput.py`` both run it.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from repro.api.context import AnalyticsContext
from repro.bench import Scenario
from repro.clarity.aggregator import ClarityAggregator
from repro.clarity.validate import ClarityWorkload
from repro.serve.server import JobServer
from repro.serve.workload import PoissonArrivals, sort_template
from repro.trace.telemetry import TelemetryRegistry, TelemetrySampler

__all__ = ["KernelWorkload", "SCENARIO"]


@dataclass(frozen=True)
class KernelWorkload:
    """The seeded serving stream the kernel benchmark drives.

    Shape mirrors :class:`repro.clarity.validate.ClarityWorkload` (a
    fine-grained shuffle-heavy sort stream on a small HDD cluster) but
    tuned to the always-on serving regime the clarity story depends on:
    a *long* stream of *small interactive* jobs arriving fast, with
    telemetry sampling on and bounded by ``telemetry_retention_s`` the
    way a forever-run must be.  Thousands of completed jobs is the
    point -- per-job observability work (span collection, critical-path
    folding) that scales with *accumulated history* rather than with
    the job itself shows up here as a superlinear wall-clock blowup,
    which is exactly what the committed trajectory guards against.
    """

    machines: int = 4
    disks: int = 2
    cores: int = 8
    network_mb_s: float = 125.0
    seed: int = 0
    fraction: float = 0.01
    duration_s: float = 7200.0
    rate_per_s: float = 0.4
    sort_gb: float = 0.1875
    sort_tasks: int = 8
    telemetry_interval_s: float = 1.0
    telemetry_retention_s: float = 120.0


def _run_once(workload: KernelWorkload) -> Tuple[Dict, Dict]:
    """Run the seeded observed serving stream once; time it."""
    shape = ClarityWorkload(
        machines=workload.machines, disks=workload.disks,
        cores=workload.cores, network_mb_s=workload.network_mb_s,
        seed=workload.seed, fraction=workload.fraction)
    cluster = shape.build_cluster()
    ctx = AnalyticsContext(cluster, engine="monospark",
                           scheduling_policy="fair")
    env = ctx.engine.env
    aggregator = ClarityAggregator(window_s=workload.duration_s * 10,
                                   engine=ctx.engine.name)
    registry = TelemetryRegistry(
        retention_s=workload.telemetry_retention_s)
    sampler = TelemetrySampler(env, registry,
                               interval_s=workload.telemetry_interval_s)
    server = JobServer(ctx, policy="fifo", max_concurrent_jobs=1,
                       seed=workload.seed, clarity=aggregator,
                       telemetry=sampler)
    server.add_tenant("analytics")
    template = sort_template(ctx, total_gb=workload.sort_gb,
                             num_tasks=workload.sort_tasks,
                             seed=workload.seed)
    server.add_workload(
        "analytics", template,
        PoissonArrivals(workload.rate_per_s,
                        horizon_s=workload.duration_s))

    start = time.perf_counter()
    report = server.run()
    wall_s = time.perf_counter() - start

    completed = sum(1 for r in report.records if r.outcome == "completed")
    monotasks = len(ctx.metrics.monotasks)
    invariants = {
        "jobs": completed,
        "monotasks": monotasks,
        "events_scheduled": env.events_scheduled,
        "sim_time_s": round(env.now, 4),
        "telemetry_points": len(registry.store),
    }
    current = {
        "wall_s": round(wall_s, 3),
        "monotasks_per_s": round(monotasks / wall_s, 1),
        "events_per_s": round(env.events_scheduled / wall_s, 1),
    }
    return invariants, {"current": current}


def _carry(fresh: Dict, committed: Dict) -> Dict:
    """The frozen pre-optimization baseline and the CI floor.

    Both come forward from the committed file: the slow code the
    baseline was measured against is gone, so it cannot be
    regenerated.  With no committed floor, the floor is a quarter of
    the current measurement -- low enough to absorb runner-speed
    variance while still catching an order-of-magnitude regression.
    """
    rate = fresh["current"]["monotasks_per_s"]
    fields: Dict = {"min_monotasks_per_s": committed.get(
        "min_monotasks_per_s", round(rate * 0.25, 1))}
    frozen = committed.get("baseline")
    if frozen:
        fields["baseline"] = frozen
        if frozen.get("monotasks_per_s"):
            fields["speedup_monotasks"] = round(
                rate / frozen["monotasks_per_s"], 2)
    return fields


def _floor(fresh: Dict) -> Optional[str]:
    rate = fresh["current"]["monotasks_per_s"]
    floor = fresh["min_monotasks_per_s"]
    if rate < floor:
        return (f"monotasks_per_s {rate} fell below the committed floor "
                f"{floor}")
    return None


_WORKLOAD = KernelWorkload()
#: ``network_mb_s`` and ``fraction`` shape the cluster but are not in
#: the committed ``workload`` section; leaving them out keeps
#: ``BENCH_kernel.json`` byte-identical.
_PARAMS = {key: value for key, value in asdict(_WORKLOAD).items()
           if key not in ("network_mb_s", "fraction")}

SCENARIO = Scenario(
    name="kernel", benchmark="kernel_throughput", workload=_PARAMS,
    run=lambda: _run_once(_WORKLOAD), best="current.wall_s",
    gates=(_floor,), carry=_carry)
