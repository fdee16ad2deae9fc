"""The benchmark's three seeded workloads, driven through the public API.

Each workload is a ``build(seed, workdir)`` function.  Everything it
does before returning is set-up (cluster build, DFS and BDB input
generation, template compilation, observer attachment); the zero-argument
``run`` callable it returns drives the simulation and summarises it as
an :class:`Outcome`.  ``run_episode`` times the two halves separately.

The seed feeds the cluster, the generated inputs and the job arrival
times; the simulator itself only ever sees the generated inputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Tuple

from repro.api.context import AnalyticsContext
from repro.api.ops import OpCost
from repro.api.plan import DfsOutput
from repro.clarity import ClarityAggregator
from repro.cluster import Cluster, hdd_cluster
from repro.config import GB, HDD, MB, MachineSpec
from repro.controlplane import ControlPlane, ControlPlanePolicy
from repro.datasvc.service import DataService
from repro.errors import ReproError
from repro.obs import ObservabilityPlane
from repro.serve import JobServer
from repro.serve.workload import (TraceArrivals, bdb_template, ml_template,
                                  sort_template, wordcount_template)
from repro.trace.telemetry import TelemetryRegistry, TelemetrySampler
from repro.workloads.scaling import scaled_memory_overrides
from repro.workloads.sortgen import (PARTITION_S_PER_RECORD,
                                     SORT_S_PER_RECORD, SortWorkload,
                                     generate_sort_input, sort_boundaries)
from repro.xray.capsule import RunRecorder

__all__ = ["WORKLOADS", "Outcome", "Episode", "run_episode",
           "compare_fields"]


@dataclass
class Outcome:
    """What one simulated run produced, as the benchmark sees it."""

    #: (job id, outcome, simulated finish time) per submitted job.
    jobs: List[Tuple[int, str, float]]
    #: Task-attempt outcome -> count, over every job of the run.
    attempts: Dict[str, int]
    events_scheduled: int
    #: Data-service counters per service ("data", "checkpoint").
    datasvc: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Records the metrics collector still holds at the end.
    records: int = 0
    capsule_bytes: int = 0

    @property
    def submitted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return sum(1 for _, outcome, _ in self.jobs if outcome != "completed")

    @property
    def task_attempts(self) -> int:
        return sum(self.attempts.values())

    def fields(self) -> Dict[str, object]:
        """The digest's fields, in comparison order."""
        return {
            "jobs": [[job_id, outcome, repr(end)]
                     for job_id, outcome, end in self.jobs],
            "attempts": dict(sorted(self.attempts.items())),
            "events_scheduled": self.events_scheduled,
            "datasvc": {name: {key: repr(value) for key, value
                               in sorted(stats.items())}
                        for name, stats in sorted(self.datasvc.items())},
        }

    def digest(self) -> str:
        text = json.dumps(self.fields(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def compare_fields(expected: Dict[str, object],
                   got: Dict[str, object]) -> str:
    """The first differing field (or job) as ``name: expected != got``,
    or '' when the two agree."""
    for name in list(got) + [k for k in expected if k not in got]:
        want, have = expected.get(name), got.get(name)
        if want == have:
            continue
        if isinstance(want, list) and isinstance(have, list):
            for index, (a, b) in enumerate(zip(want, have)):
                if a != b:
                    return f"{name}[{index}]: {a!r} != {b!r}"
            return f"{name}: {len(want)} entries != {len(have)}"
        return f"{name}: {want!r} != {have!r}"
    return ""


def _attempt_counts(metrics) -> Dict[str, int]:
    return dict(Counter(record.outcome for record in metrics.attempts))


def _records(metrics) -> int:
    return (len(metrics.monotasks) + len(metrics.attempts)
            + len(metrics.tasks) + len(metrics.spans) + len(metrics.links)
            + len(metrics.transfers) + len(metrics.resource_usage)
            + len(metrics.serves))


def _serve_jobs(records) -> List[Tuple[int, str, float]]:
    return [(r.job_id, r.outcome, r.completed) for r in records]


def _poisson_times(rng: Random, rate_per_s: float, count: int,
                   start_s: float = 1.0) -> List[float]:
    """``count`` Poisson arrival times at ``rate_per_s``.

    A fixed count (rather than a fixed horizon) keeps the amount of work
    the same for every seed; the seed moves only when the jobs arrive.
    """
    times, now = [], start_s
    for _ in range(count):
        times.append(now)
        now += rng.expovariate(rate_per_s)
    return times


# ---------------------------------------------------------------------------
# serve_observed: the always-on clarity regime
# ---------------------------------------------------------------------------

def serve_observed(seed: int, workdir: str,
                   jobs: int = 120) -> Callable[[], Outcome]:
    """Small Poisson sorts, one at a time, with every observer attached."""
    rng = Random(seed)
    spec = MachineSpec(cores=8, disks=(HDD, HDD), network_bps=125 * MB,
                       **scaled_memory_overrides(0.01))
    ctx = AnalyticsContext(Cluster(4, spec, seed=seed), engine="monospark",
                           scheduling_policy="fair")
    sampler = TelemetrySampler(ctx.engine.env,
                               TelemetryRegistry(retention_s=120.0),
                               interval_s=1.0)
    aggregator = ClarityAggregator(window_s=1e9, engine=ctx.engine.name)
    obs = ObservabilityPlane()
    path = os.path.join(workdir, f"serve_observed-{seed}.capsule")
    recorder = RunRecorder(path, engine=ctx.engine.name, seed=seed,
                           config={"workload": "serve_observed"})
    recorder.attach(ctx.metrics)
    server = JobServer(ctx, policy="fifo", max_concurrent_jobs=1,
                       seed=seed, telemetry=sampler, clarity=aggregator,
                       obs=obs)
    server.add_tenant("analytics", slo_s=30.0)
    template = sort_template(ctx, total_gb=0.1875, num_tasks=8,
                             seed=rng.randrange(1 << 30))
    template.base_plan(ctx)
    server.add_workload("analytics", template, TraceArrivals(
        _poisson_times(rng, 0.4, jobs)))

    def run() -> Outcome:
        try:
            report = server.run()
            recorder.finalize(report=report, clarity=aggregator,
                              telemetry=obs.registry)
        finally:
            recorder.close()
        size = os.path.getsize(path)
        os.remove(path)
        return Outcome(jobs=_serve_jobs(report.records),
                       attempts=_attempt_counts(ctx.metrics),
                       events_scheduled=ctx.engine.env.events_scheduled,
                       records=_records(ctx.metrics), capsule_bytes=size)

    return run


# ---------------------------------------------------------------------------
# batch_spark: the kernel and resource models, nothing on top
# ---------------------------------------------------------------------------

def batch_spark(seed: int, workdir: str, sort_gb: float = 16.0,
                map_tasks: int = 256) -> Callable[[], Outcome]:
    """One large shuffle-heavy HDD sort on Spark, no observers."""
    rng = Random(seed)
    ctx = AnalyticsContext(hdd_cluster(num_machines=8, seed=seed),
                           engine="spark")
    workload = SortWorkload(total_bytes=sort_gb * GB, values_per_key=25,
                            num_map_tasks=map_tasks)
    generate_sort_input(ctx.cluster, workload, name="batch-in",
                        seed=rng.randrange(1 << 30))
    rdd = (ctx.text_file("batch-in")
           .map(lambda record: record,
                cost=OpCost(per_record_s=PARTITION_S_PER_RECORD),
                size_ratio=1.0, name="partition")
           .sort_by_key(num_partitions=workload.reduce_tasks,
                        boundaries=sort_boundaries(workload),
                        cost=OpCost(per_record_s=SORT_S_PER_RECORD)))
    plan = ctx.compile(rdd, DfsOutput(file_name="batch-out"), name="sort")

    def run() -> Outcome:
        try:
            ctx.run_jobs([plan])
            outcome = "completed"
        except ReproError as error:
            outcome = f"failed: {type(error).__name__}"
        job = ctx.metrics.jobs[plan.job_id]
        return Outcome(jobs=[(job.job_id, outcome, job.end)],
                       attempts=_attempt_counts(ctx.metrics),
                       events_scheduled=ctx.engine.env.events_scheduled,
                       records=_records(ctx.metrics))

    return run


# ---------------------------------------------------------------------------
# sharded_datasvc: concurrent tenants behind a sharded control plane
# ---------------------------------------------------------------------------

def sharded_datasvc(seed: int, workdir: str, tenants: int = 8,
                    jobs_per_tenant: int = 6) -> Callable[[], Outcome]:
    """Mixed templates over a replicated data service, four drivers."""
    rng = Random(seed)
    cluster = hdd_cluster(num_machines=4, seed=seed)
    service = DataService(cluster, num_nodes=3, replication=2)
    ctx = AnalyticsContext(cluster, engine="monospark", datasvc=service)
    plane = ControlPlane(ctx, num_drivers=4,
                         config=ControlPlanePolicy(checkpoint=True),
                         seed=seed)
    templates = [
        wordcount_template(ctx, num_blocks=4, block_mb=16.0,
                           seed=rng.randrange(1 << 30)),
        bdb_template(ctx, query="1b", fraction=0.002,
                     seed=rng.randrange(1 << 30)),
        ml_template(ctx, num_partitions=8, rows_per_partition=5e4,
                    seed=rng.randrange(1 << 30)),
    ]
    for template in templates:
        template.base_plan(ctx)
    for index in range(tenants):
        tenant = f"tenant{index}"
        plane.add_tenant(tenant)
        plane.add_workload(
            tenant, templates[index % len(templates)],
            TraceArrivals(_poisson_times(rng, 0.1, jobs_per_tenant)))

    def run() -> Outcome:
        report = plane.run()
        return Outcome(jobs=_serve_jobs(report.serve.records),
                       attempts=_attempt_counts(ctx.metrics),
                       events_scheduled=ctx.engine.env.events_scheduled,
                       datasvc={"data": service.stats(),
                                "checkpoint": plane.store.service.stats()},
                       records=_records(ctx.metrics))

    return run


#: name -> ``build(seed, workdir, **sizes)``; the defaults are the
#: benchmark's sizes, the tests pass smaller ones.
WORKLOADS: Dict[str, Callable[..., Callable[[], Outcome]]] = {
    "serve_observed": serve_observed,
    "batch_spark": batch_spark,
    "sharded_datasvc": sharded_datasvc,
}


@dataclass
class Episode:
    """One set-up plus one simulated run of a workload."""

    setup_s: float
    run_s: float
    outcome: Outcome

    @property
    def tasks_per_s(self) -> float:
        return self.outcome.task_attempts / self.run_s


def run_episode(name: str, seed: int, workdir: str, **sizes) -> Episode:
    """Set up and run ``name`` once, timing the two halves."""
    gc.collect()
    start = time.perf_counter()
    run = WORKLOADS[name](seed, workdir, **sizes)
    ready = time.perf_counter()
    outcome = run()
    end = time.perf_counter()
    return Episode(setup_s=ready - start, run_s=end - ready,
                   outcome=outcome)
