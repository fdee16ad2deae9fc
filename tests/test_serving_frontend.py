"""The serving front-end shared by ``JobServer`` and ``ControlPlane``.

Both front-ends run one submit -> dispatch -> watch -> finalize
pipeline (``repro.serve.frontend``).  These tests pin what that path
must keep on either of them:

* golden event counts and serve records for the ``JobServer`` paths
  the simulator benchmark does not reach (admission shedding, bounded
  concurrency, weighted-fair, both engines, with and without a machine
  crash), so a change to the shared path cannot drift silently;
* request conservation: every submitted request ends with exactly one
  ``ServeRecord`` and its ``done`` event fired, faults included;
* observer timing invisibility: telemetry, clarity, the obs plane and
  capsule recording never move a dispatch or completion time;
* the life-cycle guards on ``submit()`` and ``add_workload()``;
* a finished one-driver server holds no reference cycle.

The fault-matrix CI job runs this file under ``REPRO_TEST_SEED`` 0/1/2,
so the seeded scenarios assert invariants, never exact counts.
"""

import gc
import json
import os
import weakref
from pathlib import Path

import pytest

from repro.api.context import AnalyticsContext
from repro.clarity import ClarityAggregator
from repro.cluster import hdd_cluster
from repro.controlplane import ControlPlane, ControlPlanePolicy
from repro.errors import SimulationError
from repro.faults import DriverCrash, FaultInjector, FaultPlan, MachineCrash
from repro.obs import ObservabilityPlane
from repro.serve import (AdmissionController, JobServer, PoissonArrivals,
                         TraceArrivals, ml_template, wordcount_template)
from repro.trace.telemetry import TelemetryRegistry, TelemetrySampler
from repro.xray.capsule import RunRecorder

SEED_OFFSET = int(os.environ.get("REPRO_TEST_SEED", "0"))

GOLDENS = Path(__file__).with_name("serving_goldens.json")


def make_ctx(engine="monospark", machines=2, seed=0, **options):
    cluster = hdd_cluster(num_machines=machines, num_disks=2, seed=seed)
    return AnalyticsContext(cluster, engine=engine, **options)


def small_wc(ctx, name="wordcount"):
    return wordcount_template(ctx, num_blocks=2, block_mb=8.0, name=name)


def make_front(kind, ctx, seed=0, **observers):
    """``kind`` is "server" (one driver) or "plane" (two shards)."""
    if kind == "server":
        return JobServer(ctx, max_concurrent_jobs=2, seed=seed,
                         **observers)
    return ControlPlane(ctx, num_drivers=2, seed=seed,
                        config=ControlPlanePolicy(control_service_s=0.05),
                        **observers)


def serve_report(front):
    report = front.run()
    return report if isinstance(front, JobServer) else report.serve


# -- goldens: JobServer paths outside the simulator benchmark -------------------


def _shed_and_share(engine, crash):
    """The admission-shedding, two-at-a-time, weighted-fair stream."""
    ctx = make_ctx(engine, scheduling_policy="fair")
    if crash:
        FaultInjector(ctx.engine, FaultPlan([MachineCrash(
            at=10.0, machine_id=1, restart_after=10.0)])).start()
    server = JobServer(ctx, admission=AdmissionController(max_queued_jobs=3),
                       max_concurrent_jobs=2, seed=5)
    server.add_tenant("interactive", weight=2.0, slo_s=30.0)
    server.add_tenant("batch", weight=1.0)
    server.add_workload("interactive", small_wc(ctx),
                        PoissonArrivals(0.15, horizon_s=60.0))
    server.add_workload("batch", ml_template(ctx, num_partitions=2),
                        PoissonArrivals(0.05, horizon_s=60.0))
    server.run()
    return ctx


def _overload():
    """One-at-a-time serving behind a one-deep queue: most requests shed."""
    ctx = make_ctx(scheduling_policy="fair")
    server = JobServer(ctx, admission=AdmissionController(max_queued_jobs=1),
                       max_concurrent_jobs=1, seed=9)
    server.add_workload("t", small_wc(ctx),
                        TraceArrivals([0.0, 0.1, 0.2, 0.3, 5.0]))
    server.run()
    return ctx


GOLDEN_SCENARIOS = {
    "spark": lambda: _shed_and_share("spark", crash=False),
    "spark-crash": lambda: _shed_and_share("spark", crash=True),
    "monospark": lambda: _shed_and_share("monospark", crash=False),
    "monospark-crash": lambda: _shed_and_share("monospark", crash=True),
    "overload": _overload,
}


def golden_of(ctx):
    """What a golden pins: kernel events and every serve record."""
    return {"events_scheduled": ctx.engine.env.events_scheduled,
            "records": [repr(r) for r in ctx.metrics.serves]}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_jobserver_paths_match_goldens(name):
    expected = json.loads(GOLDENS.read_text())[name]
    got = golden_of(GOLDEN_SCENARIOS[name]())
    assert got["records"] == expected["records"]
    assert got["events_scheduled"] == expected["events_scheduled"]


# -- conservation ---------------------------------------------------------------


def spy_submissions(front):
    """Collect every request the front-end's sources submit."""
    requests = []
    submit = front.submit

    def spy(job, tenant="default"):
        request = submit(job, tenant=tenant)
        requests.append(request)
        return request

    front.submit = spy
    return requests


def assert_conserved(front, requests):
    """Each request has exactly one serve record and a fired ``done``."""
    records = front.metrics.serves
    assert len(records) == len(requests)
    assert all(r.done.triggered for r in requests)
    keys = sorted((r.tenant, repr(r.arrival)) for r in records)
    assert keys == sorted((r.tenant, repr(r.arrival)) for r in requests)
    assert {r.outcome for r in records} <= {"completed", "failed", "shed",
                                            "lost"}


CONSERVATION = ["server", "server-shed", "server-crash", "plane",
                "plane-driver-crash"]


@pytest.mark.parametrize("case", CONSERVATION)
def test_every_request_is_accounted_once(case):
    seed = 4 + SEED_OFFSET
    ctx = make_ctx(machines=4, seed=seed)
    if case == "server-shed":
        front = JobServer(ctx, max_concurrent_jobs=1, seed=seed,
                          admission=AdmissionController(max_queued_jobs=1))
    elif case == "plane-driver-crash":
        front = ControlPlane(ctx, num_drivers=2, seed=seed,
                             config=ControlPlanePolicy(
                                 control_service_s=0.05, checkpoint=False,
                                 failover=False))
        FaultInjector(ctx.engine, FaultPlan([DriverCrash(
            at=2.0 + 0.5 * SEED_OFFSET, driver_id=seed % 2)])).start()
    else:
        front = make_front(case.split("-")[0], ctx, seed=seed)
    if case == "server-crash":
        FaultInjector(ctx.engine, FaultPlan([MachineCrash(
            at=2.0 + 0.5 * SEED_OFFSET, machine_id=1 + seed % 3,
            restart_after=4.0)])).start()
    requests = spy_submissions(front)
    template = wordcount_template(ctx, num_blocks=2, block_mb=4.0)
    for i in range(3):
        front.add_workload(f"t{i}", template, TraceArrivals(
            [0.5 + 0.9 * k + 0.05 * i for k in range(6)]))
    report = serve_report(front)
    assert_conserved(front, requests)
    assert report.total_completed > 0
    if case == "server-shed":
        assert any(r.outcome == "shed" for r in front.metrics.serves)
    if case == "plane-driver-crash":
        assert any(r.outcome == "lost" for r in front.metrics.serves)


# -- observer timing invisibility ------------------------------------------------


def _telemetry(ctx, _path):
    sampler = TelemetrySampler(ctx.engine.env,
                               TelemetryRegistry(retention_s=30.0),
                               interval_s=1.0)
    return {"telemetry": sampler}, None


def _clarity(ctx, _path):
    return {"clarity": ClarityAggregator(window_s=1e9,
                                         engine=ctx.engine.name)}, None


def _obs(_ctx, _path):
    return {"obs": ObservabilityPlane()}, None


def _recorder(ctx, path):
    recorder = RunRecorder(str(path), engine=ctx.engine.name)
    return {}, recorder.attach(ctx.metrics)


#: observer name -> factory returning (front-end kwargs, recorder or None).
OBSERVERS = {"telemetry": _telemetry, "clarity": _clarity, "obs": _obs,
             "recorder": _recorder}


def observed_times(kind, tmp_path, observer=None):
    ctx = make_ctx(machines=4, seed=7)
    observers, recorder = ({}, None) if observer is None else \
        OBSERVERS[observer](ctx, tmp_path / "run.capsule")
    front = make_front(kind, ctx, seed=7, **observers)
    template = wordcount_template(ctx, num_blocks=2, block_mb=4.0)
    for i in range(2):
        front.add_workload(f"tenant{i}", template, TraceArrivals(
            [0.5 + 0.4 * k + 0.1 * i for k in range(10)]))
    try:
        report = serve_report(front)
    finally:
        if recorder is not None:
            recorder.close()
    return [(r.tenant, r.job_id, r.outcome, repr(r.dispatched),
             repr(r.completed)) for r in report.records]


@pytest.mark.parametrize("observer", sorted(OBSERVERS))
@pytest.mark.parametrize("kind", ["server", "plane"])
def test_observers_are_timing_invisible(kind, observer, tmp_path):
    bare = observed_times(kind, tmp_path / "bare")
    assert len(bare) == 20
    assert observed_times(kind, tmp_path, observer) == bare


# -- life-cycle guards -----------------------------------------------------------


@pytest.mark.parametrize("kind", ["server", "plane"])
def test_submit_after_run_raises(kind):
    ctx = make_ctx()
    front = make_front(kind, ctx)
    template = small_wc(ctx)
    front.submit(template, tenant="t")
    front.run()
    with pytest.raises(SimulationError, match="after run"):
        front.submit(template, tenant="t")
    assert len(front.metrics.serves) == 1


@pytest.mark.parametrize("kind", ["server", "plane"])
def test_add_workload_during_run_raises(kind):
    ctx = make_ctx()
    front = make_front(kind, ctx)
    template = small_wc(ctx)
    front.add_workload("t", template, TraceArrivals([0.0, 2.0]))
    errors = []

    def late_source():
        yield ctx.engine.env.timeout(1.5)
        try:
            front.add_workload("t", template, TraceArrivals([3.0]))
        except SimulationError as error:
            errors.append(str(error))

    ctx.engine.env.process(late_source())
    serve_report(front)
    assert len(errors) == 1 and "submit()" in errors[0]
    assert len(front.metrics.serves) == 2


def test_finished_server_is_freed_without_the_cycle_collector():
    # The server is its own driver; it must look itself up rather than
    # hold a reference to itself (docs/simulator.md: no cycles).
    ctx = make_ctx()
    server = make_front("server", ctx)
    server.add_workload("t", small_wc(ctx), TraceArrivals([0.0, 1.0]))
    server.run()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        ref = weakref.ref(server)
        del server
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
