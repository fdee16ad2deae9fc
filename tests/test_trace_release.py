"""Releasing finished jobs' traces once a span sink holds them.

With a span sink attached, the serving front-ends call
``MetricsCollector.release_job`` after every consumer has folded a
finished job, so the collector holds only in-flight jobs' spans and
links.  These tests pin that the release is invisible: the streamed
trace equals the in-memory trace of a run that released nothing, job
timing and event counts do not move, and a read of a released trace
raises instead of answering empty.

The fault-matrix CI job runs this file under ``REPRO_TEST_SEED`` 0/1/2,
so the faulted scenario asserts invariants, never exact counts.
"""

import os

import pytest

from repro.api.context import AnalyticsContext
from repro.cluster import hdd_cluster
from repro.controlplane import ControlPlane, ControlPlanePolicy
from repro.errors import SimulationError, TraceReleasedError
from repro.faults import FaultInjector, FaultPlan, MachineCrash
from repro.metrics.collector import MetricsCollector
from repro.metrics.events import ServeRecord
from repro.obs import WORST_JOB_METRIC, ObservabilityPlane
from repro.serve import JobServer, TraceArrivals, wordcount_template
from repro.trace import critical_path
from repro.trace.spans import SpanLink, SpanRecord, link_to_json, span_to_json
from repro.xray.capsule import Capsule, RunRecorder

SEED_OFFSET = int(os.environ.get("REPRO_TEST_SEED", "0"))


class HoldingsProbe:
    """A span sink that checks, at every span it receives, which job
    traces the collector still holds in its flat lists."""

    def __init__(self, metrics):
        self.metrics = metrics
        self.peak_spans = 0
        self.stale = []

    def span_finished(self, span):
        metrics = self.metrics
        self.peak_spans = max(self.peak_spans, len(metrics.spans))
        served = {r.job_id for r in metrics.serves}
        held = {s.trace_id for s in metrics.spans}
        self.stale.extend(sorted(
            held & {metrics.job_trace_id(j) for j in served}))

    def link_recorded(self, link):
        pass


def serve(tmp_path, jobs, recorder=True, crash_at=None, seed=3,
          probe=False, blocks=2):
    """One seeded wordcount stream, one job at a time."""
    cluster = hdd_cluster(num_machines=4, seed=seed)
    ctx = AnalyticsContext(cluster, engine="monospark")
    path = str(tmp_path / f"serve-{jobs}.capsule")
    run = {"ctx": ctx, "path": path, "probe": None}
    if recorder:
        run["recorder"] = RunRecorder(path, engine=ctx.engine.name,
                                      seed=seed).attach(ctx.metrics)
    if probe:
        run["probe"] = HoldingsProbe(ctx.metrics)
        ctx.metrics.add_span_sink(run["probe"])
    if crash_at is not None:
        FaultInjector(ctx.engine, FaultPlan([MachineCrash(
            at=crash_at, machine_id=1 + seed % 3,
            restart_after=5.0)])).start()
    server = JobServer(ctx, policy="fifo", max_concurrent_jobs=1, seed=seed)
    server.add_tenant("t", slo_s=30.0)
    template = wordcount_template(ctx, num_blocks=blocks, block_mb=4.0)
    server.add_workload("t", template,
                        TraceArrivals([1.0 + 1.5 * i for i in range(jobs)]))
    run["report"] = server.run()
    if recorder:
        run["recorder"].finalize(report=run["report"])
        run["recorder"].close()
    return run


def timing(run):
    """Everything about a run's timing that a release could disturb."""
    records = [(r.tenant, r.job_id, r.outcome, repr(r.arrival),
                repr(r.dispatched), repr(r.completed))
               for r in run["report"].records]
    return records, run["ctx"].engine.env.events_scheduled


def spans_by_id(spans):
    return [span_to_json(s) for s in sorted(spans, key=lambda s: s.span_id)]


def assert_streamed_trace_matches(run, reference):
    """The capsule holds exactly the trace the unreleased run kept."""
    capsule = Capsule.load(run["path"])
    ref = reference["ctx"].metrics
    assert capsule.manifest["counts"]["span"] == len(ref.spans)
    assert capsule.manifest["counts"]["link"] == len(ref.links)
    assert spans_by_id(capsule.spans) == spans_by_id(ref.spans)
    assert ([link_to_json(link) for link in capsule.links]
            == [link_to_json(link) for link in ref.links])


class TestServingRelease:
    @pytest.mark.parametrize("jobs", [8, 32])
    def test_holds_only_in_flight_jobs(self, tmp_path, jobs):
        run = serve(tmp_path, jobs, probe=True)
        reference = serve(tmp_path / "ref", jobs, recorder=False)
        metrics = run["ctx"].metrics
        assert run["report"].total_completed == jobs
        # No span of a served job is ever held after its serve record.
        assert run["probe"].stale == []
        assert metrics.spans == [] and metrics.links == []
        # One job in flight at a time: the peak is one job's spans, so
        # it does not grow with the number of jobs served.
        ref = reference["ctx"].metrics
        per_job = max(len(ref.spans_for_job(j)) for j in ref.jobs)
        assert 0 < run["probe"].peak_spans <= per_job
        assert_streamed_trace_matches(run, reference)

    def test_release_is_timing_invisible(self, tmp_path):
        with_sink = serve(tmp_path, 8)
        without = serve(tmp_path / "ref", 8, recorder=False)
        assert timing(with_sink) == timing(without)

    def test_released_reads_raise_and_capsule_answers(self, tmp_path):
        run = serve(tmp_path, 4)
        metrics = run["ctx"].metrics
        job_id = run["report"].records[0].job_id
        reads = (metrics.spans_for_job, metrics.links_for_job,
                 metrics.critical_path_report,
                 lambda j: critical_path(metrics, j))
        for read in reads:
            with pytest.raises(TraceReleasedError) as info:
                read(job_id)
            assert f"job {job_id}" in str(info.value)
            assert "Capsule.spans_for_job" in str(info.value)
        assert isinstance(info.value, SimulationError)
        # Records the capsule does not carry are kept.
        assert metrics.stage_monotasks(job_id)
        assert metrics.attempts_for_job(job_id)
        capsule = Capsule.load(run["path"])
        assert capsule.spans_for_job(job_id)
        assert capsule.critical_path_report(job_id).segments

    def test_machine_crash_mid_stream(self, tmp_path):
        seed = 3 + SEED_OFFSET
        # Four blocks put a task on every machine, so the crash (inside
        # the fourth job's window) kills in-flight work.
        run = serve(tmp_path, 8, crash_at=6.0, seed=seed, probe=True,
                    blocks=4)
        reference = serve(tmp_path / "ref", 8, crash_at=6.0, seed=seed,
                          recorder=False, blocks=4)
        outcomes = run["ctx"].metrics.attempt_outcome_counts()
        assert outcomes.get("killed", 0) >= 1
        assert timing(run) == timing(reference)
        assert run["probe"].stale == []
        assert run["ctx"].metrics.spans == []
        assert_streamed_trace_matches(run, reference)


def run_plane(tmp_path, recorder, seed=5):
    cluster = hdd_cluster(num_machines=4, seed=seed)
    ctx = AnalyticsContext(cluster, engine="monospark")
    path = str(tmp_path / "plane.capsule")
    run = {"ctx": ctx, "path": path}
    if recorder:
        run["recorder"] = RunRecorder(path, engine=ctx.engine.name,
                                      seed=seed).attach(ctx.metrics)
    plane = ControlPlane(ctx, num_drivers=2, seed=seed,
                         config=ControlPlanePolicy(control_service_s=0.05))
    template = wordcount_template(ctx, num_blocks=2, block_mb=4.0)
    for i in range(3):
        plane.add_workload(f"tenant{i}", template, TraceArrivals(
            [1.0 + 2.0 * k + 0.3 * i for k in range(4)]))
    run["report"] = plane.run().serve
    if recorder:
        run["recorder"].close()
    return run


def test_controlplane_release_is_timing_invisible(tmp_path):
    run = run_plane(tmp_path, recorder=True)
    reference = run_plane(tmp_path, recorder=False)
    assert timing(run) == timing(reference)
    assert run["report"].total_completed == 12
    assert run["ctx"].metrics.spans == []
    assert_streamed_trace_matches(run, reference)


class ListSink:
    def __init__(self):
        self.spans = []
        self.links = []

    def span_finished(self, span):
        self.spans.append(span)

    def link_recorded(self, link):
        self.links.append(link)


def finished_job(metrics, job_id, now=0.0):
    """Open and close a one-stage, one-attempt job on ``metrics``."""
    metrics.job_started(job_id, f"job{job_id}", now)
    metrics.stage_started(job_id, 0, "s", 1, now)
    trace = metrics.attempt_started(job_id, 0, 0, 1, 0, now)
    metrics.attempt_finished(trace, now + 1.0, "success")
    metrics.stage_finished(job_id, 0, now + 1.0)
    metrics.job_finished(job_id, now + 1.0)
    return trace


class TestCollectorRelease:
    def test_without_a_sink_release_keeps_everything(self):
        metrics = MetricsCollector()
        finished_job(metrics, 1)
        metrics.release_job(1)
        assert len(metrics.spans_for_job(1)) == 3
        assert metrics.critical_path_report(1).segments

    def test_late_records_reach_the_sink_not_memory(self):
        metrics = MetricsCollector()
        sink = ListSink()
        metrics.add_span_sink(sink)
        trace = finished_job(metrics, 1)
        metrics.release_job(1)
        assert metrics.spans == []
        late = SpanRecord(span_id=metrics.new_span_id(),
                          trace_id=trace.trace_id, parent_id=trace.span_id,
                          kind="monotask", name="late", start=1.0, end=2.0)
        link = SpanLink(from_span_id=trace.span_id, to_span_id=late.span_id,
                        kind="queue-wait", trace_id=trace.trace_id, at=1.0)
        metrics.record_span(late)
        metrics.record_link(link)
        assert sink.spans[-1] is late and sink.links[-1] is link
        assert metrics.spans == [] and metrics.links == []
        with pytest.raises(TraceReleasedError):
            metrics.spans_for_job(1)

    def test_flat_lists_compact_in_place(self):
        metrics = MetricsCollector()
        metrics.add_span_sink(ListSink())
        spans = metrics.spans
        for job_id in range(1, 7):
            finished_job(metrics, job_id, now=float(job_id))
        for job_id in range(1, 7):
            metrics.release_job(job_id)
            live = 3 * (6 - job_id)
            # Released entries never outnumber live ones.
            assert live <= len(metrics.spans) <= 2 * live
        assert metrics.spans is spans and spans == []


class TestCriticalPathCache:
    def test_failed_sweep_leaves_no_cache_entry(self):
        metrics = MetricsCollector()
        metrics.job_started(1, "running", 0.0)
        for job_id in (1, 99):  # unfinished, unknown
            with pytest.raises(SimulationError):
                metrics.critical_path_report(job_id)
        assert metrics._critpath_cache == {}

    def test_released_job_leaves_no_cache_entry(self):
        metrics = MetricsCollector()
        metrics.add_span_sink(ListSink())
        finished_job(metrics, 1)
        metrics.critical_path_report(1)
        metrics.release_job(1)
        with pytest.raises(TraceReleasedError):
            metrics.critical_path_report(1)
        assert metrics._critpath_cache == {}


class TestExemplars:
    def _plane(self):
        ctx = AnalyticsContext(hdd_cluster(num_machines=2, seed=1),
                               engine="monospark")
        ctx.metrics.add_span_sink(ListSink())
        obs = ObservabilityPlane()
        obs.attach(ctx.engine)
        return ctx.metrics, obs, WORST_JOB_METRIC

    def _record(self, job_id):
        return ServeRecord(tenant="t", template="w", arrival=0.0,
                           job_id=job_id, dispatched=0.0, completed=1.0,
                           outcome="completed")

    def test_unknown_or_unfinished_job_records_no_exemplar(self):
        metrics, obs, worst = self._plane()
        metrics.job_started(1, "running", 0.0)
        for job_id in (1, 99):
            obs._record_exemplars(self._record(job_id), 1.0)
        assert obs.exemplars.lookup(worst, (), 1.0) is None

    def test_released_trace_raises_instead_of_dropping(self):
        metrics, obs, worst = self._plane()
        finished_job(metrics, 1)
        obs._record_exemplars(self._record(1), 1.0)
        assert obs.exemplars.lookup(worst, (), 1.0) is not None
        metrics.release_job(1)
        with pytest.raises(TraceReleasedError):
            obs._record_exemplars(self._record(1), 1.0)
