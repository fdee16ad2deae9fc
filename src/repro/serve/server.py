"""The job server: continuous multi-tenant serving on either engine.

A :class:`JobServer` wraps an :class:`~repro.api.context.AnalyticsContext`
and turns the batch engines into a long-running service: open-loop
workload sources submit job requests over time, an admission controller
sheds load it cannot absorb, a job scheduler orders the queue across
tenants, and every dispatched job is injected into the *running*
environment via :meth:`BaseEngine.submit_job`.  Completion, queueing
delay, and SLO attainment are recorded as
:class:`~repro.metrics.events.ServeRecord` entries and summarized by
:mod:`repro.serve.slo`.

With no admission controller, a weight-1 tenant, and a single submitted
plan, the server reduces exactly to ``engine.run_job`` -- serving is a
layer over the batch engines, not a fork of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.api.context import AnalyticsContext
from repro.api.plan import JobPlan
from repro.engine.base import JobResult
from repro.errors import ConfigError, ReproError, SimulationError
from repro.metrics.events import ServeRecord
from repro.serve.admission import AdmissionController, CostEstimator
from repro.serve.scheduler import JobScheduler, make_scheduler
from repro.serve.slo import ServeReport
from repro.serve.workload import JobTemplate
from repro.simulator import Event
from repro.simulator.rng import RngStreams

__all__ = ["Tenant", "JobRequest", "JobServer"]


class Tenant:
    """One user of the service: a share weight and an optional SLO."""

    def __init__(self, name: str, weight: float = 1.0,
                 slo_s: Optional[float] = None) -> None:
        if not (weight > 0):
            raise ConfigError(f"tenant weight must be > 0: {weight}")
        if slo_s is not None and not (slo_s > 0):
            raise ConfigError(f"tenant SLO must be > 0 seconds: {slo_s}")
        self.name = name
        self.weight = weight
        self.slo_s = slo_s


class JobRequest:
    """One submission's life-cycle state inside the server."""

    def __init__(self, seq: int, tenant: str, template_name: str,
                 arrival: float, done: Event,
                 template: Optional[JobTemplate] = None,
                 plan: Optional[JobPlan] = None,
                 slo_s: Optional[float] = None,
                 estimate_s: Optional[float] = None) -> None:
        self.seq = seq
        self.tenant = tenant
        self.template_name = template_name
        self.arrival = arrival
        #: Fires with the JobResult on completion; fails never (shed
        #: requests succeed with None).
        self.done = done
        self.template = template
        self.plan = plan
        self.slo_s = slo_s
        self.estimate_s = estimate_s
        self.dispatched: float = float("nan")
        self.shed = False
        self.result: Optional[JobResult] = None


class JobServer:
    """Continuous job serving over a batch engine.

    Usage::

        ctx = AnalyticsContext(cluster, engine="monospark",
                               scheduling_policy="fair")
        server = JobServer(ctx, admission=AdmissionController(
                               max_queued_jobs=8))
        server.add_tenant("interactive", weight=2.0, slo_s=30.0)
        server.add_workload("interactive", template,
                            PoissonArrivals(0.2, horizon_s=600))
        report = server.run()
        print(report.format())

    ``max_concurrent_jobs`` bounds the multiprogramming level: queued
    requests beyond it wait for a running job to finish, ordered by the
    job scheduler.  ``None`` releases every admitted request immediately
    (the engine's task pool then shares machines between them).
    """

    def __init__(self, ctx: AnalyticsContext,
                 admission: Optional[AdmissionController] = None,
                 policy: Union[str, JobScheduler] = "weighted_fair",
                 max_concurrent_jobs: Optional[int] = None,
                 seed: int = 0, health=None, telemetry=None,
                 clarity=None, obs=None) -> None:
        if max_concurrent_jobs is not None and max_concurrent_jobs < 1:
            raise ConfigError(
                f"max_concurrent_jobs must be >= 1: {max_concurrent_jobs}")
        self.ctx = ctx
        self.engine = ctx.engine
        self.env = ctx.engine.env
        self.metrics = ctx.metrics
        self.admission = admission
        self.scheduler = (make_scheduler(policy) if isinstance(policy, str)
                          else policy)
        self.max_concurrent_jobs = max_concurrent_jobs
        self.rng = RngStreams(seed)
        self.tenants: Dict[str, Tenant] = {}
        self.estimator = CostEstimator(ctx.engine)
        #: Optional :class:`repro.health.HealthMonitor`: started when the
        #: server starts, stopped when the last job drains, so gray
        #: failures arising mid-stream are detected and excluded online.
        self.health = health
        #: Optional :class:`repro.trace.TelemetrySampler`: the server
        #: registers the engine's gauges plus its own (queued requests,
        #: running jobs) into the sampler's registry, runs it for the
        #: duration of the serve, and folds peak values into the report.
        self.telemetry = telemetry
        #: Optional :class:`repro.clarity.ClarityAggregator`: every
        #: completed job's critical-path attribution and stage profiles
        #: are folded into its rolling window as the job finishes, and
        #: the window's bottleneck answer lands in the report.
        self.clarity = clarity
        #: Optional :class:`repro.obs.ObservabilityPlane`: attached to
        #: the engine when the server starts, ticked for the duration
        #: of the serve, and folded into the report (firing alerts,
        #: drift verdicts, journal summary).
        self.obs = obs
        self._queue: List[JobRequest] = []
        self._running: Dict[int, JobRequest] = {}
        self._workloads: List[tuple] = []
        self._open_sources = 0
        self._seq = 0
        self._wakeup: Optional[Event] = None
        self._all_done: Optional[Event] = None
        self._ran = False

    # -- configuration -------------------------------------------------------------

    def add_tenant(self, name: str, weight: float = 1.0,
                   slo_s: Optional[float] = None) -> Tenant:
        """Register a tenant; duplicate names are an error.

        Silently replacing an existing registration would rewrite the
        tenant's weight and SLO mid-stream (and desynchronize the fair
        scheduler's accumulated virtual time), so a duplicate raises
        -- mirroring the engine's duplicate-job-id check.
        """
        if name in self.tenants:
            raise SimulationError(f"tenant {name!r} is already registered")
        tenant = Tenant(name, weight=weight, slo_s=slo_s)
        self.tenants[name] = tenant
        self.scheduler.register_tenant(name, weight)
        return tenant

    def add_workload(self, tenant: str, template: JobTemplate,
                     arrivals) -> None:
        """Attach an open-loop source: ``arrivals`` times of ``template``.

        ``arrivals`` is any object with a ``times(stream)`` iterator
        (:class:`~repro.serve.workload.PoissonArrivals` et al.).  Each
        source draws from its own named rng stream, so adding a source
        never perturbs another source's trace.
        """
        if tenant not in self.tenants:
            self.add_tenant(tenant)
        index = len(self._workloads)
        self._workloads.append((tenant, template, arrivals, index))

    # -- streaming submission --------------------------------------------------------

    def submit(self, job: Union[JobTemplate, JobPlan],
               tenant: str = "default") -> JobRequest:
        """Submit one request now (callable before or during :meth:`run`).

        Admission is decided immediately; admitted requests wait in the
        queue for the dispatcher.  Returns the request; its ``done``
        event fires with the :class:`JobResult` on completion (or with
        ``None`` if the request was shed).
        """
        if tenant not in self.tenants:
            self.add_tenant(tenant)
        template, plan = (job, None) if isinstance(job, JobTemplate) \
            else (None, job)
        if plan is not None and not isinstance(plan, JobPlan):
            raise ConfigError(f"submit() takes a JobTemplate or JobPlan: "
                              f"{job!r}")
        name = template.name if template is not None else plan.name
        request = JobRequest(
            seq=self._seq, tenant=tenant, template_name=name,
            arrival=self.env.now, done=self.env.event(), template=template,
            plan=plan, slo_s=self.tenants[tenant].slo_s,
            estimate_s=self.estimator.estimate(name))
        self._seq += 1
        if self.admission is not None:
            admit, reason = self.admission.decide(
                request.estimate_s,
                [r.estimate_s for r in self._queue])
            if not admit:
                request.shed = True
                self.metrics.record_serve(ServeRecord(
                    tenant=tenant, template=name, arrival=request.arrival,
                    outcome="shed", estimate_s=request.estimate_s,
                    slo_s=request.slo_s, detail=reason))
                request.done.succeed(None)
                return request
        self._queue.append(request)
        self._kick()
        return request

    # -- driving -------------------------------------------------------------------

    def run(self) -> ServeReport:
        """Serve until every source is exhausted and every job finished.

        Starts the workload sources and the dispatcher, drives the
        simulation to completion, and returns the SLO report.
        """
        if self._ran:
            raise SimulationError("a JobServer can only run once")
        self._ran = True
        self._all_done = self.env.event()
        start = self.env.now
        if self.obs is not None:
            # Attach before anything runs so the very first fault,
            # health, or driver event already lands in the journal.
            self.obs.attach(self.engine, tenants=self.tenants)
            self.obs.start()
        self._open_sources = len(self._workloads)
        for tenant, template, arrivals, index in self._workloads:
            self.env.process(self._source(tenant, template, arrivals, index))
        self.env.process(self._dispatcher())
        if self.health is not None:
            self.health.start()
        if self.telemetry is not None:
            registry = self.telemetry.registry
            self.engine.register_telemetry(registry)
            retention = getattr(registry, "retention_s", None)
            if retention is not None:
                # Tie hardware busy-tracker memory to the telemetry
                # horizon: a forever-run must bound both the same way.
                self.ctx.cluster.set_tracker_retention(retention)
            registry.gauge(
                "repro_serve_queued_requests",
                "Admitted requests waiting for the job scheduler",
                lambda: len(self._queue), engine=self.engine.name)
            registry.gauge(
                "repro_serve_running_jobs",
                "Jobs currently executing on the engine",
                lambda: len(self._running), engine=self.engine.name)
            self.telemetry.start()
        self.env.run(until=self._all_done)
        if self.health is not None:
            self.health.stop()
        if self.telemetry is not None:
            self.telemetry.stop()
        if self.obs is not None:
            self.obs.stop()
        report = ServeReport.from_metrics(
            self.metrics, engine_name=self.engine.name,
            tenants=sorted(self.tenants),
            duration_s=self.env.now - start)
        if self.telemetry is not None:
            report.attach_telemetry(self.telemetry.registry)
        if self.clarity is not None:
            report.attach_clarity(self.clarity)
        datasvc = getattr(self.engine, "datasvc", None)
        if datasvc is not None:
            report.attach_datasvc(datasvc)
        if self.obs is not None:
            report.attach_obs(self.obs)
        return report

    def _source(self, tenant: str, template: JobTemplate, arrivals,
                index: int):
        stream = self.rng.stream(f"serve/{index}/{tenant}/{template.name}")
        for at in arrivals.times(stream):
            if at > self.env.now:
                yield self.env.timeout(at - self.env.now)
            self.submit(template, tenant=tenant)
        self._open_sources -= 1
        self._kick()

    def _kick(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _can_dispatch(self) -> bool:
        return (self.max_concurrent_jobs is None
                or len(self._running) < self.max_concurrent_jobs)

    def _dispatcher(self):
        while True:
            while self._queue and self._can_dispatch():
                request = self.scheduler.pick_next(self._queue)
                self._queue.remove(request)
                self._dispatch(request)
            if self._open_sources == 0 and not self._queue \
                    and not self._running:
                if self._all_done is not None \
                        and not self._all_done.triggered:
                    self._all_done.succeed()
                return
            self._wakeup = self.env.event()
            yield self._wakeup
            self._wakeup = None

    def _dispatch(self, request: JobRequest) -> None:
        if request.plan is None:
            request.plan = request.template.instantiate(self.ctx)
        request.dispatched = self.env.now
        driver = self.engine.submit_job(request.plan)
        self._running[request.plan.job_id] = request
        self.env.process(self._watch(request, driver))

    def _watch(self, request: JobRequest, driver):
        outcome, detail = "completed", ""
        result: Optional[JobResult] = None
        try:
            result = yield driver
        except ReproError as error:
            # A job may die for good (e.g. retries exhausted after an
            # unrecovered crash); the service keeps running.
            outcome, detail = "failed", type(error).__name__
        del self._running[request.plan.job_id]
        request.result = result
        if result is not None:
            self.scheduler.credit(request.tenant, result.duration)
            self.estimator.observe(request.template_name, self.metrics,
                                   result)
            if self.clarity is not None:
                self.clarity.observe_job(self.metrics, request.plan.job_id,
                                         engine=self.engine.name,
                                         tenant=request.tenant)
        self.metrics.record_serve(ServeRecord(
            tenant=request.tenant, template=request.template_name,
            arrival=request.arrival, job_id=request.plan.job_id,
            dispatched=request.dispatched, completed=self.env.now,
            outcome=outcome, estimate_s=request.estimate_s,
            slo_s=request.slo_s, detail=detail))
        # Every consumer has folded the job by now (the serve record
        # fed drift, exemplars and the capsule's serve line).
        self.metrics.release_job(request.plan.job_id)
        request.done.succeed(result)
        self._kick()
