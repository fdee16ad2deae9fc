"""The serving front-end: one submit -> dispatch -> watch -> finalize path.

:class:`~repro.serve.server.JobServer` (one driver) and
:class:`~repro.controlplane.ControlPlane` (N sharded drivers) are both a
:class:`FrontEnd` over :class:`Driver` loops.  Subclasses add only what
differs: the server's concurrency bound and gauges; the plane's ring
routing, fencing, control-service time, checkpoints and failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.api.plan import JobPlan
from repro.engine.base import JobResult
from repro.errors import ConfigError, Interrupted, ReproError, SimulationError
from repro.metrics.events import ServeRecord
from repro.serve.admission import CostEstimator
from repro.serve.scheduler import JobScheduler
from repro.serve.slo import ServeReport
from repro.serve.workload import JobTemplate
from repro.simulator import Event
from repro.simulator.rng import RngStreams

__all__ = ["Tenant", "JobRequest", "Driver", "FrontEnd"]


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


@dataclass(eq=False)
class JobRequest:
    """One submission's life-cycle state inside a front-end."""

    seq: int
    tenant: str
    template_name: str
    arrival: float
    #: Fires with the JobResult on completion; fails never (shed,
    #: failed and lost requests succeed with None).
    done: Event
    template: Optional[JobTemplate] = None
    plan: Optional[JobPlan] = None
    slo_s: Optional[float] = None
    estimate_s: Optional[float] = None
    dispatched: float = float("nan")
    shed: bool = False
    #: Set once the request's one terminal ServeRecord is written
    #: (first writer wins: a split-brain duplicate completion only
    #: cleans up).
    recorded: bool = False
    result: Optional[JobResult] = None


class Driver:
    """One dispatch loop: a queue, a job scheduler, completion watchers.

    The dispatcher drains the queue while :meth:`_can_dispatch` holds,
    passing each pick through the :meth:`_admit` window; otherwise it
    waits for a :meth:`kick`, or exits once :meth:`_stop` says so.
    """

    #: Fail-stopped: the dispatcher exits and watchers go quiet (only a
    #: sharded replica can crash).
    down = False

    def __init__(self, front: "FrontEnd", scheduler: JobScheduler) -> None:
        self.env = front.env
        self.engine = front.engine
        self._reset(scheduler)
        self._wakeup: Optional[Event] = None
        self._dispatcher_proc = None
        # Counters (report face).
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        #: tenant -> {"completed": n, "failed": n}.
        self.tenant_counts: Dict[str, Dict[str, int]] = {}

    def _front(self) -> "FrontEnd":
        """The front-end whose requests this driver serves (looked up,
        not stored: the one-driver server is its own front-end)."""
        raise NotImplementedError

    def _reset(self, scheduler: JobScheduler) -> None:
        """Hold nothing: no queue, no watched jobs, no known tenants."""
        self.scheduler = scheduler
        self._queue: List[JobRequest] = []
        self._running: Dict[int, JobRequest] = {}
        self._watchers: Dict[int, object] = {}
        self._registered: set = set()

    def ensure_tenant(self, tenant: str) -> None:
        """Register ``tenant`` with this driver's scheduler once."""
        if tenant in self._registered:
            return
        self._registered.add(tenant)
        self.scheduler.register_tenant(tenant,
                                       self._front().tenants[tenant].weight)
        self.tenant_counts.setdefault(tenant, {"completed": 0, "failed": 0})

    def enqueue(self, request: JobRequest) -> None:
        """Queue one admitted request and wake the dispatcher."""
        self.ensure_tenant(request.tenant)
        self._queue.append(request)
        self.kick()

    def kick(self) -> None:
        """Wake the dispatcher if it is waiting."""
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def start(self) -> None:
        """Spawn the dispatcher process."""
        self._dispatcher_proc = self.env.process(self._dispatcher())

    def _can_dispatch(self) -> bool:
        return True

    def _admit(self, request: JobRequest):
        """The window between pick and dispatch (a generator): True
        dispatches, False drops the request, None hands it back to the
        queue until the next wakeup."""
        yield from ()
        return True

    def _stop(self) -> bool:
        return self.down

    def _dispatcher(self):
        try:
            while True:
                while self._queue and self._can_dispatch():
                    request = self.scheduler.pick_next(self._queue)
                    self._queue.remove(request)
                    verdict = yield from self._admit(request)
                    if verdict is None:
                        self._queue.append(request)
                        break
                    if verdict:
                        self._dispatch(request)
                if self._stop():
                    return
                self._wakeup = self.env.event()
                yield self._wakeup
                self._wakeup = None
        except Interrupted:
            self._wakeup = None

    def _dispatch(self, request: JobRequest):
        """Inject the request's job into the engine; returns its process."""
        if request.plan is None:
            request.plan = request.template.instantiate(self._front().ctx)
        request.dispatched = self.env.now
        job = self.engine.submit_job(request.plan)
        self.dispatched += 1
        self.attach(request, job)
        return job

    def attach(self, request: JobRequest, job) -> None:
        """Hold and watch an engine job (dispatch or adoption)."""
        self._running[request.plan.job_id] = request
        self._watchers[request.plan.job_id] = self.env.process(
            self._watch(request, job))

    def _watch(self, request: JobRequest, job):
        outcome, detail, result = "completed", "", None
        try:
            result = yield job
        except ReproError as error:
            if self.down and isinstance(error, Interrupted):
                # Our driver crashed; the adopter re-attaches from the
                # checkpoint and the engine job keeps running untouched.
                return
            # A job may die for good (e.g. retries exhausted after an
            # unrecovered crash); the service keeps running.
            outcome, detail = "failed", type(error).__name__
        self._running.pop(request.plan.job_id, None)
        self._watchers.pop(request.plan.job_id, None)
        if not self.down:
            self._front().finalize(self, request, outcome, detail, result)


class FrontEnd:
    """Tenants, sources, submission, finalize and the run life-cycle.

    The optional observers run for the duration of the serve and fold
    into its report: ``health`` (a :class:`repro.health.HealthMonitor`),
    ``telemetry`` (a :class:`repro.trace.TelemetrySampler`), ``clarity``
    (a :class:`repro.clarity.ClarityAggregator`, fed every completed
    job) and ``obs`` (a :class:`repro.obs.ObservabilityPlane`).
    """

    #: Prefix of each source's named rng stream.
    _stream = "serve"

    def __init__(self, ctx, admission=None, seed: int = 0, health=None,
                 telemetry=None, clarity=None, obs=None) -> None:
        self.ctx = ctx
        self.engine = ctx.engine
        self.env = ctx.engine.env
        self.metrics = ctx.metrics
        self.admission = admission
        self.rng = RngStreams(seed)
        self.estimator = CostEstimator(ctx.engine)
        self.health = health
        self.telemetry = telemetry
        self.clarity = clarity
        self.obs = obs
        self.tenants: Dict[str, Tenant] = {}
        self._workloads: List[tuple] = []
        self._open_sources = 0
        #: Admitted requests not yet completed/failed/lost.
        self._outstanding = 0
        self._seq = 0
        self._all_done: Optional[Event] = None
        self._returned = False

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
        self._owner(name).ensure_tenant(name)
        return tenant

    def add_workload(self, tenant: str, template: JobTemplate,
                     arrivals) -> None:
        """Attach an open-loop source: ``arrivals`` times of ``template``.

        ``arrivals`` is any object with a ``times(stream)`` iterator
        (:class:`~repro.serve.workload.PoissonArrivals` et al.).  Each
        source draws from its own named rng stream, so adding a source
        never perturbs another source's trace.  Sources start with
        :meth:`run`; once it has started, stream requests in through
        :meth:`submit` instead.
        """
        if self._all_done is not None:
            raise SimulationError(
                "add_workload() after run() has started would never "
                "start the source; call submit() from a process instead")
        if tenant not in self.tenants:
            self.add_tenant(tenant)
        index = len(self._workloads)
        self._workloads.append((tenant, template, arrivals, index))

    def _owner(self, tenant: str) -> Driver:
        """The driver owning ``tenant``'s requests (placing it if new)."""
        raise NotImplementedError

    # -- streaming submission --------------------------------------------------------

    def submit(self, job: Union[JobTemplate, JobPlan],
               tenant: str = "default") -> JobRequest:
        """Submit one request now (callable before or during :meth:`run`).

        Admission is decided immediately against the owning driver's
        queue; admitted requests wait there for its dispatcher.  Returns
        the request; its ``done`` event fires with the
        :class:`JobResult` on completion (or with ``None`` if the
        request was shed, failed or lost).
        """
        if self._returned:
            raise SimulationError(
                "submit() after run() has returned: nothing would serve "
                "the request")
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
        owner = self._owner(tenant)
        if self.admission is not None:
            admit, reason = self.admission.decide(
                request.estimate_s, [r.estimate_s for r in owner._queue])
            if not admit:
                request.shed = True
                self._settle(request, "shed", reason)
                return request
        self._outstanding += 1
        self._place(owner, request)
        return request

    def _place(self, owner: Driver, request: JobRequest) -> None:
        """Hand an admitted request to its owning driver."""
        owner.enqueue(request)

    def _source(self, tenant: str, template: JobTemplate, arrivals,
                index: int):
        stream = self.rng.stream(
            f"{self._stream}/{index}/{tenant}/{template.name}")
        for at in arrivals.times(stream):
            if at > self.env.now:
                yield self.env.timeout(at - self.env.now)
            self.submit(template, tenant=tenant)
        self._open_sources -= 1
        self._maybe_finish()

    def _start(self) -> None:
        """Spawn the sources (subclasses add their driver processes)."""
        self._open_sources = len(self._workloads)
        for tenant, template, arrivals, index in self._workloads:
            self.env.process(self._source(tenant, template, arrivals,
                                          index))

    # -- completion accounting -----------------------------------------------------

    def _settle(self, request: JobRequest, outcome: str, detail: str = "",
                result=None, completed: float = float("nan")) -> None:
        """Write the request's one terminal ServeRecord; fire ``done``."""
        request.recorded = True
        plan = None if request.shed else request.plan
        self.metrics.record_serve(ServeRecord(
            tenant=request.tenant, template=request.template_name,
            arrival=request.arrival,
            job_id=plan.job_id if plan is not None else -1,
            dispatched=request.dispatched, completed=completed,
            outcome=outcome, estimate_s=request.estimate_s,
            slo_s=request.slo_s, detail=detail))
        request.done.succeed(result)

    def finalize(self, driver: Driver, request: JobRequest, outcome: str,
                 detail: str, result) -> None:
        """Record one dispatched request's terminal outcome, exactly once.

        Duplicate completions (split-brain double dispatch) hit the
        ``recorded`` fence and only wake the driver.
        """
        if request.recorded:
            driver.kick()
            return
        request.result = result
        counts = driver.tenant_counts.setdefault(
            request.tenant, {"completed": 0, "failed": 0})
        if result is not None:
            driver.completed += 1
            counts["completed"] += 1
            driver.scheduler.credit(request.tenant, result.duration)
            self.estimator.observe(request.template_name, self.metrics,
                                   result)
            if self.clarity is not None:
                self.clarity.observe_job(self.metrics, request.plan.job_id,
                                         engine=self.engine.name,
                                         tenant=request.tenant)
        else:
            driver.failed += 1
            counts["failed"] += 1
        self._settle(request, outcome, detail, result, self.env.now)
        # Every consumer has folded the job by now (the serve record
        # fed drift, exemplars and the capsule's serve line).
        self.metrics.release_job(request.plan.job_id)
        self._outstanding -= 1
        self._finalized(driver, request)
        driver.kick()
        self._maybe_finish()

    def _finalized(self, driver: Driver, request: JobRequest) -> None:
        """Called once a request's outcome is recorded."""

    def _idle(self) -> bool:
        return self._open_sources == 0 and self._outstanding == 0

    def _maybe_finish(self) -> None:
        """A source ended or a request settled: end the run if idle."""
        self._finish_if_idle()

    def _finish_if_idle(self) -> bool:
        """End the run if nothing is left to serve; returns idleness."""
        if not self._idle():
            return False
        if self._all_done is not None and not self._all_done.triggered:
            self._all_done.succeed()
        return True

    # -- driving -------------------------------------------------------------------

    def run(self) -> ServeReport:
        """Serve until every source is exhausted and every request has
        a terminal outcome (completed, failed, shed, or lost)."""
        if self._all_done is not None:
            raise SimulationError(
                f"a {type(self).__name__} can only run once")
        self._all_done = self.env.event()
        start = self.env.now
        if self.obs is not None:
            # Attach before anything runs so the very first fault,
            # health, or driver event already lands in the journal.
            self.obs.attach(self.engine, tenants=self.tenants)
            self.obs.start()
        self._start()
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
            self._register_gauges(registry)
            self.telemetry.start()
        self._maybe_finish()
        self.env.run(until=self._all_done)
        self._returned = True
        if self.health is not None:
            self.health.stop()
        if self.telemetry is not None:
            self.telemetry.stop()
        if self.obs is not None:
            self.obs.stop()
        report = ServeReport.from_metrics(
            self.metrics, engine_name=self.engine.name,
            tenants=sorted(self.tenants), duration_s=self.env.now - start)
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

    def _register_gauges(self, registry) -> None:
        """Register the front-end's own telemetry."""
