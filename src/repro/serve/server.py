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

The server is the one-driver case of the shared serving front-end
(:mod:`repro.serve.frontend`): it is both the front-end and its only
driver.  With no admission controller, a weight-1 tenant, and a single
submitted plan, it reduces exactly to ``engine.run_job`` -- serving is
a layer over the batch engines, not a fork of them.
"""

from __future__ import annotations

from typing import Optional

from repro.api.context import AnalyticsContext
from repro.errors import ConfigError
from repro.serve.admission import AdmissionController
from repro.serve.frontend import Driver, FrontEnd, JobRequest, Tenant
from repro.serve.scheduler import make_scheduler

__all__ = ["Tenant", "JobRequest", "JobServer"]


class JobServer(FrontEnd, Driver):
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

    ``policy`` names the job scheduler ("weighted_fair", "fifo",
    "deadline").  ``max_concurrent_jobs`` bounds the multiprogramming
    level: queued requests beyond it wait for a running job to finish,
    ordered by the job scheduler.  ``None`` releases every admitted
    request immediately (the engine's task pool then shares machines
    between them).  ``health``, ``telemetry``, ``clarity`` and ``obs``
    are the front-end's optional observers (:class:`FrontEnd`).
    """

    def __init__(self, ctx: AnalyticsContext,
                 admission: Optional[AdmissionController] = None,
                 policy: str = "weighted_fair",
                 max_concurrent_jobs: Optional[int] = None,
                 seed: int = 0, health=None, telemetry=None,
                 clarity=None, obs=None) -> None:
        if max_concurrent_jobs is not None and max_concurrent_jobs < 1:
            raise ConfigError(
                f"max_concurrent_jobs must be >= 1: {max_concurrent_jobs}")
        FrontEnd.__init__(self, ctx, admission=admission, seed=seed,
                          health=health, telemetry=telemetry,
                          clarity=clarity, obs=obs)
        Driver.__init__(self, self, make_scheduler(policy))
        self.max_concurrent_jobs = max_concurrent_jobs

    def _owner(self, tenant: str) -> Driver:
        return self

    def _front(self) -> FrontEnd:
        return self

    def _start(self) -> None:
        super()._start()
        self.start()

    def _register_gauges(self, registry) -> None:
        registry.gauge(
            "repro_serve_queued_requests",
            "Admitted requests waiting for the job scheduler",
            lambda: len(self._queue), engine=self.engine.name)
        registry.gauge(
            "repro_serve_running_jobs",
            "Jobs currently executing on the engine",
            lambda: len(self._running), engine=self.engine.name)

    def _can_dispatch(self) -> bool:
        return (self.max_concurrent_jobs is None
                or len(self._running) < self.max_concurrent_jobs)

    # The one driver ends the run from its dispatcher, which then exits;
    # a source ending or a request settling only wakes it.  (The plane
    # ends its run from finalize and its replicas never exit.)  Each
    # path keeps the kernel event sequence it has always had.
    def _maybe_finish(self) -> None:
        self.kick()

    def _stop(self) -> bool:
        return self._finish_if_idle()
