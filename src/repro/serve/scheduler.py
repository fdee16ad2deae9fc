"""Job-level scheduling across tenants.

The engine's :class:`~repro.engine.base.TaskPool` already shares
machines between *running* jobs (fifo/fair task policies, §3.4/§8);
this module decides which *queued* job to release next when the server
bounds its multiprogramming level.  Two orderings:

* ``WeightedFairScheduler`` -- start-time fair queueing over tenants:
  each tenant accrues virtual time (service seconds / weight) as its
  jobs finish, and the queued request of the lowest-virtual-time tenant
  runs next.  A tenant with weight 2 receives twice the long-run job
  throughput of a weight-1 tenant under contention.
* ``DeadlineScheduler`` -- earliest deadline first, where a request's
  deadline is ``arrival + slo_s``; best-effort requests (no SLO) run
  after every deadline-bearing request, in arrival order.

All tie-breaks are (arrival sequence, tenant name), so a schedule is a
deterministic function of the request stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.serve.frontend import JobRequest

__all__ = ["JobScheduler", "FifoScheduler", "WeightedFairScheduler",
           "DeadlineScheduler", "make_scheduler"]


class JobScheduler:
    """Strategy interface: order the server's admitted-but-waiting jobs."""

    def register_tenant(self, name: str, weight: float) -> None:
        """Called once per tenant before any request arrives."""

    def pick_next(self, queued: Sequence["JobRequest"]) -> "JobRequest":
        """Choose the request to dispatch next (``queued`` is non-empty)."""
        raise NotImplementedError

    def credit(self, tenant: str, service_s: float) -> None:
        """Account completed service time against a tenant."""

    def restore_virtual_time(self, tenant: str, virtual_time: float) -> None:
        """Adopt a tenant's accrued accounting from a checkpoint.

        Stateless schedulers ignore it; the fair scheduler restores the
        tenant's virtual time so a failed-over tenant keeps its place in
        the long-run share rather than restarting at zero.
        """


class FifoScheduler(JobScheduler):
    """Arrival order, tenant-blind (the degenerate baseline)."""

    def pick_next(self, queued: Sequence["JobRequest"]) -> "JobRequest":
        return min(queued, key=lambda r: r.seq)


class WeightedFairScheduler(JobScheduler):
    """Start-time fair queueing over per-tenant virtual time."""

    def __init__(self) -> None:
        self._weights: Dict[str, float] = {}
        self._virtual: Dict[str, float] = {}

    def register_tenant(self, name: str, weight: float) -> None:
        if not (weight > 0):
            raise ConfigError(f"tenant weight must be > 0: {weight}")
        self._weights[name] = weight
        self._virtual.setdefault(name, 0.0)

    def virtual_time(self, tenant: str) -> float:
        """The tenant's accrued service seconds divided by its weight."""
        return self._virtual.get(tenant, 0.0)

    def pick_next(self, queued: Sequence["JobRequest"]) -> "JobRequest":
        # Lowest-virtual-time tenant first; within a tenant, FIFO.
        return min(queued, key=lambda r: (self._virtual.get(r.tenant, 0.0),
                                          r.tenant, r.seq))

    def credit(self, tenant: str, service_s: float) -> None:
        weight = self._weights.get(tenant, 1.0)
        self._virtual[tenant] = (self._virtual.get(tenant, 0.0)
                                 + service_s / weight)

    def restore_virtual_time(self, tenant: str, virtual_time: float) -> None:
        self._virtual[tenant] = max(self._virtual.get(tenant, 0.0),
                                    virtual_time)


class DeadlineScheduler(JobScheduler):
    """Earliest deadline first; best-effort requests trail in FIFO order."""

    def pick_next(self, queued: Sequence["JobRequest"]) -> "JobRequest":
        def key(request: "JobRequest"):
            if request.slo_s is None:
                return (1, 0.0, request.seq)
            return (0, request.arrival + request.slo_s, request.seq)
        return min(queued, key=key)


_SCHEDULERS = {
    "fifo": FifoScheduler,
    "weighted_fair": WeightedFairScheduler,
    "deadline": DeadlineScheduler,
}


def make_scheduler(policy: str) -> JobScheduler:
    """Instantiate a job scheduler by policy name."""
    cls = _SCHEDULERS.get(policy)
    if cls is None:
        raise ConfigError(f"unknown serving policy {policy!r}; choose from "
                          f"{sorted(_SCHEDULERS)}")
    return cls()
