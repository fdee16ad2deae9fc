"""One driver replica: a shard-local driver loop over the shared engine.

Each :class:`DriverReplica` is a :class:`~repro.serve.frontend.Driver`
that owns the hash-ring shard of tenants the
:class:`~repro.controlplane.plane.ControlPlane` assigned it.  It adds
only what sharding needs to the shared dispatch loop: every dispatch
costs ``control_service_s`` of driver time (the serialization that
sharding across N replicas parallelizes), and dispatch is fenced by the
plane's assignment table.  The engine's task pool below is shared:
replicas shard the *control* plane, not the cluster.

A replica's life-cycle flags drive the failure semantics:

* ``down`` -- fail-stop crash: the dispatcher and every completion
  watcher are interrupted; in-flight engine jobs keep running headless
  until an adopter re-attaches watchers from the tenant checkpoint.
* ``partitioned`` -- reachable by nobody (peers or checkpoint store)
  but still alive: the membership loop will mark it ``isolated``, which
  quiesces dispatch so a healed replica never split-brains a shard it
  no longer owns.  Completion records are fenced by the request's
  ``recorded`` flag (first writer wins) and dispatch is fenced by the
  plane's assignment table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.serve.frontend import Driver, JobRequest
from repro.serve.scheduler import make_scheduler

__all__ = ["DriverReplica"]


class DriverReplica(Driver):
    """One of the plane's N drivers; see the module docstring."""

    def __init__(self, plane, driver_id: int, policy: str) -> None:
        super().__init__(plane, make_scheduler(policy))
        self.plane = plane
        self.driver_id = driver_id
        self._policy_name = policy
        # Life-cycle.
        self.down = False
        self.partitioned = False
        self.isolated = False
        #: Bumped on every return to service (restart or partition
        #: heal), so each failure of this replica is failed over once.
        self.incarnation = 0
        #: Liveness view: peer id -> last heartbeat receipt time.
        self.last_heard: Dict[int, float] = {}
        #: Peers this replica currently suspects dead.
        self.suspects: set = set()
        #: The request held by the dispatcher during its admission
        #: window (removed from the queue, not yet dispatched).
        self._admitting: Optional[JobRequest] = None
        # Counters (report face); tenant_counts is checkpointed and
        # restored with the shard.
        self.crashes = 0
        self.fenced = 0
        self.control_busy_s = 0.0

    def _front(self):
        return self.plane

    # -- state ---------------------------------------------------------------------

    @property
    def state(self) -> str:
        """The replica's life-cycle state, one word (report face)."""
        if self.down:
            return "down"
        if self.partitioned:
            return "partitioned"
        if self.isolated:
            return "isolated"
        return "up"

    def _waiting(self) -> List[JobRequest]:
        """Queued requests plus the one in its admission window: if the
        driver dies inside that window the adopter replays it from the
        checkpoint rather than losing it."""
        admitting = [self._admitting] if self._admitting is not None else []
        return self._queue + admitting

    def queue_depth(self) -> int:
        """Admitted requests waiting (the mid-admission one included)."""
        return len(self._waiting())

    def running_jobs(self) -> int:
        """Engine jobs this shard currently has in flight."""
        return len(self._running)

    def held_requests(self, tenant: Optional[str] = None
                      ) -> List[JobRequest]:
        """Every request this replica holds (queued, admitting, or
        in flight), optionally filtered to one tenant."""
        held = self._waiting() + list(self._running.values())
        if tenant is not None:
            held = [r for r in held if r.tenant == tenant]
        return held

    def tenant_state(self, tenant: str) -> Dict:
        """The tenant's checkpointable soft state, canonical order."""
        queued = sorted(r.seq for r in self._waiting() if r.tenant == tenant)
        inflight = sorted(
            [r.plan.job_id, r.seq, r.dispatched]
            for r in self._running.values() if r.tenant == tenant)
        templates = sorted({r.template_name
                            for r in self.held_requests(tenant)})
        counts = self.tenant_counts.get(tenant,
                                        {"completed": 0, "failed": 0})
        return {
            "tenant": tenant,
            "epoch": self.plane.epoch_of(tenant),
            "queued": queued,
            "inflight": inflight,
            "templates": templates,
            "virtual_time": self.scheduler.virtual_time(tenant)
            if hasattr(self.scheduler, "virtual_time") else 0.0,
            "completed": counts["completed"],
            "failed": counts["failed"],
        }

    def restore_tenant(self, tenant: str, state: Dict) -> None:
        """Adopt the checkpointed accounting for a failed-over tenant."""
        self.ensure_tenant(tenant)
        self.scheduler.restore_virtual_time(
            tenant, float(state.get("virtual_time", 0.0)))
        counts = self.tenant_counts[tenant]
        counts["completed"] = max(counts["completed"],
                                  int(state.get("completed", 0)))
        counts["failed"] = max(counts["failed"],
                               int(state.get("failed", 0)))

    # -- the shard's admission window -----------------------------------------------

    def _can_dispatch(self) -> bool:
        return not (self.down or self.isolated)

    def _admit(self, request: JobRequest):
        plane = self.plane
        if plane.owner_of(request.tenant) != self.driver_id:
            # Ownership moved (we were partitioned and the shard failed
            # over): the adopter holds the authoritative copy -- drop ours.
            self.fenced += 1
            plane.record_driver_event(
                "fenced", self.driver_id, tenant=request.tenant,
                detail=f"request {request.seq} now owned by "
                       f"driver {plane.owner_of(request.tenant)}")
            return False
        cost = plane.policy.control_service_s
        self._admitting = request
        if cost > 0:
            yield self.env.timeout(cost)
        self.control_busy_s += cost
        if plane.clarity is not None:
            plane.clarity.observe_control(self.driver_id, cost, self.env.now)
        self._admitting = None
        if self.down:
            # Crashed inside the admission window; the last checkpoint
            # still lists the request as queued, so the adopter replays
            # it.
            return False
        if self.isolated or plane.owner_of(request.tenant) != self.driver_id:
            return None
        return True

    def _dispatch(self, request: JobRequest):
        job = super()._dispatch(request)
        self.plane.register_job(request.plan.job_id, job)
        self.plane.checkpoint_tenant(self, request.tenant)
        return job

    # -- failure hooks (driven by the plane) -----------------------------------------

    def halt(self) -> None:
        """Fail-stop: interrupt the dispatcher and every watcher."""
        self.down = True
        self.crashes += 1
        if (self._dispatcher_proc is not None
                and self._dispatcher_proc.is_alive):
            self._dispatcher_proc.interrupt("driver crash")
        for watcher in list(self._watchers.values()):
            if watcher.is_alive:
                watcher.interrupt("driver crash")
        self._watchers.clear()

    def revive(self) -> None:
        """Return to service empty: sticky shards stay where they went."""
        self.down = False
        self.partitioned = False
        self.isolated = False
        self.suspects = set()
        self._reset(make_scheduler(self._policy_name))
        self._admitting = None
        self.start()
