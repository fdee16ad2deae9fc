"""The sharded multi-driver control plane over one engine.

A :class:`ControlPlane` runs ``num_drivers``
:class:`~repro.controlplane.replica.DriverReplica` instances on top of
a single engine: each replica owns the hash-ring shard of tenants the
plane assigned it and pays the per-dispatch ``control_service_s``
serialization for its shard only, so an N-driver plane admits jobs
roughly N times faster than one driver once the control plane -- not
the cluster -- is the bottleneck (the clarity aggregator's per-shard
windows make that saturation visible).

Robustness is layered on three mechanisms:

* **Membership** -- a heartbeat loop (the gossip analogue of
  :mod:`repro.health`'s task-rate heartbeats) maintains a per-replica
  liveness view; a peer silent for ``heartbeat_timeout_s`` is suspected
  dead.  A replica that can reach *no* peer marks itself isolated and
  quiesces dispatch, so a partitioned driver never split-brains a
  shard.
* **Leader election** -- bully-style: when a replica's view says the
  leader is dead, the highest-id replica alive in that view claims the
  role and bumps the leader epoch.  The leader alone owns shard
  reassignment.
* **Checkpointed failover** -- every shard mutation (enqueue, dispatch,
  completion) and a periodic sweep write the tenant's soft state to a
  replicated :class:`~repro.controlplane.checkpoint.CheckpointStore`
  riding a *dedicated* metadata network (so checkpoint traffic never
  perturbs compute-flow timing).  When the leader declares a driver
  dead it walks the dead shard tenant by tenant: the consistent-hash
  ring (minus the corpse) picks each adopter, the adopter restores the
  checkpoint, **resumes** still-running engine jobs by re-attaching
  completion watchers (the engine's attempt-tracked task pool never
  stopped them), **replays** requests that were only queued, and
  records anything unrecoverable as ``lost``.  Without a checkpoint
  the whole shard state is lost -- exactly the contrast the benchmark
  measures.

Exactly-once accounting holds through partitions because a request's
completion is fenced by its ``recorded`` flag (first writer wins) and
stale owners fence their queues against the plane's assignment table.

Submission, the dispatch loop, completion watching, ``finalize`` and
the observer life-cycle are the shared serving front-end
(:mod:`repro.serve.frontend`); this module adds only what sharding
needs on top of it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.controlplane.checkpoint import CheckpointStore
from repro.controlplane.policy import ControlPlanePolicy
from repro.controlplane.replica import DriverReplica
from repro.controlplane.report import ControlPlaneReport, FailoverSummary
from repro.controlplane.ring import HashRing
from repro.datasvc.service import DataService
from repro.errors import ConfigError, ReproError, SimulationError
from repro.metrics.events import DriverEventRecord
from repro.serve.admission import AdmissionController
from repro.serve.frontend import Driver, FrontEnd, JobRequest
from repro.simulator.network import Network
from repro.trace.spans import (LINK_FAILOVER_RESUME, SPAN_FAILOVER,
                               SpanLink, SpanRecord)

__all__ = ["ControlPlane"]


class ControlPlane(FrontEnd):
    """N driver replicas sharding tenants over one engine.

    Usage::

        ctx = AnalyticsContext(cluster, engine="monospark")
        plane = ControlPlane(ctx, num_drivers=4)
        plane.add_tenant("interactive", slo_s=30.0)
        plane.add_workload("interactive", template,
                           PoissonArrivals(2.0, horizon_s=120))
        report = plane.run()
        print(report.format())

    ``config`` is a :class:`ControlPlanePolicy`; ``scheduling`` names
    the per-replica job scheduler ("weighted_fair", "fifo",
    "deadline").  ``health``, ``telemetry``, ``clarity`` and ``obs``
    are the shared front-end's optional observers; ``obs`` is attached
    at :meth:`run`, after ``engine.controlplane`` is set, so its
    per-driver liveness gauges and driver-down rule exist.
    """

    _stream = "controlplane"

    # The shared path, bound on this class too: perfbench's per-layer
    # ledger wraps the plane's own ``submit`` and ``finalize``, so the
    # one-driver JobServer's calls are not charged to the plane.
    submit = FrontEnd.submit
    finalize = FrontEnd.finalize

    def __init__(self, ctx, num_drivers: int = 2,
                 config: Optional[ControlPlanePolicy] = None,
                 admission: Optional[AdmissionController] = None,
                 scheduling: str = "weighted_fair", seed: int = 0,
                 health=None, telemetry=None, clarity=None,
                 obs=None) -> None:
        if num_drivers < 1:
            raise ConfigError(f"num_drivers must be >= 1: {num_drivers}")
        super().__init__(ctx, admission=admission, seed=seed, health=health,
                         telemetry=telemetry, clarity=clarity, obs=obs)
        self.policy = config if config is not None else ControlPlanePolicy()
        self.num_drivers = num_drivers
        self.drivers: List[DriverReplica] = [
            DriverReplica(self, i, scheduling) for i in range(num_drivers)]
        self.ring = HashRing(vnodes=self.policy.vnodes)
        for i in range(num_drivers):
            self.ring.add(i)
        #: tenant -> owning driver id (sticky; changed only by failover).
        self.assignment: Dict[str, int] = {}
        #: tenant -> ownership epoch (bumped per reassignment).
        self.epochs: Dict[str, int] = {}
        self.leader_id = num_drivers - 1
        self.leader_epoch = 0
        # Checkpoint tier: its own Network so metadata flows never
        # re-bank compute-flow shares (float-exact timing either way).
        self.store: Optional[CheckpointStore] = None
        self._driver_fabric: Dict[int, int] = {}
        if self.policy.checkpoint:
            self.cp_network = Network(self.env)
            service = DataService(
                ctx.cluster, num_nodes=self.policy.checkpoint_nodes,
                replication=self.policy.checkpoint_replication,
                network=self.cp_network)
            service.attach_engine(ctx.engine)
            self.store = CheckpointStore(service)
            base = ctx.cluster.num_machines + self.policy.checkpoint_nodes
            bps = ctx.cluster.spec.network_bps
            for i in range(num_drivers):
                self.cp_network.register_machine(base + i, up_bps=bps,
                                                 down_bps=bps)
                self._driver_fabric[i] = base + i
        # Sharding state.
        #: seq -> request: the canonical handle an adopter resumes.
        self._requests: Dict[int, JobRequest] = {}
        #: engine job id -> driver process (survives driver crashes).
        self._job_procs: Dict[int, object] = {}
        #: tenant -> requests buffered while the shard owner is
        #: unreachable (clients retrying until failover or heal).
        self._orphans: Dict[str, List[JobRequest]] = {}
        self._handled: set = set()
        # Counters (telemetry / report face).
        self.elections = 0
        self.tenants_reassigned = 0
        self.jobs_resumed = 0
        self.jobs_replayed = 0
        self.jobs_lost = 0
        self.orphaned = 0
        self.failovers: List[FailoverSummary] = []
        # The engine-side attach point (mirrors engine.datasvc): fault
        # injection and telemetry chaining find the plane here.
        self.engine.controlplane = self

    # -- routing -------------------------------------------------------------------

    def _owner(self, tenant: str) -> Driver:
        if tenant not in self.assignment:
            # A new tenant: place it on the ring.
            self.assignment[tenant] = self.ring.assign(tenant)
            self.epochs[tenant] = 0
        return self._driver(self.assignment[tenant])

    def _shard(self, driver_id: int) -> List[str]:
        """The tenants ``driver_id`` owns, in canonical order."""
        return sorted(t for t, owner in self.assignment.items()
                      if owner == driver_id)

    # -- lookups -------------------------------------------------------------------

    def owner_of(self, tenant: str) -> int:
        """The driver id currently owning ``tenant`` (-1 = unknown)."""
        return self.assignment.get(tenant, -1)

    def epoch_of(self, tenant: str) -> int:
        """The tenant's ownership epoch (bumped per reassignment)."""
        return self.epochs.get(tenant, 0)

    def driver_is_down(self, driver_id: int) -> bool:
        """Whether the driver has fail-stopped (FaultInjector guard)."""
        return self._driver(driver_id).down

    def driver_is_partitioned(self, driver_id: int) -> bool:
        """Whether the driver is partitioned (FaultInjector guard)."""
        return self._driver(driver_id).partitioned

    @property
    def live_driver_count(self) -> int:
        """Driver replicas currently up (partitioned still counts)."""
        return sum(1 for d in self.drivers if not d.down)

    def _driver(self, driver_id: int) -> DriverReplica:
        if not (0 <= driver_id < self.num_drivers):
            raise SimulationError(f"no driver {driver_id}")
        return self.drivers[driver_id]

    def register_job(self, job_id: int, driver_proc) -> None:
        """Remember the engine process behind a job (failover resume)."""
        self._job_procs[job_id] = driver_proc

    def record_driver_event(self, kind: str, driver_id: int,
                            peer_id: int = -1, tenant: str = "",
                            detail: str = "") -> None:
        """Record one membership/election/failover event, timestamped."""
        self.metrics.record_driver(DriverEventRecord(
            kind=kind, driver_id=driver_id, at=self.env.now,
            peer_id=peer_id, tenant=tenant, detail=detail))

    # -- submission ----------------------------------------------------------------

    def _place(self, owner: DriverReplica, request: JobRequest) -> None:
        """Route an admitted request to its shard owner."""
        self._requests[request.seq] = request
        if owner.down or owner.partitioned:
            if owner.down and not self.policy.failover:
                self._lose(request, f"driver {owner.driver_id} down with "
                                    f"failover disabled")
            else:
                # The client keeps retrying until failover (or a heal)
                # installs a reachable owner.
                self._orphans.setdefault(request.tenant, []).append(request)
                self.orphaned += 1
        else:
            owner.enqueue(request)
            self.checkpoint_tenant(owner, request.tenant)

    # -- completion accounting -----------------------------------------------------

    def _finalized(self, driver: DriverReplica, request: JobRequest) -> None:
        self.checkpoint_tenant(driver, request.tenant)

    def _lose(self, request: JobRequest, reason: str) -> None:
        """Give up on a request: no surviving state can complete it."""
        if request.recorded:
            return
        self.jobs_lost += 1
        self._settle(request, "lost", reason)
        self.record_driver_event("lost", self.owner_of(request.tenant),
                                 tenant=request.tenant,
                                 detail=f"request {request.seq}: {reason}")
        self._outstanding -= 1
        self._maybe_finish()

    # -- checkpointing -------------------------------------------------------------

    def checkpoint_tenant(self, driver: DriverReplica,
                          tenant: str) -> None:
        """Persist a tenant's shard state (fire-and-forget).

        The content is committed at issue time; the write process only
        models the metadata-tier I/O, so checkpointing on vs off leaves
        job timing identical.  A partitioned driver cannot reach the
        store, so its post-partition mutations are (deliberately) not
        durable.
        """
        if self.store is None or driver.down or driver.partitioned:
            return
        if self.owner_of(tenant) != driver.driver_id:
            return
        state = driver.tenant_state(tenant)
        self.env.process(self._write_checkpoint(driver.driver_id, tenant,
                                                state))

    def _write_checkpoint(self, driver_id: int, tenant: str, state: Dict):
        try:
            yield from self.store.write(self._driver_fabric[driver_id],
                                        tenant, state)
        except ReproError:
            self.store.write_failures += 1

    def _sweep(self):
        while True:
            yield self.env.timeout(self.policy.checkpoint_interval_s)
            for driver in self.drivers:
                for tenant in self._shard(driver.driver_id):
                    self.checkpoint_tenant(driver, tenant)

    # -- membership, election, failover ----------------------------------------------

    def _reachable(self, listener: DriverReplica,
                   sender: DriverReplica) -> bool:
        if sender.down:
            return False
        if sender is listener:
            return True
        return not (listener.partitioned or sender.partitioned)

    def _membership(self):
        interval = self.policy.heartbeat_interval_s
        while True:
            yield self.env.timeout(interval)
            now = self.env.now
            for d in self.drivers:
                if d.down:
                    continue
                for peer in self.drivers:
                    if self._reachable(d, peer):
                        d.last_heard[peer.driver_id] = now
            for d in self.drivers:
                if not d.down:
                    self._evaluate_view(d, now)

    def _evaluate_view(self, d: DriverReplica, now: float) -> None:
        timeout = self.policy.heartbeat_timeout_s
        suspected = set()
        for peer in self.drivers:
            if peer.driver_id == d.driver_id:
                continue
            heard = d.last_heard.get(peer.driver_id, float("-inf"))
            stale = now - heard > timeout
            was = peer.driver_id in d.suspects
            if stale and not was:
                d.suspects.add(peer.driver_id)
                self.record_driver_event(
                    "heartbeat-miss", d.driver_id, peer_id=peer.driver_id,
                    detail=f"silent {now - heard:.1f}s")
            elif not stale and was:
                d.suspects.discard(peer.driver_id)
                self.record_driver_event("heartbeat-restore", d.driver_id,
                                         peer_id=peer.driver_id)
            if stale:
                suspected.add(peer.driver_id)
        if self.num_drivers > 1:
            # "All peers unreachable" is ambiguous: am I partitioned, or
            # did everyone else crash?  The metadata fabric is the
            # witness that disambiguates -- a driver that can still
            # renew its lease there (i.e. is not partitioned) keeps
            # serving; one that cannot quiesces rather than split-brain
            # the shards it may no longer own.
            lease_lost = d.partitioned
            if len(suspected) == self.num_drivers - 1 and lease_lost:
                if not d.isolated:
                    d.isolated = True
                    self.record_driver_event(
                        "isolated", d.driver_id,
                        detail="no reachable peers and no witness lease; "
                               "dispatch quiesced")
                return
            if d.isolated and not lease_lost:
                d.isolated = False
                self.record_driver_event("rejoin", d.driver_id)
                d.kick()
        if self.leader_id in suspected:
            winner = max(i for i in range(self.num_drivers)
                         if i not in suspected)
            if winner == d.driver_id and self.leader_id != d.driver_id:
                self.leader_epoch += 1
                self.elections += 1
                self.leader_id = d.driver_id
                self.record_driver_event(
                    "election", d.driver_id,
                    detail=f"epoch {self.leader_epoch}")
                self.record_driver_event(
                    "leader", d.driver_id,
                    detail=f"epoch {self.leader_epoch}")
        if self.leader_id == d.driver_id and self.policy.failover:
            for peer_id in sorted(suspected):
                key = (peer_id, self.drivers[peer_id].incarnation)
                if key in self._handled:
                    continue
                self._handled.add(key)
                self.env.process(self._failover(self.drivers[peer_id]))

    def _failover(self, dead: DriverReplica):
        """Leader-driven shard recovery for one declared-dead driver."""
        detect = self.env.now
        incarnation = dead.incarnation
        span_id = self.metrics.new_span_id()
        if dead.driver_id in self.ring and len(self.ring) > 1:
            self.ring.remove(dead.driver_id)
        shard = self._shard(dead.driver_id)
        resumed = replayed = lost = restored = 0
        adopters: Dict[str, int] = {}
        for tenant in shard:
            adopter_id = self.ring.assign(tenant)
            self.assignment[tenant] = adopter_id
            self.epochs[tenant] = self.epochs.get(tenant, 0) + 1
            self.tenants_reassigned += 1
            adopters[tenant] = adopter_id
            self.record_driver_event(
                "reassign", adopter_id, peer_id=dead.driver_id,
                tenant=tenant, detail=f"epoch {self.epochs[tenant]}")
            r, p, l, rs = yield from self._adopt(
                dead, self.drivers[adopter_id], tenant, span_id)
            resumed += r
            replayed += p
            lost += l
            restored += rs
        end = self.env.now
        self.metrics.record_span(SpanRecord(
            span_id=span_id, trace_id="controlplane", parent_id=None,
            kind=SPAN_FAILOVER, name=f"failover:driver{dead.driver_id}",
            start=detect, end=end,
            attrs={"dead_driver": dead.driver_id,
                   "tenants": len(shard), "resumed": resumed,
                   "replayed": replayed, "lost": lost,
                   "restored_checkpoints": restored}))
        self.failovers.append(FailoverSummary(
            at=detect, completed_at=end, dead_driver=dead.driver_id,
            incarnation=incarnation, tenants=tuple(shard),
            adopters=adopters, resumed=resumed, replayed=replayed,
            lost=lost, restored=restored))
        self._maybe_finish()

    def _adopt(self, dead: DriverReplica, adopter: DriverReplica,
               tenant: str, span_id: int):
        """Move one tenant to ``adopter``, restoring its checkpoint."""
        state = None
        if self.store is not None:
            try:
                state = yield from self.store.read(
                    self._driver_fabric[adopter.driver_id], tenant)
            except ReproError:
                state = None
        resumed = replayed = lost = 0
        restored = 0
        adopter.ensure_tenant(tenant)
        if state is None:
            # Nothing durable: the shard's queued and in-flight
            # requests die with the driver.
            for request in dead.held_requests(tenant):
                if not request.recorded:
                    self._lose(request, f"driver {dead.driver_id} died "
                                        f"without a checkpoint")
                    lost += 1
        else:
            restored = 1
            self.record_driver_event(
                "checkpoint-restore", adopter.driver_id,
                peer_id=dead.driver_id, tenant=tenant,
                detail=f"{len(state['queued'])} queued, "
                       f"{len(state['inflight'])} in flight")
            adopter.restore_tenant(tenant, state)
            # In-flight jobs resume and queued requests replay -- unless
            # the partitioned owner dispatched one after its last
            # durable checkpoint (split-brain): the running job is then
            # adopted instead of replaying a duplicate.
            pending = [(seq, job_id, f"job {job_id}")
                       for job_id, seq, _ in state["inflight"]]
            pending += [(seq, None, f"request {seq}")
                        for seq in state["queued"]]
            for seq, job_id, what in pending:
                request = self._requests.get(seq)
                if request is None or request.recorded:
                    continue
                if job_id is None and request.plan is not None:
                    job_id = request.plan.job_id
                job = self._job_procs.get(job_id)
                if job is not None:
                    self._resume(adopter, dead, request, job_id, job,
                                 span_id)
                    resumed += 1
                elif self._replay(adopter, dead, request):
                    replayed += 1
                else:
                    self._lose(request, f"{what} unrecoverable after "
                                        f"driver {dead.driver_id} failure")
                    lost += 1
        for request in self._orphans.pop(tenant, []):
            adopter.enqueue(request)
        adopter.kick()
        return resumed, replayed, lost, restored

    def _resume(self, adopter: DriverReplica, dead: DriverReplica,
                request: JobRequest, job_id: int, driver_proc,
                span_id: int) -> None:
        """Re-attach a still-running engine job to the adopter."""
        adopter.attach(request, driver_proc)
        self.jobs_resumed += 1
        self.record_driver_event(
            "resume", adopter.driver_id, peer_id=dead.driver_id,
            tenant=request.tenant, detail=f"job {job_id}")
        roots = self.metrics.spans_for_job(job_id)
        if roots:
            self.metrics.record_link(SpanLink(
                from_span_id=span_id, to_span_id=roots[0].span_id,
                kind=LINK_FAILOVER_RESUME, trace_id=roots[0].trace_id,
                at=self.env.now,
                detail=f"driver {dead.driver_id} -> "
                       f"driver {adopter.driver_id}"))

    def _replay(self, adopter: DriverReplica, dead: DriverReplica,
                request: JobRequest) -> bool:
        """Re-queue a never-completed request at the adopter."""
        if request.template is not None:
            request.plan = None  # fresh job/shuffle ids on redispatch
        elif request.plan is None:
            return False
        adopter.enqueue(request)
        self.jobs_replayed += 1
        self.record_driver_event(
            "replay", adopter.driver_id, peer_id=dead.driver_id,
            tenant=request.tenant, detail=f"request {request.seq}")
        return True

    # -- fault entry points (FaultInjector API) --------------------------------------

    def crash_driver(self, driver_id: int) -> None:
        """Fail-stop one driver replica."""
        driver = self._driver(driver_id)
        if driver.down:
            raise SimulationError(f"driver {driver_id} is already down")
        self.record_driver_event("driver-crash", driver_id)
        driver.halt()
        if not self.policy.failover:
            for request in driver.held_requests():
                self._lose(request, f"driver {driver_id} crashed with "
                                    f"failover disabled")
            driver._reset(driver.scheduler)
            driver._admitting = None
        self._maybe_finish()

    def restart_driver(self, driver_id: int) -> None:
        """Bring a crashed driver back, empty (shards stay adopted)."""
        driver = self._driver(driver_id)
        if not driver.down:
            raise SimulationError(f"driver {driver_id} is not down")
        driver.revive()
        self._rejoin(driver, "driver-restart")

    def partition_driver(self, driver_id: int) -> None:
        """Cut one driver off from its peers and the checkpoint store."""
        driver = self._driver(driver_id)
        if driver.down:
            raise SimulationError(f"driver {driver_id} is down")
        if driver.partitioned:
            raise SimulationError(
                f"driver {driver_id} is already partitioned")
        driver.partitioned = True
        self.record_driver_event("driver-partition", driver_id)

    def heal_driver(self, driver_id: int) -> None:
        """Heal a partition; the driver rejoins with a fresh view."""
        driver = self._driver(driver_id)
        if not driver.partitioned:
            raise SimulationError(f"driver {driver_id} is not partitioned")
        driver.partitioned = False
        self._rejoin(driver, "partition-heal")
        driver.kick()

    def _rejoin(self, driver: DriverReplica, kind: str) -> None:
        """Return a driver to service with a fresh liveness view; it
        takes over the orphans buffered for the shard it still owns."""
        driver.incarnation += 1
        driver.last_heard = {peer: self.env.now
                             for peer in range(self.num_drivers)}
        if driver.driver_id not in self.ring:
            self.ring.add(driver.driver_id)
        self.record_driver_event(
            kind, driver.driver_id,
            detail=f"incarnation {driver.incarnation}")
        for tenant in self._shard(driver.driver_id):
            for request in self._orphans.pop(tenant, []):
                driver.enqueue(request)

    # -- telemetry -----------------------------------------------------------------

    def register_telemetry(self, registry) -> None:
        """Register the plane's gauges and counters (labeled per driver)."""
        engine = self.engine.name
        registry.gauge("repro_cp_live_drivers",
                       "Driver replicas currently up",
                       lambda: float(self.live_driver_count), engine=engine)
        registry.gauge("repro_cp_leader",
                       "Current leader's driver id",
                       lambda: float(self.leader_id), engine=engine)
        registry.counter("repro_cp_elections",
                         "Leader elections after the initial choice",
                         lambda: float(self.elections), engine=engine)
        registry.counter("repro_cp_tenants_reassigned",
                         "Tenant shards moved by failover",
                         lambda: float(self.tenants_reassigned),
                         engine=engine)
        registry.counter("repro_cp_jobs_resumed",
                         "In-flight jobs adopted without re-execution",
                         lambda: float(self.jobs_resumed), engine=engine)
        registry.counter("repro_cp_jobs_replayed",
                         "Queued requests re-dispatched after failover",
                         lambda: float(self.jobs_replayed), engine=engine)
        registry.counter("repro_cp_jobs_lost",
                         "Requests lost to unrecovered driver failures",
                         lambda: float(self.jobs_lost), engine=engine)
        if self.store is not None:
            store = self.store
            registry.counter("repro_cp_checkpoints",
                             "Tenant checkpoint writes issued",
                             lambda: float(store.writes), engine=engine)
            registry.counter("repro_cp_checkpoint_bytes",
                             "Bytes of tenant checkpoints written",
                             lambda: store.bytes_written, engine=engine)
            registry.counter("repro_cp_checkpoint_restores",
                             "Checkpoint restores during failover",
                             lambda: float(store.restores), engine=engine)
        for driver in self.drivers:
            registry.gauge("repro_cp_queued_requests",
                           "Admitted requests waiting in one shard",
                           driver.queue_depth, engine=engine,
                           driver=str(driver.driver_id))
            registry.gauge("repro_cp_running_jobs",
                           "Jobs one shard has in flight",
                           driver.running_jobs, engine=engine,
                           driver=str(driver.driver_id))

    # -- driving -------------------------------------------------------------------

    def _start(self) -> None:
        self.record_driver_event("leader", self.leader_id,
                                 detail="initial (highest id)")
        for driver in self.drivers:
            driver.last_heard = {peer: self.env.now
                                 for peer in range(self.num_drivers)}
            driver.start()
        super()._start()
        self.env.process(self._membership())
        if self.store is not None:
            self.env.process(self._sweep())

    def run(self) -> ControlPlaneReport:
        """Serve (see :meth:`FrontEnd.run`); adds the plane's view."""
        serve = super().run()
        counters = {
            "elections": float(self.elections),
            "leader_epoch": float(self.leader_epoch),
            "tenants_reassigned": float(self.tenants_reassigned),
            "jobs_resumed": float(self.jobs_resumed),
            "jobs_replayed": float(self.jobs_replayed),
            "jobs_lost": float(self.jobs_lost),
            "requests_orphan_buffered": float(self.orphaned),
        }
        if self.store is not None:
            counters.update(self.store.stats())
        per_driver = []
        for d in self.drivers:
            per_driver.append({
                "driver": d.driver_id,
                "state": d.state,
                "tenants": len(self._shard(d.driver_id)),
                "dispatched": d.dispatched,
                "completed": d.completed,
                "failed": d.failed,
                "fenced": d.fenced,
                "crashes": d.crashes,
                "control_busy_s": d.control_busy_s,
            })
        return ControlPlaneReport(
            serve=serve, num_drivers=self.num_drivers,
            leader_id=self.leader_id, leader_epoch=self.leader_epoch,
            assignment=dict(sorted(self.assignment.items())),
            per_driver=per_driver, counters=counters,
            failovers=list(self.failovers),
            events=list(self.metrics.driver_events))
