"""Unit tests for MonoSpark's internal components."""

import pytest

from repro.api.dagscheduler import DagScheduler, _JobBuilder
from repro.api.plan import Stage
from repro.cluster import hdd_cluster, ssd_cluster
from repro.config import HDD, SSD, MB
from repro.errors import SimulationError
from repro.metrics.events import PHASE_COMPUTE, PHASE_INPUT_READ
from repro.monospark.engine import MonoSparkEngine
from repro.monospark.localdag import LocalDagScheduler
from repro.monospark.monotask import ComputeMonotask, DiskMonotask
from repro.monospark.assignment import multitask_concurrency
from repro.monospark.schedulers import ResourceScheduler
from repro.simulator import Environment


def _chain(env, depth):
    """Fake monotasks where each depends on the one before it."""
    chain = [FakeMonotask(env, f"m{i}", 1.0, []) for i in range(depth)]
    for dep, monotask in zip(chain, chain[1:]):
        monotask.deps.append(dep)
    return chain


class FakeMonotask:
    """Minimal monotask for scheduler tests."""

    def __init__(self, env, phase, duration, log):
        self.env = env
        self.phase = phase
        self.duration = duration
        self.log = log
        self.deps = []
        self.done = env.event()
        self.submitted_at = None
        self.started_at = None

    def execute(self):
        yield self.env.timeout(self.duration)

    def record(self):
        self.log.append((self.phase, self.started_at, self.env.now))


class TestResourceScheduler:
    def test_respects_concurrency_limit(self):
        env = Environment()
        log = []
        scheduler = ResourceScheduler(env, concurrency=2, name="test")
        for _ in range(4):
            scheduler.submit(FakeMonotask(env, "a", 10.0, log))
        env.run()
        # Two waves of two.
        starts = sorted(start for _, start, _ in log)
        assert starts == [0.0, 0.0, 10.0, 10.0]
        assert scheduler.completed == 0 or True  # counter is optional

    def test_round_robin_alternates_phases(self):
        env = Environment()
        log = []
        scheduler = ResourceScheduler(env, concurrency=1, name="test")
        # Queue 3 reads then 3 writes while one task runs.
        for _ in range(3):
            scheduler.submit(FakeMonotask(env, "read", 1.0, log))
        for _ in range(3):
            scheduler.submit(FakeMonotask(env, "write", 1.0, log))
        env.run()
        phases = [phase for phase, _, _ in log]
        # First read runs immediately; thereafter phases alternate.
        assert phases[0] == "read"
        assert "write" in phases[1:3]  # writes are not starved
        alternations = sum(1 for a, b in zip(phases, phases[1:]) if a != b)
        assert alternations >= 3

    def test_fifo_mode_preserves_order(self):
        env = Environment()
        log = []
        scheduler = ResourceScheduler(env, concurrency=1, name="test",
                                      round_robin_phases=False)
        for phase in ("read", "read", "write", "read"):
            scheduler.submit(FakeMonotask(env, phase, 1.0, log))
        env.run()
        assert [phase for phase, _, _ in log] == ["read", "read", "write",
                                                  "read"]

    def test_queue_length_visible(self):
        env = Environment()
        scheduler = ResourceScheduler(env, concurrency=1, name="test")
        for _ in range(5):
            scheduler.submit(FakeMonotask(env, "x", 1.0, []))
        assert scheduler.queue_length == 4
        assert scheduler.max_queue_length == 4
        env.run()
        assert scheduler.queue_length == 0

    def test_queue_count_matches_queues_through_crash_and_revive(self):
        # queue_length is a running count; it must equal the recomputed
        # sum over phase queues after every submit, dispatch, crash and
        # revive.
        env = Environment()
        log = []
        scheduler = ResourceScheduler(env, concurrency=2, name="test")

        def check():
            recount = sum(len(q) for q in scheduler._queues.values())
            assert scheduler.queue_length == recount

        def submit(phase):
            monotask = FakeMonotask(env, phase, 1.0, log)
            monotask.done.defused = True  # the crash fails it, unobserved
            scheduler.submit(monotask)
            check()

        for index in range(7):
            submit(f"p{index % 3}")
        assert scheduler.queue_length == 5
        env.run(until=1.5)  # one wave done, the second running
        check()
        assert scheduler.queue_length == 3
        scheduler.fail_all()
        check()
        assert scheduler.queue_length == 0
        submit("p0")  # rejected: the machine is down
        env.run()
        scheduler.revive()
        for index in range(4):
            submit(f"p{index % 2}")
        assert scheduler.queue_length == 2
        env.run()
        check()
        assert scheduler.queue_length == 0
        assert scheduler.max_queue_length == 5

    def test_invalid_concurrency(self):
        with pytest.raises(SimulationError):
            ResourceScheduler(Environment(), concurrency=0, name="bad")


class TestLocalDagScheduler:
    def make(self, env):
        routed = []
        scheduler = LocalDagScheduler(env, route=lambda m: routed.append(m))
        return scheduler, routed

    def test_dependency_ordering(self):
        env = Environment()
        log = []
        a = FakeMonotask(env, "a", 1.0, log)
        b = FakeMonotask(env, "b", 1.0, log)
        b.deps.append(a)
        order = []
        scheduler = LocalDagScheduler(env, route=lambda m: order.append(m))
        done = scheduler.submit_multitask([a, b])
        # Only the dependency-free monotask is routed initially.
        assert order == [a]
        a.done.succeed()
        env.step()  # deliver the completion callback
        assert order == [a, b]
        b.done.succeed()
        env.run(until=done)

    def test_diamond_dependencies(self):
        env = Environment()
        a = FakeMonotask(env, "a", 1.0, [])
        b = FakeMonotask(env, "b", 1.0, [])
        c = FakeMonotask(env, "c", 1.0, [])
        d = FakeMonotask(env, "d", 1.0, [])
        b.deps.append(a)
        c.deps.append(a)
        d.deps.extend([b, c])
        order = []
        scheduler = LocalDagScheduler(env, route=lambda m: order.append(m))
        scheduler.submit_multitask([a, b, c, d])
        a.done.succeed()
        env.step()
        assert set(order[1:]) == {b, c}
        b.done.succeed()
        env.step()
        assert d not in order
        c.done.succeed()
        env.step()
        assert order[-1] is d

    def test_cycle_detected(self):
        env = Environment()
        a = FakeMonotask(env, "a", 1.0, [])
        b = FakeMonotask(env, "b", 1.0, [])
        a.deps.append(b)
        b.deps.append(a)
        scheduler = LocalDagScheduler(env, route=lambda m: None)
        with pytest.raises(SimulationError, match="cycle"):
            scheduler.submit_multitask([a, b])

    def test_deep_chain_accepted(self):
        """A 5,000-deep chain is walked without hitting the interpreter's
        recursion limit."""
        env = Environment()
        chain = _chain(env, 5000)
        scheduler = LocalDagScheduler(env, route=lambda m: None)
        scheduler.submit_multitask(chain[::-1])
        assert scheduler.monotasks_submitted == 5000

    def test_cycle_at_end_of_deep_chain_detected(self):
        env = Environment()
        chain = _chain(env, 5000)
        tail = FakeMonotask(env, "tail", 1.0, [])
        tail.deps.append(chain[0])
        chain[0].deps.append(tail)
        scheduler = LocalDagScheduler(env, route=lambda m: None)
        with pytest.raises(SimulationError, match="cycle"):
            scheduler.submit_multitask(chain[::-1] + [tail])

    def test_stages_in_order_walks_deep_lineage(self):
        """Parents first, each stage once, on a 5,000-stage chain and on
        a diamond."""
        builder = _JobBuilder(DagScheduler(), job_id=0)
        depth = 5000
        builder._stages = {
            i: Stage(0, i, [], [i + 1] if i + 1 < depth else [])
            for i in range(depth)}
        order = [stage.stage_id for stage in builder.stages_in_order(0)]
        assert order == list(range(depth - 1, -1, -1))
        builder._stages = {0: Stage(0, 0, [], [1, 2]),
                           1: Stage(0, 1, [], [3]),
                           2: Stage(0, 2, [], [3]),
                           3: Stage(0, 3, [], [])}
        order = [stage.stage_id for stage in builder.stages_in_order(0)]
        assert order == [3, 1, 2, 0]

    def test_empty_multitask_rejected(self):
        scheduler = LocalDagScheduler(Environment(), route=lambda m: None)
        with pytest.raises(SimulationError):
            scheduler.submit_multitask([])


class TestAssignmentRule:
    def test_paper_example(self):
        """4 cores + 1 HDD + 4 network + 1 extra = 10 (§3.4)."""
        cluster = hdd_cluster(num_machines=1, num_disks=1, cores=4)
        machine = cluster.machine(0)
        concurrency = multitask_concurrency(
            machine, network_limit=4, disk_concurrency=lambda spec: 1)
        assert concurrency == 10

    def test_ssd_counts_flash_concurrency(self):
        cluster = ssd_cluster(num_machines=1, num_disks=2, cores=8)
        machine = cluster.machine(0)
        concurrency = multitask_concurrency(
            machine, network_limit=4,
            disk_concurrency=lambda spec: 4 if spec.max_concurrency > 1
            else 1)
        assert concurrency == 8 + 8 + 4 + 1

    def test_engine_uses_rule(self):
        cluster = hdd_cluster(num_machines=1, cores=8, num_disks=2)
        engine = MonoSparkEngine(cluster)
        assert engine.concurrency_for(cluster.machine(0)) == 8 + 2 + 4 + 1

    def test_override(self):
        cluster = hdd_cluster(num_machines=1)
        engine = MonoSparkEngine(cluster, concurrency_override=3)
        assert engine.concurrency_for(cluster.machine(0)) == 3


class TestMonotaskExecution:
    def test_compute_monotask_charges_cpu(self):
        cluster = hdd_cluster(num_machines=1)
        engine = MonoSparkEngine(cluster)
        worker = engine.workers[0]
        monotask = ComputeMonotask(worker, PHASE_COMPUTE, (0, 0, 0),
                                   deserialize_s=1.0, op_s=2.0,
                                   serialize_s=0.5)
        assert monotask.seconds == 3.5
        worker.compute_scheduler.submit(monotask)
        cluster.env.run(until=monotask.done)
        assert cluster.env.now == pytest.approx(3.5)
        assert cluster.machine(0).cpu.total_busy_s == pytest.approx(3.5)

    def test_disk_monotask_is_write_through(self):
        cluster = hdd_cluster(num_machines=1)
        engine = MonoSparkEngine(cluster)
        worker = engine.workers[0]
        monotask = DiskMonotask(worker, PHASE_INPUT_READ, (0, 0, 0),
                                disk_index=0, nbytes=130 * MB, kind="write")
        worker.disk_schedulers[0].submit(monotask)
        cluster.env.run(until=monotask.done)
        disk = cluster.machine(0).disks[0]
        assert disk.bytes_written == 130 * MB
        # Write-through: the data hit the platter, not the buffer cache.
        assert cluster.machine(0).cache.dirty_bytes == 0
        assert cluster.env.now >= 1.0

    def test_monotask_records_queue_time(self):
        cluster = hdd_cluster(num_machines=1, cores=1)
        engine = MonoSparkEngine(cluster)
        worker = engine.workers[0]
        first = ComputeMonotask(worker, PHASE_COMPUTE, (0, 0, 0), op_s=2.0)
        second = ComputeMonotask(worker, PHASE_COMPUTE, (0, 0, 1), op_s=1.0)
        worker.compute_scheduler.submit(first)
        worker.compute_scheduler.submit(second)
        cluster.env.run()
        records = engine.metrics.monotasks
        assert records[0].queue_s == pytest.approx(0.0)
        assert records[1].queue_s == pytest.approx(2.0)
