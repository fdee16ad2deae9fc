"""Memory lifecycle tests: nothing leaks across jobs."""

import gc
import random
from collections import Counter
from types import FunctionType

import pytest

from repro.api import AnalyticsContext
from repro.cluster import ssd_cluster, hdd_cluster
from repro.config import MB
from repro.datamodel import Partition
from repro.faults import DiskFault, FaultInjector, FaultPlan, MachineCrash
from repro.simulator import Event
from repro.simulator.disk import DiskRequest
from repro.simulator.network import Flow, _Pair
from repro.workloads.ml import MlWorkload, make_ml_context, run_ml_workload


class TestInMemoryShuffleLifecycle:
    def test_ml_iterations_release_shuffle_memory(self):
        """Each iteration's in-memory shuffle is freed when its job ends:
        memory does not creep upward across iterations."""
        cluster = ssd_cluster(num_machines=4)
        ctx = make_ml_context(cluster, "monospark",
                              MlWorkload(num_row_blocks=16))
        run_ml_workload(ctx, iterations=1)
        used_after_one = sum(m.memory.used for m in cluster.machines)
        run_ml_workload(ctx, iterations=3)
        used_after_four = sum(m.memory.used for m in cluster.machines)
        # The cached matrix stays; per-iteration shuffle data does not.
        assert used_after_four == pytest.approx(used_after_one, rel=0.01)

    @pytest.mark.parametrize("engine", ["spark", "monospark"])
    def test_memory_returns_to_baseline_after_jobs(self, engine):
        cluster = hdd_cluster(num_machines=2)
        from repro.api import AnalyticsContext
        ctx = AnalyticsContext(cluster, engine=engine)
        for _ in range(3):
            (ctx.parallelize(range(100), num_partitions=8)
                .map(lambda x: (x % 5, 1))
                .reduce_by_key(lambda a, b: a + b)
                .collect())
        # No cached RDDs, no in-memory shuffles: usage returns to zero.
        assert all(m.memory.used == pytest.approx(0.0, abs=1.0)
                   for m in cluster.machines)

    def test_peak_memory_recorded(self):
        cluster = ssd_cluster(num_machines=2)
        ctx = make_ml_context(cluster, "monospark",
                              MlWorkload(num_row_blocks=8))
        run_ml_workload(ctx, iterations=1)
        assert any(m.memory.peak > 0 for m in cluster.machines)


def _sort_cluster(make_cluster, seed=3):
    """A 4-machine cluster with an 8-block DFS input to sort."""
    cluster = make_cluster(num_machines=4)
    rng = random.Random(seed)
    payloads = [Partition.from_records(
        [(rng.randint(0, 999), f"v{block}") for _ in range(40)],
        record_count=40, data_bytes=16 * MB) for block in range(8)]
    cluster.dfs.create_file("input", payloads, [16 * MB] * 8)
    return cluster


def _sort(ctx):
    return ctx.text_file("input").sort_by_key(num_partitions=4).collect()


def _local_then_remote_flow(network):
    """A local and a remote transfer alongside the job's own flows."""
    yield network.transfer(2, 2, MB, label="local")
    yield network.transfer(2, 3, MB, label="remote")


class TestNoReferenceCycles:
    """A run leaves nothing for the cyclic collector: reference counting
    alone frees every event, disk request, flow and closure it makes."""

    @pytest.mark.parametrize("make_cluster", [hdd_cluster, ssd_cluster],
                             ids=["hdd", "ssd"])
    @pytest.mark.parametrize("engine", ["spark", "monospark"])
    def test_faulted_run_leaves_no_cyclic_garbage(self, engine,
                                                  make_cluster):
        baseline = AnalyticsContext(_sort_cluster(make_cluster),
                                    engine=engine)
        expected = sorted(_sort(baseline))
        duration = baseline.last_result.duration
        del baseline
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            ctx = AnalyticsContext(_sort_cluster(make_cluster),
                                   engine=engine)
            FaultInjector(ctx.engine, FaultPlan([
                DiskFault(at=duration * 0.3, machine_id=0, disk_index=0),
                MachineCrash(at=duration * 0.5, machine_id=1,
                             restart_after=duration * 0.5),
            ])).start()
            network = ctx.cluster.network
            ctx.engine.env.process(_local_then_remote_flow(network))
            assert sorted(_sort(ctx)) == expected
            # Both faults fired and hit work in flight, and both local
            # and remote flows completed.
            assert [fault.kind for fault in ctx.metrics.faults] == [
                "disk-failure", "machine-crash", "machine-restart"]
            assert ctx.metrics.retry_count() > 0
            assert {src == dst for _, _, dst, src
                    in network.completion_log} == {True, False}
            gc.collect()
            leaked = Counter(
                type(obj).__name__ for obj in gc.garbage
                if isinstance(obj, (Event, DiskRequest, Flow, _Pair,
                                    FunctionType)))
            assert not leaked, f"cyclic garbage: {dict(leaked)}"
        finally:
            gc.set_debug(flags)
            del gc.garbage[:]
            if enabled:
                gc.enable()
