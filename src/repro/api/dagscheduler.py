"""Compiles an RDD lineage into stages of task descriptors.

Works exactly like Spark's DAGScheduler (§2.1): walk the lineage from the
action backwards, cut it at shuffle dependencies, fuse each narrow chain
into a single stage, and emit one task per partition with locality
preferences.  Both engines consume the identical plan -- the paper's
claim that decomposition into monotasks "can be done internally by the
framework without changing the existing API" (§3.2) corresponds to this
shared compilation step.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.api.ops import MapOp, PhysicalOp
from repro.api.plan import (CachedInput, CacheSpec, DfsInput, JobPlan,
                            LocalInput, ShuffleDep, ShuffleInput,
                            ShuffleOutput, Stage, TaskDescriptor)
from repro.api.rdd import (DfsFileRDD, NarrowRDD, ParallelizedRDD, RDD,
                           ShuffledRDD, UnionRDD)
from repro.datamodel.serialization import PLAIN
from repro.errors import PlanError

__all__ = ["DagScheduler"]


class DagScheduler:
    """Stateful compiler: one instance per context."""

    def __init__(self, block_manager: Optional[Any] = None,
                 shuffle_in_memory: bool = False) -> None:
        #: Engine block manager consulted for already-cached partitions.
        self.block_manager = block_manager
        #: Keep shuffle buckets in memory instead of on disk (ML workload).
        self.shuffle_in_memory = shuffle_in_memory
        self._next_shuffle_id = 0
        self._next_job_id = 0

    # -- public entry point -------------------------------------------------------

    def compile(self, rdd: RDD, output: Any, name: str = "") -> JobPlan:
        """Build the stage DAG that computes ``rdd`` into ``output``."""
        job_id = self.allocate_job_id()
        builder = _JobBuilder(self, job_id)
        final_stage_id = builder.build_result_stage(rdd, output)
        stages = builder.stages_in_order(final_stage_id)
        return JobPlan(job_id=job_id, stages=stages, name=name)

    def allocate_job_id(self) -> int:
        """Globally unique job id (used by plan-template instantiation)."""
        job_id = self._next_job_id
        self._next_job_id += 1
        return job_id

    def allocate_shuffle_id(self) -> int:
        """Globally unique shuffle id (unique across jobs)."""
        shuffle_id = self._next_shuffle_id
        self._next_shuffle_id += 1
        return shuffle_id


class _JobBuilder:
    """Per-job compilation state."""

    def __init__(self, scheduler: DagScheduler, job_id: int) -> None:
        self.scheduler = scheduler
        self.job_id = job_id
        self._stages: Dict[int, Stage] = {}
        self._next_stage_id = 0
        #: ShuffledRDD id -> (shuffle_id, map stage ids) already compiled,
        #: so diamond lineages reuse the same map stages.
        self._shuffles_built: Dict[int, Tuple[int, List[int]]] = {}

    # -- stage construction ----------------------------------------------------------

    def build_result_stage(self, rdd: RDD, output: Any) -> int:
        return self._build_stage(rdd, output)

    def _build_stage(self, rdd: RDD, output: Any) -> int:
        """Compile the stage whose final RDD is ``rdd``."""
        chain, cache_specs, boundary = self._walk_narrow_chain(rdd)
        stage_id = self._allocate_stage_id()
        cache = cache_specs[-1] if cache_specs else None
        if len(cache_specs) > 1:
            # Multiple cache points in one fused chain: honor them all by
            # keeping only the last as a CacheSpec is lossy, so refuse.
            raise PlanError("at most one cache() point per narrow chain is "
                            "supported; insert an action between them")
        tasks, parent_stage_ids = self._tasks_for_boundary(
            boundary, list(chain), stage_id, output, cache, index_offset=0)
        stage = Stage(job_id=self.job_id, stage_id=stage_id, tasks=tasks,
                      parent_stage_ids=sorted(set(parent_stage_ids)),
                      name=self._stage_name(boundary, output))
        self._stages[stage_id] = stage
        return stage_id

    def _tasks_for_boundary(self, boundary: Any, chain: List[PhysicalOp],
                            stage_id: int, output: Any,
                            cache: Optional[CacheSpec],
                            index_offset: int
                            ) -> Tuple[List[TaskDescriptor], List[int]]:
        """Build one boundary's tasks, recursing through unions."""
        parent_stage_ids: List[int] = []
        tasks: List[TaskDescriptor] = []

        if isinstance(boundary, _CachedBoundary):
            for index in range(boundary.rdd.num_partitions):
                machine = self._cached_location(boundary.rdd, index)
                tasks.append(TaskDescriptor(
                    job_id=self.job_id, stage_id=stage_id,
                    index=index_offset + index,
                    input=CachedInput(boundary.rdd.rdd_id, index,
                                      boundary.rdd.cache_fmt),
                    chain=list(chain), output=output, cache=cache,
                    preferred_machines=[machine] if machine is not None
                    else []))
        elif isinstance(boundary, DfsFileRDD):
            dfs_file = boundary.ctx.cluster.dfs.get_file(boundary.file_name)
            for index, block in enumerate(dfs_file.blocks):
                tasks.append(TaskDescriptor(
                    job_id=self.job_id, stage_id=stage_id,
                    index=index_offset + index,
                    input=DfsInput(block, boundary.fmt),
                    chain=list(chain), output=output, cache=cache,
                    preferred_machines=block.machines()))
        elif isinstance(boundary, ParallelizedRDD):
            for index, partition in enumerate(boundary.partitions):
                tasks.append(TaskDescriptor(
                    job_id=self.job_id, stage_id=stage_id,
                    index=index_offset + index,
                    input=LocalInput(partition),
                    chain=list(chain), output=output, cache=cache))
        elif isinstance(boundary, UnionRDD):
            # A union stage holds every branch's tasks side by side, each
            # with its branch's narrow chain fused in front of the shared
            # suffix.
            for parent in boundary.parents:
                sub_chain, sub_caches, sub_boundary = \
                    self._walk_narrow_chain(parent)
                if sub_caches:
                    raise PlanError(
                        "cache() inside a union branch is not supported; "
                        "materialize the branch with an action first")
                branch_cache = cache
                if branch_cache is not None:
                    branch_cache = CacheSpec(
                        rdd_id=branch_cache.rdd_id,
                        after_ops=branch_cache.after_ops + len(sub_chain),
                        fmt=branch_cache.fmt)
                branch_tasks, branch_parents = self._tasks_for_boundary(
                    sub_boundary, list(sub_chain) + list(chain), stage_id,
                    output, branch_cache,
                    index_offset=index_offset + len(tasks))
                tasks.extend(branch_tasks)
                parent_stage_ids.extend(branch_parents)
        elif isinstance(boundary, ShuffledRDD):
            deps = []
            for side, parent in enumerate(boundary.parents):
                shuffle_id, map_stage_ids = self._build_shuffle_map_stages(
                    boundary, side, parent)
                parent_stage_ids.extend(map_stage_ids)
                deps.append(ShuffleDep(
                    shuffle_id=shuffle_id,
                    num_maps=parent.num_partitions,
                    side=side, fmt=PLAIN))
            reduce_chain = list(boundary.post_shuffle_ops) + list(chain)
            # Cache point offsets were computed relative to the narrow
            # chain; shift them past the reduce-side ops.
            if cache is not None:
                cache = CacheSpec(
                    rdd_id=cache.rdd_id,
                    after_ops=cache.after_ops
                    + len(boundary.post_shuffle_ops),
                    fmt=cache.fmt)
            for index in range(boundary.num_partitions):
                tasks.append(TaskDescriptor(
                    job_id=self.job_id, stage_id=stage_id,
                    index=index_offset + index,
                    input=ShuffleInput(deps=list(deps), reduce_index=index,
                                       tagged=boundary.is_cogroup),
                    chain=list(reduce_chain), output=output, cache=cache))
        else:
            raise PlanError(f"unsupported stage boundary: {boundary!r}")
        return tasks, parent_stage_ids

    def _build_shuffle_map_stages(self, shuffled: ShuffledRDD, side: int,
                                  parent: RDD) -> Tuple[int, List[int]]:
        """Compile (or reuse) the map stage feeding one side of a shuffle."""
        key = (shuffled.rdd_id, side)
        if key in self._shuffles_built:
            return self._shuffles_built[key]
        shuffle_id = self.scheduler.allocate_shuffle_id()
        map_output = ShuffleOutput(
            shuffle_id=shuffle_id, partitioner=shuffled.partitioner,
            fmt=PLAIN, in_memory=self.scheduler.shuffle_in_memory)
        map_stage_id = self._build_stage(parent, map_output)
        # Map-side pre-shuffle ops (combining, cogroup tagging) run at the
        # end of the map stage's chain.
        extra_ops = list(shuffled.pre_shuffle_ops[side])
        if shuffled.is_cogroup:
            extra_ops.append(_tag_op(side))
        if extra_ops:
            for task in self._stages[map_stage_id].tasks:
                task.chain = task.chain + extra_ops
        result = (shuffle_id, [map_stage_id])
        self._shuffles_built[key] = result
        return result

    # -- narrow chain walking ----------------------------------------------------------

    def _walk_narrow_chain(
            self, rdd: RDD) -> Tuple[List[PhysicalOp], List[CacheSpec], Any]:
        """Fuse narrow ops from a boundary up to ``rdd``.

        Returns ``(ops, cache specs, boundary)``.  The boundary is the
        source RDD, a ShuffledRDD, or a ``_CachedBoundary`` when an
        already-materialized cached RDD short-circuits the walk.
        """
        reversed_ops: List[PhysicalOp] = []
        cache_rdds: List[Tuple[RDD, int]] = []  # (rdd, ops below it)
        current: RDD = rdd
        while True:
            if current.cached and self._is_materialized(current):
                boundary: Any = _CachedBoundary(current)
                break
            if isinstance(current, NarrowRDD):
                if current.cached:
                    cache_rdds.append((current, len(reversed_ops)))
                reversed_ops.append(current.op)
                current = current.parent
                continue
            boundary = current
            if current.cached:
                cache_rdds.append((current, len(reversed_ops)))
            break
        ops = list(reversed(reversed_ops))
        cache_specs = [
            CacheSpec(rdd_id=cache_rdd.rdd_id,
                      after_ops=len(ops) - ops_below,
                      fmt=cache_rdd.cache_fmt)
            for cache_rdd, ops_below in cache_rdds
        ]
        return ops, cache_specs, boundary

    def _is_materialized(self, rdd: RDD) -> bool:
        block_manager = self.scheduler.block_manager
        if block_manager is None:
            return False
        return all(block_manager.has(rdd.rdd_id, index)
                   for index in range(rdd.num_partitions))

    def _cached_location(self, rdd: RDD, index: int) -> Optional[int]:
        block_manager = self.scheduler.block_manager
        if block_manager is None:
            return None
        return block_manager.location(rdd.rdd_id, index)

    # -- misc -----------------------------------------------------------------------

    def _allocate_stage_id(self) -> int:
        stage_id = self._next_stage_id
        self._next_stage_id += 1
        return stage_id

    def _stage_name(self, boundary: Any, output: Any) -> str:
        source = type(boundary).__name__
        if isinstance(boundary, _CachedBoundary):
            source = "cached"
        elif isinstance(boundary, ShuffledRDD):
            source = boundary.name
        sink = type(output).__name__
        return f"{source}->{sink}"

    def stages_in_order(self, final_stage_id: int) -> List[Stage]:
        """Topological order with parents first (ids ascend with depth,
        but a stage's parents always have *larger* ids because children
        are allocated first; sort by dependency instead)."""
        ordered: List[Stage] = []
        visited = {final_stage_id}
        final = self._stages[final_stage_id]
        # Depth-first with an explicit stack: deep lineages cannot hit
        # the interpreter's recursion limit.
        stack = [(final, iter(final.parent_stage_ids))]
        while stack:
            stage, parents = stack[-1]
            for parent_id in parents:
                if parent_id not in visited:
                    visited.add(parent_id)
                    parent = self._stages[parent_id]
                    stack.append((parent, iter(parent.parent_stage_ids)))
                    break
            else:
                stack.pop()
                ordered.append(stage)
        return ordered


class _CachedBoundary:
    """Marker: the walk stopped at a materialized cached RDD."""

    def __init__(self, rdd: RDD) -> None:
        self.rdd = rdd

    def __repr__(self) -> str:
        return f"_CachedBoundary(rdd={self.rdd.rdd_id})"


def _tag_op(side: int) -> MapOp:
    """Wrap values with their cogroup side: ``(k, v) -> (k, (side, v))``."""
    return MapOp(lambda kv: (kv[0], (side, kv[1])), size_ratio=1.0,
                 name=f"tag_side_{side}")
