"""Tests for the paper's workloads: generation, correctness, structure."""

import pytest

from repro.api import AnalyticsContext
from repro.cluster import hdd_cluster, ssd_cluster
from repro.config import GB, MB
from repro.errors import ConfigError
from repro.serve import bdb_template
from repro.workloads.bigdata import (BdbScale, QUERIES, generate_bdb_tables,
                                     run_query)
from repro.workloads.ml import MlWorkload, make_ml_context, run_ml_iteration
from repro.workloads.scaling import scaled_memory_overrides
from repro.workloads.sortgen import (SortWorkload, generate_sort_input,
                                     run_sort, sort_boundaries)
from repro.workloads.wordcount import generate_text_input, word_count


class TestSortWorkload:
    def test_record_bytes_scale_with_values(self):
        small = SortWorkload(total_bytes=GB, values_per_key=10,
                             num_map_tasks=8)
        large = SortWorkload(total_bytes=GB, values_per_key=50,
                             num_map_tasks=8)
        assert large.record_bytes > small.record_bytes
        assert large.total_records < small.total_records

    def test_boundaries_are_balanced(self):
        workload = SortWorkload(total_bytes=GB, values_per_key=10,
                                num_map_tasks=4, num_reduce_tasks=4)
        boundaries = sort_boundaries(workload)
        assert len(boundaries) == 3
        assert boundaries == sorted(boundaries)

    def test_generate_creates_blocks(self):
        cluster = hdd_cluster(num_machines=2)
        workload = SortWorkload(total_bytes=GB, values_per_key=10,
                                num_map_tasks=8)
        generate_sort_input(cluster, workload)
        dfs_file = cluster.dfs.get_file("sort-input")
        assert len(dfs_file.blocks) == 8
        assert dfs_file.nbytes == pytest.approx(GB)

    @pytest.mark.parametrize("engine", ["spark", "monospark"])
    def test_sort_produces_sorted_output(self, engine):
        cluster = hdd_cluster(num_machines=2,
                              **scaled_memory_overrides(0.01))
        workload = SortWorkload(total_bytes=2 * GB, values_per_key=10,
                                num_map_tasks=16)
        generate_sort_input(cluster, workload)
        ctx = AnalyticsContext(cluster, engine=engine)
        result = run_sort(ctx, workload)
        assert result.duration > 0
        out = cluster.dfs.get_file("sort-output")
        assert len(out.blocks) == workload.reduce_tasks
        assert out.nbytes == pytest.approx(2 * GB, rel=0.05)

    def test_invalid_workload_rejected(self):
        with pytest.raises(ConfigError):
            SortWorkload(total_bytes=0, values_per_key=10, num_map_tasks=1)
        with pytest.raises(ConfigError):
            SortWorkload(total_bytes=1, values_per_key=0, num_map_tasks=1)


class TestWordCount:
    def test_counts_are_consistent(self):
        cluster = hdd_cluster(num_machines=2)
        generate_text_input(cluster, num_blocks=4, block_bytes=16 * MB)
        ctx = AnalyticsContext(cluster, engine="monospark")
        word_count(ctx, output_name=None)
        records = ctx.last_result  # JobResult from collect path
        assert records is not None

    def test_output_file_written(self):
        cluster = hdd_cluster(num_machines=2)
        generate_text_input(cluster, num_blocks=4, block_bytes=16 * MB)
        ctx = AnalyticsContext(cluster, engine="spark")
        word_count(ctx, num_reduce_tasks=4)
        out = cluster.dfs.get_file("wordcount-output")
        assert len(out.blocks) == 4


class TestBigDataBenchmark:
    @classmethod
    def setup_class(cls):
        cls.scale = BdbScale(fraction=0.01)

    def make_ctx(self, engine="monospark"):
        cluster = hdd_cluster(num_machines=5,
                              **scaled_memory_overrides(0.01))
        generate_bdb_tables(cluster, self.scale)
        return AnalyticsContext(cluster, engine=engine)

    def test_tables_created_with_right_sizes(self):
        ctx = self.make_ctx()
        dfs = ctx.cluster.dfs
        uservisits = dfs.get_file("uservisits")
        # Stored compressed at half the logical (scaled) size.
        assert uservisits.nbytes == pytest.approx(
            self.scale.uservisits_bytes * 0.01 * 0.5, rel=0.01)
        assert dfs.exists("rankings") and dfs.exists("documents")

    def test_bdb_template_builds_only_rankings(self):
        """The serving template builds the one table its scan reads, and
        builds it exactly as the full generator does at the same seed."""
        full = hdd_cluster(num_machines=5)
        generate_bdb_tables(full, self.scale, seed=11)
        ctx = AnalyticsContext(hdd_cluster(num_machines=5))
        bdb_template(ctx, query="1b", fraction=self.scale.fraction, seed=11)
        dfs = ctx.cluster.dfs
        assert not dfs.exists("uservisits") and not dfs.exists("documents")
        expected = full.dfs.get_file("rankings").blocks
        blocks = dfs.get_file("rankings").blocks
        assert len(blocks) == len(expected)
        for block, want in zip(blocks, expected):
            assert block.nbytes == want.nbytes
            assert block.replicas == want.replicas
            assert block.payload.records == want.payload.records
            assert block.payload.record_count == want.payload.record_count
            assert block.payload.data_bytes == want.payload.data_bytes

    def test_query1_result_size_tracks_selectivity(self):
        ctx = self.make_ctx()
        run_query(ctx, "1a", self.scale)
        small = ctx.cluster.dfs.get_file("bdb-out-1a").nbytes
        run_query(ctx, "1c", self.scale)
        large = ctx.cluster.dfs.get_file("bdb-out-1c").nbytes
        assert large > 100 * small

    def test_query2_is_multi_stage(self):
        ctx = self.make_ctx()
        result = run_query(ctx, "2b", self.scale)
        stages = ctx.metrics.stage_records(result.job_id)
        assert len(stages) == 2

    def test_query3_has_join_stages(self):
        ctx = self.make_ctx()
        result = run_query(ctx, "3a", self.scale)
        stages = ctx.metrics.stage_records(result.job_id)
        # uservisits map, rankings map, join, group-by, = 4+ stages.
        assert len(stages) >= 4

    def test_query4_runs(self):
        ctx = self.make_ctx()
        result = run_query(ctx, "4", self.scale)
        assert result.duration > 0

    def test_unknown_query_rejected(self):
        ctx = self.make_ctx()
        with pytest.raises(ConfigError):
            run_query(ctx, "5x", self.scale)

    def test_all_queries_listed(self):
        assert len(QUERIES) == 10

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            BdbScale(fraction=0.0)

    def test_queries_run_on_spark_engine_too(self):
        ctx = self.make_ctx(engine="spark")
        result = run_query(ctx, "1b", self.scale)
        assert result.duration > 0


class TestMlWorkload:
    def test_dimensions(self):
        workload = MlWorkload()
        assert workload.matrix_bytes == pytest.approx(1e6 * 4096 * 8)
        assert workload.partial_product_bytes == 4096 * 512 * 8

    @pytest.mark.parametrize("engine", ["spark", "monospark"])
    def test_iteration_structure(self, engine):
        cluster = ssd_cluster(num_machines=4)
        ctx = make_ml_context(cluster, engine,
                              MlWorkload(num_row_blocks=16))
        result = run_ml_iteration(ctx, 0)
        stages = ctx.metrics.stage_records(result.job_id)
        assert len(stages) == 2
        # In-memory shuffle: the iteration must not touch any disk.
        from repro.metrics.events import DISK
        disk_monotasks = [m for m in ctx.metrics.stage_monotasks(
            result.job_id) if m.resource == DISK]
        assert not disk_monotasks
        for machine in cluster.machines:
            for disk in machine.disks:
                assert disk.bytes_read == 0

    def test_gram_matrices_numerically_correct(self):
        import numpy as np
        cluster = ssd_cluster(num_machines=2)
        workload = MlWorkload(num_row_blocks=4, sample_rows=4,
                              sample_cols=3)
        ctx = make_ml_context(cluster, "monospark", workload, seed=7)
        matrix = ctx._ml_matrix
        partials = matrix.map(lambda rec: rec[1].T @ rec[1])
        grams = partials.collect()
        blocks = [p.records[0][1]
                  for p in matrix._plan_time_partitions()]
        expected = [b.T @ b for b in blocks]
        for got, want in zip(grams, expected):
            assert np.allclose(got, want)

    def test_invalid_workload(self):
        with pytest.raises(ConfigError):
            MlWorkload(rows=0)


class TestScaling:
    def test_overrides_scale_linearly(self):
        overrides = scaled_memory_overrides(0.1)
        assert overrides["buffer_cache_bytes"] == pytest.approx(3 * GB)
        assert overrides["memory_bytes"] == pytest.approx(6 * GB)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            scaled_memory_overrides(0.0)
        with pytest.raises(ConfigError):
            scaled_memory_overrides(1.5)
