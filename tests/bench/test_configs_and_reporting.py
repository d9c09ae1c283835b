"""Tests for the benchmark configuration factory and table rendering."""

import pytest

from repro.bench.configs import (
    ALL_CONFIGS,
    SPARK_H,
    SPARK_R,
    STARK_E,
    STARK_H,
    STARK_S,
    ClusterSpec,
    make_context,
    make_setup,
)
from repro.bench.reporting import format_table, print_comparison
from repro.core.extendable_partitioner import ExtendablePartitioner
from repro.engine.partitioner import HashPartitioner, StaticRangePartitioner


SPEC = ClusterSpec(num_workers=4, cores_per_worker=2, memory_per_worker=1e9)


class TestMakeContext:
    def test_spark_configs_disable_stark_features(self):
        for name in (SPARK_R, SPARK_H):
            ctx = make_context(name, SPEC)
            assert not ctx.config.locality_enabled
            assert not ctx.config.mcf_enabled
            assert not ctx.config.replication_enabled

    def test_stark_configs_enable_features(self):
        for name in (STARK_H, STARK_S, STARK_E):
            ctx = make_context(name, SPEC)
            assert ctx.config.locality_enabled
            assert ctx.config.mcf_enabled

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration"):
            make_context("Spark-X", SPEC)

    def test_cluster_shape_matches_spec(self):
        ctx = make_context(STARK_H, SPEC)
        assert len(ctx.cluster) == 4
        assert ctx.cluster.total_cores() == 8


class TestMakeSetup:
    def test_spark_r_has_no_shared_partitioner(self):
        setup = make_setup(SPARK_R, SPEC)
        assert setup.partitioner is None
        assert setup.partition_mode == "range-per-rdd"
        assert not setup.locality

    def test_hash_configs_share_hash_partitioner(self):
        for name in (SPARK_H, STARK_H):
            setup = make_setup(name, SPEC, num_partitions=8)
            assert isinstance(setup.partitioner, HashPartitioner)
            assert setup.partitioner.num_partitions == 8

    def test_stark_s_uses_static_range(self):
        setup = make_setup(STARK_S, SPEC, num_partitions=8,
                           key_lo=0, key_hi=1024)
        assert isinstance(setup.partitioner, StaticRangePartitioner)

    def test_stark_e_uses_extendable(self):
        setup = make_setup(STARK_E, SPEC, groups=4, partitions_per_group=4,
                           key_lo=0, key_hi=1 << 16)
        assert isinstance(setup.partitioner, ExtendablePartitioner)
        assert setup.partitioner.num_partitions == 16

    def test_all_configs_constructible(self):
        for name in ALL_CONFIGS:
            setup = make_setup(name, SPEC, key_lo=0, key_hi=1 << 16)
            assert setup.name == name
            assert setup.context is not None


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table("Fig X", ["a", "bb"], [[1, 2.5], [30, 4.0]])
        lines = text.splitlines()
        assert lines[0] == "== Fig X =="
        assert "a" in lines[1] and "bb" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equal width

    def test_format_table_floats(self):
        text = format_table("t", ["x"], [[1.23456]])
        assert "1.235" in text

    def test_print_comparison_lower_better(self, capsys):
        ratio = print_comparison("delay", "Spark", 4.0, "Stark", 1.0)
        assert ratio == pytest.approx(4.0)
        assert "4.00x" in capsys.readouterr().out

    def test_print_comparison_higher_better(self, capsys):
        ratio = print_comparison("throughput", "Spark", 10.0, "Stark", 60.0,
                                 higher_is_better=True)
        assert ratio == pytest.approx(6.0)
        capsys.readouterr()


class TestAsciiCharts:
    def test_sparkline_shape(self):
        from repro.bench.ascii_charts import sparkline

        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] != line[-1]

    def test_sparkline_flat_and_empty(self):
        from repro.bench.ascii_charts import sparkline

        assert sparkline([]) == ""
        flat = sparkline([5, 5, 5])
        assert len(set(flat)) == 1
