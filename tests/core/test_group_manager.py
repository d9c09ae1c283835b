"""Tests for the GroupManager: size accounting, split/merge triggers,
placement maintenance, and group tasks."""


from repro import StarkConfig, StarkContext
from repro.core.extendable_partitioner import ExtendablePartitioner
from repro.cluster.cost_model import SimStr


KEY_SPACE = 1 << 10


def make_ctx(max_group=80_000.0, min_group=5_000.0, **kwargs):
    config = StarkConfig(
        max_group_mem_size=max_group, min_group_mem_size=min_group,
        group_size_window=6,
    )
    defaults = dict(num_workers=4, cores_per_worker=2, memory_per_worker=1e9)
    defaults.update(kwargs)
    return StarkContext(config=config, **defaults)


def ext_partitioner(groups=4, per_group=4):
    return ExtendablePartitioner.over_key_range(0, KEY_SPACE, groups, per_group)


def load_rdd(sc, part, namespace, keys, payload_bytes=100):
    data = [(k, SimStr("v", sim_size=payload_bytes)) for k in keys]
    rdd = sc.parallelize(data, part.num_partitions, partitioner=part) \
        .locality_partition_by(part, namespace).cache()
    rdd.count()
    return rdd


class TestEnablement:
    def test_extendable_partitioner_auto_enables(self):
        sc = make_ctx()
        part = ext_partitioner()
        load_rdd(sc, part, "taxi", range(0, KEY_SPACE, 16))
        assert sc.group_manager.is_enabled("taxi")
        assert sc.group_manager.groups_for("taxi") is not None

    def test_plain_partitioner_does_not_enable(self):
        from repro.engine.partitioner import HashPartitioner

        sc = make_ctx()
        part = HashPartitioner(8)
        rdd = sc.parallelize([(k, k) for k in range(40)], 8) \
            .locality_partition_by(part, "plain")
        rdd.count()
        assert not sc.group_manager.is_enabled("plain")
        assert sc.group_manager.groups_for("plain") is None

    def test_initial_groups_match_partitioner(self):
        sc = make_ctx()
        part = ext_partitioner(groups=4, per_group=4)
        load_rdd(sc, part, "taxi", range(0, KEY_SPACE, 16))
        groups = sc.group_manager.groups_for("taxi")
        assert len(groups) == 4
        assert all(g.num_partitions == 4 for g in groups)


class TestSizeAccounting:
    def test_partition_sizes_reflect_cached_blocks(self):
        sc = make_ctx()
        part = ext_partitioner()
        load_rdd(sc, part, "taxi", range(0, KEY_SPACE, 4), payload_bytes=50)
        sizes = sc.group_manager.partition_sizes("taxi")
        assert sum(sizes.values()) > 0

    def test_window_limits_counted_rdds(self):
        sc = make_ctx()
        part = ext_partitioner()
        for _ in range(10):
            rdd = load_rdd(sc, part, "taxi", range(0, KEY_SPACE, 16))
            sc.group_manager.report_rdd(rdd)
        state = sc.group_manager._state["taxi"]
        assert len(state.recent_rdds) <= sc.config.group_size_window


class TestSplitAndMerge:
    def test_hot_group_splits(self):
        sc = make_ctx(max_group=20_000.0, min_group=100.0)
        part = ext_partitioner()
        # All keys in the first quarter of the key space: group 0 is hot.
        rdd = load_rdd(sc, part, "taxi",
                       [k % (KEY_SPACE // 4) for k in range(0, 600)],
                       payload_bytes=100)
        actions = sc.group_manager.report_rdd(rdd)
        assert any("split" in a for a in actions)
        stats = sc.group_manager.stats("taxi")
        assert stats["splits"] >= 1
        assert stats["groups"] > 4

    def test_cold_groups_merge(self):
        sc = make_ctx(max_group=1e9, min_group=50_000.0)
        part = ext_partitioner()
        rdd = load_rdd(sc, part, "taxi", range(0, KEY_SPACE, 64),
                       payload_bytes=10)
        actions = sc.group_manager.report_rdd(rdd)
        assert any("merge" in a for a in actions)
        assert sc.group_manager.stats("taxi")["groups"] < 4

    def test_rebalance_reaches_fixed_point(self):
        sc = make_ctx(max_group=15_000.0, min_group=1_000.0)
        part = ext_partitioner()
        rdd = load_rdd(sc, part, "taxi",
                       [k % (KEY_SPACE // 2) for k in range(500)])
        sc.group_manager.report_rdd(rdd)
        # A second rebalance with unchanged data must do nothing.
        assert sc.group_manager.rebalance("taxi") == []

    def test_split_keeps_left_child_placement(self):
        sc = make_ctx(max_group=20_000.0, min_group=100.0)
        part = ext_partitioner()
        state_before = {}
        manager = sc.group_manager
        rdd = load_rdd(sc, part, "taxi",
                       [k % (KEY_SPACE // 4) for k in range(600)])
        state = manager._state["taxi"]
        tree_leaves = state.tree.leaves()
        # After the split, the leftmost leaf's executors must come from
        # the old group-0 placement (data does not move, §III-C2).
        old_exec = manager.preferred_executors("taxi", 0)
        manager.report_rdd(rdd)
        new_exec = manager.preferred_executors("taxi", 0)
        assert set(old_exec) & set(new_exec)

    def test_invariants_hold_after_rebalance(self):
        sc = make_ctx(max_group=10_000.0, min_group=500.0)
        part = ext_partitioner(groups=8, per_group=2)
        for hot in (0, 1, 2):
            rdd = load_rdd(
                sc, part, "taxi",
                [(hot * KEY_SPACE // 4 + k) % KEY_SPACE for k in range(300)],
            )
            sc.group_manager.report_rdd(rdd)
            sc.group_manager._state["taxi"].tree.check_invariants()


class TestGroupTasks:
    def test_jobs_use_one_task_per_group(self):
        sc = make_ctx()
        part = ext_partitioner(groups=4, per_group=4)
        rdd = load_rdd(sc, part, "taxi", range(0, KEY_SPACE, 8))
        rdd.count()
        job = sc.metrics.last_job()
        # 16 partitions but only 4 groups -> 4 tasks.
        assert len(job.tasks) == 4
        assert all(t.group_id is not None for t in job.tasks)

    def test_group_tasks_cover_all_partitions(self):
        sc = make_ctx()
        part = ext_partitioner(groups=4, per_group=4)
        rdd = load_rdd(sc, part, "taxi", range(0, KEY_SPACE))
        assert rdd.count() == KEY_SPACE

    def test_results_correct_after_split(self):
        sc = make_ctx(max_group=20_000.0, min_group=100.0)
        part = ext_partitioner()
        keys = [k % (KEY_SPACE // 4) for k in range(600)]
        rdd = load_rdd(sc, part, "taxi", keys)
        sc.group_manager.report_rdd(rdd)
        assert rdd.count() == 600
        job = sc.metrics.last_job()
        assert len(job.tasks) == sc.group_manager.stats("taxi")["groups"]


class TestPreferredExecutors:
    def test_group_placement_consulted(self):
        sc = make_ctx()
        part = ext_partitioner()
        load_rdd(sc, part, "taxi", range(0, KEY_SPACE, 16))
        execs = sc.group_manager.preferred_executors("taxi", 0)
        assert execs
        # Partition 0 belongs to group 0 -> same placement for partition 1.
        assert sc.group_manager.preferred_executors("taxi", 1) == execs

    def test_removed_executor_leaves_every_group(self):
        sc = make_ctx()
        part = ext_partitioner()
        load_rdd(sc, part, "taxi", range(0, KEY_SPACE, 16))
        victim = sc.group_manager.preferred_executors("taxi", 0)[0]
        sc.group_manager.remove_executor(victim)
        for pid in range(part.num_partitions):
            # Purged, and re-homed: no group is left without a home.
            execs = sc.group_manager.preferred_executors("taxi", pid)
            assert execs
            assert victim not in execs

    def test_out_of_range_partition_empty(self):
        sc = make_ctx()
        part = ext_partitioner()
        load_rdd(sc, part, "taxi", range(0, KEY_SPACE, 16))
        assert sc.group_manager.preferred_executors("taxi", 999) == []

    def test_unknown_namespace_returns_none(self):
        sc = make_ctx()
        assert sc.group_manager.preferred_executors("nope", 0) is None
