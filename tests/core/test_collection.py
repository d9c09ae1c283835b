"""Tests for DatasetCollection: routing, caching, reporting, the window."""

import pytest

from repro import StarkConfig, StarkContext
from repro.cluster.cost_model import SimStr
from repro.core.checkpoint_optimizer import CheckpointOptimizer
from repro.core.collection import DatasetCollection
from repro.core.extendable_partitioner import ExtendablePartitioner
from repro.core.group_manager import GroupManager
from repro.engine.dependency import OneToOneDependency
from repro.engine.partitioner import HashPartitioner
from repro.workloads.distributions import seeded_rng


def keyed_step(sc, step, records=40, num_keys=10, num_partitions=4):
    """One step's source: ``(key, step)`` pairs, deterministic per step."""
    def generate(pid):
        rng = seeded_rng("collection", step, pid)
        return [(rng.randint(0, num_keys - 1), step)
                for _ in range(pid, records, num_partitions)]

    return sc.generated(generate, num_partitions, read_cost="network",
                        name=f"step{step}")


class TestDatasetCollection:
    def test_add_caches_and_records_each_step(self, sc):
        steps = DatasetCollection(sc, None)
        for step in range(3):
            rdd = steps.add(step, keyed_step(sc, step))
            assert rdd.cached
            assert sc.block_manager_master.cached_partitions_of(rdd.rdd_id)
        assert sorted(steps.steps) == [0, 1, 2]

    def test_step_contents_after_add(self, sc):
        steps = DatasetCollection(sc, None)
        steps.add(0, keyed_step(sc, 0, records=40))
        assert steps.steps[0].count() == 40
        assert sorted(v for _, v in steps.steps[0].collect()) == [0] * 40

    def test_window_keeps_recent_steps(self, sc):
        steps = DatasetCollection(sc, None, window=4)
        for step in range(6):
            steps.add(step, keyed_step(sc, step))
        assert list(steps.steps) == [2, 3, 4, 5]

    def test_window_unpersists_expired_steps(self, sc):
        steps = DatasetCollection(sc, None, window=2)
        added = [steps.add(step, keyed_step(sc, step)) for step in range(4)]
        bmm = sc.block_manager_master
        for old in added[:2]:
            assert not old.cached
            assert not bmm.cached_partitions_of(old.rdd_id)
        for kept in added[2:]:
            assert bmm.cached_partitions_of(kept.rdd_id)

    def test_namespace_registers_each_step(self, sc):
        part = HashPartitioner(4)
        steps = DatasetCollection(sc, part, namespace="stream")
        for step in range(2):
            steps.add(step, keyed_step(sc, step))
        assert sc.locality_manager.has_namespace("stream")
        assert len(sc.locality_manager.rdds_in_namespace("stream")) == 2
        assert all(rdd.namespace == "stream" and rdd.partitioner == part
                   for rdd in steps.steps.values())

    def test_namespace_makes_window_cogroup_narrow(self, sc):
        part = HashPartitioner(4)
        steps = DatasetCollection(sc, part, namespace="w")
        for step in range(3):
            steps.add(step, keyed_step(sc, step, records=60))
        rdds = list(steps.steps.values())
        merged = rdds[0].cogroup(*rdds[1:])
        assert all(isinstance(dep, OneToOneDependency)
                   for dep in merged.dependencies)
        for key, groups in merged.collect():
            assert len(groups) == 3
        assert sc.metrics.last_job().total_shuffle_fetch_time() == 0

    def test_window_cogroup_values_carry_their_step(self, sc):
        part = HashPartitioner(4)
        steps = DatasetCollection(sc, part, namespace="w", window=3)
        for step in range(3):
            steps.add(step, keyed_step(sc, step, records=60))
        rdds = list(steps.steps.values())
        merged = rdds[0].cogroup(*rdds[1:])
        for key, groups in merged.collect():
            for step, values in enumerate(groups):
                assert all(v == step for v in values)

    def test_without_namespace_group_manager_untouched(self, sc, monkeypatch):
        calls = []
        for method in ("report_rdd", "on_rdd_registered", "on_rdd_noted"):
            monkeypatch.setattr(
                GroupManager, method,
                lambda self, *args, _m=method: calls.append(_m))
        part = ExtendablePartitioner.over_key_range(0, 64, 2, 2)
        steps = DatasetCollection(sc, part, window=1)
        for step in range(3):
            rdd = steps.add(step, keyed_step(sc, step).partition_by(part))
            assert rdd.namespace is None
            assert rdd.partitioner == part
        assert calls == []
        assert not sc.group_manager._state

    def test_drop(self, sc):
        steps = DatasetCollection(sc, None)
        first = steps.add(0, keyed_step(sc, 0))
        steps.add(1, keyed_step(sc, 1))
        steps.drop(0)
        steps.drop(7)  # not held: no-op
        assert list(steps.steps) == [1]
        assert not sc.block_manager_master.cached_partitions_of(first.rdd_id)

    def test_name_applies_to_the_routed_rdd(self, sc):
        steps = DatasetCollection(sc, HashPartitioner(4), namespace="n")
        source = keyed_step(sc, 0)
        rdd = steps.add(0, source, name="hour-0")
        assert rdd is not source
        assert rdd.name == "hour-0"
        assert source.name == "step0"

    def test_rejects_bad_parameters(self, sc):
        with pytest.raises(ValueError, match="partitioner"):
            DatasetCollection(sc, None, namespace="n")
        with pytest.raises(ValueError, match="window"):
            DatasetCollection(sc, None, window=0)


class TestGroupElasticity:
    def test_groups_split_as_steps_are_added(self):
        """Every step reaches the GroupManager without the caller
        reporting it, so a hot group splits as the collection grows."""
        key_space = 1 << 10
        sc = StarkContext(
            num_workers=4, cores_per_worker=2, memory_per_worker=1e9,
            config=StarkConfig(max_group_mem_size=20_000.0,
                               min_group_mem_size=100.0,
                               group_size_window=6),
        )
        part = ExtendablePartitioner.over_key_range(0, key_space, 4, 4)
        steps = DatasetCollection(sc, part, namespace="taxi", window=3)
        groups = []
        for step in range(3):
            # Every key in the first quarter of the key space: group 0 is hot.
            data = [(k % (key_space // 4), SimStr("v", sim_size=50))
                    for k in range(step * 200, step * 200 + 200)]
            steps.add(step, sc.parallelize(data, part.num_partitions))
            groups.append(sc.group_manager.stats("taxi")["groups"])
        assert sc.group_manager.stats("taxi")["splits"] >= 1
        assert groups[-1] > 4
        assert groups == sorted(groups)


class TestStateLineage:
    """runningReduce (``updateStateByKey``) built by hand over a
    collection: each step cogroups the new batch with the previous state.
    Its lineage grows without bound, the structure (Fig 16) that the
    CheckpointOptimizer exists for."""

    @staticmethod
    def running_counts(sc, num_steps, records, num_keys=3):
        part = HashPartitioner(4)
        batches = DatasetCollection(sc, part, namespace="state")
        state = None
        for step in range(num_steps):
            batch = batches.add(step, keyed_step(sc, step, records, num_keys))
            if state is None:
                state = batch.group_by_key(part).map_values(len)
            else:
                state = batch.cogroup(state, partitioner=part).map(
                    lambda kv: (kv[0], len(kv[1][0]) + sum(kv[1][1])),
                    preserves_partitioning=True,
                )
            state.cache()
            state.count()
            yield state

    def test_running_counts(self, sc):
        for state in self.running_counts(sc, 2, records=40, num_keys=5):
            pass
        totals = dict(state.collect())
        assert sorted(totals) == list(range(5))
        assert sum(totals.values()) == 80  # 40 records x 2 steps

    def test_state_lineage_grows(self, sc):
        opt = CheckpointOptimizer(sc, recovery_bound=1e9)
        lengths = []
        for state in self.running_counts(sc, 4, records=20):
            nodes = opt.build_lineage([state])
            lengths.append(
                opt.longest_uncheckpointed_delay(nodes, state.rdd_id)
            )
        assert lengths == sorted(lengths)
        assert lengths[-1] > lengths[0]
        assert sum(dict(state.collect()).values()) == 20 * 4

    def test_optimizer_bounds_state_lineage(self, sc):
        states = self.running_counts(sc, 7, records=30)
        state = next(states)
        probe = CheckpointOptimizer(sc, recovery_bound=1e9)
        view = probe.build_lineage([state])
        per_step = probe.longest_uncheckpointed_delay(view, state.rdd_id)
        bound = per_step * 3
        opt = CheckpointOptimizer(sc, recovery_bound=bound)
        for state in states:
            decision = opt.optimize([state])
            assert decision.residual_path_delay <= bound + 1e-12
