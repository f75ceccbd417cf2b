"""Tests for the shared exchange-machine pool."""

import numpy as np
import pytest

from repro.algorithms import AlnsConfig, NoopRebalancer, SRA, SRAConfig
from repro.cluster import Machine
from repro.pool import MachinePool, rebalance_with_pool
from repro.workloads import SyntheticConfig, generate, make_exchange_machines


def tight_state(seed=0):
    return generate(
        SyntheticConfig(
            num_machines=16,
            shards_per_machine=6,
            target_utilization=0.85,
            placement_skew=0.5,
            max_shard_fraction=0.35,
            seed=seed,
        )
    )


def quick_sra(iterations=300, seed=1):
    return SRA(SRAConfig(alns=AlnsConfig(iterations=iterations, seed=seed)))


class TestMachinePool:
    def test_inventory_accounting(self):
        pool = MachinePool(Machine.homogeneous(3, 10.0))
        assert pool.size == 3
        lent = pool.lend(2)
        assert len(lent) == 2 and pool.size == 1
        assert all(m.exchange for m in lent)
        pool.accept(lent)
        assert pool.size == 3

    def test_lend_largest_first(self):
        small = Machine(id=0, capacity=np.full(3, 5.0))
        big = Machine(id=1, capacity=np.full(3, 50.0))
        pool = MachinePool([small, big])
        lent = pool.lend(1)
        np.testing.assert_allclose(lent[0].capacity, 50.0)

    def test_overlend_rejected(self):
        pool = MachinePool(Machine.homogeneous(1, 10.0))
        with pytest.raises(ValueError, match="cannot lend"):
            pool.lend(2)

    def test_total_capacity(self):
        pool = MachinePool(Machine.homogeneous(2, 10.0))
        np.testing.assert_allclose(pool.total_capacity(), 20.0)

    def test_empty_pool(self):
        pool = MachinePool()
        assert pool.size == 0
        assert pool.lend(0) == []

    def test_lend_nothing_leaves_inventory_unchanged(self):
        # Smallest first, with capacities whose float sum depends on order:
        # (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1.
        caps = [np.full(3, 0.1), np.full(3, 0.2), np.full(3, 0.3)]
        pool = MachinePool([Machine(id=i, capacity=c) for i, c in enumerate(caps)])
        before = [m.id for m in pool.inventory()]
        total = pool.total_capacity()
        assert pool.lend(0) == []
        assert [m.id for m in pool.inventory()] == before
        assert np.array_equal(pool.total_capacity(), total)


class TestRebalanceWithPool:
    def test_pool_size_conserved_on_success(self):
        state = tight_state()
        pool = MachinePool(make_exchange_machines(state, 4))
        slim, result = rebalance_with_pool(pool, state, quick_sra(), budget=2)
        assert result.feasible
        assert pool.size == 4
        assert slim.num_machines == state.num_machines
        assert slim.peak_utilization() < state.peak_utilization()

    def test_exchange_changes_pool_composition(self):
        state = tight_state()
        before = {id(m) for m in make_exchange_machines(state, 4)}
        pool = MachinePool(make_exchange_machines(state, 4))
        initial_caps = sorted(float(m.capacity.sum()) for m in pool.inventory())
        rebalance_with_pool(pool, state, quick_sra(600), budget=2)
        episode = pool.history[-1]
        if episode.exchanged > 0:
            # Returned machines came from the cluster: composition changed.
            after_caps = sorted(float(m.capacity.sum()) for m in pool.inventory())
            assert pool.size == 4
            # (capacities may coincide; the audit trail is authoritative)
            assert episode.returned == 2

    def test_infeasible_episode_restores_pool(self):
        # A rebalancer that proposes nothing cannot satisfy R=budget>0
        # vacancies on a fully packed cluster -> infeasible episode.
        state = tight_state()
        pool = MachinePool(make_exchange_machines(state, 2))

        class Stubborn(NoopRebalancer):
            pass

        slim, result = rebalance_with_pool(pool, state, Stubborn(), budget=2)
        # Noop keeps borrowed machines vacant: contract satisfiable, so it
        # is actually feasible — returned machines are the lent ones.
        assert pool.size == 2
        np.testing.assert_array_equal(slim.assignment, state.assignment)

    def test_history_recorded(self):
        state = tight_state()
        pool = MachinePool(make_exchange_machines(state, 2))
        rebalance_with_pool(pool, state, quick_sra(), budget=1, label="prod-7")
        assert len(pool.history) == 1
        ep = pool.history[0]
        assert ep.cluster_label == "prod-7"
        assert ep.lent == 1
        assert ep.pool_size_after == 2

    def test_sequential_episodes_across_clusters(self):
        pool = MachinePool(make_exchange_machines(tight_state(), 3))
        for seed in (0, 1, 2):
            state = tight_state(seed)
            slim, result = rebalance_with_pool(
                pool, state, quick_sra(seed=seed), budget=2, label=f"c{seed}"
            )
            assert pool.size == 3  # conserved after every episode
        assert len(pool.history) == 3
        assert all(ep.feasible for ep in pool.history)
