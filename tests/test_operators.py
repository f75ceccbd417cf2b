"""Tests for destroy and repair operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    AlnsConfig,
    AlnsEngine,
    Objective,
    greedy_best_fit,
    random_removal,
    regret2_insertion,
    shaw_removal,
    vacancy_removal,
    worst_machine_removal,
)
from repro.algorithms.destroy import DEFAULT_DESTROY_OPS
from repro.algorithms.repair import DEFAULT_REPAIR_OPS, _regret2_exact, _regret2_pruned
from repro.cluster import ClusterState, Machine, Shard
from repro.workloads import SyntheticConfig, generate


def rng():
    return np.random.default_rng(0)


def demo_state():
    machines = Machine.homogeneous(4, 10.0)
    shards = [Shard(id=j, demand=np.full(3, 1.0 + j * 0.5)) for j in range(8)]
    return ClusterState(machines, shards, [0, 0, 0, 1, 1, 2, 2, 3])


class TestDestroyOperators:
    @pytest.mark.parametrize(
        "op", [random_removal, worst_machine_removal, shaw_removal, vacancy_removal]
    )
    def test_removed_shards_are_unassigned(self, op):
        state = demo_state()
        removed = op(state, rng(), 3)
        assert removed, f"{op.__name__} removed nothing"
        assert set(state.unassigned_shards()) == set(removed)

    @pytest.mark.parametrize("op", [random_removal, shaw_removal])
    def test_respects_quantity(self, op):
        state = demo_state()
        removed = op(state, rng(), 3)
        assert len(removed) == 3

    def test_random_removal_caps_at_assigned_count(self):
        state = demo_state()
        removed = random_removal(state, rng(), 100)
        assert len(removed) == 8

    def test_worst_machine_targets_peak(self):
        state = demo_state()
        # machine with the highest peak utilization
        hottest = int(np.argmax(state.machine_peak_utilization()))
        hot_members = {int(j) for j in state.machine_shards(hottest)}
        removed = worst_machine_removal(state, rng(), 2)
        assert set(removed) <= hot_members

    def test_shaw_removes_similar_shards(self):
        # Two clusters of demand shapes: cpu-heavy vs disk-heavy.
        machines = Machine.homogeneous(2, 100.0)
        cpu_heavy = [Shard(id=j, demand=np.array([5.0, 1.0, 1.0])) for j in range(3)]
        disk_heavy = [
            Shard(id=3 + j, demand=np.array([1.0, 1.0, 5.0])) for j in range(3)
        ]
        state = ClusterState(machines, cpu_heavy + disk_heavy, [0, 0, 0, 1, 1, 1])
        removed = shaw_removal(state, np.random.default_rng(1), 3)
        # All removed shards share a shape family.
        families = {0 if j < 3 else 1 for j in removed}
        assert len(families) == 1

    def test_vacancy_removal_empties_least_loaded(self):
        state = demo_state()
        score = (state.loads / state.capacity).sum(axis=1)
        expected = int(np.argmin(np.where(state.shard_counts() > 0, score, np.inf)))
        expected_members = {int(j) for j in state.machine_shards(expected)}
        removed = vacancy_removal(state, rng(), 8)
        assert set(removed) == expected_members
        assert state.shard_counts()[expected] == 0

    def test_vacancy_removal_prefers_in_service(self):
        machines = Machine.homogeneous(2, 10.0) + [
            Machine(id=2, capacity=np.full(3, 10.0), exchange=True)
        ]
        shards = Shard.uniform(3, 1.0)
        # exchange machine 2 has the least load but should not be chosen
        state = ClusterState(machines, shards, [0, 0, 2])
        removed = vacancy_removal(state, rng(), 3)
        # machine 1 is vacant already; least-loaded occupied in-service is 0
        assert set(removed) <= {0, 1}

    def test_vacancy_removal_empty_cluster(self):
        machines = Machine.homogeneous(2, 10.0)
        shards = Shard.uniform(1, 1.0)
        state = ClusterState(machines, shards)  # all unassigned
        assert vacancy_removal(state, rng(), 2) == []


class TestRepairOperators:
    @pytest.mark.parametrize("op", [greedy_best_fit, regret2_insertion])
    def test_reinserts_everything(self, op):
        state = demo_state()
        removed = random_removal(state, rng(), 4)
        op(state, rng(), removed)
        assert state.is_fully_assigned()

    @pytest.mark.parametrize("op", [greedy_best_fit, regret2_insertion])
    def test_noop_on_empty(self, op):
        state = demo_state()
        before = state.assignment
        op(state, rng(), [])
        np.testing.assert_array_equal(state.assignment, before)

    @pytest.mark.parametrize("op", [greedy_best_fit, regret2_insertion])
    def test_prefers_feasible_placements(self, op):
        # One machine nearly full; repair must not overflow it.
        machines = Machine.homogeneous(2, 10.0)
        shards = Shard.uniform(4, 4.0)
        state = ClusterState(machines, shards, [0, 0, 1, 1])
        state.unassign(3)
        op(state, rng(), [3])
        assert state.is_within_capacity()

    def test_repair_improves_balance_vs_random(self):
        state = generate(SyntheticConfig(num_machines=10, shards_per_machine=6, seed=3))
        work = state.copy()
        removed = worst_machine_removal(work, rng(), 10)
        greedy_best_fit(work, rng(), removed)
        assert work.peak_utilization() <= state.peak_utilization() + 1e-9


def _exact_regret2(state, rng, removed):
    if len(removed):
        _regret2_exact(state, list(removed))


def _pruned_regret2(state, rng, removed):
    if len(removed):
        _regret2_pruned(state, list(removed))


# Engine weight keys and traces use the operator name.
_exact_regret2.__name__ = _pruned_regret2.__name__ = "regret2_insertion"


class TestRegret2Gate:
    """The exact/pruned size gate is a pure performance crossover: both
    paths must produce bitwise-identical placements (and therefore
    bitwise-identical engine trajectories).  The tests call the two
    paths directly, whatever the fleet size."""

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_pruned_matches_exact_operator_level(self, seed):
        state = generate(
            SyntheticConfig(num_machines=40, shards_per_machine=5, seed=seed)
        )
        exact_state, pruned_state = state.copy(), state.copy()
        removed = random_removal(exact_state, np.random.default_rng(seed), 25)
        pruned_state.unassign_many(removed)
        _exact_regret2(exact_state, rng(), removed)
        _pruned_regret2(pruned_state, rng(), removed)
        np.testing.assert_array_equal(
            exact_state.assignment, pruned_state.assignment
        )

    def test_pruned_matches_exact_with_replicas_and_blocked(self):
        machines = Machine.homogeneous(12, 30.0)
        shards = [
            Shard(id=j, demand=np.full(3, 1.0 + (j % 5)), replica_of=j // 3)
            for j in range(24)
        ]
        state = ClusterState(machines, shards, [j % 12 for j in range(24)])
        # Remove the evens plus machine 7's hosts so it can be blocked.
        removed = sorted(set(range(0, 24, 2)) | {7, 19})
        state.unassign_many(removed)
        state.block_machine(7)
        exact_state, pruned_state = state.copy(), state.copy()
        _exact_regret2(exact_state, rng(), removed)
        _pruned_regret2(pruned_state, rng(), removed)
        np.testing.assert_array_equal(
            exact_state.assignment, pruned_state.assignment
        )

    def test_engine_trajectory_identical_across_gate(self):
        state = generate(
            SyntheticConfig(num_machines=30, shards_per_machine=5, seed=2)
        )
        results = []
        for regret2 in (_pruned_regret2, _exact_regret2):
            cfg = AlnsConfig(iterations=120, seed=7)
            engine = AlnsEngine(cfg, DEFAULT_DESTROY_OPS, (greedy_best_fit, regret2))
            obj = Objective(state.assignment, state.sizes)
            results.append(engine.run(state.copy(), obj))
        pruned, exact = results
        assert repr(pruned.best_objective) == repr(exact.best_objective)
        assert pruned.accepted == exact.accepted
        assert pruned.history == exact.history
        assert pruned.operator_weights == exact.operator_weights
        np.testing.assert_array_equal(pruned.best_assignment, exact.best_assignment)

    def test_default_portfolio_gates_on_fleet_size(self, monkeypatch):
        """``regret2_insertion`` picks the path from the machine count."""
        from repro.algorithms import repair

        calls = []
        monkeypatch.setattr(repair, "_regret2_exact", lambda s, r: calls.append("exact"))
        monkeypatch.setattr(repair, "_regret2_pruned", lambda s, r: calls.append("pruned"))
        for m in (repair._EXACT_REGRET_MAX, repair._EXACT_REGRET_MAX + 1):
            state = ClusterState(Machine.homogeneous(m, 10.0), Shard.uniform(2, 1.0))
            regret2_insertion(state, rng(), [0, 1])
        assert calls == ["exact", "pruned"]
        assert regret2_insertion.__name__ == "regret2_insertion"
        assert regret2_insertion in DEFAULT_REPAIR_OPS


@given(seed=st.integers(min_value=0, max_value=100), q=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_property_destroy_repair_roundtrip_preserves_shards(seed, q):
    """Any destroy+repair cycle ends fully assigned with loads consistent."""
    r = np.random.default_rng(seed)
    state = generate(
        SyntheticConfig(num_machines=6, shards_per_machine=5, seed=seed)
    )
    ops = [random_removal, worst_machine_removal, shaw_removal, vacancy_removal]
    repairs = [greedy_best_fit, regret2_insertion]
    removed = ops[seed % 4](state, r, q)
    repairs[seed % 2](state, r, removed)
    assert state.is_fully_assigned()
    recomputed = np.zeros_like(state.loads)
    np.add.at(recomputed, state.assignment, state.demand)
    np.testing.assert_allclose(state.loads, recomputed, atol=1e-9)
