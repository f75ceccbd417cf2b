"""The episode pipeline against its oracle, plus cross-layer invariants.

Every exchange episode — the facade, the shared pool, both runtime
controllers — runs through :func:`repro.core.run_episode`.
``tests/episode_oracle.py`` keeps the per-caller drivers it replaced.
Over every scenario family and three algorithms, both must produce the
same results, fleets, pool inventories and histories, loan books and
controller records, bit for bit.  The same instances also check what
must hold across layers: the plan executes within capacity and lands on
the target, settlement conserves the fleet, and ``validate()`` passes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    AlnsConfig,
    GreedyRebalancer,
    LocalSearchRebalancer,
    SRA,
    SRAConfig,
)
from repro.cluster import ExchangeLedger, PoolSizingPolicy, settle_fleet
from repro.core import ResourceExchangeRebalancer, run_episode
from repro.migration import BandwidthModel
from repro.pool import MachinePool, rebalance_with_pool
from repro.runtime import (
    ClusterHandle,
    DriftDetectorConfig,
    IncrementalRebalanceController,
    RebalanceController,
    Runtime,
)
from repro.runtime.migration import MigrationExecutor
from repro.scenarios import ScenarioSpec, generate_instance, list_families
from repro.workloads import make_exchange_machines
from tests import episode_oracle as oracle

#: A tiny instance of every registered family.
FAMILIES = {
    "capacity-headroom": {"num_machines": 8, "shards_per_machine": 4},
    "correlated-demand": {"num_machines": 8, "shards_per_machine": 4},
    "demand-drift": {"num_machines": 8, "shards_per_machine": 4},
    "failure-storm": {"num_machines": 10, "shards_per_machine": 4, "waves": 1},
    "heterogeneous-generations": {"num_machines": 10, "shards_per_machine": 4},
    "multi-tenant": {"num_machines": 8, "tenants": 2, "shards_per_tenant": 12},
    "replicated-shards": {"num_machines": 8, "shards_per_machine": 3},
    "zipf-popularity": {"num_machines": 8, "shards_per_machine": 4},
}

ALGORITHMS = ("sra", "greedy", "local-search")


def test_every_family_is_covered():
    assert sorted(FAMILIES) == sorted(f.name for f in list_families())


def make_algorithm(name, seed):
    if name == "sra":
        return SRA(SRAConfig(alns=AlnsConfig(iterations=30, seed=seed)))
    if name == "greedy":
        return GreedyRebalancer()
    return LocalSearchRebalancer(seed=seed)


def make_pool(state):
    """Loaners of two sizes, so lending order and returns both matter."""
    return MachinePool(
        make_exchange_machines(state, 2)
        + make_exchange_machines(state, 1, capacity_scale=1.5)
    )


# --------------------------------------------------------------- keys
def state_key(state):
    return (
        state.assignment.tobytes(),
        state.loads.tobytes(),
        state.capacity.tobytes(),
        state.offline_mask.tobytes(),
        state.blocked_mask.tobytes(),
        state.exchange_mask.tobytes(),
        repr(state.peak_utilization()),
        [machine_key(m) for m in state.machines],
    )


def machine_key(m):
    return (m.id, m.capacity.tobytes(), m.cls, m.exchange, m.schema)


def result_key(result):
    plan = result.plan
    schedule = None
    if plan is not None:
        schedule = (
            [
                [(mv.shard_id, mv.src, mv.dst, mv.bytes, mv.hop_of) for mv in wave]
                for wave in plan.schedule.waves
            ],
            plan.staged_shards,
            plan.feasible,
        )
    return (
        result.algorithm,
        result.target_assignment.tobytes(),
        result.feasible,
        repr((result.peak_before, result.peak_after)),
        repr(result.settlement),
        schedule,
        result.iterations,
        repr(result.history),
    )


def report_key(report):
    return (
        result_key(report.result),
        repr((report.before, report.after, report.migration)),
        (report.borrowed, report.returned, report.exchanged),
        state_key(report.final),
    )


# ---------------------------------------------------------- invariants
def check_invariants(state, budget, report):
    """Plan execution, fleet conservation and validation for one episode."""
    result = report.result
    grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, budget))
    for s in (state, grown, report.final):
        s.validate()
    assert np.array_equal(report.final.offline_mask[: state.num_machines], state.offline_mask)
    if not result.feasible:
        return
    offline = np.flatnonzero(state.offline_mask)
    assert not np.isin(result.target_assignment, offline).any()
    target = result.target_assignment
    location = grown.assignment_view().copy()
    executor = MigrationExecutor(
        schedule=result.plan.schedule,
        location=location,
        loads=grown.loads.copy(),
        capacity=grown.capacity,
        demand=grown.demand,
        model=BandwidthModel(),
    )
    rt = Runtime()
    rt.add(executor)
    rt.run()
    assert executor.done and np.array_equal(location, target)
    # Moves only ever land within capacity, so the transient peak never
    # exceeds the worse of full capacity and the starting peak.
    assert executor.peak_transient_utilization <= max(1.0, grown.peak_utilization()) + 1e-9
    slim, settlement, returned = settle_fleet(report.final, ledger)
    slim.validate()
    assert slim.num_machines + len(returned) == report.final.num_machines
    assert len(returned) == ledger.required_returns
    assert not report.final.shard_counts_view()[list(settlement.returned_ids)].any()
    assert slim.is_fully_assigned() and slim.num_shards == state.num_shards
    np.testing.assert_allclose(slim.total_demand(), report.final.total_demand())
    kept = slim.total_capacity() + sum(m.capacity for m in returned)
    np.testing.assert_allclose(kept, report.final.total_capacity())


# ------------------------------------------------------------ property
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    algorithm=st.sampled_from(ALGORITHMS),
    seed=st.integers(0, 50),
    budget=st.integers(0, 2),
    borrow_above=st.floats(0.4, 1.1),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_pipeline_reproduces_oracle(family, algorithm, seed, budget, borrow_above):
    state = generate_instance(ScenarioSpec(family, FAMILIES[family], seed=seed))

    # The facade.
    def facade():
        return ResourceExchangeRebalancer(
            make_algorithm(algorithm, seed), exchange_machines=budget
        )

    report = facade().run(state)
    assert report_key(report) == report_key(oracle.facade_run(facade(), state))
    check_invariants(state, budget, report)

    # The shared pool, two episodes in a row.
    pools = make_pool(state), make_pool(state)
    fleets = [state, state]
    for _ in range(2):
        new = rebalance_with_pool(pools[0], fleets[0], make_algorithm(algorithm, seed), budget=budget)
        old = oracle.rebalance_with_pool(
            pools[1], fleets[1], make_algorithm(algorithm, seed), budget=budget
        )
        assert state_key(new[0]) == state_key(old[0])
        assert result_key(new[1]) == result_key(old[1])
        new[0].validate()
        fleets = [new[0], old[0]]
    assert [machine_key(m) for m in pools[0].inventory()] == [
        machine_key(m) for m in pools[1].inventory()
    ]
    assert repr(pools[0].history) == repr(pools[1].history)

    # The instant controller.
    controllers = [
        cls(
            ClusterHandle(state),
            make_algorithm(algorithm, seed),
            policy="always",
            exchange_budget=budget,
        )
        for cls in (RebalanceController, oracle.OracleRebalanceController)
    ]
    outcomes = [c.maybe_rebalance(Runtime()) for c in controllers]
    assert outcomes[0] == outcomes[1]
    assert repr(controllers[0].episodes) == repr(controllers[1].episodes)
    assert state_key(controllers[0].handle.state) == state_key(controllers[1].handle.state)
    controllers[0].handle.state.validate()

    if algorithm != "sra":
        return  # the incremental controller warm-starts, which only SRA takes
    # The pool-sized incremental controller, over two control rounds.
    pool_policy = PoolSizingPolicy(
        borrow_above=borrow_above, release_below=borrow_above - 0.2, min_hold_rounds=0
    )
    controllers = [
        cls(
            ClusterHandle(state),
            make_algorithm(algorithm, seed),
            detector_config=DriftDetectorConfig(warmup_checks=1),
            pool=make_pool(state),
            pool_policy=pool_policy,
        )
        for cls in (IncrementalRebalanceController, oracle.OracleIncrementalController)
    ]
    for now in (0.0, 1.0):
        outcomes = []
        for c in controllers:
            rt = Runtime()
            rt.clock.now = now
            outcomes.append(c.maybe_rebalance(rt))
        assert outcomes[0] == outcomes[1]
    new, old = controllers
    assert repr(new.episodes) == repr(old.episodes)
    assert new.pool_manager.history == old.pool_manager.history
    assert new.pool_manager.machine_rounds == old.pool_manager.machine_rounds
    assert new.pool_manager.on_loan == old.pool_manager.on_loan
    assert state_key(new.handle.state) == state_key(old.handle.state)
    assert [machine_key(m) for m in new.pool.inventory()] == [
        machine_key(m) for m in old.pool.inventory()
    ]
    new.handle.state.validate()


# --------------------------------------------------- settle accounting
@pytest.fixture
def settle_calls(monkeypatch):
    calls = []
    real = ExchangeLedger.settle

    def counted(self, state):
        calls.append(1)
        return real(self, state)

    monkeypatch.setattr(ExchangeLedger, "settle", counted)
    return calls


def drift_state():
    return generate_instance(ScenarioSpec("zipf-popularity", FAMILIES["zipf-popularity"], seed=3))


def quick_sra():
    return make_algorithm("sra", 1)


class TestSettlesOnce:
    """A settled episode settles its ledger once: in the rebalancer's
    epilogue, whose settlement the pipeline reuses."""

    def test_facade(self, settle_calls):
        report = ResourceExchangeRebalancer(quick_sra(), exchange_machines=2).run(drift_state())
        assert report.feasible and len(settle_calls) == 1

    def test_pool(self, settle_calls):
        state = drift_state()
        slim, result = rebalance_with_pool(make_pool(state), state, quick_sra(), budget=2)
        assert result.feasible and len(settle_calls) == 1

    def test_instant_controller(self, settle_calls):
        ctrl = RebalanceController(
            ClusterHandle(drift_state()), quick_sra(), policy="always", exchange_budget=2
        )
        outcome = ctrl.maybe_rebalance(Runtime())
        assert outcome.feasible and len(settle_calls) == 1

    def test_pool_sized_controller(self, settle_calls):
        state = drift_state()
        ctrl = IncrementalRebalanceController(
            ClusterHandle(state),
            quick_sra(),
            detector_config=DriftDetectorConfig(warmup_checks=1),
            pool=make_pool(state),
            pool_policy=PoolSizingPolicy(borrow_above=0.5, release_below=0.4),
        )
        outcome = ctrl.maybe_rebalance(Runtime())
        assert outcome.feasible and len(settle_calls) == 1
        assert ctrl.pool_manager.on_loan == 2


# ------------------------------------------------------ offline fleets
class TestOfflineMachinesStayOffline:
    """Borrowing and settling used to rebuild the fleet from machine
    descriptions, which dropped the offline and blocked masks: an
    exchange episode on a failure storm then placed shards on dead
    machines."""

    @pytest.fixture
    def storm(self):
        state = generate_instance(ScenarioSpec("failure-storm", {}, seed=3))
        assert state.offline_mask.any()
        return state

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_episode_never_uses_offline_machines(self, storm, algorithm):
        episode = run_episode(
            storm, make_algorithm(algorithm, 3), make_exchange_machines(storm, 2)
        )
        offline = np.flatnonzero(storm.offline_mask)
        assert np.array_equal(episode.grown.offline_mask[: storm.num_machines], storm.offline_mask)
        assert not np.isin(episode.result.target_assignment, offline).any()
        episode.final.validate()
        if episode.feasible:
            settled = episode.settled
            settled.validate()
            assert settled.offline_mask.sum() == offline.size
            assert not settled.shard_counts_view()[settled.offline_mask].any()

    def test_cli_snapshot_keeps_offline_machines(self, storm, tmp_path):
        from repro.cli import main
        from repro.cluster import load_json, save_json

        src, out = tmp_path / "storm.json", tmp_path / "storm-out.json"
        save_json(storm, src)
        main(["run", str(src), "--exchange", "2", "--iterations", "30", "--out", str(out)])
        written = load_json(out)
        assert np.array_equal(written.offline_mask[: storm.num_machines], storm.offline_mask)
        assert not written.shard_counts_view()[written.offline_mask].any()
