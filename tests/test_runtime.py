"""Tests for the unified event runtime (repro.runtime).

The two headline gates of the refactor:

* at constant machine speeds, the runtime serving path is **bitwise**
  identical to the pre-refactor ``simulate_serving`` inner loop
  (property-tested across random clusters, tracer on and off);
* the ``OnlineSimulator`` facade reproduces the historical epoch
  trajectories exactly.

Plus the executor's conservation invariants and the two audit fixes
that rode along (per-wave transfer accounting, background-load
re-validation).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms import AlnsConfig, SRA, SRAConfig
from repro.cluster import ClusterState, ExchangeLedger, Machine, Shard, settle_fleet
from repro.migration import BandwidthModel, StagingPlanner
from repro.online import OnlineSimulator, PopularityDrift
from repro.runtime import (
    FCFSMachine,
    MigrationExecutor,
    Runtime,
    ServingFleet,
    synthetic_profile,
)
from repro.simulate import (
    ServingConfig,
    WorkProfile,
    migration_background_load,
    simulate_migration_timeline,
    simulate_serving,
)
from repro.simulate.des import _effective_speeds
from repro.workloads import SyntheticConfig, generate, make_exchange_machines


# ---------------------------------------------------------------------- kernel


class TestKernel:
    def test_events_fire_in_time_then_fifo_order(self):
        rt = Runtime()
        seen = []
        rt.at(2.0, lambda r: seen.append("late"))
        rt.at(1.0, lambda r: seen.append("a"))
        rt.at(1.0, lambda r: seen.append("b"))  # same time: FIFO
        rt.run()
        assert seen == ["a", "b", "late"]
        assert rt.now == 2.0

    def test_scheduling_in_the_past_rejected(self):
        rt = Runtime()
        rt.at(5.0, lambda r: r.at(1.0, lambda r2: None))
        with pytest.raises(ValueError, match="before now"):
            rt.run()

    def test_run_until_leaves_later_events_queued(self):
        rt = Runtime()
        seen = []
        rt.at(1.0, lambda r: seen.append(1))
        rt.at(10.0, lambda r: seen.append(10))
        end = rt.run(until=5.0)
        assert seen == [1] and end == 5.0
        rt.run()
        assert seen == [1, 10]

    def test_callbacks_can_chain(self):
        rt = Runtime()
        seen = []

        def first(r):
            seen.append(r.now)
            r.after(1.5, lambda r2: seen.append(r2.now))

        rt.at(1.0, first)
        rt.run()
        assert seen == [1.0, 2.5]


# -------------------------------------------------------------- FCFS machines


class TestFCFSMachine:
    def test_speed_change_conserves_work(self):
        # 10 units of work at speed 1; halve the speed halfway through.
        m = FCFSMachine(1.0)
        q = m.fleet.open_query(0.0)
        m.enqueue(0.0, 10.0, q)
        m.set_speed(5.0, 0.5)
        m.fleet.flush()
        # 5 units done by t=5, remaining 5 at speed 0.5 -> finishes at 15.
        assert m.fleet.latencies(np.array([q]))[0] == pytest.approx(15.0)
        assert m.busy_time == pytest.approx(15.0)

    def test_queued_tasks_rechain_after_speed_change(self):
        m = FCFSMachine(2.0)
        q1, q2 = m.fleet.open_query(0.0), m.fleet.open_query(0.0)
        m.enqueue(0.0, 4.0, q1)  # serves [0, 2)
        m.enqueue(0.0, 4.0, q2)  # serves [2, 4)
        m.set_speed(1.0, 1.0)  # q1 has 2 units left -> finishes t=3
        m.fleet.flush()
        assert m.fleet.latencies(np.array([q1, q2])) == pytest.approx([3.0, 7.0])

    def test_derate_restores_exactly(self):
        m = FCFSMachine(3.0)
        m.set_derate(0.0, 0.3)
        assert m.speed == pytest.approx(2.1)
        m.clear_derate(1.0)
        assert m.speed == 3.0  # exact: restored from base_speed, not inverted

    def test_derate_fraction_validated(self):
        m = FCFSMachine(1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            m.set_derate(0.0, 1.0)


# --------------------------------------------- bitwise serving equivalence


def _legacy_simulate_serving(state, profile, cfg, mapping=None):
    """The pre-refactor simulate_serving inner loop, verbatim."""
    mapping = np.arange(state.num_shards) if mapping is None else mapping
    speed = _effective_speeds(state, cfg)
    rng = np.random.default_rng(cfg.seed)
    num_arrivals = rng.poisson(cfg.arrival_rate * cfg.duration)
    arrival_times = np.sort(rng.uniform(0.0, cfg.duration, size=num_arrivals))
    query_rows = rng.integers(0, profile.num_queries, size=num_arrivals)
    assign = state.assignment_view()
    free_at = np.zeros(state.num_machines)
    busy_time = np.zeros(state.num_machines)
    latencies = np.empty(num_arrivals)
    for qi in range(num_arrivals):
        t = arrival_times[qi]
        row = profile.work[query_rows[qi]]
        finish_max = t
        for j in range(state.num_shards):
            w = row[mapping[j]]
            if w <= 0:
                continue
            m = assign[j]
            start = max(t, free_at[m])
            service = w / speed[m]
            free_at[m] = start + service
            busy_time[m] += service
            if free_at[m] > finish_max:
                finish_max = free_at[m]
        latencies[qi] = finish_max - t
    window = cfg.duration
    if arrival_times.size:
        window = max(window, float(arrival_times[-1]))
    fraction = busy_time / window
    for mid, frac in cfg.background_load.items():
        fraction[mid] += frac
    return latencies, fraction


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    machines=st.integers(min_value=2, max_value=6),
    rate=st.sampled_from([5.0, 30.0, 80.0]),
    bg=st.booleans(),
    traced=st.booleans(),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_runtime_serving_is_bitwise_legacy(seed, machines, rate, bg, traced):
    state = generate(
        SyntheticConfig(num_machines=machines, shards_per_machine=3, seed=seed % 50)
    )
    rng = np.random.default_rng(seed)
    profile = WorkProfile(rng.uniform(0.0, 5e4, size=(11, state.num_shards)))
    # Sprinkle exact zeros so the w <= 0 skip path is exercised.
    zero_mask = rng.random(profile.work.shape) < 0.1
    profile = WorkProfile(np.where(zero_mask, 0.0, profile.work))
    cfg = ServingConfig(
        arrival_rate=rate,
        duration=3.0,
        seed=seed,
        background_load={0: 0.35} if bg else {},
    )
    lat_legacy, frac_legacy = _legacy_simulate_serving(state, profile, cfg)
    if traced:
        with obs.observed():
            report = simulate_serving(state, profile, config=cfg, capture_raw=True)
    else:
        report = simulate_serving(state, profile, config=cfg, capture_raw=True)
    # Bitwise, not approx: identical float ops in identical order.
    assert np.array_equal(lat_legacy, report.raw_latencies)
    assert np.array_equal(frac_legacy, report.machine_busy_fraction)
    assert report.queries_completed == lat_legacy.size


# ------------------------------------------ online facade trajectory identity


def _legacy_online_run(rebalancer, drift, policy, threshold, budget, state, epochs):
    """The pre-refactor OnlineSimulator.run loop, verbatim."""
    current = state
    cumulative = 0.0
    rows = []
    for epoch in range(epochs):
        current = drift.step(current)
        peak_before = current.peak_utilization()
        should = policy == "always" or (
            policy == "threshold" and peak_before > threshold
        )
        rebalanced, feasible, moves, moved_bytes = False, True, 0, 0.0
        if should:
            grown, ledger = ExchangeLedger.borrow(
                current, make_exchange_machines(current, budget)
            )
            result = rebalancer.rebalance(grown, ledger)
            if result.feasible:
                final = grown.copy()
                final.apply_assignment(result.target_assignment)
                current, _, _ = settle_fleet(final, ledger)
                rebalanced = True
                moves = result.num_moves
                moved_bytes = (
                    result.plan.schedule.total_bytes() if result.plan else 0.0
                )
            else:
                feasible = False
        cumulative += moved_bytes
        rows.append(
            (
                epoch,
                peak_before,
                current.peak_utilization(),
                rebalanced,
                feasible,
                moves,
                moved_bytes,
                cumulative,
            )
        )
    return rows


@pytest.mark.parametrize("policy,budget", [("always", 1), ("threshold", 0), ("never", 0)])
def test_online_facade_reproduces_legacy_trajectory(policy, budget):
    state = generate(
        SyntheticConfig(num_machines=5, shards_per_machine=4, placement_skew=0.6, seed=9)
    )
    epochs = 4

    def make_sra():
        return SRA(SRAConfig(alns=AlnsConfig(iterations=120, seed=2)))

    expected = _legacy_online_run(
        make_sra(), PopularityDrift(drift=0.4, seed=5), policy, 0.9, budget,
        state.copy(), epochs,
    )
    sim = OnlineSimulator(
        rebalancer=make_sra(),
        drift=PopularityDrift(drift=0.4, seed=5),
        policy=policy,
        threshold=0.9,
        exchange_budget=budget,
    )
    reports = sim.run(state.copy(), epochs)
    assert len(reports) == epochs
    got = [
        (
            r.epoch,
            r.peak_before,
            r.peak_after,
            r.rebalanced,
            r.feasible,
            r.moves,
            r.bytes_moved,
            r.cumulative_bytes,
        )
        for r in reports
    ]
    assert got == expected  # exact equality, floats included


# ------------------------------------------------------- migration executor


def _executor_fixture():
    machines = Machine.homogeneous(3, {"cpu": 4.0, "ram": 100.0, "disk": 100.0})
    shards = [
        Shard(id=j, demand=np.array([1.0, 10.0, 10.0]), size_bytes=1000.0)
        for j in range(4)
    ]
    state = ClusterState(machines, shards, [0, 0, 0, 1])
    target = np.array([0, 1, 2, 1])
    plan = StagingPlanner().plan(state, target)
    assert plan.feasible
    return state, target, plan


class TestMigrationExecutor:
    def test_conserves_bytes_and_lands_target(self):
        state, target, plan = _executor_fixture()
        location = state.assignment_view().copy()
        executor = MigrationExecutor(
            schedule=plan.schedule,
            location=location,
            loads=state.loads.copy(),
            capacity=state.capacity,
            demand=state.demand,
            model=BandwidthModel(bandwidth=100.0),
        )
        rt = Runtime()
        rt.add(executor)
        rt.run()
        assert executor.done
        assert executor.bytes_transferred == plan.schedule.total_bytes()
        assert np.array_equal(location, target)
        # All dual holds released; loads equal the target placement's.
        assert np.all(executor.in_flight == 0)
        final = state.copy()
        final.apply_assignment(target)
        np.testing.assert_allclose(executor.loads, final.loads)

    def test_transient_holds_bounded_by_capacity(self):
        state, target, plan = _executor_fixture()
        executor = MigrationExecutor(
            schedule=plan.schedule,
            location=state.assignment_view().copy(),
            loads=state.loads.copy(),
            capacity=state.capacity,
            demand=state.demand,
            model=BandwidthModel(bandwidth=100.0),
        )
        rt = Runtime()
        rt.add(executor)
        rt.run()
        # The planner's transient constraint: dual holds (src + dst both
        # charged while a copy is in flight) never exceed capacity, and
        # the executor observed a real transient above the initial peak.
        assert executor.peak_transient_utilization <= 1.0
        assert executor.peak_transient_utilization >= state.peak_utilization()

    def test_wave_intervals_cover_makespan(self):
        state, target, plan = _executor_fixture()
        model = BandwidthModel(bandwidth=100.0)
        executor = MigrationExecutor(
            schedule=plan.schedule,
            location=state.assignment_view().copy(),
            loads=state.loads.copy(),
            capacity=state.capacity,
            demand=state.demand,
            model=model,
            start_at=2.0,
        )
        rt = Runtime()
        rt.add(executor)
        rt.run()
        cost = model.cost(plan.schedule, state.num_machines)
        assert executor.wave_intervals[0][0] == 2.0
        assert executor.migration_end == pytest.approx(2.0 + cost.makespan_seconds)
        for (lo, hi), secs in zip(executor.wave_intervals, cost.wave_seconds, strict=True):
            assert hi - lo == pytest.approx(secs)

    def test_derates_restore_after_completion(self):
        state, target, plan = _executor_fixture()
        fleet = ServingFleet(np.full(state.num_machines, 1e4))
        executor = MigrationExecutor(
            schedule=plan.schedule,
            fleet=fleet,
            location=state.assignment_view().copy(),
            loads=state.loads.copy(),
            capacity=state.capacity,
            demand=state.demand,
            model=BandwidthModel(bandwidth=100.0),
            transfer_overhead=0.4,
        )
        rt = Runtime()
        rt.add(executor)
        rt.run()
        for machine in fleet:
            assert machine.speed == machine.base_speed

    def test_infeasible_schedule_rejected(self):
        state, target, plan = _executor_fixture()
        # A schedule whose feasible flag is cleared must be refused.
        bad = plan.schedule.__class__(
            waves=plan.schedule.waves, stranded=[plan.schedule.all_moves()[0]]
        )
        with pytest.raises(ValueError, match="infeasible"):
            MigrationExecutor(
                schedule=bad,
                location=state.assignment_view().copy(),
                loads=state.loads.copy(),
                capacity=state.capacity,
                demand=state.demand,
            )


# ------------------------------------------------- timeline window reporting


class TestTimeline:
    def test_no_moves_timeline_is_bitwise_plain_serving(self):
        state, _, _ = _executor_fixture()
        plan = StagingPlanner().plan(state, state.assignment)
        profile = WorkProfile(np.full((4, 4), 2000.0))
        cfg = ServingConfig(
            arrival_rate=30.0, duration=10.0, postings_per_cpu_second=1e4, seed=3
        )
        plain = simulate_serving(state, profile, config=cfg, capture_raw=True)
        timeline = simulate_migration_timeline(
            state, state.assignment, plan, profile, cfg,
            bandwidth=BandwidthModel(bandwidth=100.0),
        )
        assert np.array_equal(plain.raw_latencies, timeline.serving.raw_latencies)
        assert np.array_equal(
            plain.machine_busy_fraction, timeline.serving.machine_busy_fraction
        )
        assert timeline.waves_executed == 0
        assert timeline.bytes_transferred == 0.0

    def test_window_rows_and_phases(self):
        state, target, plan = _executor_fixture()
        profile = WorkProfile(np.full((4, 4), 2000.0))
        cfg = ServingConfig(
            arrival_rate=30.0, duration=20.0, postings_per_cpu_second=1e4, seed=3
        )
        report = simulate_migration_timeline(
            state, target, plan, profile, cfg,
            bandwidth=BandwidthModel(bandwidth=100.0),
            migration_start=5.0,
        )
        assert report.migration_start == 5.0
        assert report.migration_end > 5.0
        rows = report.rows()
        phases = [r["phase"] for r in rows]
        assert phases[-2:] == ["window", "outside"]
        assert phases[:-2] == [f"wave{i}" for i in range(report.waves_executed)]
        total = sum(r["queries"] for r in rows[:-2])
        window_row = rows[-2]
        assert window_row["queries"] == total
        assert (
            window_row["queries"] + rows[-1]["queries"]
            == report.serving.queries_completed
        )

    def test_shards_serve_from_destination_after_their_wave(self):
        # A migration finishing mid-run must change latencies relative to
        # serving the whole run from the initial placement.
        state, target, plan = _executor_fixture()
        profile = WorkProfile(np.full((4, 4), 2000.0))
        cfg = ServingConfig(
            arrival_rate=30.0, duration=20.0, postings_per_cpu_second=1e4, seed=3
        )
        report = simulate_migration_timeline(
            state, target, plan, profile, cfg,
            bandwidth=BandwidthModel(bandwidth=100.0),
            migration_start=0.0,
        )
        plain = simulate_serving(state, profile, config=cfg, capture_raw=True)
        assert not np.array_equal(plain.raw_latencies, report.serving.raw_latencies)

    def test_infeasible_plan_rejected(self):
        state, target, plan = _executor_fixture()
        profile = WorkProfile(np.full((4, 4), 2000.0))
        cfg = ServingConfig(arrival_rate=5.0, duration=2.0, seed=1)
        infeasible = plan.__class__(
            schedule=plan.schedule.__class__(
                waves=plan.schedule.waves, stranded=[plan.schedule.all_moves()[0]]
            ),
            staged_shards=plan.staged_shards,
            direct_feasible=plan.direct_feasible,
        )
        with pytest.raises(ValueError, match="infeasible"):
            simulate_migration_timeline(state, target, infeasible, profile, cfg)


# ----------------------------------------------- audit fixes (satellites)


class TestPerWaveAccounting:
    def test_dual_role_machine_not_double_charged(self):
        """A machine sending and receiving in one wave is busy for
        max(out, in)/bw (full duplex), not the sum — the old per-move
        accounting charged it twice."""
        machines = Machine.homogeneous(3, {"cpu": 4.0, "ram": 100.0, "disk": 100.0})
        shards = [
            Shard(id=j, demand=np.array([0.5, 5.0, 5.0]), size_bytes=1000.0)
            for j in range(2)
        ]
        # Shard 0: 0 -> 1; shard 1: 1 -> 2.  Machine 1 sends and receives.
        state = ClusterState(machines, shards, [0, 1])
        target = np.array([1, 2])
        plan = StagingPlanner().plan(state, target)
        assert plan.feasible
        model = BandwidthModel(bandwidth=100.0)
        busy = model.machine_busy_seconds(plan.schedule, 3)
        # Machine 1: max(1000 out, 1000 in)/100 = 10s, not 20s.
        assert busy[1] == pytest.approx(10.0)
        load = migration_background_load(
            plan, 3, bandwidth=model, transfer_overhead=0.3
        )
        makespan = model.cost(plan.schedule, 3).makespan_seconds
        for m in (0, 1, 2):
            assert load[m] == pytest.approx(0.3 * min(busy[m] / makespan, 1.0))

    def test_e15_style_fixture_fractions_pinned(self):
        """Regression pin for the single-sender fixture the window sim uses."""
        machines = Machine.homogeneous(3, {"cpu": 4.0, "ram": 100.0, "disk": 100.0})
        shards = [
            Shard(id=j, demand=np.array([1.0, 10.0, 10.0]), size_bytes=1000.0)
            for j in range(4)
        ]
        state = ClusterState(machines, shards, [0, 0, 0, 1])
        plan = StagingPlanner().plan(state, np.array([0, 1, 2, 1]))
        load = migration_background_load(
            plan, 3, bandwidth=BandwidthModel(bandwidth=100.0), transfer_overhead=0.3
        )
        # One wave: machine 0 sends 2000B (busy 20s = makespan), machines
        # 1 and 2 each receive 1000B (busy 10s).
        assert load[0] == pytest.approx(0.3)
        assert load[1] == pytest.approx(0.15)
        assert load[2] == pytest.approx(0.15)


class TestBackgroundLoadRevalidation:
    def test_mutated_mapping_rejected_at_simulation_time(self):
        """ServingConfig validates at construction, but the mapping is a
        plain dict; a fraction >= 1 smuggled in afterwards must fail at
        use, not produce a non-positive machine speed."""
        state, _, _ = _executor_fixture()
        profile = WorkProfile(np.full((4, 4), 2000.0))
        cfg = ServingConfig(arrival_rate=5.0, duration=2.0, seed=1)
        cfg.background_load[0] = 1.0  # bypasses __post_init__
        with pytest.raises(ValueError, match="must be < 1"):
            simulate_serving(state, profile, config=cfg)

    def test_negative_fraction_rejected_at_simulation_time(self):
        state, _, _ = _executor_fixture()
        profile = WorkProfile(np.full((4, 4), 2000.0))
        cfg = ServingConfig(arrival_rate=5.0, duration=2.0, seed=1)
        cfg.background_load[1] = -0.2
        with pytest.raises(ValueError, match="background_load"):
            simulate_serving(state, profile, config=cfg)


# ------------------------------------------------------- synthetic profiles


class TestSyntheticProfile:
    def test_expected_utilization_matches_snapshot(self):
        state = generate(SyntheticConfig(num_machines=4, shards_per_machine=3, seed=1))
        qps = 50.0
        profile = synthetic_profile(
            state, queries_per_second=qps, postings_per_cpu_second=1e5, noise=0.0
        )
        cpu = state.schema.index("cpu") if "cpu" in state.schema.names else 0
        per_query = profile.work[0]
        # qps * work / (capacity * ppcs) == demand / capacity per shard.
        np.testing.assert_allclose(qps * per_query / 1e5, state.demand[:, cpu])

    def test_noise_preserves_mean(self):
        state = generate(SyntheticConfig(num_machines=4, shards_per_machine=3, seed=1))
        profile = synthetic_profile(
            state,
            queries_per_second=50.0,
            postings_per_cpu_second=1e5,
            num_queries=4000,
            noise=0.3,
            seed=7,
        )
        flat = synthetic_profile(
            state, queries_per_second=50.0, postings_per_cpu_second=1e5, noise=0.0
        )
        np.testing.assert_allclose(
            profile.work.mean(axis=0), flat.work[0], rtol=0.05
        )
