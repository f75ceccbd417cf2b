"""Differential test: the array migration planner against its oracle.

``tests/migration_oracle.py`` keeps the list-of-``Move`` planner the
array planner replaced.  Over instances from the scenario registry and
targets that range from a few random reassignments to swap cycles that
capacity-deadlock and force staging, both planners must produce the same
waves (every field of every move, in order), the same stranded moves,
transient peak, staged shards and direct-feasibility verdict, and the
same ``migration.wave`` / ``migration.staging_hop`` trace events.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cluster import ExchangeLedger
from repro.migration import Move, StagingPlanner, WaveScheduler, diff_moves
from repro.scenarios import ScenarioSpec, generate_instance
from repro.workloads import make_exchange_machines
from tests import migration_oracle as oracle

#: Small instances of the families whose constraints the planner reads:
#: headroom, replica anti-affinity, offline machines, mixed capacities
#: and drifted demand.
FAMILIES = {
    "capacity-headroom": {"num_machines": 10, "shards_per_machine": 5, "headroom": 0.1},
    "replicated-shards": {"num_machines": 10, "shards_per_machine": 4},
    "failure-storm": {"num_machines": 10, "shards_per_machine": 4, "waves": 1},
    "heterogeneous-generations": {"num_machines": 12, "shards_per_machine": 6},
    "demand-drift": {"num_machines": 10, "shards_per_machine": 5},
}


def as_rows(moves):
    return [(mv.shard_id, mv.src, mv.dst, mv.bytes, mv.hop_of) for mv in moves]


def schedule_key(schedule):
    return (
        [as_rows(wave) for wave in schedule.waves],
        as_rows(schedule.stranded),
        schedule.peak_transient_utilization,
        schedule.feasible,
        schedule.num_waves,
        schedule.num_moves,
        schedule.total_bytes(),
    )


def plan_key(plan):
    return (
        schedule_key(plan.schedule),
        plan.staged_shards,
        plan.direct_feasible,
        plan.feasible,
        plan.num_hops,
    )


def traced(fn, *args):
    """``fn(*args)`` and its migration trace events (time stripped)."""
    with obs.observed() as o:
        result = fn(*args)
    events = [
        (rec["name"], rec.get("attrs"))
        for rec in o.tracer.records()
        if rec["kind"] == "event" and rec["name"].startswith("migration.")
    ]
    return result, events


def make_target(state, rng, kind):
    """A target assignment: random reassignments or a swap cycle."""
    target = state.assignment.copy()
    online = np.flatnonzero(~state.offline_mask)
    if kind == "random":
        k = int(rng.integers(1, max(2, state.num_shards // 2)))
        shards = rng.choice(state.num_shards, size=k, replace=False)
        target[shards] = rng.choice(online, size=k)
        return target
    # Swap cycle: every shard on machine i goes to machine i+1 (mod c),
    # which deadlocks on tight machines and forces staging.
    occupied = [m for m in online.tolist() if np.any(target == m)]
    c = int(rng.integers(2, max(3, min(len(occupied), 5) + 1)))
    ring = rng.permutation(occupied)[:c]
    current = state.assignment_view()
    for i, m in enumerate(ring):
        target[current == m] = ring[(i + 1) % len(ring)]
    return target


@given(
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(min_value=0, max_value=10_000),
    borrow=st.sampled_from([0, 0, 1, 2]),
    kind=st.sampled_from(["random", "swap", "swap"]),
    max_hops=st.sampled_from([1, 2, 3]),
    prefer_exchange=st.booleans(),
)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_array_planner_matches_oracle(family, seed, borrow, kind, max_hops, prefer_exchange):
    state = generate_instance(ScenarioSpec(family, FAMILIES[family], seed))
    if not state.is_fully_assigned():
        return
    if borrow:
        state, _ = ExchangeLedger.borrow(state, make_exchange_machines(state, borrow))
    target = make_target(state, np.random.default_rng(seed), kind)
    before = state.assignment.copy()

    new = StagingPlanner(max_hops_per_shard=max_hops, prefer_exchange_hosts=prefer_exchange)
    old = oracle.StagingPlanner(
        oracle.WaveScheduler(),
        max_hops_per_shard=max_hops,
        prefer_exchange_hosts=prefer_exchange,
    )
    plan_new, events_new = traced(new.plan, state, target)
    plan_old, events_old = traced(old.plan, state, target)
    assert plan_key(plan_new) == plan_key(plan_old)
    assert events_new == events_old
    # The tracer does not steer the plan.
    assert plan_key(new.plan(state, target)) == plan_key(plan_old)

    # The bare scheduler, on the direct moves and on the staged hop
    # chains (several pending moves per shard).
    for moves in (diff_moves(state, target), plan_old.schedule.all_moves()):
        sched_new, ev_new = traced(WaveScheduler().schedule, state, moves)
        sched_old, ev_old = traced(oracle.WaveScheduler().schedule, state, moves)
        assert schedule_key(sched_new) == schedule_key(sched_old)
        assert ev_new == ev_old
    np.testing.assert_array_equal(state.assignment, before)


def test_swap_cycle_exercises_staging():
    """The strategy above does reach staging and deadlocked results."""
    outcomes = set()
    for seed in range(30):
        state = generate_instance(
            ScenarioSpec("capacity-headroom", FAMILIES["capacity-headroom"], seed)
        )
        state, _ = ExchangeLedger.borrow(state, make_exchange_machines(state, seed % 2))
        target = make_target(state, np.random.default_rng(seed), "swap")
        plan = StagingPlanner().plan(state, target)
        assert plan_key(plan) == plan_key(oracle.StagingPlanner().plan(state, target))
        outcomes.add((plan.direct_feasible, plan.feasible))
    assert (False, True) in outcomes  # staged
    assert (True, True) in outcomes  # direct


def test_hop_chain_revisiting_a_machine_starts_one_hop_per_wave():
    """A chain that returns to its start has two eligible hops at once;
    only the first that fits may start (the in-order path)."""
    state = generate_instance(ScenarioSpec("capacity-headroom", FAMILIES["capacity-headroom"], 0))
    state, _ = ExchangeLedger.borrow(state, make_exchange_machines(state, 2))
    shard = 0
    home = int(state.assignment[shard])
    a, b = state.num_machines - 2, state.num_machines - 1  # vacant
    size = float(state.sizes[shard])
    chain = [
        Move(shard, home, a, size, home),
        Move(shard, a, home, size, home),
        Move(shard, home, b, size, home),
    ]
    sched_new, ev_new = traced(WaveScheduler().schedule, state, chain)
    sched_old, ev_old = traced(oracle.WaveScheduler().schedule, state, chain)
    assert schedule_key(sched_new) == schedule_key(sched_old)
    assert ev_new == ev_old
    assert [len(wave) for wave in sched_new.waves] == [1, 1, 1]
