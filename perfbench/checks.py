"""Correctness checks run on every operation's output.

Each check returns a short failure reason, or ``None`` when it holds.
A failed check counts the operation as failed instead of stopping the
run, so a broken fast path shows up in ``failed`` next to its timings.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Capacity tolerance, the wave scheduler's default ``atol``.
ATOL = 1e-9


def validate(state: Any) -> str | None:
    """``ClusterState.validate()`` on the final state."""
    try:
        state.validate()
    except ValueError as exc:
        return f"validate: {exc}"
    return None


def settle_conserves(final: Any, ledger: Any) -> str | None:
    """``settle_fleet`` drops exactly the returned machines, all vacant,
    and keeps every shard placed with the same demand and total load."""
    from repro.cluster import settle_fleet
    from repro.cluster.exchange import ExchangeViolation

    try:
        slim, settlement, returned = settle_fleet(final, ledger)
    except ExchangeViolation as exc:
        return f"settle: {exc}"
    if slim.num_machines + len(returned) != final.num_machines:
        return "settle: machine count not conserved"
    if len(returned) != ledger.required_returns:
        return f"settle: returned {len(returned)} machines, owed {ledger.required_returns}"
    counts = final.shard_counts_view()
    if any(counts[mid] for mid in settlement.returned_ids):
        return "settle: a returned machine still hosts shards"
    if slim.num_shards != final.num_shards or not slim.is_fully_assigned():
        return "settle: shards lost or unassigned"
    if not np.allclose(slim.loads.sum(axis=0), final.loads.sum(axis=0), rtol=1e-12, atol=1e-9):
        return "settle: total load not conserved"
    kept = slim.capacity.sum(axis=0) + sum(m.capacity for m in returned)
    if not np.allclose(kept, final.capacity.sum(axis=0), rtol=1e-12, atol=1e-9):
        return "settle: total capacity not conserved"
    return None


def plan_replays(state: Any, plan: Any, target: np.ndarray) -> str | None:
    """Replay the plan's waves from *state*: each move leaves the machine
    the shard is on, every wave's transient loads (sources still holding,
    destinations receiving) fit capacity, and the last wave lands on
    *target*."""
    if not plan.feasible:
        return f"plan: {len(plan.schedule.stranded)} stranded moves"
    loads = state.loads.copy()
    capacity = state.capacity
    demand = state.demand
    location = state.assignment.copy()
    for index, wave in enumerate(plan.schedule.waves):
        in_flight = np.zeros_like(loads)
        for mv in wave:
            if location[mv.shard_id] != mv.src:
                return f"plan: wave {index} moves shard {mv.shard_id} from the wrong machine"
            in_flight[mv.dst] += demand[mv.shard_id]
        if np.any(loads + in_flight > capacity + ATOL):
            return f"plan: wave {index} exceeds capacity in transit"
        for mv in wave:
            loads[mv.src] -= demand[mv.shard_id]
            loads[mv.dst] += demand[mv.shard_id]
            location[mv.shard_id] = mv.dst
    if not np.array_equal(location, np.asarray(target, dtype=np.int64)):
        return "plan: endpoint differs from the target assignment"
    return None


def latencies_complete(latencies: np.ndarray, arrivals: int) -> str | None:
    """Every arrival completed with a finite, non-negative latency."""
    if latencies.size != arrivals:
        return f"serve: {latencies.size} of {arrivals} arrivals completed"
    bad = int(np.count_nonzero(~np.isfinite(latencies) | (latencies < 0)))
    if bad:
        return f"serve: {bad} queries with a non-finite or negative latency"
    return None
