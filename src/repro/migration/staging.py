"""Deadlock analysis and multi-hop staging.

When the wave scheduler strands moves, the residual instance contains a
**capacity deadlock**: every remaining destination is full until some
other remaining move frees it — a cycle in the space-dependency graph.
The classical fix is to route one shard of the cycle through a third
machine with spare headroom (two hops instead of one).  Borrowed exchange
machines, being vacant, are the ideal staging hosts; this module is where
their value for *feasibility* (not just balance) materializes, and is
measured by experiment E7.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro import obs
from repro.cluster import CAPACITY_ATOL, ClusterState
from repro.migration.moves import Move, diff_move_arrays
from repro.migration.scheduler import Schedule, WaveKernel, WaveScheduler

__all__ = ["dependency_graph", "deadlock_cycles", "StagingPlanner", "PlanResult"]


def dependency_graph(state: ClusterState, moves: list[Move]) -> nx.DiGraph:
    """Space-dependency digraph over machines.

    Edge ``s -> t`` means some move wants to push demand from ``s`` into
    ``t`` while ``t`` currently lacks headroom for it — i.e. ``t`` must be
    drained (by its own outgoing moves) before ``s`` can proceed.  Cycles
    in this graph witness capacity deadlocks.
    """
    g = nx.DiGraph()
    g.add_nodes_from(range(state.num_machines))
    headroom = state.headroom()
    for mv in moves:
        if not np.all(state.demand[mv.shard_id] <= headroom[mv.dst] + CAPACITY_ATOL):
            g.add_edge(mv.src, mv.dst, shard=mv.shard_id)
    return g


def deadlock_cycles(state: ClusterState, moves: list[Move]) -> list[list[int]]:
    """Machine cycles currently blocking progress (may be empty)."""
    g = dependency_graph(state, moves)
    return [list(c) for c in nx.simple_cycles(g)]


@dataclass
class PlanResult:
    """A complete migration plan.

    Attributes
    ----------
    schedule:
        The wave schedule actually executed (staging hops included).
    staged_shards:
        Shards that needed an intermediate hop.
    feasible:
        Whether every required move was scheduled.
    direct_feasible:
        Whether the plan would have been feasible *without* staging —
        the paper's "stringent resource environment" indicator.
    """

    schedule: Schedule
    staged_shards: tuple[int, ...] = ()
    direct_feasible: bool = True

    @property
    def feasible(self) -> bool:
        return self.schedule.feasible

    @property
    def num_hops(self) -> int:
        return sum(int(np.count_nonzero(w.hop_of >= 0)) for w in self.schedule.wave_arrays)


class StagingPlanner:
    """Plan a transient-feasible migration, staging through spare headroom.

    Parameters
    ----------
    scheduler:
        Wave scheduler used for feasibility checking and final ordering.
    max_hops_per_shard:
        Staging depth limit; 1 intermediate hop suffices for all capacity
        deadlocks that any single machine's headroom can break, higher
        values let chains of staging hosts be used.
    prefer_exchange_hosts:
        Stage through borrowed (exchange) machines before in-service ones.
    """

    def __init__(
        self,
        scheduler: WaveScheduler | None = None,
        *,
        max_hops_per_shard: int = 2,
        prefer_exchange_hosts: bool = True,
    ) -> None:
        if max_hops_per_shard < 1:
            raise ValueError("max_hops_per_shard must be >= 1")
        self.scheduler = scheduler or WaveScheduler()
        self.max_hops_per_shard = max_hops_per_shard
        self.prefer_exchange_hosts = prefer_exchange_hosts

    # ------------------------------------------------------------------ API
    def plan(self, state: ClusterState, target_assignment: np.ndarray) -> PlanResult:
        """Produce a feasible schedule from *state* to *target_assignment*.

        Staging is attempted only when direct scheduling strands moves,
        and resumes from the state where the direct pass stranded.  The
        input state is never mutated.
        """
        moves = diff_move_arrays(state, target_assignment)
        kernel = self.scheduler.start(state, moves)
        if kernel.run():
            direct = kernel.schedule()
            self._publish(direct)
            return PlanResult(schedule=direct, direct_feasible=True)

        direct = kernel.schedule()
        staged_shards = self._stage(kernel, len(moves))
        if staged_shards is None:
            self._publish(direct)
            return PlanResult(schedule=direct, direct_feasible=False)
        staged_schedule = kernel.schedule()
        self._publish(staged_schedule)
        return PlanResult(
            schedule=staged_schedule,
            staged_shards=tuple(sorted(staged_shards)),
            direct_feasible=False,
        )

    @staticmethod
    def _publish(schedule: Schedule) -> None:
        """Expose the executed schedule's transient peak to the registry."""
        metrics = obs.current().metrics
        if metrics.enabled:
            metrics.gauge("migration.peak_transient_utilization").set(
                schedule.peak_transient_utilization
            )
            metrics.counter("migration.plans").inc()

    # ------------------------------------------------------------- internal
    def _stage(self, kernel: WaveKernel, num_moves: int) -> set[int] | None:
        """Continue a stranded direct pass with on-demand staging.

        The kernel's waves so far are the staged schedule's first waves
        (the direct pass is the staging pass up to its first deadlock), so
        they are re-announced as staged and the loop goes on from there.
        The schedule the kernel ends with IS the simulated execution — it
        is never re-derived, which could fail since greedy wave packing is
        order-sensitive.  At each deadlock one stranded shard is rerouted
        through the machine with the most headroom.  Returns the staged
        shards, or None when no staging host exists for any stranded move.
        """
        for index in range(len(kernel.waves)):
            kernel.emit(index, staged=True)
        hops_used: dict[int, int] = {}
        staged_shards: set[int] = set()
        # One loop iteration per wave so far; the next one repeats the
        # direct pass's failed wave, which is known to start nothing.
        guard = len(kernel.waves)
        stalled = True
        while len(kernel.pending):
            guard += 1
            if guard > 4 * num_moves + 16:
                return None  # should not happen; safety net
            if not stalled and kernel.step(staged=True):
                continue
            stalled = False
            if not self._reroute_one(kernel, hops_used, staged_shards):
                return None
        return staged_shards

    def _reroute_one(
        self, kernel: WaveKernel, hops_used: dict[int, int], staged_shards: set[int]
    ) -> bool:
        """Stage the first stranded move that has a staging host."""
        state = kernel.state
        pending = kernel.pending
        location = kernel.location
        tracer = obs.current().tracer
        for k in np.flatnonzero(location[pending.shard] == pending.src).tolist():
            shard = int(pending.shard[k])
            if hops_used.get(shard, 0) >= self.max_hops_per_shard:
                continue
            src = int(pending.src[k])
            dst = int(pending.dst[k])
            host = self._staging_host(
                src,
                dst,
                kernel.loads,
                kernel.capacity,
                kernel.demand[shard],
                state.exchange_mask,
                blocked=state.offline_mask,
                sibling_hosts=location[state.replica_peers(shard)],
            )
            if host is None:
                continue
            kernel.split(k, host)
            hops_used[shard] = hops_used.get(shard, 0) + 1
            staged_shards.add(shard)
            if tracer.enabled:
                tracer.event(
                    "migration.staging_hop",
                    shard=shard,
                    via=int(host),
                    src=src,
                    dst=dst,
                )
            return True
        return False

    def _staging_host(
        self,
        src: int,
        dst: int,
        loads: np.ndarray,
        capacity: np.ndarray,
        extra: np.ndarray,
        exchange_mask: np.ndarray,
        blocked: np.ndarray | None = None,
        sibling_hosts: np.ndarray | None = None,
    ) -> int | None:
        """Best machine able to temporarily hold the shard, or None.

        Offline (failed) machines are never used as staging hosts;
        blocked designated-return machines remain legitimate hosts (they
        are only handed back once the migration completes).

        The fit test allows ``1e-12`` of slack, not ``CAPACITY_ATOL``:
        it ranks candidate hosts rather than judging a plan (the hop
        itself still has to pass the wave kernel's ``CAPACITY_ATOL``
        test), and a looser slack would change which host is picked.
        """
        headroom = capacity - loads
        fits = np.all(headroom >= extra - 1e-12, axis=1)
        fits[src] = False
        fits[dst] = False
        if blocked is not None:
            fits[blocked] = False
        if sibling_hosts is not None and sibling_hosts.size:
            valid = sibling_hosts[(sibling_hosts >= 0) & (sibling_hosts < fits.size)]
            fits[valid] = False
        candidates = np.flatnonzero(fits)
        if candidates.size == 0:
            return None
        slack = headroom[candidates].min(axis=1)
        if self.prefer_exchange_hosts:
            is_exch = exchange_mask[candidates]
            order = np.lexsort((-slack, ~is_exch))
        else:
            order = np.argsort(-slack)
        return int(candidates[order[0]])
