"""Differential oracle: the list-of-``Move`` migration planner.

This is the wave scheduler and staging planner as they were before the
planner moved to move arrays (:mod:`repro.migration.scheduler`), kept
verbatim so ``test_migration_oracle.py`` can pin the array planner to
it: identical waves, stranded moves, transient peaks, staged shards and
trace events.  It is test code only; nothing in ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cluster import ClusterState
from repro.migration.moves import Move


def diff_moves(
    state: ClusterState,
    target_assignment: np.ndarray,
) -> list[Move]:
    """Moves turning *state*'s current assignment into *target_assignment*.

    Shards already in place generate no move.  The state must be fully
    assigned; the target must reference valid machines.
    """
    if not state.is_fully_assigned():
        raise ValueError("diff requires a fully assigned state")
    target = np.asarray(target_assignment, dtype=np.int64)
    if target.shape != (state.num_shards,):
        raise ValueError(
            f"target must have shape ({state.num_shards},), got {target.shape}"
        )
    if np.any((target < 0) | (target >= state.num_machines)):
        raise ValueError("target references unknown machines")
    current = state.assignment_view()
    changed = np.flatnonzero(current != target)
    return [
        Move(
            shard_id=int(j),
            src=int(current[j]),
            dst=int(target[j]),
            bytes=float(state.sizes[j]),
        )
        for j in changed
    ]


@dataclass
class Schedule:
    """Result of wave scheduling.

    Attributes
    ----------
    waves:
        Ordered list of concurrent move batches.
    stranded:
        Moves that could not be scheduled (empty iff ``feasible``).
    peak_transient_utilization:
        Highest machine utilization observed at any point during the
        migration, in-flight copies included.
    """

    waves: list[list[Move]] = field(default_factory=list)
    stranded: list[Move] = field(default_factory=list)
    peak_transient_utilization: float = 0.0

    @property
    def feasible(self) -> bool:
        return not self.stranded

    @property
    def num_waves(self) -> int:
        return len(self.waves)

    @property
    def num_moves(self) -> int:
        return sum(len(w) for w in self.waves)

    def all_moves(self) -> list[Move]:
        """Scheduled moves in execution order."""
        return [mv for wave in self.waves for mv in wave]

    def total_bytes(self) -> float:
        """Bytes copied by the scheduled moves (staging hops included)."""
        return float(sum(mv.bytes for mv in self.all_moves()))


class WaveScheduler:
    """Greedy transient-feasible wave construction.

    Parameters
    ----------
    atol:
        Capacity-comparison tolerance.
    prefer_large_first:
        Within a wave, try to start large moves first — draining heavy
        shards early frees the most space for later waves (greedy
        heuristic; both orders are admissible).
    """

    def __init__(self, *, atol: float = 1e-9, prefer_large_first: bool = True) -> None:
        self.atol = atol
        self.prefer_large_first = prefer_large_first

    def schedule(self, state: ClusterState, moves: list[Move]) -> Schedule:
        """Schedule *moves* starting from *state*'s current placement.

        The input state is not mutated.  Moves must reference shards that
        currently sit on their ``src`` (as produced by ``diff_moves`` or a
        prior staging hop sequence — hop chains are handled because later
        hops only become startable after the earlier hop retires).
        """
        loads = state.loads.copy()
        capacity = state.capacity
        demand = state.demand
        # Shard location tracking so multi-hop chains schedule correctly.
        location = state.assignment.copy()

        pending = list(moves)
        if self.prefer_large_first:
            pending.sort(key=lambda mv: -mv.bytes)
        schedule = Schedule()
        # The transient peak of an empty move list is the fleet's current
        # peak, not 0.0 — "no migration" still leaves machines loaded.
        peak = float(np.max(loads / capacity)) if loads.size else 0.0
        has_replicas = bool(state.replica_groups)
        tracer = obs.current().tracer
        trace_on = tracer.enabled

        while pending:
            wave: list[Move] = []
            in_flight = np.zeros_like(loads)
            started: set[int] = set()  # shards moving this wave
            for mv in pending:
                if mv.shard_id in started:
                    continue  # one hop per shard per wave
                if location[mv.shard_id] != mv.src:
                    continue  # earlier hop not completed yet
                if has_replicas and self._replica_blocked(
                    state, location, mv.shard_id, mv.dst
                ):
                    continue  # a sibling currently lives on the destination
                extra = demand[mv.shard_id]
                if np.all(
                    loads[mv.dst] + in_flight[mv.dst] + extra
                    <= capacity[mv.dst] + self.atol
                ):
                    in_flight[mv.dst] += extra
                    wave.append(mv)
                    started.add(mv.shard_id)
            if not wave:
                schedule.stranded = pending
                break
            # Peak transient utilization during this wave.
            peak = max(peak, float(np.max((loads + in_flight) / capacity)))
            # Retire the wave: release sources, land destinations.
            for mv in wave:
                loads[mv.src] -= demand[mv.shard_id]
                loads[mv.dst] += demand[mv.shard_id]
                location[mv.shard_id] = mv.dst
            schedule.waves.append(wave)
            if trace_on:
                tracer.event(
                    "migration.wave",
                    wave=len(schedule.waves) - 1,
                    moves=len(wave),
                    bytes=float(sum(mv.bytes for mv in wave)),
                    transient_peak=peak,
                )
            done = {id(mv) for mv in wave}
            pending = [mv for mv in pending if id(mv) not in done]

        schedule.peak_transient_utilization = peak
        return schedule

    def is_feasible(self, state: ClusterState, moves: list[Move]) -> bool:
        """True when every move can be scheduled without staging."""
        return self.schedule(state, moves).feasible

    @staticmethod
    def _replica_blocked(
        state: ClusterState, location: np.ndarray, shard_id: int, dst: int
    ) -> bool:
        """True when a sibling replica currently occupies *dst*.

        Transient anti-affinity: even a copy in flight must not share a
        machine with a sibling, or a single machine failure during the
        migration would take out two replicas of one logical shard.
        """
        peers = state.replica_peers(shard_id)
        return bool(peers.size and np.any(location[peers] == dst))


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
        return sum(1 for mv in self.schedule.all_moves() if mv.is_staged_hop)


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

        Staging is attempted only when direct scheduling strands moves.
        The input state is never mutated.
        """
        moves = diff_moves(state, target_assignment)
        direct = self.scheduler.schedule(state, moves)
        if direct.feasible:
            self._publish(direct)
            return PlanResult(schedule=direct, direct_feasible=True)

        staged_schedule, staged_shards = self._stage(state, moves)
        if staged_schedule is None:
            self._publish(direct)
            return PlanResult(schedule=direct, direct_feasible=False)
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
    def _stage(
        self, state: ClusterState, moves: list[Move]
    ) -> tuple[Schedule | None, set[int]]:
        """Greedy wave simulation with on-demand staging.

        Builds the wave schedule directly (the returned schedule IS the
        simulated execution — it is never re-derived, which could fail
        since greedy wave packing is order-sensitive).  When no move can
        start, reroutes one stranded shard through the machine with the
        most headroom and continues.  Returns (None, shards) when no
        staging host exists for any stranded move.
        """
        loads = state.loads.copy()
        capacity = state.capacity
        demand = state.demand
        location = state.assignment.copy()
        hops_used: dict[int, int] = {}
        staged_shards: set[int] = set()
        schedule = Schedule()
        peak = float(np.max(loads / capacity))
        pending: list[Move] = sorted(moves, key=lambda mv: -mv.bytes)
        exchange_mask = state.exchange_mask
        tracer = obs.current().tracer
        trace_on = tracer.enabled

        guard = 0
        while pending:
            guard += 1
            if guard > 4 * len(moves) + 16:
                return None, staged_shards  # should not happen; safety net
            progressed = False
            wave: list[Move] = []
            in_flight = np.zeros_like(loads)
            started: set[int] = set()
            for mv in pending:
                if mv.shard_id in started or location[mv.shard_id] != mv.src:
                    continue
                if WaveScheduler._replica_blocked(state, location, mv.shard_id, mv.dst):
                    continue
                extra = demand[mv.shard_id]
                if np.all(
                    loads[mv.dst] + in_flight[mv.dst] + extra <= capacity[mv.dst] + 1e-9
                ):
                    in_flight[mv.dst] += extra
                    wave.append(mv)
                    started.add(mv.shard_id)
            if wave:
                peak = max(peak, float(np.max((loads + in_flight) / capacity)))
                for mv in wave:
                    loads[mv.src] -= demand[mv.shard_id]
                    loads[mv.dst] += demand[mv.shard_id]
                    location[mv.shard_id] = mv.dst
                done = {id(mv) for mv in wave}
                pending = [mv for mv in pending if id(mv) not in done]
                schedule.waves.append(wave)
                if trace_on:
                    tracer.event(
                        "migration.wave",
                        wave=len(schedule.waves) - 1,
                        moves=len(wave),
                        bytes=float(sum(m.bytes for m in wave)),
                        transient_peak=peak,
                        staged=True,
                    )
                progressed = True
                continue

            # Deadlock: stage one stranded move through a spare machine.
            for k, mv in enumerate(pending):
                if location[mv.shard_id] != mv.src:
                    continue
                if hops_used.get(mv.shard_id, 0) >= self.max_hops_per_shard:
                    continue
                host = self._staging_host(
                    mv,
                    loads,
                    capacity,
                    demand[mv.shard_id],
                    exchange_mask,
                    blocked=state.offline_mask,
                    sibling_hosts=location[state.replica_peers(mv.shard_id)],
                )
                if host is None:
                    continue
                hop1 = Move(
                    shard_id=mv.shard_id,
                    src=mv.src,
                    dst=host,
                    bytes=mv.bytes,
                    hop_of=mv.src,
                )
                hop2 = Move(
                    shard_id=mv.shard_id,
                    src=host,
                    dst=mv.dst,
                    bytes=mv.bytes,
                    hop_of=mv.src,
                )
                pending[k : k + 1] = [hop1, hop2]
                hops_used[mv.shard_id] = hops_used.get(mv.shard_id, 0) + 1
                staged_shards.add(mv.shard_id)
                if trace_on:
                    tracer.event(
                        "migration.staging_hop",
                        shard=int(mv.shard_id),
                        via=int(host),
                        src=int(mv.src),
                        dst=int(mv.dst),
                    )
                progressed = True
                break
            if not progressed:
                return None, staged_shards
        schedule.peak_transient_utilization = peak
        return schedule, staged_shards

    def _staging_host(
        self,
        mv: Move,
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
        """
        headroom = capacity - loads
        fits = np.all(headroom >= extra - 1e-12, axis=1)
        fits[mv.src] = False
        fits[mv.dst] = False
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
