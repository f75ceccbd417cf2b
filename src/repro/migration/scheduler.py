"""Wave scheduling of shard moves under the transient resource constraint.

The scheduler orders a set of moves into **waves**.  All moves in a wave
run concurrently; while a move is in flight its shard's demand is held on
*both* the source and the destination machine.  A move may start in a wave
only if, counting every in-flight copy, no machine exceeds capacity.
Sources release their copy when the wave completes.

When no remaining move can start, the residual move set is **capacity
deadlocked** (machines must mutually free space for each other).  The
scheduler reports stranded moves; :mod:`repro.migration.staging` breaks
such deadlocks by routing shards through machines with spare headroom —
which is exactly the role borrowed exchange machines play in the paper.

Both the scheduler and the staging planner drive one loop,
:class:`WaveKernel`, which works on :class:`~repro.migration.moves.MoveArrays`.
A :class:`Schedule` builds ``Move`` objects only when a caller reads its
``waves``, ``stranded`` or ``all_moves()``.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro import obs
from repro.cluster import CAPACITY_ATOL, ClusterState
from repro.migration.moves import Move, MoveArrays

__all__ = ["Schedule", "WaveKernel", "WaveScheduler"]


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

    The moves are held as one :class:`MoveArrays` per wave
    (``wave_arrays``) plus ``stranded_arrays``; the ``Move`` lists are
    built on first access and cached.
    """

    def __init__(
        self,
        waves: Sequence[Sequence[Move]] = (),
        stranded: Sequence[Move] = (),
        peak_transient_utilization: float = 0.0,
    ) -> None:
        self._waves: list[list[Move]] | None = [list(w) for w in waves]
        self._stranded: list[Move] | None = list(stranded)
        self.wave_arrays = [MoveArrays.from_moves(w) for w in self._waves]
        self.stranded_arrays = MoveArrays.from_moves(self._stranded)
        self.peak_transient_utilization = peak_transient_utilization

    @classmethod
    def from_arrays(
        cls,
        waves: list[MoveArrays],
        stranded: MoveArrays,
        peak_transient_utilization: float,
    ) -> Schedule:
        """A schedule over move arrays; no ``Move`` object is built."""
        schedule = cls(peak_transient_utilization=peak_transient_utilization)
        schedule._waves = schedule._stranded = None
        schedule.wave_arrays = waves
        schedule.stranded_arrays = stranded
        return schedule

    @property
    def waves(self) -> list[list[Move]]:
        if self._waves is None:
            self._waves = [w.to_moves() for w in self.wave_arrays]
        return self._waves

    @property
    def stranded(self) -> list[Move]:
        if self._stranded is None:
            self._stranded = self.stranded_arrays.to_moves()
        return self._stranded

    @property
    def feasible(self) -> bool:
        return len(self.stranded_arrays) == 0

    @property
    def num_waves(self) -> int:
        return len(self.wave_arrays)

    @property
    def num_moves(self) -> int:
        return sum(len(w) for w in self.wave_arrays)

    def all_moves(self) -> list[Move]:
        """Scheduled moves in execution order."""
        return [mv for wave in self.waves for mv in wave]

    def total_bytes(self) -> float:
        """Bytes copied by the scheduled moves (staging hops included)."""
        return float(sum(chain.from_iterable(w.bytes.tolist() for w in self.wave_arrays)))


class WaveKernel:
    """Greedy wave admission and retirement over move arrays.

    Holds the evolving migration state — loads, shard locations, the
    pending moves and the waves built so far — so the staging planner can
    resume from exactly where the direct pass stranded.

    A wave admits pending moves in order (largest ``bytes`` first, ties in
    input order): a move starts when its shard sits on its source, has not
    started a hop this wave, no sibling replica sits on its destination,
    and its demand fits the destination counting the copies already
    admitted there.  The result is bitwise identical to admitting one move
    at a time, by these rules:

    * a move that does not fit an empty in-flight row cannot fit later in
      the wave (rounded addition is monotone), so one vectorised screen
      settles every destination with at most one surviving candidate, and
      only destinations with two or more are replayed in order;
    * a shard with more than one eligible hop (a staging chain that
      revisits a machine) makes the whole wave take the in-order pass;
    * a wave retires in its admission order, source then destination per
      move (``np.add.at`` over interleaved rows), as sequential updates
      would — a machine that both sends and receives rounds differently
      under any other order;
    * byte totals are sequential Python sums.
    """

    def __init__(self, state: ClusterState, moves: MoveArrays) -> None:
        self.state = state
        self.loads = state.loads.copy()
        self.capacity = state.capacity
        self.limit = state.capacity + CAPACITY_ATOL
        self.demand = state.demand
        self.location = state.assignment
        self.pending = moves.take(np.argsort(-moves.bytes, kind="stable"))
        # The transient peak of an empty move list is the fleet's current
        # peak, not 0.0 — "no migration" still leaves machines loaded.
        self.peak = float(np.max(self.loads / self.capacity)) if self.loads.size else 0.0
        self.waves: list[MoveArrays] = []
        #: Transient peak after each wave, for replaying its trace event.
        self.wave_peaks: list[float] = []
        self.replicated: np.ndarray | None = None
        if state.replica_groups:
            self.replicated = np.zeros(state.num_shards, dtype=bool)
            for members in state.replica_groups.values():
                self.replicated[members] = True
        #: True while a shard may have several pending hops: the input
        #: holds a hop chain, or staging inserted one.
        self.chained = _has_duplicates(moves.shard)

    # ---------------------------------------------------------------- waves
    def run(self, *, staged: bool = False) -> bool:
        """Build waves until every move ran (True) or none can start."""
        while len(self.pending):
            if not self.step(staged=staged):
                return False
        return True

    def step(self, *, staged: bool = False) -> bool:
        """Admit and retire one wave; False when no move can start."""
        take = self.admit()
        if take.size == 0:
            return False
        self.retire(take)
        self.emit(len(self.waves) - 1, staged=staged)
        return True

    def admit(self) -> np.ndarray:
        """Indices into ``pending`` of the next wave, in pending order."""
        pending = self.pending
        location = self.location
        cand = np.flatnonzero(location[pending.shard] == pending.src)
        if cand.size == 0:
            return cand
        if self.chained and _has_duplicates(pending.shard[cand]):
            return self._admit_in_order(cand)
        if self.replicated is not None:
            cand = cand[~self._replica_blocked_mask(cand)]
        dst = pending.dst[cand]
        extra = self.demand[pending.shard[cand]]
        fits = np.all(self.loads[dst] + extra <= self.limit[dst], axis=1)
        cand, dst, extra = cand[fits], dst[fits], extra[fits]
        contested = np.bincount(dst, minlength=self.loads.shape[0])[dst] >= 2
        if not contested.any():
            return cand
        return cand[self._admit_contested(dst, extra, contested)]

    def _admit_contested(
        self, dst: np.ndarray, extra: np.ndarray, contested: np.ndarray
    ) -> np.ndarray:
        """Admission mask over screened candidates (in pending order).

        Uncontested candidates are admitted.  Contested ones are grouped
        by destination and replayed in rounds: round ``r`` tests the
        ``r``-th candidate of every group against that group's in-flight
        row, exactly as one-at-a-time admission would, so the rounds
        number the largest group's size, not the candidates.
        """
        admitted = ~contested
        pos = np.flatnonzero(contested)
        pos = pos[np.argsort(dst[pos], kind="stable")]
        group_dst = dst[pos]
        first = np.flatnonzero(np.concatenate(([True], group_dst[1:] != group_dst[:-1])))
        group = np.repeat(np.arange(first.size), np.diff(first, append=pos.size))
        rank = np.arange(pos.size) - first[group]
        machines = group_dst[first]
        base = self.loads[machines]
        limit = self.limit[machines]
        held = np.zeros_like(base)
        for r in range(int(rank.max()) + 1):
            at = np.flatnonzero(rank == r)
            g = group[at]
            e = extra[pos[at]]
            ok = np.all(base[g] + held[g] + e <= limit[g], axis=1)
            held[g[ok]] += e[ok]
            admitted[pos[at[ok]]] = True
        return admitted

    def _admit_in_order(self, cand: np.ndarray) -> np.ndarray:
        """One move at a time, for waves where a shard has several
        eligible hops (only the first that fits may start)."""
        pending = self.pending
        in_flight = np.zeros_like(self.loads)
        started: set[int] = set()
        take: list[int] = []
        for i in cand.tolist():
            shard = int(pending.shard[i])
            dst = int(pending.dst[i])
            if shard in started or self._replica_blocked(shard, dst):
                continue
            extra = self.demand[shard]
            if np.all(self.loads[dst] + in_flight[dst] + extra <= self.limit[dst]):
                in_flight[dst] += extra
                take.append(i)
                started.add(shard)
        return np.asarray(take, dtype=np.int64)

    def _replica_blocked_mask(self, cand: np.ndarray) -> np.ndarray:
        """Per candidate: a sibling replica sits on its destination."""
        assert self.replicated is not None
        pending = self.pending
        blocked = np.zeros(cand.size, dtype=bool)
        for i in np.flatnonzero(self.replicated[pending.shard[cand]]).tolist():
            k = cand[i]
            blocked[i] = self._replica_blocked(int(pending.shard[k]), int(pending.dst[k]))
        return blocked

    def _replica_blocked(self, shard_id: int, dst: int) -> bool:
        """True when a sibling replica currently occupies *dst*.

        Transient anti-affinity: even a copy in flight must not share a
        machine with a sibling, or a single machine failure during the
        migration would take out two replicas of one logical shard.
        """
        if self.replicated is None or not self.replicated[shard_id]:
            return False
        peers = self.state.replica_peers(shard_id)
        return bool(peers.size and np.any(self.location[peers] == dst))

    def retire(self, take: np.ndarray) -> None:
        """Run the pending moves at *take* as the next wave."""
        wave = self.pending.take(take)
        demand = self.demand[wave.shard]
        in_flight = np.zeros_like(self.loads)
        np.add.at(in_flight, wave.dst, demand)
        self.peak = max(self.peak, float(np.max((self.loads + in_flight) / self.capacity)))
        # Release sources and land destinations in admission order.
        rows = np.empty(2 * len(wave), dtype=np.int64)
        rows[0::2] = wave.src
        rows[1::2] = wave.dst
        delta = np.empty((2 * len(wave), demand.shape[1]), dtype=demand.dtype)
        delta[0::2] = -demand
        delta[1::2] = demand
        np.add.at(self.loads, rows, delta)
        self.location[wave.shard] = wave.dst
        keep = np.ones(len(self.pending), dtype=bool)
        keep[take] = False
        self.pending = self.pending.take(keep)
        self.waves.append(wave)
        self.wave_peaks.append(self.peak)

    def emit(self, index: int, *, staged: bool = False) -> None:
        """Record wave *index* as a ``migration.wave`` trace event."""
        tracer = obs.current().tracer
        if not tracer.enabled:
            return
        wave = self.waves[index]
        attrs = {"staged": True} if staged else {}
        tracer.event(
            "migration.wave",
            wave=index,
            moves=len(wave),
            bytes=wave.total_bytes(),
            transient_peak=self.wave_peaks[index],
            **attrs,
        )

    # -------------------------------------------------------------- staging
    def split(self, index: int, host: int) -> None:
        """Replace pending move *index* by two hops through *host*."""
        pending = self.pending
        shard = pending.shard[index]
        src = pending.src[index]
        nbytes = pending.bytes[index]
        hops = MoveArrays(
            np.array([shard, shard], dtype=np.int64),
            np.array([src, host], dtype=np.int64),
            np.array([host, pending.dst[index]], dtype=np.int64),
            np.array([nbytes, nbytes], dtype=np.float64),
            np.array([src, src], dtype=np.int64),
        )
        self.pending = MoveArrays.concat(
            [pending.take(slice(0, index)), hops, pending.take(slice(index + 1, None))]
        )
        self.chained = True

    def schedule(self) -> Schedule:
        """The waves so far, with the pending moves as stranded."""
        return Schedule.from_arrays(list(self.waves), self.pending, self.peak)


def _has_duplicates(values: np.ndarray) -> bool:
    # Sorting, not np.unique: the latter imports numpy.ma on first use,
    # which costs about 1.5 MB of resident memory.
    ordered = np.sort(values)
    return bool(np.any(ordered[1:] == ordered[:-1]))


class WaveScheduler:
    """Greedy transient-feasible wave construction.

    Within a wave, large moves are tried first: draining heavy shards
    early frees the most space for later waves.
    """

    def start(self, state: ClusterState, moves: MoveArrays) -> WaveKernel:
        """A kernel positioned before the first wave of *moves*."""
        return WaveKernel(state, moves)

    def schedule(self, state: ClusterState, moves: list[Move]) -> Schedule:
        """Schedule *moves* starting from *state*'s current placement.

        The input state is not mutated.  Moves must reference shards that
        currently sit on their ``src`` (as produced by ``diff_moves`` or a
        prior staging hop sequence — hop chains are handled because later
        hops only become startable after the earlier hop retires).
        """
        kernel = self.start(state, MoveArrays.from_moves(moves))
        kernel.run()
        return kernel.schedule()

    def is_feasible(self, state: ClusterState, moves: list[Move]) -> bool:
        """True when every move can be scheduled without staging."""
        return self.schedule(state, moves).feasible
